//! Actions: operations that read or change the state of data units
//! (paper §2.1 — "any operation that changes the state of data units",
//! plus reads, which regulations also constrain).

use crate::grounding::erasure::ErasureInterpretation;

/// The kind of an action, used for purpose groundings and statistics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ActionKind {
    /// Creation of a data unit (collection).
    Create,
    /// Read of the unit's value.
    Read,
    /// Update of the unit's value.
    UpdateValue,
    /// Read of metadata aspects (policies, subject, origin).
    ReadMeta,
    /// Update of metadata aspects other than policies.
    UpdateMeta,
    /// Change to the unit's policy set (consent granted/withdrawn).
    UpdatePolicy,
    /// Derivation of a new unit from this one.
    Derive,
    /// Disclosure of the unit to another entity.
    Share,
    /// Erasure under some interpretation.
    Erase,
    /// Restoration of a reversibly-inaccessible unit.
    Restore,
    /// Drive-sanitisation pass over the unit's residuals.
    Sanitize,
    /// Notification sent to the data-subject (breach, policy change).
    Notify,
    /// A pre-processing assessment (PIA, G35).
    Assess,
}

impl ActionKind {
    /// Whether the action mutates the unit's state (vs only reading it).
    pub fn is_mutation(self) -> bool {
        !matches!(self, ActionKind::Read | ActionKind::ReadMeta)
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ActionKind::Create => "create",
            ActionKind::Read => "read",
            ActionKind::UpdateValue => "update-value",
            ActionKind::ReadMeta => "read-meta",
            ActionKind::UpdateMeta => "update-meta",
            ActionKind::UpdatePolicy => "update-policy",
            ActionKind::Derive => "derive",
            ActionKind::Share => "share",
            ActionKind::Erase => "erase",
            ActionKind::Restore => "restore",
            ActionKind::Sanitize => "sanitize",
            ActionKind::Notify => "notify",
            ActionKind::Assess => "assess",
        }
    }
}

/// A concrete action `τ` on a data unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Collect/create the unit.
    Create,
    /// Read the unit's value.
    Read,
    /// Overwrite the unit's value.
    UpdateValue,
    /// Read metadata (policies/subject/origin).
    ReadMeta,
    /// Update non-policy metadata.
    UpdateMeta,
    /// Grant or revoke a policy.
    UpdatePolicy,
    /// Derive a new unit from this one (the derived unit is in the
    /// provenance graph).
    Derive,
    /// Disclose the unit to another entity.
    Share,
    /// Erase under the given interpretation.
    Erase(ErasureInterpretation),
    /// Restore a reversibly-inaccessible unit.
    Restore,
    /// Run a sanitisation pass over residuals of the unit.
    Sanitize,
    /// Notify the data-subject (GDPR Arts. 19/33/34).
    Notify,
    /// Record a pre-processing assessment (GDPR Art. 35).
    Assess,
}

impl Action {
    /// The action's kind.
    pub fn kind(&self) -> ActionKind {
        match self {
            Action::Create => ActionKind::Create,
            Action::Read => ActionKind::Read,
            Action::UpdateValue => ActionKind::UpdateValue,
            Action::ReadMeta => ActionKind::ReadMeta,
            Action::UpdateMeta => ActionKind::UpdateMeta,
            Action::UpdatePolicy => ActionKind::UpdatePolicy,
            Action::Derive => ActionKind::Derive,
            Action::Share => ActionKind::Share,
            Action::Erase(_) => ActionKind::Erase,
            Action::Restore => ActionKind::Restore,
            Action::Sanitize => ActionKind::Sanitize,
            Action::Notify => ActionKind::Notify,
            Action::Assess => ActionKind::Assess,
        }
    }

    /// Whether the action mutates unit state.
    pub fn is_mutation(&self) -> bool {
        self.kind().is_mutation()
    }

    /// The audit-record label of the action: the statement a workload
    /// action runs as, an erasure's interpretation, or else the action
    /// kind's label. One label per action, so a chained record names its
    /// action exactly ([`Action::from_label`]).
    pub fn label(&self) -> &'static str {
        use ErasureInterpretation::*;
        match self {
            Action::Create => "INSERT",
            Action::Read => "SELECT",
            Action::UpdateValue => "UPDATE",
            Action::ReadMeta => "SELECT-META",
            Action::Erase(ReversiblyInaccessible) => "HIDE",
            Action::Erase(Deleted) => "DELETE",
            Action::Erase(StronglyDeleted) => "DELETE-STRONG",
            Action::Erase(PermanentlyDeleted) => "DELETE-PERMANENT",
            other => other.kind().label(),
        }
    }

    /// The action a record label names, the inverse of [`Action::label`];
    /// `None` for a label that names no action (a denial's `DENIED`).
    pub fn from_label(label: &str) -> Option<Action> {
        use ErasureInterpretation::*;
        Some(match label {
            "INSERT" => Action::Create,
            "SELECT" => Action::Read,
            "UPDATE" => Action::UpdateValue,
            "SELECT-META" => Action::ReadMeta,
            "update-meta" => Action::UpdateMeta,
            "update-policy" => Action::UpdatePolicy,
            "derive" => Action::Derive,
            "share" => Action::Share,
            "HIDE" => Action::Erase(ReversiblyInaccessible),
            "DELETE" => Action::Erase(Deleted),
            "DELETE-STRONG" => Action::Erase(StronglyDeleted),
            "DELETE-PERMANENT" => Action::Erase(PermanentlyDeleted),
            "restore" => Action::Restore,
            "sanitize" => Action::Sanitize,
            "notify" => Action::Notify,
            "assess" => Action::Assess,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Erase(i) => write!(f, "erase[{i}]"),
            other => f.write_str(other.kind().label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_variants() {
        assert_eq!(Action::Create.kind(), ActionKind::Create);
        assert_eq!(Action::Derive.kind(), ActionKind::Derive);
        assert_eq!(
            Action::Erase(ErasureInterpretation::Deleted).kind(),
            ActionKind::Erase
        );
    }

    #[test]
    fn reads_are_not_mutations() {
        assert!(!Action::Read.is_mutation());
        assert!(!Action::ReadMeta.is_mutation());
        assert!(Action::UpdateValue.is_mutation());
        assert!(Action::Erase(ErasureInterpretation::Deleted).is_mutation());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Action::Read), "read");
        assert_eq!(format!("{}", Action::Share), "share");
        assert!(format!("{}", Action::Erase(ErasureInterpretation::Deleted)).contains("erase"));
    }

    #[test]
    fn record_labels_round_trip_and_are_distinct() {
        let mut actions = vec![
            Action::Create,
            Action::Read,
            Action::UpdateValue,
            Action::ReadMeta,
            Action::UpdateMeta,
            Action::UpdatePolicy,
            Action::Derive,
            Action::Share,
            Action::Restore,
            Action::Sanitize,
            Action::Notify,
            Action::Assess,
        ];
        actions.extend(ErasureInterpretation::ALL.map(Action::Erase));
        let mut labels = std::collections::HashSet::new();
        for a in &actions {
            assert_eq!(Action::from_label(a.label()).as_ref(), Some(a), "{a}");
            assert!(labels.insert(a.label()), "{a}: label {} reused", a.label());
        }
        assert_eq!(labels.len(), 16);
        assert_eq!(Action::from_label("DENIED"), None);
    }

    #[test]
    fn labels_cover_all_kinds() {
        for k in [
            ActionKind::Create,
            ActionKind::Read,
            ActionKind::UpdateValue,
            ActionKind::ReadMeta,
            ActionKind::UpdateMeta,
            ActionKind::UpdatePolicy,
            ActionKind::Derive,
            ActionKind::Share,
            ActionKind::Erase,
            ActionKind::Restore,
            ActionKind::Sanitize,
            ActionKind::Notify,
            ActionKind::Assess,
        ] {
            assert!(!k.label().is_empty());
        }
    }
}
