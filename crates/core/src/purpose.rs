//! Purposes of data processing (paper §2.1 and §3.2).
//!
//! A purpose names the task or service collected data is used for; the
//! paper's example: Netflix collects credit cards *for billing* and viewing
//! history *for targeted advertising*. Grounding a purpose (paper §3.2)
//! means fixing the set of action kinds it authorises — e.g. *billing*
//! allows reading and processing the card with the bank but not sharing it
//! with a third party. [`PurposeRegistry`] holds those grounded authorisations.

use std::collections::HashMap;

use crate::action::ActionKind;
use crate::intern::Symbol;

/// An interned purpose name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PurposeId(Symbol);

impl PurposeId {
    /// Intern a purpose by name.
    pub fn new(name: &str) -> PurposeId {
        PurposeId(Symbol::intern(name))
    }

    /// The purpose's name.
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl std::fmt::Debug for PurposeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Purpose({})", self.name())
    }
}

impl std::fmt::Display for PurposeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Well-known purposes used throughout the paper's examples and the
/// benchmark workloads. Each is interned once and cached: the engine asks
/// for several per operation on every shard thread, and the interner's
/// lock must not be on that path.
pub mod well_known {
    use super::PurposeId;
    use std::sync::OnceLock;

    macro_rules! well_known {
        ($($(#[$doc:meta])* $name:ident = $text:literal;)*) => {$(
            $(#[$doc])*
            pub fn $name() -> PurposeId {
                static ID: OnceLock<PurposeId> = OnceLock::new();
                *ID.get_or_init(|| PurposeId::new($text))
            }
        )*};
    }

    well_known! {
        /// Billing / payment processing (the Netflix running example).
        billing = "billing";
        /// Retention by a storage processor (the AWS running example).
        retention = "retention";
        /// Targeted advertising.
        advertising = "advertising";
        /// Analytics over (possibly derived) data.
        analytics = "analytics";
        /// The special purpose G17 hinges on: erase-by-deadline obligations.
        compliance_erase = "compliance-erase";
        /// Contract formation / consent capture ("comp" in the paper's
        /// action-history example).
        contract = "contract";
        /// Audit access by a supervisory authority or internal auditor.
        audit = "audit";
        /// Smart-space service provision (the MetaSpace example).
        smart_space = "smart-space";
        /// The data-subject exercising their own rights (access,
        /// rectification, erasure requests) — what invariant II requires
        /// storage to support.
        subject_access = "subject-access";
    }
}

/// A grounded purpose: which action kinds it authorises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PurposeGrounding {
    /// The purpose being grounded.
    pub purpose: PurposeId,
    /// The action kinds the purpose authorises.
    pub allowed: Vec<ActionKind>,
}

/// Registry of grounded purposes.
///
/// A purpose not present in the registry is *ungrounded*: the model then
/// falls back to authorising every action kind (matching the paper's
/// observation that ungrounded concepts admit many interpretations — the
/// registry is how a deployment pins one down).
#[derive(Clone, Debug, Default)]
pub struct PurposeRegistry {
    groundings: HashMap<PurposeId, Vec<ActionKind>>,
}

impl PurposeRegistry {
    /// An empty registry (all purposes ungrounded).
    pub fn new() -> PurposeRegistry {
        PurposeRegistry::default()
    }

    /// A registry with sensible groundings for the well-known purposes.
    pub fn with_defaults() -> PurposeRegistry {
        use well_known as wk;
        let mut r = PurposeRegistry::new();
        r.ground(wk::billing(), &[ActionKind::Read, ActionKind::ReadMeta]);
        r.ground(
            wk::retention(),
            &[
                ActionKind::Read,
                ActionKind::UpdateValue,
                ActionKind::ReadMeta,
            ],
        );
        r.ground(
            wk::advertising(),
            &[ActionKind::Read, ActionKind::Derive, ActionKind::ReadMeta],
        );
        r.ground(
            wk::analytics(),
            &[ActionKind::Read, ActionKind::Derive, ActionKind::ReadMeta],
        );
        r.ground(
            wk::compliance_erase(),
            &[
                ActionKind::Erase,
                ActionKind::Sanitize,
                ActionKind::ReadMeta,
            ],
        );
        r.ground(
            wk::contract(),
            &[
                ActionKind::Create,
                ActionKind::UpdatePolicy,
                ActionKind::ReadMeta,
                ActionKind::UpdateMeta,
            ],
        );
        r.ground(wk::audit(), &[ActionKind::ReadMeta]);
        r.ground(
            wk::subject_access(),
            &[
                ActionKind::Read,
                ActionKind::ReadMeta,
                ActionKind::UpdateValue,
                ActionKind::UpdatePolicy,
                ActionKind::Erase,
                ActionKind::Restore,
            ],
        );
        r.ground(
            wk::smart_space(),
            &[
                ActionKind::Read,
                ActionKind::UpdateValue,
                ActionKind::ReadMeta,
                ActionKind::UpdateMeta,
                ActionKind::Derive,
            ],
        );
        r
    }

    /// Ground `purpose` to the given allowed action kinds (replaces any
    /// previous grounding).
    pub fn ground(&mut self, purpose: PurposeId, allowed: &[ActionKind]) {
        self.groundings.insert(purpose, allowed.to_vec());
    }

    /// Is `kind` authorised under `purpose`? Ungrounded purposes authorise
    /// everything (see type-level docs).
    pub fn authorises(&self, purpose: PurposeId, kind: ActionKind) -> bool {
        match self.groundings.get(&purpose) {
            Some(allowed) => allowed.contains(&kind),
            None => true,
        }
    }

    /// Whether the purpose has been grounded.
    pub fn is_grounded(&self, purpose: PurposeId) -> bool {
        self.groundings.contains_key(&purpose)
    }

    /// The grounding for a purpose, if any.
    pub fn grounding(&self, purpose: PurposeId) -> Option<PurposeGrounding> {
        self.groundings
            .get(&purpose)
            .map(|allowed| PurposeGrounding {
                purpose,
                allowed: allowed.clone(),
            })
    }

    /// Number of grounded purposes.
    pub fn len(&self) -> usize {
        self.groundings.len()
    }

    /// True if no purpose has been grounded.
    pub fn is_empty(&self) -> bool {
        self.groundings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purpose_identity_is_by_name() {
        assert_eq!(PurposeId::new("billing"), well_known::billing());
        assert_ne!(well_known::billing(), well_known::retention());
        assert_eq!(well_known::billing().name(), "billing");
    }

    #[test]
    fn default_groundings_restrict_billing() {
        let r = PurposeRegistry::with_defaults();
        assert!(r.authorises(well_known::billing(), ActionKind::Read));
        assert!(!r.authorises(well_known::billing(), ActionKind::Share));
        assert!(!r.authorises(well_known::billing(), ActionKind::Erase));
    }

    #[test]
    fn ungrounded_purpose_authorises_everything() {
        let r = PurposeRegistry::new();
        let p = PurposeId::new("novel-purpose");
        assert!(!r.is_grounded(p));
        assert!(r.authorises(p, ActionKind::Share));
        assert!(r.authorises(p, ActionKind::Erase));
    }

    #[test]
    fn regrounding_replaces() {
        let mut r = PurposeRegistry::new();
        let p = PurposeId::new("p-test-reground");
        r.ground(p, &[ActionKind::Read]);
        assert!(!r.authorises(p, ActionKind::Share));
        r.ground(p, &[ActionKind::Share]);
        assert!(r.authorises(p, ActionKind::Share));
        assert!(!r.authorises(p, ActionKind::Read));
        assert_eq!(r.grounding(p).unwrap().allowed, vec![ActionKind::Share]);
    }

    #[test]
    fn compliance_erase_authorises_erasure_only_paths() {
        let r = PurposeRegistry::with_defaults();
        let p = well_known::compliance_erase();
        assert!(r.authorises(p, ActionKind::Erase));
        assert!(r.authorises(p, ActionKind::Sanitize));
        assert!(!r.authorises(p, ActionKind::Read));
    }
}
