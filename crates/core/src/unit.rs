//! Data units `X = (S, O, V, P)` and their categories (paper §2.1).

use datacase_sim::time::Ts;

use crate::grounding::erasure::ErasureInterpretation;
use crate::ids::{EntityId, UnitId};
use crate::policy::{Policy, PolicySet};
use crate::value::{Value, VersionedValue};

/// Where a unit's data came from (`O` aspect).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Origin {
    /// Collected directly from the data-subject.
    Subject(EntityId),
    /// Collected by a device/sensor (the camera example; Mall readings).
    Device(String),
    /// Derived from other units.
    Derived(Vec<UnitId>),
    /// Imported from an external source.
    External(String),
}

/// The three categories of data units (paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Category {
    /// Directly or indirectly collected data.
    Base,
    /// Data obtained from base data.
    Derived,
    /// Data about data: subjects, policies, logs.
    Metadata,
}

/// The erasure lifecycle state of a unit in the *abstract model*.
///
/// This records what the system claims to have done; the storage layer's
/// forensic scanner independently verifies the physical reality, and the
/// checker compares the two (Table 1's empirical columns).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErasureStatus {
    /// Live data.
    Active,
    /// Hidden from subjects but recoverable (logical delete / tombstone).
    ReversiblyInaccessible {
        /// When inaccessibility took effect.
        since: Ts,
    },
    /// The unit and its copies physically erased.
    Deleted {
        /// When deletion completed.
        since: Ts,
    },
    /// Deleted, and identifying dependent data deleted too.
    StronglyDeleted {
        /// When strong deletion completed.
        since: Ts,
    },
    /// Strongly deleted plus drive sanitisation (or crypto-erasure).
    PermanentlyDeleted {
        /// When permanent deletion completed.
        since: Ts,
    },
}

impl ErasureStatus {
    /// Restrictiveness rank: Active=0 … PermanentlyDeleted=4. Mirrors the
    /// ordering of interpretations (strong delete ⇒ delete, paper §3.1).
    pub fn rank(self) -> u8 {
        match self {
            ErasureStatus::Active => 0,
            ErasureStatus::ReversiblyInaccessible { .. } => 1,
            ErasureStatus::Deleted { .. } => 2,
            ErasureStatus::StronglyDeleted { .. } => 3,
            ErasureStatus::PermanentlyDeleted { .. } => 4,
        }
    }

    /// Does this status satisfy (at least) the given interpretation?
    pub fn satisfies(self, interp: ErasureInterpretation) -> bool {
        self.rank() >= interp.rank()
    }

    /// The time the status took effect (None while active).
    pub fn since(self) -> Option<Ts> {
        match self {
            ErasureStatus::Active => None,
            ErasureStatus::ReversiblyInaccessible { since }
            | ErasureStatus::Deleted { since }
            | ErasureStatus::StronglyDeleted { since }
            | ErasureStatus::PermanentlyDeleted { since } => Some(since),
        }
    }

    /// Has *some* form of erasure been applied?
    pub fn is_erased(self) -> bool {
        self.rank() > 0
    }
}

/// A data unit: `X = (S, O, V, P)` plus bookkeeping aspects.
#[derive(Clone, Debug)]
pub struct DataUnit {
    /// Identifier.
    pub id: UnitId,
    /// The data-subjects identified by the unit (`S`). Base units have one;
    /// derived units aggregate the subjects of their inputs.
    pub subjects: Vec<EntityId>,
    /// Where it was collected from (`O`).
    pub origin: Origin,
    /// Time-versioned values (`V`).
    pub value: VersionedValue,
    /// Policies and their evolution (`P`).
    pub policies: PolicySet,
    /// Base / derived / metadata.
    pub category: Category,
    /// Abstract erasure lifecycle state.
    pub erasure: ErasureStatus,
    /// Whether the unit is stored encrypted at rest (invariant VI evidence).
    pub encrypted_at_rest: bool,
    /// Collection time.
    pub created_at: Ts,
}

/// The state of a unit at a given time: `X(t) = (S(t), O(t), V(t), P(t))`
/// (paper §2.1). A borrowed, point-in-time view.
#[derive(Clone, Debug)]
pub struct UnitState<'a> {
    /// Subjects at `t` (constant for base units).
    pub subjects: &'a [EntityId],
    /// Origin (constant).
    pub origin: &'a Origin,
    /// `V(t)`.
    pub value: Option<&'a Value>,
    /// `P(t)`.
    pub policies: Vec<Policy>,
}

impl DataUnit {
    /// A freshly collected base unit with a single subject.
    pub fn base(id: UnitId, subject: EntityId, origin: Origin, value: Value, now: Ts) -> DataUnit {
        DataUnit {
            id,
            subjects: vec![subject],
            origin,
            value: VersionedValue::initial(now, value),
            policies: PolicySet::new(),
            category: Category::Base,
            erasure: ErasureStatus::Active,
            encrypted_at_rest: false,
            created_at: now,
        }
    }

    /// A derived unit aggregating subjects/origins of its inputs.
    pub fn derived(
        id: UnitId,
        subjects: Vec<EntityId>,
        inputs: Vec<UnitId>,
        value: Value,
        policies: PolicySet,
        now: Ts,
    ) -> DataUnit {
        DataUnit {
            id,
            subjects,
            origin: Origin::Derived(inputs),
            value: VersionedValue::initial(now, value),
            policies,
            category: Category::Derived,
            erasure: ErasureStatus::Active,
            encrypted_at_rest: false,
            created_at: now,
        }
    }

    /// `X(t)`: the unit's state at time `t`.
    pub fn state_at(&self, t: Ts) -> UnitState<'_> {
        UnitState {
            subjects: &self.subjects,
            origin: &self.origin,
            value: self.value.at(t),
            policies: self.policies.active_at(t),
        }
    }

    /// Whether the unit identifies `subject`.
    pub fn identifies(&self, subject: EntityId) -> bool {
        self.subjects.contains(&subject)
    }

    /// Is the unit personal data (identifies at least one subject)?
    pub fn is_personal(&self) -> bool {
        !self.subjects.is_empty() && self.category != Category::Metadata
    }

    /// Transition the erasure status; the new status must be at least as
    /// restrictive as the old one (erasure never regresses, Figure 3).
    ///
    /// The single exception is `Restore`: a reversibly-inaccessible unit
    /// may return to `Active`, which is exactly what makes that
    /// interpretation *invertible* in Table 1. Use [`DataUnit::restore`].
    pub fn escalate_erasure(&mut self, to: ErasureStatus) {
        assert!(
            to.rank() >= self.erasure.rank(),
            "erasure cannot regress: {:?} -> {:?}",
            self.erasure,
            to
        );
        self.erasure = to;
    }

    /// Restore a reversibly-inaccessible unit to `Active`. Returns false
    /// (and does nothing) for any other status — deletion is not invertible.
    pub fn restore(&mut self) -> bool {
        if matches!(self.erasure, ErasureStatus::ReversiblyInaccessible { .. }) {
            self.erasure = ErasureStatus::Active;
            true
        } else {
            false
        }
    }

    /// Erase the value content at `now` (model-level; physical erasure is
    /// the storage layer's job): every earlier version's content goes,
    /// then an erased version is appended.
    pub fn blank_value(&mut self, now: Ts) {
        self.value.erase_contents();
        self.value.write(now, Value::Erased);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purpose::well_known as wk;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    fn mk_unit() -> DataUnit {
        DataUnit::base(
            UnitId(1),
            EntityId(7),
            Origin::Subject(EntityId(7)),
            "cc-4242".into(),
            t(10),
        )
    }

    #[test]
    fn state_at_reflects_versions_and_policies() {
        let mut u = mk_unit();
        u.policies.grant(
            Policy::new(wk::billing(), EntityId(1), t(10), t(100)),
            t(10),
        );
        u.value.write(t(50), "cc-5353".into());
        let s1 = u.state_at(t(20));
        assert_eq!(s1.value, Some(&Value::Text("cc-4242".into())));
        assert_eq!(s1.policies.len(), 1);
        let s2 = u.state_at(t(60));
        assert_eq!(s2.value, Some(&Value::Text("cc-5353".into())));
        let s3 = u.state_at(t(200));
        assert!(s3.policies.is_empty());
    }

    #[test]
    fn erasure_ranks_are_ordered() {
        assert!(ErasureStatus::Active.rank() < ErasureStatus::Deleted { since: t(0) }.rank());
        assert!(
            ErasureStatus::Deleted { since: t(0) }.rank()
                < ErasureStatus::StronglyDeleted { since: t(0) }.rank()
        );
        assert!(
            ErasureStatus::StronglyDeleted { since: t(0) }.rank()
                < ErasureStatus::PermanentlyDeleted { since: t(0) }.rank()
        );
    }

    #[test]
    fn strong_delete_satisfies_delete() {
        let s = ErasureStatus::StronglyDeleted { since: t(5) };
        assert!(s.satisfies(ErasureInterpretation::Deleted));
        assert!(s.satisfies(ErasureInterpretation::ReversiblyInaccessible));
        assert!(!s.satisfies(ErasureInterpretation::PermanentlyDeleted));
        assert_eq!(s.since(), Some(t(5)));
    }

    #[test]
    fn escalation_works_and_regression_panics() {
        let mut u = mk_unit();
        u.escalate_erasure(ErasureStatus::ReversiblyInaccessible { since: t(20) });
        u.escalate_erasure(ErasureStatus::Deleted { since: t(30) });
        assert!(u.erasure.is_erased());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.escalate_erasure(ErasureStatus::ReversiblyInaccessible { since: t(40) });
        }));
        assert!(r.is_err(), "regression must panic");
    }

    #[test]
    fn restore_only_from_reversible() {
        let mut u = mk_unit();
        u.escalate_erasure(ErasureStatus::ReversiblyInaccessible { since: t(20) });
        assert!(u.restore());
        assert_eq!(u.erasure, ErasureStatus::Active);
        u.escalate_erasure(ErasureStatus::Deleted { since: t(30) });
        assert!(!u.restore());
        assert!(u.erasure.is_erased());
    }

    #[test]
    fn derived_units_aggregate_subjects() {
        let d = DataUnit::derived(
            UnitId(5),
            vec![EntityId(1), EntityId(2)],
            vec![UnitId(1), UnitId(2)],
            Value::Number(42),
            PolicySet::new(),
            t(0),
        );
        assert!(d.identifies(EntityId(1)));
        assert!(d.identifies(EntityId(2)));
        assert!(!d.identifies(EntityId(3)));
        assert_eq!(d.category, Category::Derived);
        assert!(matches!(d.origin, Origin::Derived(ref v) if v.len() == 2));
    }

    #[test]
    fn metadata_units_are_not_personal() {
        let mut u = mk_unit();
        u.category = Category::Metadata;
        assert!(!u.is_personal());
    }

    #[test]
    fn blank_value_appends_erased_version() {
        let mut u = mk_unit();
        u.blank_value(t(99));
        assert!(u.value.current().unwrap().is_erased());
        // The record that an earlier version existed stays; its content
        // does not.
        assert_eq!(u.value.len(), 2);
        assert!(u.value.versions().iter().all(|(_, v)| v.is_erased()));
    }
}
