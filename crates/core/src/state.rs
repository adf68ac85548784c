//! The abstract database state: "the collection of the states of all data
//! units in the database" (paper §2.1).

use std::collections::HashMap;

use datacase_sim::time::Ts;

use crate::ids::{EntityId, UnitId};
use crate::policy::PolicySet;
use crate::provenance::{Derivation, ProvenanceGraph};
use crate::unit::{DataUnit, ErasureStatus, Origin};
use crate::value::Value;

/// The model-level database: data units plus their provenance.
///
/// This is Data-CASE's *abstract* view of a system — engines (the heap or
/// LSM backends) hold the physical bytes, and the compliance checker
/// compares the two. An engine therefore collects its units as
/// [`Value::Stored`]: the state knows every version's time and size
/// ([`personal_bytes`](DatabaseState::personal_bytes) is Table 2's
/// denominator) and never its content, so there is no second copy of a
/// payload to erase, leak or pay memory for. The state is also directly
/// usable on its own, with content-carrying values, which is how the
/// examples demonstrate the framework without a storage engine.
#[derive(Clone, Debug, Default)]
pub struct DatabaseState {
    units: HashMap<UnitId, DataUnit>,
    provenance: ProvenanceGraph,
    next_unit: u64,
}

impl DatabaseState {
    /// An empty state.
    pub fn new() -> DatabaseState {
        DatabaseState::default()
    }

    /// Allocate the next unit id.
    pub fn allocate_unit_id(&mut self) -> UnitId {
        let id = UnitId(self.next_unit);
        self.next_unit += 1;
        id
    }

    /// Collect a new base unit for `subject` with initial `value`.
    pub fn collect(&mut self, subject: EntityId, origin: Origin, value: Value, now: Ts) -> UnitId {
        let id = self.allocate_unit_id();
        self.units
            .insert(id, DataUnit::base(id, subject, origin, value, now));
        id
    }

    /// Insert a pre-built unit (used by derivations and tests).
    ///
    /// # Panics
    /// Panics if the id is already present.
    pub fn insert(&mut self, unit: DataUnit) {
        assert!(
            !self.units.contains_key(&unit.id),
            "unit {} already present",
            unit.id
        );
        self.next_unit = self.next_unit.max(unit.id.0 + 1);
        self.units.insert(unit.id, unit);
    }

    /// Derive a new unit from `inputs` with the given dependency function.
    ///
    /// Subjects and origin aggregate over the inputs; policies are the
    /// restriction (intersection) of the inputs' active policies, as §2.1
    /// prescribes for derived data.
    pub fn derive(
        &mut self,
        inputs: &[UnitId],
        func: &str,
        invertible: bool,
        identifying: bool,
        value: Value,
        now: Ts,
    ) -> UnitId {
        assert!(!inputs.is_empty(), "derivation needs at least one input");
        let mut subjects: Vec<EntityId> = Vec::new();
        for &i in inputs {
            let u = self.units.get(&i).expect("derivation input must exist");
            for &s in &u.subjects {
                if identifying && !subjects.contains(&s) {
                    subjects.push(s);
                }
            }
        }
        let parent_sets: Vec<&PolicySet> = inputs.iter().map(|i| &self.units[i].policies).collect();
        let policies = PolicySet::restrict_for_derivation(&parent_sets, now);
        let id = self.allocate_unit_id();
        self.units.insert(
            id,
            DataUnit::derived(id, subjects, inputs.to_vec(), value, policies, now),
        );
        self.provenance.record(Derivation {
            output: id,
            inputs: inputs.to_vec(),
            func: crate::intern::Symbol::intern(func),
            invertible,
            identifying,
            at: now,
        });
        id
    }

    /// Look up a unit.
    pub fn unit(&self, id: UnitId) -> Option<&DataUnit> {
        self.units.get(&id)
    }

    /// Mutable lookup.
    pub fn unit_mut(&mut self, id: UnitId) -> Option<&mut DataUnit> {
        self.units.get_mut(&id)
    }

    /// The provenance graph.
    pub fn provenance(&self) -> &ProvenanceGraph {
        &self.provenance
    }

    /// Iterate over all units (arbitrary order).
    pub fn units(&self) -> impl Iterator<Item = &DataUnit> {
        self.units.values()
    }

    /// Iterate over unit ids in ascending order (deterministic reports).
    pub fn unit_ids_sorted(&self) -> Vec<UnitId> {
        let mut ids: Vec<UnitId> = self.units.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Number of units (including erased ones — the model never forgets
    /// that a unit existed; only its content is erased).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the state holds no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Is the unit's content still obtainable in the model (not erased
    /// beyond reversible inaccessibility)?
    pub fn content_alive(&self, id: UnitId) -> bool {
        self.units
            .get(&id)
            .map(|u| {
                u.erasure.rank() <= 1 && !u.value.current().map(Value::is_erased).unwrap_or(true)
            })
            .unwrap_or(false)
    }

    /// All personal (base/derived, subject-identifying) units of `subject`.
    pub fn units_of_subject(&self, subject: EntityId) -> Vec<UnitId> {
        let mut ids: Vec<UnitId> = self
            .units
            .values()
            .filter(|u| u.is_personal() && u.identifies(subject))
            .map(|u| u.id)
            .collect();
        ids.sort();
        ids
    }

    /// Mark a unit erased at the model level and blank its value.
    /// Delegates the regression check to [`DataUnit::escalate_erasure`].
    pub fn mark_erased(&mut self, id: UnitId, status: ErasureStatus, now: Ts) {
        let u = self.units.get_mut(&id).expect("unit must exist to erase");
        u.escalate_erasure(status);
        if status.rank() >= 2 {
            u.blank_value(now);
        }
    }

    /// Approximate personal-data payload bytes (current versions of live
    /// personal units) — the "Personal data size" column of Table 2.
    pub fn personal_bytes(&self) -> u64 {
        self.units
            .values()
            .filter(|u| u.is_personal())
            .filter_map(|u| u.value.current())
            .map(|v| v.size() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::purpose::well_known as wk;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    #[test]
    fn collect_allocates_sequential_ids() {
        let mut s = DatabaseState::new();
        let a = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "a".into(), t(0));
        let b = s.collect(EntityId(2), Origin::Subject(EntityId(2)), "b".into(), t(1));
        assert_eq!(a, UnitId(0));
        assert_eq!(b, UnitId(1));
        assert_eq!(s.len(), 2);
        assert!(s.content_alive(a));
    }

    #[test]
    fn derive_aggregates_subjects_and_restricts_policies() {
        let mut s = DatabaseState::new();
        let e = EntityId(10);
        let a = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "a".into(), t(0));
        let b = s.collect(EntityId(2), Origin::Subject(EntityId(2)), "b".into(), t(0));
        s.unit_mut(a)
            .unwrap()
            .policies
            .grant(Policy::new(wk::analytics(), e, t(0), t(100)), t(0));
        s.unit_mut(b)
            .unwrap()
            .policies
            .grant(Policy::new(wk::analytics(), e, t(0), t(50)), t(0));
        let d = s.derive(&[a, b], "join", false, true, Value::Number(2), t(10));
        let du = s.unit(d).unwrap();
        assert_eq!(du.subjects.len(), 2);
        assert_eq!(du.category, crate::unit::Category::Derived);
        let pol = du.policies.active_at(t(20));
        assert_eq!(pol.len(), 1);
        assert_eq!(pol[0].until, t(50));
        assert_eq!(s.provenance().parents(d), &[a, b]);
    }

    #[test]
    fn anonymising_derivation_has_no_subjects() {
        let mut s = DatabaseState::new();
        let a = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "a".into(), t(0));
        let d = s.derive(&[a], "count", false, false, Value::Number(1), t(5));
        assert!(s.unit(d).unwrap().subjects.is_empty());
        assert!(!s.unit(d).unwrap().is_personal());
    }

    #[test]
    fn mark_erased_blanks_value_for_delete_and_above() {
        let mut s = DatabaseState::new();
        let a = s.collect(
            EntityId(1),
            Origin::Subject(EntityId(1)),
            "pii".into(),
            t(0),
        );
        s.mark_erased(
            a,
            ErasureStatus::ReversiblyInaccessible { since: t(1) },
            t(1),
        );
        assert!(s.content_alive(a), "reversible keeps content");
        s.mark_erased(a, ErasureStatus::Deleted { since: t(2) }, t(2));
        assert!(!s.content_alive(a));
        assert!(s.unit(a).unwrap().value.current().unwrap().is_erased());
    }

    #[test]
    fn units_of_subject_filters_and_sorts() {
        let mut s = DatabaseState::new();
        let a = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "a".into(), t(0));
        let _b = s.collect(EntityId(2), Origin::Subject(EntityId(2)), "b".into(), t(0));
        let c = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "c".into(), t(0));
        assert_eq!(s.units_of_subject(EntityId(1)), vec![a, c]);
    }

    #[test]
    fn personal_bytes_counts_current_versions() {
        let mut s = DatabaseState::new();
        let a = s.collect(
            EntityId(1),
            Origin::Subject(EntityId(1)),
            Value::Bytes(vec![0; 64]),
            t(0),
        );
        let _ = s.collect(
            EntityId(2),
            Origin::Subject(EntityId(2)),
            Value::Bytes(vec![0; 36]),
            t(0),
        );
        assert_eq!(s.personal_bytes(), 100);
        s.mark_erased(a, ErasureStatus::Deleted { since: t(1) }, t(1));
        assert_eq!(s.personal_bytes(), 36);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut s = DatabaseState::new();
        let a = s.collect(EntityId(1), Origin::Subject(EntityId(1)), "a".into(), t(0));
        let u = s.unit(a).unwrap().clone();
        s.insert(u);
    }
}
