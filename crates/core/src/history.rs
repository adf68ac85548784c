//! Action histories: the paper's `(X, p, e, τ(X), t)` tuples and `H(X)`
//! (paper §2.1), plus the policy-consistency predicate (the formal core of
//! G6).

use std::collections::HashMap;

use datacase_sim::time::Ts;

use crate::action::Action;
use crate::ids::{EntityId, UnitId};
use crate::purpose::{PurposeId, PurposeRegistry};
use crate::regulation::Regulation;
use crate::state::DatabaseState;

/// One action-history tuple: entity `e` performed `τ` on unit `X` for
/// purpose `p` at time `t`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryTuple {
    /// The unit acted upon.
    pub unit: UnitId,
    /// The purpose claimed for the action.
    pub purpose: PurposeId,
    /// The acting entity.
    pub entity: EntityId,
    /// The action.
    pub action: Action,
    /// When it happened.
    pub at: Ts,
}

impl std::fmt::Display for HistoryTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {})",
            self.unit, self.purpose, self.entity, self.action, self.at
        )
    }
}

/// A collection of action-history tuples with a per-unit index.
///
/// `H(X)` is [`ActionHistory::of_unit`]. The history is append-only, in
/// non-decreasing time order.
#[derive(Clone, Debug, Default)]
pub struct ActionHistory {
    tuples: Vec<HistoryTuple>,
    by_unit: HashMap<UnitId, Vec<u32>>,
}

impl ActionHistory {
    /// An empty history.
    pub fn new() -> ActionHistory {
        ActionHistory::default()
    }

    /// Append a tuple.
    ///
    /// # Panics
    /// Panics if `t.at` precedes the last recorded time (histories are
    /// time-ordered evidence; out-of-order records would invalidate audits).
    pub fn record(&mut self, t: HistoryTuple) {
        if let Some(last) = self.tuples.last() {
            assert!(
                last.at <= t.at,
                "history must be time-ordered: {:?} after {:?}",
                t.at,
                last.at
            );
        }
        self.by_unit
            .entry(t.unit)
            .or_default()
            .push(self.tuples.len() as u32);
        self.tuples.push(t);
    }

    /// `H(X)`: all tuples for `unit`, in time order.
    pub fn of_unit(&self, unit: UnitId) -> Vec<&HistoryTuple> {
        self.by_unit
            .get(&unit)
            .map(|idxs| idxs.iter().map(|&i| &self.tuples[i as usize]).collect())
            .unwrap_or_default()
    }

    /// All tuples, in time order.
    pub fn iter(&self) -> impl Iterator<Item = &HistoryTuple> {
        self.tuples.iter()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Policy-consistency of one tuple (paper §2.1):
    ///
    /// a tuple `(X, p, e, τ(X), t)` is policy-consistent iff
    /// * there is a policy `⟨p, e, t_b, t_f⟩ ∈ P(t)` of `X` whose grounded
    ///   purpose authorises `τ`'s kind, **or**
    /// * the action is required by the data regulation (e.g. erasure under
    ///   `compliance-erase`, breach notification).
    pub fn policy_consistent(
        tuple: &HistoryTuple,
        state: &DatabaseState,
        purposes: &PurposeRegistry,
        regulation: &Regulation,
    ) -> bool {
        if regulation.requires_action(tuple) {
            return true;
        }
        let Some(unit) = state.unit(tuple.unit) else {
            // An action on a unit the state never knew is inconsistent by
            // definition — there is no policy that could authorise it.
            return false;
        };
        unit.policies
            .authorises(tuple.purpose, tuple.entity, tuple.at)
            && purposes.authorises(tuple.purpose, tuple.action.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::policy::Policy;
    use crate::purpose::well_known as wk;
    use crate::unit::Origin;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    fn tup(unit: u64, purpose: PurposeId, entity: u32, action: Action, at: Ts) -> HistoryTuple {
        HistoryTuple {
            unit: UnitId(unit),
            purpose,
            entity: EntityId(entity),
            action,
            at,
        }
    }

    #[test]
    fn per_unit_index_works() {
        let mut h = ActionHistory::new();
        h.record(tup(1, wk::billing(), 1, Action::Create, t(1)));
        h.record(tup(2, wk::billing(), 1, Action::Create, t(2)));
        h.record(tup(1, wk::billing(), 1, Action::Read, t(3)));
        assert_eq!(h.of_unit(UnitId(1)).len(), 2);
        assert_eq!(h.of_unit(UnitId(2)).len(), 1);
        assert!(h.of_unit(UnitId(9)).is_empty());
        assert_eq!(h.len(), 3);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_record_panics() {
        let mut h = ActionHistory::new();
        h.record(tup(1, wk::billing(), 1, Action::Create, t(5)));
        h.record(tup(1, wk::billing(), 1, Action::Read, t(4)));
    }

    #[test]
    fn policy_consistency_respects_policies_and_groundings() {
        let mut state = DatabaseState::new();
        let purposes = PurposeRegistry::with_defaults();
        let regulation = Regulation::gdpr();
        let netflix = EntityId(1);
        let uid = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        state
            .unit_mut(uid)
            .unwrap()
            .policies
            .grant(Policy::new(wk::billing(), netflix, t(0), t(100)), t(0));

        // Authorised read within window.
        let ok = tup(uid.0, wk::billing(), 1, Action::Read, t(10));
        assert!(ActionHistory::policy_consistent(
            &ok,
            &state,
            &purposes,
            &regulation
        ));

        // Outside the window: inconsistent.
        let late = tup(uid.0, wk::billing(), 1, Action::Read, t(150));
        assert!(!ActionHistory::policy_consistent(
            &late,
            &state,
            &purposes,
            &regulation
        ));

        // Right purpose+entity but the grounding forbids Share under billing.
        let share = tup(
            uid.0,
            wk::billing(),
            1,
            Action::Share { with: EntityId(9) },
            t(10),
        );
        assert!(!ActionHistory::policy_consistent(
            &share,
            &state,
            &purposes,
            &regulation
        ));

        // Unknown unit: inconsistent.
        let ghost = tup(999, wk::billing(), 1, Action::Read, t(10));
        assert!(!ActionHistory::policy_consistent(
            &ghost,
            &state,
            &purposes,
            &regulation
        ));
    }

    #[test]
    fn regulation_required_actions_are_always_consistent() {
        let mut state = DatabaseState::new();
        let purposes = PurposeRegistry::with_defaults();
        let regulation = Regulation::gdpr();
        let uid = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        // No policy at all, but erase-for-compliance is regulation-required.
        let erase = tup(
            uid.0,
            wk::compliance_erase(),
            1,
            Action::Erase(crate::grounding::erasure::ErasureInterpretation::Deleted),
            t(10),
        );
        assert!(ActionHistory::policy_consistent(
            &erase,
            &state,
            &purposes,
            &regulation
        ));
    }

    #[test]
    fn display_shows_paper_tuple_form() {
        let s = format!("{}", tup(1, wk::billing(), 2, Action::Read, t(3)));
        assert!(s.starts_with("(x1, billing, e2, read,"));
    }
}
