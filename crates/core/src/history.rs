//! Action histories: the paper's `(X, p, e, τ(X), t)` tuples and `H(X)`
//! (paper §2.1), plus the policy-consistency predicate (the formal core of
//! G6).

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

impl HistoryTuple {
    /// Policy-consistency of the tuple (paper §2.1):
    ///
    /// a tuple `(X, p, e, τ(X), t)` is policy-consistent iff
    /// * there is a policy `⟨p, e, t_b, t_f⟩ ∈ P(t)` of `X` whose grounded
    ///   purpose authorises `τ`'s kind, **or**
    /// * the action is required by the data regulation (e.g. erasure under
    ///   `compliance-erase`, breach notification).
    pub fn policy_consistent(
        &self,
        state: &DatabaseState,
        purposes: &PurposeRegistry,
        regulation: &Regulation,
    ) -> bool {
        if regulation.requires_action(self) {
            return true;
        }
        let Some(unit) = state.unit(self.unit) else {
            // An action on a unit the state never knew is inconsistent by
            // definition — there is no policy that could authorise it.
            return false;
        };
        unit.policies.authorises(self.purpose, self.entity, self.at)
            && purposes.authorises(self.purpose, self.action.kind())
    }
}

/// An action history `H`: every tuple in time order, and `H(X)` per unit.
///
/// The engine's history is a read-only view of its chained audit log, so
/// what the checker reads is the tamper-evident record; a `Vec` of tuples
/// is the history of a hand-built fixture.
pub trait History {
    /// Every tuple, in time order.
    fn tuples(&self) -> Box<dyn Iterator<Item = HistoryTuple> + '_>;

    /// `H(X)`: the tuples on `unit`, in time order.
    fn of_unit(&self, unit: UnitId) -> Vec<HistoryTuple>;
}

impl History for Vec<HistoryTuple> {
    fn tuples(&self) -> Box<dyn Iterator<Item = HistoryTuple> + '_> {
        Box::new(self.iter().cloned())
    }

    fn of_unit(&self, unit: UnitId) -> Vec<HistoryTuple> {
        self.iter().filter(|t| t.unit == unit).cloned().collect()
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
    fn vec_history_selects_each_units_tuples_in_order() {
        let h = vec![
            tup(1, wk::billing(), 1, Action::Create, t(1)),
            tup(2, wk::billing(), 1, Action::Create, t(2)),
            tup(1, wk::billing(), 1, Action::Read, t(3)),
        ];
        let of_one: Vec<Ts> = h.of_unit(UnitId(1)).iter().map(|t| t.at).collect();
        assert_eq!(of_one, [t(1), t(3)]);
        assert_eq!(h.of_unit(UnitId(2)).len(), 1);
        assert!(h.of_unit(UnitId(9)).is_empty());
        assert_eq!(h.tuples().count(), 3);
    }

    #[test]
    fn policy_consistency_respects_policies_and_groundings() {
        let mut state = DatabaseState::new();
        let purposes = PurposeRegistry::with_defaults();
        let regulation = Regulation::gdpr();
        let netflix = EntityId(1);
        let uid = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        state.unit_mut(uid).unwrap().policies.grant(Policy::new(
            wk::billing(),
            netflix,
            t(0),
            t(100),
        ));

        // Authorised read within window.
        let ok = tup(uid.0, wk::billing(), 1, Action::Read, t(10));
        assert!(ok.policy_consistent(&state, &purposes, &regulation));

        // Outside the window: inconsistent.
        let late = tup(uid.0, wk::billing(), 1, Action::Read, t(150));
        assert!(!late.policy_consistent(&state, &purposes, &regulation));

        // Right purpose+entity but the grounding forbids Share under billing.
        let share = tup(uid.0, wk::billing(), 1, Action::Share, t(10));
        assert!(!share.policy_consistent(&state, &purposes, &regulation));

        // Unknown unit: inconsistent.
        let ghost = tup(999, wk::billing(), 1, Action::Read, t(10));
        assert!(!ghost.policy_consistent(&state, &purposes, &regulation));
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
        assert!(erase.policy_consistent(&state, &purposes, &regulation));
    }

    #[test]
    fn display_shows_paper_tuple_form() {
        let s = format!("{}", tup(1, wk::billing(), 2, Action::Read, t(3)));
        assert!(s.starts_with("(x1, billing, e2, read,"));
    }
}
