//! **G6 — lawful processing as policy consistency** (paper §2.2).
//!
//! > "For all data units X, and for all actions τ on X, it holds that τ is
//! > policy-consistent."

use crate::violation::{Severity, Violation};

use super::CheckContext;

/// The formal G6 invariant: every history tuple must be
/// policy-consistent ([`HistoryTuple::policy_consistent`](crate::history::HistoryTuple::policy_consistent)).
/// It is the catalog's grounding of Figure 1's IV (sharing and
/// processing).
pub fn policy_consistency(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for tuple in ctx.history.tuples() {
        if !tuple.policy_consistent(ctx.state, ctx.purposes, ctx.regulation) {
            out.push(Violation {
                invariant: "G6",
                unit: Some(tuple.unit),
                entity: Some(tuple.entity),
                at: tuple.at,
                severity: Severity::Critical,
                message: format!(
                    "action {} for purpose {} by {} not covered by any active policy",
                    tuple.action, tuple.purpose, tuple.entity
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::history::HistoryTuple;
    use crate::ids::{EntityId, UnitId};
    use crate::invariants::EvidenceFlags;
    use crate::policy::Policy;
    use crate::purpose::{well_known as wk, PurposeRegistry};
    use crate::regulation::Regulation;
    use crate::state::DatabaseState;
    use crate::tenant::TenantDirectory;
    use crate::unit::Origin;
    use datacase_sim::time::Ts;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    fn setup() -> (DatabaseState, PurposeRegistry, Regulation, UnitId) {
        let mut state = DatabaseState::new();
        let uid = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        state.unit_mut(uid).unwrap().policies.grant(Policy::new(
            wk::billing(),
            EntityId(1),
            t(0),
            t(100),
        ));
        (
            state,
            PurposeRegistry::with_defaults(),
            Regulation::gdpr(),
            uid,
        )
    }

    #[test]
    fn consistent_history_passes() {
        let (state, purposes, reg, uid) = setup();
        let h = vec![HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(1),
            action: Action::Read,
            at: t(10),
        }];
        let ctx = CheckContext {
            state: &state,
            history: &h,
            purposes: &purposes,
            regulation: &reg,
            now: t(50),
            evidence: EvidenceFlags::default(),
            tenants: &TenantDirectory::new(),
        };
        assert!(policy_consistency(&ctx).is_empty());
    }

    #[test]
    fn unauthorised_entity_flagged_critical() {
        let (state, purposes, reg, uid) = setup();
        let h = vec![HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(99),
            action: Action::Read,
            at: t(10),
        }];
        let ctx = CheckContext {
            state: &state,
            history: &h,
            purposes: &purposes,
            regulation: &reg,
            now: t(50),
            evidence: EvidenceFlags::default(),
            tenants: &TenantDirectory::new(),
        };
        let v = policy_consistency(&ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].severity, Severity::Critical);
        assert_eq!(v[0].unit, Some(uid));
        assert_eq!(v[0].entity, Some(EntityId(99)));
    }

    #[test]
    fn expired_policy_read_flagged() {
        let (state, purposes, reg, uid) = setup();
        let h = vec![HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(1),
            action: Action::Read,
            at: t(150), // window ended at t(100)
        }];
        let ctx = CheckContext {
            state: &state,
            history: &h,
            purposes: &purposes,
            regulation: &reg,
            now: t(200),
            evidence: EvidenceFlags::default(),
            tenants: &TenantDirectory::new(),
        };
        assert_eq!(policy_consistency(&ctx).len(), 1);
    }
}
