//! **G17 — timely erasure** (paper §2.2).
//!
//! > "For all data units X = (S,O,V,P), there exists a policy
//! > π = ⟨compliance-erase, e, t_b, t_f⟩ ∈ P and the last access tuple on X
//! > is (q, compliance-erase, e, erase(X), t) s.t. t ≤ t_f."
//!
//! Grounding decisions (documented per the paper's method):
//! * every *personal* unit must carry a `compliance-erase` policy — a
//!   retention bound; metadata units are exempt;
//! * once `t_f` (+ the regulation's grace, "without undue delay") has
//!   passed, the unit's erasure status must satisfy the regulation's
//!   minimum interpretation and an `erase` action must appear in `H(X)` at
//!   or before the deadline + grace;
//! * the erase action must be the last *content* action — later reads of a
//!   supposedly erased unit are G6's business (they will have no policy),
//!   but later erase-escalations (e.g. sanitisation) are fine.

use crate::action::ActionKind;
use crate::violation::{Severity, Violation};

use super::CheckContext;

/// The formal G17 invariant, grounded as the module docs state. It is
/// the catalog's grounding of Figure 1's V (erasure).
pub fn timely_erasure(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let grace = ctx.regulation.erase_grace;
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed unit exists");
        if !unit.is_personal() {
            continue;
        }
        let Some(deadline) = unit.policies.erase_deadline() else {
            out.push(Violation::on_unit(
                "G17",
                id,
                ctx.now,
                Severity::Breach,
                "no compliance-erase policy: the unit could be stored eternally",
            ));
            continue;
        };
        let due = deadline + grace;
        if ctx.now <= due {
            continue; // not yet due
        }
        // Past due: status must satisfy the regulation's minimum…
        if !unit.erasure.satisfies(ctx.regulation.min_erasure) {
            out.push(Violation::on_unit(
                "G17",
                id,
                ctx.now,
                Severity::Critical,
                format!(
                    "erase deadline {deadline} passed but unit is {:?} (regulation requires ≥ {})",
                    unit.erasure, ctx.regulation.min_erasure
                ),
            ));
            continue;
        }
        // …and an erase action must have been recorded in time.
        let erased_in_time = ctx
            .history
            .of_unit(id)
            .iter()
            .any(|t| t.action.kind() == ActionKind::Erase && t.at <= due);
        if !erased_in_time {
            out.push(Violation::on_unit(
                "G17",
                id,
                ctx.now,
                Severity::Breach,
                "unit marked erased but no erase action recorded before the deadline \
                 (record-keeping gap)",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::grounding::erasure::ErasureInterpretation;
    use crate::history::HistoryTuple;
    use crate::ids::EntityId;
    use crate::invariants::EvidenceFlags;
    use crate::policy::Policy;
    use crate::purpose::{well_known as wk, PurposeRegistry};
    use crate::regulation::Regulation;
    use crate::state::DatabaseState;
    use crate::tenant::TenantDirectory;
    use crate::unit::{ErasureStatus, Origin};
    use datacase_sim::time::{Dur, Ts};

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    struct Fixture {
        state: DatabaseState,
        history: Vec<HistoryTuple>,
        purposes: PurposeRegistry,
        regulation: Regulation,
    }

    fn fixture() -> (Fixture, crate::ids::UnitId) {
        let mut state = DatabaseState::new();
        let uid = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        // Erase-by policy: must be erased by t=100.
        state.unit_mut(uid).unwrap().policies.grant(Policy::new(
            wk::compliance_erase(),
            EntityId(0),
            t(0),
            t(100),
        ));
        let mut regulation = Regulation::gdpr();
        regulation.erase_grace = Dur::from_secs(10);
        (
            Fixture {
                state,
                history: Vec::new(),
                purposes: PurposeRegistry::with_defaults(),
                regulation,
            },
            uid,
        )
    }

    fn check(f: &Fixture, now: Ts) -> Vec<Violation> {
        let ctx = CheckContext {
            state: &f.state,
            history: &f.history,
            purposes: &f.purposes,
            regulation: &f.regulation,
            now,
            evidence: EvidenceFlags::default(),
            tenants: &TenantDirectory::new(),
        };
        timely_erasure(&ctx)
    }

    #[test]
    fn before_deadline_no_violation() {
        let (f, _) = fixture();
        assert!(check(&f, t(50)).is_empty());
        assert!(check(&f, t(110)).is_empty(), "inside grace");
    }

    #[test]
    fn missing_erase_policy_is_breach() {
        let mut state = DatabaseState::new();
        let _ = state.collect(EntityId(7), Origin::Subject(EntityId(7)), "cc".into(), t(0));
        let f = Fixture {
            state,
            history: Vec::new(),
            purposes: PurposeRegistry::with_defaults(),
            regulation: Regulation::gdpr(),
        };
        let v = check(&f, t(1));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].severity, Severity::Breach);
        assert!(v[0].message.contains("eternally"));
    }

    #[test]
    fn past_deadline_unerased_is_critical() {
        let (f, _) = fixture();
        let v = check(&f, t(200));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].severity, Severity::Critical);
    }

    #[test]
    fn properly_erased_unit_passes() {
        let (mut f, uid) = fixture();
        f.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::compliance_erase(),
            entity: EntityId(1),
            action: Action::Erase(ErasureInterpretation::Deleted),
            at: t(90),
        });
        f.state
            .mark_erased(uid, ErasureStatus::Deleted { since: t(90) }, t(90));
        assert!(check(&f, t(200)).is_empty());
    }

    #[test]
    fn erased_status_without_history_is_record_keeping_gap() {
        let (mut f, uid) = fixture();
        f.state
            .mark_erased(uid, ErasureStatus::Deleted { since: t(90) }, t(90));
        let v = check(&f, t(200));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("record-keeping"));
    }

    #[test]
    fn reversible_inaccessibility_insufficient_for_gdpr_minimum() {
        let (mut f, uid) = fixture();
        f.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::compliance_erase(),
            entity: EntityId(1),
            action: Action::Erase(ErasureInterpretation::ReversiblyInaccessible),
            at: t(90),
        });
        f.state.mark_erased(
            uid,
            ErasureStatus::ReversiblyInaccessible { since: t(90) },
            t(90),
        );
        let v = check(&f, t(200));
        assert_eq!(v.len(), 1, "GDPR minimum is Deleted");
        assert_eq!(v[0].severity, Severity::Critical);
    }

    #[test]
    fn metadata_units_exempt() {
        let (mut f, uid) = fixture();
        f.state.unit_mut(uid).unwrap().category = crate::unit::Category::Metadata;
        assert!(check(&f, t(500)).is_empty());
    }
}
