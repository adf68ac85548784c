//! The retention sweeper: automated G17 maintenance.
//!
//! The paper's challenge section asks for "a comprehensive tool that can
//! be retrofitted on any non-compliant system to make it compliant"; the
//! sweeper is that tool's first component for erasure. It scans the model
//! for units whose `compliance-erase` deadline has passed (or is within
//! [`LEAD`] of passing) and erases them as the controller, at
//! [`ErasureInterpretation::Deleted`] — turning G17 from a checked
//! invariant into a maintained one. It operates on a [`Frontend`] like
//! every other engine client, and hands every due unit to the erasure
//! executor the frontend's `Erase` requests use: the executor runs
//! [`plan`]`(config, Deleted)`, and refuses a unit already deleted or
//! beyond, so a unit only hidden (reversibly inaccessible) is escalated.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::ids::UnitId;
use datacase_sim::time::{Dur, Ts};

use crate::erasure::{erase_now, plan};
use crate::error::EngineError;
use crate::frontend::Frontend;

/// How long before its deadline a unit is erased: a sweep that runs
/// exactly at the deadline is already late by the paper's "without undue
/// delay". One hour.
pub const LEAD: Dur = Dur(3600 * 1_000_000_000);

/// Result of one sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Units whose retention deadline was due and that were erased now.
    pub erased: Vec<UnitId>,
    /// Due units already deleted or beyond (the executor refused them).
    pub already_erased: usize,
    /// Due units the sweeper could not erase (no key binding, or a row
    /// the backend could not delete).
    pub failed: Vec<UnitId>,
}

/// Find every personal unit whose retention deadline
/// ([`PolicySet::erase_deadline`](datacase_core::policy::PolicySet::erase_deadline))
/// is within [`LEAD`] of now (or past), and erase it.
pub fn sweep(frontend: &mut Frontend) -> SweepReport {
    let state = &frontend.model.state;
    let horizon = frontend.clock.now() + LEAD;
    // Collect due units first (the erase mutates state).
    let mut due: Vec<UnitId> = Vec::new();
    for id in state.unit_ids_sorted() {
        let unit = state.unit(id).expect("listed");
        if !unit.is_personal() {
            continue;
        }
        if unit
            .policies
            .erase_deadline()
            .is_some_and(|deadline| deadline <= horizon)
        {
            due.push(id);
        }
    }
    let mut report = SweepReport::default();
    // Retention erasure is the controller's duty; sweeps are attributed
    // to it in the action history.
    let controller = frontend.model.controller;
    let interp = ErasureInterpretation::Deleted;
    for unit in due {
        let Some(key) = frontend.keys.key_of(unit) else {
            report.failed.push(unit);
            continue;
        };
        let steps = plan(&frontend.config, interp);
        match erase_now(frontend, key, interp, steps, controller) {
            Ok(()) => report.erased.push(unit),
            Err(EngineError::RetentionExpired { .. }) => report.already_erased += 1,
            Err(_) => report.failed.push(unit),
        }
    }
    report
}

/// The next instant a sweep will have work to do: the earliest erase
/// deadline among personal units not yet deleted, minus [`LEAD`]. `None`
/// if nothing is scheduled for erasure.
pub fn next_due(frontend: &Frontend) -> Option<Ts> {
    frontend
        .model
        .state
        .units()
        .filter(|unit| {
            unit.is_personal() && !unit.erasure.satisfies(ErasureInterpretation::Deleted)
        })
        .filter_map(|unit| unit.policies.erase_deadline())
        .min()
        .map(|d| Ts(d.0.saturating_sub(LEAD.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Actor, Request, Session};
    use crate::profiles::EngineConfig;
    use datacase_core::purpose::well_known as wk;
    use datacase_core::regulation::Regulation;
    use datacase_workloads::record::GdprMetadata;

    fn fe_with_ttls(ttls: &[u64]) -> Frontend {
        let mut fe = Frontend::new(EngineConfig::p_base());
        let controller = Session::new(Actor::Controller);
        for (i, &ttl) in ttls.iter().enumerate() {
            let metadata = GdprMetadata {
                subject: i as u32,
                purpose: wk::billing(),
                ttl: Ts::from_secs(ttl),
                origin_device: 0,
                objects_to_sharing: false,
            };
            fe.run(
                &controller,
                Request::Create {
                    key: i as u64,
                    payload: format!("record-{i}").into_bytes(),
                    metadata,
                },
            );
        }
        fe
    }

    #[test]
    fn sweep_erases_only_due_units() {
        let mut fe = fe_with_ttls(&[100, 10_000_000]);
        fe.clock().advance_to(Ts::from_secs(200));
        let report = sweep(&mut fe);
        assert_eq!(report.erased.len(), 1);
        assert!(report.failed.is_empty());
        let early = fe.unit_of_key(0).unwrap();
        let late = fe.unit_of_key(1).unwrap();
        assert!(fe.state().unit(early).unwrap().erasure.is_erased());
        assert!(!fe.state().unit(late).unwrap().erasure.is_erased());
    }

    #[test]
    fn swept_db_stays_g17_compliant_past_deadlines() {
        let mut fe = fe_with_ttls(&[100, 200, 300]);
        // Without sweeping, letting deadlines pass breaks G17…
        fe.clock().advance_to(Ts::from_secs(40 * 24 * 3600));
        let before = fe.compliance_report(&Regulation::gdpr());
        assert!(!before.is_compliant());
        // …but a sweep (even this late) restores the erased-status side.
        let report = sweep(&mut fe);
        assert_eq!(report.erased.len(), 3);
        let after = fe.compliance_report(&Regulation::gdpr());
        assert!(after
            .of_invariant("G17")
            .iter()
            .all(|v| !v.message.contains("regulation requires")));
    }

    #[test]
    fn proactive_sweeps_never_let_g17_break() {
        let mut fe = fe_with_ttls(&[3600, 7200, 10_800]);
        // Sweep at each next-due instant before the deadline passes.
        for _ in 0..3 {
            let Some(due) = next_due(&fe) else {
                break;
            };
            fe.clock().advance_to(due);
            sweep(&mut fe);
            let report = fe.compliance_report(&Regulation::gdpr());
            assert!(
                report.of_invariant("G17").is_empty(),
                "G17 must hold continuously: {:?}",
                report.of_invariant("G17")
            );
        }
        assert_eq!(next_due(&fe), None, "everything erased");
    }

    #[test]
    fn extended_ttl_keeps_sweeper_and_g17_on_one_deadline() {
        use datacase_workloads::opstream::MetaField;
        let mut fe = fe_with_ttls(&[3600, 7200, 10_800, 14_400]);
        // Extending a TTL grants a later erase-by policy next to the first;
        // both the sweeper and G17 must read the same deadline from it.
        let extended = fe.run(
            &Session::new(Actor::Controller),
            Request::UpdateMeta {
                key: 1,
                field: MetaField::Ttl,
            },
        );
        assert!(extended.outcome.is_ok(), "{:?}", extended.outcome);
        let mut sweeps = 0;
        while let Some(due) = next_due(&fe) {
            fe.clock().advance_to(due);
            let swept = sweep(&mut fe);
            assert!(!swept.erased.is_empty() && swept.failed.is_empty());
            sweeps += 1;
            let report = fe.compliance_report(&Regulation::gdpr());
            assert!(
                report.of_invariant("G17").is_empty(),
                "G17 must hold after sweep {sweeps}: {:?}",
                report.of_invariant("G17")
            );
        }
        assert_eq!(next_due(&fe), None, "everything erased");
    }

    #[test]
    fn second_sweep_is_idempotent() {
        let mut fe = fe_with_ttls(&[100]);
        fe.clock().advance_to(Ts::from_secs(5000));
        let first = sweep(&mut fe);
        assert_eq!(first.erased.len(), 1);
        let second = sweep(&mut fe);
        assert!(second.erased.is_empty());
        assert_eq!(second.already_erased, 1);
    }

    #[test]
    fn sweep_erases_due_units_on_lsm_backend() {
        use datacase_storage::backend::BackendKind;
        let mut fe = Frontend::new(EngineConfig::p_base().with_backend(BackendKind::Lsm));
        let controller = Session::new(Actor::Controller);
        let metadata = GdprMetadata {
            subject: 1,
            purpose: wk::billing(),
            ttl: Ts::from_secs(100),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &controller,
            Request::Create {
                key: 0,
                payload: b"lsm-swept-record".to_vec(),
                metadata,
            },
        );
        fe.clock().advance_to(Ts::from_secs(5000));
        let report = sweep(&mut fe);
        assert_eq!(report.erased.len(), 1);
        assert!(report.failed.is_empty());
        let unit = fe.unit_of_key(0).unwrap();
        assert!(fe.state().unit(unit).unwrap().erasure.is_erased());
        let read_back = fe.run(&controller, Request::Read { key: 0 });
        assert!(
            read_back.outcome.is_err(),
            "erased record must be unreadable: {:?}",
            read_back.outcome
        );
    }

    /// A unit only hidden (reversibly inaccessible) is below G17's
    /// minimum: the sweeper schedules it and escalates it to deleted.
    #[test]
    fn sweep_escalates_a_hidden_unit_to_deleted() {
        let mut fe = fe_with_ttls(&[100, 10_000_000]);
        let hidden = fe.run(
            &Session::new(Actor::Controller),
            Request::Erase {
                key: 0,
                interpretation: ErasureInterpretation::ReversiblyInaccessible,
            },
        );
        assert!(hidden.outcome.is_ok(), "{:?}", hidden.outcome);
        assert_eq!(next_due(&fe), Some(Ts(0)), "the hidden unit is still due");
        fe.clock().advance_to(Ts::from_secs(40 * 24 * 3600));
        let report = sweep(&mut fe);
        let unit = fe.unit_of_key(0).unwrap();
        assert_eq!(report.erased, vec![unit]);
        assert_eq!(report.already_erased, 0);
        assert!(fe
            .state()
            .unit(unit)
            .unwrap()
            .erasure
            .satisfies(ErasureInterpretation::Deleted));
        let after = fe.compliance_report(&Regulation::gdpr());
        assert!(
            after
                .of_invariant("G17")
                .iter()
                .all(|v| !v.message.contains("regulation requires")),
            "{:?}",
            after.of_invariant("G17")
        );
    }
}
