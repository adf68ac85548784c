//! The retention sweeper: automated G17 maintenance.
//!
//! The paper's challenge section asks for "a comprehensive tool that can
//! be retrofitted on any non-compliant system to make it compliant"; the
//! sweeper is that tool's first component for erasure. It scans the model
//! for units whose `compliance-erase` deadline has passed (or is about to)
//! and executes the configured erasure grounding on them — turning G17
//! from a checked invariant into a maintained one. It operates on a
//! [`Frontend`] like every other engine client; the erasure plans run
//! through the same executor the frontend's `Erase` requests use.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::ids::UnitId;
use datacase_sim::time::{Dur, Ts};

use crate::erasure::erase_now;
use crate::frontend::Frontend;

/// Sweeper configuration.
#[derive(Clone, Copy, Debug)]
pub struct SweeperConfig {
    /// The erasure grounding applied to expired units.
    pub interpretation: ErasureInterpretation,
    /// Erase this long *before* the deadline (safety margin; a sweep that
    /// runs exactly at the deadline is already late by the paper's
    /// "without undue delay").
    pub lead: Dur,
}

impl Default for SweeperConfig {
    fn default() -> Self {
        SweeperConfig {
            interpretation: ErasureInterpretation::Deleted,
            lead: Dur::from_secs(3600),
        }
    }
}

/// Result of one sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Units whose retention deadline was due and that were erased now.
    pub erased: Vec<UnitId>,
    /// Units already erased (nothing to do).
    pub already_erased: usize,
    /// Due units the sweeper could not erase (no key binding).
    pub failed: Vec<UnitId>,
}

/// Find every personal unit whose retention deadline
/// ([`PolicySet::erase_deadline`](datacase_core::policy::PolicySet::erase_deadline))
/// is within `config.lead` of `now` (or past), and erase the live ones.
pub fn sweep(frontend: &mut Frontend, config: SweeperConfig) -> SweepReport {
    let state = &frontend.model.state;
    let horizon = frontend.clock.now() + config.lead;
    // Collect due units first (the erase mutates state).
    let mut due: Vec<(UnitId, bool)> = Vec::new();
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
            due.push((id, unit.erasure.is_erased()));
        }
    }
    let mut report = SweepReport::default();
    // Retention erasure is the controller's duty; sweeps are attributed
    // to it in the action history.
    let controller = frontend.model.controller;
    for (unit, already) in due {
        if already {
            report.already_erased += 1;
            continue;
        }
        match frontend.keys.key_of(unit) {
            Some(key) if erase_now(frontend, key, config.interpretation, controller) => {
                report.erased.push(unit);
            }
            _ => report.failed.push(unit),
        }
    }
    report
}

/// The next instant a sweep will have work to do: the earliest erase
/// deadline among live personal units, minus the lead. `None` if nothing
/// is scheduled for erasure.
pub fn next_due(frontend: &Frontend, config: SweeperConfig) -> Option<Ts> {
    frontend
        .model
        .state
        .units()
        .filter(|unit| unit.is_personal() && !unit.erasure.is_erased())
        .filter_map(|unit| unit.policies.erase_deadline())
        .min()
        .map(|d| Ts(d.0.saturating_sub(config.lead.0)))
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
        let report = sweep(&mut fe, SweeperConfig::default());
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
        let report = sweep(&mut fe, SweeperConfig::default());
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
        let config = SweeperConfig {
            lead: Dur::from_secs(600),
            ..SweeperConfig::default()
        };
        // Sweep at each next-due instant before the deadline passes.
        for _ in 0..3 {
            let Some(due) = next_due(&fe, config) else {
                break;
            };
            fe.clock().advance_to(due);
            sweep(&mut fe, config);
            let report = fe.compliance_report(&Regulation::gdpr());
            assert!(
                report.of_invariant("G17").is_empty(),
                "G17 must hold continuously: {:?}",
                report.of_invariant("G17")
            );
        }
        assert_eq!(next_due(&fe, config), None, "everything erased");
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
        let config = SweeperConfig {
            lead: Dur::from_secs(600),
            ..SweeperConfig::default()
        };
        let mut sweeps = 0;
        while let Some(due) = next_due(&fe, config) {
            fe.clock().advance_to(due);
            let swept = sweep(&mut fe, config);
            assert!(!swept.erased.is_empty() && swept.failed.is_empty());
            sweeps += 1;
            let report = fe.compliance_report(&Regulation::gdpr());
            assert!(
                report.of_invariant("G17").is_empty(),
                "G17 must hold after sweep {sweeps}: {:?}",
                report.of_invariant("G17")
            );
        }
        assert_eq!(next_due(&fe, config), None, "everything erased");
    }

    #[test]
    fn second_sweep_is_idempotent() {
        let mut fe = fe_with_ttls(&[100]);
        fe.clock().advance_to(Ts::from_secs(5000));
        let first = sweep(&mut fe, SweeperConfig::default());
        assert_eq!(first.erased.len(), 1);
        let second = sweep(&mut fe, SweeperConfig::default());
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
        let report = sweep(&mut fe, SweeperConfig::default());
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

    #[test]
    fn sweeper_respects_configured_interpretation() {
        let mut fe = fe_with_ttls(&[100]);
        fe.clock().advance_to(Ts::from_secs(5000));
        let config = SweeperConfig {
            interpretation: ErasureInterpretation::StronglyDeleted,
            ..SweeperConfig::default()
        };
        sweep(&mut fe, config);
        let unit = fe.unit_of_key(0).unwrap();
        assert!(fe
            .state()
            .unit(unit)
            .unwrap()
            .erasure
            .satisfies(ErasureInterpretation::StronglyDeleted));
    }
}
