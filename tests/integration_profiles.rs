//! Cross-crate integration: the three compliance profiles end to end,
//! driven batch-first through the session frontend.

use data_case::engine::driver::run_ops;
use data_case::engine::space::SpaceReport;
use data_case::prelude::*;
use data_case::workloads::gdprbench::{GdprBench, Mix};
use data_case::workloads::ycsb::{Ycsb, YcsbWorkload};

fn loaded(profile: ProfileKind, records: usize, seed: u64) -> (Frontend, GdprBench) {
    let mut fe = Frontend::new(EngineConfig::for_profile(profile));
    let mut bench = GdprBench::new(seed, 100);
    for r in fe.submit(&Session::new(Actor::Controller), &bench.load_phase(records)) {
        assert!(r.is_done(), "{:?}", r.outcome);
    }
    (fe, bench)
}

#[test]
fn per_op_cost_ordering_holds_on_wcus() {
    let mut sims = Vec::new();
    for profile in ProfileKind::PAPER {
        let (mut fe, mut bench) = loaded(profile, 400, 7);
        let ops = bench.ops(800, Mix::wcus());
        let stats = run_ops(&mut fe, &ops, Actor::Subject);
        sims.push((profile, stats.simulated));
    }
    assert!(
        sims[0].1 < sims[1].1 && sims[1].1 < sims[2].1,
        "expected P_Base < P_GBench < P_SYS, got {sims:?}"
    );
}

#[test]
fn ycsb_c_runs_on_all_profiles_with_zero_denials() {
    for profile in ProfileKind::PAPER {
        let mut fe = Frontend::new(EngineConfig::for_profile(profile));
        let mut y = Ycsb::new(3, 300);
        fe.submit(&Session::new(Actor::Controller), &y.load_phase());
        let ops = y.ops(600, YcsbWorkload::C);
        let stats = run_ops(&mut fe, &ops, Actor::Processor);
        assert_eq!(stats.denied, 0, "{profile:?}");
        assert_eq!(stats.ops, 600);
    }
}

#[test]
fn all_profiles_stay_gdpr_compliant_under_wcus() {
    for profile in ProfileKind::PAPER {
        let (mut fe, mut bench) = loaded(profile, 200, 11);
        let ops = bench.ops(400, Mix::wcus());
        run_ops(&mut fe, &ops, Actor::Subject);
        let report = fe.compliance_report(&Regulation::gdpr());
        assert!(
            report.is_compliant(),
            "{profile:?}: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
    }
}

#[test]
fn space_factors_ordered_and_psys_policy_heavy() {
    let mut factors = Vec::new();
    for profile in ProfileKind::PAPER {
        let (fe, _) = loaded(profile, 400, 23);
        let r = SpaceReport::measure(&fe);
        factors.push((profile, r.space_factor(), r.policy_bytes));
    }
    assert!(factors[0].1 < factors[1].1, "{factors:?}");
    assert!(factors[1].1 < factors[2].1, "{factors:?}");
    assert!(
        factors[2].2 > 10 * factors[0].2.max(1),
        "Sieve metadata dominates"
    );
}

#[test]
fn wcon_controller_workload_executes_cleanly() {
    let (mut fe, mut bench) = loaded(ProfileKind::PGBench, 300, 31);
    let ops = bench.ops(400, Mix::wcon());
    let stats = run_ops(&mut fe, &ops, Actor::Controller);
    assert_eq!(stats.denied, 0, "controller ops should all be authorised");
}

#[test]
fn wpro_metadata_scans_return_rows() {
    let (mut fe, mut bench) = loaded(ProfileKind::PBase, 500, 41);
    let ops = bench.ops(300, Mix::wpro());
    let processor = Session::new(Actor::Processor);
    let mut rows_seen = 0usize;
    for r in fe.submit(&processor, &ops) {
        if let Some(n) = r.rows() {
            rows_seen += n;
        }
    }
    assert!(rows_seen > 0, "metadata-based reads must surface data");
}

/// A unit derived from another (a planted mirror) is decided on its own
/// rows, the restriction of its source's that G6 reads. On both
/// unit-scoped profiles and both backends, a processor read of the mirror
/// under the source's purpose is allowed and adds no violation to the
/// report, which flags the mirror's unrecorded creation (VII) before the
/// read. A read under a purpose none of the mirror's rows names is
/// refused with the mechanism's deny text.
#[test]
fn derived_units_are_decided_on_their_own_rows() {
    use data_case::core::purpose::well_known as wk;
    use data_case::storage::backend::BackendKind;
    for backend in BackendKind::ALL {
        for (profile, unnamed) in [
            (ProfileKind::PGBench, "no policy row"),
            (ProfileKind::PSys, "policy index has no entry"),
        ] {
            let cell = format!("{}/{backend:?}", profile.label());
            let mut fe = Frontend::new(EngineConfig::for_profile(profile).with_backend(backend));
            let metadata = GdprMetadata {
                subject: 5,
                purpose: wk::smart_space(),
                ttl: Ts::from_secs(1_000_000),
                origin_device: 2,
                objects_to_sharing: false,
            };
            let create = Request::Create {
                key: 1,
                payload: b"SOURCE".to_vec(),
                metadata,
            };
            assert!(fe.run(&Session::new(Actor::Controller), create).is_done());
            let source = fe.unit_of_key(1).unwrap();
            let mirror = fe
                .forensic()
                .plant_derived(&[source], "mirror", true, true, b"MIRROR", 2);
            let flagged = |fe: &Frontend| -> Vec<_> {
                let report = fe.compliance_report(&Regulation::gdpr());
                let flagged = report.violations.iter().map(|v| (v.invariant, v.unit));
                flagged.collect()
            };
            let planted = flagged(&fe);
            assert!(
                planted.contains(&("VII", Some(mirror))),
                "{cell}: {planted:?}"
            );

            let processor = Session::new(Actor::Processor);
            let read = Request::Read { key: 2 };
            let r = fe.run(
                &processor.clone().for_purpose(wk::smart_space()),
                read.clone(),
            );
            assert!(r.value().is_some(), "{cell}: {:?}", r.outcome);
            assert_eq!(flagged(&fe), planted, "{cell}");

            let r = fe.run(&processor.for_purpose(wk::billing()), read);
            match r.err() {
                Some(EngineError::Denied { reason }) => {
                    assert!(reason.starts_with(unnamed), "{cell}: {reason}")
                }
                other => panic!("{cell}: {other:?}"),
            }
        }
    }
}

/// Crash P_GBench mid-batch at `point` (arrival `nth`) with a buffer
/// pool far smaller than the table, then scan the wrecked engine's disk
/// for the rows' plaintext marker. Returns the hits on the two layers
/// the LUKS shim covers: file pages and drive remanence.
fn disk_hits_after_crash(
    encrypted: bool,
    point: data_case::sim::fault::CrashPoint,
    nth: u64,
) -> usize {
    use data_case::sim::fault::{CrashSignal, FaultInjector};
    let mut config = EngineConfig::for_profile(ProfileKind::PGBench)
        .with_fault(FaultInjector::armed(point, nth));
    config.heap.buffer_pages = 4;
    if !encrypted {
        config.heap.disk_passphrase = None;
    }
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(19, 100);
    let load = bench.load_phase(400);
    let updates = bench.ops(400, Mix::wcus());
    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fe.submit(&Session::new(Actor::Controller), &load);
        fe.submit(&Session::new(Actor::Subject), &updates);
    }))
    .expect_err("the armed point must fire");
    assert!(crash.downcast_ref::<CrashSignal>().is_some(), "{point}");
    let found = fe.forensic().scan(b"person=");
    found.file_pages.len() + found.remanent_pages.len()
}

#[test]
fn encrypted_disk_never_holds_plaintext_at_any_engine_crash_point() {
    use data_case::sim::fault::CrashPoint;
    // Second batch entry, and the 600th arrival (of ~800) at the
    // per-request points: dozens of pages have been allocated, evicted
    // and rewritten by then.
    let points = [
        (CrashPoint::Plan, 2),
        (CrashPoint::Decide, 600),
        (CrashPoint::Apply, 600),
        (CrashPoint::Account, 600),
    ];
    for (point, nth) in points {
        assert_eq!(
            disk_hits_after_crash(true, point, nth),
            0,
            "{point}: plaintext on an encrypted disk"
        );
    }
    // The same crash on a plaintext disk does find the marker — the scan
    // above is looking where the rows are.
    assert!(disk_hits_after_crash(false, CrashPoint::Account, 600) > 0);
}
