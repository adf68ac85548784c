//! Cross-crate integration: the invariant catalog against engine-produced
//! model state, including violation injection and multinational verdicts.

use data_case::core::action::Action;
use data_case::core::history::HistoryTuple;
use data_case::engine::shard_of;
use data_case::prelude::*;
use data_case::workloads::gdprbench::{GdprBench, Mix};

fn loaded(profile: ProfileKind) -> Frontend {
    let mut fe = Frontend::new(EngineConfig::for_profile(profile));
    let mut bench = GdprBench::new(99, 50);
    fe.submit(&Session::new(Actor::Controller), &bench.load_phase(100));
    fe.submit(&Session::new(Actor::Subject), &bench.ops(150, Mix::wcus()));
    fe
}

#[test]
fn engine_run_passes_full_gdpr_catalog() {
    let fe = loaded(ProfileKind::PSys);
    let report = fe.compliance_report(&Regulation::gdpr());
    assert!(
        report.is_compliant(),
        "{:?}",
        &report.violations[..report.violations.len().min(5)]
    );
    assert_eq!(report.outcomes.len(), 10);
}

#[test]
fn injected_rogue_read_breaks_g6_only() {
    let mut fe = loaded(ProfileKind::PBase);
    let unit = fe.unit_of_key(5).expect("loaded");
    let rogue = fe.entities().by_name("AdPartner").unwrap().id;
    let at = fe.clock().now();
    fe.forensic().inject_history(HistoryTuple {
        unit,
        purpose: data_case::core::purpose::well_known::advertising(),
        entity: rogue,
        action: Action::Read,
        at,
    });
    let report = fe.compliance_report(&Regulation::gdpr());
    assert!(!report.is_compliant());
    // One unlawful action, one violation: G6 is the one row that checks
    // policy consistency.
    let flagged: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
    assert_eq!(flagged, ["G6"], "{:?}", report.violations);
}

#[test]
fn an_injected_action_is_chained_like_any_other() {
    // The checker reads the history off the audit chain, so a bypassed
    // action it reports is a chained record: the log grows by one and
    // still verifies.
    let mut fe = loaded(ProfileKind::PSys);
    let unit = fe.unit_of_key(5).expect("loaded");
    let rogue = fe.entities().by_name("AdPartner").unwrap().id;
    let (records, at) = (fe.audit_records(), fe.clock().now());
    fe.forensic().inject_history(HistoryTuple {
        unit,
        purpose: data_case::core::purpose::well_known::advertising(),
        entity: rogue,
        action: Action::Read,
        at,
    });
    assert_eq!(fe.audit_records(), records + 1);
    assert!(fe.forensic().verify_chain());
    let report = fe.compliance_report(&Regulation::gdpr());
    let g6 = report.of_invariant("G6");
    assert_eq!(g6.len(), 1, "{g6:?}");
    assert_eq!(
        (g6[0].unit, g6[0].entity, g6[0].at),
        (Some(unit), Some(rogue), at)
    );
}

#[test]
fn overdue_erasure_breaks_g17() {
    let mut fe = Frontend::new(EngineConfig::p_base());
    let controller = Session::new(Actor::Controller);
    let metadata = GdprMetadata {
        subject: 2,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(10),
        origin_device: 0,
        objects_to_sharing: false,
    };
    fe.run(
        &controller,
        Request::Create {
            key: 1,
            payload: b"soon-overdue".to_vec(),
            metadata,
        },
    );
    // Let the deadline + grace pass on the raw clock, with no request and
    // so no retention drain.
    fe.clock().advance_to(Ts::from_secs(30 * 24 * 3600));
    let report = fe.compliance_report(&Regulation::gdpr());
    assert!(!report.is_compliant());
    assert!(!report.of_invariant("G17").is_empty());
    // The next request's drain erases the unit first, so the explicit
    // erase finds it already deleted.
    let erase = fe.run(
        &controller,
        Request::Erase {
            key: 1,
            interpretation: ErasureInterpretation::Deleted,
        },
    );
    assert!(
        matches!(
            erase.outcome,
            Err(EngineError::RetentionExpired { key: 1, .. })
        ),
        "{:?}",
        erase.outcome
    );
    let after = fe.compliance_report(&Regulation::gdpr());
    // The erase happened after the grace window, so G17 still flags its
    // lateness as a record-keeping breach; the *status* violation cleared.
    assert!(after
        .of_invariant("G17")
        .iter()
        .all(|v| !v.message.contains("regulation requires")));
}

/// The served engine keeps retention by itself: units whose deadline has
/// come on their shard's clock are deleted, as the controller, by the
/// next batch that shard runs, with no caller running a retention pass.
#[test]
fn served_shards_erase_overdue_units_before_their_next_batch() {
    let engine = ConcurrentEngine::new(EngineConfig::p_base(), 2);
    let controller = Session::new(Actor::Controller);
    // Keys 1..=4 land on both shards (key % 2), each due at 1 ns, which
    // every shard clock has passed by the time the record is created.
    let overdue: Vec<Request> = (1..=4u64)
        .map(|key| Request::Create {
            key,
            payload: format!("overdue-{key}").into_bytes(),
            metadata: GdprMetadata {
                subject: key as u32,
                purpose: data_case::core::purpose::well_known::billing(),
                ttl: Ts(1),
                origin_device: 0,
                objects_to_sharing: false,
            },
        })
        .collect();
    let (created, _) = engine.submit(&controller, &overdue).wait();
    assert!(created.iter().all(Response::is_done), "{created:?}");
    // One more batch per shard: a read of a key that was never stored.
    let (_, _) = engine
        .submit(
            &controller,
            &[Request::Read { key: 100 }, Request::Read { key: 101 }],
        )
        .wait();
    let shards = engine.shutdown();
    for key in 1..=4u64 {
        let fe = &shards[shard_of(&overdue[key as usize - 1], 2).expect("keyed")];
        let unit = fe.unit_of_key(key).expect("created on its shard");
        let status = fe.state().unit(unit).unwrap().erasure;
        assert!(
            status.satisfies(ErasureInterpretation::Deleted),
            "key {key}: {status:?}"
        );
        let controller_id = fe.entities().by_name("MetaSpace").unwrap().id;
        let receipt = fe
            .history()
            .of_unit(unit)
            .into_iter()
            .find(|t| t.action == Action::Erase(ErasureInterpretation::Deleted))
            .expect("a retention receipt");
        assert_eq!(receipt.entity, controller_id, "key {key}");
    }
}

#[test]
fn multinational_verdicts_differ_by_grounding() {
    // Deleted (plain) satisfies GDPR & CCPA but not the strict member
    // state that grounds erasure as strong deletion.
    let mut config = EngineConfig::p_sys();
    config.tuple_encryption = None;
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller);
    let metadata = GdprMetadata {
        subject: 9,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(3600),
        origin_device: 1,
        objects_to_sharing: false,
    };
    fe.run(
        &controller,
        Request::Create {
            key: 1,
            payload: b"cross-border".to_vec(),
            metadata,
        },
    );
    assert!(fe
        .run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::Deleted,
            },
        )
        .outcome
        .is_ok());
    fe.clock().advance_to(Ts::from_secs(90 * 24 * 3600));

    assert!(fe.compliance_report(&Regulation::gdpr()).is_compliant());
    assert!(fe.compliance_report(&Regulation::ccpa()).is_compliant());
    assert!(!fe
        .compliance_report(&Regulation::gdpr_strict_member_state())
        .is_compliant());
}

#[test]
fn ccpa_does_not_require_assessments() {
    // A CCPA-only deployment that never records DPIAs still passes (III is
    // not enforced), while GDPR flags nothing either since the engine
    // records assessments at startup.
    let fe = loaded(ProfileKind::PBase);
    let ccpa = fe.compliance_report(&Regulation::ccpa());
    assert!(ccpa.is_compliant());
    assert!(!ccpa.outcomes.iter().any(|o| o.id == "III"));
}

#[test]
fn audit_chain_feeds_invariant_ix() {
    let mut fe = loaded(ProfileKind::PSys);
    assert!(fe.forensic().verify_chain());
    let report = fe.compliance_report(&Regulation::gdpr());
    assert!(report.of_invariant("IX").is_empty());
}
