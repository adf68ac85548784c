//! Backend parity: the compliance layer's behaviour and its erasure
//! groundings hold identically over the heap and the LSM substrates.
//!
//! This is the paper's core claim made executable — regulation groundings
//! must hold *independently of the underlying data processing system* —
//! so these tests run the same request streams and the same erasure
//! requests over both [`BackendKind`]s and demand agreement.

use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::{GdprBench, Mix};

/// Collapse payload sizes and error details: outcomes agree modulo the
/// byte count and the erasure timestamp (the two substrates store
/// identical payloads but charge different simulated costs, so absolute
/// times differ; the contract only promises agreement of outcomes).
fn normalize(r: &Response) -> String {
    match &r.outcome {
        Ok(Reply::Value(_)) => "value".into(),
        Ok(other) => format!("{other:?}"),
        Err(e) => e.label().into(),
    }
}

#[test]
fn response_sequences_agree_between_backends() {
    // Every enforcing profile, on a mixed customer stream with deletes:
    // request-by-request outcome parity between the heap- and LSM-backed
    // engines.
    for profile in ProfileKind::PAPER {
        let mut results: Vec<Vec<String>> = Vec::new();
        let mut streams: Vec<Vec<Request>> = Vec::new();
        for backend in BackendKind::ALL {
            let mut config = EngineConfig::for_profile(profile).with_backend(backend);
            config.maintenance_every = 40;
            let mut fe = Frontend::new(config);
            let mut bench = GdprBench::new(91, 100);
            let mut ops = bench.load_phase(200);
            ops.extend(bench.ops(400, Mix::wcus()));
            let rs: Vec<String> = fe
                .submit(&Session::new(Actor::Subject), &ops)
                .iter()
                .map(normalize)
                .collect();
            results.push(rs);
            streams.push(ops);
        }
        assert_eq!(streams[0], streams[1], "generator must be deterministic");
        let first_divergence = results[0]
            .iter()
            .zip(&results[1])
            .position(|(a, b)| a != b)
            .map(|i| (i, &streams[0][i], &results[0][i], &results[1][i]));
        assert!(
            first_divergence.is_none(),
            "{profile:?}: heap and LSM diverged at {first_divergence:?}"
        );
    }
}

#[test]
fn tombstone_strategy_hides_reversibly_on_both_backends() {
    for backend in BackendKind::ALL {
        let mut config =
            EngineConfig::stock(DeleteStrategy::TombstoneAttribute).with_backend(backend);
        config.maintenance_every = u64::MAX;
        let mut fe = Frontend::new(config);
        let controller = Session::new(Actor::Controller);
        let metadata = GdprMetadata {
            subject: 9,
            purpose: data_case::core::purpose::well_known::billing(),
            ttl: Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &controller,
            Request::Create {
                key: 1,
                payload: b"reversibly-hidden-bytes".to_vec(),
                metadata,
            },
        );
        fe.run(&controller, Request::Delete { key: 1 });
        let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 1 });
        assert!(
            r.err().is_some_and(EngineError::is_retention_expired),
            "{backend:?}: hidden from normal reads as retention-expired: {:?}",
            r.outcome
        );
        assert_eq!(
            fe.forensic().raw_read(1, true).unwrap(),
            b"reversibly-hidden-bytes",
            "{backend:?}: controller view keeps the payload"
        );
        let f = fe.forensic().scan(b"reversibly-hidden-bytes");
        assert!(
            f.online(),
            "{backend:?}: the bytes are physically present ({})",
            f.describe()
        );
    }
}

#[test]
fn subject_erasure_leaves_zero_residuals_on_both_backends() {
    // A whole subject's records erased under the strictest grounding:
    // the forensic scanner must find nothing on either substrate. Each
    // backend runs its strict delete strategy for the workload deletes
    // (heap: DELETE + VACUUM FULL; LSM: the same strategy grounded as
    // tombstone + full compaction).
    for backend in BackendKind::ALL {
        let mut config = EngineConfig::p_sys().with_backend(backend);
        config.tuple_encryption = None; // plaintext so residuals are findable
        config.delete_strategy = DeleteStrategy::DeleteVacuumFull;
        let mut fe = Frontend::new(config);
        let controller = Session::new(Actor::Controller);
        let needle = b"ERASE-SUBJECT-7-TRACE";
        let subject_keys = [1u64, 2, 3];
        for &key in &subject_keys {
            let metadata = GdprMetadata {
                subject: 7,
                purpose: data_case::core::purpose::well_known::smart_space(),
                ttl: Ts::from_secs(1_000_000),
                origin_device: 1,
                objects_to_sharing: false,
            };
            let mut payload = needle.to_vec();
            payload.extend_from_slice(format!("-record-{key}").as_bytes());
            assert!(fe
                .run(
                    &controller,
                    Request::Create {
                        key,
                        payload,
                        metadata
                    }
                )
                .is_done());
        }
        // Unrelated bystander record that must survive untouched.
        let bystander = GdprMetadata {
            subject: 8,
            purpose: data_case::core::purpose::well_known::billing(),
            ttl: Ts::from_secs(1_000_000),
            origin_device: 2,
            objects_to_sharing: false,
        };
        fe.run(
            &controller,
            Request::Create {
                key: 100,
                payload: b"BYSTANDER-RECORD".to_vec(),
                metadata: bystander,
            },
        );
        fe.forensic().checkpoint();
        assert!(
            fe.forensic().scan(needle).any(),
            "{backend:?}: data at rest first"
        );

        // The erasure requests go through the session frontend like any
        // other compliance request — one batch, three responses.
        let erasures: Vec<Request> = subject_keys
            .iter()
            .map(|&key| Request::Erase {
                key,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            })
            .collect();
        for r in fe.submit(&controller, &erasures) {
            assert!(
                r.outcome.is_ok(),
                "{backend:?}: erasure must execute: {:?}",
                r.outcome
            );
        }
        let f = fe.forensic().scan(needle);
        assert_eq!(
            f.total(),
            0,
            "{backend:?}: permanent deletion left residuals: {}",
            f.describe()
        );
        // The bystander is intact and readable.
        assert!(
            fe.run(&Session::new(Actor::Processor), Request::Read { key: 100 })
                .value()
                .is_some(),
            "{backend:?}: bystander must survive"
        );
        assert!(fe.forensic().scan(b"BYSTANDER-RECORD").online());
    }
}

#[test]
fn backend_stats_share_one_vocabulary() {
    for backend in BackendKind::ALL {
        let mut fe = Frontend::new(EngineConfig::p_base().with_backend(backend));
        let mut bench = GdprBench::new(17, 50);
        let controller = Session::new(Actor::Controller);
        fe.submit(&controller, &bench.load_phase(120));
        let deletes: Vec<Request> = (0..30u64).map(|key| Request::Delete { key }).collect();
        fe.submit(&controller, &deletes);
        fe.forensic().checkpoint();
        let s = fe.backend_stats();
        assert_eq!(s.live_entries, 90, "{backend:?}: {s:?}");
        assert!(s.disk_bytes > 0, "{backend:?}");
        assert!(s.segments > 0, "{backend:?}");
    }
}
