//! Keystream-cache gate: the hot-tuple keystream cache must be invisible
//! in every reported number and must die with the key.
//!
//! Two families of assertions, on both storage substrates:
//!
//! 1. **Parity** — the same request stream produces bit-identical
//!    simulated time, meter counters, responses, and audit chain with the
//!    cache on and off. The cache only changes *host* work (AES collapses
//!    to a XOR on a hit); it must never move a simulated cost.
//! 2. **Erasure** — cached keystream is purged by crypto-erasure, a
//!    permanently-deleted payload leaves zero forensic residuals in any
//!    layer, and a recreated key never decrypts against the destroyed
//!    generation's stream (the stale-keystream hazard).

use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::{GdprBench, Mix};

/// P_SYS (per-unit AES-128 tuple keys — the profile the cache serves),
/// with an optional keystream cache, over either substrate.
fn engine(backend: BackendKind, cache: usize) -> Frontend {
    Frontend::new(
        EngineConfig::p_sys()
            .with_backend(backend)
            .with_keystream_cache(cache),
    )
}

fn metadata(subject: u32) -> GdprMetadata {
    GdprMetadata {
        subject,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 0,
        objects_to_sharing: false,
    }
}

fn create(fe: &mut Frontend, key: u64, payload: &[u8]) {
    let r = fe.run(
        &Session::new(Actor::Controller),
        Request::Create {
            key,
            payload: payload.to_vec(),
            metadata: metadata(key as u32),
        },
    );
    assert!(r.is_done(), "{:?}", r.outcome);
}

fn read(fe: &mut Frontend, key: u64) -> Option<usize> {
    fe.run(&Session::new(Actor::Processor), Request::Read { key })
        .value()
}

#[test]
fn cache_is_invisible_in_sim_time_meter_and_audit_chain() {
    // The same mixed GDPR stream (reads, updates, deletes — including
    // erasures that destroy keys mid-run), with the cache off and on:
    // every simulated observable must agree bit-for-bit.
    for backend in BackendKind::ALL {
        let mut runs = Vec::new();
        for cache in [0, 4096] {
            let mut fe = engine(backend, cache);
            let mut bench = GdprBench::new(17, 60);
            let mut ops = bench.load_phase(120);
            ops.extend(bench.ops(300, Mix::wcus()));
            let outcomes: Vec<String> = fe
                .submit(&Session::new(Actor::Controller), &ops)
                .iter()
                .map(|r| format!("{:?}", r.outcome))
                .collect();
            let sim = fe.clock().now();
            let meter = fe.meter().snapshot();
            let head = fe.forensic().chain_head();
            runs.push((outcomes, sim, meter, head));
        }
        let (off, on) = (&runs[0], &runs[1]);
        assert_eq!(off.0, on.0, "{backend:?}: responses diverged");
        assert_eq!(off.1, on.1, "{backend:?}: simulated time diverged");
        assert_eq!(off.2, on.2, "{backend:?}: meter diverged");
        assert_eq!(off.3, on.3, "{backend:?}: audit chain diverged");
    }
}

#[test]
fn erasure_purges_cached_keystream_and_all_residuals() {
    let secret = b"KEYSTREAM-CACHE-ERASE-TARGET";
    for backend in BackendKind::ALL {
        let mut fe = engine(backend, 1024);
        create(&mut fe, 1, secret);
        create(&mut fe, 2, b"bystander-record");
        // Hot re-reads warm the cache for key 1's unit.
        for _ in 0..4 {
            assert_eq!(read(&mut fe, 1), Some(secret.len()), "{backend:?}");
        }
        let warm = fe.forensic().cached_keystreams();
        assert!(warm > 0, "{backend:?}: cache never warmed");

        let r = fe.run(
            &Session::new(Actor::Controller),
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            },
        );
        assert!(r.outcome.is_ok(), "{backend:?}: {:?}", r.outcome);

        // destroy_key dropped the erased unit's stream with its key …
        assert!(
            fe.forensic().cached_keystreams() < warm,
            "{backend:?}: erasure left the unit's keystream cached"
        );
        // … and no layer retains the payload (with tuple encryption the
        // plaintext never hit storage; erasure also seals the ciphertext).
        let f = fe.forensic().scan(secret);
        assert!(
            !f.any(),
            "{backend:?}: residuals after erase: {}",
            f.describe()
        );
        // The bystander is untouched.
        assert_eq!(read(&mut fe, 2), Some(b"bystander-record".len()));
    }
}

#[test]
fn rekeyed_unit_is_not_decrypted_with_the_stale_stream() {
    // The stale-keystream hazard needs the same (unit, IV) pair across a
    // key change, and a unit is re-keyed when a write follows a forensic
    // `destroy_key` (`ensure_key` mints a fresh generation for the same
    // unit id — the tuple IV, derived from that id, repeats exactly).
    // Warm the cache on the first generation, destroy the key, update
    // (encrypts under the new generation), and re-read. If the destroyed
    // generation's cached stream were ever served, the decrypted payload
    // bytes — which feed the audit records — would diverge from the
    // cache-off engine, and so would the chain heads. Both substrates.
    for backend in BackendKind::ALL {
        let mut heads = Vec::new();
        for cache in [0, 1024] {
            let mut fe = engine(backend, cache);
            create(&mut fe, 7, b"first-generation-bytes");
            for _ in 0..3 {
                assert_eq!(read(&mut fe, 7), Some(b"first-generation-bytes".len()));
            }
            let unit = fe.unit_of_key(7).expect("key 7 exists");
            assert!(fe.forensic().destroy_key(unit), "{backend:?}");
            // Unreadable while the unit has no key: empty decryption —
            // and never the cached first-generation plaintext.
            assert_eq!(read(&mut fe, 7), Some(0), "{backend:?} cache={cache}");
            // A write re-keys the unit under a fresh generation.
            let r = fe.run(
                &Session::new(Actor::Controller),
                Request::Update {
                    key: 7,
                    payload: b"second-generation-bytes".to_vec(),
                },
            );
            assert!(r.is_done(), "{backend:?}: {:?}", r.outcome);
            for _ in 0..3 {
                assert_eq!(
                    read(&mut fe, 7),
                    Some(b"second-generation-bytes".len()),
                    "{backend:?} cache={cache}"
                );
            }
            heads.push(fe.forensic().chain_head());
        }
        assert_eq!(
            heads[0], heads[1],
            "{backend:?}: stale keystream corrupted a decrypted payload"
        );
    }
}
