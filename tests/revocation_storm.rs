//! Regression test: a revocation storm across concurrent sessions must
//! never answer a read with an allow taken before the revocation.
//!
//! Shape of the storm: many client threads read a victim record on the
//! shared engine and keep batches in flight while one session executes
//! an Art. 17 erasure of that record. The erasure revokes the unit's
//! policies and bumps the policy epoch on the owning shard, and every
//! access asks that shard's enforcer against its current policy state.
//! Requests that were in flight when the erase landed may linearize on
//! either side of it — but any read submitted *after* the eraser's
//! ticket completed is guaranteed to serialize after the erase on the
//! victim's shard, and must come back denied or retention-expired,
//! never `Ok`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::GdprBench;

#[test]
fn revocation_storm_never_serves_stale_allows() {
    for backend in BackendKind::ALL {
        let config = EngineConfig::p_sys().with_backend(backend);
        let engine = ConcurrentEngine::new(config, 3);
        let controller = Session::new(Actor::Controller);
        let mut bench = GdprBench::new(11, 60);
        let load: Vec<Request> = bench.load_phase(60).iter().map(Request::from).collect();
        for r in engine.handle().call(&controller, &load) {
            assert!(
                r.outcome.is_ok(),
                "{backend:?}: load failed: {:?}",
                r.outcome
            );
        }

        const VICTIM: u64 = 17;
        const READERS: usize = 5;
        let warmed = Barrier::new(READERS + 1);
        let erased = AtomicBool::new(false);
        let settled = Barrier::new(READERS + 1);

        std::thread::scope(|scope| {
            // Sessions B..K: read the victim while it is allowed, keep
            // read batches in flight through the storm, then verify that
            // nothing submitted after the erase completed slips through.
            for reader in 0..READERS {
                let handle = engine.handle();
                let warmed = &warmed;
                let erased = &erased;
                let settled = &settled;
                scope.spawn(move || {
                    let session = Session::new(Actor::Processor);
                    let mine: Vec<Request> = (0..6)
                        .map(|i| Request::Read {
                            key: (reader as u64 * 6 + i) % 60,
                        })
                        .chain(std::iter::once(Request::Read { key: VICTIM }))
                        .collect();
                    for r in handle.call(&session, &mine) {
                        assert!(
                            r.outcome.is_ok(),
                            "{backend:?}: warm-up read failed: {:?}",
                            r.outcome
                        );
                    }
                    warmed.wait();
                    // Storm: reads race the erase; either linearization
                    // is legal for these, so only liveness is asserted.
                    while !erased.load(Ordering::Acquire) {
                        let responses = handle.call(&session, &mine);
                        assert_eq!(responses.len(), mine.len());
                    }
                    settled.wait();
                    // Post-revocation: these serialize after the erase on
                    // the victim's shard. A stale allow would surface as
                    // Ok (or as NotFound after reaching the backend); the
                    // enforcer must yield a typed denial.
                    for r in handle.call(&session, &[Request::Read { key: VICTIM }]) {
                        match r.outcome {
                            Err(EngineError::Denied { .. })
                            | Err(EngineError::RetentionExpired { .. }) => {}
                            other => panic!(
                                "{backend:?}: post-revocation read served from a stale \
                                 decision: {other:?}"
                            ),
                        }
                    }
                });
            }

            // Session A: the eraser.
            warmed.wait();
            let erase = Request::Erase {
                key: VICTIM,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            };
            let responses = engine
                .handle()
                .call(&controller, std::slice::from_ref(&erase));
            assert!(
                matches!(responses[0].outcome, Ok(Reply::Erased(_))),
                "{backend:?}: erase failed: {:?}",
                responses[0].outcome
            );
            erased.store(true, Ordering::Release);
            settled.wait();
        });

        engine.shutdown();
    }
}
