//! Property-based parity suite for the session frontend.
//!
//! Two contracts are enforced, on **both** storage backends:
//!
//! * **Batch parity** — submitting one batch of *n* requests must be
//!   indistinguishable from *n* single-request submissions: same reply
//!   stream, same work-meter counters, same simulated clock, same forensic
//!   residuals, and the same **bytes of the audit chain** — every record's
//!   sequence number, timestamp, and payload commitment must match, or the
//!   chain heads diverge — with the same log bytes retained, which is
//!   where a redaction shows. This is what makes batch-first execution
//!   safe. The same comparison runs across crypto backends: which AES
//!   implementation an engine uses moves wall time only, never a
//!   simulated column.
//! * **Multi-session parity** — interleaved batches from ≥3 concurrent
//!   sessions through the sharded [`ConcurrentEngine`] must replay
//!   serially: the (shard, seq) stamps recorded by the concurrent run,
//!   re-executed one submission at a time, reproduce every reply, every
//!   shard's simulated clock, the forensic residual census, and the merged
//!   audit chain byte for byte. This is the linearizability gate for the
//!   concurrent frontend.

use data_case::sim::check::check;

use data_case::crypto::CryptoBackend;
use data_case::engine::space::SpaceReport;
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::{GdprBench, Mix};

/// Per-submission `(responses, stamps)` pairs in firing order.
type StampedReplies = Vec<(Vec<Response>, Vec<SubmitStamp>)>;

/// One multi-session run against the sharded concurrent engine: load
/// through the handle, then fire `schedule`-ordered sub-batches from
/// `sessions` interleaved sessions. With `overlap` every ticket is
/// submitted before any is redeemed, so shard queues back up behind the
/// workers; without it each ticket is awaited immediately — the serial
/// witness with the identical per-shard arrival order. Returns the per-submission responses and
/// stamps (in firing order), each shard's final simulated instant, the
/// engine-wide forensic residual count, and the merged audit chain head.
fn concurrent_run(
    backend: BackendKind,
    seed: u64,
    sessions: usize,
    shards: usize,
    schedule: &[usize],
    overlap: bool,
) -> (StampedReplies, Vec<Ts>, usize, [u8; 32]) {
    let config = EngineConfig::p_base().with_backend(backend);
    let engine = ConcurrentEngine::new(config, shards);
    let handle = engine.handle();
    let controller = Session::new(Actor::Controller);
    let mut bench = GdprBench::new(seed, 60);
    let load: Vec<Request> = bench.load_phase(50).iter().map(Request::from).collect();
    handle.submit(&controller, &load).wait();
    // Per-session request streams, pre-chunked into sub-batches. Actors
    // rotate so enforcement sees genuinely different sessions.
    let actors = [Actor::Subject, Actor::Processor, Actor::Controller];
    let streams: Vec<(Session, Vec<Vec<Request>>)> = (0..sessions)
        .map(|s| {
            let chunks = bench
                .ops(24, Mix::wcus())
                .chunks(6)
                .map(|c| c.iter().map(Request::from).collect())
                .collect();
            (Session::new(actors[s % actors.len()]), chunks)
        })
        .collect();
    let mut cursors = vec![0usize; sessions];
    let mut fired = Vec::new();
    let mut tickets = Vec::new();
    for &s in schedule {
        let (session, chunks) = &streams[s];
        let Some(batch) = chunks.get(cursors[s]) else {
            continue;
        };
        cursors[s] += 1;
        let ticket = handle.submit(session, batch);
        if overlap {
            tickets.push(ticket);
        } else {
            fired.push(ticket.wait());
        }
    }
    fired.extend(tickets.into_iter().map(Ticket::wait));
    drop(handle);
    let mut frontends = engine.shutdown();
    let head = merged_chain_head(&frontends);
    let shard_clocks = frontends.iter().map(|fe| fe.clock().now()).collect();
    let residuals = frontends
        .iter_mut()
        .map(|fe| fe.forensic().scan(b"person=").total())
        .sum();
    (fired, shard_clocks, residuals, head)
}

/// What [`run`] observes of one engine.
type Observed = (
    Vec<Result<Reply, EngineError>>,
    MeterSnapshot,
    Ts,
    usize,
    ([u8; 32], u64),
);

/// One full run: load 60 records, then execute `txns` WCus requests in
/// submissions of `batch_size`, with every AES path routed through
/// `crypto`. Returns the outcome stream, the meter counters, the final
/// simulated instant, the count of forensic residuals for the workload's
/// payload marker, and the audit chain's head MAC with the log's
/// retained bytes.
fn run(
    backend: BackendKind,
    profile: ProfileKind,
    seed: u64,
    txns: usize,
    batch_size: usize,
    crypto: CryptoBackend,
) -> Observed {
    let mut config = EngineConfig::for_profile(profile)
        .with_backend(backend)
        .with_crypto_backend(crypto);
    config.maintenance_every = 25;
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(seed, 60);
    let controller = Session::new(Actor::Controller);
    let subject = Session::new(Actor::Subject);
    let mut outcomes = Vec::new();
    for chunk in bench.load_phase(60).chunks(batch_size) {
        for r in fe.submit(&controller, chunk) {
            outcomes.push(r.outcome);
        }
    }
    for chunk in bench.ops(txns, Mix::wcus()).chunks(batch_size) {
        for r in fe.submit(&subject, chunk) {
            outcomes.push(r.outcome);
        }
    }
    let work = fe.meter().snapshot();
    let now = fe.clock().now();
    let chain = (
        fe.forensic().chain_head(),
        SpaceReport::measure(&fe).log_bytes,
    );
    // GDPRBench payloads embed a "person=" marker; the residual count is
    // the physical-retention fingerprint of the whole run.
    let residuals = fe.forensic().scan(b"person=").total();
    (outcomes, work, now, residuals, chain)
}

/// Batch-submit ≡ sequential-execute, on all three paper profiles,
/// heap and LSM, under every crypto backend: the reply stream, the meter snapshot, the
/// simulated clock, the forensic-residual count, **and the audit
/// chain's bytes** all agree between single-request submissions on
/// the default (`Auto`) AES path and arbitrary batch sizes on the
/// hardware-or-software and forced-software paths. Erase batches obey
/// the same contract (next property).
#[test]
fn batch_submit_matches_sequential_execute() {
    check("batch_submit_matches_sequential_execute", 6, |s| {
        let seed = s.range(0u64..10_000);
        let batch_size = s.range(2usize..96);
        let txns = s.range(40usize..120);
        for backend in BackendKind::ALL {
            for profile in ProfileKind::PAPER {
                let sequential = run(backend, profile, seed, txns, 1, CryptoBackend::Auto);
                for crypto in [CryptoBackend::Auto, CryptoBackend::Software] {
                    let batched = run(backend, profile, seed, txns, batch_size, crypto);
                    let cell = format!("{backend:?}/{profile:?}/{crypto} (batch={batch_size})");
                    assert_eq!(&sequential.0, &batched.0, "{}: reply streams", cell);
                    assert_eq!(sequential.1, batched.1, "{}: meter snapshots", cell);
                    assert_eq!(sequential.2, batched.2, "{}: simulated clocks", cell);
                    assert_eq!(sequential.3, batched.3, "{}: forensic residuals", cell);
                    assert_eq!(sequential.4, batched.4, "{}: audit chain bytes", cell);
                }
            }
        }
    });
}

/// The erasure compliance path obeys the same parity: a batch of
/// erase requests equals one-by-one erasure, down to the forensic
/// residual count.
#[test]
fn erase_batches_match_sequential_erasure() {
    check("erase_batches_match_sequential_erasure", 6, |s| {
        let seed = s.range(0u64..10_000);
        let erased_keys = s.vec(1..12, |s| s.range(0u64..40));
        for backend in BackendKind::ALL {
            let mk = || {
                let mut config = EngineConfig::p_sys().with_backend(backend);
                config.tuple_encryption = None;
                let mut fe = Frontend::new(config);
                let mut bench = GdprBench::new(seed, 60);
                fe.submit(&Session::new(Actor::Controller), &bench.load_phase(40));
                fe
            };
            let controller = Session::new(Actor::Controller);
            let requests: Vec<Request> = erased_keys
                .iter()
                .map(|&key| Request::Erase {
                    key,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                })
                .collect();

            let mut fe_seq = mk();
            let seq: Vec<_> = requests
                .iter()
                .map(|r| fe_seq.run(&controller, r.clone()).outcome)
                .collect();
            let seq_residuals = fe_seq.forensic().scan(b"person=").total();

            let mut fe_batch = mk();
            let batch: Vec<_> = fe_batch
                .submit(&controller, &requests)
                .into_iter()
                .map(|r| r.outcome)
                .collect();
            assert_eq!(
                fe_seq.forensic().chain_head(),
                fe_batch.forensic().chain_head(),
                "{:?}: erase audit chains diverged",
                backend
            );
            assert_eq!(
                SpaceReport::measure(&fe_seq).log_bytes,
                SpaceReport::measure(&fe_batch).log_bytes,
                "{:?}: erase redactions diverged",
                backend
            );
            let batch_residuals = fe_batch.forensic().scan(b"person=").total();

            assert_eq!(&seq, &batch, "{:?}: erase outcomes diverged", backend);
            assert_eq!(
                seq_residuals, batch_residuals,
                "{:?}: erase residuals diverged",
                backend
            );
        }
    });
}

/// Multi-session parity: ≥3 sessions firing interleaved sub-batches
/// into the sharded concurrent engine — tickets outstanding
/// simultaneously, submissions queued behind the shard workers — must
/// be indistinguishable from replaying the same per-shard arrival order
/// one submission at a time: same replies, same (shard, seq) stamps,
/// same per-shard simulated clocks (how sessions interleave moves wall
/// time only), same forensic residuals, and a byte-identical merged
/// audit chain. On heap and LSM both.
#[test]
fn multi_session_interleavings_replay_serially() {
    check("multi_session_interleavings_replay_serially", 6, |s| {
        let seed = s.range(0u64..10_000);
        let sessions = s.range(3usize..6);
        let schedule = s.vec(10..24, |s| s.range(0usize..6));
        for backend in BackendKind::ALL {
            let schedule: Vec<usize> = schedule.iter().map(|&s| s % sessions).collect();
            let concurrent = concurrent_run(backend, seed, sessions, 3, &schedule, true);
            let serial = concurrent_run(backend, seed, sessions, 3, &schedule, false);
            assert_eq!(
                &concurrent.0, &serial.0,
                "{:?}: concurrent replies or stamps diverged from serial replay",
                backend
            );
            assert_eq!(
                &concurrent.1, &serial.1,
                "{:?}: per-shard simulated clocks diverged",
                backend
            );
            assert_eq!(
                concurrent.2, serial.2,
                "{:?}: forensic residuals diverged",
                backend
            );
            assert_eq!(
                concurrent.3, serial.3,
                "{:?}: merged audit chains are not byte-identical",
                backend
            );
        }
    });
}
