//! Concurrent multi-session engine: a sharded frontend behind MPSC
//! submission queues.
//!
//! [`ConcurrentEngine`] turns the single-owner [`Frontend`] into a shared
//! service without putting a lock around the engine. State is sharded by
//! request key modulo the shard count ([`shard_of`]), and each
//! shard is owned exclusively by one worker thread holding its own
//! [`Frontend`]. Clients hold a cloneable [`EngineHandle`] and submit
//! batches from any thread; the handle splits a batch along shard lines,
//! enqueues one submission per touched shard, and returns a
//! [`Ticket`] that reassembles the per-shard replies back into the
//! caller's request order.
//!
//! ## Ordering and soundness
//!
//! * **Per-shard total order.** A shard worker takes submissions off its
//!   queue in FIFO order and runs each one to completion — every request
//!   decided, applied and audited — before it replies and takes the
//!   next. Every shard's audit chain is therefore byte-identical to
//!   replaying that shard's arrival sequence serially.
//!   [`merged_chain_head`] folds the per-shard heads (in shard order)
//!   into one engine-wide digest.
//! * **Revocation safety.** A unit lives on exactly one shard and every
//!   access asks that shard's enforcer against its current policy state,
//!   so a request submitted after an erase or revoke was answered is
//!   decided after it — there is no remembered allow to strand.
//! * **Keyless requests.** [`Request::ReadByMeta`] names no shard; the
//!   handle broadcasts it to every shard and the ticket merges the
//!   per-shard row counts ([`Reply::Rows`] sums; the first error in shard
//!   order wins, as does the lowest shard's [`AuditRef`](crate::frontend::AuditRef)).
//!
//! [`shutdown`](ConcurrentEngine::shutdown) drops the queues, joins the
//! workers, and hands back the per-shard [`Frontend`]s so callers can run
//! forensics, compliance checks, or the multi-session parity gate against
//! the final states.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use datacase_crypto::sha256::Sha256;
use datacase_sim::{Meter, SimClock};

use crate::exec;
use crate::frontend::{Frontend, Reply, Request, Response, Session};
use crate::profiles::EngineConfig;

/// Which shard owns a request: its key modulo the shard count, or `None`
/// for keyless metadata scans (which broadcast to every shard).
pub fn shard_of(request: &Request, shards: usize) -> Option<usize> {
    request.key().map(|k| (k % shards as u64) as usize)
}

/// One client batch routed to one shard: the sub-batch of requests that
/// shard owns, plus the channel its reply travels back on.
struct Submission {
    session: Session,
    requests: Vec<Request>,
    reply: Sender<ShardReply>,
}

/// What travels down a shard's queue: work, or the shutdown marker.
/// FIFO delivery means every submission enqueued before the drain marker
/// is executed and answered before the worker exits.
enum ShardMsg {
    Batch(Submission),
    Drain,
}

/// A shard worker's answer to one [`Submission`].
struct ShardReply {
    shard: usize,
    seq: u64,
    responses: Vec<Response>,
}

/// Where a sub-batch landed in a shard's serial order: the `seq`-th
/// submission executed by shard `shard`. A set of stamps is a complete
/// recipe for replaying a concurrent run serially — the multi-session
/// parity gate replays stamps in `(shard, seq)` order and demands
/// byte-identical audit chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SubmitStamp {
    /// The shard that executed the sub-batch.
    pub shard: usize,
    /// 1-based position within that shard's execution order.
    pub seq: u64,
}

/// An in-flight batch: created by [`EngineHandle::submit`], redeemed by
/// [`Ticket::wait`].
pub struct Ticket {
    rx: Receiver<ShardReply>,
    /// Shards still owing a reply.
    pending: usize,
    /// Per shard: local sub-batch index → caller's request index.
    maps: Vec<Vec<usize>>,
    /// Per caller index: how many shard replies feed it (1, or the shard
    /// count for broadcast scans).
    fanin: Vec<usize>,
    total: usize,
}

impl Ticket {
    /// Block until every touched shard has replied, then reassemble the
    /// responses into the caller's request order.
    ///
    /// Returns the responses plus one [`SubmitStamp`] per touched shard
    /// (in shard order), pinpointing where each sub-batch landed in its
    /// shard's serial history.
    pub fn wait(self) -> (Vec<Response>, Vec<SubmitStamp>) {
        let mut stamps = Vec::with_capacity(self.pending);
        let mut slots: Vec<Option<Response>> = (0..self.total).map(|_| None).collect();
        // Broadcast requests collect one response per shard; merged only
        // once every reply is in, sorted by shard for determinism.
        let mut partial: Vec<(usize, usize, Response)> = Vec::new();
        for _ in 0..self.pending {
            let reply = self.rx.recv().expect("shard worker hung up mid-batch");
            stamps.push(SubmitStamp {
                shard: reply.shard,
                seq: reply.seq,
            });
            for response in reply.responses {
                let global = self.maps[reply.shard][response.index];
                if self.fanin[global] <= 1 {
                    slots[global] = Some(Response {
                        index: global,
                        ..response
                    });
                } else {
                    partial.push((global, reply.shard, response));
                }
            }
        }
        stamps.sort_unstable();
        partial.sort_by_key(|(global, shard, _)| (*global, *shard));
        let mut run: Vec<(usize, Response)> = Vec::new();
        let flush = |slots: &mut Vec<Option<Response>>, run: &mut Vec<(usize, Response)>| {
            if let Some((global, _)) = run.first() {
                let global = *global;
                slots[global] = Some(merge_scan(global, std::mem::take(run)));
            }
        };
        for (global, shard, response) in partial {
            if run.first().is_some_and(|(g, _)| *g != global) {
                flush(&mut slots, &mut run);
            }
            run.push((global, response));
            let _ = shard;
        }
        flush(&mut slots, &mut run);
        let responses = slots
            .into_iter()
            .map(|slot| slot.expect("every request index answered"))
            .collect();
        (responses, stamps)
    }
}

/// Fold a broadcast scan's per-shard responses (pre-sorted by shard)
/// into one: row counts sum; the first error in shard order wins; the
/// audit reference is the lowest shard's (each shard logged its own scan
/// record — the merged ref is a representative, not a global cursor).
fn merge_scan(global: usize, parts: Vec<(usize, Response)>) -> Response {
    let audit = parts
        .first()
        .map(|(_, r)| r.audit)
        .expect("merge of at least one shard response");
    let mut rows = 0usize;
    for (_, response) in parts {
        match response.outcome {
            Err(e) => {
                return Response {
                    index: global,
                    outcome: Err(e),
                    audit,
                }
            }
            Ok(Reply::Rows(n)) => rows += n,
            Ok(other) => {
                return Response {
                    index: global,
                    outcome: Ok(other),
                    audit,
                }
            }
        }
    }
    Response {
        index: global,
        outcome: Ok(Reply::Rows(rows)),
        audit,
    }
}

/// A cloneable, thread-safe submission port into a [`ConcurrentEngine`].
///
/// Handles may outlive the engine only nominally: submitting after
/// [`ConcurrentEngine::shutdown`] panics (the queues are gone).
#[derive(Clone)]
pub struct EngineHandle {
    txs: Vec<Sender<ShardMsg>>,
}

impl EngineHandle {
    /// Number of shards behind this handle.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Split a batch along shard lines, enqueue the sub-batches, and
    /// return a [`Ticket`] for the replies. Does not block on execution.
    pub fn submit(&self, session: &Session, requests: &[Request]) -> Ticket {
        let shards = self.txs.len();
        let mut parts: Vec<Vec<Request>> = vec![Vec::new(); shards];
        let mut maps: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut fanin = vec![0usize; requests.len()];
        for (global, request) in requests.iter().enumerate() {
            match shard_of(request, shards) {
                Some(shard) => {
                    parts[shard].push(request.clone());
                    maps[shard].push(global);
                    fanin[global] = 1;
                }
                None => {
                    // Keyless metadata scan: every shard answers for its
                    // own slice of the unit space.
                    for (shard, part) in parts.iter_mut().enumerate() {
                        part.push(request.clone());
                        maps[shard].push(global);
                    }
                    fanin[global] = shards;
                }
            }
        }
        let (reply_tx, reply_rx) = channel();
        let mut pending = 0;
        for (shard, requests) in parts.into_iter().enumerate() {
            if requests.is_empty() {
                continue;
            }
            pending += 1;
            self.txs[shard]
                .send(ShardMsg::Batch(Submission {
                    session: session.clone(),
                    requests,
                    reply: reply_tx.clone(),
                }))
                .expect("submitted to a shut-down engine");
        }
        Ticket {
            rx: reply_rx,
            pending,
            maps,
            fanin,
            total: requests.len(),
        }
    }

    /// Submit and block for the replies — `submit().wait()` minus the
    /// stamps, for callers that don't replay.
    pub fn call(&self, session: &Session, requests: &[Request]) -> Vec<Response> {
        self.submit(session, requests).wait().0
    }
}

/// The shared concurrent engine: one worker thread and one MPSC queue
/// per shard, each worker owning a [`Frontend`] over that shard's slice
/// of the unit space. See the [module docs](self) for the ordering
/// contract.
pub struct ConcurrentEngine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<Frontend>>,
}

impl ConcurrentEngine {
    /// Spin up `shards` identical shards of `config`, each on its own
    /// clock and meter.
    pub fn new(config: EngineConfig, shards: usize) -> ConcurrentEngine {
        assert!(shards > 0, "engine needs at least one shard");
        let mut txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::<ShardMsg>();
            let cfg = config.clone();
            let worker = std::thread::Builder::new()
                .name(format!("datacase-shard-{shard}"))
                .spawn(move || {
                    let fe =
                        Frontend::with_clock(cfg, SimClock::commodity(), Arc::new(Meter::new()));
                    shard_loop(shard, rx, fe)
                })
                .expect("spawn shard worker");
            txs.push(tx);
            workers.push(worker);
        }
        ConcurrentEngine {
            handle: EngineHandle { txs },
            workers,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handle.shards()
    }

    /// A cloneable submission port; hand one to each client thread.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Convenience: submit from the owning thread.
    pub fn submit(&self, session: &Session, requests: &[Request]) -> Ticket {
        self.handle.submit(session, requests)
    }

    /// Drain the queues, join every worker, and return the per-shard
    /// [`Frontend`]s in shard order for forensics and verification.
    ///
    /// Every submission enqueued before this call executes and is
    /// answered first (the drain marker trails them in FIFO order), so no
    /// redeemed ticket is left hanging. Outstanding [`EngineHandle`]
    /// clones do not block the shutdown; a submit through one afterwards
    /// panics, and a submit racing the drain marker may panic on a
    /// dropped reply instead — quiesce clients first if that matters.
    pub fn shutdown(self) -> Vec<Frontend> {
        for tx in &self.handle.txs {
            // A worker that already exited (panicked) has dropped its
            // receiver; join below will surface that.
            let _ = tx.send(ShardMsg::Drain);
        }
        drop(self.handle);
        self.workers
            .into_iter()
            .map(|worker| worker.join().expect("shard worker panicked"))
            .collect()
    }
}

/// A shard worker's life: receive a submission, execute it, reply.
/// Exits (returning its [`Frontend`]) at the drain marker or when the
/// queue closes.
fn shard_loop(shard: usize, rx: Receiver<ShardMsg>, mut fe: Frontend) -> Frontend {
    let mut seq: u64 = 0;
    while let Ok(ShardMsg::Batch(submission)) = rx.recv() {
        let responses = exec::execute(fe.db_mut(), &submission.session, &submission.requests);
        seq += 1;
        // A client that dropped its ticket no longer cares; the work is
        // already accounted and audited either way.
        let _ = submission.reply.send(ShardReply {
            shard,
            seq,
            responses,
        });
    }
    fe
}

/// Fold per-shard audit chain heads (shard order) into one engine-wide
/// digest. Two runs agree on this iff they agree on every shard's chain
/// bytes — the concurrent run's merged total order.
pub fn merged_chain_head(shards: &mut [Frontend]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"datacase-merged-chain-v1");
    for fe in shards.iter_mut() {
        h.update(&fe.forensic().chain_head());
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Actor;
    use crate::frontend::Batch;
    use crate::profiles::EngineConfig;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::time::{Dur, Ts};
    use datacase_storage::backend::BackendKind;
    use datacase_workloads::opstream::MetaSelector;
    use datacase_workloads::record::GdprMetadata;

    fn session() -> Session {
        Session::new(Actor::Controller)
    }

    fn create(key: u64) -> Request {
        let subject = (key % 7) as u32;
        let mut payload = format!("person={subject};key={key};").into_bytes();
        payload.resize(64, b'.');
        Request::Create {
            key,
            payload,
            metadata: GdprMetadata {
                subject,
                purpose: wk::analytics(),
                ttl: Ts::ZERO + Dur::from_secs(365 * 24 * 3600),
                origin_device: 1,
                objects_to_sharing: false,
            },
        }
    }

    #[test]
    fn replies_land_in_request_order_across_shards() {
        let engine = ConcurrentEngine::new(EngineConfig::p_base(), 3);
        let handle = engine.handle();
        let s = session();
        let creates: Vec<Request> = (0..30).map(create).collect();
        let (responses, stamps) = handle.submit(&s, &creates).wait();
        assert_eq!(responses.len(), 30);
        assert_eq!(stamps.len(), 3, "all three shards touched");
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.outcome, Ok(Reply::Done), "create {i} failed: {r:?}");
        }
        let reads: Vec<Request> = (0..30).map(|k| Request::Read { key: k }).collect();
        for r in handle.call(&s, &reads) {
            assert_eq!(r.outcome, Ok(Reply::Value(64)));
        }
        let frontends = engine.shutdown();
        assert_eq!(frontends.len(), 3);
    }

    #[test]
    fn broadcast_scan_sums_rows_across_shards() {
        let engine = ConcurrentEngine::new(EngineConfig::p_base(), 4);
        let s = session();
        let creates: Vec<Request> = (0..40).map(create).collect();
        engine.submit(&s, &creates).wait();
        let scan = Request::ReadByMeta {
            selector: MetaSelector::BySubject(3),
        };
        let (responses, stamps) = engine.submit(&s, std::slice::from_ref(&scan)).wait();
        assert_eq!(stamps.len(), 4, "keyless scans broadcast to every shard");
        // Keys 3, 10, 17, 24, 31, 38 carry subject person=3.
        assert_eq!(responses[0].outcome, Ok(Reply::Rows(6)));
        engine.shutdown();
    }

    #[test]
    fn concurrent_run_replays_serially_from_stamps() {
        // Four client threads hammer disjoint key ranges; afterwards the
        // recorded (shard, seq) stamps replay the exact per-shard order
        // on a fresh engine, which must agree byte-for-byte.
        let shards = 2;
        let cfg = EngineConfig::p_base().with_backend(BackendKind::Lsm);
        let engine = ConcurrentEngine::new(cfg.clone(), shards);
        let s = session();
        let mut recorded: Vec<(SubmitStamp, Vec<Request>, Vec<Response>)> = Vec::new();
        std::thread::scope(|scope| {
            let joins: Vec<_> = (0..4u64)
                .map(|client| {
                    let handle = engine.handle();
                    let s = s.clone();
                    scope.spawn(move || {
                        let mut log = Vec::new();
                        for step in 0..5u64 {
                            // One shard per submission so each ticket
                            // yields exactly one stamp.
                            let shard = (client + step) % shards as u64;
                            let base = 1000 * client + 10 * step;
                            let batch: Vec<Request> = (0..4)
                                .map(|i| create(base + i * shards as u64 + shard))
                                .collect();
                            let (responses, stamps) = handle.submit(&s, &batch).wait();
                            assert_eq!(stamps.len(), 1);
                            log.push((stamps[0], batch, responses));
                        }
                        log
                    })
                })
                .collect();
            for join in joins {
                recorded.extend(join.join().unwrap());
            }
        });
        let mut live = engine.shutdown();
        let live_head = merged_chain_head(&mut live);

        // Serial witness: same sub-batches, same per-shard order.
        recorded.sort_by_key(|(stamp, _, _)| *stamp);
        let replay = ConcurrentEngine::new(cfg, shards);
        for (stamp, batch, concurrent_responses) in &recorded {
            let (serial_responses, stamps) = replay.submit(&s, batch).wait();
            assert_eq!(stamps[0].shard, stamp.shard);
            assert_eq!(&serial_responses, concurrent_responses);
        }
        let mut serial = replay.shutdown();
        assert_eq!(merged_chain_head(&mut serial), live_head);
    }

    #[test]
    fn shutdown_returns_frontends_with_audit_state() {
        // Plaintext tuples so the forensic marker scan can see payloads.
        let mut config = EngineConfig::p_sys();
        config.tuple_encryption = None;
        let engine = ConcurrentEngine::new(config, 2);
        let s = session();
        let creates: Vec<Request> = (0..8).map(create).collect();
        engine.submit(&s, &creates).wait();
        let mut frontends = engine.shutdown();
        let head_a = merged_chain_head(&mut frontends);
        let head_b = merged_chain_head(&mut frontends);
        assert_eq!(head_a, head_b, "chain heads are stable once quiesced");
        let total: usize = frontends
            .iter_mut()
            .map(|fe| fe.forensic().scan(b"person=").total())
            .sum();
        assert!(total > 0, "P_SYS residuals visible before erasure");
    }

    #[test]
    fn batch_type_round_trips_through_handle() {
        let engine = ConcurrentEngine::new(EngineConfig::p_gbench(), 2);
        let s = session();
        let batch = Batch::from(vec![create(1), create(2)]);
        let responses = engine.handle().call(&s, batch.requests());
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        engine.shutdown();
    }
}
