//! The traced run: an outside-in layer ladder.
//!
//! Tracing lives in the harness only — spans are recorded around calls
//! into public functions, nothing inside the program is instrumented.
//! The first frames of tenant A's *same seeded stream* are replayed by a
//! single caller against one shard on freshly loaded instances (alive
//! side by side, every frame on all three back to back) at four depths:
//!
//! 0. `Client::call` over loopback (wire + gateway + engine),
//! 1. `EngineHandle::submit` then `Ticket::wait` (shard hand-off + engine),
//! 2. `Frontend::submit` (the engine alone),
//! 3. unit-cost probes of each substrate's public API on the workload's
//!    own sizes and key sequence.
//!
//! A layer's self time is the difference of medians between adjacent
//! depths. Replies at depths 0, 1 and 2 must be identical — that
//! comparison is the oracle of the traced run.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use datacase_audit::loggers::{AuditLogger, CsvRowLogger, EncryptedLogger, FullQueryLogger};
use datacase_audit::record::LogRecord;
use datacase_core::action::ActionKind;
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::policy::Policy;
use datacase_core::purpose::well_known as wk;
use datacase_core::tenant::TenantId;
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_crypto::sector::SectorCipher;
use datacase_crypto::vault::KeyVault;
use datacase_engine::concurrent::{ConcurrentEngine, SubmitStamp};
use datacase_engine::error::EngineError;
use datacase_engine::frontend::{Batch as EngineBatch, Frontend, Request, Response, Session};
use datacase_engine::profiles::{EngineConfig, ProfileKind};
use datacase_engine::Actor;
use datacase_policy::enforcer::{AccessRequest, PolicyEnforcer, VersionedEnforcer};
use datacase_policy::fgac::{FgacConfig, FgacEnforcer};
use datacase_policy::metatable::MetaTableEnforcer;
use datacase_policy::rbac::{RbacEnforcer, Role};
use datacase_server::wire::HEADER_LEN;
use datacase_server::{Client, Frame, Server, TenantSpec};
use datacase_sim::time::Ts;
use datacase_sim::{Meter, MeterSnapshot, SimClock};
use datacase_storage::backend::{BackendKind, LsmBackend, MaintenanceDepth, StorageBackend};
use datacase_storage::heap::HeapDb;
use datacase_storage::page::PAGE_SIZE;
use datacase_workloads::GdprBench;

use crate::metrics::Values;
use crate::run::TENANT_NAMES;
use crate::stats::median;
use crate::verify::Check;
use crate::workloads::{Batch, Plan, LOAD_CHUNK, SPECS};

/// One recorded span. `parent` indexes the span that caused this one;
/// spans of one replayed frame share `req` (the frame's index).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<u32>,
    /// Frame (request) identifier.
    pub req: u64,
}

/// In-memory span store, written out once at the end.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Run `f` inside a span; returns the span's index and `f`'s value.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce(&mut Recorder, u32) -> T,
    ) -> (u32, T) {
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        let value = f(self, id);
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        (id, value)
    }

    /// A leaf span.
    fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, None, req, |_, _| f()).1
    }

    /// Durations of every span called `name`, ns.
    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn median_ns(&self, name: &str) -> f64 {
        median(&self.durations_ns(name)).unwrap_or(0.0)
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                span.name, span.start_ns, span.end_ns, span.req
            )?;
        }
        out.flush()
    }
}

/// What the traced run produced.
pub struct Traced {
    /// The per-layer values the traced run owns (times and unit costs).
    pub values: Values,
    /// The traced run's oracle and whether its attribution closes:
    /// output checks like any other.
    pub checks: Vec<Check>,
    /// Are the depth medians ordered? Reported, not part of `correct`.
    pub advisories: Vec<Check>,
    /// Where the spans were written.
    pub spans_path: std::path::PathBuf,
}

const CONNECTS: usize = 30;
/// Slack on the depth-ordering check.
const ORDER_TOLERANCE: f64 = 0.05;
const CRYPTO_REPS: usize = 2000;
const SUBJECT: EntityId = EntityId(4);

/// Tenant A's id behind the gateway (ids follow registration order).
const TENANT: TenantId = TenantId(1);

fn load_chunks(plan: &Plan) -> impl Iterator<Item = &[Request]> {
    plan.tenants[0].load.chunks(LOAD_CHUNK)
}

/// What the gateway does to a frame on the way in: keys and subject ids
/// move into the tenant's block. Depths 1 and 2 bypass the gateway, so
/// the harness applies the same rewrite — every depth then hands the
/// engine byte-identical requests and must get identical replies.
fn namespace(requests: &[Request]) -> Vec<Request> {
    let key = |k: u64| {
        TENANT
            .global_key(k)
            .expect("plan keys fit the tenant block")
    };
    requests
        .iter()
        .map(|request| match request {
            Request::Create {
                key: k,
                payload,
                metadata,
            } => {
                let mut metadata = metadata.clone();
                metadata.subject = TENANT
                    .global_subject(metadata.subject)
                    .expect("plan subjects fit the tenant block");
                Request::Create {
                    key: key(*k),
                    payload: payload.clone(),
                    metadata,
                }
            }
            Request::Read { key: k } => Request::Read { key: key(*k) },
            Request::Update { key: k, payload } => Request::Update {
                key: key(*k),
                payload: payload.clone(),
            },
            Request::Delete { key: k } => Request::Delete { key: key(*k) },
            Request::ReadMeta { key: k } => Request::ReadMeta { key: key(*k) },
            Request::UpdateMeta { key: k, field } => Request::UpdateMeta {
                key: key(*k),
                field: *field,
            },
            Request::Erase {
                key: k,
                interpretation,
            } => Request::Erase {
                key: key(*k),
                interpretation: *interpretation,
            },
            other => panic!("stream generator emitted an unplanned request: {other:?}"),
        })
        .collect()
}

/// What the gateway does to replies on the way out: error keys move back
/// into tenant-local terms.
fn localise(mut responses: Vec<Response>) -> Vec<Response> {
    for response in &mut responses {
        if let Err(EngineError::NotFound { key } | EngineError::RetentionExpired { key, .. }) =
            &mut response.outcome
        {
            *key = TENANT
                .local_key(*key)
                .expect("reply key in the tenant block");
        }
    }
    responses
}

/// The frames every depth replays: the head of tenant A's stream, less
/// the forget slices — a table-rewriting erase between short slices
/// would swamp the mix the ladder is there to attribute, and erasure has
/// a probe of its own. (`erasure_storm`'s mix *is* the erases.)
fn replay_frames(plan: &Plan) -> Vec<&Batch> {
    let a = &plan.tenants[0];
    let rounds = a.open.iter().zip(&a.closed);
    a.warmup
        .iter()
        .chain(rounds.flat_map(|(open, closed)| open.iter().chain(closed)))
        .take(plan.spec.trace_batches)
        .collect()
}

fn load_frontend(config: EngineConfig, load: &[Request]) -> Frontend {
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller).scoped(TENANT.key_range());
    for chunk in load.chunks(LOAD_CHUNK) {
        fe.submit(&controller, &EngineBatch::from(namespace(chunk)));
    }
    fe
}

/// What the three replays produced.
struct Ladder {
    /// Replies per frame at depths 0, 1 and 2.
    replies: [Vec<Vec<Response>>; 3],
    /// The depth-2 frontend's Meter counts over its replay.
    meter: MeterSnapshot,
}

/// Depths 0, 1 and 2: three freshly loaded one-shard instances, alive
/// side by side, each frame replayed on all three back to back — so the
/// three depths sample the same moments of a box whose speed drifts, and
/// the drift cancels out of the differences between their medians.
fn ladder(plan: &Plan, frames: &[&Batch], rec: &mut Recorder) -> Ladder {
    let name = TENANT_NAMES[0];
    let config = || plan.spec.config();
    // Depth 0: the served engine.
    let server = Server::spawn(config(), 1, &[TenantSpec::new(name, "t")]);
    let mut loader =
        Client::connect(server.addr(), name, "t", Actor::Controller).expect("loader handshake");
    for chunk in load_chunks(plan) {
        loader.call(chunk).expect("load frame");
    }
    loader.goodbye().expect("loader goodbye");
    let mut client =
        Client::connect(server.addr(), name, "t", Actor::Subject).expect("client handshake");
    // Depth 1: the concurrent engine, no gateway.
    let engine = ConcurrentEngine::new(config(), 1);
    let handle = engine.handle();
    let controller = Session::new(Actor::Controller).scoped(TENANT.key_range());
    for chunk in load_chunks(plan) {
        handle.call(&controller, &namespace(chunk));
    }
    // Depth 2: one frontend, no queue.
    let mut fe = load_frontend(config(), &plan.tenants[0].load);

    let subject = Session::new(Actor::Subject).scoped(TENANT.key_range());
    // Rewritten and wrapped outside the spans: the gateway's share is
    // depth 0's, and every depth is handed an existing frame.
    let global: Vec<Vec<Request>> = frames.iter().map(|f| namespace(&f.requests)).collect();
    let batches: Vec<EngineBatch> = global
        .iter()
        .map(|requests| EngineBatch::from(requests.clone()))
        .collect();
    let mut replies: [Vec<Vec<Response>>; 3] = Default::default();
    let before = fe.meter().snapshot();
    for (i, frame) in frames.iter().enumerate() {
        let req = i as u64;
        replies[0].push(rec.leaf("depth0.client.call", req, || {
            client.call(&frame.requests).expect("depth-0 frame")
        }));
        let (_, responses) = rec.span("depth1.engine.call", None, req, |rec, call| {
            let (_, ticket) = rec.span("depth1.engine.submit", Some(call), req, |_, _| {
                handle.submit(&subject, &global[i])
            });
            rec.span("depth1.engine.wait", Some(call), req, |_, _| {
                ticket.wait().0
            })
            .1
        });
        replies[1].push(localise(responses));
        replies[2].push(localise(rec.leaf("depth2.frontend.submit", req, || {
            fe.submit(&subject, &batches[i])
        })));
    }
    let meter = fe.meter().snapshot().diff(&before);
    client.goodbye().expect("client goodbye");
    for i in 0..CONNECTS as u64 {
        rec.leaf("server.gateway.connect", i, || {
            Client::connect(server.addr(), name, "t", Actor::Subject).expect("handshake")
        })
        .goodbye()
        .expect("goodbye");
    }
    server.shutdown();
    engine.shutdown();
    Ladder { replies, meter }
}

/// Wire probe: encode and decode each replayed frame and its reply.
/// Returns bytes on the wire over all frames.
fn probe_wire(frames: &[&Batch], replies: &[Vec<Response>], rec: &mut Recorder) -> u64 {
    let mut bytes = 0u64;
    for (i, (frame, responses)) in frames.iter().zip(replies).enumerate() {
        let req = i as u64;
        let outbound = [
            Frame::Batch(frame.requests.clone()),
            Frame::Replies {
                responses: responses.clone(),
                stamps: vec![SubmitStamp {
                    shard: 0,
                    seq: req + 1,
                }],
            },
        ];
        for message in &outbound {
            let encoded = rec.leaf("server.wire.encode", req, || message.encode());
            bytes += encoded.len() as u64;
            let decoded = rec.leaf("server.wire.decode", req, || {
                Frame::decode(encoded[3], &encoded[HEADER_LEN..])
            });
            assert_eq!(decoded.as_ref(), Ok(message), "wire round trip");
        }
    }
    bytes
}

/// How many storage operations of each kind the replayed frames hold.
#[derive(Clone, Copy, Debug, Default)]
struct StorageOps {
    reads: u64,
    updates: u64,
    deletes: u64,
}

/// Storage probe: the profile's substrate, loaded with tenant A's rows,
/// driven with the replayed key sequence.
fn probe_storage(plan: &Plan, frames: &[&Batch], rec: &mut Recorder) -> StorageOps {
    let config = plan.spec.config();
    let (clock, meter) = (SimClock::commodity(), Arc::new(Meter::new()));
    // Mirrors the engine's own construction: the substrate configs come
    // whole from the profile's `EngineConfig`.
    let mut backend: Box<dyn StorageBackend> = match config.backend {
        BackendKind::Heap => {
            let mut heap = config.heap.clone();
            heap.crypto_backend = config.crypto_backend;
            Box::new(HeapDb::new(heap, clock, meter))
        }
        BackendKind::Lsm => Box::new(LsmBackend::new(config.lsm.clone(), clock, meter)),
    };
    for request in &plan.tenants[0].load {
        if let Request::Create { key, payload, .. } = request {
            rec.leaf("storage.insert", *key, || {
                backend.insert(*key, *key, payload).expect("probe insert")
            });
        }
    }
    let mut ops = StorageOps::default();
    for (i, frame) in frames.iter().enumerate() {
        for request in &frame.requests {
            let req = i as u64;
            match request {
                Request::Read { key } => {
                    ops.reads += 1;
                    rec.leaf("storage.read", req, || backend.read(*key, false));
                }
                Request::Update { key, payload } => {
                    ops.updates += 1;
                    rec.leaf("storage.update", req, || {
                        backend.update(*key, payload).expect("probe update")
                    });
                }
                Request::Delete { key } => {
                    ops.deletes += 1;
                    rec.leaf("storage.delete", req, || {
                        backend.delete(*key).expect("probe delete")
                    });
                }
                // Metadata lives in the engine; erasure has its own probe.
                _ => {}
            }
        }
    }
    rec.leaf("storage.checkpoint", 0, || backend.checkpoint());
    rec.leaf("storage.maintain_lazy", 0, || {
        backend.maintain(MaintenanceDepth::Lazy)
    });
    rec.leaf("storage.maintain_full", 0, || {
        backend.maintain(MaintenanceDepth::Full)
    });
    ops
}

/// Crypto probe on the workload's payload size: the bare CTR kernel, the
/// vault path the engine takes per tuple, and the sector cipher.
fn probe_crypto(plan: &Plan, rec: &mut Recorder) {
    let config = plan.spec.config();
    let mut buf = vec![0x5au8; plan.spec.payload];
    if let Some(size) = config.tuple_encryption {
        let ctr = AesCtr::from_key(size, &[7u8; 32][..size.key_len()])
            .with_backend(config.crypto_backend);
        let mut vault = KeyVault::new(b"probe-master-secret", size)
            .with_backend(config.crypto_backend)
            .with_keystream_cache(config.keystream_cache);
        for i in 0..CRYPTO_REPS as u64 {
            let iv = AesCtr::iv_from_nonce(i);
            rec.leaf("crypto.tuple", i, || ctr.apply(iv, &mut buf));
            vault.ensure_key(i);
            rec.leaf("crypto.vault_apply", i, || {
                if !matches!(vault.keystream_apply(i, iv, &mut buf), Ok(true)) {
                    vault.cipher(i).expect("key ensured").apply(iv, &mut buf);
                }
            });
        }
    }
    if let (BackendKind::Heap, Some(pass)) = (config.backend, &config.heap.disk_passphrase) {
        let sector = SectorCipher::from_passphrase(pass, KeySize::Aes256)
            .with_backend(config.crypto_backend);
        let mut page = vec![0xa5u8; PAGE_SIZE];
        for i in 0..CRYPTO_REPS as u64 {
            rec.leaf("crypto.sector", i, || sector.apply(i, &mut page));
        }
    }
}

/// Audit probe: the profile's logger, one record per replayed request.
fn probe_audit(plan: &Plan, records: usize, rec: &mut Recorder) {
    let config = plan.spec.config();
    let (clock, meter) = (SimClock::commodity(), Arc::new(Meter::new()));
    let mut logger: Box<dyn AuditLogger> = match config.profile {
        ProfileKind::Stock | ProfileKind::PBase => {
            Box::new(CsvRowLogger::new(b"audit-key", clock, meter))
        }
        ProfileKind::PGBench => Box::new(FullQueryLogger::new(b"audit-key", clock, meter)),
        ProfileKind::PSys => Box::new(
            EncryptedLogger::new(b"audit-key", clock, meter)
                .with_crypto_backend(config.crypto_backend),
        ),
    };
    for i in 0..records as u64 {
        let record = LogRecord {
            seq: i + 1,
            at: Ts(i),
            unit: Some(UnitId(i % plan.spec.rows[0])),
            entity: SUBJECT,
            purpose: wk::subject_access(),
            op: "read".into(),
            payload: vec![b'x'; plan.spec.payload],
            redacted: false,
        };
        rec.leaf("audit.append", i, || logger.log(record));
    }
}

/// Policy probe: the profile's enforcer with the engine's per-unit
/// policy shape, checked over the replayed key sequence.
fn probe_policy(plan: &Plan, frames: &[&Batch], rec: &mut Recorder) {
    use ActionKind::*;
    let config = plan.spec.config();
    let (clock, meter) = (SimClock::commodity(), Arc::new(Meter::new()));
    let (controller, processor, auditor) = (EntityId(0), EntityId(1), EntityId(2));
    let inner: Box<dyn PolicyEnforcer> = match config.profile {
        ProfileKind::Stock | ProfileKind::PBase => {
            let mut rbac = RbacEnforcer::new(clock, meter);
            let subject_role = rbac.define_role(Role::new(
                "data-subject",
                vec![(
                    wk::subject_access(),
                    vec![Read, ReadMeta, UpdateValue, UpdatePolicy, Erase, Restore],
                )],
            ));
            rbac.set_subject_role(subject_role);
            Box::new(rbac)
        }
        ProfileKind::PGBench => Box::new(MetaTableEnforcer::new(clock, meter)),
        ProfileKind::PSys => Box::new(FgacEnforcer::new(
            FgacConfig {
                use_index: config.fgac_index,
                ..FgacConfig::default()
            },
            clock,
            meter,
        )),
    };
    let mut enforcer = VersionedEnforcer::new(inner);
    enforcer.on_new_subject(SUBJECT);
    let (now, ttl) = (Ts::ZERO, Ts::from_secs(365 * 24 * 3600));
    for unit in 0..plan.spec.rows[0] {
        let mut policies = vec![
            Policy::open_ended(wk::subject_access(), SUBJECT, now),
            Policy::new(wk::compliance_erase(), SUBJECT, now, ttl),
            Policy::new(wk::compliance_erase(), controller, now, ttl),
            Policy::open_ended(wk::contract(), controller, now),
            Policy::open_ended(wk::contract(), SUBJECT, now),
            Policy::new(wk::billing(), processor, now, ttl),
            Policy::new(wk::billing(), controller, now, ttl),
            Policy::new(wk::retention(), processor, now, ttl),
            Policy::open_ended(wk::audit(), auditor, now),
        ];
        while policies.len() < config.policies_per_unit {
            let i = policies.len() as u64;
            policies.push(Policy::new(wk::analytics(), processor, now, Ts(1 + i)));
        }
        enforcer.register_unit(UnitId(unit), &policies);
    }
    for (i, frame) in frames.iter().enumerate() {
        for key in frame.requests.iter().filter_map(Request::key) {
            let request = AccessRequest {
                unit: UnitId(key),
                entity: SUBJECT,
                purpose: wk::subject_access(),
                action: Read,
                at: Ts(1),
            };
            let decision = rec.leaf("policy.check", i as u64, || enforcer.check(&request));
            assert!(
                decision.is_allow(),
                "probe policy check denied: {decision:?}"
            );
        }
    }
}

/// Erasure probe: one `Frontend::run` per interpretation (and the
/// restore), on the workload's own profile and substrate at
/// `erasure_storm`'s table size.
fn probe_erasure(plan: &Plan, rec: &mut Recorder) {
    const REPS: u64 = 5;
    let storm = &SPECS[3];
    let rows = (storm.rows[0] + storm.rows[1]) as usize;
    let load: Vec<Request> = GdprBench::new(plan.seed, 1000)
        .load_phase(rows)
        .iter()
        .map(Request::from)
        .collect();
    let mut fe = load_frontend(plan.spec.config(), &load);
    let subject = Session::new(Actor::Subject).scoped(TENANT.key_range());
    let mut key = TENANT.global_key(0).expect("tenant block");
    let mut erase = |fe: &mut Frontend, name, interpretation, rec: &mut Recorder| {
        for _ in 0..REPS {
            key += 1;
            let response = rec.leaf(name, key, || {
                fe.run(
                    &subject,
                    Request::Erase {
                        key,
                        interpretation,
                    },
                )
            });
            assert!(response.outcome.is_ok(), "{name}: {:?}", response.outcome);
            if interpretation == ErasureInterpretation::ReversiblyInaccessible {
                let response = rec.leaf("engine.erasure.restore", key, || {
                    fe.run(&subject, Request::Restore { key })
                });
                assert!(response.outcome.is_ok(), "restore: {:?}", response.outcome);
            }
        }
    };
    use ErasureInterpretation::*;
    erase(
        &mut fe,
        "engine.erasure.reversible",
        ReversiblyInaccessible,
        rec,
    );
    erase(&mut fe, "engine.erasure.deleted", Deleted, rec);
    erase(&mut fe, "engine.erasure.strong", StronglyDeleted, rec);
    erase(&mut fe, "engine.erasure.permanent", PermanentlyDeleted, rec);
}

/// Cost of recording one span, ns (median of a burst of empty spans).
fn span_cost_ns() -> f64 {
    let mut rec = Recorder::new();
    for i in 0..10_000 {
        rec.leaf("noop", i, || ());
    }
    // An empty span's duration is one clock read; recording costs two
    // plus the push. Measure the burst end to end instead.
    let first = rec.spans.first().map_or(0, |s| s.start_ns);
    let last = rec.spans.last().map_or(0, |s| s.end_ns);
    (last - first) as f64 / rec.spans.len() as f64
}

/// Run the traced ladder for `plan` — on a thread of its own: the
/// engine's shards live on spawned threads, and a frontend driven from
/// the main thread allocates from a different malloc arena (on glibc,
/// table-wide maintenance there runs ~2.5x slower), which would make
/// depth 2 incomparable with depths 0 and 1.
pub fn trace(plan: &Plan) -> Traced {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("benchmark-trace".into())
            .spawn_scoped(scope, || trace_on_this_thread(plan))
            .expect("spawn trace thread")
            .join()
            .expect("trace thread")
    })
}

fn trace_on_this_thread(plan: &Plan) -> Traced {
    let mut rec = Recorder::new();
    let frames = replay_frames(plan);
    let ops: u64 = frames.iter().map(|f| f.requests.len() as u64).sum();
    let per_frame = ops as f64 / frames.len() as f64;

    let Ladder {
        replies: [replies0, replies1, replies2],
        meter,
    } = ladder(plan, &frames, &mut rec);
    let wire_bytes = probe_wire(&frames, &replies0, &mut rec);
    let storage_ops = probe_storage(plan, &frames, &mut rec);
    probe_crypto(plan, &mut rec);
    probe_audit(plan, (ops as usize).min(20_000), &mut rec);
    probe_policy(plan, &frames, &mut rec);
    probe_erasure(plan, &mut rec);

    let d0 = rec.median_ns("depth0.client.call");
    let d1 = rec.median_ns("depth1.engine.call");
    let d2 = rec.median_ns("depth2.frontend.submit");
    let wall2 = rec.total_ns("depth2.frontend.submit");
    let us = |name: &str| rec.median_ns(name) / 1e3;
    let ms = |name: &str| rec.median_ns(name) / 1e6;

    let mut v = Values::new();
    // server.wire — each frame is encoded and decoded once per direction.
    let encode = 2.0 * rec.median_ns("server.wire.encode");
    let decode = 2.0 * rec.median_ns("server.wire.decode");
    v.insert("server.wire.encode_ns_per_op", encode / per_frame);
    v.insert("server.wire.decode_ns_per_op", decode / per_frame);
    v.insert("server.wire.bytes_per_op", wire_bytes as f64 / ops as f64);
    // server.gateway — what depth 0 adds over depth 1, less the codec.
    v.insert(
        "server.gateway.self_us_per_batch",
        (d0 - d1 - encode - decode) / 1e3,
    );
    v.insert("server.gateway.connect_us", us("server.gateway.connect"));
    // engine.concurrent — what depth 1 adds over depth 2.
    v.insert("engine.concurrent.self_us_per_batch", (d1 - d2) / 1e3);
    v.insert(
        "engine.concurrent.submit_us_per_batch",
        us("depth1.engine.submit"),
    );
    // Substrate unit costs.
    let payload = plan.spec.payload as f64;
    v.insert(
        "crypto.tuple_ns_per_byte",
        rec.median_ns("crypto.tuple") / payload,
    );
    v.insert(
        "crypto.vault_apply_ns_per_op",
        rec.median_ns("crypto.vault_apply"),
    );
    v.insert(
        "crypto.sector_ns_per_byte",
        rec.median_ns("crypto.sector") / PAGE_SIZE as f64,
    );
    v.insert("audit.append_ns_per_record", rec.median_ns("audit.append"));
    v.insert("policy.check_ns", rec.median_ns("policy.check"));
    v.insert("storage.read_us", us("storage.read"));
    v.insert("storage.update_us", us("storage.update"));
    v.insert("storage.insert_us", us("storage.insert"));
    v.insert("storage.delete_us", us("storage.delete"));
    v.insert("storage.checkpoint_ms", ms("storage.checkpoint"));
    v.insert("storage.maintain_lazy_ms", ms("storage.maintain_lazy"));
    v.insert("storage.maintain_full_ms", ms("storage.maintain_full"));
    v.insert(
        "engine.erasure.reversible_us",
        us("engine.erasure.reversible"),
    );
    v.insert("engine.erasure.restore_us", us("engine.erasure.restore"));
    v.insert("engine.erasure.deleted_us", us("engine.erasure.deleted"));
    v.insert("engine.erasure.strong_us", us("engine.erasure.strong"));
    v.insert(
        "engine.erasure.permanent_us",
        us("engine.erasure.permanent"),
    );
    // Attribution of the depth-2 run: unit cost x its Meter count over
    // its wall time; the frontend's own share is the remainder.
    let crypto_ns = if plan.spec.config().tuple_encryption.is_some() {
        v["crypto.tuple_ns_per_byte"] * meter.crypto_bytes as f64
    } else {
        0.0 // sector crypto happens inside the storage calls
    };
    let audit_ns = v["audit.append_ns_per_record"] * meter.log_records as f64;
    let policy_ns = v["policy.check_ns"] * meter.policy_checks as f64;
    let storage_ns = 1e3
        * (v["storage.read_us"] * storage_ops.reads as f64
            + v["storage.update_us"] * storage_ops.updates as f64
            + v["storage.delete_us"] * storage_ops.deletes as f64);
    let attributed = crypto_ns + audit_ns + policy_ns + storage_ns;
    v.insert("crypto.est_share", crypto_ns / wall2);
    v.insert("audit.est_share", audit_ns / wall2);
    v.insert("policy.est_share", policy_ns / wall2);
    v.insert("storage.est_share", storage_ns / wall2);
    v.insert("engine.frontend.submit_us_per_op", d2 / per_frame / 1e3);
    v.insert(
        "engine.frontend.self_us_per_op",
        (wall2 - attributed) / ops as f64 / 1e3,
    );
    // Tracing overhead: spans recorded during the replays x the cost of
    // recording one, over the replays' wall time.
    let replay_spans = (frames.len() * 5) as f64;
    let replay_wall =
        rec.total_ns("depth0.client.call") + rec.total_ns("depth1.engine.call") + wall2;
    v.insert(
        "env.trace_overhead_frac",
        replay_spans * span_cost_ns() / replay_wall,
    );

    let checks = vec![
        Check {
            name: "replies identical at depths 0, 1 and 2",
            ok: replies0 == replies1 && replies1 == replies2,
            detail: match (0..frames.len())
                .find(|&i| replies0[i] != replies1[i] || replies1[i] != replies2[i])
            {
                None => format!("{} frames", frames.len()),
                Some(i) => format!(
                    "frame {i} diverges: depth 0 {:?} / depth 1 {:?} / depth 2 {:?}",
                    replies0[i], replies1[i], replies2[i]
                ),
            },
        },
        Check {
            name: "attribution closes (sum of est_share <= 1)",
            ok: attributed <= wall2,
            detail: format!("sum of est_share = {:.3}", attributed / wall2),
        },
        Check {
            name: "env.trace_overhead_frac < 0.05",
            ok: v["env.trace_overhead_frac"] < 0.05,
            detail: format!("{:.5}", v["env.trace_overhead_frac"]),
        },
    ];
    // Held against a difference of two timings of a few hundred
    // microseconds each, which one pause of the box can turn around with
    // nothing wrong in the program: reported, not part of `correct`.
    // Within a tolerance: where a frame costs milliseconds (one erase
    // rewrites a table) the outer layers' ~0.1 ms is below the noise of
    // the frame itself.
    let advisories = vec![Check {
        name: "depth-0 median >= depth-1 >= depth-2 (within 5 %)",
        ok: d0 >= d1 * (1.0 - ORDER_TOLERANCE) && d1 >= d2 * (1.0 - ORDER_TOLERANCE),
        detail: format!(
            "{:.1} / {:.1} / {:.1} us per frame",
            d0 / 1e3,
            d1 / 1e3,
            d2 / 1e3
        ),
    }];
    let spans_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", plan.spec.name));
    rec.write_jsonl(&spans_path).expect("write trace spans");
    Traced {
        values: v,
        checks,
        advisories,
        spans_path,
    }
}
