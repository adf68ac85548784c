//! The four named workloads: frozen configuration, seeded request
//! streams, and the per-request reply oracle.
//!
//! Everything a run sends is generated here, before the clock starts,
//! from `(--seed, --seconds)` alone: two key-disjoint tenant streams
//! (load, warm-up, open-loop, closed-loop, forget), each request paired
//! with the reply kind the engine must give. Rates and counts are frozen
//! constants — never scaled to the machine — so the same arguments always
//! produce the same bytes on the wire ([`Plan::stream_hash`]).

use std::collections::HashSet;

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_crypto::sha256::{to_hex, Sha256};
use datacase_engine::error::EngineError;
use datacase_engine::frontend::{Reply, Request};
use datacase_engine::profiles::{EngineConfig, ProfileKind};
use datacase_server::Frame;
use datacase_sim::rng::{child_seed, SplitMix64};
use datacase_storage::backend::BackendKind;
use datacase_workloads::{GdprBench, Mix, Ycsb, YcsbWorkload};

use crate::json::Json;

/// Shards behind the gateway in every untraced run.
pub const SHARDS: usize = 4;
/// Tenants — and loopback connections, and generator threads.
pub const TENANTS: usize = 2;
/// Share of `--seconds` the open-loop slices are scheduled over.
pub const OPEN_SHARE: f64 = 0.5;
/// Share of `--seconds` the closed-loop slices take at the reference
/// closed-loop rate. The forget phase takes the small remainder.
pub const CLOSED_SHARE: f64 = 0.4;
/// The open-loop, closed-loop and forget phases alternate in this many
/// rounds, so each samples the whole run rather than one stretch of it
/// (the reference box drifts by several percent over tens of seconds),
/// and the closed-loop rates are a median over rounds.
pub const ROUNDS: usize = 5;
/// Rows per load frame.
pub const LOAD_CHUNK: usize = 256;
/// Data subjects the Mall generator draws from (the profiles' default).
const PEOPLE: u32 = 1000;

/// What a tenant's measured stream consists of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mixture {
    /// YCSB-B: 95 % reads / 5 % updates, zipfian keys.
    YcsbB,
    /// YCSB-A: 50 % reads / 50 % updates, zipfian keys.
    YcsbA,
    /// GDPRBench customer: 20 % each of data read/update/delete and
    /// metadata read/update, uniform keys, TTL-order deletes.
    Wcus,
    /// One `Erase{PermanentlyDeleted}` per frame, seeded key order.
    EraseStorm,
    /// Point reads of uniformly drawn live keys.
    UniformReads,
}

/// One workload's frozen configuration. Per-tenant fields are indexed
/// `[tenant A, tenant B]`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Compliance profile of every shard.
    pub profile: ProfileKind,
    /// Storage substrate of every shard.
    pub backend: BackendKind,
    /// `heap.buffer_pages` override (`None` keeps the profile default).
    pub buffer_pages: Option<usize>,
    /// Each tenant's measured mix.
    pub mix: [Mixture; TENANTS],
    /// Row payload bytes.
    pub payload: usize,
    /// Rows loaded per tenant.
    pub rows: [u64; TENANTS],
    /// Requests per frame.
    pub batch: [usize; TENANTS],
    /// Open-loop frames per second per tenant (≈ 40 % of the closed-loop
    /// capacity measured once on the reference box; never auto-scaled).
    pub open_rate: [f64; TENANTS],
    /// Latency limit of a tenant's open-loop frames, ms from due time: a
    /// few times the reference p99. Requests of frames answered later
    /// are counted (`server.over_limit_ops`) — apart from `failed`, which
    /// is compared between commits and must be the program's doing: the
    /// reference box pauses for 0.1-1.3 s in one run out of three.
    pub limit_ms: [f64; TENANTS],
    /// Reference closed-loop frames per second per tenant: fixes the
    /// closed-loop phase's frame *count* so Meter counts repeat exactly.
    pub closed_rate: [f64; TENANTS],
    /// Erases per tenant in each round's forget slice (0 when a tenant's
    /// measured mix is already the erase stream).
    pub forget: usize,
    /// Forget-slice erases per second per tenant.
    pub forget_rate: f64,
    /// Latency limit of a forget-slice erase, ms from due time: about
    /// five reference medians.
    pub forget_limit_ms: f64,
    /// Closed-loop warm-up frames per tenant at the end of set-up.
    pub warmup: usize,
    /// Frames of tenant A's stream the traced run replays per depth.
    pub trace_batches: usize,
}

/// The four workloads, in reporting order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "read_heavy",
        profile: ProfileKind::PBase,
        backend: BackendKind::Heap,
        // 40k rows x 1 KiB over 4 shards = ~1.4k pages per shard: fits.
        buffer_pages: Some(2048),
        mix: [Mixture::YcsbB; 2],
        payload: 1024,
        rows: [20_000; 2],
        batch: [32; 2],
        open_rate: [190.0; 2],
        limit_ms: [20.0; 2],
        closed_rate: [740.0; 2],
        forget: 3,
        forget_rate: 10.0,
        forget_limit_ms: 200.0,
        warmup: 200,
        trace_batches: 1000,
    },
    Spec {
        name: "disk_bound",
        profile: ProfileKind::PGBench,
        backend: BackendKind::Heap,
        // 32k rows x 1 KiB over 4 shards = ~1.15k pages per shard; 100
        // pages is ~9 % of it: does not fit.
        buffer_pages: Some(100),
        mix: [Mixture::YcsbA; 2],
        payload: 1024,
        rows: [16_000; 2],
        batch: [8; 2],
        open_rate: [150.0; 2],
        limit_ms: [100.0; 2],
        closed_rate: [600.0; 2],
        forget: 5,
        forget_rate: 10.0,
        forget_limit_ms: 250.0,
        warmup: 100,
        trace_batches: 1000,
    },
    Spec {
        name: "gdpr_customer",
        profile: ProfileKind::PSys,
        backend: BackendKind::Lsm,
        buffer_pages: None,
        mix: [Mixture::Wcus; 2],
        payload: 100,
        rows: [30_000; 2],
        batch: [4; 2],
        open_rate: [800.0; 2],
        limit_ms: [10.0; 2],
        closed_rate: [3200.0; 2],
        // An erase is ~6 ms here: twice the count of the heap workloads
        // for a median as steady as theirs.
        forget: 10,
        forget_rate: 16.0,
        forget_limit_ms: 50.0,
        warmup: 200,
        trace_batches: 2000,
    },
    Spec {
        name: "erasure_storm",
        profile: ProfileKind::PSys,
        backend: BackendKind::Heap,
        buffer_pages: None,
        mix: [Mixture::EraseStorm, Mixture::UniformReads],
        payload: 100,
        rows: [12_000, 4_000],
        batch: [1, 16],
        open_rate: [135.0, 135.0],
        limit_ms: [100.0, 50.0],
        closed_rate: [330.0, 350.0],
        forget: 0,
        forget_rate: 1.0,
        forget_limit_ms: 100.0,
        warmup: 20,
        trace_batches: 300,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The engine configuration: the profile's defaults over the chosen
    /// substrate, plus the buffer-pool size — nothing else, so deleting a
    /// tuning knob later cannot break the harness.
    pub fn config(&self) -> EngineConfig {
        let mut config = EngineConfig::for_profile(self.profile).with_backend(self.backend);
        if let Some(pages) = self.buffer_pages {
            config.heap.buffer_pages = pages;
        }
        config
    }

    /// The frozen numbers of the workload, as every output states them
    /// and `reference.json` records them.
    pub fn frozen(&self) -> Json {
        let each = |v: [f64; TENANTS]| v.map(Json::Num).to_vec();
        Json::obj()
            .set("shards", SHARDS)
            .set("tenants", TENANTS)
            .set("rounds", ROUNDS)
            .set("rows", self.rows.map(Json::from).to_vec())
            .set("payload_bytes", self.payload)
            .set(
                "buffer_pages",
                self.buffer_pages.map_or(Json::Null, Json::from),
            )
            .set("ops_per_frame", self.batch.map(Json::from).to_vec())
            .set("open_frames_per_s", each(self.open_rate))
            .set("limit_ms", each(self.limit_ms))
            .set("closed_nominal_frames_per_s", each(self.closed_rate))
            .set("forget_erases_per_round", self.forget)
            .set("forget_erases_per_s", self.forget_rate)
            .set("forget_limit_ms", self.forget_limit_ms)
            .set("warmup_frames", self.warmup)
            .set("trace_frames", self.trace_batches)
    }
}

/// The reply kind the engine must give a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `Reply::Done`.
    Done,
    /// `Reply::Value(n)`; `Some(n)` pins the byte count too.
    Value(Option<usize>),
    /// `Reply::Erased(PermanentlyDeleted)`.
    Erased,
    /// `EngineError::Denied` (P_SYS: the unit's policies went with it).
    Denied,
    /// `EngineError::RetentionExpired`.
    RetentionExpired,
}

impl Expect {
    /// Does `outcome` match?
    pub fn matches(self, outcome: &Result<Reply, EngineError>) -> bool {
        match (self, outcome) {
            (Expect::Done, Ok(Reply::Done)) => true,
            (Expect::Value(want), Ok(Reply::Value(got))) => want.is_none_or(|w| w == *got),
            (Expect::Erased, Ok(Reply::Erased(ErasureInterpretation::PermanentlyDeleted))) => true,
            (Expect::Denied, Err(EngineError::Denied { .. })) => true,
            (Expect::RetentionExpired, Err(EngineError::RetentionExpired { .. })) => true,
            _ => false,
        }
    }
}

/// One frame: its requests and the reply each must get.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Tenant-local requests.
    pub requests: Vec<Request>,
    /// One expectation per request.
    pub expect: Vec<Expect>,
}

/// One tenant's complete plan.
#[derive(Clone, Debug)]
pub struct TenantPlan {
    /// Load-phase creates (sent as controller, [`LOAD_CHUNK`] per frame).
    pub load: Vec<Request>,
    /// Warm-up frames (end of set-up, closed-loop, untimed).
    pub warmup: Vec<Batch>,
    /// Open-loop frames, one slice per round.
    pub open: Vec<Vec<Batch>>,
    /// Closed-loop frames, one slice per round (round `r`'s closed slice
    /// runs after its open slice, and the stream was generated — and the
    /// oracle walked over it — in exactly that order).
    pub closed: Vec<Vec<Batch>>,
    /// Forget frames (one erase each), one slice per round, sent after
    /// the round's closed-loop slice.
    pub forget: Vec<Vec<Batch>>,
    /// Keys this plan erases, in order (storm stream + forget slices).
    pub erased: Vec<u64>,
    /// Keys live at the end per the oracle's model.
    pub survivors: Vec<u64>,
}

/// Both tenants' plans for one `(workload, seed, seconds)`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub spec: &'static Spec,
    /// The seed every stream derives from.
    pub seed: u64,
    /// Per-tenant plans.
    pub tenants: Vec<TenantPlan>,
    /// Marker carried by every row that will be erased; one forensic
    /// scan for it finds a residual of *any* erased row.
    pub forget_needle: Vec<u8>,
}

/// Frames per round for a phase taking `share` of `seconds` at `rate`.
fn frames(seconds: f64, share: f64, rate: f64) -> usize {
    ((seconds * share * rate / ROUNDS as f64).round() as usize).max(1)
}

/// Overwrite the tail of a load payload with a per-row marker. Rows the
/// plan will erase carry the shared `forget` prefix, the rest `keep`.
fn stamp(payload: &mut [u8], doomed: bool, seed: u64, tenant: usize, key: u64) {
    let marker = format!(
        "|{}-s{seed:x}-t{tenant}-k{key}|",
        if doomed { "forget" } else { "keep" }
    );
    let at = payload
        .len()
        .checked_sub(marker.len())
        .expect("payload has room for the row marker");
    payload[at..].copy_from_slice(marker.as_bytes());
}

impl Plan {
    /// Generate the plan. Deterministic in `(spec, seed, seconds)`.
    pub fn generate(spec: &'static Spec, seed: u64, seconds: f64) -> Plan {
        let tenants = (0..TENANTS)
            .map(|t| tenant_plan(spec, seed, seconds, t))
            .collect();
        Plan {
            spec,
            seed,
            tenants,
            forget_needle: format!("|forget-s{seed:x}-").into_bytes(),
        }
    }

    /// SHA-256 over every frame both tenants will send, as encoded on
    /// the wire — two runs with equal hashes sent identical bytes.
    pub fn stream_hash(&self) -> String {
        let mut h = Sha256::new();
        for tenant in &self.tenants {
            for chunk in tenant.load.chunks(LOAD_CHUNK) {
                h.update(&Frame::Batch(chunk.to_vec()).encode());
            }
            for batch in tenant.warmup.iter().chain(tenant.measured()) {
                h.update(&Frame::Batch(batch.requests.clone()).encode());
            }
        }
        to_hex(&h.finalize())
    }

    /// Requests in the measured phases (open + closed + forget).
    pub fn measured_ops(&self) -> u64 {
        self.tenants
            .iter()
            .flat_map(TenantPlan::measured)
            .map(|b| b.requests.len() as u64)
            .sum()
    }
}

impl TenantPlan {
    /// The measured frames in the order they are sent.
    pub fn measured(&self) -> impl Iterator<Item = &Batch> {
        (0..ROUNDS).flat_map(|r| {
            self.open[r]
                .iter()
                .chain(&self.closed[r])
                .chain(&self.forget[r])
        })
    }
}

fn tenant_plan(spec: &'static Spec, seed: u64, seconds: f64, t: usize) -> TenantPlan {
    let tseed = child_seed(seed, if t == 0 { "tenant-a" } else { "tenant-b" });
    let rows = spec.rows[t];
    let batch = spec.batch[t];
    let n_open = frames(seconds, OPEN_SHARE, spec.open_rate[t]);
    let n_closed = frames(seconds, CLOSED_SHARE, spec.closed_rate[t]);
    let n_frames = spec.warmup + ROUNDS * (n_open + n_closed);
    let n_ops = n_frames * batch;

    let (mut load, ops): (Vec<Request>, Vec<Request>) = match spec.mix[t] {
        Mixture::YcsbA | Mixture::YcsbB => {
            let mut y = Ycsb::new(tseed, rows).with_payload_size(spec.payload);
            let load = y.load_phase().iter().map(Request::from).collect();
            let mix = if spec.mix[t] == Mixture::YcsbA {
                YcsbWorkload::A
            } else {
                YcsbWorkload::B
            };
            (load, y.ops(n_ops, mix).iter().map(Request::from).collect())
        }
        Mixture::Wcus => {
            let mut g = GdprBench::new(tseed, PEOPLE);
            let load = g
                .load_phase(rows as usize)
                .iter()
                .map(Request::from)
                .collect();
            (
                load,
                g.ops(n_ops, Mix::wcus())
                    .iter()
                    .map(Request::from)
                    .collect(),
            )
        }
        Mixture::EraseStorm | Mixture::UniformReads => {
            let mut g = GdprBench::new(tseed, PEOPLE);
            let load = g
                .load_phase(rows as usize)
                .iter()
                .map(Request::from)
                .collect();
            let mut rng = SplitMix64::new(child_seed(tseed, "storm"));
            let ops = if spec.mix[t] == Mixture::EraseStorm {
                assert!(n_ops as u64 <= rows, "erase stream outruns the table");
                // A seeded partial Fisher-Yates: distinct keys, no order.
                let mut keys: Vec<u64> = (0..rows).collect();
                (0..n_ops)
                    .map(|i| {
                        let j = i + rng.next_below((keys.len() - i) as u64) as usize;
                        keys.swap(i, j);
                        Request::Erase {
                            key: keys[i],
                            interpretation: ErasureInterpretation::PermanentlyDeleted,
                        }
                    })
                    .collect()
            } else {
                (0..n_ops)
                    .map(|_| Request::Read {
                        key: rng.next_below(rows),
                    })
                    .collect()
            };
            (load, ops)
        }
    };

    // The forget slices erase rows nothing else in the stream refers to
    // (so the oracle needs no model of requests against erased rows, and
    // the rows still carry their load-time marker when their turn comes):
    // the highest such keys — the customer mix deletes oldest-first.
    let touched: HashSet<u64> = ops.iter().filter_map(Request::key).collect();
    // Taken shard by shard in turn (a tenant's key `k` lives on shard
    // `k % SHARDS`): an erase rewrites only its own shard's table, so a
    // slice that happened to favour some shards would leave the others
    // aged, and throughput would depend on the seed's luck.
    let mut spare: Vec<_> = (0..SHARDS as u64)
        .map(|shard| {
            (0..rows)
                .rev()
                .filter(move |k| k % SHARDS as u64 == shard)
                .filter(|k| !touched.contains(k))
        })
        .collect();
    let forget_keys: Vec<u64> = (0..ROUNDS * spec.forget)
        .map(|i| {
            spare[i % SHARDS]
                .next()
                .expect("enough untouched rows to forget on every shard")
        })
        .collect();

    // Walk the stream once with the oracle's model of the tenant's table.
    let mut deleted: HashSet<u64> = HashSet::new();
    let mut erased: Vec<u64> = Vec::new();
    let expect: Vec<Expect> = ops
        .iter()
        .map(|request| match request {
            Request::Read { key } if deleted.contains(key) => Expect::Denied,
            Request::Read { .. } => Expect::Value(Some(spec.payload)),
            Request::ReadMeta { key } if deleted.contains(key) => Expect::RetentionExpired,
            Request::ReadMeta { .. } => Expect::Value(None),
            Request::Update { .. } | Request::UpdateMeta { .. } => Expect::Done,
            Request::Delete { key } => {
                deleted.insert(*key);
                Expect::Done
            }
            Request::Erase { key, .. } => {
                erased.push(*key);
                Expect::Erased
            }
            other => panic!("stream generator emitted an unplanned request: {other:?}"),
        })
        .collect();
    erased.extend(&forget_keys);

    let doomed: HashSet<u64> = erased.iter().copied().collect();
    for request in &mut load {
        if let Request::Create { key, payload, .. } = request {
            stamp(payload, doomed.contains(key), seed, t, *key);
        }
    }

    let mut batches = ops
        .chunks(batch)
        .zip(expect.chunks(batch))
        .map(|(requests, expect)| Batch {
            requests: requests.to_vec(),
            expect: expect.to_vec(),
        });
    let warmup: Vec<Batch> = batches.by_ref().take(spec.warmup).collect();
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        open.push(batches.by_ref().take(n_open).collect());
        closed.push(batches.by_ref().take(n_closed).collect());
    }
    let forget_frames: Vec<Batch> = forget_keys
        .iter()
        .map(|&key| Batch {
            requests: vec![Request::Erase {
                key,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            }],
            expect: vec![Expect::Erased],
        })
        .collect();
    let mut forget: Vec<Vec<Batch>> = forget_frames
        .chunks(spec.forget.max(1))
        .map(<[Batch]>::to_vec)
        .collect();
    forget.resize(ROUNDS, Vec::new());
    let survivors = (0..rows)
        .filter(|k| !deleted.contains(k) && !doomed.contains(k))
        .collect();
    TenantPlan {
        load,
        warmup,
        open,
        closed,
        forget,
        erased,
        survivors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for spec in &SPECS {
            let a = Plan::generate(spec, 7, 1.0).stream_hash();
            assert_eq!(
                a,
                Plan::generate(spec, 7, 1.0).stream_hash(),
                "{}",
                spec.name
            );
            assert_ne!(
                a,
                Plan::generate(spec, 8, 1.0).stream_hash(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn tenant_streams_differ_and_counts_follow_the_frozen_rates() {
        let spec = spec("gdpr_customer").unwrap();
        let plan = Plan::generate(spec, 7, 3.0);
        let [a, b] = [&plan.tenants[0], &plan.tenants[1]];
        assert_ne!(a.open[0][0].requests, b.open[0][0].requests);
        assert_eq!((a.open.len(), a.closed.len()), (ROUNDS, ROUNDS));
        let per_round = |share: f64, rate: f64| (3.0 * share * rate / ROUNDS as f64) as usize;
        for round in 0..ROUNDS {
            assert_eq!(
                a.open[round].len(),
                per_round(OPEN_SHARE, spec.open_rate[0])
            );
            assert_eq!(
                a.closed[round].len(),
                per_round(CLOSED_SHARE, spec.closed_rate[0])
            );
        }
        assert_eq!(a.warmup.len(), spec.warmup);
        assert!(a.forget.iter().all(|slice| slice.len() == spec.forget));
        assert!(a
            .measured()
            .take(100)
            .all(|f| f.requests.len() == spec.batch[0]));
    }

    #[test]
    fn doomed_rows_carry_the_forget_marker_and_only_they() {
        let plan = Plan::generate(spec("erasure_storm").unwrap(), 7, 1.0);
        let a = &plan.tenants[0];
        let doomed: HashSet<u64> = a.erased.iter().copied().collect();
        assert_eq!(doomed.len(), a.erased.len(), "erase keys are distinct");
        for request in &a.load {
            let Request::Create { key, payload, .. } = request else {
                panic!("load is creates only");
            };
            let marked = payload
                .windows(plan.forget_needle.len())
                .any(|w| w == plan.forget_needle);
            assert_eq!(marked, doomed.contains(key), "key {key}");
            assert_eq!(payload.len(), plan.spec.payload);
        }
        // Tenant B is a bystander: never erased.
        assert!(plan.tenants[1].erased.is_empty());
        assert_eq!(plan.tenants[1].survivors.len() as u64, plan.spec.rows[1]);
    }

    #[test]
    fn oracle_expects_denials_only_after_a_delete() {
        let plan = Plan::generate(spec("gdpr_customer").unwrap(), 7, 2.0);
        let mut deleted = HashSet::new();
        let mut denials = 0;
        let t = &plan.tenants[0];
        for batch in t.warmup.iter().chain(t.measured()) {
            for (request, expect) in batch.requests.iter().zip(&batch.expect) {
                match (request, expect) {
                    (Request::Delete { key }, Expect::Done) => {
                        deleted.insert(*key);
                    }
                    (Request::Read { key }, Expect::Denied) => {
                        assert!(deleted.contains(key));
                        denials += 1;
                    }
                    (Request::Read { key }, _) => assert!(!deleted.contains(key)),
                    _ => {}
                }
            }
        }
        assert!(denials > 0, "the customer mix reads deleted keys");
    }

    #[test]
    fn expectation_matching_is_exact_on_kind() {
        assert!(Expect::Value(Some(100)).matches(&Ok(Reply::Value(100))));
        assert!(!Expect::Value(Some(100)).matches(&Ok(Reply::Value(99))));
        assert!(Expect::Value(None).matches(&Ok(Reply::Value(73))));
        assert!(!Expect::Done.matches(&Err(EngineError::NotFound { key: 1 })));
        assert!(Expect::Denied.matches(&Err(EngineError::Denied { reason: "x".into() })));
        assert!(!Expect::Erased.matches(&Ok(Reply::Erased(ErasureInterpretation::Deleted))));
    }
}
