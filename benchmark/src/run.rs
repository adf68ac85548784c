//! The untraced run: set-up, open-loop phase, closed-loop phase, forget
//! phase, shutdown. End-to-end numbers always come from here.
//!
//! Load is generated in-process by exactly [`TENANTS`] threads over
//! [`TENANTS`] loopback connections, one tenant each, one outstanding
//! frame per connection. During a closed-loop slice the main thread
//! samples progress and process CPU every [`SAMPLE`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use datacase_engine::frontend::{Frontend, Request};
use datacase_engine::Actor;
use datacase_server::{Client, Server, TenantSpec, WireError};

use crate::sched::{wait_until, Schedule};
use crate::stats::{self, Interval, Reading};
use crate::workloads::{Batch, Plan, CLOSED_SHARE, LOAD_CHUNK, ROUNDS, SHARDS, TENANTS};

/// Tenant names on the wire, in tenant-id order (ids 1 and 2).
pub const TENANT_NAMES: [&str; TENANTS] = ["tenant-a", "tenant-b"];
const TOKEN: &str = "benchmark-token";
/// How often the main thread reads the clocks while a closed-loop slice
/// runs: the tail one connection runs alone is cut off to this precision.
const SAMPLE: Duration = Duration::from_millis(50);
/// Linux reports CPU time in 100 Hz ticks on every supported box.
pub const TICK_US: f64 = 10_000.0;
/// A closed-loop slice gives up after this multiple of its nominal
/// length; frames not sent by then count as failed.
const CLOSED_CAP: f64 = 4.0;
/// Both schedules start this long after the slice does, so neither
/// generator thread is late for its first send.
const LEAD_NS: u64 = 5_000_000;

/// What one generator thread saw, accumulated over the phases.
#[derive(Clone, Debug, Default)]
pub struct TenantLog {
    /// Open-loop read/write frames: latency from the due time, ms.
    pub batch_ms: Vec<f64>,
    /// Open-loop erase frames, likewise.
    pub erase_ms: Vec<f64>,
    /// How late each open-loop send left, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent (or given up on) in the measured phases.
    pub attempted: u64,
    /// Requests that failed: transport/protocol error, backend error,
    /// reply differing from the oracle, or never sent.
    pub failed: u64,
    /// Requests of open-loop frames that were answered correctly but
    /// later than the stream's latency limit.
    pub over_limit: u64,
    /// Replies whose kind differed from the oracle.
    pub mismatches: u64,
    /// Error replies received (expected ones included).
    pub error_replies: u64,
    /// `overloaded` refusals.
    pub shed: u64,
    /// Frames answered, and the shards they touched (from the stamps).
    pub frames: u64,
    /// Sum over answered frames of shards touched.
    pub shards_touched: u64,
    /// First few failures, for the report.
    pub notes: Vec<String>,
}

impl TenantLog {
    fn note(&mut self, note: String) {
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

/// A served engine with both tenants loaded, warmed, and connected.
pub struct Instance {
    server: Server,
    clients: Vec<Client>,
}

/// Spawn the gateway, load both tenants through their own controller
/// connections, connect the measured (subject) connections and run the
/// warm-up frames. Returns the instance and the wall seconds it took.
pub fn setup(plan: &Plan) -> (Instance, f64) {
    let started = Instant::now();
    let specs: Vec<TenantSpec> = TENANT_NAMES
        .iter()
        .map(|name| TenantSpec::new(name, TOKEN))
        .collect();
    let server = Server::spawn(plan.spec.config(), SHARDS, &specs);
    let addr = server.addr();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .tenants
            .iter()
            .zip(TENANT_NAMES)
            .map(|(tenant, name)| {
                scope.spawn(move || {
                    let mut loader = Client::connect(addr, name, TOKEN, Actor::Controller)
                        .expect("loader handshake");
                    for chunk in tenant.load.chunks(LOAD_CHUNK) {
                        let replies = loader.call(chunk).expect("load frame");
                        assert!(
                            replies.iter().all(|r| r.is_done()),
                            "load frame refused a create"
                        );
                    }
                    loader.goodbye().expect("loader goodbye");
                    // The measured connection acts as the data subject:
                    // the one actor whose reads *and* writes the model's
                    // policy set covers, so the run ends compliant.
                    let mut client = Client::connect(addr, name, TOKEN, Actor::Subject)
                        .expect("client handshake");
                    let mut log = TenantLog::default();
                    for batch in &tenant.warmup {
                        exec(&mut client, batch, &mut log);
                    }
                    assert_eq!(log.failed, 0, "warm-up failed: {:?}", log.notes);
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread"))
            .collect()
    });
    (
        Instance { server, clients },
        started.elapsed().as_secs_f64(),
    )
}

/// Send one frame and hold every reply to the oracle. Returns false when
/// any request of the frame failed.
fn exec(client: &mut Client, batch: &Batch, log: &mut TenantLog) -> bool {
    let n = batch.requests.len() as u64;
    match client.call_stamped(&batch.requests) {
        Ok((responses, stamps)) => {
            log.frames += 1;
            log.shards_touched += stamps.len() as u64;
            let mut bad = 0;
            for ((response, expect), request) in
                responses.iter().zip(&batch.expect).zip(&batch.requests)
            {
                if response.outcome.is_err() {
                    log.error_replies += 1;
                }
                if !expect.matches(&response.outcome) {
                    bad += 1;
                    log.mismatches += 1;
                    log.note(format!(
                        "{} key {:?}: expected {expect:?}, got {:?}",
                        request.label(),
                        request.key(),
                        response.outcome
                    ));
                }
            }
            // A short reply leaves requests unanswered: failed too.
            bad += n.saturating_sub(responses.len() as u64);
            log.failed += bad;
            bad == 0
        }
        Err(err) => {
            if matches!(&err, WireError::Protocol(s) if s.contains("overloaded")) {
                log.shed += 1;
            }
            log.failed += n;
            log.note(format!("frame failed: {err}"));
            false
        }
    }
}

/// Run `frames` on a fixed-rate schedule (due times in ns since
/// `origin`), timing each from its due time. Erase frames (one `Erase`
/// request) land in `erase_ms`, the rest in `batch_ms`; a frame answered
/// more than `limit_ms` after its due time is counted in `over_limit`.
fn open_loop(
    client: &mut Client,
    frames: &[Batch],
    schedule: Schedule,
    limit_ms: f64,
    origin: Instant,
    log: &mut TenantLog,
) {
    for (i, batch) in frames.iter().enumerate() {
        let due = schedule.due_ns(i as u64);
        let sent = wait_until(origin, due);
        log.lag_ms.push((sent - due) as f64 / 1e6);
        log.attempted += batch.requests.len() as u64;
        let ok = exec(client, batch, log);
        let done = origin.elapsed().as_nanos() as u64;
        let latency_ms = (done - due) as f64 / 1e6;
        if matches!(batch.requests[..], [Request::Erase { .. }]) {
            log.erase_ms.push(latency_ms);
        } else {
            log.batch_ms.push(latency_ms);
        }
        if ok && latency_ms > limit_ms {
            log.over_limit += batch.requests.len() as u64;
            log.note(format!(
                "frame {i} due at {due} ns took {latency_ms:.3} ms, over the {limit_ms} ms limit"
            ));
        }
    }
}

/// Everything the untraced run hands to verification and reporting.
pub struct RunOutput {
    /// Per-tenant generator logs.
    pub logs: Vec<TenantLog>,
    /// Each round's closed-loop slice, up to the moment the first
    /// connection drained.
    pub closed: Vec<Interval>,
    /// Guest-wide hypervisor steal over the measured phases, clock ticks.
    pub steal_ticks: u64,
    /// The per-shard frontends, returned by the gateway's shutdown.
    pub frontends: Vec<Frontend>,
}

fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    stats::parse_proc_stat_ticks(&stat).expect("parse /proc/self/stat")
}

/// Guest-wide hypervisor steal so far, clock ticks.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    stats::parse_proc_stat_steal(&stat).expect("parse /proc/stat")
}

/// Read the clocks every [`SAMPLE`] until every generator thread has
/// stored its finishing time in `finished` (0 = still running). The first
/// reading is taken at the slice's start and the last after its end.
fn watch(origin: Instant, finished: &[AtomicU64], ops: &AtomicU64) -> Vec<Reading> {
    let read = || Reading {
        at_ns: origin.elapsed().as_nanos() as u64,
        ops: ops.load(Ordering::SeqCst),
        cpu_ticks: process_cpu_ticks(),
    };
    let mut readings = vec![read()];
    loop {
        std::thread::sleep(SAMPLE);
        readings.push(read());
        if finished.iter().all(|f| f.load(Ordering::SeqCst) != 0) {
            return readings;
        }
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    stats::parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

impl Instance {
    /// Shut the gateway down without running anything: the frontends of
    /// a freshly set-up instance are the baseline the measured phases'
    /// counter deltas are taken against.
    pub fn into_frontends(self) -> Vec<Frontend> {
        for client in self.clients {
            client.goodbye().expect("client goodbye");
        }
        self.server.shutdown()
    }

    /// Run the measured phases — [`ROUNDS`] rounds of an open-loop slice,
    /// a closed-loop slice and a forget slice — and shut down.
    pub fn run(mut self, plan: &Plan, seconds: f64) -> RunOutput {
        let spec = plan.spec;
        let mut logs: Vec<TenantLog> = vec![TenantLog::default(); TENANTS];
        let origin = Instant::now();
        let steal_before = steal_ticks();
        let mut closed = Vec::new();
        for round in 0..ROUNDS {
            self.open_slice(
                |t| {
                    (
                        &plan.tenants[t].open[round][..],
                        spec.open_rate[t],
                        spec.limit_ms[t],
                    )
                },
                origin,
                &mut logs,
            );
            closed.push(self.closed_slice(plan, round, seconds, origin, &mut logs));
            self.open_slice(
                |t| {
                    (
                        &plan.tenants[t].forget[round][..],
                        spec.forget_rate,
                        spec.forget_limit_ms,
                    )
                },
                origin,
                &mut logs,
            );
        }
        RunOutput {
            logs,
            closed,
            steal_ticks: steal_ticks() - steal_before,
            frontends: self.into_frontends(),
        }
    }

    /// One open-loop slice: each connection sends its frames (given with
    /// their rate and latency limit) on its own fixed-rate schedule, the
    /// second staggered half an interval.
    fn open_slice<'p>(
        &mut self,
        slice: impl Fn(usize) -> (&'p [Batch], f64, f64),
        origin: Instant,
        logs: &mut [TenantLog],
    ) {
        let start_ns = origin.elapsed().as_nanos() as u64 + LEAD_NS;
        std::thread::scope(|scope| {
            for (t, (client, log)) in self.clients.iter_mut().zip(logs.iter_mut()).enumerate() {
                let (frames, rate, limit_ms) = slice(t);
                scope.spawn(move || {
                    let schedule = Schedule::at_rate(rate, 0);
                    let schedule = Schedule {
                        offset_ns: start_ns + t as u64 * schedule.interval_ns / 2,
                        ..schedule
                    };
                    open_loop(client, frames, schedule, limit_ms, origin, log);
                });
            }
        });
    }

    /// One closed-loop slice: a fixed frame count per connection, one
    /// frame outstanding, the main thread reading the clocks beside
    /// them. Returns the part of the slice in which both connections
    /// were issuing ([`stats::active_part`]).
    fn closed_slice(
        &mut self,
        plan: &Plan,
        round: usize,
        seconds: f64,
        origin: Instant,
        logs: &mut [TenantLog],
    ) -> Interval {
        let ops_done = AtomicU64::new(0);
        let barrier = Barrier::new(TENANTS + 1);
        // When each connection drained, ns since the run started.
        let finished: Vec<AtomicU64> = (0..TENANTS).map(|_| AtomicU64::new(0)).collect();
        let cap =
            Duration::from_secs_f64(seconds * CLOSED_SHARE / ROUNDS as f64 * CLOSED_CAP + 1.0);
        let readings = std::thread::scope(|scope| {
            for (t, (client, log)) in self.clients.iter_mut().zip(logs.iter_mut()).enumerate() {
                let frames = &plan.tenants[t].closed[round];
                let (ops_done, barrier, finished) = (&ops_done, &barrier, &finished[t]);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for (i, batch) in frames.iter().enumerate() {
                        let n = batch.requests.len() as u64;
                        log.attempted += n;
                        if start.elapsed() > cap {
                            let left: u64 = frames[i + 1..]
                                .iter()
                                .map(|b| b.requests.len() as u64)
                                .sum();
                            log.attempted += left;
                            log.failed += n + left;
                            log.note(format!(
                                "closed-loop slice {round} hit its {cap:?} cap at frame {i}"
                            ));
                            break;
                        }
                        exec(client, batch, log);
                        ops_done.fetch_add(n, Ordering::SeqCst);
                    }
                    finished.store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
                });
            }
            barrier.wait();
            watch(origin, &finished, &ops_done)
        });
        let active_until_ns = finished
            .iter()
            .map(|f| f.load(Ordering::SeqCst))
            .min()
            .unwrap_or(0);
        stats::active_part(&readings, active_until_ns).expect("the slice was watched")
    }
}
