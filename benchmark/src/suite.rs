//! One workload run (the unit the result contract is about), and the
//! multi-run commands built on it: `run`, `trace`, `selftest`.

use std::process::{Command, ExitCode, Stdio};

use datacase_core::tenant::TenantId;
use datacase_engine::frontend::Request;
use datacase_storage::page::PAGE_SIZE;

use crate::json::Json;
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::run::{self, TICK_US};
use crate::stats;
use crate::verify::{self, Check, Counters, Space};
use crate::workloads::{Plan, Spec, SHARDS, SPECS};
use crate::{env, trace};

/// `run_seconds` of `BENCHMARK.json`: the suite's default `--seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Default seed of `run`, `trace` and `selftest`.
pub const DEFAULT_SEED: u64 = 7;
/// Every run sets up this many times: `setup_s` is the median, and a
/// set-up after the measured one gives the counter baseline. Five,
/// because the set-up right after the measured instance is torn down is
/// always the slowest (the allocator is handing back over a gigabyte),
/// and the median should not rest on the two beside it alone.
const SETUPS: usize = 5;

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// The workload.
    pub spec: &'static Spec,
    /// Stream seed.
    pub seed: u64,
    /// Measured seconds the frozen rates are multiplied by.
    pub seconds: f64,
    /// Emit the per-layer metrics (and run the traced ladder).
    pub trace: bool,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn max_over_mean(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        values.iter().copied().fold(0.0, f64::max) / mean
    }
}

/// Measured-phase requests per shard, from the plan alone.
fn shard_ops(plan: &Plan) -> [f64; SHARDS] {
    let mut out = [0.0; SHARDS];
    for (t, tenant) in plan.tenants.iter().enumerate() {
        let id = TenantId(t as u32 + 1);
        for batch in tenant.measured() {
            for key in batch.requests.iter().filter_map(Request::key) {
                let global = id.global_key(key).expect("plan keys fit the tenant block");
                out[(global % SHARDS as u64) as usize] += 1.0;
            }
        }
    }
    out
}

/// Payload bytes the plan writes over the instance's whole life.
fn user_bytes_written(plan: &Plan) -> u64 {
    plan.tenants
        .iter()
        .flat_map(|t| {
            t.load.iter().chain(
                t.warmup
                    .iter()
                    .chain(t.measured())
                    .flat_map(|b| &b.requests),
            )
        })
        .map(|r| match r {
            Request::Create { payload, .. } | Request::Update { payload, .. } => {
                payload.len() as u64
            }
            _ => 0,
        })
        .sum()
}

fn report(checks: &[Check]) -> Vec<Json> {
    checks
        .iter()
        .map(|c| {
            Json::obj()
                .set("name", c.name)
                .set("ok", c.ok)
                .set("detail", c.detail.as_str())
        })
        .collect()
}

/// Run one workload in this process and print its detail line followed
/// by the result line. Exit code 0 iff every output check held.
pub fn single(args: RunArgs) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    assert!(
        nproc >= 2,
        "the generator needs 2 cores (2 threads over 2 connections); found {nproc}"
    );
    let spec = args.spec;
    let plan = Plan::generate(spec, args.seed, args.seconds);
    let stream_hash = plan.stream_hash();
    let calib_before = env::calibrate();

    // The measured instance is set up first, in a process that has held
    // nothing else, so `peak_rss_mb` is one instance's peak. The further
    // set-ups come after it; load and warm-up are deterministic, so the
    // counters of one of them are the baseline of the measured phases'
    // deltas.
    let (instance, first_setup_s) = run::setup(&plan);
    let mut setups_s = vec![first_setup_s];
    let run::RunOutput {
        logs,
        closed,
        steal_ticks,
        mut frontends,
    } = instance.run(&plan, args.seconds);
    let logs = &logs;
    let shed: u64 = logs.iter().map(|l| l.shed).sum();
    let verified = verify::verify(&plan, &mut frontends, shed);
    let space = Space::measure(&frontends);
    let total = Counters::collect(&frontends);
    drop(frontends);
    let peak_rss_mb = run::peak_rss_mb();
    let mut baseline = Counters::default();
    for _ in 1..SETUPS {
        let (fresh, secs) = run::setup(&plan);
        setups_s.push(secs);
        baseline = Counters::collect(&fresh.into_frontends());
    }
    let calib_after = env::calibrate();

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let over_limit: u64 = logs.iter().map(|l| l.over_limit).sum();
    let mismatches: u64 = logs.iter().map(|l| l.mismatches).sum();
    let batch_ms = stats::sorted(logs.iter().flat_map(|l| l.batch_ms.clone()).collect());
    let erase_ms = stats::sorted(logs.iter().flat_map(|l| l.erase_ms.clone()).collect());
    let lag_ms = stats::sorted(logs.iter().flat_map(|l| l.lag_ms.clone()).collect());
    let mut checks: Vec<Check> = verified.checks.clone();
    checks.push(Check {
        name: "every reply matches the oracle",
        ok: mismatches == 0,
        detail: format!("{mismatches} mismatches"),
    });

    let pick = |sample: &[f64], p: f64| {
        stats::percentile(sample, p)
            .or_else(|| stats::nearest_rank(sample, p))
            .unwrap_or(0.0)
    };
    let rates = stats::median_rates(&closed, TICK_US).expect("closed-loop slices ran");
    let erase_p50_ms = pick(&erase_ms, 0.5);

    let mut values = Values::new();
    let mut traced_spans = None;
    let mut advisories = Vec::new();
    if args.trace {
        let ops = plan.measured_ops();
        let delta = total.meter.diff(&baseline.meter);
        let sim: Vec<f64> = total
            .sim_ns
            .iter()
            .zip(baseline.sim_ns)
            .map(|(after, before)| (after - before) as f64)
            .collect();
        let frames: u64 = logs.iter().map(|l| l.frames).sum();
        let touched: u64 = logs.iter().map(|l| l.shards_touched).sum();
        values.insert(
            "workloads.gen_lag_p99_ms",
            stats::nearest_rank(&lag_ms, 0.99).unwrap_or(0.0),
        );
        values.insert("env.calib_ms", (calib_before + calib_after) / 2.0);
        values.insert(
            "server.batch_p99_ms",
            stats::percentile(&batch_ms, 0.99).unwrap_or(0.0),
        );
        values.insert("server.erase_p50_ms", erase_p50_ms);
        values.insert(
            "server.erase_p99_ms",
            stats::percentile(&erase_ms, 0.99).unwrap_or(0.0),
        );
        values.insert("server.over_limit_ops", over_limit as f64);
        values.insert("server.throughput_kops", rates.ops_per_s / 1e3);
        values.insert("server.cpu_us_per_op", rates.cpu_us_per_op);
        values.insert("server.verify_s", verified.verify_s);
        values.insert("server.gateway.shed_count", shed as f64);
        values.insert("engine.concurrent.shards_per_batch", ratio(touched, frames));
        values.insert(
            "engine.concurrent.shard_ops_max_over_mean",
            max_over_mean(&shard_ops(&plan)),
        );
        values.insert(
            "engine.concurrent.shard_sim_max_over_mean",
            max_over_mean(&sim),
        );
        values.insert(
            "engine.frontend.sim_us_per_op",
            sim.iter().sum::<f64>() / ops as f64 / 1e3,
        );
        values.insert(
            "engine.frontend.error_replies",
            logs.iter().map(|l| l.error_replies).sum::<u64>() as f64,
        );
        values.insert("policy.checks_per_op", ratio(delta.policy_checks, ops));
        values.insert(
            "policy.epoch_bumps",
            (total.policy_epochs - baseline.policy_epochs) as f64,
        );
        values.insert("policy.metadata_bytes", space.policy_bytes as f64);
        values.insert("audit.records_per_op", ratio(delta.log_records, ops));
        values.insert("audit.bytes_per_op", ratio(delta.log_bytes, ops));
        values.insert("audit.verify_ms", verified.chain_ms);
        values.insert("crypto.bytes_per_op", ratio(delta.crypto_bytes, ops));
        values.insert(
            "storage.buffer_hit_ratio",
            ratio(
                delta.pages_read_cached,
                delta.pages_read_cached + delta.pages_read_disk,
            ),
        );
        values.insert(
            "storage.pages_written_per_op",
            ratio(delta.pages_written, ops),
        );
        values.insert("storage.wal_records_per_op", ratio(delta.wal_records, ops));
        values.insert(
            "storage.write_amp",
            ratio(
                total.meter.pages_written * PAGE_SIZE as u64 + total.meter.compaction_bytes,
                user_bytes_written(&plan),
            ),
        );
        values.insert("storage.dead_entries", space.backend.dead_entries as f64);
        values.insert("storage.disk_bytes", space.backend.disk_bytes as f64);
        values.insert("core.compliance_report_ms", verified.compliance_ms);
        values.insert("core.violations", verified.violations as f64);
        let traced = trace::trace(&plan);
        values.extend(traced.values);
        checks.extend(traced.checks);
        advisories = traced.advisories;
        traced_spans = Some(traced.spans_path.display().to_string());
    } else {
        values.insert("setup_s", stats::median(&setups_s).expect("set-ups ran"));
        values.insert("batch_p50_ms", pick(&batch_ms, 0.5));
        values.insert("space_factor", space.factor());
        values.insert("peak_rss_mb", peak_rss_mb);
    }

    let correct = checks.iter().all(|c| c.ok);
    let notes: Vec<Json> = logs
        .iter()
        .flat_map(|l| &l.notes)
        .map(|n| Json::from(n.as_str()))
        .collect();
    let mut detail = Json::obj()
        .set("workload", spec.name)
        .set("trace", args.trace)
        .set("seconds", args.seconds)
        .set("frozen", spec.frozen())
        .set(
            "env",
            env::block(
                args.seed,
                &stream_hash,
                calib_before,
                calib_after,
                steal_ticks,
            ),
        )
        .set("ops_attempted", attempted)
        .set("ops_failed", failed)
        .set("ops_over_limit", over_limit)
        .set(
            "setup_s_each",
            setups_s.iter().map(|s| Json::Num(*s)).collect::<Vec<_>>(),
        )
        .set(
            "closed_loop",
            Json::obj()
                .set("throughput_kops", rates.ops_per_s / 1e3)
                .set("cpu_us_per_op", rates.cpu_us_per_op)
                .set(
                    "kops_each_round",
                    closed
                        .iter()
                        .map(|r| Json::Num(r.ops as f64 / (r.len_ns as f64 / 1e6)))
                        .collect::<Vec<_>>(),
                ),
        )
        .set(
            "samples",
            Json::obj()
                .set("batch", batch_ms.len())
                .set("batch_p99_supported", stats::supports(batch_ms.len(), 0.99))
                .set("erase", erase_ms.len())
                .set("erase_p50_ms", erase_p50_ms)
                .set("erase_p50_supported", stats::supports(erase_ms.len(), 0.5))
                .set("erase_p99_supported", stats::supports(erase_ms.len(), 0.99))
                .set("batch_max_ms", batch_ms.last().copied().unwrap_or(0.0))
                .set("erase_max_ms", erase_ms.last().copied().unwrap_or(0.0))
                .set("gen_lag_max_ms", lag_ms.last().copied().unwrap_or(0.0)),
        )
        .set("checks", report(&checks))
        .set("advisories", report(&advisories))
        .set("notes", notes);
    if let Some(path) = traced_spans {
        detail = detail.set("spans", path);
    }
    println!("{detail}");
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics::render(registry, &values));
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Options shared by `run`, `trace` and `selftest`.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Restrict to one workload.
    pub workload: Option<&'static Spec>,
    /// Stream seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
}

/// One child run's two output lines.
struct Child {
    detail: Json,
    result: Json,
    ok: bool,
}

/// Run one workload in a child process of its own (clean `peak_rss_mb`,
/// no state shared between workloads).
fn child(spec: &Spec, args: &SuiteArgs, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let detail = lines.next().and_then(|l| Json::parse(l).ok());
    let ok = out.status.success()
        && result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            == Some(true);
    Child {
        detail: detail.unwrap_or(Json::Null),
        result: result.unwrap_or(Json::Null),
        ok,
    }
}

fn selected(args: &SuiteArgs) -> Vec<&'static Spec> {
    match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    }
}

/// `run` / `trace`: every workload in its own child, one JSON document.
pub fn suite(args: &SuiteArgs, trace: bool) -> ExitCode {
    let mut all_ok = true;
    let mut workloads = Json::obj();
    for spec in selected(args) {
        let child = child(spec, args, trace);
        all_ok &= child.ok;
        workloads = workloads.set(
            spec.name,
            Json::obj()
                .set("result", child.result)
                .set("detail", child.detail),
        );
    }
    let doc = Json::obj()
        .set("command", if trace { "trace" } else { "run" })
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("ok", all_ok)
        .set("workloads", workloads);
    println!("{doc}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regression bounds by end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Json::Str(name)), Some(bound)) => Some((name.clone(), bound.as_f64()?)),
            _ => None,
        })
        .collect()
}

/// `selftest`: A/A — run the suite `runs` times on the same build and
/// hold each workload x end-to-end metric's relative spread to its bound.
pub fn selftest(args: &SuiteArgs, runs: usize) -> ExitCode {
    assert!(runs >= 2, "a spread needs at least two runs");
    let bounds = bounds();
    let mut all_ok = true;
    let mut rows = Vec::new();
    for spec in selected(args) {
        let children: Vec<Child> = (0..runs).map(|_| child(spec, args, false)).collect();
        all_ok &= children.iter().all(|c| c.ok);
        for (name, bound) in &bounds {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.result.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            // Quartiles need a handful of runs; below that, the range.
            let spread = if values.len() >= 4 {
                stats::relative_spread(&values)
            } else {
                stats::median(&values).filter(|m| *m != 0.0).map(|m| {
                    let hi = values.iter().copied().fold(f64::MIN, f64::max);
                    let lo = values.iter().copied().fold(f64::MAX, f64::min);
                    (hi - lo) / m
                })
            };
            let pass = values.len() == runs && spread.is_some_and(|s| s <= *bound);
            all_ok &= pass;
            rows.push(
                Json::obj()
                    .set("workload", spec.name)
                    .set("metric", name.as_str())
                    .set("median", stats::median(&values).unwrap_or(f64::NAN))
                    .set("spread", spread.unwrap_or(f64::NAN))
                    .set("bound", *bound)
                    .set("verdict", if pass { "PASS" } else { "FAIL" }),
            );
        }
    }
    let doc = Json::obj()
        .set("command", "selftest")
        .set("runs", runs)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("ok", all_ok)
        .set("rows", rows);
    println!("{doc}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
