//! The verify phase: demonstrate compliance after the run, and check the
//! program's outputs.
//!
//! `verify_s` times what a controller would have to do to *show* a
//! regulator the run was compliant — audit-chain verification, the
//! compliance report, and the forensic residual scan, on every shard.
//! The remaining output checks (erased rows are gone, kept rows are
//! still there) are the harness's own and are not timed.

use std::time::Instant;

use datacase_core::regulation::Regulation;
use datacase_core::tenant::TenantId;
use datacase_core::unit::ErasureStatus;
use datacase_engine::frontend::Frontend;
use datacase_engine::space::SpaceReport;
use datacase_sim::MeterSnapshot;
use datacase_storage::backend::BackendStats;

use crate::workloads::Plan;

/// One named output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Did it hold?
    pub ok: bool,
    /// The observed value, for the report.
    pub detail: String,
}

/// Timings and checks of the verify phase.
#[derive(Clone, Debug, Default)]
pub struct Verified {
    /// Chain verification + compliance report + residual scan + the
    /// erased-key checks, seconds (per-shard steps as median x shards).
    pub verify_s: f64,
    /// `Forensic::verify_chain` over all shards, ms.
    pub chain_ms: f64,
    /// `compliance_report(&Regulation::gdpr())` over all shards, ms.
    pub compliance_ms: f64,
    /// Invariant violations found, all shards.
    pub violations: usize,
    /// Every output check.
    pub checks: Vec<Check>,
}

/// Counter totals over all shards at one point of an instance's life.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Work meters, merged over shards.
    pub meter: MeterSnapshot,
    /// Sum of the shards' policy epochs.
    pub policy_epochs: u64,
    /// Simulated nanoseconds per shard.
    pub sim_ns: [u64; crate::workloads::SHARDS],
}

impl Counters {
    /// Read the counters off the per-shard frontends.
    pub fn collect(frontends: &[Frontend]) -> Counters {
        let mut out = Counters::default();
        for (shard, fe) in frontends.iter().enumerate() {
            out.meter = out.meter.merge(&fe.meter().snapshot());
            out.policy_epochs += fe.policy_epoch().0;
            out.sim_ns[shard] = fe.clock().now().0;
        }
        out
    }
}

/// Space totals over all shards (Table 2's buckets).
#[derive(Clone, Copy, Debug, Default)]
pub struct Space {
    /// Σ `SpaceReport::total_bytes`.
    pub total_bytes: u64,
    /// Σ live personal-data bytes.
    pub personal_bytes: u64,
    /// Σ policy metadata bytes.
    pub policy_bytes: u64,
    /// Backend statistics summed over shards.
    pub backend: BackendStats,
}

impl Space {
    /// Measure every shard.
    pub fn measure(frontends: &[Frontend]) -> Space {
        let mut out = Space::default();
        for fe in frontends {
            let report = SpaceReport::measure(fe);
            out.total_bytes += report.total_bytes();
            out.personal_bytes += report.personal_bytes;
            out.policy_bytes += report.policy_bytes;
            let stats = fe.backend_stats();
            out.backend.live_entries += stats.live_entries;
            out.backend.dead_entries += stats.dead_entries;
            out.backend.disk_bytes += stats.disk_bytes;
        }
        out
    }

    /// Total stored bytes per live personal byte.
    pub fn factor(&self) -> f64 {
        self.total_bytes as f64 / self.personal_bytes as f64
    }
}

fn global(tenant: usize, key: u64) -> (usize, u64) {
    let global = TenantId(tenant as u32 + 1)
        .global_key(key)
        .expect("plan keys fit the tenant block");
    ((global % crate::workloads::SHARDS as u64) as usize, global)
}

/// Run `step` on every shard; return its results and the step's cost
/// over all shards taken as *median shard time x shards*. The shards are
/// near-equal slices of one table, so their times are repeated
/// measurements of one quantity, and the median keeps a pause of the box
/// that lands on one shard out of the total.
fn per_shard<T>(
    frontends: &mut [Frontend],
    mut step: impl FnMut(&mut Frontend) -> T,
) -> (Vec<T>, f64) {
    let mut secs = Vec::with_capacity(frontends.len());
    let results = frontends
        .iter_mut()
        .map(|fe| {
            let started = Instant::now();
            let result = step(fe);
            secs.push(started.elapsed().as_secs_f64());
            result
        })
        .collect();
    let median = crate::stats::median(&secs).unwrap_or(0.0);
    (results, median * frontends.len() as f64)
}

/// Run the verify phase over the shut-down instance's frontends.
pub fn verify(plan: &Plan, frontends: &mut [Frontend], shed: u64) -> Verified {
    let mut out = Verified::default();

    // 1. Every shard's audit chain verifies.
    let (chains, chain_s) = per_shard(frontends, |fe| fe.forensic().verify_chain());
    let chains_ok = chains.iter().filter(|ok| **ok).count();
    out.chain_ms = chain_s * 1e3;
    out.checks.push(Check {
        name: "audit chain verifies on every shard",
        ok: chains_ok == frontends.len(),
        detail: format!("{chains_ok}/{} shards", frontends.len()),
    });

    // 2. The compliance report finds no violation.
    let regulation = Regulation::gdpr();
    let (reports, compliance_s) = per_shard(frontends, |fe| fe.compliance_report(&regulation));
    out.compliance_ms = compliance_s * 1e3;
    out.violations = reports.iter().map(|r| r.violations.len()).sum();
    let first = reports.iter().find_map(|r| r.violations.first());
    out.checks.push(Check {
        name: "core.violations == 0",
        ok: out.violations == 0,
        detail: match first {
            Some(v) => format!("{} violations, e.g. {}", out.violations, v.message),
            None => "0 violations".into(),
        },
    });

    // 3. No persistent layer of any shard — pages, WAL, runs, drive
    //    remanence, audit log — still holds a byte of an erased row.
    //    Every row the plan erases carries the forget marker, so one scan
    //    per shard covers them all (and any future cache or log that
    //    keeps plaintext).
    let (hits, scan_s) = per_shard(frontends, |fe| {
        fe.forensic().scan(&plan.forget_needle).total()
    });
    let residuals: usize = hits.iter().sum();
    out.checks.push(Check {
        name: "forensic scan finds no residual of an erased row",
        ok: residuals == 0,
        detail: format!("{residuals} residual hits"),
    });

    // 4. Every erased key is physically gone and permanently deleted in
    //    the model.
    let started = Instant::now();
    let (mut erased, mut readable, mut wrong_status) = (0usize, 0usize, 0usize);
    for (t, tenant) in plan.tenants.iter().enumerate() {
        for &key in &tenant.erased {
            let (shard, global) = global(t, key);
            let fe = &mut frontends[shard];
            erased += 1;
            if fe.forensic().raw_read(global, true).is_some() {
                readable += 1;
            }
            let status = fe
                .unit_of_key(global)
                .and_then(|unit| fe.state().unit(unit))
                .map(|unit| unit.erasure);
            if !matches!(status, Some(ErasureStatus::PermanentlyDeleted { .. })) {
                wrong_status += 1;
            }
        }
    }
    out.verify_s = chain_s + compliance_s + scan_s + started.elapsed().as_secs_f64();
    out.checks.push(Check {
        name: "erased keys are unreadable, hidden versions included",
        ok: readable == 0,
        detail: format!("{readable} of {erased} still readable"),
    });
    out.checks.push(Check {
        name: "erased units are PermanentlyDeleted",
        ok: wrong_status == 0,
        detail: format!("{wrong_status} of {erased} in another state"),
    });

    // 5. (Untimed.) Nobody lost a row they did not give up: every key the
    //    oracle's model holds live is still on its shard. In
    //    `erasure_storm` this is tenant B surviving tenant A's storm.
    let (mut kept, mut lost) = (0usize, 0usize);
    for (t, tenant) in plan.tenants.iter().enumerate() {
        for &key in &tenant.survivors {
            let (shard, global) = global(t, key);
            kept += 1;
            if frontends[shard]
                .forensic()
                .raw_read(global, false)
                .is_none()
            {
                lost += 1;
            }
        }
    }
    out.checks.push(Check {
        name: "no live row was lost",
        ok: lost == 0,
        detail: format!("{lost} of {kept} missing"),
    });
    out.checks.push(Check {
        name: "server.gateway.shed_count == 0",
        ok: shed == 0,
        detail: format!("{shed} overloaded refusals"),
    });
    out
}
