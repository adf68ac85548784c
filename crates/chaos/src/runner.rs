//! The chaos runner: executes compiled traces against a real engine,
//! crashes it at armed [`CrashPoint`]s, salvages the durable storage
//! state, rebuilds, and holds the recovered engine to the oracle.
//!
//! ## Recovery model
//!
//! A "crash" is a [`CrashSignal`] panic fired by the engine's fault
//! plane at a named crash point; the runner catches it with
//! `catch_unwind`. What survives is exactly what the storage substrate
//! declares durable — the heap's WAL or the LSM's committed run
//! manifest, salvaged as a [`DurableSnapshot`] from the wreck. The
//! runner then:
//!
//! 1. **Verifies storage-level recovery** — [`recover_backend`] is run
//!    twice over the salvaged snapshot and both recoveries must read back
//!    the same bytes for every key the trace writes, hidden versions
//!    included (recovery is deterministic), and
//!    data permanently erased *before* the crash must stay erased in
//!    the recovered substrate: no erased key reads back and no erased
//!    subject's needle scans.
//! 2. **Rebuilds the engine by deterministic replay** — engine-level
//!    state (policies, history, audit chain) is reconstructed by
//!    replaying the recorded trace prefix on a fresh engine, re-doing
//!    the interrupted operation, and continuing. Replayed replies must
//!    match the replies observed before the crash — the determinism
//!    that makes replay a sound recovery procedure.
//! 3. **Asserts the oracle** — the recovered run's replies, meter
//!    counters, audit-chain head bytes, forensic residuals, and all
//!    invariant-catalog outcomes must be indistinguishable from a
//!    serial run that never crashed, and no erased unit keeps its key.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

use datacase_core::checker::ComplianceReport;
use datacase_core::regulation::Regulation;
use datacase_engine::frontend::{Frontend, Response};
use datacase_engine::profiles::EngineConfig;
use datacase_engine::space::SpaceReport;
use datacase_sim::fault::{CrashPoint, CrashSignal, FaultInjector, CRASH_POINTS};
use datacase_sim::{Meter, MeterSnapshot, SimClock};
use datacase_storage::backend::{recover_backend, BackendKind, DurableSnapshot};

use crate::scenario::{CompiledScenario, TraceOp};

/// Install (once) a panic hook that stays silent for [`CrashSignal`]
/// panics — they are the harness's control flow, not failures — and
/// delegates everything else to the previous hook.
pub fn quiet_crash_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The engine configuration every chaos run uses: the strictest paper
/// profile (P_SYS — tuple encryption, so `destroy-key` is reachable;
/// log redaction on erase) over the chosen substrate, with an LSM tuned
/// small enough that scenarios actually flush and compact.
pub fn chaos_config(kind: BackendKind) -> EngineConfig {
    let mut config = EngineConfig::p_sys().with_backend(kind);
    config.lsm.memtable_bytes = 2 * 1024;
    config.lsm.runs_per_level = 2;
    config
}

/// Everything the oracle compares: the observable outcome of a
/// completed run.
#[derive(Clone)]
pub struct RunOutcome {
    /// Replies per trace op (empty for advances).
    pub replies: Vec<Vec<Response>>,
    /// Final audit-chain head MAC.
    pub chain_head: [u8; 32],
    /// Bytes the audit log retains: where a redaction shows, since it
    /// leaves the head as it was.
    pub log_bytes: u64,
    /// Did the tamper-evidence chain verify?
    pub chain_ok: bool,
    /// Final meter snapshot.
    pub meter: MeterSnapshot,
    /// Residual count per erased-subject needle (must be all zero).
    pub residuals: Vec<usize>,
    /// Permanently erased units that keep a live tuple key (must be 0).
    pub(crate) live_keys: usize,
    /// The invariant catalog's verdict.
    pub report: ComplianceReport,
}

/// Apply one trace op to a live engine.
fn apply_op(fe: &mut Frontend, op: &TraceOp) -> Vec<Response> {
    match op {
        TraceOp::Submit { session, batch } => fe.submit(session, batch),
        TraceOp::Advance { to } => {
            fe.advance_to(*to);
            Vec::new()
        }
    }
}

/// Collect a finished engine's observable outcome.
fn observe(fe: &mut Frontend, compiled: &CompiledScenario) -> RunOutcome {
    let report = fe.compliance_report(&Regulation::gdpr());
    let log_bytes = SpaceReport::measure(fe).log_bytes;
    let live_keys = compiled
        .erased_needles
        .iter()
        .flat_map(|&(_, op)| compiled.erased_keys(op))
        .filter(|&key| {
            fe.unit_of_key(key)
                .is_some_and(|u| fe.forensic().key_is_live(u))
        })
        .count();
    let mut forensic = fe.forensic();
    let residuals = compiled
        .erased_needles
        .iter()
        .map(|(needle, _)| forensic.scan(needle).total())
        .collect();
    RunOutcome {
        chain_head: forensic.chain_head(),
        log_bytes,
        chain_ok: forensic.verify_chain(),
        meter: fe.meter().snapshot(),
        replies: Vec::new(),
        residuals,
        live_keys,
        report,
    }
}

/// Run the whole trace with no faults armed: the oracle every crashed
/// run is compared against.
pub fn run_serial(kind: BackendKind, compiled: &CompiledScenario) -> RunOutcome {
    let mut fe = Frontend::new(chaos_config(kind));
    let mut replies = Vec::with_capacity(compiled.ops.len());
    for op in &compiled.ops {
        replies.push(apply_op(&mut fe, op));
    }
    let mut outcome = observe(&mut fe, compiled);
    outcome.replies = replies;
    outcome
}

/// Run the trace with a counting (never-firing) injector and report how
/// often each crash point was reached — the per-scenario map used to
/// enumerate every *reachable* named stage for the crash matrix.
pub fn discover_hits(kind: BackendKind, compiled: &CompiledScenario) -> [u64; CRASH_POINTS] {
    let fault = FaultInjector::counting();
    let mut fe = Frontend::new(chaos_config(kind).with_fault(fault.clone()));
    for op in &compiled.ops {
        apply_op(&mut fe, op);
    }
    // Read the counts before any forensic scan: scans checkpoint, which
    // would add hits the armed run (which scans only after recovery)
    // never sees.
    fault.counts()
}

/// The record of one crash-and-recover run.
pub struct CrashRun {
    /// Where the crash was armed.
    pub point: CrashPoint,
    /// Which occurrence fired (1-based).
    pub hit: u64,
    /// Index of the trace op the crash interrupted.
    pub crashed_at: usize,
    /// Deterministic event trace (byte-identical across reruns of the
    /// same `(seed, scenario, crash point, hit)`).
    pub events: Vec<String>,
    /// The recovered engine's final outcome.
    pub outcome: RunOutcome,
}

/// Crash the scenario at the `nth` occurrence of `point`, salvage,
/// recover, and return the recovered run. Errors describe any breach of
/// the recovery groundings.
pub fn run_with_crash(
    kind: BackendKind,
    compiled: &CompiledScenario,
    point: CrashPoint,
    nth: u64,
) -> Result<CrashRun, String> {
    quiet_crash_panics();
    let fault = FaultInjector::armed(point, nth);
    let mut fe = Frontend::new(chaos_config(kind).with_fault(fault.clone()));
    let mut events = Vec::new();
    events.push(format!(
        "run scenario={} seed={} backend={kind:?} crash={}#{nth}",
        compiled.name,
        compiled.seed,
        point.name()
    ));

    // Phase 1: execute until the armed crash fires.
    let mut observed: Vec<Vec<Response>> = Vec::new();
    let mut crashed_at = None;
    for (i, op) in compiled.ops.iter().enumerate() {
        match panic::catch_unwind(AssertUnwindSafe(|| apply_op(&mut fe, op))) {
            Ok(replies) => observed.push(replies),
            Err(payload) => {
                let signal = payload
                    .downcast::<CrashSignal>()
                    .map_err(|other| panic::resume_unwind(other))
                    .expect("armed runs only panic with CrashSignal");
                events.push(format!(
                    "crash op[{i}]={} point={} hit={}",
                    op.label(),
                    signal.point.name(),
                    signal.hit
                ));
                crashed_at = Some(i);
                break;
            }
        }
    }
    let Some(crashed_at) = crashed_at else {
        return Err(format!(
            "crash point {}#{nth} never fired on {kind:?} for scenario {}",
            point.name(),
            compiled.name
        ));
    };

    // Phase 2: salvage what the substrate declares durable and verify
    // storage-level recovery over it.
    let snapshot = fe.forensic().durable_snapshot();
    match &snapshot {
        DurableSnapshot::Heap(records) => {
            events.push(format!("salvage heap wal-records={}", records.len()))
        }
        DurableSnapshot::Lsm(manifest) => events.push(format!(
            "salvage lsm runs={} seq={}",
            manifest.runs(),
            manifest.seq
        )),
    }
    drop(fe); // The wreck is gone; only the snapshot survives.
    verify_storage_recovery(&snapshot, compiled, crashed_at, &mut events)?;

    // Phase 3: rebuild a fresh engine by deterministic replay of the
    // committed prefix, then redo the interrupted op and continue.
    let mut recovered = Frontend::new(chaos_config(kind));
    let mut replies: Vec<Vec<Response>> = Vec::with_capacity(compiled.ops.len());
    for (i, op) in compiled.ops.iter().enumerate() {
        let r = apply_op(&mut recovered, op);
        if i < crashed_at && r != observed[i] {
            return Err(format!(
                "replay divergence at op[{i}] ({}): replayed replies differ \
                 from those observed before the crash",
                op.label()
            ));
        }
        replies.push(r);
    }
    events.push(format!(
        "recovered replayed={} redone=1 continued={}",
        crashed_at,
        compiled.ops.len() - crashed_at - 1
    ));

    let mut outcome = observe(&mut recovered, compiled);
    outcome.replies = replies;
    events.push(format!(
        "post-recovery chain-head={} residuals={:?}",
        hex8(&outcome.chain_head),
        outcome.residuals
    ));
    Ok(CrashRun {
        point,
        hit: nth,
        crashed_at,
        events,
        outcome,
    })
}

/// Storage-level recovery checks on a salvaged snapshot: recovery is
/// deterministic, and permanent erasures that committed before the
/// crash cannot resurrect through it.
fn verify_storage_recovery(
    snapshot: &DurableSnapshot,
    compiled: &CompiledScenario,
    crashed_at: usize,
    events: &mut Vec<String>,
) -> Result<(), String> {
    let recover = |snap: DurableSnapshot| {
        recover_backend(
            snap,
            chaos_config(BackendKind::Heap).heap,
            chaos_config(BackendKind::Lsm).lsm,
            SimClock::commodity(),
            Arc::new(Meter::new()),
        )
    };
    let mut a = recover(snapshot.clone());
    let mut b = recover(snapshot.clone());
    // Key by key, on the stored bytes: under P_SYS they are ciphertext,
    // which no plaintext needle would tell apart.
    for key in compiled.written_keys() {
        let (ra, rb) = (a.read(key, true), b.read(key, true));
        if ra != rb {
            let shown =
                |r: Option<Vec<u8>>| r.map_or("nothing".into(), |v| format!("{} B", v.len()));
            return Err(format!(
                "storage recovery is nondeterministic: key {key} reads back different bytes \
                 ({} vs {})",
                shown(ra),
                shown(rb)
            ));
        }
    }
    let (sa, sb) = (a.stats(), b.stats());
    if sa.live_entries != sb.live_entries || sa.dead_entries != sb.dead_entries {
        return Err(format!(
            "storage recovery is nondeterministic: stats {sa:?} vs {sb:?}"
        ));
    }
    // Erasures fully committed before the crash must hold in the
    // recovered substrate (the interrupted op itself is redone later).
    for (needle, op_idx) in compiled
        .erased_needles
        .iter()
        .filter(|(_, op)| *op < crashed_at)
    {
        let n = a.scan_physical(needle).total();
        if n != 0 {
            return Err(format!(
                "resurrection: needle {:?} (erase committed at op[{op_idx}], \
                 crash at op[{crashed_at}]) scans {n} in the recovered substrate",
                String::from_utf8_lossy(needle)
            ));
        }
        // Ciphertext matches no needle: the keys must not read back.
        if let Some(key) = compiled
            .erased_keys(*op_idx)
            .find(|&key| a.read(key, true).is_some())
        {
            return Err(format!(
                "resurrection: key {key} (erase committed at op[{op_idx}], \
                 crash at op[{crashed_at}]) reads back from the recovered substrate"
            ));
        }
    }
    events.push(format!(
        "storage-recovery deterministic live={} dead={}",
        sa.live_entries, sa.dead_entries
    ));
    Ok(())
}

/// First eight bytes of a digest, hex-encoded (event-trace labels).
pub fn hex8(digest: &[u8; 32]) -> String {
    digest[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// Compare a recovered run to the oracle. Returns the list of breached
/// groundings (empty = indistinguishable).
pub fn compare(recovered: &RunOutcome, oracle: &RunOutcome) -> Vec<String> {
    let mut breaches = Vec::new();
    if recovered.replies != oracle.replies {
        let at = recovered
            .replies
            .iter()
            .zip(&oracle.replies)
            .position(|(a, b)| a != b);
        breaches.push(format!("replies diverge from serial run at op {at:?}"));
    }
    if recovered.chain_head != oracle.chain_head {
        breaches.push(format!(
            "audit chain head {} != serial {}",
            hex8(&recovered.chain_head),
            hex8(&oracle.chain_head)
        ));
    }
    if recovered.log_bytes != oracle.log_bytes {
        breaches.push(format!(
            "audit log retains {} B != serial {} B",
            recovered.log_bytes, oracle.log_bytes
        ));
    }
    if !recovered.chain_ok {
        breaches.push("audit chain fails verification after recovery".into());
    }
    if recovered.meter != oracle.meter {
        breaches.push("meter counters diverge from serial run".into());
    }
    for (i, &n) in recovered.residuals.iter().enumerate() {
        if n != 0 {
            breaches.push(format!(
                "forensic residuals: erased needle #{i} scans {n} after recovery"
            ));
        }
    }
    if recovered.live_keys != 0 {
        breaches.push(format!(
            "{} permanently erased units keep a live key",
            recovered.live_keys
        ));
    }
    if !recovered.report.is_compliant() {
        breaches.push(format!(
            "invariant catalog reports violations after recovery: {:?}",
            recovered.report.violations
        ));
    }
    if recovered.report.outcomes.len() != oracle.report.outcomes.len() {
        breaches.push("invariant outcome counts diverge".into());
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{compile, Scenario};

    #[test]
    fn serial_run_is_clean_on_both_backends() {
        for kind in BackendKind::ALL {
            let compiled = compile(11, &Scenario::quick());
            let out = run_serial(kind, &compiled);
            assert!(out.chain_ok, "{kind:?}");
            assert!(
                out.report.is_compliant(),
                "{kind:?}: {:?}",
                out.report.violations
            );
            assert!(
                out.residuals.iter().all(|&n| n == 0),
                "{kind:?}: {:?}",
                out.residuals
            );
            assert_eq!(out.live_keys, 0, "{kind:?}");
        }
    }

    /// G17 with zero grace, on the retention scenario's serial run on
    /// both backends: after every trace op, every personal unit whose
    /// erase deadline has come is deleted or beyond. A clock advance
    /// alone keeps retention.
    #[test]
    fn retention_scenario_erases_every_unit_by_its_deadline() {
        use datacase_core::grounding::erasure::ErasureInterpretation::Deleted;
        let compiled = compile(9, &Scenario::retention());
        for kind in BackendKind::ALL {
            let mut fe = Frontend::new(chaos_config(kind));
            let mut expired = 0;
            for op in &compiled.ops {
                apply_op(&mut fe, op);
                let now = fe.clock().now();
                expired = 0;
                for unit in fe.state().units().filter(|u| u.is_personal()) {
                    if unit.policies.erase_deadline().is_some_and(|d| d <= now) {
                        assert!(
                            unit.erasure.satisfies(Deleted),
                            "{kind:?}: unit {:?} is {:?} after {} at {now}",
                            unit.id,
                            unit.erasure,
                            op.label()
                        );
                        expired += 1;
                    }
                }
            }
            assert_eq!(expired, 10, "{kind:?}: both horizons expired");
        }
    }

    #[test]
    fn discovery_counts_stages() {
        let compiled = compile(11, &Scenario::erase_flood());
        let heap = discover_hits(BackendKind::Heap, &compiled);
        let lsm = discover_hits(BackendKind::Lsm, &compiled);
        for hits in [&heap, &lsm] {
            for point in [
                CrashPoint::Plan,
                CrashPoint::Decide,
                CrashPoint::Apply,
                CrashPoint::Account,
            ] {
                assert!(hits[point as usize] > 0, "{point:?} unreachable");
            }
        }
        assert!(heap[CrashPoint::DestroyKey as usize] > 0);
        assert!(heap[CrashPoint::PurgeUnit as usize] > 0);
        assert!(heap[CrashPoint::WalAppend as usize] > 0);
        assert!(lsm[CrashPoint::PurgeUnit as usize] > 0);
    }

    #[test]
    fn crash_mid_destroy_key_recovers_clean() {
        let compiled = compile(11, &Scenario::erase_flood());
        for kind in BackendKind::ALL {
            let oracle = run_serial(kind, &compiled);
            let run = run_with_crash(kind, &compiled, CrashPoint::DestroyKey, 1)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let breaches = compare(&run.outcome, &oracle);
            assert!(breaches.is_empty(), "{kind:?}: {breaches:?}");
        }
    }

    #[test]
    fn retained_log_bytes_are_compared() {
        // A redaction leaves the head as it was, so a recovered run that
        // kept a payload the oracle redacted differs only here.
        let compiled = compile(11, &Scenario::erase_flood());
        let oracle = run_serial(BackendKind::Heap, &compiled);
        let mut kept = oracle.clone();
        kept.log_bytes += 1;
        let breaches = compare(&kept, &oracle);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].starts_with("audit log retains"));
    }

    #[test]
    fn unreachable_point_is_an_error_not_a_hang() {
        let compiled = compile(11, &Scenario::quick());
        // The LSM substrate never appends heap WAL records.
        let err = run_with_crash(BackendKind::Lsm, &compiled, CrashPoint::WalAppend, 1);
        assert!(err.is_err());
    }
}
