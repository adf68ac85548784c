#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-chaos
//!
//! Deterministic chaos harness for the Data-CASE reproduction: seeded
//! compliance scenarios, named crash-point injection, and recovery
//! groundings — the robustness counterpart to the paper's performance
//! figures. The regulation groundings the engine enforces (Table 1
//! erasure semantics, the invariant catalog, audit tamper-evidence) are
//! only worth their proofs if they survive crashes; this crate makes
//! that an executable property.
//!
//! Three layers:
//!
//! * **Scenario DSL** ([`scenario`]) — typed steps (erase-floods,
//!   revocation storms, retention expiry, role/tenant churn) compiled
//!   under a seed into a concrete operation trace. Every run is
//!   replayable from `(seed, scenario)` alone.
//! * **Fault plane** ([`datacase_sim::fault`]) — named crash points
//!   threaded through every layer (`plan`, `decide`, `apply`,
//!   `account`, `wal-append`, `checkpoint`, `destroy-key`,
//!   `purge-unit`, `compaction`), armed per run, zero-cost when off.
//! * **Oracle** ([`runner`]) — after a crash the engine is rebuilt from
//!   durable state and held to a serial run that never crashed:
//!   replies, meter counters, audit-chain head bytes, the audit log's
//!   retained bytes, forensic residuals, and all invariant-catalog
//!   outcomes must match.
//!
//! The headline grounding: crash **mid-erasure** (between run purge and
//! key destruction), recover, and every permanently erased subject stays
//! erased, on the heap and LSM alike. P_SYS keeps payloads only as
//! ciphertext, so its plaintext needle scans come up empty either way;
//! the evidence is keyed: no erased key reads back from the recovered
//! substrate and no erased unit keeps a live key. A scenario that erases
//! permanently must reach `purge-unit` and `destroy-key`.
//!
//! ```
//! use datacase_chaos::{matrix, MatrixOptions};
//!
//! let report = matrix(&MatrixOptions { seed: 7, quick: true });
//! assert!(report.failures.is_empty(), "{:?}", report.failures);
//! ```

pub mod runner;
pub mod scenario;

pub use runner::{
    chaos_config, compare, discover_hits, quiet_crash_panics, run_serial, run_with_crash, CrashRun,
    RunOutcome,
};
pub use scenario::{compile, CompiledScenario, Scenario, Step, TraceOp};

use datacase_sim::fault::CrashPoint;
use datacase_storage::backend::BackendKind;

/// Options for the scenario × backend × crash-point matrix.
#[derive(Clone, Copy, Debug)]
pub struct MatrixOptions {
    /// The seed every scenario is compiled under.
    pub seed: u64,
    /// Quick mode: first hit of each reachable point only; full mode
    /// also crashes at the middle and last hits.
    pub quick: bool,
}

/// One row of the matrix report: a crash survived (or not).
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Substrate the run executed on.
    pub backend: BackendKind,
    /// The armed crash point.
    pub point: CrashPoint,
    /// Which occurrence fired (1-based).
    pub hit: u64,
    /// Trace op the crash interrupted.
    pub crashed_at: usize,
    /// Did the recovered run match the oracle?
    pub ok: bool,
}

/// The matrix report: every crash run, plus human-readable failures.
#[derive(Clone, Debug, Default)]
pub struct MatrixReport {
    /// One row per crash run.
    pub rows: Vec<MatrixRow>,
    /// Descriptions of every breached grounding (empty = all held).
    pub failures: Vec<String>,
}

impl MatrixReport {
    /// Total crash runs executed.
    pub fn runs(&self) -> usize {
        self.rows.len()
    }
}

/// Run the full deterministic chaos matrix: for every built-in scenario
/// and both storage substrates, discover which crash points the run
/// reaches, crash at each, recover, and hold the recovered engine to
/// the serial oracle.
pub fn matrix(options: &MatrixOptions) -> MatrixReport {
    runner::quiet_crash_panics();
    let mut report = MatrixReport::default();
    for scenario in Scenario::all() {
        let compiled = compile(options.seed, &scenario);
        for kind in BackendKind::ALL {
            let oracle = run_serial(kind, &compiled);
            if !oracle.chain_ok || !oracle.report.is_compliant() {
                report.failures.push(format!(
                    "{}/{kind:?}: serial oracle itself is unclean: {:?}",
                    scenario.name, oracle.report.violations
                ));
                continue;
            }
            let counts = discover_hits(kind, &compiled);
            let erases = !compiled.erased_needles.is_empty();
            for point in [CrashPoint::PurgeUnit, CrashPoint::DestroyKey] {
                if erases && counts[point as usize] == 0 {
                    report.failures.push(format!(
                        "{}/{kind:?}: erases permanently but never reaches {point}",
                        scenario.name
                    ));
                }
            }
            for point in CrashPoint::ALL {
                let total = counts[point as usize];
                if total == 0 {
                    continue; // stage unreachable on this substrate/scenario
                }
                let mut hits = vec![1];
                if !options.quick {
                    for extra in [total / 2, total] {
                        if extra > 1 && !hits.contains(&extra) {
                            hits.push(extra);
                        }
                    }
                }
                for nth in hits {
                    match run_with_crash(kind, &compiled, point, nth) {
                        Ok(run) => {
                            let breaches = compare(&run.outcome, &oracle);
                            let ok = breaches.is_empty();
                            for b in breaches {
                                report.failures.push(format!(
                                    "{}/{kind:?}/{}#{nth}: {b}",
                                    scenario.name,
                                    point.name()
                                ));
                            }
                            report.rows.push(MatrixRow {
                                scenario: compiled.name,
                                backend: kind,
                                point,
                                hit: nth,
                                crashed_at: run.crashed_at,
                                ok,
                            });
                        }
                        Err(e) => report.failures.push(format!(
                            "{}/{kind:?}/{}#{nth}: {e}",
                            scenario.name,
                            point.name()
                        )),
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_every_named_stage() {
        let report = matrix(&MatrixOptions {
            seed: 42,
            quick: true,
        });
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
        // Every crash point must be exercised somewhere in the matrix.
        for point in CrashPoint::ALL {
            assert!(
                report.rows.iter().any(|r| r.point == point),
                "crash point {} never exercised",
                point.name()
            );
        }
        // The headline grounding runs on both substrates.
        for kind in BackendKind::ALL {
            assert!(report
                .rows
                .iter()
                .any(|r| r.backend == kind && r.point == CrashPoint::DestroyKey));
            assert!(report
                .rows
                .iter()
                .any(|r| r.backend == kind && r.point == CrashPoint::PurgeUnit));
        }
        // Compaction crashes are an LSM-only stage.
        assert!(report
            .rows
            .iter()
            .any(|r| r.backend == BackendKind::Lsm && r.point == CrashPoint::Compaction));
        assert!(report.rows.iter().all(|r| r.ok));
    }

    #[test]
    fn crash_runs_are_byte_identical_across_reruns() {
        // Same (seed, scenario, crash point, hit) twice → identical
        // event traces and post-recovery chain heads, on both backends.
        let compiled = compile(99, &Scenario::erase_flood());
        for kind in BackendKind::ALL {
            let a = run_with_crash(kind, &compiled, CrashPoint::PurgeUnit, 1).unwrap();
            let b = run_with_crash(kind, &compiled, CrashPoint::PurgeUnit, 1).unwrap();
            assert_eq!(a.events, b.events, "{kind:?}");
            assert_eq!(a.outcome.chain_head, b.outcome.chain_head, "{kind:?}");
            assert_eq!(a.crashed_at, b.crashed_at, "{kind:?}");
        }
    }
}
