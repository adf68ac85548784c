//! Workload driver: batch-first runs (the paper's completion-time
//! metric). Sharded, multi-client runs go through
//! [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine).
//!
//! The driver submits through [`Frontend::submit`]. Batch size never
//! changes results — only boundary crossings and wall-clock time (the
//! `prop_frontend` batch-parity property holds the engine to that).

use std::time::Instant;

use datacase_sim::time::Dur;
use datacase_sim::MeterSnapshot;
use datacase_workloads::opstream::Op;

use crate::db::Actor;
use crate::error::EngineError;
use crate::frontend::{Frontend, Response, Session};

/// Default number of requests per submitted batch in the drivers.
pub const DEFAULT_BATCH: usize = 64;

/// Statistics of one workload run, tallied from the typed
/// [`EngineError`] taxonomy (not sentinel reply values).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Operations executed.
    pub ops: usize,
    /// Operations denied by policy enforcement ([`EngineError::Denied`]).
    pub denied: usize,
    /// Operations targeting keys that never existed
    /// ([`EngineError::NotFound`]).
    pub not_found: usize,
    /// Operations targeting erased records
    /// ([`EngineError::RetentionExpired`]).
    pub expired: usize,
    /// Operations failed by the substrate ([`EngineError::Backend`]).
    pub failed: usize,
    /// Simulated completion time.
    pub simulated: Dur,
    /// Wall-clock time of the run (host-side, for criterion context).
    pub wall: std::time::Duration,
    /// Work counters accumulated during the run.
    pub work: MeterSnapshot,
}

impl RunStats {
    /// Simulated throughput in ops per simulated second.
    pub fn sim_ops_per_sec(&self) -> f64 {
        let secs = self.simulated.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Fold one response's outcome into the error tallies.
    fn tally(&mut self, response: &Response) {
        match &response.outcome {
            Ok(_) => {}
            Err(EngineError::Denied { .. }) => self.denied += 1,
            Err(EngineError::NotFound { .. }) => self.not_found += 1,
            Err(EngineError::RetentionExpired { .. }) => self.expired += 1,
            Err(EngineError::Backend { .. }) => self.failed += 1,
        }
    }
}

/// Run `ops` on `frontend` as `actor` in batches of [`DEFAULT_BATCH`],
/// returning completion stats.
pub fn run_ops(frontend: &mut Frontend, ops: &[Op], actor: Actor) -> RunStats {
    run_ops_batched(frontend, ops, actor, DEFAULT_BATCH)
}

/// [`run_ops`] with an explicit batch size. Batch size never changes
/// results (the `prop_frontend` parity suite holds the engine to that);
/// it only changes how many submissions cross the frontend boundary.
pub fn run_ops_batched(
    frontend: &mut Frontend,
    ops: &[Op],
    actor: Actor,
    batch_size: usize,
) -> RunStats {
    let batch_size = batch_size.max(1);
    let session = Session::new(actor);
    let sim_start = frontend.clock().now();
    let meter_start = frontend.meter().snapshot();
    let wall_start = Instant::now();
    let mut stats = RunStats {
        ops: ops.len(),
        ..RunStats::default()
    };
    for chunk in ops.chunks(batch_size) {
        for response in frontend.submit_ops(&session, chunk) {
            stats.tally(&response);
        }
    }
    stats.simulated = frontend.clock().now().since(sim_start);
    stats.wall = wall_start.elapsed();
    stats.work = frontend.meter().snapshot().diff(&meter_start);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{EngineConfig, ProfileKind};
    use datacase_workloads::gdprbench::{GdprBench, Mix};

    #[test]
    fn run_ops_reports_stats() {
        let mut fe = Frontend::new(EngineConfig::for_profile(ProfileKind::PBase));
        let mut bench = GdprBench::new(1, 50);
        let load = bench.load_phase(100);
        let stats = run_ops(&mut fe, &load, Actor::Controller);
        assert_eq!(stats.ops, 100);
        assert_eq!(stats.denied, 0);
        assert_eq!(stats.failed, 0);
        assert!(stats.simulated > Dur::ZERO);
        assert!(stats.work.log_records >= 100);
        assert!(stats.sim_ops_per_sec() > 0.0);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let run = |batch: usize| {
            let mut fe = Frontend::new(EngineConfig::for_profile(ProfileKind::PBase));
            let mut bench = GdprBench::new(4, 50);
            let load = bench.load_phase(150);
            run_ops_batched(&mut fe, &load, Actor::Controller, batch);
            let txns = bench.ops(200, Mix::wcus());
            run_ops_batched(&mut fe, &txns, Actor::Subject, batch)
        };
        let a = run(1);
        let b = run(128);
        assert_eq!(a.denied, b.denied);
        assert_eq!(a.not_found, b.not_found);
        assert_eq!(a.expired, b.expired);
        assert_eq!(a.simulated, b.simulated);
        assert_eq!(a.work, b.work);
    }
}
