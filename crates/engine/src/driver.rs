//! Workload driver: batch-first runs (the paper's completion-time
//! metric). Sharded, multi-client runs go through
//! [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine).
//!
//! The driver hands the whole stream to [`Frontend::submit_ops`], which
//! sub-batches it. Batch size never changes results — only boundary
//! crossings and wall-clock time (the `prop_frontend` batch-parity
//! property holds the engine to that).

use datacase_sim::time::Dur;
use datacase_sim::MeterSnapshot;
use datacase_workloads::opstream::Op;

use crate::db::Actor;
use crate::error::EngineError;
use crate::frontend::{Frontend, Response, Session};

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
    /// Work counters accumulated during the run.
    pub work: MeterSnapshot,
}

impl RunStats {
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

/// Run `ops` on `frontend` as `actor`, returning completion stats.
pub fn run_ops(frontend: &mut Frontend, ops: &[Op], actor: Actor) -> RunStats {
    let session = Session::new(actor);
    let sim_start = frontend.clock().now();
    let meter_start = frontend.meter().snapshot();
    let mut stats = RunStats {
        ops: ops.len(),
        ..RunStats::default()
    };
    for response in frontend.submit_ops(&session, ops) {
        stats.tally(&response);
    }
    stats.simulated = frontend.clock().now().since(sim_start);
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
        let config = || EngineConfig::for_profile(ProfileKind::PBase);
        let mut bench = GdprBench::new(4, 50);
        let load = bench.load_phase(150);
        let txns = bench.ops(200, Mix::wcus());

        let mut fe = Frontend::new(config());
        let stats = run_ops(&mut fe, &load, Actor::Controller);
        assert_eq!(stats.ops, 150);
        assert_eq!(stats.denied, 0);
        assert_eq!(stats.failed, 0);
        assert!(stats.simulated > Dur::ZERO);
        assert!(stats.work.log_records >= 150);
        let stats = run_ops(&mut fe, &txns, Actor::Subject);
        assert_eq!(stats.ops, 200);

        // A twin engine fed the same stream straight through
        // `submit_ops`: the driver's tallies are the responses' outcomes.
        let mut twin = Frontend::new(config());
        twin.submit_ops(&Session::new(Actor::Controller), &load);
        let mut expected = [0usize; 4];
        for response in twin.submit_ops(&Session::new(Actor::Subject), &txns) {
            match response.outcome {
                Ok(_) => {}
                Err(EngineError::Denied { .. }) => expected[0] += 1,
                Err(EngineError::NotFound { .. }) => expected[1] += 1,
                Err(EngineError::RetentionExpired { .. }) => expected[2] += 1,
                Err(EngineError::Backend { .. }) => expected[3] += 1,
            }
        }
        assert_eq!(
            [stats.denied, stats.not_found, stats.expired, stats.failed],
            expected
        );
        assert!(
            expected.iter().any(|&n| n > 0),
            "the stream must exercise at least one error tally"
        );
    }
}
