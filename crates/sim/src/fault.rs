//! Deterministic fault injection: named crash points and the shared
//! injection plane the chaos harness arms.
//!
//! Every layer of the stack (engine execution steps, WAL append and
//! checkpoint boundaries, LSM compaction, mid-erasure key destruction and
//! unit purging) calls [`FaultInjector::hit`] at a named [`CrashPoint`].
//! The injector is an `Option<Arc<_>>`: the disabled default is a single
//! `None` check, so production and benchmark paths pay nothing.
//!
//! Two active modes exist:
//!
//! * **counting** ([`FaultInjector::counting`]) — record how often each
//!   crash point is reached during a run, without ever firing. The chaos
//!   harness uses a counting pass to discover which points a scenario
//!   exercises (and how many times) before arming them one by one.
//! * **armed** ([`FaultInjector::armed`]) — on the *n*-th arrival at one
//!   chosen point, fire exactly once by panicking with a [`CrashSignal`]
//!   payload. The harness catches the unwind, discards the wrecked
//!   engine, and rebuilds from durable state. A plane never fires twice,
//!   so recovery code running over the same taps cannot re-crash.
//!
//! Determinism: the plane holds no clocks and draws no randomness — which
//! hit fires is a pure function of `(point, nth)` and the deterministic
//! submission order, so a crash is replayable from the scenario seed
//! alone.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A named location where a crash can be injected.
///
/// Names are stable, kebab-case identifiers (`plan`, `wal-append`,
/// `destroy-key`, ...) used by the chaos DSL, `repro chaos`, and the docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Engine: on entry to a batch, before its first request.
    Plan,
    /// Engine: before a request's admission and policy decision.
    Decide,
    /// Engine: before an admitted request touches the backend or the
    /// abstract model.
    Apply,
    /// Engine: before an audit record enters the log store.
    Account,
    /// Storage: before a WAL record is appended.
    WalAppend,
    /// Storage: before a checkpoint (flush + WAL recycle) runs.
    Checkpoint,
    /// Erasure: before the unit's encryption key is destroyed.
    DestroyKey,
    /// Erasure: before a unit's rows are purged from the substrate.
    PurgeUnit,
    /// LSM: before a compaction merges runs.
    Compaction,
}

/// Number of distinct crash points.
pub const CRASH_POINTS: usize = 9;

impl CrashPoint {
    /// Every crash point, in declaration order.
    pub const ALL: [CrashPoint; CRASH_POINTS] = [
        CrashPoint::Plan,
        CrashPoint::Decide,
        CrashPoint::Apply,
        CrashPoint::Account,
        CrashPoint::WalAppend,
        CrashPoint::Checkpoint,
        CrashPoint::DestroyKey,
        CrashPoint::PurgeUnit,
        CrashPoint::Compaction,
    ];

    /// The point's stable, kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::Plan => "plan",
            CrashPoint::Decide => "decide",
            CrashPoint::Apply => "apply",
            CrashPoint::Account => "account",
            CrashPoint::WalAppend => "wal-append",
            CrashPoint::Checkpoint => "checkpoint",
            CrashPoint::DestroyKey => "destroy-key",
            CrashPoint::PurgeUnit => "purge-unit",
            CrashPoint::Compaction => "compaction",
        }
    }

    /// Parse a stable name back into a crash point.
    pub fn from_name(name: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        CrashPoint::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every point is in ALL")
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The panic payload an armed injector fires with.
///
/// Harnesses catch the unwind with `std::panic::catch_unwind` and
/// downcast the payload to distinguish an injected crash from a genuine
/// bug (any other payload must be propagated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSignal {
    /// Where the crash fired.
    pub point: CrashPoint,
    /// Which arrival fired (1-based).
    pub hit: u64,
}

impl fmt::Display for CrashSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected crash at {} (hit {})", self.point, self.hit)
    }
}

#[derive(Debug)]
struct FaultPlane {
    counts: [AtomicU64; CRASH_POINTS],
    /// `None` = counting only; `Some((point, nth))` = fire on arrival
    /// number `nth` (1-based) at `point`.
    armed: Option<(CrashPoint, u64)>,
    fired: AtomicBool,
}

impl FaultPlane {
    fn new(armed: Option<(CrashPoint, u64)>) -> FaultPlane {
        FaultPlane {
            counts: Default::default(),
            armed,
            fired: AtomicBool::new(false),
        }
    }

    fn hit(&self, point: CrashPoint) {
        let n = self.counts[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((armed, nth)) = self.armed {
            if armed == point && n == nth && !self.fired.swap(true, Ordering::Relaxed) {
                std::panic::panic_any(CrashSignal { point, hit: n });
            }
        }
    }
}

/// Handle to a shared fault-injection plane, threaded through engine and
/// storage configuration.
///
/// Clones share the same plane (it is an `Arc` inside), so arming one
/// injector arms every layer it was threaded into — exactly how a single
/// crash point can sit below the engine, inside the WAL, and inside the
/// LSM at once. The [`Default`] (and [`FaultInjector::disabled`]) handle
/// holds no plane at all: [`hit`](FaultInjector::hit) is one `None`
/// check, so the taps are free when chaos is off.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector(Option<Arc<FaultPlane>>);

impl FaultInjector {
    /// The no-op injector every configuration defaults to.
    pub fn disabled() -> FaultInjector {
        FaultInjector(None)
    }

    /// An injector that counts arrivals at every crash point but never
    /// fires — the discovery pass of the chaos harness.
    pub fn counting() -> FaultInjector {
        FaultInjector(Some(Arc::new(FaultPlane::new(None))))
    }

    /// An injector that fires on the `nth` (1-based) arrival at `point`,
    /// exactly once, by panicking with a [`CrashSignal`].
    pub fn armed(point: CrashPoint, nth: u64) -> FaultInjector {
        FaultInjector(Some(Arc::new(FaultPlane::new(Some((point, nth.max(1)))))))
    }

    /// Is this handle attached to a plane at all?
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Record an arrival at `point`; panics with a [`CrashSignal`] if the
    /// plane is armed for this arrival. The disabled handle returns
    /// immediately.
    #[inline]
    pub fn hit(&self, point: CrashPoint) {
        if let Some(plane) = &self.0 {
            plane.hit(point);
        }
    }

    /// How many times `point` has been reached so far (0 for a disabled
    /// handle).
    pub fn count(&self, point: CrashPoint) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |p| p.counts[point.index()].load(Ordering::Relaxed))
    }

    /// Arrival counts for every crash point, in [`CrashPoint::ALL`] order.
    pub fn counts(&self) -> [u64; CRASH_POINTS] {
        let mut out = [0; CRASH_POINTS];
        for (slot, point) in out.iter_mut().zip(CrashPoint::ALL) {
            *slot = self.count(point);
        }
        out
    }

    /// Has the armed crash fired?
    pub fn fired(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|p| p.fired.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for point in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_name(point.name()), Some(point));
        }
        assert_eq!(CrashPoint::from_name("nonsense"), None);
    }

    #[test]
    fn disabled_injector_is_inert() {
        let f = FaultInjector::disabled();
        f.hit(CrashPoint::Plan);
        assert_eq!(f.count(CrashPoint::Plan), 0);
        assert!(!f.is_active());
        assert!(!f.fired());
    }

    #[test]
    fn counting_injector_counts_without_firing() {
        let f = FaultInjector::counting();
        for _ in 0..3 {
            f.hit(CrashPoint::WalAppend);
        }
        f.hit(CrashPoint::Checkpoint);
        assert_eq!(f.count(CrashPoint::WalAppend), 3);
        assert_eq!(f.count(CrashPoint::Checkpoint), 1);
        assert_eq!(f.count(CrashPoint::Plan), 0);
        assert!(!f.fired());
    }

    #[test]
    fn armed_injector_fires_on_nth_hit_exactly_once() {
        let f = FaultInjector::armed(CrashPoint::DestroyKey, 2);
        f.hit(CrashPoint::DestroyKey); // hit 1: no fire
        f.hit(CrashPoint::PurgeUnit); // other point: no fire
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.hit(CrashPoint::DestroyKey); // hit 2: fires
        }))
        .expect_err("second hit must fire");
        let signal = panic
            .downcast_ref::<CrashSignal>()
            .expect("payload is a CrashSignal");
        assert_eq!(signal.point, CrashPoint::DestroyKey);
        assert_eq!(signal.hit, 2);
        assert!(f.fired());
        // Recovery runs over the same taps: no second fire.
        f.hit(CrashPoint::DestroyKey);
        assert_eq!(f.count(CrashPoint::DestroyKey), 3);
    }

    #[test]
    fn clones_share_one_plane() {
        let f = FaultInjector::counting();
        let g = f.clone();
        g.hit(CrashPoint::Apply);
        assert_eq!(f.count(CrashPoint::Apply), 1);
    }
}
