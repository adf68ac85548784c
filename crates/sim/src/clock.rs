//! The simulated clock and the work meter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::CostModel;
use crate::time::{Dur, Ts};

/// A shareable logical clock accumulating simulated nanoseconds.
///
/// Substrates `charge` durations as they do work; harnesses read
/// [`SimClock::now`] before and after a workload to obtain its simulated
/// completion time. Cloning shares the underlying counter, so one clock can
/// be threaded through storage, policy, audit and crypto layers.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
    model: Arc<CostModel>,
}

impl SimClock {
    /// A clock at time zero with the given cost model.
    pub fn new(model: CostModel) -> SimClock {
        SimClock {
            nanos: Arc::new(AtomicU64::new(0)),
            model: Arc::new(model),
        }
    }

    /// A clock with the default commodity cost model.
    pub fn commodity() -> SimClock {
        SimClock::new(CostModel::commodity())
    }

    /// The shared cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current simulated time.
    pub fn now(&self) -> Ts {
        Ts(self.nanos.load(Ordering::Relaxed))
    }

    /// Advance the clock by `d` (charging simulated work).
    pub fn charge(&self, d: Dur) {
        if d.0 != 0 {
            self.nanos.fetch_add(d.0, Ordering::Relaxed);
        }
    }

    /// Advance by a raw nanosecond count.
    pub fn charge_nanos(&self, ns: u64) {
        if ns != 0 {
            self.nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Jump the clock forward so that `now() >= at` (used to model idle
    /// waiting, e.g. letting a retention deadline pass). Does nothing if the
    /// clock is already past `at`.
    pub fn advance_to(&self, at: Ts) {
        let mut cur = self.nanos.load(Ordering::Relaxed);
        while cur < at.0 {
            match self
                .nanos
                .compare_exchange_weak(cur, at.0, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }
}

/// Declares the work counters once. Each `/// doc` + `name` row becomes a
/// [`Meter`] field, a [`MeterSnapshot`] field, and a line each in
/// [`Meter::snapshot`], [`MeterSnapshot::merge`] and [`MeterSnapshot::diff`].
macro_rules! meter_counters {
    ($($(#[doc = $doc:expr])+ $name:ident,)+) => {
        /// Counters of mechanical work, reported alongside simulated times.
        ///
        /// Every counter is monotonically increasing and atomically updated, so one
        /// `Meter` can be shared by all substrates of an engine instance.
        #[derive(Debug, Default)]
        pub struct Meter {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
        }

        /// An owned snapshot of a [`Meter`], for diffing before/after a workload.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MeterSnapshot {
            $(#[doc = concat!("See [`Meter::", stringify!($name), "`].")] pub $name: u64,)+
        }

        impl Meter {
            /// Capture the current values of all counters.
            pub fn snapshot(&self) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl MeterSnapshot {
            /// Component-wise saturating sum `self + other` — the aggregation step
            /// for per-shard meters. Sharded drivers give every worker its own
            /// [`Meter`] (so counters never race across threads) and merge the
            /// snapshots afterwards; addition is commutative and associative, so
            /// the aggregate is deterministic regardless of worker interleaving.
            pub fn merge(&self, other: &MeterSnapshot) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.$name.saturating_add(other.$name),)+
                }
            }

            /// Component-wise saturating difference `self - earlier`.
            pub fn diff(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }
        }
    };
}

meter_counters! {
    /// Pages read from simulated disk (buffer-pool misses).
    pages_read_disk,
    /// Pages served from the buffer pool.
    pages_read_cached,
    /// Pages written back to simulated disk.
    pages_written,
    /// Live tuples examined by scans.
    tuples_scanned,
    /// Dead tuples / tombstones skipped by scans.
    dead_tuples_skipped,
    /// Index probes performed.
    index_probes,
    /// Bytes pushed through AES.
    crypto_bytes,
    /// Log records appended.
    log_records,
    /// Bytes appended to logs.
    log_bytes,
    /// Policy checks evaluated (coarse + fine).
    policy_checks,
    /// Operations denied by policy enforcement.
    denials,
    /// Bytes rewritten by vacuum-full / compaction.
    compaction_bytes,
    /// WAL records appended.
    wal_records,
}

impl Meter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Add `n` to a counter.
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_charges() {
        let c = SimClock::commodity();
        assert_eq!(c.now(), Ts::ZERO);
        c.charge(Dur::from_millis(5));
        c.charge_nanos(500);
        assert_eq!(c.now(), Ts(5_000_500));
    }

    #[test]
    fn cloned_clock_shares_time() {
        let a = SimClock::commodity();
        let b = a.clone();
        b.charge(Dur::from_secs(1));
        assert_eq!(a.now(), Ts::from_secs(1));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::commodity();
        c.charge(Dur::from_secs(10));
        c.advance_to(Ts::from_secs(5));
        assert_eq!(c.now(), Ts::from_secs(10));
        c.advance_to(Ts::from_secs(20));
        assert_eq!(c.now(), Ts::from_secs(20));
    }

    #[test]
    fn meter_snapshot_diff() {
        let m = Meter::new();
        Meter::bump(&m.pages_read_disk, 3);
        let s1 = m.snapshot();
        Meter::bump(&m.pages_read_disk, 4);
        Meter::bump(&m.denials, 1);
        let s2 = m.snapshot();
        let d = s2.diff(&s1);
        assert_eq!(d.pages_read_disk, 4);
        assert_eq!(d.denials, 1);
        assert_eq!(d.pages_written, 0);
    }

    #[test]
    fn meter_snapshot_merge_sums_counters() {
        let a = Meter::new();
        Meter::bump(&a.pages_read_disk, 3);
        Meter::bump(&a.crypto_bytes, 100);
        let b = Meter::new();
        Meter::bump(&b.pages_read_disk, 4);
        Meter::bump(&b.log_records, 7);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.pages_read_disk, 7);
        assert_eq!(m.crypto_bytes, 100);
        assert_eq!(m.log_records, 7);
        assert_eq!(m.denials, 0);
        // Merge is commutative: shard join order cannot change the total.
        assert_eq!(m, b.snapshot().merge(&a.snapshot()));
    }

    #[test]
    fn zero_charge_is_free() {
        let c = SimClock::commodity();
        c.charge(Dur::ZERO);
        assert_eq!(c.now(), Ts::ZERO);
    }
}
