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

/// Counters of mechanical work, reported alongside simulated times.
///
/// Every counter is monotonically increasing and atomically updated, so one
/// `Meter` can be shared by all substrates of an engine instance.
#[derive(Debug, Default)]
pub struct Meter {
    /// Pages read from simulated disk (buffer-pool misses).
    pub pages_read_disk: AtomicU64,
    /// Pages served from the buffer pool.
    pub pages_read_cached: AtomicU64,
    /// Pages written back to simulated disk.
    pub pages_written: AtomicU64,
    /// Live tuples examined by scans.
    pub tuples_scanned: AtomicU64,
    /// Dead tuples / tombstones skipped by scans.
    pub dead_tuples_skipped: AtomicU64,
    /// Index probes performed.
    pub index_probes: AtomicU64,
    /// Bytes pushed through AES.
    pub crypto_bytes: AtomicU64,
    /// Log records appended.
    pub log_records: AtomicU64,
    /// Bytes appended to logs.
    pub log_bytes: AtomicU64,
    /// Policy checks evaluated (coarse + fine).
    pub policy_checks: AtomicU64,
    /// Operations denied by policy enforcement.
    pub denials: AtomicU64,
    /// Bytes rewritten by vacuum-full / compaction.
    pub compaction_bytes: AtomicU64,
    /// WAL records appended.
    pub wal_records: AtomicU64,
}

/// An owned snapshot of a [`Meter`], for diffing before/after a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// See [`Meter::pages_read_disk`].
    pub pages_read_disk: u64,
    /// See [`Meter::pages_read_cached`].
    pub pages_read_cached: u64,
    /// See [`Meter::pages_written`].
    pub pages_written: u64,
    /// See [`Meter::tuples_scanned`].
    pub tuples_scanned: u64,
    /// See [`Meter::dead_tuples_skipped`].
    pub dead_tuples_skipped: u64,
    /// See [`Meter::index_probes`].
    pub index_probes: u64,
    /// See [`Meter::crypto_bytes`].
    pub crypto_bytes: u64,
    /// See [`Meter::log_records`].
    pub log_records: u64,
    /// See [`Meter::log_bytes`].
    pub log_bytes: u64,
    /// See [`Meter::policy_checks`].
    pub policy_checks: u64,
    /// See [`Meter::denials`].
    pub denials: u64,
    /// See [`Meter::compaction_bytes`].
    pub compaction_bytes: u64,
    /// See [`Meter::wal_records`].
    pub wal_records: u64,
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

    /// Capture the current values of all counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            pages_read_disk: self.pages_read_disk.load(Ordering::Relaxed),
            pages_read_cached: self.pages_read_cached.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            tuples_scanned: self.tuples_scanned.load(Ordering::Relaxed),
            dead_tuples_skipped: self.dead_tuples_skipped.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            crypto_bytes: self.crypto_bytes.load(Ordering::Relaxed),
            log_records: self.log_records.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            policy_checks: self.policy_checks.load(Ordering::Relaxed),
            denials: self.denials.load(Ordering::Relaxed),
            compaction_bytes: self.compaction_bytes.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
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
            pages_read_disk: self.pages_read_disk.saturating_add(other.pages_read_disk),
            pages_read_cached: self
                .pages_read_cached
                .saturating_add(other.pages_read_cached),
            pages_written: self.pages_written.saturating_add(other.pages_written),
            tuples_scanned: self.tuples_scanned.saturating_add(other.tuples_scanned),
            dead_tuples_skipped: self
                .dead_tuples_skipped
                .saturating_add(other.dead_tuples_skipped),
            index_probes: self.index_probes.saturating_add(other.index_probes),
            crypto_bytes: self.crypto_bytes.saturating_add(other.crypto_bytes),
            log_records: self.log_records.saturating_add(other.log_records),
            log_bytes: self.log_bytes.saturating_add(other.log_bytes),
            policy_checks: self.policy_checks.saturating_add(other.policy_checks),
            denials: self.denials.saturating_add(other.denials),
            compaction_bytes: self.compaction_bytes.saturating_add(other.compaction_bytes),
            wal_records: self.wal_records.saturating_add(other.wal_records),
        }
    }

    /// Component-wise saturating difference `self - earlier`.
    pub fn diff(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            pages_read_disk: self.pages_read_disk.saturating_sub(earlier.pages_read_disk),
            pages_read_cached: self
                .pages_read_cached
                .saturating_sub(earlier.pages_read_cached),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            tuples_scanned: self.tuples_scanned.saturating_sub(earlier.tuples_scanned),
            dead_tuples_skipped: self
                .dead_tuples_skipped
                .saturating_sub(earlier.dead_tuples_skipped),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            crypto_bytes: self.crypto_bytes.saturating_sub(earlier.crypto_bytes),
            log_records: self.log_records.saturating_sub(earlier.log_records),
            log_bytes: self.log_bytes.saturating_sub(earlier.log_bytes),
            policy_checks: self.policy_checks.saturating_sub(earlier.policy_checks),
            denials: self.denials.saturating_sub(earlier.denials),
            compaction_bytes: self
                .compaction_bytes
                .saturating_sub(earlier.compaction_bytes),
            wal_records: self.wal_records.saturating_sub(earlier.wal_records),
        }
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
