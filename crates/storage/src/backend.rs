//! The pluggable storage-backend contract the compliance layer runs over.
//!
//! Data-CASE's central claim is that regulation groundings must hold
//! *independently of the underlying data processing system*. This module
//! is that claim made into a Rust trait: [`StorageBackend`] names the
//! workload surface (insert/read/update/delete/hide/scan) **and** the
//! compliance hooks every grounding plan needs — maintenance that turns
//! logical deletes physical, per-unit purging of retained log/run copies,
//! drive sanitisation, and the forensic
//! [`scan_physical`](StorageBackend::scan_physical) view an independent
//! auditor uses to verify erasure evidence.
//!
//! Two substrates implement it:
//!
//! * [`HeapDb`] — the PostgreSQL-style MVCC heap. Deletes stamp `xmax`,
//!   maintenance is VACUUM / VACUUM FULL, hiding is the hidden-attribute
//!   update, logs are the WAL, sanitisation is a multi-pass drive wipe.
//! * [`LsmBackend`] — the Cassandra-style LSM tree. Deletes are
//!   tombstones, maintenance is compaction, hiding is a flagged value
//!   version, "log" copies are shadowed versions in older runs, purged by
//!   rewriting the runs.
//!
//! ```
//! use datacase_storage::backend::{LsmBackend, MaintenanceDepth, StorageBackend};
//! use datacase_storage::heap::HeapDb;
//!
//! let backends: Vec<Box<dyn StorageBackend>> = vec![
//!     Box::new(HeapDb::default_single()),
//!     Box::new(LsmBackend::default_single()),
//! ];
//! for mut b in backends {
//!     b.insert(1, 100, b"subject-pii").unwrap();
//!     b.checkpoint(); // data at rest (page flushed / memtable flushed)
//!     b.delete(1).unwrap();
//!     b.checkpoint();
//!     // A logical delete physically retains the bytes on *both* backends…
//!     assert!(b.scan_physical(b"subject-pii").online(), "{:?}", b.kind());
//!     // …until maintenance plus a per-unit log purge ground the erasure.
//!     b.maintain(MaintenanceDepth::Full);
//!     b.purge_unit(100);
//!     b.sanitize(3);
//!     b.checkpoint();
//!     assert!(!b.scan_physical(b"subject-pii").any(), "{:?}", b.kind());
//! }
//! ```

use std::sync::Arc;

use datacase_sim::{Meter, SimClock};

use crate::error::{Result, StorageError};
use crate::forensic::{scan_heap, ForensicFindings};
use crate::heap::{HeapConfig, HeapDb};
use crate::lsm::{Entry, LsmConfig, LsmTree, RunManifest};
use crate::wal::WalRecord;

/// Which storage substrate backs an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// PostgreSQL-style MVCC heap (pages + B+tree + WAL).
    Heap,
    /// Cassandra-style LSM tree (memtable + sorted runs + tombstones).
    Lsm,
}

impl BackendKind {
    /// Figure/bench label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Heap => "heap",
            BackendKind::Lsm => "lsm",
        }
    }

    /// Both backends, heap first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Heap, BackendKind::Lsm];
}

/// How deep a maintenance pass goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceDepth {
    /// Reclaim what is cheap to reclaim: lazy VACUUM on the heap, a
    /// memtable flush (feeding the tiered-compaction trigger) on the LSM.
    Lazy,
    /// Physically rewrite: VACUUM FULL on the heap, full compaction
    /// (dropping tombstones and shadowed versions) on the LSM.
    Full,
}

/// What one maintenance pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Dead tuples / shadowed-or-tombstone entries physically removed.
    pub reclaimed: usize,
    /// Payload bytes wiped or dropped from persistent storage.
    pub bytes_wiped: u64,
}

/// Backend statistics on a shared vocabulary, so space accounting and
/// benches read identically over heap and LSM.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendStats {
    /// Visible (live) entries, hidden ones included.
    pub live_entries: u64,
    /// Dead entries physically retained: unvacuumed tuples, shadowed
    /// versions, tombstones.
    pub dead_entries: u64,
    /// Bytes of persistent table/run storage.
    pub disk_bytes: u64,
    /// Bytes of physical drive the substrate holds: on the heap every
    /// sector of the simulated disk — the table, retired sectors awaiting
    /// sanitisation, and the free list — so `drive_bytes - disk_bytes` is
    /// what a rewrite left behind; on the LSM, equal to `disk_bytes`. Not
    /// part of the space report (Table 2 counts the logical table).
    pub drive_bytes: u64,
    /// Index bytes (primary B+tree; LSM bloom filters are negligible).
    pub index_bytes: u64,
    /// Retained recovery-log bytes (heap WAL; the LSM has none — its runs
    /// *are* the log, counted in `disk_bytes`).
    pub log_bytes: u64,
    /// Storage segments: heap pages or LSM runs.
    pub segments: usize,
}

/// A backend's durable layer, cloned out for crash recovery.
///
/// What survives a crash differs per substrate — the heap's truth is its
/// retained WAL (replayed logically by [`HeapDb::recover`]), the LSM's is
/// its committed [`RunManifest`] (reopened by [`LsmTree::recover`]) — but
/// the chaos harness salvages either through one typed value, taken from
/// a wrecked engine via [`StorageBackend::durable_snapshot`] and turned
/// back into a live substrate with [`recover_backend`].
#[derive(Clone, Debug)]
pub enum DurableSnapshot {
    /// The heap's retained WAL records, in LSN order.
    Heap(Vec<WalRecord>),
    /// The LSM's last committed run manifest.
    Lsm(RunManifest),
}

impl DurableSnapshot {
    /// Which substrate this snapshot came from.
    pub fn kind(&self) -> BackendKind {
        match self {
            DurableSnapshot::Heap(_) => BackendKind::Heap,
            DurableSnapshot::Lsm(_) => BackendKind::Lsm,
        }
    }
}

/// Rebuild a live backend from a salvaged [`DurableSnapshot`]: WAL replay
/// for the heap, manifest reopen for the LSM. Purely deterministic — two
/// recoveries from the same snapshot yield identical physical state.
pub fn recover_backend(
    snapshot: DurableSnapshot,
    heap: HeapConfig,
    lsm: LsmConfig,
    clock: SimClock,
    meter: Arc<Meter>,
) -> Box<dyn StorageBackend> {
    match snapshot {
        DurableSnapshot::Heap(records) => Box::new(HeapDb::recover(records, heap, clock, meter)),
        DurableSnapshot::Lsm(manifest) => {
            Box::new(LsmBackend::recover(manifest, lsm, clock, meter))
        }
    }
}

/// The storage contract the compliant engine composes over.
///
/// Workload methods mirror the op vocabulary; compliance hooks are the
/// per-backend mechanics that erasure groundings (Table 1) map onto. A
/// backend must satisfy the erasure contract: after `delete` +
/// `maintain(Full)` + `purge_unit` + `sanitize`, [`scan_physical`] finds
/// no residual of the unit's payloads at any layer.
///
/// [`scan_physical`]: StorageBackend::scan_physical
pub trait StorageBackend: Send {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// INSERT a new record. Fails with [`StorageError::DuplicateKey`] on a
    /// visible duplicate.
    fn insert(&mut self, key: u64, unit_id: u64, payload: &[u8]) -> Result<()>;

    /// Point read. Hidden versions return `None` unless `include_hidden`.
    fn read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>>;

    /// UPDATE the payload (a new version; the hidden attribute carries
    /// over). Fails with [`StorageError::KeyNotFound`] if absent.
    fn update(&mut self, key: u64, payload: &[u8]) -> Result<()>;

    /// Logical DELETE: dead tuple on the heap, tombstone on the LSM. The
    /// payload bytes physically remain until maintenance.
    fn delete(&mut self, key: u64) -> Result<()>;

    /// Reversible inaccessibility: set/clear the hidden attribute by
    /// writing a new flagged version.
    fn set_hidden(&mut self, key: u64, hidden: bool) -> Result<()>;

    /// The unit id stored under `key`, hidden versions included.
    fn unit_of(&mut self, key: u64) -> Option<u64>;

    /// Sequential scan over visible, non-hidden records.
    fn seq_scan(&mut self, f: &mut dyn FnMut(u64, u64, &[u8]));

    // ------------------------------------------------------------------
    // Compliance hooks
    // ------------------------------------------------------------------

    /// Run a maintenance pass (the periodic half of a delete strategy).
    fn maintain(&mut self, depth: MaintenanceDepth) -> MaintenanceStats;

    /// Remove every retained copy of `unit_id` from log-shaped storage:
    /// scrub the unit's WAL payloads (heap) or rewrite all runs without
    /// the unit's entries (LSM). Intended to run *after* the unit's rows
    /// are deleted (the permanent-deletion plan); on a still-live unit
    /// the heap leaves the row in place while the LSM's run rewrite
    /// necessarily removes it too. Returns entries/records removed.
    fn purge_unit(&mut self, unit_id: u64) -> usize;

    /// Destroy sub-file remanence with a multi-pass overwrite. The LSM
    /// has no remanence layer below its runs, so this is a no-op there.
    fn sanitize(&mut self, passes: u32);

    /// Flush volatile state so the persistent layers match the logical
    /// state (forensics and recovery both start from here).
    fn checkpoint(&mut self);

    /// Drop recovery-log records already covered by a checkpoint.
    /// Returns the number of records dropped.
    fn recycle_logs(&mut self) -> usize;

    /// Forensic scan of every persistent layer for `needle` — the
    /// independent-observer view that makes erasure evidence measurable.
    /// Callers should [`checkpoint`](StorageBackend::checkpoint) first.
    fn scan_physical(&self, needle: &[u8]) -> ForensicFindings;

    /// Statistics on the shared vocabulary.
    fn stats(&self) -> BackendStats;

    /// Clone out the substrate's durable layer (retained WAL / committed
    /// run manifest) for crash recovery. See [`DurableSnapshot`].
    fn durable_snapshot(&self) -> DurableSnapshot;
}

// ---------------------------------------------------------------------
// Heap implementation
// ---------------------------------------------------------------------

impl StorageBackend for HeapDb {
    fn kind(&self) -> BackendKind {
        BackendKind::Heap
    }

    fn insert(&mut self, key: u64, unit_id: u64, payload: &[u8]) -> Result<()> {
        HeapDb::insert(self, key, unit_id, payload).map(|_| ())
    }

    fn read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>> {
        HeapDb::read(self, key, include_hidden)
    }

    fn update(&mut self, key: u64, payload: &[u8]) -> Result<()> {
        HeapDb::update(self, key, payload).map(|_| ())
    }

    fn delete(&mut self, key: u64) -> Result<()> {
        HeapDb::delete(self, key)
    }

    fn set_hidden(&mut self, key: u64, hidden: bool) -> Result<()> {
        HeapDb::set_hidden(self, key, hidden).map(|_| ())
    }

    fn unit_of(&mut self, key: u64) -> Option<u64> {
        HeapDb::unit_of(self, key)
    }

    fn seq_scan(&mut self, f: &mut dyn FnMut(u64, u64, &[u8])) {
        HeapDb::seq_scan(self, |k, u, p| f(k, u, p));
    }

    fn maintain(&mut self, depth: MaintenanceDepth) -> MaintenanceStats {
        let stats = match depth {
            MaintenanceDepth::Lazy => self.vacuum(),
            MaintenanceDepth::Full => self.vacuum_full(),
        };
        MaintenanceStats {
            reclaimed: stats.tuples_reclaimed,
            bytes_wiped: stats.bytes_wiped as u64,
        }
    }

    fn purge_unit(&mut self, unit_id: u64) -> usize {
        self.scrub_wal_unit(unit_id)
    }

    fn sanitize(&mut self, passes: u32) {
        self.sanitize_drive(passes);
    }

    fn checkpoint(&mut self) {
        HeapDb::checkpoint(self);
    }

    fn recycle_logs(&mut self) -> usize {
        self.recycle_wal()
    }

    fn scan_physical(&self, needle: &[u8]) -> ForensicFindings {
        scan_heap(self, needle)
    }

    fn stats(&self) -> BackendStats {
        let s = HeapDb::stats(self);
        BackendStats {
            live_entries: s.live_tuples,
            dead_entries: s.dead_tuples,
            disk_bytes: s.disk_bytes,
            drive_bytes: self.disk().bytes(),
            index_bytes: s.index_bytes,
            log_bytes: s.wal_bytes,
            segments: s.pages,
        }
    }

    fn durable_snapshot(&self) -> DurableSnapshot {
        DurableSnapshot::Heap(self.wal_records())
    }
}

// ---------------------------------------------------------------------
// LSM implementation
// ---------------------------------------------------------------------

/// First value byte of every [`LsmBackend`] entry: version flags.
const LSM_FLAG_HIDDEN: u8 = 0x01;

/// The LSM tree behind the [`StorageBackend`] contract.
///
/// The raw [`LsmTree`] has no hidden attribute, so the adapter grounds
/// reversible inaccessibility the way a column store would: every stored
/// value carries a one-byte flag header, and hiding writes a new flagged
/// version — at ordinary write cost and with ordinary version bloat,
/// mirroring the heap's MVCC hidden-update mechanics.
pub struct LsmBackend {
    tree: LsmTree,
    live: u64,
}

impl std::fmt::Debug for LsmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmBackend")
            .field("live", &self.live)
            .field("tree", &self.tree)
            .finish()
    }
}

impl LsmBackend {
    /// A fresh LSM backend with the given config, clock and meter.
    pub fn new(config: LsmConfig, clock: SimClock, meter: Arc<Meter>) -> LsmBackend {
        LsmBackend {
            tree: LsmTree::new(config, clock, meter),
            live: 0,
        }
    }

    /// Default config on a fresh clock/meter (tests, examples).
    pub fn default_single() -> LsmBackend {
        LsmBackend {
            tree: LsmTree::default_single(),
            live: 0,
        }
    }

    /// Rebuild a backend from a durable [`RunManifest`] (crash recovery).
    /// The live-row counter is recomputed from the recovered runs, so it
    /// reflects exactly what survived.
    pub fn recover(
        manifest: RunManifest,
        config: LsmConfig,
        clock: SimClock,
        meter: Arc<Meter>,
    ) -> LsmBackend {
        let mut backend = LsmBackend {
            tree: LsmTree::recover(manifest, config, clock, meter),
            live: 0,
        };
        backend.live = backend.tree.range_units(0, u64::MAX).len() as u64;
        backend
    }

    /// The wrapped tree (ablations, forensics).
    pub fn tree(&self) -> &LsmTree {
        &self.tree
    }

    fn encode(hidden: bool, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(1 + payload.len());
        v.push(if hidden { LSM_FLAG_HIDDEN } else { 0 });
        v.extend_from_slice(payload);
        v
    }

    fn decode(value: &[u8]) -> (bool, &[u8]) {
        match value.split_first() {
            Some((flags, payload)) => (flags & LSM_FLAG_HIDDEN != 0, payload),
            None => (false, &[]),
        }
    }

    /// The current live version of `key`: (unit, hidden, payload). The
    /// flag byte is stripped in place from the entry's already-owned
    /// value, so point operations pay one payload copy, not two.
    fn live_version(&mut self, key: u64) -> Option<(u64, bool, Vec<u8>)> {
        match self.tree.entry(key)? {
            Entry::Put {
                unit_id, mut value, ..
            } => {
                let hidden = value.first().is_some_and(|f| f & LSM_FLAG_HIDDEN != 0);
                if !value.is_empty() {
                    value.drain(..1);
                }
                Some((unit_id, hidden, value))
            }
            Entry::Tombstone { .. } => None,
        }
    }
}

impl StorageBackend for LsmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Lsm
    }

    fn insert(&mut self, key: u64, unit_id: u64, payload: &[u8]) -> Result<()> {
        if self.live_version(key).is_some() {
            return Err(StorageError::DuplicateKey(key));
        }
        self.tree.put(key, unit_id, &Self::encode(false, payload));
        self.live += 1;
        Ok(())
    }

    fn read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>> {
        let (_, hidden, payload) = self.live_version(key)?;
        if hidden && !include_hidden {
            return None;
        }
        Some(payload)
    }

    fn update(&mut self, key: u64, payload: &[u8]) -> Result<()> {
        let Some((unit, hidden, _)) = self.live_version(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        // The hidden attribute carries over, as on the heap.
        self.tree.put(key, unit, &Self::encode(hidden, payload));
        Ok(())
    }

    fn delete(&mut self, key: u64) -> Result<()> {
        let Some((unit, _, _)) = self.live_version(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        self.tree.delete(key, unit);
        self.live = self.live.saturating_sub(1);
        Ok(())
    }

    fn set_hidden(&mut self, key: u64, hidden: bool) -> Result<()> {
        let Some((unit, _, payload)) = self.live_version(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        self.tree.put(key, unit, &Self::encode(hidden, &payload));
        Ok(())
    }

    fn unit_of(&mut self, key: u64) -> Option<u64> {
        self.live_version(key).map(|(unit, _, _)| unit)
    }

    fn seq_scan(&mut self, f: &mut dyn FnMut(u64, u64, &[u8])) {
        for (key, unit, value) in self.tree.range_units(0, u64::MAX) {
            let (hidden, payload) = Self::decode(&value);
            if !hidden {
                f(key, unit, payload);
            }
        }
    }

    fn maintain(&mut self, depth: MaintenanceDepth) -> MaintenanceStats {
        let before = self.tree.stats();
        match depth {
            MaintenanceDepth::Lazy => self.tree.flush(),
            MaintenanceDepth::Full => self.tree.compact_all(),
        }
        let after = self.tree.stats();
        let entries_before = before.run_entries + before.memtable_entries;
        MaintenanceStats {
            reclaimed: entries_before.saturating_sub(after.run_entries + after.memtable_entries),
            bytes_wiped: before.run_bytes.saturating_sub(after.run_bytes),
        }
    }

    fn purge_unit(&mut self, unit_id: u64) -> usize {
        // A run rewrite cannot keep "just the live version": any rows of
        // the unit still live are removed with its retained copies, so
        // account for them before the purge desyncs the live counter.
        let live_of_unit = self
            .tree
            .range_units(0, u64::MAX)
            .iter()
            .filter(|(_, unit, _)| *unit == unit_id)
            .count() as u64;
        self.live = self.live.saturating_sub(live_of_unit);
        self.tree.purge_unit(unit_id)
    }

    fn sanitize(&mut self, _passes: u32) {
        // Runs are rewritten whole by compaction/purge; there is no
        // sub-run remanence layer to overwrite.
    }

    fn checkpoint(&mut self) {
        self.tree.flush();
    }

    fn recycle_logs(&mut self) -> usize {
        0 // no WAL: the runs are the log, recycled by compaction
    }

    fn scan_physical(&self, needle: &[u8]) -> ForensicFindings {
        ForensicFindings {
            lsm_entries: self.tree.scan_physical(needle),
            ..ForensicFindings::default()
        }
    }

    fn stats(&self) -> BackendStats {
        let s = self.tree.stats();
        let total = (s.run_entries + s.memtable_entries) as u64;
        BackendStats {
            live_entries: self.live,
            dead_entries: total.saturating_sub(self.live),
            disk_bytes: s.run_bytes,
            drive_bytes: s.run_bytes,
            index_bytes: 0,
            log_bytes: 0,
            segments: s.runs,
        }
    }

    fn durable_snapshot(&self) -> DurableSnapshot {
        DurableSnapshot::Lsm(self.tree.manifest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> Vec<Box<dyn StorageBackend>> {
        vec![
            Box::new(HeapDb::default_single()),
            Box::new(LsmBackend::default_single()),
        ]
    }

    #[test]
    fn workload_surface_parity() {
        for mut b in both() {
            let kind = b.kind();
            b.insert(1, 100, b"alpha").unwrap();
            b.insert(2, 200, b"beta").unwrap();
            assert_eq!(
                b.insert(1, 100, b"dup"),
                Err(StorageError::DuplicateKey(1)),
                "{kind:?}"
            );
            assert_eq!(b.read(1, false).unwrap(), b"alpha", "{kind:?}");
            b.update(1, b"alpha-v2").unwrap();
            assert_eq!(b.read(1, false).unwrap(), b"alpha-v2", "{kind:?}");
            assert_eq!(b.unit_of(2), Some(200), "{kind:?}");
            b.delete(2).unwrap();
            assert_eq!(b.read(2, false), None, "{kind:?}");
            assert_eq!(
                b.update(2, b"x"),
                Err(StorageError::KeyNotFound(2)),
                "{kind:?}"
            );
            assert_eq!(b.delete(2), Err(StorageError::KeyNotFound(2)), "{kind:?}");
            // Reinsert after delete works on both substrates.
            b.insert(2, 201, b"beta-2").unwrap();
            assert_eq!(b.unit_of(2), Some(201), "{kind:?}");
        }
    }

    #[test]
    fn hidden_attribute_parity() {
        for mut b in both() {
            let kind = b.kind();
            b.insert(7, 70, b"pii").unwrap();
            b.set_hidden(7, true).unwrap();
            assert_eq!(b.read(7, false), None, "{kind:?}: hidden from reads");
            assert_eq!(
                b.read(7, true).unwrap(),
                b"pii",
                "{kind:?}: controller view"
            );
            assert_eq!(b.unit_of(7), Some(70), "{kind:?}: unit still resolvable");
            // Updates preserve the hidden attribute, as SQL UPDATE would.
            b.update(7, b"pii-v2").unwrap();
            assert_eq!(b.read(7, false), None, "{kind:?}");
            b.set_hidden(7, false).unwrap();
            assert_eq!(b.read(7, false).unwrap(), b"pii-v2", "{kind:?}: restored");
        }
    }

    #[test]
    fn seq_scan_skips_deleted_and_hidden() {
        for mut b in both() {
            let kind = b.kind();
            b.insert(1, 10, b"a").unwrap();
            b.insert(2, 20, b"b").unwrap();
            b.insert(3, 30, b"c").unwrap();
            b.delete(2).unwrap();
            b.set_hidden(3, true).unwrap();
            let mut seen = Vec::new();
            b.seq_scan(&mut |k, u, p| seen.push((k, u, p.to_vec())));
            assert_eq!(seen, vec![(1, 10, b"a".to_vec())], "{kind:?}");
        }
    }

    #[test]
    fn erasure_contract_holds_on_both_backends() {
        for mut b in both() {
            let kind = b.kind();
            b.insert(1, 100, b"erase-contract-target").unwrap();
            // Data at rest first: an LSM delete before any flush would
            // supersede the value in the memtable itself.
            b.checkpoint();
            b.delete(1).unwrap();
            b.checkpoint();
            assert!(
                b.scan_physical(b"erase-contract-target").online(),
                "{kind:?}: logical delete must physically retain"
            );
            b.maintain(MaintenanceDepth::Full);
            b.purge_unit(100);
            b.sanitize(3);
            b.checkpoint();
            let f = b.scan_physical(b"erase-contract-target");
            assert!(!f.any(), "{kind:?}: {}", f.describe());
        }
    }

    #[test]
    fn stats_track_live_and_dead() {
        for mut b in both() {
            let kind = b.kind();
            for i in 0..20u64 {
                b.insert(i, i, &[0x5A; 32]).unwrap();
            }
            for i in 0..5u64 {
                b.delete(i).unwrap();
            }
            b.checkpoint();
            let s = b.stats();
            assert_eq!(s.live_entries, 15, "{kind:?}");
            assert!(s.dead_entries >= 5, "{kind:?}: {s:?}");
            assert!(s.disk_bytes > 0, "{kind:?}");
            assert!(s.segments > 0, "{kind:?}");
            let m = b.maintain(MaintenanceDepth::Full);
            assert!(m.reclaimed >= 5, "{kind:?}: {m:?}");
            assert_eq!(b.stats().dead_entries, 0, "{kind:?}");
        }
    }

    #[test]
    fn lsm_purge_of_live_unit_keeps_stats_in_sync() {
        let mut b = LsmBackend::default_single();
        b.insert(1, 100, b"unit-a-live").unwrap();
        b.insert(2, 200, b"unit-b-live").unwrap();
        b.checkpoint();
        // Purging a still-live unit removes its rows on the LSM (a run
        // rewrite keeps nothing); the live counter must follow.
        assert!(b.purge_unit(100) > 0);
        assert_eq!(b.read(1, false), None);
        assert_eq!(b.stats().live_entries, 1);
        assert_eq!(b.read(2, false).unwrap(), b"unit-b-live");
    }

    #[test]
    fn lazy_maintenance_is_cheaper_than_full() {
        // Same mutation stream; the lazy pass must charge less simulated
        // time than the full pass on both substrates.
        for kind in BackendKind::ALL {
            let mk = |depth: MaintenanceDepth| -> datacase_sim::time::Dur {
                let clock = SimClock::commodity();
                let meter = Arc::new(Meter::new());
                let mut b: Box<dyn StorageBackend> = match kind {
                    BackendKind::Heap => Box::new(HeapDb::new(
                        crate::heap::HeapConfig::default(),
                        clock.clone(),
                        meter,
                    )),
                    BackendKind::Lsm => {
                        Box::new(LsmBackend::new(LsmConfig::default(), clock.clone(), meter))
                    }
                };
                for i in 0..300u64 {
                    b.insert(i, i, &[1u8; 64]).unwrap();
                }
                for i in 0..100u64 {
                    b.delete(i).unwrap();
                }
                let t0 = clock.now();
                b.maintain(depth);
                clock.now().since(t0)
            };
            let lazy = mk(MaintenanceDepth::Lazy);
            let full = mk(MaintenanceDepth::Full);
            assert!(lazy <= full, "{kind:?}: lazy {lazy:?} vs full {full:?}");
        }
    }
}
