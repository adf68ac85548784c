//! LSM-tree storage engine with tombstone deletes (Cassandra-style).
//!
//! The paper's introduction motivates Data-CASE with exactly this engine
//! family: "adopting logical deletes as in Cassandra — inserts a tombstone
//! when data is deleted — can be efficient", yet "using delete markers like
//! tombstones in LSM trees may lead to data being, illegally, physically
//! retained for a long duration" (Lethe, \[62\]). This module reproduces the
//! mechanics: deletes are O(1) tombstone writes; shadowed versions survive
//! in older runs until compaction; the forensic scanner finds them.

pub mod bloom;
pub mod memtable;
pub mod sstable;

use std::collections::HashMap;
use std::sync::Arc;

use datacase_sim::fault::{CrashPoint, FaultInjector};
use datacase_sim::{Meter, SimClock};

pub use memtable::{Entry, Memtable};
pub use sstable::SsTable;

/// LSM engine configuration.
#[derive(Clone, Debug)]
pub struct LsmConfig {
    /// Flush the memtable when it reaches this many bytes.
    pub memtable_bytes: usize,
    /// Compact a level when it accumulates this many runs.
    pub runs_per_level: usize,
    /// Crash-injection plane shared with the engine (chaos harness).
    pub fault: FaultInjector,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 64 * 1024,
            runs_per_level: 4,
            fault: FaultInjector::disabled(),
        }
    }
}

/// The tree's durable run set: what survives a crash.
///
/// The manifest is the LSM analogue of the heap's retained WAL — a
/// consistent snapshot of every on-disk run plus the highest sequence
/// number they contain. It is committed by whole-value assignment only
/// *after* a flush, compaction, or unit purge completes, so a crash in
/// the middle of any of those leaves the manifest pointing at the
/// previous, fully-written run set (in-flight merge outputs are simply
/// garbage, exactly like half-written SSTable files under a real
/// manifest). Memtable contents are volatile and are *not* covered —
/// recovering them is the engine layer's job (WAL-style replay).
///
/// Runs are shared with the live tree via `Arc`, so committing a
/// manifest never copies run data.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// The levelled run set; same shape as the live tree's levels.
    pub levels: Vec<Vec<Arc<SsTable>>>,
    /// Highest sequence number appearing in any manifest run.
    pub seq: u64,
}

impl RunManifest {
    /// Total number of runs across levels.
    pub fn runs(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// LSM statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LsmStats {
    /// Total runs across levels.
    pub runs: usize,
    /// Entries in the memtable.
    pub memtable_entries: usize,
    /// Total entries across runs (including shadowed + tombstones).
    pub run_entries: usize,
    /// Live tombstones across runs.
    pub tombstones: usize,
    /// Total bytes across runs.
    pub run_bytes: u64,
}

/// A tiered LSM tree: memtable + levels of sorted runs.
pub struct LsmTree {
    config: LsmConfig,
    memtable: Memtable,
    /// levels[0] holds the newest runs; within a level, later = newer.
    levels: Vec<Vec<Arc<SsTable>>>,
    seq: u64,
    /// Last committed durable run set (see [`RunManifest`]).
    durable: RunManifest,
    clock: SimClock,
    meter: Arc<Meter>,
}

impl std::fmt::Debug for LsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTree")
            .field("levels", &self.levels.len())
            .field("runs", &self.stats().runs)
            .finish()
    }
}

impl LsmTree {
    /// An empty tree.
    pub fn new(config: LsmConfig, clock: SimClock, meter: Arc<Meter>) -> LsmTree {
        LsmTree {
            config,
            memtable: Memtable::new(),
            levels: vec![Vec::new()],
            seq: 0,
            durable: RunManifest::default(),
            clock,
            meter,
        }
    }

    /// Rebuild a tree from a durable [`RunManifest`] (crash recovery):
    /// the manifest's runs become the levels, the memtable starts empty,
    /// and sequence numbers continue from the highest durable one.
    /// Reached through [`recover_backend`](crate::backend::recover_backend).
    pub(crate) fn recover(
        manifest: RunManifest,
        config: LsmConfig,
        clock: SimClock,
        meter: Arc<Meter>,
    ) -> LsmTree {
        let mut levels = manifest.levels.clone();
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        LsmTree {
            config,
            memtable: Memtable::new(),
            levels,
            seq: manifest.seq,
            durable: manifest,
            clock,
            meter,
        }
    }

    /// The last committed durable run set. Cheap: runs are `Arc`-shared.
    pub fn manifest(&self) -> RunManifest {
        self.durable.clone()
    }

    /// Commit the current run set as durable. Called only at the *end* of
    /// a flush / compaction / purge, so an injected crash inside those
    /// operations leaves the previous manifest in force.
    fn commit_manifest(&mut self) {
        self.durable = RunManifest {
            levels: self.levels.clone(),
            seq: self.seq,
        };
    }

    /// A tree with default config on a fresh clock/meter.
    pub fn default_single() -> LsmTree {
        LsmTree::new(
            LsmConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        )
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// PUT a key/value.
    pub fn put(&mut self, key: u64, unit_id: u64, value: &[u8]) {
        let seq = self.next_seq();
        let cost = self.clock.model().tuple_cpu + self.clock.model().log_append;
        self.clock.charge_nanos(cost);
        self.memtable.put(key, seq, unit_id, value.to_vec());
        self.maybe_flush();
    }

    /// DELETE: insert a tombstone (O(1) — the whole point, and the hazard).
    pub fn delete(&mut self, key: u64, unit_id: u64) {
        let seq = self.next_seq();
        let cost = self.clock.model().tuple_cpu + self.clock.model().log_append;
        self.clock.charge_nanos(cost);
        self.memtable.delete(key, seq, unit_id);
        self.maybe_flush();
    }

    /// GET: memtable first, then runs newest → oldest, bloom-gated.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        match self.entry(key)? {
            Entry::Put { value, .. } => Some(value),
            Entry::Tombstone { .. } => None,
        }
    }

    /// The newest physical entry for `key` — a value version *or* a
    /// tombstone — at point-read cost. Callers that need the unit id or
    /// must distinguish "tombstoned" from "never written" use this.
    pub fn entry(&mut self, key: u64) -> Option<Entry> {
        let model = self.clock.model().clone();
        self.clock.charge_nanos(model.tuple_cpu);
        if let Some(e) = self.memtable.get(key) {
            return Some(e.clone());
        }
        for level in &self.levels {
            for run in level.iter().rev() {
                self.clock.charge_nanos(model.bloom_probe);
                // The meter has no bloom-probe field: bloom probes count
                // as index probes.
                Meter::bump(&self.meter.index_probes, 1);
                if !run.might_contain(key) {
                    continue;
                }
                self.clock
                    .charge_nanos(model.page_read_cached + model.tuple_cpu);
                Meter::bump(&self.meter.pages_read_cached, 1);
                if let Some(e) = run.get(key) {
                    return Some(e.clone());
                }
            }
        }
        None
    }

    /// Read-your-writes check used by callers that need key existence.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    fn maybe_flush(&mut self) {
        if self.memtable.bytes() >= self.config.memtable_bytes {
            self.flush();
        }
    }

    /// Flush the memtable into a new level-0 run.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries = self.memtable.drain();
        let bytes: u64 = entries.iter().map(|(_, e)| e.size() as u64).sum();
        self.clock.charge_nanos(
            self.clock.model().page_write_disk + self.clock.model().compaction_per_byte * bytes,
        );
        Meter::bump(&self.meter.pages_written, 1);
        let run = SsTable::build(entries);
        self.levels[0].push(Arc::new(run));
        // The new run is durable before any compaction it triggers: a
        // crash mid-compaction must not lose the flushed data.
        self.commit_manifest();
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() >= self.config.runs_per_level {
                self.compact_level(level);
            }
            level += 1;
        }
    }

    /// Merge all runs of `level` into one run in `level + 1`.
    ///
    /// Tombstones are dropped only when merging into the **last** level
    /// (nothing older can hide under them) — the rule whose consequence is
    /// long physical retention of "deleted" data.
    fn compact_level(&mut self, level: usize) {
        self.config.fault.hit(CrashPoint::Compaction);
        let runs: Vec<Arc<SsTable>> = std::mem::take(&mut self.levels[level]);
        if self.levels.len() == level + 1 {
            self.levels.push(Vec::new());
        }
        let into_last = self.levels.len() == level + 2 && self.levels[level + 1].is_empty();
        let merged = SsTable::merge(&runs, into_last);
        let bytes = merged.bytes();
        self.clock
            .charge_nanos(self.clock.model().compaction_per_byte * bytes);
        Meter::bump(&self.meter.compaction_bytes, bytes);
        self.levels[level + 1].push(Arc::new(merged));
        self.commit_manifest();
    }

    /// Force a full compaction: flush, then merge everything into one run,
    /// dropping tombstones and shadowed versions — the LSM grounding of
    /// physical deletion.
    pub fn compact_all(&mut self) {
        self.flush();
        self.config.fault.hit(CrashPoint::Compaction);
        let all: Vec<Arc<SsTable>> = self.levels.drain(..).flatten().collect();
        if all.is_empty() {
            self.levels.push(Vec::new());
            self.commit_manifest();
            return;
        }
        let merged = SsTable::merge(&all, true);
        let bytes = merged.bytes();
        self.clock
            .charge_nanos(self.clock.model().compaction_per_byte * bytes);
        Meter::bump(&self.meter.compaction_bytes, bytes);
        self.levels.clear();
        self.levels.push(Vec::new());
        self.levels.push(vec![Arc::new(merged)]);
        self.commit_manifest();
    }

    /// Scan every physical byte of every run for `needle` — the forensic
    /// view. Finds shadowed versions and payloads under tombstones.
    pub fn scan_physical(&self, needle: &[u8]) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|run| run.scan_physical(needle))
            .sum::<usize>()
            + self.memtable.scan_physical(needle)
    }

    /// Engine statistics.
    pub fn stats(&self) -> LsmStats {
        let mut s = LsmStats {
            memtable_entries: self.memtable.len(),
            ..LsmStats::default()
        };
        for run in self.levels.iter().flatten() {
            s.runs += 1;
            s.run_entries += run.len();
            s.tombstones += run.tombstones();
            s.run_bytes += run.bytes();
        }
        s
    }

    /// Range scan of live keys in `[lo, hi]`, merging levels.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
        self.range_units(lo, hi)
            .into_iter()
            .map(|(k, _, v)| (k, v))
            .collect()
    }

    /// Range scan of live keys in `[lo, hi]` carrying each entry's unit id
    /// (the compliance layer scans by unit).
    pub fn range_units(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64, Vec<u8>)> {
        use std::collections::BTreeMap;
        // (seq, unit, entry) per key; keep the newest.
        type Best = (u64, u64, Option<Vec<u8>>);
        let mut best: BTreeMap<u64, Best> = BTreeMap::new();
        let mut consider = |key: u64, seq: u64, unit: u64, val: Option<Vec<u8>>| {
            let slot = best.entry(key).or_insert((0, 0, None));
            if seq >= slot.0 {
                *slot = (seq, unit, val);
            }
        };
        for (k, e) in self.memtable.range(lo, hi) {
            match e {
                Entry::Put {
                    seq,
                    unit_id,
                    value,
                } => consider(k, *seq, *unit_id, Some(value.clone())),
                Entry::Tombstone { seq, unit_id } => consider(k, *seq, *unit_id, None),
            }
        }
        let model = self.clock.model().clone();
        for level in &self.levels {
            for run in level {
                self.clock.charge_nanos(model.page_read_cached);
                for (k, e) in run.range(lo, hi) {
                    match e {
                        Entry::Put {
                            seq,
                            unit_id,
                            value,
                        } => consider(k, *seq, *unit_id, Some(value.clone())),
                        Entry::Tombstone { seq, unit_id } => consider(k, *seq, *unit_id, None),
                    }
                }
            }
        }
        best.into_iter()
            .filter_map(|(k, (_, u, v))| v.map(|v| (k, u, v)))
            .collect()
    }

    /// Rewrite every run dropping any entry of `unit` (the LSM
    /// "sanitisation" for permanent deletion). Expensive: full rewrite.
    /// Returns the entries removed and how many of the unit's keys were
    /// live, i.e. had a put as their newest entry (a key's entries all
    /// belong to one unit).
    pub fn purge_unit(&mut self, unit_id: u64) -> (usize, usize) {
        self.flush();
        self.config.fault.hit(CrashPoint::PurgeUnit);
        let mut purged = 0;
        // The unit's keys → (seq, is a put) of the newest entry seen.
        let mut newest: HashMap<u64, (u64, bool)> = HashMap::new();
        for level in &mut self.levels {
            for run in level.iter_mut() {
                for (key, e) in run.range(0, u64::MAX) {
                    if e.unit_id() == unit_id {
                        let slot = newest.entry(key).or_insert((0, false));
                        if e.seq() >= slot.0 {
                            *slot = (e.seq(), !e.is_tombstone());
                        }
                    }
                }
                let (new_run, removed) = run.without_unit(unit_id);
                purged += removed;
                *run = Arc::new(new_run);
            }
        }
        let live = newest.values().filter(|&&(_, put)| put).count();
        let total_bytes: u64 = self.levels.iter().flatten().map(|r| r.bytes()).sum();
        self.clock
            .charge_nanos(self.clock.model().compaction_per_byte * total_bytes);
        self.commit_manifest();
        (purged, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_sim::check::check;

    fn mk() -> LsmTree {
        LsmTree::default_single()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut t = mk();
        t.put(1, 1, b"one");
        t.put(2, 2, b"two");
        assert_eq!(t.get(1).unwrap(), b"one");
        assert_eq!(t.get(2).unwrap(), b"two");
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn tombstone_hides_value() {
        let mut t = mk();
        t.put(1, 1, b"visible");
        t.delete(1, 1);
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn newer_version_wins_across_flushes() {
        let mut t = mk();
        t.put(1, 1, b"old");
        t.flush();
        t.put(1, 1, b"new");
        assert_eq!(t.get(1).unwrap(), b"new");
        t.flush();
        assert_eq!(t.get(1).unwrap(), b"new");
    }

    #[test]
    fn deleted_data_physically_retained_until_compaction() {
        let mut t = mk();
        t.put(1, 1, b"retained-pii");
        t.flush();
        t.delete(1, 1);
        t.flush();
        assert_eq!(t.get(1), None, "logically deleted");
        assert!(
            t.scan_physical(b"retained-pii") > 0,
            "Lethe's observation: bytes persist under the tombstone"
        );
        t.compact_all();
        assert_eq!(
            t.scan_physical(b"retained-pii"),
            0,
            "full compaction finally drops the shadowed value"
        );
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn tombstones_dropped_only_at_last_level() {
        let mut t = mk();
        t.put(1, 1, b"x");
        t.delete(1, 1);
        t.flush();
        let stats_before = t.stats();
        assert!(stats_before.tombstones > 0);
        t.compact_all();
        assert_eq!(t.stats().tombstones, 0);
    }

    #[test]
    fn automatic_flush_and_compaction_by_size() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_bytes: 1024,
                runs_per_level: 2,
                ..LsmConfig::default()
            },
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        for i in 0..500u64 {
            t.put(i, i, &[0xAB; 64]);
        }
        let s = t.stats();
        assert!(s.runs >= 1, "flushes happened");
        for i in (0..500u64).step_by(83) {
            assert!(t.get(i).is_some(), "key {i}");
        }
    }

    #[test]
    fn range_merges_levels_and_respects_tombstones() {
        let mut t = mk();
        for i in 0..20u64 {
            t.put(i, i, format!("v{i}").as_bytes());
        }
        t.flush();
        t.delete(5, 5);
        t.put(7, 7, b"v7-new");
        let r = t.range(3, 8);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 4, 6, 7, 8]);
        let v7 = &r.iter().find(|(k, _)| *k == 7).unwrap().1;
        assert_eq!(v7, b"v7-new");
    }

    #[test]
    fn purge_unit_removes_all_traces() {
        let mut t = mk();
        t.put(1, 100, b"unit-100-pii");
        t.put(2, 200, b"unit-200-data");
        t.flush();
        t.delete(1, 100);
        let (purged, live) = t.purge_unit(100);
        assert!(purged > 0);
        assert_eq!(live, 0, "the unit's one key was deleted");
        assert_eq!(t.scan_physical(b"unit-100-pii"), 0);
        assert!(t.scan_physical(b"unit-200-data") > 0, "other units intact");
        assert_eq!(t.get(2).unwrap(), b"unit-200-data");
    }

    #[test]
    fn manifest_recovery_restores_flushed_state() {
        let mut t = mk();
        t.put(1, 1, b"durable-one");
        t.put(2, 2, b"durable-two");
        t.flush();
        t.delete(1, 1);
        t.flush();
        t.put(3, 3, b"volatile-unflushed"); // memtable only: lost on crash
        let manifest = t.manifest();
        assert!(manifest.runs() > 0);
        let mut r = LsmTree::recover(
            manifest,
            LsmConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        assert_eq!(r.get(1), None, "flushed tombstone survives");
        assert_eq!(r.get(2).unwrap(), b"durable-two");
        assert_eq!(r.get(3), None, "memtable contents are volatile");
        // Sequence numbers continue above every durable entry.
        r.put(2, 2, b"post-recovery");
        assert_eq!(r.get(2).unwrap(), b"post-recovery");
    }

    #[test]
    fn crash_mid_compaction_leaves_precompaction_manifest() {
        let fault = FaultInjector::armed(CrashPoint::Compaction, 1);
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_bytes: 256,
                runs_per_level: 2,
                fault: fault.clone(),
            },
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..200u64 {
                t.put(i, i, format!("compaction-victim-{i:03}").as_bytes());
            }
        }))
        .expect_err("small runs_per_level must trigger a compaction");
        assert!(crash
            .downcast_ref::<datacase_sim::fault::CrashSignal>()
            .is_some());
        assert!(fault.fired());
        // The manifest still holds the pre-compaction runs: every key
        // flushed before the crash is readable after recovery.
        let manifest = t.manifest();
        assert!(manifest.runs() >= 2, "uncompacted runs survive");
        let mut r = LsmTree::recover(
            manifest,
            LsmConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        let recovered = r.range(0, 200).len();
        assert!(recovered > 0, "flushed data survives the crash");
        for (k, v) in r.range(0, 200) {
            assert_eq!(v, format!("compaction-victim-{k:03}").as_bytes());
        }
    }

    #[test]
    fn purge_survives_manifest_recovery() {
        let mut t = mk();
        t.put(1, 100, b"purge-me-pii");
        t.put(2, 200, b"keep-me");
        t.flush();
        t.purge_unit(100);
        let mut r = LsmTree::recover(
            t.manifest(),
            LsmConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        assert_eq!(
            r.scan_physical(b"purge-me-pii"),
            0,
            "purged bytes must not resurrect through recovery"
        );
        assert_eq!(r.get(2).unwrap(), b"keep-me");
    }

    #[test]
    fn deletes_are_cheap_compared_to_heap_vacuum_full() {
        // Sanity on the cost asymmetry the paper's intro cites.
        let t0;
        {
            let mut t = mk();
            for i in 0..100u64 {
                t.put(i, i, &[1u8; 100]);
            }
            let start = t.clock.now();
            for i in 0..100u64 {
                t.delete(i, i);
            }
            t0 = t.clock.now().since(start);
        }
        assert!(t0.as_millis_f64() < 10.0, "tombstone deletes are fast");
    }

    #[test]
    fn lsm_matches_reference_map() {
        check("lsm_matches_reference_map", 32, |s| {
            let ops = s.vec(1..200, |s| {
                (
                    s.range(0u64..30),
                    s.bool(),
                    s.vec(1..30, |s| s.range(1u8..=255)),
                )
            });
            let mut t = LsmTree::new(
                LsmConfig {
                    memtable_bytes: 512,
                    runs_per_level: 2,
                    ..LsmConfig::default()
                },
                SimClock::commodity(),
                Arc::new(Meter::new()),
            );
            let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
            for (key, is_put, payload) in ops {
                if is_put {
                    t.put(key, key, &payload);
                    model.insert(key, payload);
                } else {
                    t.delete(key, key);
                    model.remove(&key);
                }
            }
            for key in 0u64..30 {
                assert_eq!(t.get(key), model.get(&key).cloned(), "key {}", key);
            }
            let live = t.range(0, 30);
            assert_eq!(live.len(), model.len());
        });
    }
}
