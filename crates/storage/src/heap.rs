//! The PostgreSQL-style heap engine.
//!
//! Mechanics reproduced faithfully because the paper's Figure 4a depends on
//! them:
//!
//! * `DELETE` stamps `xmax` — the tuple's bytes stay on the page;
//! * scans and index probes pay for every dead version they skip, so
//!   deletes *slow down the other 80 % of the workload* until vacuumed;
//! * `VACUUM` reclaims dead tuples in place (and wipes their bytes);
//! * `VACUUM FULL` rewrites the table into fresh pages, zeroes the old
//!   ones (leaving drive-level remanence), and rebuilds the index;
//! * the *hidden attribute* update implements reversible inaccessibility —
//!   and, being an MVCC update, it bloats the table exactly like the
//!   "Tombstones (Indexing)" line in Figure 4a.

use std::sync::Arc;

use datacase_crypto::sector::SectorCipher;
use datacase_crypto::CryptoBackend;
use datacase_sim::fault::{CrashPoint, FaultInjector};
use datacase_sim::{Meter, SimClock};

use crate::backend::{BackendStats, DurableSnapshot, MaintenanceDepth, StorageBackend};
use crate::btree::BTreeIndex;
use crate::buffer::BufferPool;
use crate::disk::Disk;
use crate::error::{Result, StorageError};
use crate::forensic::ForensicFindings;
use crate::fsm::FreeSpaceMap;
use crate::page::{zero_image, Page, SlotState, LP_SIZE, MAX_TUPLE, PAGE_SIZE};
use crate::tuple::{self, Tid, TupleHeader, FLAG_HIDDEN};
use crate::txn::TxnManager;
use crate::wal::{Wal, WalRecord};

/// Heap engine configuration.
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// LUKS-style sector encryption passphrase (None = plaintext disk).
    pub disk_passphrase: Option<Vec<u8>>,
    /// Which AES implementation the sector cipher runs
    /// ([`CryptoBackend::Auto`] detects hardware AES at construction,
    /// `Software` forces the fallback; per-instance; ciphertext bytes
    /// are unchanged).
    pub crypto_backend: CryptoBackend,
    /// Crash-injection plane shared with the engine (chaos harness).
    /// The disabled default makes every tap a single `None` check.
    pub fault: FaultInjector,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            buffer_pages: 256,
            disk_passphrase: None,
            crypto_backend: CryptoBackend::Auto,
            fault: FaultInjector::disabled(),
        }
    }
}

/// The heap database: one table + primary-key B+tree + WAL + buffer pool.
///
/// ```
/// use datacase_storage::backend::{MaintenanceDepth, StorageBackend};
/// use datacase_storage::heap::HeapDb;
///
/// let mut db = HeapDb::default_single();
/// db.insert(1, 100, b"personal-data").unwrap();
/// db.delete(1).unwrap();
/// db.checkpoint();
/// // DELETE is logical: the bytes remain on the page…
/// assert!(!db.scan_physical(b"personal-data").file_pages.is_empty());
/// // …until VACUUM physically reclaims them.
/// db.maintain(MaintenanceDepth::Lazy);
/// db.checkpoint();
/// assert!(db.scan_physical(b"personal-data").file_pages.is_empty());
/// ```
pub struct HeapDb {
    disk: Disk,
    buffer: BufferPool,
    pages: Vec<u32>,
    retired_pages: Vec<u32>,
    fsm: FreeSpaceMap,
    index: BTreeIndex,
    txn: TxnManager,
    wal: Wal,
    clock: SimClock,
    meter: Arc<Meter>,
    config: HeapConfig,
    live: u64,
    dead: u64,
    /// Visibility-map analogue: table positions known to hold dead tuples.
    /// VACUUM visits only these pages and skips the all-visible rest,
    /// exactly like PostgreSQL's visibility map.
    dead_pages: std::collections::BTreeSet<u32>,
}

impl std::fmt::Debug for HeapDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapDb")
            .field("pages", &self.pages.len())
            .field("retired", &self.retired_pages.len())
            .field("free", &self.disk.free_len())
            .field("live", &self.live)
            .field("dead", &self.dead)
            .finish()
    }
}

impl HeapDb {
    /// A fresh heap with the given config, clock and meter.
    pub fn new(config: HeapConfig, clock: SimClock, meter: Arc<Meter>) -> HeapDb {
        let disk = match &config.disk_passphrase {
            // The KDF and the AES key schedule run once here; every page
            // the disk encrypts afterwards reuses the expanded schedule
            // through the whole-block fast path.
            Some(pass) => Disk::encrypted(
                clock.clone(),
                meter.clone(),
                SectorCipher::from_passphrase(pass, datacase_crypto::aes::KeySize::Aes256)
                    .with_backend(config.crypto_backend),
            ),
            None => Disk::new(clock.clone(), meter.clone()),
        };
        HeapDb {
            buffer: BufferPool::new(config.buffer_pages, clock.clone(), meter.clone()),
            disk,
            pages: Vec::new(),
            retired_pages: Vec::new(),
            fsm: FreeSpaceMap::new(),
            index: BTreeIndex::new(clock.clone(), meter.clone()),
            txn: TxnManager::new(),
            wal: Wal::new(clock.clone(), meter.clone()),
            clock,
            meter,
            config,
            live: 0,
            dead: 0,
            dead_pages: std::collections::BTreeSet::new(),
        }
    }

    /// A heap with default config on a fresh clock/meter (tests, examples).
    pub fn default_single() -> HeapDb {
        HeapDb::new(
            HeapConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        )
    }

    fn commit(&mut self) {
        self.clock.charge_nanos(self.clock.model().txn_overhead);
        self.wal.flush();
    }

    /// Append a WAL record through the crash-injection tap: an armed
    /// `wal-append` crash fires *before* the record is durable, so
    /// recovery replays a log that never saw it.
    fn log(&mut self, rec: WalRecord) {
        self.config.fault.hit(CrashPoint::WalAppend);
        self.wal.append(rec);
    }

    fn disk_page(&self, pos: u32) -> u32 {
        self.pages[pos as usize]
    }

    /// Find the visible version of `key` (hidden versions included).
    fn find_visible(&mut self, key: u64) -> Option<(Tid, TupleHeader)> {
        let snap = self.txn.snapshot();
        let candidates = self.index.get(key);
        let mut found = None;
        for tid in candidates {
            let disk_id = self.disk_page(tid.page);
            let page = self.buffer.page(&mut self.disk, disk_id);
            let Some(bytes) = page.tuple(tid.slot) else {
                continue;
            };
            let (header, _) = tuple::decode(bytes);
            if snap.visible(&header) {
                self.clock.charge_nanos(self.clock.model().tuple_cpu);
                Meter::bump(&self.meter.tuples_scanned, 1);
                found = Some((tid, header));
                break;
            } else {
                self.clock.charge_nanos(self.clock.model().dead_tuple_skip);
                Meter::bump(&self.meter.dead_tuples_skipped, 1);
            }
        }
        found
    }

    fn place_tuple(&mut self, encoded: &[u8]) -> Result<Tid> {
        if encoded.len() > MAX_TUPLE {
            return Err(StorageError::TupleTooLarge {
                size: encoded.len(),
                max: MAX_TUPLE,
            });
        }
        let need = encoded.len() + LP_SIZE;
        let pos = match self.fsm.find(need) {
            Some(p) => p,
            None => {
                let disk_id = self.disk.allocate();
                self.pages.push(disk_id);
                let p = self.fsm.add_page(Page::new().free_space());
                debug_assert_eq!(p as usize, self.pages.len() - 1);
                p
            }
        };
        let disk_id = self.disk_page(pos);
        let page = self.buffer.page_mut(&mut self.disk, disk_id);
        let slot = page
            .insert(encoded)
            .expect("FSM guaranteed space for tuple");
        let free = page.free_space();
        self.fsm.set(pos, free);
        Ok(Tid { page: pos, slot })
    }

    /// `flags`: `Some(bits)` sets the new version's flags explicitly;
    /// `None` inherits the old version's flags (a plain UPDATE does not
    /// touch the hidden attribute).
    fn new_version(&mut self, key: u64, payload: &[u8], flags: Option<u16>) -> Result<Tid> {
        if tuple::TUPLE_HEADER + payload.len() > MAX_TUPLE {
            return Err(StorageError::TupleTooLarge {
                size: tuple::TUPLE_HEADER + payload.len(),
                max: MAX_TUPLE,
            });
        }
        let Some((old_tid, mut old_header)) = self.find_visible(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        let xid = self.txn.begin();
        // Stamp xmax on the old version (in place).
        old_header.xmax = xid;
        let disk_id = self.disk_page(old_tid.page);
        let page = self.buffer.page_mut(&mut self.disk, disk_id);
        let bytes = page.tuple_mut(old_tid.slot).expect("old version present");
        tuple::patch_header(bytes, &old_header);
        self.dead += 1;
        self.dead_pages.insert(old_tid.page);
        // Insert the new version.
        let mut header = TupleHeader::new(xid, old_header.unit_id, key);
        header.flags = flags.unwrap_or(old_header.flags);
        let encoded = tuple::encode(&header, payload);
        let tid = self.place_tuple(&encoded)?;
        self.index.insert(key, tid);
        self.log(WalRecord::Update {
            xid,
            key,
            unit_id: old_header.unit_id,
            payload: payload.into(),
            hidden: header.flags & FLAG_HIDDEN != 0,
        });
        self.commit();
        Ok(tid)
    }

    /// Sequential scan over visible, non-hidden tuples.
    pub fn seq_scan(&mut self, mut f: impl FnMut(u64, u64, &[u8])) {
        let snap = self.txn.snapshot();
        let model = self.clock.model().clone();
        for pos in 0..self.pages.len() {
            let disk_id = self.pages[pos];
            let page = self.buffer.page_seq(&mut self.disk, disk_id);
            // Collect to avoid borrowing page across the callback.
            let mut rows: Vec<(u64, u64, Vec<u8>)> = Vec::new();
            let mut live_seen = 0u64;
            let mut dead_seen = 0u64;
            for (slot, state) in page.slots() {
                if state != SlotState::Normal {
                    continue;
                }
                let bytes = page.tuple(slot).expect("normal slot");
                let (header, payload) = tuple::decode(bytes);
                if snap.visible(&header) && !header.is_hidden() {
                    live_seen += 1;
                    rows.push((header.key, header.unit_id, payload.to_vec()));
                } else {
                    dead_seen += 1;
                }
            }
            self.clock
                .charge_nanos(model.tuple_cpu * live_seen + model.dead_tuple_skip * dead_seen);
            Meter::bump(&self.meter.tuples_scanned, live_seen);
            Meter::bump(&self.meter.dead_tuples_skipped, dead_seen);
            for (key, unit, payload) in rows {
                f(key, unit, &payload);
            }
        }
    }

    /// Lazy VACUUM: reclaim dead tuples in place, clean index entries.
    /// Only pages flagged in the visibility map are visited (all-visible
    /// pages are skipped for free, as PostgreSQL does).
    fn vacuum(&mut self) {
        let horizon = self.txn.vacuum_horizon();
        let xid = self.txn.begin();
        let mut reclaimed = 0;
        let candidates: Vec<u32> = std::mem::take(&mut self.dead_pages).into_iter().collect();
        for pos in candidates {
            let pos = pos as usize;
            let disk_id = self.pages[pos];
            // First pass: find dead versions, remember their index entries.
            let mut to_remove: Vec<(u64, Tid)> = Vec::new();
            {
                let page = self.buffer.page_seq(&mut self.disk, disk_id);
                for (slot, state) in page.slots() {
                    if state != SlotState::Normal {
                        continue;
                    }
                    let (header, _) = tuple::decode(page.tuple(slot).expect("normal"));
                    if horizon.dead_for_all(&header) {
                        to_remove.push((
                            header.key,
                            Tid {
                                page: pos as u32,
                                slot,
                            },
                        ));
                    }
                }
            }
            if to_remove.is_empty() {
                continue;
            }
            let page = self.buffer.page_mut(&mut self.disk, disk_id);
            for (_, tid) in &to_remove {
                page.mark_dead(tid.slot);
            }
            reclaimed += page.vacuum().0;
            let free = page.free_space();
            self.fsm.set(pos as u32, free);
            // Vacuum writes its cleaned pages back sequentially (ring
            // buffer), rather than leaving them for random write-back.
            let cleaned = self.buffer.page(&mut self.disk, disk_id);
            self.disk.write_page_seq(disk_id, cleaned.image());
            self.buffer.mark_clean(disk_id);
            for (key, tid) in to_remove {
                self.index.remove(key, tid);
            }
        }
        self.dead = self.dead.saturating_sub(reclaimed as u64);
        self.log(WalRecord::Vacuum { xid, full: false });
        self.commit();
    }

    /// VACUUM FULL: rewrite the table compactly into fresh pages, zero the
    /// old ones (their content survives only as drive remanence), rebuild
    /// the index. The old pages are retired, not freed: the drive takes
    /// them back only once [`sanitize`](StorageBackend::sanitize) has
    /// destroyed that remanence.
    fn vacuum_full(&mut self) {
        // Write through first: the rewrite must observe (and the zeroing
        // must physically overwrite) the real on-disk state.
        self.buffer.flush_all(&mut self.disk);
        let horizon = self.txn.vacuum_horizon();
        let xid = self.txn.begin();
        let old_pages = std::mem::take(&mut self.pages);
        self.fsm = FreeSpaceMap::new();
        self.index.clear();
        // Move live tuples into fresh pages as the scan meets them.
        let mut current = Page::new();
        let mut moved_bytes = 0u64;
        for &disk_id in &old_pages {
            let page = self.buffer.page_seq(&mut self.disk, disk_id);
            for (slot, state) in page.slots() {
                if state != SlotState::Normal {
                    continue;
                }
                let bytes = page.tuple(slot).expect("normal");
                let (header, _) = tuple::decode(bytes);
                if horizon.dead_for_all(&header) {
                    continue;
                }
                moved_bytes += bytes.len() as u64;
                let slot = match current.insert(bytes) {
                    Some(s) => s,
                    None => {
                        write_fresh_page(&mut self.disk, &mut self.pages, &mut self.fsm, &current);
                        current = Page::new();
                        current.insert(bytes).expect("fresh page fits tuple")
                    }
                };
                let pos = self.pages.len() as u32; // current page flushes at this position
                self.index.insert(header.key, Tid { page: pos, slot });
            }
        }
        if current.slot_count() > 0 {
            write_fresh_page(&mut self.disk, &mut self.pages, &mut self.fsm, &current);
        }
        Meter::bump(&self.meter.compaction_bytes, moved_bytes);
        self.clock
            .charge_nanos(self.clock.model().compaction_per_byte * moved_bytes);
        // Zero old pages (file-level erase; drive remanence persists).
        let zeros = zero_image();
        for &disk_id in &old_pages {
            self.buffer.discard(disk_id);
            self.disk.write_page(disk_id, &zeros);
        }
        self.retired_pages.extend(old_pages);
        self.dead = 0;
        self.dead_pages.clear();
        self.log(WalRecord::Vacuum { xid, full: true });
        self.commit();
    }

    /// Rebuild a heap from a WAL (crash recovery). Logical replay: inserts,
    /// updates and deletes are re-executed in LSN order. Reached through
    /// [`recover_backend`](crate::backend::recover_backend).
    pub(crate) fn recover(
        wal_records: Vec<WalRecord>,
        config: HeapConfig,
        clock: SimClock,
        meter: Arc<Meter>,
    ) -> HeapDb {
        let mut db = HeapDb::new(config, clock, meter);
        for rec in wal_records {
            match rec {
                WalRecord::Insert {
                    key,
                    unit_id,
                    payload,
                    ..
                } => {
                    let _ = db.insert(key, unit_id, &payload);
                }
                WalRecord::Update {
                    key,
                    payload,
                    hidden,
                    ..
                } => {
                    let flags = if hidden { FLAG_HIDDEN } else { 0 };
                    let _ = db.new_version(key, &payload, Some(flags));
                }
                WalRecord::Delete { key, .. } => {
                    let _ = db.delete(key);
                }
                WalRecord::Vacuum { full: true, .. } => {
                    db.vacuum_full();
                }
                WalRecord::Vacuum { full: false, .. } => {
                    db.vacuum();
                }
                WalRecord::Checkpoint => {}
            }
        }
        db.checkpoint();
        db
    }

    /// Simulate a crash: drop all cached (unflushed) pages.
    pub fn crash(&mut self) {
        self.buffer.crash();
    }
}

impl StorageBackend for HeapDb {
    /// INSERT: add a new record. Fails on a visible duplicate key.
    fn insert(&mut self, key: u64, unit_id: u64, payload: &[u8]) -> Result<()> {
        if self.find_visible(key).is_some() {
            return Err(StorageError::DuplicateKey(key));
        }
        let xid = self.txn.begin();
        let header = TupleHeader::new(xid, unit_id, key);
        let encoded = tuple::encode(&header, payload);
        let tid = self.place_tuple(&encoded)?;
        self.index.insert(key, tid);
        self.log(WalRecord::Insert {
            xid,
            key,
            unit_id,
            payload: payload.into(),
        });
        self.live += 1;
        self.commit();
        Ok(())
    }

    /// SELECT by key. Hidden versions return `None` unless `include_hidden`.
    fn read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>> {
        let (tid, header) = self.find_visible(key)?;
        if header.is_hidden() && !include_hidden {
            return None;
        }
        let disk_id = self.disk_page(tid.page);
        let page = self.buffer.page(&mut self.disk, disk_id);
        let (_, payload) = tuple::decode(page.tuple(tid.slot).expect("visible tuple"));
        Some(payload.to_vec())
    }

    /// UPDATE: write a new version of `key` (MVCC: the old one goes
    /// dead). Flags — including the hidden attribute — carry over, as a
    /// SQL UPDATE that does not mention the attribute would behave.
    fn update(&mut self, key: u64, payload: &[u8]) -> Result<()> {
        self.new_version(key, payload, None).map(|_| ())
    }

    /// DELETE: stamp `xmax`; bytes remain on the page until VACUUM.
    fn delete(&mut self, key: u64) -> Result<()> {
        let Some((tid, mut header)) = self.find_visible(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        let xid = self.txn.begin();
        header.xmax = xid;
        let disk_id = self.disk_page(tid.page);
        let page = self.buffer.page_mut(&mut self.disk, disk_id);
        let bytes = page.tuple_mut(tid.slot).expect("visible tuple");
        tuple::patch_header(bytes, &header);
        self.dead_pages.insert(tid.page);
        self.log(WalRecord::Delete {
            xid,
            key,
            unit_id: header.unit_id,
        });
        self.live = self.live.saturating_sub(1);
        self.dead += 1;
        self.commit();
        Ok(())
    }

    /// The *hidden attribute* update: reversible inaccessibility. Keeps the
    /// payload, sets/clears the flag — at MVCC-update cost and bloat.
    fn set_hidden(&mut self, key: u64, hidden: bool) -> Result<()> {
        let Some((tid, header)) = self.find_visible(key) else {
            return Err(StorageError::KeyNotFound(key));
        };
        let disk_id = self.disk_page(tid.page);
        let page = self.buffer.page(&mut self.disk, disk_id);
        let (_, payload) = tuple::decode(page.tuple(tid.slot).expect("visible"));
        let payload = payload.to_vec();
        let flags = if hidden {
            header.flags | FLAG_HIDDEN
        } else {
            header.flags & !FLAG_HIDDEN
        };
        self.new_version(key, &payload, Some(flags)).map(|_| ())
    }

    fn maintain(&mut self, depth: MaintenanceDepth) {
        match depth {
            MaintenanceDepth::Lazy => self.vacuum(),
            MaintenanceDepth::Full => self.vacuum_full(),
        }
    }

    /// Scrub one unit's WAL payloads (permanent deletion's log step).
    fn purge_unit(&mut self, unit_id: u64) -> usize {
        self.config.fault.hit(CrashPoint::PurgeUnit);
        self.wal.scrub_unit(unit_id)
    }

    /// Sanitise the drive: multi-pass overwrite of all current and retired
    /// pages' free regions and remanence. The table's live content is
    /// untouched (live pages are rewritten from their logical content).
    fn sanitize(&mut self, passes: u32) {
        self.checkpoint();
        // Retired pages: hard-wipe, then hand back to the drive — the
        // next rewrite (or table growth) reuses them.
        for disk_id in std::mem::take(&mut self.retired_pages) {
            self.disk.sanitize_and_release(disk_id, passes);
        }
        // Live pages: rewrite in place to destroy remanence of previous
        // generations, then sanitize-and-restore.
        for &disk_id in &self.pages {
            let page = self.buffer.page(&mut self.disk, disk_id);
            self.disk.sanitize_page(disk_id, passes);
            self.disk.write_page(disk_id, page.image());
            // The restore write must not itself create remanence of zeros —
            // it does not, since the sanitized state was all-zero.
        }
    }

    /// Checkpoint: flush dirty buffers so the disk matches the logical
    /// state the forensic scan reads. Recovery replays the WAL, not the
    /// pages.
    fn checkpoint(&mut self) {
        self.config.fault.hit(CrashPoint::Checkpoint);
        self.buffer.flush_all(&mut self.disk);
        self.wal.append(WalRecord::Checkpoint);
        self.wal.flush();
    }

    /// Recycle the WAL: drop everything before the latest checkpoint.
    /// The heap keeps no durable disk image to pair with the tail (ROADMAP
    /// item 3(b)), so after a recycle [`durable_snapshot`] holds the WAL
    /// tail alone and recovery rebuilds only what that tail replays: rows
    /// whose inserts were dropped are lost. Returns the number of records
    /// dropped.
    ///
    /// [`durable_snapshot`]: StorageBackend::durable_snapshot
    fn recycle_logs(&mut self) -> usize {
        match self.wal.last_checkpoint() {
            Some(lsn) => self.wal.truncate_before(lsn),
            None => 0,
        }
    }

    /// Pages and WAL as they are on disk, plus the drive's remanence.
    fn scan_physical(&self, needle: &[u8]) -> ForensicFindings {
        ForensicFindings {
            file_pages: self.disk.scan_raw(needle),
            wal_lsns: self.wal.scan(needle),
            remanent_pages: self.disk.scan_remanent(needle),
            ..ForensicFindings::default()
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            live_entries: self.live,
            dead_entries: self.dead,
            disk_bytes: (self.pages.len() * PAGE_SIZE) as u64,
            drive_bytes: self.disk.bytes(),
            index_bytes: self.index.size_bytes(),
            log_bytes: self.wal.bytes(),
            segments: self.pages.len(),
        }
    }

    /// The retained WAL records, in LSN order.
    fn durable_snapshot(&self) -> DurableSnapshot {
        DurableSnapshot::Heap(self.wal.iter().map(|(_, r)| r.clone()).collect())
    }
}

/// VACUUM FULL's output step: give `page` a sector of its own and make it
/// the table's next page.
fn write_fresh_page(disk: &mut Disk, pages: &mut Vec<u32>, fsm: &mut FreeSpaceMap, page: &Page) {
    let disk_id = disk.allocate();
    disk.write_page(disk_id, page.image());
    pages.push(disk_id);
    fsm.add_page(page.free_space());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::recover_backend;
    use crate::lsm::LsmConfig;
    use datacase_sim::check::check;

    fn mk() -> HeapDb {
        HeapDb::default_single()
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut db = mk();
        db.insert(1, 100, b"alice-data").unwrap();
        db.insert(2, 101, b"bob-data").unwrap();
        assert_eq!(db.read(1, false).unwrap(), b"alice-data");
        assert_eq!(db.read(2, false).unwrap(), b"bob-data");
        assert_eq!(db.read(3, false), None);
        assert_eq!(db.stats().live_entries, 2);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut db = mk();
        db.insert(1, 100, b"a").unwrap();
        assert_eq!(db.insert(1, 100, b"b"), Err(StorageError::DuplicateKey(1)));
    }

    #[test]
    fn delete_hides_from_reads_but_bytes_remain() {
        let mut db = mk();
        db.insert(1, 100, b"sensitive-payload").unwrap();
        db.checkpoint();
        db.delete(1).unwrap();
        assert_eq!(db.read(1, false), None);
        db.checkpoint();
        // DELETE leaves residual bytes on the page.
        assert!(
            !db.disk.scan_raw(b"sensitive-payload").is_empty(),
            "dead tuple bytes must persist before vacuum"
        );
        assert_eq!(db.stats().dead_entries, 1);
    }

    #[test]
    fn vacuum_reclaims_and_wipes() {
        let mut db = mk();
        db.insert(1, 100, b"sensitive-payload").unwrap();
        db.delete(1).unwrap();
        assert_eq!(db.stats().dead_entries, 1);
        db.vacuum();
        assert!(db.index.get(1).is_empty(), "index entry removed");
        db.checkpoint();
        assert!(
            db.disk.scan_raw(b"sensitive-payload").is_empty(),
            "vacuum wipes page residuals"
        );
        // But the WAL still remembers!
        assert!(
            !db.wal.scan(b"sensitive-payload").is_empty(),
            "WAL retains the payload (the paper's log-retention hazard)"
        );
        assert_eq!(db.stats().dead_entries, 0);
    }

    #[test]
    fn update_creates_dead_version() {
        let mut db = mk();
        db.insert(1, 100, b"version-one").unwrap();
        db.update(1, b"version-two").unwrap();
        assert_eq!(db.read(1, false).unwrap(), b"version-two");
        assert_eq!(db.stats().dead_entries, 1);
        db.checkpoint();
        assert!(
            !db.disk.scan_raw(b"version-one").is_empty(),
            "old version bytes persist until vacuum"
        );
        db.vacuum();
        db.checkpoint();
        assert!(db.disk.scan_raw(b"version-one").is_empty());
        assert_eq!(db.read(1, false).unwrap(), b"version-two");
    }

    #[test]
    fn hidden_attribute_is_reversible() {
        let mut db = mk();
        db.insert(1, 100, b"pii").unwrap();
        db.set_hidden(1, true).unwrap();
        assert_eq!(db.read(1, false), None, "hidden from normal reads");
        assert_eq!(
            db.read(1, true).unwrap(),
            b"pii",
            "controller still sees it"
        );
        db.set_hidden(1, false).unwrap();
        assert_eq!(db.read(1, false).unwrap(), b"pii", "restored");
        // Two hidden-flag updates = two dead versions (tombstone bloat).
        assert_eq!(db.stats().dead_entries, 2);
    }

    #[test]
    fn vacuum_full_compacts_and_zeroes_old_pages() {
        let mut db = mk();
        for i in 0..2000u64 {
            db.insert(i, i, format!("payload-{i:05}").as_bytes())
                .unwrap();
        }
        for i in 0..1000u64 {
            db.delete(i).unwrap();
        }
        let pages_before = db.stats().segments;
        assert_eq!(db.stats().dead_entries, 1000);
        db.vacuum_full();
        let s = db.stats();
        assert!(s.segments < pages_before, "table shrank");
        assert_eq!(s.dead_entries, 0);
        // Reads still work after index rebuild.
        for i in 1000..2000u64 {
            assert_eq!(
                db.read(i, false).unwrap(),
                format!("payload-{i:05}").as_bytes()
            );
        }
        for i in 0..1000u64 {
            assert_eq!(db.read(i, false), None);
        }
        // File-level residuals gone; drive remanence remains.
        assert!(db.disk.scan_raw(b"payload-00003").is_empty());
        assert!(
            !db.disk.scan_remanent(b"payload-00003").is_empty(),
            "vacuum full leaves drive remanence (needs sanitisation)"
        );
    }

    #[test]
    fn sanitize_destroys_remanence() {
        let mut db = mk();
        db.insert(1, 100, b"ghost-payload").unwrap();
        db.delete(1).unwrap();
        db.vacuum_full();
        assert!(!db.disk.scan_remanent(b"ghost-payload").is_empty());
        db.sanitize(3);
        assert!(db.disk.scan_remanent(b"ghost-payload").is_empty());
        assert!(db.disk.scan_raw(b"ghost-payload").is_empty());
    }

    #[test]
    fn erase_rounds_recycle_sanitised_sectors() {
        for passphrase in [None, Some(b"luks-pass".to_vec())] {
            let config = HeapConfig {
                disk_passphrase: passphrase,
                ..HeapConfig::default()
            };
            let mut db = HeapDb::new(config, SimClock::commodity(), Arc::new(Meter::new()));
            for i in 0..600u64 {
                db.insert(i, i, format!("resident-{i:05}").as_bytes())
                    .unwrap();
            }
            for round in 0..50u64 {
                let key = 1000 + round;
                db.insert(key, key, format!("transient-{round:03}").as_bytes())
                    .unwrap();
                db.delete(key).unwrap();
                db.vacuum_full();
                db.sanitize(3);
                // The drive holds the table plus the one rewrite behind it
                // — not every table ever written.
                let (drive, table) = (db.disk.len(), db.stats().segments);
                assert!(
                    drive <= 2 * table + 2,
                    "round {round}: {drive} sectors for a {table}-page table ({db:?})"
                );
                let needle = format!("transient-{round:03}");
                assert!(db.disk.scan_raw(needle.as_bytes()).is_empty());
                assert!(db.disk.scan_remanent(needle.as_bytes()).is_empty());
            }
            for i in (0..600u64).step_by(37) {
                assert_eq!(
                    db.read(i, false).unwrap(),
                    format!("resident-{i:05}").as_bytes()
                );
            }
            // Growth after the rewrites takes from the free list first.
            let before = db.disk.len();
            for i in 2000..2400u64 {
                db.insert(i, i, format!("late-{i:05}").as_bytes()).unwrap();
            }
            assert_eq!(db.disk.len(), before, "{db:?}");
            assert_eq!(db.read(2399, false).unwrap(), b"late-02399");
        }
    }

    #[test]
    fn strong_deletion_alone_keeps_its_ghosts() {
        // Without a sanitise pass the retired sectors still carry the
        // remanence that separates strong from permanent deletion, so no
        // rewrite may take them back.
        let mut db = mk();
        db.insert(1, 100, b"ghost-payload").unwrap();
        db.delete(1).unwrap();
        db.vacuum_full();
        for i in 2..400u64 {
            db.insert(i, i, &[7u8; 64]).unwrap();
        }
        db.vacuum_full();
        db.checkpoint();
        assert_eq!(db.disk.free_len(), 0);
        assert!(!db.disk.scan_remanent(b"ghost-payload").is_empty());
    }

    #[test]
    fn seq_scan_sees_only_visible_unhidden() {
        let mut db = mk();
        db.insert(1, 100, b"a").unwrap();
        db.insert(2, 101, b"b").unwrap();
        db.insert(3, 102, b"c").unwrap();
        db.delete(2).unwrap();
        db.set_hidden(3, true).unwrap();
        let mut seen = Vec::new();
        db.seq_scan(|k, _, _| seen.push(k));
        seen.sort_unstable();
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn dead_tuples_slow_scans_until_vacuumed() {
        let mut db = mk();
        for i in 0..500u64 {
            db.insert(i, i, &[7u8; 64]).unwrap();
        }
        for i in 0..400u64 {
            db.delete(i).unwrap();
        }
        let clock = db.clock.clone();
        let t0 = clock.now();
        db.seq_scan(|_, _, _| {});
        let bloated = clock.now().since(t0);
        db.vacuum();
        let t1 = clock.now();
        db.seq_scan(|_, _, _| {});
        let clean = clock.now().since(t1);
        assert!(
            bloated > clean,
            "bloated scan {bloated:?} should exceed clean scan {clean:?}"
        );
    }

    #[test]
    fn wal_recovery_restores_state() {
        let mut db = mk();
        db.insert(1, 100, b"keep-me").unwrap();
        db.insert(2, 101, b"delete-me").unwrap();
        db.update(1, b"keep-me-v2").unwrap();
        db.delete(2).unwrap();
        db.crash(); // unflushed buffers lost
        let mut r = recover_backend(
            db.durable_snapshot(),
            HeapConfig::default(),
            LsmConfig::default(),
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        assert_eq!(r.read(1, false).unwrap(), b"keep-me-v2");
        assert_eq!(r.read(2, false), None);
    }

    #[test]
    fn reinsert_after_delete_and_vacuum() {
        let mut db = mk();
        db.insert(1, 100, b"first-life").unwrap();
        db.delete(1).unwrap();
        db.vacuum();
        db.insert(1, 200, b"second-life").unwrap();
        assert_eq!(db.read(1, false).unwrap(), b"second-life");
    }

    #[test]
    fn reinsert_after_delete_without_vacuum() {
        let mut db = mk();
        db.insert(1, 100, b"first").unwrap();
        db.delete(1).unwrap();
        db.insert(1, 200, b"second").unwrap();
        assert_eq!(db.read(1, false).unwrap(), b"second");
    }

    #[test]
    fn encrypted_disk_hides_residuals() {
        let config = HeapConfig {
            disk_passphrase: Some(b"luks-pass".to_vec()),
            ..HeapConfig::default()
        };
        let mut db = HeapDb::new(config, SimClock::commodity(), Arc::new(Meter::new()));
        db.insert(1, 100, b"plaintext-pii").unwrap();
        db.checkpoint();
        assert!(
            db.disk.scan_raw(b"plaintext-pii").is_empty(),
            "sector encryption keeps plaintext off the disk"
        );
        assert_eq!(db.read(1, false).unwrap(), b"plaintext-pii");
    }

    #[test]
    fn heap_matches_reference_map() {
        check("heap_matches_reference_map", 24, |s| {
            let ops = s.vec(1..150, |s| {
                (
                    s.range(0u64..40),
                    s.range(0u8..6),
                    s.vec(1..40, |s| s.range(1u8..=255)),
                )
            });
            let mut db = mk();
            let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
            for (i, (key, op, payload)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let r = db.insert(key, key, &payload);
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                            assert!(r.is_ok());
                            e.insert(payload);
                        } else {
                            assert!(r.is_err());
                        }
                    }
                    1 => {
                        let r = db.update(key, &payload);
                        if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(key)
                        {
                            assert!(r.is_ok());
                            e.insert(payload);
                        } else {
                            assert!(r.is_err());
                        }
                    }
                    2 => {
                        let r = db.delete(key);
                        assert_eq!(r.is_ok(), model.remove(&key).is_some());
                    }
                    3 => {
                        if i % 3 == 0 {
                            db.vacuum();
                        }
                    }
                    4 => {
                        db.vacuum_full();
                    }
                    _ => {
                        // Sanitise frees what the rewrites retired; the
                        // inserts and rewrites after it land on reused
                        // sectors and must still read back.
                        db.sanitize(1);
                        assert!(db.retired_pages.is_empty());
                    }
                }
                // Every sector has exactly one owner: the table, the
                // retired list, or the drive's free list.
                assert_eq!(
                    db.disk.len(),
                    db.pages.len() + db.retired_pages.len() + db.disk.free_len(),
                    "{:?}",
                    db
                );
            }
            for (k, v) in &model {
                assert_eq!(db.read(*k, false).unwrap(), v.clone());
            }
            let mut scanned = 0usize;
            db.seq_scan(|_, _, _| scanned += 1);
            assert_eq!(scanned, model.len());
        });
    }
}
