//! A small LRU buffer pool over the simulated disk.
//!
//! Cache hits charge the (cheap) cached-read cost; misses pay real disk
//! I/O via [`crate::disk::Disk`]. Dirty frames are written back on
//! eviction and on `flush_all`, so the disk image converges to the logical
//! state — which matters because forensics reads the *disk*.
//!
//! A frame holds the page's shared image (see [`crate::page`]): on a
//! plaintext drive a clean frame *is* the drive's buffer, not a copy of it.
//! The first mutation through [`BufferPool::page_mut`] copies the image, so
//! the drive keeps the old bytes until write-back hands it the new image —
//! and the old one becomes its remanence ghost. An encrypted drive shares
//! the same way: it keeps the image and computes its ciphertext only when
//! forensics reads the raw sector.

use std::collections::HashMap;

use datacase_sim::{Meter, SimClock};

use crate::disk::Disk;
use crate::page::Page;

struct Frame {
    page: Page,
    dirty: bool,
    last_used: u64,
}

/// LRU page cache.
pub struct BufferPool {
    capacity: usize,
    frames: HashMap<u32, Frame>,
    tick: u64,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.frames.len())
            .finish()
    }
}

impl BufferPool {
    /// A pool caching up to `capacity` pages.
    pub fn new(capacity: usize, clock: SimClock, meter: std::sync::Arc<Meter>) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: HashMap::with_capacity(capacity),
            tick: 0,
            clock,
            meter,
        }
    }

    fn touch(&mut self, id: u32) {
        self.tick += 1;
        if let Some(f) = self.frames.get_mut(&id) {
            f.last_used = self.tick;
        }
    }

    fn ensure_cached(&mut self, disk: &mut Disk, id: u32, sequential: bool) {
        if self.frames.contains_key(&id) {
            self.clock.charge_nanos(self.clock.model().page_read_cached);
            Meter::bump(&self.meter.pages_read_cached, 1);
            self.touch(id);
            return;
        }
        // Miss: evict if full, then load.
        if self.frames.len() >= self.capacity {
            let victim = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(id, _)| *id)
                .expect("non-empty pool");
            self.evict(disk, victim);
        }
        let data = if sequential {
            disk.read_page_seq(id)
        } else {
            disk.read_page(id)
        };
        self.tick += 1;
        self.frames.insert(
            id,
            Frame {
                page: Page::from_image(data),
                dirty: false,
                last_used: self.tick,
            },
        );
    }

    fn evict(&mut self, disk: &mut Disk, id: u32) {
        if let Some(f) = self.frames.remove(&id) {
            if f.dirty {
                disk.write_page(id, f.page.image());
            }
        }
    }

    /// Read-only access to a page, through the cache.
    pub fn page(&mut self, disk: &mut Disk, id: u32) -> &Page {
        self.ensure_cached(disk, id, false);
        &self.frames[&id].page
    }

    /// Read-only access during a sequential pass (misses are charged at
    /// the sequential-I/O rate).
    pub fn page_seq(&mut self, disk: &mut Disk, id: u32) -> &Page {
        self.ensure_cached(disk, id, true);
        &self.frames[&id].page
    }

    /// Mutable access to a page; marks the frame dirty.
    pub fn page_mut(&mut self, disk: &mut Disk, id: u32) -> &mut Page {
        self.ensure_cached(disk, id, false);
        let f = self.frames.get_mut(&id).expect("just cached");
        f.dirty = true;
        &mut f.page
    }

    /// Drop a page from the cache without write-back (the page was zeroed
    /// or truncated on disk directly, e.g. by VACUUM FULL).
    pub fn discard(&mut self, id: u32) {
        self.frames.remove(&id);
    }

    /// Mark a cached frame clean (its content was just written to disk by
    /// the caller, e.g. vacuum's sequential ring-buffer write).
    pub fn mark_clean(&mut self, id: u32) {
        if let Some(f) = self.frames.get_mut(&id) {
            f.dirty = false;
        }
    }

    /// Write every dirty frame back to disk (checkpoint).
    pub fn flush_all(&mut self, disk: &mut Disk) {
        let mut ids: Vec<u32> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let f = self.frames.get_mut(&id).expect("listed");
            disk.write_page(id, f.page.image());
            f.dirty = false;
        }
    }

    /// Drop the whole cache without write-back — simulates a crash, for
    /// recovery tests.
    pub fn crash(&mut self) {
        self.frames.clear();
    }

    /// Number of cached pages.
    pub fn cached(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup(capacity: usize) -> (BufferPool, Disk, SimClock, Arc<Meter>) {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let disk = Disk::new(clock.clone(), meter.clone());
        let pool = BufferPool::new(capacity, clock.clone(), meter.clone());
        (pool, disk, clock, meter)
    }

    #[test]
    fn hits_are_cheaper_than_misses() {
        let (mut pool, mut disk, clock, _) = setup(4);
        let id = disk.allocate();
        let t0 = clock.now();
        let _ = pool.page(&mut disk, id); // miss
        let miss_cost = clock.now().since(t0);
        let t1 = clock.now();
        let _ = pool.page(&mut disk, id); // hit
        let hit_cost = clock.now().since(t1);
        assert!(miss_cost.0 > 10 * hit_cost.0);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (mut pool, mut disk, _, meter) = setup(2);
        let a = disk.allocate();
        let b = disk.allocate();
        let c = disk.allocate();
        pool.page_mut(&mut disk, a).insert(b"page-a-data").unwrap();
        let _ = pool.page(&mut disk, b);
        let written_before = meter.snapshot().pages_written;
        let _ = pool.page(&mut disk, c); // evicts a (LRU)
        assert_eq!(meter.snapshot().pages_written, written_before + 1);
        // Disk now holds a's data.
        assert_eq!(disk.scan_raw(b"page-a-data"), vec![a]);
    }

    #[test]
    fn flush_all_persists_dirty_frames() {
        let (mut pool, mut disk, _, _) = setup(8);
        let a = disk.allocate();
        pool.page_mut(&mut disk, a).insert(b"flush-me").unwrap();
        assert!(disk.scan_raw(b"flush-me").is_empty(), "not yet on disk");
        pool.flush_all(&mut disk);
        assert_eq!(disk.scan_raw(b"flush-me"), vec![a]);
    }

    #[test]
    fn crash_loses_unflushed_writes() {
        let (mut pool, mut disk, _, _) = setup(8);
        let a = disk.allocate();
        pool.page_mut(&mut disk, a).insert(b"volatile").unwrap();
        pool.crash();
        assert!(disk.scan_raw(b"volatile").is_empty());
        // Reloading gives the empty on-disk page.
        let p = pool.page(&mut disk, a);
        assert_eq!(p.slot_count(), 0);
    }

    #[test]
    fn capacity_bound_respected() {
        let (mut pool, mut disk, _, _) = setup(3);
        for _ in 0..10 {
            let id = disk.allocate();
            let _ = pool.page(&mut disk, id);
        }
        assert!(pool.cached() <= 3);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let (mut pool, mut disk, _, _) = setup(4);
        let a = disk.allocate();
        pool.page_mut(&mut disk, a).insert(b"gone").unwrap();
        pool.discard(a);
        pool.flush_all(&mut disk);
        assert!(disk.scan_raw(b"gone").is_empty());
    }

    #[test]
    fn clean_pages_share_the_drive_image_until_written() {
        let (mut pool, mut disk, _, _) = setup(4);
        let a = disk.allocate();
        pool.page_mut(&mut disk, a).insert(b"old-bytes").unwrap();
        pool.flush_all(&mut disk);
        pool.crash();
        // Loaded from a written sector, the frame is the drive's image.
        let image = Arc::clone(pool.page(&mut disk, a).image());
        assert!(
            Arc::ptr_eq(&image, &disk.read_page(a)),
            "one buffer, not two"
        );
        // A mutation copies it: the drive still holds the old bytes…
        let before = disk.raw(a).into_owned();
        pool.page_mut(&mut disk, a).tuple_mut(0).unwrap()[..3].copy_from_slice(b"new");
        assert_eq!(*disk.raw(a), before[..]);
        assert!(Arc::ptr_eq(&image, &disk.read_page(a)));
        // …so a crash before write-back reloads them.
        pool.crash();
        assert_eq!(pool.page(&mut disk, a).tuple(0).unwrap(), b"old-bytes");
        // Write-back stores the new image and leaves the old as the ghost.
        pool.page_mut(&mut disk, a).tuple_mut(0).unwrap()[..3].copy_from_slice(b"new");
        pool.flush_all(&mut disk);
        assert!(Arc::ptr_eq(
            pool.page(&mut disk, a).image(),
            &disk.read_page(a)
        ));
        assert_eq!(disk.scan_raw(b"new-bytes"), vec![a]);
        assert_eq!(disk.scan_remanent(b"old-bytes"), vec![a]);

        // An encrypted drive shares the same way: it stores the image it
        // was handed and seals it only when forensics reads the raw bytes.
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let cipher = datacase_crypto::sector::SectorCipher::from_passphrase(
            b"pool",
            datacase_crypto::aes::KeySize::Aes256,
        );
        let mut luks = Disk::encrypted(clock.clone(), meter.clone(), cipher);
        let mut pool = BufferPool::new(4, clock, meter);
        let b = luks.allocate();
        pool.page_mut(&mut luks, b).insert(b"secret").unwrap();
        pool.flush_all(&mut luks);
        let frame = Arc::clone(pool.page(&mut luks, b).image());
        assert!(Arc::ptr_eq(&frame, &luks.read_page(b)));
        assert_eq!(luks.read_page(b)[..], frame[..]);
        assert_ne!(*luks.raw(b), frame[..]);
    }
}
