//! Slotted heap pages, PostgreSQL-style.
//!
//! Layout of an 8 KiB page:
//!
//! ```text
//! +-------------------+ 0
//! | header (8 bytes)  |  slot_count | free_lower | free_upper | flags
//! +-------------------+ 8
//! | line pointers     |  6 bytes each: offset | len | state
//! |        ↓          |
//! +-------------------+ free_lower
//! |   free space      |
//! +-------------------+ free_upper
//! |        ↑          |
//! | tuple data        |
//! +-------------------+ PAGE_SIZE
//! ```
//!
//! Deleting a tuple only flips its line-pointer state to DEAD — the bytes
//! stay where they are until VACUUM. That gap between logical and physical
//! deletion is precisely the compliance hazard the paper discusses, and the
//! forensic scanner reads these raw bytes to detect it.
//!
//! # One image per page
//!
//! A [`Page`] holds its bytes as a shared *image* (`Arc<[u8]>`), and every
//! mutation goes through one private copy-on-write accessor. A plaintext
//! drive hands the buffer pool the very image it stores and keeps a
//! reference to the image it is given back, so a clean page costs one
//! buffer between the two of them; the first write to a shared page copies
//! it, which is also what keeps an unflushed change off the drive.

use std::sync::Arc;

/// Page size in bytes (PostgreSQL default).
pub const PAGE_SIZE: usize = 8192;
/// Page header size.
pub const HEADER_SIZE: usize = 8;
/// Line pointer size.
pub const LP_SIZE: usize = 6;
/// Largest tuple payload a page can hold (one tuple, one line pointer).
pub const MAX_TUPLE: usize = PAGE_SIZE - HEADER_SIZE - LP_SIZE;

/// Line-pointer state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotState {
    /// Never used or reclaimed by vacuum; may be reused.
    Unused,
    /// Holds a live (possibly MVCC-dead but unreclaimed) tuple.
    Normal,
    /// Tuple is dead and awaiting vacuum; bytes still present.
    Dead,
}

impl SlotState {
    fn to_u16(self) -> u16 {
        match self {
            SlotState::Unused => 0,
            SlotState::Normal => 1,
            SlotState::Dead => 2,
        }
    }

    fn from_u16(v: u16) -> SlotState {
        match v {
            1 => SlotState::Normal,
            2 => SlotState::Dead,
            _ => SlotState::Unused,
        }
    }
}

/// An 8 KiB slotted page over a shared, copy-on-write image.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Arc<[u8]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        Page::from_image(zero_image())
    }

    /// Rehydrate a page from its image (disk read) without copying it. An
    /// all-zero page (as freshly allocated or zeroed by VACUUM FULL) is
    /// initialised to a valid empty page, as PostgreSQL does on first touch.
    ///
    /// # Panics
    /// Panics if `image` is not exactly [`PAGE_SIZE`] long.
    pub(crate) fn from_image(image: Arc<[u8]>) -> Page {
        assert_eq!(image.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        let mut page = Page { bytes: image };
        if page.slot_count() == 0 && page.free_upper() == 0 {
            write_u16(page.bytes_mut(), 2, HEADER_SIZE as u16); // free_lower
            write_u16(page.bytes_mut(), 4, PAGE_SIZE as u16); // free_upper
        }
        page
    }

    /// The raw on-page bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The shared image itself, for the drive to keep (or encrypt a copy of).
    pub(crate) fn image(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// The one mutable view: copies the image first if anyone else holds it.
    fn bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.bytes)
    }

    /// Number of line pointers ever allocated on this page.
    pub fn slot_count(&self) -> u16 {
        read_u16(&self.bytes, 0)
    }

    fn free_lower(&self) -> u16 {
        read_u16(&self.bytes, 2)
    }

    fn free_upper(&self) -> u16 {
        read_u16(&self.bytes, 4)
    }

    /// Contiguous free bytes between the line-pointer array and tuple data.
    pub fn free_space(&self) -> usize {
        (self.free_upper() - self.free_lower()) as usize
    }

    fn lp_offset(slot: u16) -> usize {
        HEADER_SIZE + slot as usize * LP_SIZE
    }

    /// The state of `slot`.
    pub fn slot_state(&self, slot: u16) -> SlotState {
        debug_assert!(slot < self.slot_count());
        SlotState::from_u16(read_u16(&self.bytes, Self::lp_offset(slot) + 4))
    }

    fn set_slot(&mut self, slot: u16, offset: u16, len: u16, state: SlotState) {
        let at = Self::lp_offset(slot);
        let bytes = self.bytes_mut();
        write_u16(bytes, at, offset);
        write_u16(bytes, at + 2, len);
        write_u16(bytes, at + 4, state.to_u16());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16, SlotState) {
        let at = Self::lp_offset(slot);
        (
            read_u16(&self.bytes, at),
            read_u16(&self.bytes, at + 2),
            SlotState::from_u16(read_u16(&self.bytes, at + 4)),
        )
    }

    /// Insert tuple bytes, reusing an UNUSED slot if available.
    /// Returns the slot, or `None` if the page lacks space.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<u16> {
        let len = tuple.len();
        if len > MAX_TUPLE {
            return None;
        }
        // Find a reusable slot first (vacuumed slots).
        let mut reuse: Option<u16> = None;
        for s in 0..self.slot_count() {
            if self.slot_state(s) == SlotState::Unused {
                reuse = Some(s);
                break;
            }
        }
        let need = len + if reuse.is_some() { 0 } else { LP_SIZE };
        if self.free_space() < need {
            return None;
        }
        let new_upper = self.free_upper() as usize - len;
        let slot = reuse.unwrap_or_else(|| self.slot_count());
        let bytes = self.bytes_mut();
        bytes[new_upper..new_upper + len].copy_from_slice(tuple);
        write_u16(bytes, 4, new_upper as u16);
        if reuse.is_none() {
            write_u16(bytes, 0, slot + 1);
            write_u16(bytes, 2, Self::lp_offset(slot + 1) as u16);
        }
        self.set_slot(slot, new_upper as u16, len as u16, SlotState::Normal);
        Some(slot)
    }

    /// Read the tuple bytes at `slot` (regardless of MVCC state; DEAD slots
    /// still return their residual bytes until vacuumed).
    pub fn tuple(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len, state) = self.slot_entry(slot);
        if state == SlotState::Unused {
            return None;
        }
        Some(&self.bytes[off as usize..(off + len) as usize])
    }

    /// Mutable access to the tuple bytes at `slot` (for in-place header
    /// patching: xmax stamping, flag flips).
    pub fn tuple_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len, state) = self.slot_entry(slot);
        if state == SlotState::Unused {
            return None;
        }
        Some(&mut self.bytes_mut()[off as usize..(off + len) as usize])
    }

    /// Flip a slot to DEAD (logical delete; bytes remain).
    pub fn mark_dead(&mut self, slot: u16) {
        let (off, len, _) = self.slot_entry(slot);
        self.set_slot(slot, off, len, SlotState::Dead);
    }

    /// Vacuum this page: drop DEAD tuples, compact the data area, mark
    /// their slots UNUSED. Live slots keep their slot numbers (so index
    /// TIDs stay valid). Returns (#reclaimed tuples, #residual bytes wiped).
    pub fn vacuum(&mut self) -> (usize, usize) {
        let count = self.slot_count();
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut reclaimed = 0usize;
        let mut wiped = 0usize;
        for s in 0..count {
            let (_, len, state) = self.slot_entry(s);
            match state {
                SlotState::Normal => {
                    live.push((s, self.tuple(s).expect("normal slot").to_vec()));
                }
                SlotState::Dead => {
                    reclaimed += 1;
                    wiped += len as usize;
                    self.set_slot(s, 0, 0, SlotState::Unused);
                }
                SlotState::Unused => {}
            }
        }
        // Rewrite the data area compactly from the top.
        let mut upper = PAGE_SIZE;
        // Zero the whole data area first: vacuumed bytes must not linger.
        let lower = Self::lp_offset(count);
        self.bytes_mut()[lower..].fill(0);
        for (slot, bytes) in &live {
            upper -= bytes.len();
            self.bytes_mut()[upper..upper + bytes.len()].copy_from_slice(bytes);
            self.set_slot(*slot, upper as u16, bytes.len() as u16, SlotState::Normal);
        }
        write_u16(self.bytes_mut(), 4, upper as u16);
        (reclaimed, wiped)
    }

    /// Iterate (slot, state) pairs.
    pub fn slots(&self) -> impl Iterator<Item = (u16, SlotState)> + '_ {
        (0..self.slot_count()).map(move |s| (s, self.slot_state(s)))
    }
}

/// A fresh all-zero page image.
pub(crate) fn zero_image() -> Arc<[u8]> {
    std::iter::repeat_n(0, PAGE_SIZE).collect()
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn write_u16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert!(p.tuple(0).is_none());
    }

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.tuple(s1).unwrap(), b"hello");
        assert_eq!(p.tuple(s2).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.slot_state(s1), SlotState::Normal);
    }

    #[test]
    fn page_fills_up() {
        let mut p = Page::new();
        let tuple = vec![0xAB; 1000];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 8184 usable / 1006 per tuple ≈ 8.
        assert_eq!(n, 8);
        assert!(p.free_space() < 1006);
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0; MAX_TUPLE + 1]).is_none());
        assert!(p.insert(&vec![0; MAX_TUPLE]).is_some());
    }

    #[test]
    fn dead_tuple_bytes_remain_until_vacuum() {
        let mut p = Page::new();
        let s = p.insert(b"sensitive-pii").unwrap();
        p.mark_dead(s);
        // Logical delete: the bytes are still there.
        assert_eq!(p.slot_state(s), SlotState::Dead);
        assert_eq!(p.tuple(s).unwrap(), b"sensitive-pii");
        let raw = p.as_bytes().windows(13).any(|w| w == b"sensitive-pii");
        assert!(raw, "residual bytes expected before vacuum");
        let (reclaimed, wiped) = p.vacuum();
        assert_eq!(reclaimed, 1);
        assert_eq!(wiped, 13);
        assert_eq!(p.slot_state(s), SlotState::Unused);
        assert!(p.tuple(s).is_none());
        let raw_after = p.as_bytes().windows(13).any(|w| w == b"sensitive-pii");
        assert!(!raw_after, "vacuum must wipe residual bytes on the page");
    }

    #[test]
    fn vacuum_preserves_live_slot_numbers() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        let b = p.insert(b"bbbb").unwrap();
        let c = p.insert(b"cccc").unwrap();
        p.mark_dead(b);
        p.vacuum();
        assert_eq!(p.tuple(a).unwrap(), b"aaaa");
        assert_eq!(p.tuple(c).unwrap(), b"cccc");
        assert!(p.tuple(b).is_none());
    }

    #[test]
    fn vacuumed_slot_is_reused() {
        let mut p = Page::new();
        let a = p.insert(b"old-value").unwrap();
        p.mark_dead(a);
        p.vacuum();
        let b = p.insert(b"new-value").unwrap();
        assert_eq!(a, b, "unused slot reused");
        assert_eq!(p.tuple(b).unwrap(), b"new-value");
    }

    #[test]
    fn free_space_accounting_after_vacuum() {
        let mut p = Page::new();
        let before = p.free_space();
        let s = p.insert(&vec![7u8; 500]).unwrap();
        assert_eq!(p.free_space(), before - 500 - LP_SIZE);
        p.mark_dead(s);
        p.vacuum();
        // Line pointer array is kept, data reclaimed.
        assert_eq!(p.free_space(), before - LP_SIZE);
    }

    #[test]
    fn roundtrip_from_image() {
        let mut p = Page::new();
        p.insert(b"persisted").unwrap();
        let restored = Page::from_image(Arc::clone(p.image()));
        assert_eq!(restored.tuple(0).unwrap(), b"persisted");
    }

    #[test]
    fn mutation_copies_a_shared_image_first() {
        let mut p = Page::new();
        p.insert(b"before").unwrap();
        let held = Arc::clone(p.image());
        p.tuple_mut(0).unwrap().copy_from_slice(b"after!");
        assert!(!Arc::ptr_eq(&held, p.image()), "copied on write");
        assert_eq!(p.tuple(0).unwrap(), b"after!");
        assert!(held.windows(6).any(|w| w == b"before"), "holder unchanged");
        // An unshared image is mutated in place.
        let own = Arc::as_ptr(p.image());
        p.insert(b"more").unwrap();
        assert_eq!(own, Arc::as_ptr(p.image()));
    }

    proptest::proptest! {
        #[test]
        fn inserted_tuples_always_readable(
            payloads in proptest::collection::vec(
                proptest::collection::vec(1u8..=255, 1..300), 1..20)
        ) {
            let mut p = Page::new();
            let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
            for pl in &payloads {
                if let Some(slot) = p.insert(pl) {
                    stored.push((slot, pl.clone()));
                }
            }
            for (slot, pl) in &stored {
                proptest::prop_assert_eq!(p.tuple(*slot).unwrap(), pl.as_slice());
            }
        }

        #[test]
        fn vacuum_never_loses_live_tuples(
            kill in proptest::collection::vec(proptest::bool::ANY, 10)
        ) {
            let mut p = Page::new();
            let mut slots = Vec::new();
            for i in 0..10u8 {
                let payload = vec![i + 1; 50];
                slots.push((p.insert(&payload).unwrap(), payload));
            }
            for (i, &dead) in kill.iter().enumerate() {
                if dead {
                    p.mark_dead(slots[i].0);
                }
            }
            p.vacuum();
            for (i, &dead) in kill.iter().enumerate() {
                let (slot, ref payload) = slots[i];
                if dead {
                    proptest::prop_assert!(p.tuple(slot).is_none());
                } else {
                    proptest::prop_assert_eq!(p.tuple(slot).unwrap(), payload.as_slice());
                }
            }
        }
    }
}
