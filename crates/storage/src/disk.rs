//! The simulated disk: page-granular persistent storage, optionally
//! encrypted at the sector layer (the LUKS shim used by P_GBench).
//!
//! The disk is the ground truth the forensic scanner inspects: whatever
//! bytes live here after an "erasure" are what a seized drive would
//! reveal. With sector encryption enabled, residuals are ciphertext and a
//! plaintext scan comes back clean — exactly the protection the paper's
//! profile P_GBench buys with LUKS.
//!
//! Every encrypted page read/write routes through
//! [`SectorCipher::apply`], whose page-sized buffers take the
//! whole-block entry (`AesCtr::apply_blocks`: AES-NI where the host has
//! it, the T-table fallback elsewhere) — the sector layer is the biggest
//! per-byte AES consumer in the system.
//!
//! # Sector life cycle
//!
//! ```text
//! allocate() ──► live ──(table rewrite zeroes it)──► retired + ghost
//!     ▲                                                   │
//!     │                                   sanitize_and_release()
//!     │                                                   ▼
//!     └──────────────────── free ◄──────────────── sanitised
//! ```
//!
//! [`Disk::allocate`] hands out a zeroed sector (ciphertext-of-zero on an
//! encrypted disk). Writes make it *live*; every overwrite of non-zero
//! content leaves the previous generation behind as a remanence *ghost*.
//! When `VACUUM FULL` rewrites the table it zeroes the old sectors and the
//! heap *retires* them: their file-level bytes are gone, their ghosts are
//! not. [`Disk::sanitize_and_release`] wipes a retired sector (content
//! zeros, ghost destroyed) and puts it on the free list, and `allocate`
//! takes from that list before it grows the drive — so the drive holds the
//! table at its largest plus one rewrite, not every table ever written.
//! (A high-water mark: the drive does not shrink when its table does.)
//!
//! **An unsanitised sector is never reused.** Its ghost is the whole
//! difference between *strongly* and *permanently* deleted in the paper's
//! Table 1: handing the sector out again would let the next overwrite
//! displace that ghost without a sanitisation pass ever being charged, and
//! the forensic scanner would report a drive cleaner than the grounding
//! that ran. The free list therefore has exactly one feeder, and it
//! sanitises first.

use datacase_crypto::sector::SectorCipher;
use datacase_sim::{Meter, SimClock};

use crate::page::PAGE_SIZE;

/// One physical sector: what a read returns, and what a lab could still
/// lift from underneath it.
struct Sector {
    /// Raw stored bytes (ciphertext on an encrypted disk).
    data: Vec<u8>,
    /// Drive remanence: the previous generation of `data`, until sanitised.
    ghost: Option<Vec<u8>>,
    /// On the free list: sanitised (all-zero, no ghost) and owned by no one.
    free: bool,
}

/// A page-granular simulated disk.
///
/// Besides the live sector contents, the disk models *drive remanence*:
/// when a sector is overwritten, its previous content lingers at the
/// physical layer (one generation) until a sanitisation pass clears it.
/// This is the distinction between *strong* deletion (file-level bytes
/// gone after VACUUM FULL) and *permanent* deletion (drive sanitised per
/// NISP-style guidance \[21\] in the paper).
pub struct Disk {
    sectors: Vec<Sector>,
    /// Sanitised sectors awaiting reuse, most recently released last.
    free: Vec<u32>,
    cipher: Option<SectorCipher>,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("pages", &self.sectors.len())
            .field("free", &self.free.len())
            .field("encrypted", &self.cipher.is_some())
            .finish()
    }
}

impl Disk {
    /// An empty, unencrypted disk.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> Disk {
        Disk {
            sectors: Vec::new(),
            free: Vec::new(),
            cipher: None,
            clock,
            meter,
        }
    }

    /// An empty disk with LUKS-style sector encryption.
    pub fn encrypted(clock: SimClock, meter: std::sync::Arc<Meter>, cipher: SectorCipher) -> Disk {
        Disk {
            cipher: Some(cipher),
            ..Disk::new(clock, meter)
        }
    }

    /// Whether sector encryption is active.
    pub fn is_encrypted(&self) -> bool {
        self.cipher.is_some()
    }

    /// Number of physical sectors the drive holds, free ones included.
    pub fn len(&self) -> usize {
        self.sectors.len()
    }

    /// True if no page was allocated yet.
    pub fn is_empty(&self) -> bool {
        self.sectors.is_empty()
    }

    /// Sanitised sectors waiting on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Total on-disk bytes, free sectors included.
    pub fn bytes(&self) -> u64 {
        (self.sectors.len() * PAGE_SIZE) as u64
    }

    /// Allocate a zeroed page, returning its id: the most recently
    /// released sanitised sector if there is one, a new sector at the end
    /// of the drive otherwise. On an encrypted disk the stored bytes are
    /// the *ciphertext* of a zero page, so a later `read_page` decrypts
    /// back to logical zeros. Charges nothing, either way.
    pub fn allocate(&mut self) -> u32 {
        let id = match self.free.pop() {
            Some(id) => {
                self.sectors[id as usize].free = false;
                id
            }
            None => {
                self.sectors.push(Sector {
                    data: vec![0u8; PAGE_SIZE],
                    ghost: None,
                    free: false,
                });
                (self.sectors.len() - 1) as u32
            }
        };
        if let Some(c) = &self.cipher {
            c.apply(id as u64, &mut self.sectors[id as usize].data);
        }
        id
    }

    /// Read a page from disk (decrypting if enabled). Charges random
    /// disk-read and crypto costs.
    pub fn read_page(&self, id: u32) -> Vec<u8> {
        self.read_page_inner(id, false)
    }

    /// Read a page as part of a sequential pass (scans, vacuum) — charged
    /// at the much cheaper sequential-I/O rate.
    pub fn read_page_seq(&self, id: u32) -> Vec<u8> {
        self.read_page_inner(id, true)
    }

    fn read_page_inner(&self, id: u32, sequential: bool) -> Vec<u8> {
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_read_seq
        } else {
            model.page_read_disk
        });
        Meter::bump(&self.meter.pages_read_disk, 1);
        let mut data = self.sectors[id as usize].data.clone();
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), data.len()));
            Meter::bump(&self.meter.crypto_bytes, data.len() as u64);
            c.apply(id as u64, &mut data);
        }
        data
    }

    /// Write a page to disk (encrypting if enabled). Charges random
    /// disk-write and crypto costs.
    pub fn write_page(&mut self, id: u32, data: &[u8]) {
        self.write_page_inner(id, data, false)
    }

    /// Write a page as part of a sequential batch (vacuum ring buffer).
    pub fn write_page_seq(&mut self, id: u32, data: &[u8]) {
        self.write_page_inner(id, data, true)
    }

    fn write_page_inner(&mut self, id: u32, data: &[u8], sequential: bool) {
        assert_eq!(data.len(), PAGE_SIZE, "disk writes are page-sized");
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_write_seq
        } else {
            model.page_write_disk
        });
        Meter::bump(&self.meter.pages_written, 1);
        let sector = &mut self.sectors[id as usize];
        debug_assert!(!sector.free, "write to free sector {id}");
        // Physical remanence: non-zero previous content lingers at the
        // drive layer until sanitised. It swaps places with the ghost it
        // displaces, whose buffer takes the new content; an all-zero
        // sector has nothing to leave behind and is overwritten in place.
        if sector.data.iter().any(|&b| b != 0) {
            let spare = sector.ghost.take().unwrap_or_else(|| vec![0u8; PAGE_SIZE]);
            sector.ghost = Some(std::mem::replace(&mut sector.data, spare));
        }
        sector.data.copy_from_slice(data);
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), PAGE_SIZE));
            Meter::bump(&self.meter.crypto_bytes, PAGE_SIZE as u64);
            c.apply(id as u64, &mut sector.data);
        }
    }

    /// The raw on-disk bytes of a page — ciphertext if encryption is on.
    /// This is what forensics sees; no cost is charged (it is the
    /// *observer's* read, not the system's).
    pub fn raw(&self, id: u32) -> &[u8] {
        &self.sectors[id as usize].data
    }

    /// Overwrite a page with a sanitisation pattern `passes` times,
    /// charging sanitisation cost. The final pass leaves zeros, and the
    /// drive-level remanence for the sector is destroyed.
    pub fn sanitize_page(&mut self, id: u32, passes: u32) {
        let model = self.clock.model().clone();
        self.clock.charge(model.sanitize_cost(PAGE_SIZE, passes));
        let sector = &mut self.sectors[id as usize];
        // Model the alternating-pattern passes; the end state is zeros.
        for pass in 0..passes {
            let pattern = match pass % 3 {
                0 => 0xFFu8,
                1 => 0x00u8,
                _ => 0xAAu8,
            };
            sector.data.fill(pattern);
        }
        sector.data.fill(0);
        sector.ghost = None;
    }

    /// Sanitise a sector its owner has retired and put it on the free
    /// list; the next [`allocate`](Disk::allocate) hands it out again.
    /// This is the free list's only feeder (see the module docs for why).
    ///
    /// # Panics
    /// Panics if the sector is already free — releasing it twice would
    /// hand one sector to two owners.
    pub fn sanitize_and_release(&mut self, id: u32, passes: u32) {
        assert!(
            !self.sectors[id as usize].free,
            "sector {id} released twice"
        );
        self.sanitize_page(id, passes);
        self.sectors[id as usize].free = true;
        self.free.push(id);
    }

    /// Sectors in use (allocated and not on the free list), with their ids.
    fn in_use(&self) -> impl Iterator<Item = (u32, &Sector)> {
        self.sectors
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.free)
            .map(|(id, s)| (id as u32, s))
    }

    /// Scan every raw page in use for `needle`, returning matching page
    /// ids; free sectors are zeros by construction and are skipped.
    /// (Forensic observer: free of simulation cost.)
    pub fn scan_raw(&self, needle: &[u8]) -> Vec<u32> {
        if needle.is_empty() {
            return Vec::new();
        }
        self.in_use()
            .filter(|(_, s)| s.data.windows(needle.len()).any(|w| w == needle))
            .map(|(id, _)| id)
            .collect()
    }

    /// Scan the drive-remanence layer for `needle` (what an advanced lab
    /// could recover from overwritten-but-unsanitised sectors).
    pub fn scan_remanent(&self, needle: &[u8]) -> Vec<u32> {
        if needle.is_empty() {
            return Vec::new();
        }
        self.in_use()
            .filter(|(_, s)| {
                s.ghost
                    .as_ref()
                    .is_some_and(|g| g.windows(needle.len()).any(|w| w == needle))
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_crypto::aes::KeySize;
    use std::sync::Arc;

    fn mk_disk(encrypted: bool) -> Disk {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        if encrypted {
            Disk::encrypted(
                clock,
                meter,
                SectorCipher::from_passphrase(b"test", KeySize::Aes256),
            )
        } else {
            Disk::new(clock, meter)
        }
    }

    fn page_with(content: &[u8]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        p[100..100 + content.len()].copy_from_slice(content);
        p
    }

    #[test]
    fn write_read_roundtrip_plain() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"hello-disk"));
        let back = d.read_page(id);
        assert_eq!(&back[100..110], b"hello-disk");
    }

    #[test]
    fn write_read_roundtrip_encrypted() {
        let mut d = mk_disk(true);
        let id = d.allocate();
        d.write_page(id, &page_with(b"hello-disk"));
        let back = d.read_page(id);
        assert_eq!(&back[100..110], b"hello-disk");
    }

    #[test]
    fn raw_shows_plaintext_only_without_encryption() {
        let mut plain = mk_disk(false);
        let id = plain.allocate();
        plain.write_page(id, &page_with(b"SECRET-PII"));
        assert_eq!(plain.scan_raw(b"SECRET-PII"), vec![id]);

        let mut enc = mk_disk(true);
        let id2 = enc.allocate();
        enc.write_page(id2, &page_with(b"SECRET-PII"));
        assert!(
            enc.scan_raw(b"SECRET-PII").is_empty(),
            "sector encryption hides plaintext from the raw disk"
        );
    }

    #[test]
    fn sanitize_wipes_raw_bytes() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"TO-WIPE"));
        assert!(!d.scan_raw(b"TO-WIPE").is_empty());
        d.sanitize_page(id, 3);
        assert!(d.scan_raw(b"TO-WIPE").is_empty());
        assert!(d.raw(id).iter().all(|&b| b == 0));
    }

    #[test]
    fn io_charges_time_and_meter() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut d = Disk::new(clock.clone(), meter.clone());
        let id = d.allocate();
        let t0 = clock.now();
        d.write_page(id, &vec![0u8; PAGE_SIZE]);
        let _ = d.read_page(id);
        assert!(clock.now() > t0);
        let snap = meter.snapshot();
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.pages_read_disk, 1);
    }

    #[test]
    fn encrypted_io_costs_more_than_plain() {
        let c1 = SimClock::commodity();
        let m1 = Arc::new(Meter::new());
        let mut plain = Disk::new(c1.clone(), m1);
        let c2 = SimClock::commodity();
        let m2 = Arc::new(Meter::new());
        let mut enc = Disk::encrypted(
            c2.clone(),
            m2,
            SectorCipher::from_passphrase(b"x", KeySize::Aes256),
        );
        let p = vec![0u8; PAGE_SIZE];
        let a = plain.allocate();
        let b = enc.allocate();
        plain.write_page(a, &p);
        enc.write_page(b, &p);
        assert!(c2.now() > c1.now(), "crypto adds cost");
    }

    #[test]
    fn empty_needle_matches_nothing() {
        let d = mk_disk(false);
        assert!(d.scan_raw(b"").is_empty());
        assert!(d.scan_remanent(b"").is_empty());
    }

    #[test]
    fn overwrite_leaves_remanence_until_sanitised() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"GHOST-DATA"));
        // Overwrite with zeros: the file no longer shows it…
        d.write_page(id, &vec![0u8; PAGE_SIZE]);
        assert!(d.scan_raw(b"GHOST-DATA").is_empty());
        // …but the drive layer still does.
        assert_eq!(d.scan_remanent(b"GHOST-DATA"), vec![id]);
        d.sanitize_page(id, 3);
        assert!(d.scan_remanent(b"GHOST-DATA").is_empty());
    }

    #[test]
    fn released_sector_is_the_next_one_allocated() {
        for encrypted in [false, true] {
            let mut d = mk_disk(encrypted);
            let a = d.allocate();
            let b = d.allocate();
            d.write_page(a, &page_with(b"FIRST-TENANT"));
            d.write_page(a, &vec![0u8; PAGE_SIZE]); // retired: zeroed, ghost left
            d.sanitize_and_release(a, 3);
            assert_eq!((d.len(), d.free_len()), (2, 1));
            assert_eq!(d.allocate(), a, "reuse before growth");
            assert_eq!((d.len(), d.free_len()), (2, 0));
            // Sealed exactly as a brand-new sector is: logical zeros, and
            // on an encrypted disk no run of raw zeros to tell it apart.
            assert!(d.read_page(a).iter().all(|&x| x == 0));
            assert_eq!(d.raw(a).iter().all(|&x| x == 0), !encrypted);
            assert!(d.scan_remanent(b"FIRST-TENANT").is_empty());
            d.write_page(a, &page_with(b"SECOND-TENANT"));
            assert_eq!(&d.read_page(a)[100..113], b"SECOND-TENANT");
            assert_eq!(d.scan_raw(b"SECOND-TENANT").is_empty(), encrypted);
            // With the free list drained the drive grows again.
            assert_eq!(d.allocate(), b + 1);
        }
    }

    #[test]
    fn unsanitised_sector_is_never_handed_out() {
        let mut d = mk_disk(false);
        let a = d.allocate();
        d.write_page(a, &page_with(b"GHOST-DATA"));
        d.write_page(a, &vec![0u8; PAGE_SIZE]);
        // Zeroed is not sanitised: the ghost is still there, the sector is
        // not free, and allocation grows the drive instead.
        assert_eq!(d.free_len(), 0);
        assert_ne!(d.allocate(), a);
        assert_eq!(d.scan_remanent(b"GHOST-DATA"), vec![a]);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_refused() {
        let mut d = mk_disk(false);
        let a = d.allocate();
        d.sanitize_and_release(a, 1);
        d.sanitize_and_release(a, 1);
    }

    #[test]
    fn scans_skip_free_sectors() {
        let mut d = mk_disk(false);
        let a = d.allocate();
        let b = d.allocate();
        d.sanitize_and_release(a, 1);
        // A needle of zeros matches every zeroed sector *in use* only.
        assert_eq!(d.scan_raw(&[0u8; 16]), vec![b]);
    }

    #[test]
    fn overwrite_keeps_one_generation_of_remanence() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"GEN-ONE"));
        d.write_page(id, &page_with(b"GEN-TWO"));
        d.write_page(id, &page_with(b"GEN-THREE"));
        assert_eq!(d.scan_raw(b"GEN-THREE"), vec![id]);
        assert_eq!(d.scan_remanent(b"GEN-TWO"), vec![id]);
        assert!(d.scan_remanent(b"GEN-ONE").is_empty(), "displaced");
        // Zeros over content leave the content as the ghost; content over
        // zeros leaves that ghost where it was.
        d.write_page(id, &vec![0u8; PAGE_SIZE]);
        d.write_page(id, &page_with(b"GEN-FOUR"));
        assert_eq!(d.scan_remanent(b"GEN-THREE"), vec![id]);
    }
}
