//! The simulated disk: page-granular persistent storage, optionally
//! encrypted at the sector layer (the LUKS shim used by P_GBench).
//!
//! The disk is the ground truth the forensic scanner inspects: whatever
//! bytes live here after an "erasure" are what a seized drive would
//! reveal. With sector encryption enabled, residuals are ciphertext and a
//! plaintext scan comes back clean — exactly the protection the paper's
//! profile P_GBench buys with LUKS.
//!
//! Every encrypted page read and write is *charged* one page of sector AES
//! (simulated cost and `crypto_bytes`) but runs none: the drive keeps the
//! page image it was handed, shared with the buffer pool, and runs
//! [`SectorCipher::apply`] only when a forensic reader asks for raw bytes.
//! The sector IV binds the sector *and* its write generation, so no two
//! generations of a sector share a keystream.
//!
//! # Sector life cycle
//!
//! ```text
//!               allocate()               write
//! free or new ────────────► sealed zero ───────► live
//!      ▲                                          │ VACUUM FULL writes the zero page
//!      │                                          ▼
//!      └── wiped ◄── sanitize_and_release() ── retired: sealed zero + ghost
//! ```
//!
//! [`Disk::allocate`] hands out a *sealed zero* sector: the all-zero page
//! as the drive stores it — plain zeros on a plaintext drive,
//! ciphertext-of-zero on an encrypted one. Writes make it *live*; every
//! overwrite of non-zero raw content leaves the previous generation behind
//! as a remanence *ghost*. When `VACUUM FULL` rewrites the table it writes
//! the zero page over the old sectors (sealed zero again) and the heap
//! *retires* them: their file-level bytes are gone, their ghosts are not.
//! [`Disk::sanitize_and_release`] wipes a retired sector (raw zeros, ghost
//! destroyed) and puts it on the free list, and `allocate` takes from that
//! list before it grows the drive — so the drive holds the table at its
//! largest plus one rewrite, not every table ever written. (A high-water
//! mark: the drive does not shrink when its table does.)
//!
//! Only content holds a buffer. Sealed zero and wiped are states, not
//! bytes, so a free or freshly allocated sector costs no page of memory,
//! and a written sector keeps a reference to the image the buffer pool
//! handed it (see [`crate::page`]), encrypted drive or not. On an
//! encrypted drive the raw bytes of a generation — a content image's
//! ciphertext, or a sealed zero's pure keystream, which an overwrite
//! leaves behind as a ghost exactly as a drive would — are computed only
//! when forensics scans them, so the raw and remanent bytes of every
//! sector are what they would be with a buffer per generation. Each
//! sector counts its writes (a reuse from the free list counts as one),
//! each generation remembers the count it was stored under, and the IV
//! binds that count: a sector's raw bytes XOR its ghost is the XOR of two
//! keystreams, not a page of plaintext.
//!
//! **An unsanitised sector is never reused.** Its ghost is the whole
//! difference between *strongly* and *permanently* deleted in the paper's
//! Table 1: handing the sector out again would let the next overwrite
//! displace that ghost without a sanitisation pass ever being charged, and
//! the forensic scanner would report a drive cleaner than the grounding
//! that ran. The free list therefore has exactly one feeder, and it
//! sanitises first.

use std::borrow::Cow;
use std::sync::Arc;

use datacase_crypto::sector::SectorCipher;
use datacase_sim::{Meter, SimClock};

use crate::page::{zero_image, PAGE_SIZE};

/// One generation of a sector's raw bytes. Only content holds a buffer.
/// A sealed generation carries the sector's write count when it was
/// stored, which LUKS binds into its IV.
enum Raw {
    /// Raw zeros: what a sanitisation pass leaves.
    Wiped,
    /// The all-zero page as the drive seals it: plain zeros on a plaintext
    /// drive, the ciphertext of zeros under the sector's IV on LUKS.
    SealedZero(u32),
    /// Any other content, as the page image the buffer pool handed over and
    /// still shares. On LUKS the raw bytes are that image's ciphertext,
    /// computed only when forensics asks. Taken as never all zeros: an
    /// all-zero page is written as sealed zero, and a ciphertext of other
    /// content is all zeros with probability 2^-65536.
    Image(Arc<[u8]>, u32),
}

impl Raw {
    /// Whether every raw byte is zero — all the ghost rule asks.
    fn is_zeros(&self, encrypted: bool) -> bool {
        match self {
            Raw::Wiped => true,
            Raw::SealedZero(_) => !encrypted,
            Raw::Image(..) => false,
        }
    }
}

/// One physical sector: what a read returns, and what a lab could still
/// lift from underneath it.
struct Sector {
    /// Raw stored bytes.
    data: Raw,
    /// Drive remanence: the previous generation of `data`, until sanitised.
    ghost: Option<Raw>,
    /// On the free list: wiped, no ghost, and owned by no one.
    free: bool,
    /// Writes the sector has taken, wrapping: the generation the next
    /// stored page is sealed under, so no two of its generations share a
    /// keystream until 2^32 writes.
    writes: u32,
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

    /// Allocate a sealed-zero page, returning its id: the most recently
    /// released sanitised sector if there is one, a new sector at the end
    /// of the drive otherwise. On an encrypted disk the stored bytes are
    /// the *ciphertext* of a zero page, so a later `read_page` decrypts
    /// back to logical zeros. Charges nothing, either way.
    pub fn allocate(&mut self) -> u32 {
        match self.free.pop() {
            Some(id) => {
                let sector = &mut self.sectors[id as usize];
                sector.free = false;
                // A fresh count: the zero page must not be sealed under
                // the keystream of the content it replaces.
                sector.writes = sector.writes.wrapping_add(1);
                sector.data = Raw::SealedZero(sector.writes);
                id
            }
            None => {
                self.sectors.push(Sector {
                    data: Raw::SealedZero(0),
                    ghost: None,
                    free: false,
                    writes: 0,
                });
                (self.sectors.len() - 1) as u32
            }
        }
    }

    /// Read a page from disk (decrypting if enabled). Charges random
    /// disk-read and crypto costs. A plaintext drive returns the image it
    /// stores; an encrypted one, or a sealed zero, a fresh one.
    pub fn read_page(&self, id: u32) -> Arc<[u8]> {
        self.read_page_inner(id, false)
    }

    /// Read a page as part of a sequential pass (scans, vacuum) — charged
    /// at the much cheaper sequential-I/O rate.
    pub fn read_page_seq(&self, id: u32) -> Arc<[u8]> {
        self.read_page_inner(id, true)
    }

    fn read_page_inner(&self, id: u32, sequential: bool) -> Arc<[u8]> {
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_read_seq
        } else {
            model.page_read_disk
        });
        Meter::bump(&self.meter.pages_read_disk, 1);
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), PAGE_SIZE));
            Meter::bump(&self.meter.crypto_bytes, PAGE_SIZE as u64);
        }
        let sector = &self.sectors[id as usize];
        match &sector.data {
            Raw::Image(image, _) => Arc::clone(image),
            // Raw zeros decrypt to keystream.
            Raw::Wiped if self.cipher.is_some() => {
                let mut image = vec![0u8; PAGE_SIZE];
                self.seal(id, sector.writes, &mut image);
                image.into()
            }
            _ => zero_image(),
        }
    }

    /// Write a page image to disk (encrypting if enabled). Charges random
    /// disk-write and crypto costs, and keeps a reference to `image`.
    pub fn write_page(&mut self, id: u32, image: &Arc<[u8]>) {
        self.write_page_inner(id, image, false)
    }

    /// Write a page as part of a sequential batch (vacuum ring buffer).
    pub fn write_page_seq(&mut self, id: u32, image: &Arc<[u8]>) {
        self.write_page_inner(id, image, true)
    }

    fn write_page_inner(&mut self, id: u32, image: &Arc<[u8]>, sequential: bool) {
        assert_eq!(image.len(), PAGE_SIZE, "disk writes are page-sized");
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_write_seq
        } else {
            model.page_write_disk
        });
        Meter::bump(&self.meter.pages_written, 1);
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), PAGE_SIZE));
            Meter::bump(&self.meter.crypto_bytes, PAGE_SIZE as u64);
        }
        let encrypted = self.cipher.is_some();
        let sector = &mut self.sectors[id as usize];
        debug_assert!(!sector.free, "write to free sector {id}");
        sector.writes = sector.writes.wrapping_add(1);
        let data = if image.iter().all(|&b| b == 0) {
            Raw::SealedZero(sector.writes)
        } else {
            Raw::Image(Arc::clone(image), sector.writes)
        };
        // Physical remanence: non-zero previous content lingers at the
        // drive layer until sanitised; an all-zero sector has nothing to
        // leave behind, and the ghost already there stays.
        let previous = std::mem::replace(&mut sector.data, data);
        if !previous.is_zeros(encrypted) {
            sector.ghost = Some(previous);
        }
    }

    /// Overwrite a page with a sanitisation pattern `passes` times,
    /// charging sanitisation cost. The final pass leaves zeros, and the
    /// drive-level remanence for the sector is destroyed.
    pub fn sanitize_page(&mut self, id: u32, passes: u32) {
        let model = self.clock.model().clone();
        self.clock.charge(model.sanitize_cost(PAGE_SIZE, passes));
        // The alternating-pattern passes are what the charge pays for; all
        // they leave is raw zeros and no remanence.
        let sector = &mut self.sectors[id as usize];
        sector.data = Raw::Wiped;
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

    /// The raw bytes generation `raw` of sector `id` stands for: what a
    /// forensic reader sees, and the only place a stored page is sealed.
    fn materialise<'a>(&self, id: u32, raw: &'a Raw) -> Cow<'a, [u8]> {
        let (mut page, generation) = match raw {
            Raw::Image(image, _) if self.cipher.is_none() => return Cow::Borrowed(image),
            Raw::Image(image, generation) => (image.to_vec(), *generation),
            Raw::SealedZero(generation) => (vec![0u8; PAGE_SIZE], *generation),
            Raw::Wiped => return Cow::Owned(vec![0u8; PAGE_SIZE]),
        };
        self.seal(id, generation, &mut page);
        Cow::Owned(page)
    }

    /// Encrypt (or decrypt) a page of sector `id`'s write generation
    /// `generation` in place; a no-op on a plaintext drive. The IV binds
    /// both, so two generations of one sector never share a keystream.
    fn seal(&self, id: u32, generation: u32, page: &mut [u8]) {
        if let Some(c) = &self.cipher {
            c.apply(u64::from(id) | u64::from(generation) << 32, page);
        }
    }

    /// Whether generation `raw` of sector `id` contains `needle`.
    fn holds(&self, id: u32, raw: &Raw, needle: &[u8]) -> bool {
        self.materialise(id, raw)
            .windows(needle.len())
            .any(|w| w == needle)
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
            .filter(|(id, s)| self.holds(*id, &s.data, needle))
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
            .filter(|(id, s)| s.ghost.as_ref().is_some_and(|g| self.holds(*id, g, needle)))
            .map(|(id, _)| id)
            .collect()
    }

    /// The raw on-disk bytes of a page — ciphertext if encryption is on.
    /// What forensics sees; no cost is charged.
    #[cfg(test)]
    pub(crate) fn raw(&self, id: u32) -> Cow<'_, [u8]> {
        self.materialise(id, &self.sectors[id as usize].data)
    }

    /// The raw bytes of a page's remanence ghost, if it has one.
    #[cfg(test)]
    fn remanent(&self, id: u32) -> Option<Cow<'_, [u8]>> {
        let ghost = self.sectors[id as usize].ghost.as_ref()?;
        Some(self.materialise(id, ghost))
    }

    /// Page buffers the drive holds: one per content image, shared or not;
    /// sealed zero, wiped and free sectors hold none.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        let images = self
            .sectors
            .iter()
            .flat_map(|s| [Some(&s.data), s.ghost.as_ref()])
            .filter(|raw| matches!(raw, Some(Raw::Image(..))))
            .count();
        images * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_crypto::aes::KeySize;
    use datacase_sim::check::check;

    fn cipher() -> SectorCipher {
        SectorCipher::from_passphrase(b"test", KeySize::Aes256)
    }

    fn mk_disk(encrypted: bool) -> Disk {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        if encrypted {
            Disk::encrypted(clock, meter, cipher())
        } else {
            Disk::new(clock, meter)
        }
    }

    fn page_with(content: &[u8]) -> Arc<[u8]> {
        let mut p = vec![0u8; PAGE_SIZE];
        p[100..100 + content.len()].copy_from_slice(content);
        p.into()
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
        d.write_page(id, &zero_image());
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
        let mut enc = Disk::encrypted(c2.clone(), m2.clone(), cipher());
        let p = zero_image();
        let a = plain.allocate();
        let b = enc.allocate();
        plain.write_page(a, &p);
        enc.write_page(b, &p);
        assert!(c2.now() > c1.now(), "crypto adds cost");
        // A sealed zero is still charged and metered as a full sector.
        let _ = enc.read_page(b);
        assert_eq!(m2.snapshot().crypto_bytes, 2 * PAGE_SIZE as u64);
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
        d.write_page(id, &zero_image());
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
            d.write_page(a, &zero_image()); // retired: zeroed, ghost left
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
        d.write_page(a, &zero_image());
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
        for encrypted in [false, true] {
            let mut d = mk_disk(encrypted);
            let id = d.allocate();
            // A generation is found by its raw bytes: on LUKS the ghost is
            // the previous *ciphertext*, and its plaintext is never there.
            let generation = |d: &mut Disk, content: &[u8]| {
                d.write_page(id, &page_with(content));
                d.raw(id)[100..164].to_vec()
            };
            let gen_one = generation(&mut d, b"GEN-ONE");
            let gen_two = generation(&mut d, b"GEN-TWO");
            let gen_three = generation(&mut d, b"GEN-THREE");
            assert_eq!(d.scan_raw(&gen_three), vec![id]);
            assert_eq!(d.scan_remanent(&gen_two), vec![id]);
            assert_eq!(d.scan_remanent(b"GEN-TWO").is_empty(), encrypted);
            assert!(d.scan_remanent(&gen_one).is_empty(), "displaced");
            // Zeros over content leave the content as the ghost. Content
            // over plaintext zeros leaves that ghost where it was; on LUKS
            // the sealed zero is keystream, and it becomes the ghost.
            d.write_page(id, &zero_image());
            let sealed = d.raw(id).into_owned();
            d.write_page(id, &page_with(b"GEN-FOUR"));
            assert_eq!(d.scan_remanent(&gen_three).is_empty(), encrypted);
            if encrypted {
                assert_eq!(d.scan_remanent(&sealed[..64]), vec![id], "keystream ghost");
            }
        }
    }

    #[test]
    fn raw_xor_ghost_reveals_no_plaintext() {
        // A sector's raw bytes and its ghost are two generations sealed
        // under the same key. Under one IV their XOR would be the XOR of
        // the two plaintexts: over a sealed zero (bare keystream) the
        // written page itself, over content the two-time pad of both.
        let mut d = mk_disk(true);
        let id = d.allocate();
        let xor = |d: &Disk| -> Vec<u8> {
            let ghost = d.remanent(id).expect("ghost");
            d.raw(id)
                .iter()
                .zip(ghost.iter())
                .map(|(a, b)| a ^ b)
                .collect()
        };
        let first = page_with(b"FIRST-PLAINTEXT");
        d.write_page(id, &first);
        assert_ne!(xor(&d), first[..], "raw ^ keystream ghost is the page");
        let second = page_with(b"SECOND-PLAINTEXT");
        d.write_page(id, &second);
        let pad: Vec<u8> = first
            .iter()
            .zip(second.iter())
            .map(|(a, b)| a ^ b)
            .collect();
        assert_ne!(xor(&d), pad, "raw ^ ghost is the two-time pad");
    }

    /// The parent's drive, one plain buffer per generation: the rules the
    /// bufferless states must reproduce byte for byte.
    struct Model {
        sectors: Vec<(Vec<u8>, Option<Vec<u8>>)>,
        /// Per sector: its write count, and the counts its raw bytes and
        /// its ghost were sealed under.
        gens: Vec<(u32, u32, Option<u32>)>,
        free: Vec<u32>,
        cipher: Option<SectorCipher>,
    }

    impl Model {
        fn seal(&self, id: u32, generation: u32, mut page: Vec<u8>) -> Vec<u8> {
            if let Some(c) = &self.cipher {
                c.apply(u64::from(id) | u64::from(generation) << 32, &mut page);
            }
            page
        }
        fn allocate(&mut self) -> u32 {
            let id = match self.free.pop() {
                Some(id) => {
                    self.gens[id as usize].0 += 1;
                    id
                }
                None => {
                    self.sectors.push((Vec::new(), None));
                    self.gens.push((0, 0, None));
                    self.sectors.len() as u32 - 1
                }
            };
            let generation = self.gens[id as usize].0;
            self.sectors[id as usize].0 = self.seal(id, generation, vec![0; PAGE_SIZE]);
            self.gens[id as usize].1 = generation;
            id
        }
        fn write(&mut self, id: u32, page: &[u8]) {
            self.gens[id as usize].0 += 1;
            let generation = self.gens[id as usize].0;
            let data = self.seal(id, generation, page.to_vec());
            let (raw, ghost) = &mut self.sectors[id as usize];
            let (_, raw_gen, ghost_gen) = &mut self.gens[id as usize];
            if raw.iter().any(|&b| b != 0) {
                *ghost = Some(std::mem::replace(raw, data));
                *ghost_gen = Some(*raw_gen);
            } else {
                *raw = data;
            }
            *raw_gen = generation;
        }
        fn sanitize(&mut self, id: u32) {
            self.sectors[id as usize] = (vec![0; PAGE_SIZE], None);
            self.gens[id as usize].2 = None;
        }
        fn in_use(&self) -> Vec<u32> {
            (0..self.sectors.len() as u32)
                .filter(|id| !self.free.contains(id))
                .collect()
        }
        /// Generations that are content: neither raw zeros nor a seal of them.
        fn images(&self) -> usize {
            let all = (0..self.sectors.len() as u32).flat_map(|id| {
                let (raw, ghost) = &self.sectors[id as usize];
                let (_, raw_gen, ghost_gen) = self.gens[id as usize];
                [Some((raw, raw_gen)), ghost.as_ref().zip(ghost_gen)]
                    .into_iter()
                    .flatten()
                    .map(move |(g, generation)| (id, g, generation))
            });
            all.filter(|&(id, g, generation)| {
                g.iter().any(|&b| b != 0) && *g != self.seal(id, generation, vec![0; PAGE_SIZE])
            })
            .count()
        }
    }

    #[test]
    fn drive_matches_a_reference_model() {
        check("drive_matches_a_reference_model", 48, |s| {
            let ops = s.vec(1..40, |s| {
                (s.range(0u8..5), s.range(0u32..8), s.range(0u8..4))
            });
            let encrypted = s.bool();
            let mut d = mk_disk(encrypted);
            let mut m = Model {
                sectors: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                cipher: encrypted.then(cipher),
            };
            let mut needles: Vec<Vec<u8>> = vec![vec![0u8; 16]];
            for (step, (op, pick, content)) in ops.into_iter().enumerate() {
                let in_use = m.in_use();
                let target = (!in_use.is_empty()).then(|| in_use[pick as usize % in_use.len()]);
                match (op, target) {
                    (0, _) | (_, None) => {
                        if m.sectors.len() < 8 || !m.free.is_empty() {
                            assert_eq!(d.allocate(), m.allocate());
                        }
                    }
                    (1 | 2, Some(id)) => {
                        // Content 0 is the all-zero page (VACUUM FULL's retirement).
                        let marker = format!("step-{step}-content-{content}");
                        let page = if content == 0 {
                            zero_image()
                        } else {
                            page_with(marker.as_bytes())
                        };
                        d.write_page(id, &page);
                        m.write(id, &page);
                        needles.push(marker.into_bytes());
                    }
                    (3, Some(id)) => {
                        d.sanitize_page(id, u32::from(content));
                        m.sanitize(id);
                    }
                    (_, Some(id)) => {
                        d.sanitize_and_release(id, 1 + u32::from(content));
                        m.sanitize(id);
                        m.free.push(id);
                    }
                }
                assert_eq!(d.len(), m.sectors.len());
                assert_eq!(d.free_len(), m.free.len());
                let in_use = m.in_use();
                for &id in &in_use {
                    let (raw, ghost) = &m.sectors[id as usize];
                    assert!(*d.raw(id) == raw[..], "raw bytes of sector {}", id);
                    assert_eq!(d.remanent(id).map(|g| g.into_owned()), ghost.clone());
                    needles.push(raw[200..232].to_vec());
                    if let Some(g) = ghost {
                        needles.push(g[..32].to_vec());
                    }
                }
                for needle in needles.iter().rev().take(12) {
                    let found = |g: &Vec<u8>| g.windows(needle.len()).any(|w| w == &needle[..]);
                    let raw_hits: Vec<u32> = in_use
                        .iter()
                        .copied()
                        .filter(|&id| found(&m.sectors[id as usize].0))
                        .collect();
                    let ghost_hits: Vec<u32> = in_use
                        .iter()
                        .copied()
                        .filter(|&id| m.sectors[id as usize].1.as_ref().is_some_and(found))
                        .collect();
                    assert_eq!(d.scan_raw(needle), raw_hits);
                    assert_eq!(d.scan_remanent(needle), ghost_hits);
                }
                // Exactly one page of memory per content generation.
                assert_eq!(d.held_bytes(), m.images() * PAGE_SIZE);
            }
        });
    }
}
