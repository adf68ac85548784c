//! Per-data-unit key vault for *crypto-erasure*.
//!
//! The paper's related work (\[66\] "Purging compliance from database backups
//! by encryption") motivates an alternative grounding of **permanent
//! deletion**: encrypt each data unit under its own key and destroy the key
//! on erasure. The ciphertext may physically persist (in backups, WAL, old
//! SSTable runs) yet the unit is unrecoverable — a *non-invertible*
//! transformation in Data-CASE terms. The engine's crypto-erasure ablation
//! compares this against VACUUM FULL + drive sanitisation.

use std::collections::{HashMap, VecDeque};

use crate::aes::KeySize;
use crate::backend::CryptoBackend;
use crate::ctr::AesCtr;
use crate::sha256::Sha256;

/// Errors surfaced by the vault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VaultError {
    /// No live key for the requested unit (never created, or destroyed).
    KeyUnavailable(u64),
}

impl std::fmt::Display for VaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let VaultError::KeyUnavailable(id) = self;
        write!(
            f,
            "no live key for data unit {id} (destroyed or never created)"
        )
    }
}

impl std::error::Error for VaultError {}

/// One cached keystream segment: the CTR stream for a (unit, IV) pair
/// from block 0, stamped with the key generation it was generated under.
///
/// Only *keystream* is cached — never plaintext, never ciphertext — so a
/// cache entry on its own reveals nothing about the data it protected:
/// the encryption-at-rest capsule stays sealed.
#[derive(Debug)]
struct KeystreamEntry {
    generation: u64,
    keystream: Vec<u8>,
}

/// Everything the vault knows about one data unit.
#[derive(Debug)]
struct UnitKey {
    /// Monotonic key generation, bumped by every
    /// [`destroy_key`](KeyVault::destroy_key) and hashed into the
    /// derivation — so no destroyed generation's material can ever be
    /// re-derived, no matter how many destroy/recreate cycles a unit
    /// goes through. Outlives the key as its tombstone.
    generation: u64,
    /// The unit's cipher while its key is live. The expanded schedule is
    /// the only long-lived copy of the key the vault keeps, and it is
    /// boxed so it never moves when the map grows: no stale copy is left
    /// in a freed table, and the in-place wipe reaches the one there is.
    live: Option<Box<AesCtr>>,
}

/// A vault holding one symmetric key per data unit.
///
/// Keys are derived deterministically from a vault master secret, the
/// unit id and the unit's key generation, and expanded straight into the
/// unit's [`AesCtr`]: the schedule is built once when the key
/// materialises and lent out by [`cipher`](KeyVault::cipher), so
/// per-operation crypto never re-runs key expansion, and no raw key is
/// stored beside it. [`destroy_key`](KeyVault::destroy_key) zeroes that
/// one heap schedule before freeing it — after it, no path through the
/// vault can reach a working cipher. Not covered: stack temporaries of
/// derivation and expansion are not scrubbed, cached keystream is dropped
/// rather than overwritten, and the vault keeps its master secret, which
/// with the old generation number re-derives the destroyed key.
#[derive(Debug)]
pub struct KeyVault {
    master: [u8; 32],
    size: KeySize,
    units: HashMap<u64, UnitKey>,
    /// The backend every schedule in this vault is expanded under — a
    /// **construction-time invariant**: the builder asserts no unit
    /// exists yet, so a vault can never hold mixed-backend schedules.
    backend: CryptoBackend,
    /// Bounded keystream cache for repeated same-IV re-reads (zipfian
    /// hot tuples). `0` capacity disables it. See
    /// [`keystream_apply`](KeyVault::keystream_apply).
    ks_cache: HashMap<(u64, [u8; 16]), KeystreamEntry>,
    /// Insertion order of `ks_cache` keys — deterministic FIFO eviction.
    ks_order: VecDeque<(u64, [u8; 16])>,
    /// Maximum number of cached keystream segments.
    ks_capacity: usize,
}

impl KeyVault {
    /// A vault deriving keys of the given size from `master_secret`.
    pub fn new(master_secret: &[u8], size: KeySize) -> KeyVault {
        KeyVault {
            master: Sha256::digest(master_secret),
            size,
            units: HashMap::new(),
            backend: CryptoBackend::Auto,
            ks_cache: HashMap::new(),
            ks_order: VecDeque::new(),
            ks_capacity: 0,
        }
    }

    /// Enable the keystream cache with room for `capacity` (unit, IV)
    /// segments (`0` disables it — the default, so measured crypto costs
    /// stay paper-faithful unless a configuration opts in).
    pub fn with_keystream_cache(mut self, capacity: usize) -> KeyVault {
        self.ks_capacity = capacity;
        self
    }

    /// Expand every schedule in this vault under `backend` — per-vault,
    /// so one engine's selector cannot reroute any other engine in the
    /// process. Derived key *material* is unchanged (the backends are
    /// byte-identical); only expansion and round implementation differ.
    ///
    /// Must be called before any key materialises: the backend is a
    /// construction-time invariant, so a vault can never hold schedules
    /// expanded by different backends.
    ///
    /// # Panics
    /// Panics if any schedule has already been expanded.
    pub fn with_backend(mut self, backend: CryptoBackend) -> KeyVault {
        assert!(
            self.units.is_empty(),
            "KeyVault backend is a construction-time invariant: set it \
             before the first ensure_key, not after schedules exist"
        );
        self.backend = backend;
        self
    }

    /// The configured key size.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// Make sure `unit` has a live key, deriving it and expanding its
    /// cipher schedule if it has none (never created, or destroyed).
    pub fn ensure_key(&mut self, unit: u64) {
        let slot = self.units.entry(unit).or_insert(UnitKey {
            generation: 0,
            live: None,
        });
        if slot.live.is_none() {
            // A destroyed key must never be silently recreated with the
            // same material: every destroy bumped the generation, and the
            // generation is hashed into the derivation.
            let key = Self::derive_raw(&self.master, self.size, unit, slot.generation);
            slot.live = Some(Box::new(AesCtr::expand(
                self.size,
                &key[..self.size.key_len()],
                self.backend,
            )));
        }
    }

    /// The unit's raw key in the first `key_len` bytes.
    fn derive_raw(master: &[u8; 32], size: KeySize, unit: u64, generation: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(master);
        h.update(&unit.to_be_bytes());
        h.update(&generation.to_be_bytes());
        let mut key = h.finalize();
        if size == KeySize::Aes256 {
            let mut h2 = Sha256::new();
            h2.update(&key);
            h2.update(b"ext");
            key[16..].copy_from_slice(&h2.finalize()[..16]);
        }
        key
    }

    /// The unit's CTR cipher, if its key is live — the schedule expanded
    /// once at [`ensure_key`](KeyVault::ensure_key) time, lent for the
    /// length of one operation.
    pub fn cipher(&self, unit: u64) -> Result<&AesCtr, VaultError> {
        self.units
            .get(&unit)
            .and_then(|slot| slot.live.as_deref())
            .ok_or(VaultError::KeyUnavailable(unit))
    }

    /// Apply the unit's CTR stream for `iv` to `data` via the keystream
    /// cache: a hit XORs the cached stream (no AES at all), a miss (or a
    /// too-short entry) generates the uncovered blocks through the
    /// unit's cipher and caches them for the next same-IV operation —
    /// exactly the hot-tuple re-read pattern of zipfian workloads, where
    /// the IV is bound to the unit and never changes.
    ///
    /// Returns `Ok(true)` if the cache served (fully or after extension),
    /// `Ok(false)` if caching is disabled (caller takes the ordinary
    /// [`cipher`](KeyVault::cipher) path), and `Err` if the unit's key is
    /// destroyed or was never created. Output bytes are identical to
    /// `cipher(unit)?.apply(iv, data)` in every case.
    ///
    /// Entries are stamped with the unit's key generation: a destroyed
    /// key's stream can never be served for a recreated key, even though
    /// [`destroy_key`](KeyVault::destroy_key) also drops the entries
    /// eagerly (the stamp is defence in depth).
    pub fn keystream_apply(
        &mut self,
        unit: u64,
        iv: [u8; 16],
        data: &mut [u8],
    ) -> Result<bool, VaultError> {
        if self.ks_capacity == 0 {
            return Ok(false);
        }
        let (generation, cipher) = match self.units.get(&unit) {
            Some(UnitKey {
                generation,
                live: Some(cipher),
            }) => (*generation, cipher),
            _ => return Err(VaultError::KeyUnavailable(unit)),
        };
        let needed = data.len().next_multiple_of(16);
        let key = (unit, iv);
        let stale = self
            .ks_cache
            .get(&key)
            .is_some_and(|e| e.generation != generation);
        if stale {
            self.ks_cache.remove(&key);
            self.ks_order.retain(|k| *k != key);
        }
        let entry = match self.ks_cache.get_mut(&key) {
            Some(e) => e,
            None => {
                if self.ks_cache.len() >= self.ks_capacity {
                    if let Some(oldest) = self.ks_order.pop_front() {
                        self.ks_cache.remove(&oldest);
                    }
                }
                self.ks_order.push_back(key);
                self.ks_cache.entry(key).or_insert(KeystreamEntry {
                    generation,
                    keystream: Vec::new(),
                })
            }
        };
        if entry.keystream.len() < needed {
            // Keystream is the encryption of zeros: extend the cached
            // prefix by running the cipher from the first uncovered block.
            let covered_blocks = (entry.keystream.len() / 16) as u64;
            let mut suffix = vec![0u8; needed - entry.keystream.len()];
            cipher.apply_at(iv, covered_blocks, &mut suffix);
            entry.keystream.extend_from_slice(&suffix);
        }
        for (d, k) in data.iter_mut().zip(entry.keystream.iter()) {
            *d ^= k;
        }
        Ok(true)
    }

    /// Drop every cached keystream segment for `unit` without touching
    /// its key — the cache-invalidation half of
    /// [`destroy_key`](KeyVault::destroy_key), exposed for purge paths
    /// that scrub a unit's physical traces while the key stays live.
    pub fn purge_unit(&mut self, unit: u64) {
        self.ks_cache.retain(|(u, _), _| *u != unit);
        self.ks_order.retain(|(u, _)| *u != unit);
    }

    /// Cached keystream segments currently held (tests and space
    /// accounting).
    pub fn cached_keystreams(&self) -> usize {
        self.ks_cache.len()
    }

    /// Destroy the key for `unit` — the crypto-erasure system-action.
    ///
    /// Returns true if a live key existed. After this call, ciphertexts of
    /// the unit are permanently unreadable through the vault: the heap
    /// schedule that held the key is overwritten in place, then freed,
    /// and the unit's generation moves on so `ensure_key` derives a
    /// different key from here on.
    pub fn destroy_key(&mut self, unit: u64) -> bool {
        // Cached keystream goes with the key: XORing it with ciphertext
        // would reveal plaintext, so erasure must not leave it behind.
        self.purge_unit(unit);
        let Some(slot) = self.units.get_mut(&unit) else {
            return false;
        };
        let Some(mut cipher) = slot.live.take() else {
            return false;
        };
        cipher.wipe();
        slot.generation += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::AesCtr;
    use proptest::prelude::*;

    /// The first 32 keystream bytes of `unit`'s live key under a fixed IV
    /// — a fingerprint of the key, now that the vault never hands the raw
    /// bytes out.
    fn stream(v: &KeyVault, unit: u64) -> Vec<u8> {
        let mut out = vec![0u8; 32];
        v.cipher(unit)
            .expect("live key")
            .apply(AesCtr::iv_from_nonce(0), &mut out);
        out
    }

    #[test]
    fn roundtrip_through_unit_cipher() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(7);
        let c = v.cipher(7).unwrap();
        let mut data = b"personal data".to_vec();
        c.apply(AesCtr::iv_from_nonce(7), &mut data);
        assert_ne!(&data, b"personal data");
        c.apply(AesCtr::iv_from_nonce(7), &mut data);
        assert_eq!(&data, b"personal data");
    }

    #[test]
    fn destroy_makes_cipher_unavailable() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        assert_eq!(v.cipher(1).unwrap_err(), VaultError::KeyUnavailable(1));
        v.ensure_key(1);
        assert!(v.destroy_key(1));
        assert_eq!(v.cipher(1).unwrap_err(), VaultError::KeyUnavailable(1));
        assert!(!v.destroy_key(1), "double destroy reports no live key");
        assert!(!v.destroy_key(2), "never-created unit has no live key");
    }

    #[test]
    fn distinct_units_have_distinct_keys() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        v.ensure_key(1);
        v.ensure_key(2);
        assert_ne!(stream(&v, 1), stream(&v, 2));
    }

    #[test]
    fn key_sizes_respected() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let mut v = KeyVault::new(b"m", size);
            v.ensure_key(1);
            assert_eq!(v.cipher(1).unwrap().key_size(), size);
        }
    }

    #[test]
    fn cipher_lends_the_one_schedule_and_it_never_moves() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        v.ensure_key(3);
        let at = v.cipher(3).unwrap() as *const AesCtr;
        // A second ensure is a no-op, and growing the map around it does
        // not relocate the schedule: `destroy_key`'s in-place wipe
        // reaches the only place the key has ever been.
        for unit in 0..1000 {
            v.ensure_key(unit);
        }
        assert!(std::ptr::eq(at, v.cipher(3).unwrap()));
    }

    #[test]
    fn size_of_a_cipher_is_one_schedule() {
        // 15 round keys x 16 B = 240 B, plus the lane's bookkeeping. Two
        // more schedules or a `Vec` header beside it would not fit.
        assert!(
            std::mem::size_of::<AesCtr>() <= 320,
            "AesCtr is {} B",
            std::mem::size_of::<AesCtr>()
        );
    }

    #[test]
    fn keystream_cache_matches_direct_cipher_and_extends() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(4);
        let iv = AesCtr::iv_from_nonce(4);
        let plain: Vec<u8> = (0..100).map(|i| i as u8).collect();
        // Cold: generates + caches. Warm: served from cache. Longer than
        // cached: extends the segment. All byte-identical to the cipher.
        for len in [40usize, 40, 100, 7] {
            let mut via_cache = plain[..len].to_vec();
            assert_eq!(v.keystream_apply(4, iv, &mut via_cache), Ok(true));
            let mut direct = plain[..len].to_vec();
            v.cipher(4).unwrap().apply(iv, &mut direct);
            assert_eq!(via_cache, direct, "len {len}");
        }
        assert_eq!(v.cached_keystreams(), 1, "one (unit, iv) segment");
    }

    #[test]
    fn keystream_cache_disabled_returns_false() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(1);
        let mut data = vec![0xAB; 32];
        assert_eq!(
            v.keystream_apply(1, AesCtr::iv_from_nonce(1), &mut data),
            Ok(false)
        );
        assert_eq!(data, vec![0xAB; 32], "disabled cache must not touch data");
    }

    #[test]
    fn destroy_key_purges_cached_keystream() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256).with_keystream_cache(8);
        v.ensure_key(6);
        let iv = AesCtr::iv_from_nonce(6);
        let mut data = vec![0u8; 64];
        v.keystream_apply(6, iv, &mut data).unwrap();
        assert_eq!(v.cached_keystreams(), 1);
        v.destroy_key(6);
        assert_eq!(
            v.cached_keystreams(),
            0,
            "keystream must not outlive the key"
        );
        let mut again = vec![0u8; 64];
        assert_eq!(
            v.keystream_apply(6, iv, &mut again),
            Err(VaultError::KeyUnavailable(6)),
            "no stale keystream after crypto-erasure"
        );
    }

    #[test]
    fn purge_unit_invalidates_cache_but_keeps_key() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(2);
        let iv = AesCtr::iv_from_nonce(2);
        let mut data = vec![0u8; 32];
        v.keystream_apply(2, iv, &mut data).unwrap();
        v.purge_unit(2);
        assert_eq!(v.cached_keystreams(), 0);
        // Key still live: the next apply regenerates and still matches.
        let mut a = b"regenerated-after-purge!".to_vec();
        let mut b = a.clone();
        assert_eq!(v.keystream_apply(2, iv, &mut a), Ok(true));
        v.cipher(2).unwrap().apply(iv, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn recreated_key_never_sees_the_old_generations_stream() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(9);
        let iv = AesCtr::iv_from_nonce(9);
        let mut old_stream = vec![0u8; 32];
        v.keystream_apply(9, iv, &mut old_stream).unwrap();
        v.destroy_key(9);
        v.ensure_key(9);
        let mut new_stream = vec![0u8; 32];
        v.keystream_apply(9, iv, &mut new_stream).unwrap();
        assert_ne!(old_stream, new_stream, "generations must not alias");
        let mut direct = vec![0u8; 32];
        v.cipher(9).unwrap().apply(iv, &mut direct);
        assert_eq!(new_stream, direct);
    }

    #[test]
    fn keystream_cache_capacity_is_bounded_fifo() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(2);
        for unit in 1..=3u64 {
            v.ensure_key(unit);
            let mut data = vec![0u8; 16];
            v.keystream_apply(unit, AesCtr::iv_from_nonce(unit), &mut data)
                .unwrap();
        }
        assert_eq!(v.cached_keystreams(), 2, "oldest segment evicted");
        // The evicted (oldest) entry regenerates correctly on re-probe.
        let mut a = vec![0x11; 48];
        let mut b = a.clone();
        v.keystream_apply(1, AesCtr::iv_from_nonce(1), &mut a)
            .unwrap();
        v.cipher(1).unwrap().apply(AesCtr::iv_from_nonce(1), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn backend_is_a_construction_time_invariant() {
        // Setting the backend before any key exists is fine…
        let mut v = KeyVault::new(b"m", KeySize::Aes128).with_backend(CryptoBackend::Software);
        v.ensure_key(1);
        assert_eq!(
            v.cipher(1).unwrap().active_backend(),
            CryptoBackend::Software.resolve()
        );
    }

    #[test]
    #[should_panic(expected = "construction-time invariant")]
    fn backend_change_after_first_key_is_impossible() {
        let mut v = KeyVault::new(b"m", KeySize::Aes128);
        v.ensure_key(1);
        // A schedule exists: rerouting now would silently mix backends.
        let _ = v.with_backend(CryptoBackend::Software);
    }

    #[test]
    fn all_backends_derive_identical_key_material() {
        let mut auto = KeyVault::new(b"master", KeySize::Aes256);
        let mut forced =
            KeyVault::new(b"master", KeySize::Aes256).with_backend(CryptoBackend::Software);
        auto.ensure_key(3);
        forced.ensure_key(3);
        assert_eq!(stream(&auto, 3), stream(&forced, 3));
    }

    /// What a caller does per tuple: the cache if it serves, the unit's
    /// cipher otherwise.
    fn apply(v: &mut KeyVault, unit: u64, data: &mut [u8]) -> Result<(), VaultError> {
        let iv = AesCtr::iv_from_nonce(unit);
        if !v.keystream_apply(unit, iv, data)? {
            v.cipher(unit)?.apply(iv, data);
        }
        Ok(())
    }

    proptest! {
        /// Random ensure / destroy / cipher / keystream_apply / purge_unit
        /// sequences over 8 units, with the keystream cache off and at 4
        /// entries, against a `unit -> (generation, live)` model plus the
        /// cache's expected FIFO occupancy: the invariants one record per
        /// unit now keeps by construction.
        #[test]
        fn vault_lifecycle_matches_a_model(
            ops in proptest::collection::vec((0u8..5, 0u64..8, 0usize..70), 1..80),
        ) {
            let mut plain = KeyVault::new(b"model", KeySize::Aes128);
            let mut cached = KeyVault::new(b"model", KeySize::Aes128).with_keystream_cache(4);
            let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
            // Per unit, the key fingerprint of every generation so far.
            let mut seen: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
            // Units with a cached segment, oldest first (one IV per unit).
            let mut segments: VecDeque<u64> = VecDeque::new();
            for (op, unit, len) in ops {
                let (generation, live) = *model.get(&unit).unwrap_or(&(0, false));
                match op {
                    0 => {
                        plain.ensure_key(unit);
                        cached.ensure_key(unit);
                        model.insert(unit, (generation, true));
                        let fingerprint = stream(&plain, unit);
                        prop_assert_eq!(&fingerprint, &stream(&cached, unit));
                        let earlier = seen.entry(unit).or_default();
                        if live {
                            prop_assert_eq!(earlier.last(), Some(&fingerprint),
                                            "ensure re-keyed live unit {}", unit);
                        } else {
                            prop_assert!(!earlier.contains(&fingerprint),
                                         "unit {} generation {} reuses a destroyed key",
                                         unit, generation);
                            earlier.push(fingerprint);
                        }
                    }
                    1 => {
                        prop_assert_eq!(plain.destroy_key(unit), live);
                        prop_assert_eq!(cached.destroy_key(unit), live);
                        segments.retain(|u| *u != unit);
                        if live {
                            model.insert(unit, (generation + 1, false));
                        }
                    }
                    2 => {
                        prop_assert_eq!(plain.cipher(unit).is_ok(), live);
                        prop_assert_eq!(cached.cipher(unit).is_ok(), live);
                    }
                    3 => {
                        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                        let (mut a, mut b) = (data.clone(), data);
                        let expect = if live { Ok(()) } else { Err(VaultError::KeyUnavailable(unit)) };
                        prop_assert_eq!(&apply(&mut plain, unit, &mut a), &expect);
                        prop_assert_eq!(&apply(&mut cached, unit, &mut b), &expect);
                        prop_assert_eq!(a, b, "cache on and off diverged on unit {}", unit);
                        if live && !segments.contains(&unit) {
                            if segments.len() == 4 {
                                segments.pop_front();
                            }
                            segments.push_back(unit);
                        }
                    }
                    _ => {
                        plain.purge_unit(unit);
                        cached.purge_unit(unit);
                        segments.retain(|u| *u != unit);
                    }
                }
                prop_assert_eq!(cached.cached_keystreams(), segments.len());
            }
            for (unit, (_, live)) in model {
                prop_assert_eq!(plain.cipher(unit).is_ok(), live);
                prop_assert_eq!(cached.cipher(unit).is_ok(), live);
            }
        }
    }
}
