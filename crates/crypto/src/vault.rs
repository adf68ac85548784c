//! Per-data-unit key vault for *crypto-erasure*.
//!
//! The paper's related work (\[66\] "Purging compliance from database backups
//! by encryption") motivates an alternative grounding of **permanent
//! deletion**: encrypt each data unit under its own key and destroy the key
//! on erasure. The ciphertext may physically persist (in backups, WAL, old
//! SSTable runs) yet the unit is unrecoverable — a *non-invertible*
//! transformation in Data-CASE terms, as long as nothing the system keeps
//! can bring the key back. The engine's crypto-erasure ablation compares
//! this against VACUUM FULL + drive sanitisation.

use std::collections::HashMap;

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

/// One unit's raw key (`key_len` bytes): the only long-lived copy of it.
/// It is boxed so it never moves when the map grows, and every box is
/// zeroed in place before it is freed — replaced by a newer key,
/// destroyed, refused by the write it was drawn for, or dropped with the
/// vault.
#[derive(Debug)]
struct KeyBox(Box<[u8]>);

impl Drop for KeyBox {
    fn drop(&mut self) {
        self.0.fill(0);
        // Keeps the stores from being elided when the box is freed right
        // after.
        std::hint::black_box(&self.0);
        #[cfg(test)]
        tests::freeing(&self.0);
    }
}

/// A vault holding one symmetric key per data unit, drawn from a
/// forward-secure ratchet.
///
/// The vault retains a 32-byte ratchet state and one key box per live
/// unit, nothing else. A draw takes `SHA-256(state ‖ 1)` as the key (its
/// first `key_len` bytes) and overwrites the state with
/// `SHA-256(state ‖ 0)`, so the state derives only keys not yet drawn:
/// once a key's box is zeroed, nothing the vault holds brings it back.
/// [`rekey`](KeyVault::rekey) gives every stored version of a unit a key
/// of its own, so each key encrypts exactly one plaintext.
/// [`cipher`](KeyVault::cipher) expands the unit's key on use into an
/// [`AesCtr`] that lives for one operation.
/// [`destroy_key`](KeyVault::destroy_key) zeroes the box and forgets the
/// unit. Not covered: stack temporaries of the ratchet's hashes and of key
/// expansion are not scrubbed, and whoever knows the seed can run the
/// ratchet from the start. The engine seeds it from a literal and the
/// shard index, the same in every deployment; a per-deployment secret
/// waits for a free `EngineConfig` field (ROADMAP item 23(b)).
#[derive(Debug)]
pub struct KeyVault {
    state: [u8; 32],
    size: KeySize,
    units: HashMap<u64, KeyBox>,
    /// The backend every cipher this vault lends is expanded under.
    backend: CryptoBackend,
}

impl KeyVault {
    /// A vault of keys of the given size, its ratchet seeded from
    /// `secret`.
    pub fn new(secret: &[u8], size: KeySize) -> KeyVault {
        KeyVault {
            state: Sha256::digest(secret),
            size,
            units: HashMap::new(),
            backend: CryptoBackend::Auto,
        }
    }

    /// The vault unchanged: it keeps no keystream cache. A bridge for the
    /// benchmark's frozen API; ROADMAP item 25 deletes it.
    pub fn with_keystream_cache(self, _capacity: usize) -> KeyVault {
        self
    }

    /// Expand every cipher this vault lends under `backend` — per-vault,
    /// so one engine's selector cannot reroute any other engine in the
    /// process. Key *material* is unchanged (the backends are
    /// byte-identical); only expansion and round implementation differ.
    /// The vault stores no schedule, so keys drawn before the call are
    /// lent on the new lane too.
    pub fn with_backend(mut self, backend: CryptoBackend) -> KeyVault {
        self.backend = backend;
        self
    }

    /// The configured key size.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// `SHA-256(state ‖ branch)`: branch 1 is a key, branch 0 the next
    /// state.
    fn step(state: &[u8; 32], branch: u8) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(state);
        h.update(&[branch]);
        h.finalize()
    }

    /// Draw the next key off the ratchet and move the state past it.
    fn draw(&mut self) -> KeyBox {
        let key = KeyBox(Box::from(
            &Self::step(&self.state, 1)[..self.size.key_len()],
        ));
        self.state = Self::step(&self.state, 0);
        key
    }

    /// Make sure `unit` has a live key, drawing one if it has none (never
    /// created, or destroyed).
    pub fn ensure_key(&mut self, unit: u64) {
        if !self.units.contains_key(&unit) {
            let key = self.draw();
            self.units.insert(unit, key);
        }
    }

    /// Encrypt a new version of `unit` under a key of its own: draw a
    /// fresh key and lend its cipher to `write`, which encrypts the
    /// version and stores it. The key replaces the unit's current one only
    /// if `write` succeeds, so a refused write leaves the stored version
    /// readable under the key it was written with. Whichever key loses is
    /// zeroed before it is freed.
    pub fn rekey<E>(
        &mut self,
        unit: u64,
        write: impl FnOnce(&AesCtr) -> Result<(), E>,
    ) -> Result<(), E> {
        let key = self.draw();
        write(&AesCtr::expand(self.size, &key.0, self.backend))?;
        self.units.insert(unit, key);
        Ok(())
    }

    /// The unit's live raw key, if it has one.
    fn key(&self, unit: u64) -> Option<&[u8]> {
        self.units.get(&unit).map(|key| &*key.0)
    }

    /// Whether `unit` has a live key. Reads the key box only: no cipher
    /// is expanded.
    pub fn is_live(&self, unit: u64) -> bool {
        self.units.contains_key(&unit)
    }

    /// The unit's CTR cipher, if its key is live — expanded from the raw
    /// key on every call, so hold it for one operation and let it go.
    pub fn cipher(&self, unit: u64) -> Result<AesCtr, VaultError> {
        self.key(unit)
            .map(|key| AesCtr::expand(self.size, key, self.backend))
            .ok_or(VaultError::KeyUnavailable(unit))
    }

    /// Always `Ok(false)`, "not served": the vault keeps no keystream
    /// cache, so the caller takes [`cipher`](KeyVault::cipher). A bridge
    /// for the benchmark's frozen API; ROADMAP item 25 deletes it.
    pub fn keystream_apply(
        &mut self,
        _unit: u64,
        _iv: [u8; 16],
        _data: &mut [u8],
    ) -> Result<bool, VaultError> {
        Ok(false)
    }

    /// Destroy the key for `unit` — the crypto-erasure system-action.
    ///
    /// Returns true if a live key existed. After this call, ciphertexts of
    /// the unit are permanently unreadable through the vault: the heap
    /// box that held the key is overwritten in place, then freed, and the
    /// unit is forgotten, so a later key for it is a fresh draw.
    pub fn destroy_key(&mut self, unit: u64) -> bool {
        self.units.remove(&unit).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::AesCtr;
    use datacase_sim::check::check;
    use std::cell::RefCell;
    use std::collections::HashSet;

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
    fn the_ratchet_matches_its_definition() {
        // Draw n is SHA-256(s_n ‖ 1) cut to the key length, where s_0 is
        // SHA-256(secret) and s_{n+1} = SHA-256(s_n ‖ 0).
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let mut v = KeyVault::new(b"seed", size);
            let mut state = Sha256::digest(b"seed");
            for unit in 0..4 {
                v.ensure_key(unit);
                let hash = |branch: u8| Sha256::digest(&[&state[..], &[branch]].concat());
                assert_eq!(v.key(unit).unwrap(), &hash(1)[..size.key_len()]);
                state = hash(0);
                assert_eq!(v.state, state, "{size:?}: the old state is overwritten");
            }
        }
    }

    #[test]
    fn the_raw_key_never_moves() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        v.ensure_key(3);
        let at = v.key(3).unwrap().as_ptr();
        // A second ensure is a no-op, and growing the map around it does
        // not relocate the key: the in-place wipe reaches the only place
        // the key has ever been.
        for unit in 0..1000 {
            v.ensure_key(unit);
        }
        assert!(std::ptr::eq(at, v.key(3).unwrap().as_ptr()));
        // The box holds exactly the key, and the lent cipher runs on it.
        assert_eq!(v.key(3).unwrap().len(), KeySize::Aes256.key_len());
        let mut direct = vec![0u8; 32];
        AesCtr::from_key(KeySize::Aes256, v.key(3).unwrap())
            .apply(AesCtr::iv_from_nonce(0), &mut direct);
        assert_eq!(stream(&v, 3), direct);
    }

    thread_local! {
        /// Address and bytes of every key box freed on this thread, read
        /// just before the free.
        static FREED: RefCell<Vec<(*const u8, Vec<u8>)>> = const { RefCell::new(Vec::new()) };
    }

    /// A key box's last look before it is freed.
    pub(super) fn freeing(key: &[u8]) {
        FREED.with(|f| f.borrow_mut().push((key.as_ptr(), key.to_vec())));
    }

    fn freed() -> Vec<(*const u8, Vec<u8>)> {
        FREED.with(|f| f.take())
    }

    #[test]
    fn destroyed_key_is_zeroed_before_it_is_freed() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let mut v = KeyVault::new(b"master", size);
            v.ensure_key(5);
            let at = v.key(5).unwrap().as_ptr();
            assert!(v.key(5).unwrap().iter().any(|&b| b != 0));
            freed();
            // The box `destroy_key` frees is the very one the key lived
            // in, and it is all zeros by then.
            assert!(v.destroy_key(5));
            assert_eq!(freed(), vec![(at, vec![0u8; size.key_len()])], "{size:?}");
            assert!(!v.is_live(5));
            assert!(!v.destroy_key(5));
            assert!(freed().is_empty());
        }
    }

    #[test]
    fn destroyed_keys_stay_destroyed() {
        // Whatever the vault retains after a destroy — the live boxes and
        // the ratchet state — never gives a key of the unit back, the
        // destroyed one or any it replaced: no live box equals one, and
        // 10^4 draws from a copy of the state never yield one.
        for size in [KeySize::Aes128, KeySize::Aes256] {
            let mut v = KeyVault::new(b"engine-master-secret", size);
            for unit in 0..8 {
                v.ensure_key(unit);
            }
            let mut gone = HashSet::from([v.key(3).unwrap().to_vec()]);
            for version in 0..4 {
                v.rekey(3, |_| Ok::<(), ()>(())).unwrap();
                assert_eq!(v.units.len(), 8, "version {version} replaced, not added");
                gone.insert(v.key(3).unwrap().to_vec());
            }
            assert_eq!(gone.len(), 5);
            assert!(v.destroy_key(3));
            assert!(v.units.values().all(|key| !gone.contains(&*key.0)));
            let mut copy = KeyVault::new(b"", size);
            copy.state = v.state;
            for _ in 0..10_000 {
                assert!(!gone.contains(&*copy.draw().0), "{size:?}: re-derived");
            }
        }
    }

    #[test]
    fn a_unit_record_is_one_pointer() {
        // The key box's fat pointer and nothing beside it: an inline
        // schedule (~256 B), a generation or a second box would not fit.
        assert_eq!(std::mem::size_of::<KeyBox>(), 16);
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
    fn the_keystream_bridge_serves_nothing() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(1);
        let mut data = vec![0xAB; 32];
        assert_eq!(
            v.keystream_apply(1, AesCtr::iv_from_nonce(1), &mut data),
            Ok(false)
        );
        assert_eq!(data, vec![0xAB; 32], "the bridge must not touch data");
    }

    #[test]
    fn ciphers_run_on_the_backend_set_last() {
        // No schedule is stored, so a key drawn before the call is lent
        // on the new lane, with the same stream.
        let mut v = KeyVault::new(b"m", KeySize::Aes128);
        v.ensure_key(1);
        let before = stream(&v, 1);
        let v = v.with_backend(CryptoBackend::Software);
        assert_eq!(
            v.cipher(1).unwrap().active_backend(),
            CryptoBackend::Software.resolve()
        );
        assert_eq!(stream(&v, 1), before);
    }

    #[test]
    fn all_backends_draw_identical_key_material() {
        let mut auto = KeyVault::new(b"master", KeySize::Aes256);
        let mut forced =
            KeyVault::new(b"master", KeySize::Aes256).with_backend(CryptoBackend::Software);
        auto.ensure_key(3);
        forced.ensure_key(3);
        assert_eq!(stream(&auto, 3), stream(&forced, 3));
    }

    /// Random ensure / rekey (accepted or refused) / destroy / cipher
    /// sequences over 8 units against a `unit -> live key` model: every
    /// key the vault lends is distinct, a destroyed or never-drawn unit is
    /// `KeyUnavailable`, and every key box that loses — replaced,
    /// refused or destroyed — is zeroed before it is freed.
    #[test]
    fn vault_lifecycle_matches_a_model() {
        check("vault_lifecycle_matches_a_model", 64, |s| {
            let ops = s.vec(1..80, |s| (s.range(0u8..5), s.range(0u64..8)));
            let mut v = KeyVault::new(b"model", KeySize::Aes128);
            // The fingerprint of each unit's live key.
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            // Every key the vault ever lent, by fingerprint.
            let mut lent: HashSet<Vec<u8>> = HashSet::new();
            freed();
            for (op, unit) in ops {
                let box_at = v.key(unit).map(<[u8]>::as_ptr);
                let live = model.contains_key(&unit);
                let mut fresh = |cipher: &AesCtr| {
                    let mut fingerprint = vec![0u8; 32];
                    cipher.apply(AesCtr::iv_from_nonce(0), &mut fingerprint);
                    assert!(lent.insert(fingerprint.clone()), "a key was lent twice");
                    fingerprint
                };
                match op {
                    0 => {
                        v.ensure_key(unit);
                        if !live {
                            model.insert(unit, fresh(&v.cipher(unit).unwrap()));
                        }
                        assert!(freed().is_empty(), "ensure freed a key");
                    }
                    1 | 2 => {
                        let accept = op == 1;
                        let mut drawn = None;
                        let r = v.rekey(unit, |cipher| {
                            drawn = Some(fresh(cipher));
                            if accept {
                                Ok(())
                            } else {
                                Err("refused")
                            }
                        });
                        assert_eq!(r.is_ok(), accept);
                        let frees = freed();
                        if accept {
                            model.insert(unit, drawn.unwrap());
                            // The replaced box, zeroed, and nothing else.
                            let expect: Vec<_> =
                                box_at.map(|at| (at, vec![0u8; 16])).into_iter().collect();
                            assert_eq!(frees, expect, "replacing unit {unit}'s key");
                        } else {
                            assert_eq!(frees.len(), 1, "the refused key is freed");
                            assert_eq!(frees[0].1, vec![0u8; 16], "the refused key is zeroed");
                            assert_eq!(v.key(unit).map(<[u8]>::as_ptr), box_at);
                        }
                    }
                    3 => {
                        assert_eq!(v.destroy_key(unit), live);
                        model.remove(&unit);
                        let expect: Vec<_> =
                            box_at.map(|at| (at, vec![0u8; 16])).into_iter().collect();
                        assert_eq!(freed(), expect, "destroying unit {unit}'s key");
                    }
                    _ => {}
                }
                for unit in 0..8 {
                    match model.get(&unit) {
                        Some(fingerprint) => assert_eq!(&stream(&v, unit), fingerprint),
                        None => {
                            assert!(!v.is_live(unit));
                            assert_eq!(
                                v.cipher(unit).unwrap_err(),
                                VaultError::KeyUnavailable(unit)
                            );
                        }
                    }
                }
            }
            drop(v);
            assert_eq!(
                freed().len(),
                model.len(),
                "dropping the vault frees every key"
            );
        });
    }
}
