//! Sector-level (disk-layer) encryption shim, emulating LUKS.
//!
//! The P_GBench profile encrypts at the disk layer: every page write
//! encrypts the whole page, every page read decrypts it, with a key derived
//! from a passphrase via [`crate::kdf::luks_derive_key`]. The IV is bound to
//! the sector number (ESSIV-flavoured: we hash the sector with the key).

use crate::aes::KeySize;
use crate::backend::CryptoBackend;
use crate::ctr::AesCtr;
use crate::sha256::Sha256;

/// Encrypts/decrypts fixed-size sectors with a sector-bound IV.
///
/// The ESSIV hash is kept as a **midstate**: a [`Sha256`] already fed the
/// key-bound salt at construction, cloned per sector instead of re-hashing
/// the salt for every page.
#[derive(Clone, Debug)]
pub struct SectorCipher {
    ctr: AesCtr,
    iv_midstate: Sha256,
}

impl SectorCipher {
    /// Build from a passphrase (LUKS-style derivation) and key size.
    pub fn from_passphrase(passphrase: &[u8], size: KeySize) -> SectorCipher {
        let key = crate::kdf::luks_derive_key(passphrase, size.key_len());
        let mut h = Sha256::new();
        h.update(&key);
        h.update(b"essiv");
        let iv_salt = h.finalize();
        let mut midstate = Sha256::new();
        midstate.update(&iv_salt);
        SectorCipher {
            ctr: AesCtr::from_key(size, &key),
            iv_midstate: midstate,
        }
    }

    /// The underlying key size (for cost accounting).
    pub fn key_size(&self) -> KeySize {
        self.ctr.key_size()
    }

    /// Move this cipher onto `backend` (see [`AesCtr::with_backend`]) —
    /// per-instance, so one engine's selector cannot reroute another's.
    /// Key material and sector-IV binding are unchanged; only the round
    /// implementation differs.
    pub fn with_backend(self, backend: CryptoBackend) -> SectorCipher {
        SectorCipher {
            ctr: self.ctr.with_backend(backend),
            iv_midstate: self.iv_midstate,
        }
    }

    /// The ESSIV-flavoured IV binding `sector` to this cipher's key: the
    /// key-bound hash midstate (salt absorbed once at construction) is
    /// cloned and fed only the sector number. Public so the
    /// crypto-equivalence gate can run the [`crate::reference`] oracle
    /// under the same binding.
    pub fn sector_iv(&self, sector: u64) -> [u8; 16] {
        let mut h = self.iv_midstate.clone();
        h.update(&sector.to_be_bytes());
        let d = h.finalize();
        // Keep the low 8 bytes as counter space (zeroed).
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&d[..8]);
        iv
    }

    /// Encrypt (or decrypt — CTR is an involution) sector `sector` in place.
    ///
    /// Sector I/O is page-granular, so the common case takes the
    /// whole-block [`AesCtr::apply_blocks`] fast path; ragged buffers
    /// (tests, partial sectors) fall back to the general entry.
    pub fn apply(&self, sector: u64, data: &mut [u8]) {
        let iv = self.sector_iv(sector);
        if data.len().is_multiple_of(16) {
            self.ctr.apply_blocks(iv, data);
        } else {
            self.ctr.apply(iv, data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_roundtrip() {
        let sc = SectorCipher::from_passphrase(b"disk-pass", KeySize::Aes256);
        let original = vec![0x5Au8; 512];
        let mut data = original.clone();
        sc.apply(42, &mut data);
        assert_ne!(data, original);
        sc.apply(42, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_sectors_encrypt_differently() {
        let sc = SectorCipher::from_passphrase(b"disk-pass", KeySize::Aes256);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        sc.apply(1, &mut a);
        sc.apply(2, &mut b);
        assert_ne!(a, b, "same plaintext in different sectors must differ");
    }

    #[test]
    fn different_passphrases_differ() {
        let s1 = SectorCipher::from_passphrase(b"p1", KeySize::Aes128);
        let s2 = SectorCipher::from_passphrase(b"p2", KeySize::Aes128);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        s1.apply(5, &mut a);
        s2.apply(5, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn key_size_reported() {
        let sc = SectorCipher::from_passphrase(b"p", KeySize::Aes128);
        assert_eq!(sc.key_size(), KeySize::Aes128);
    }

    #[test]
    fn midstate_iv_matches_from_scratch_hash() {
        // The cloned-midstate shortcut must produce exactly the IV the
        // pre-midstate code computed: SHA-256(SHA-256(key ‖ "essiv") ‖
        // sector), truncated to the 8-byte nonce half.
        let sc = SectorCipher::from_passphrase(b"disk-pass", KeySize::Aes256);
        let key = crate::kdf::luks_derive_key(b"disk-pass", KeySize::Aes256.key_len());
        let mut salt_h = Sha256::new();
        salt_h.update(&key);
        salt_h.update(b"essiv");
        let salt = salt_h.finalize();
        for sector in [0u64, 1, 42, u64::MAX] {
            let mut h = Sha256::new();
            h.update(&salt);
            h.update(&sector.to_be_bytes());
            let d = h.finalize();
            let mut expected = [0u8; 16];
            expected[..8].copy_from_slice(&d[..8]);
            assert_eq!(sc.sector_iv(sector), expected, "sector {sector}");
        }
    }
}
