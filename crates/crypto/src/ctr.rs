//! AES-CTR stream mode (NIST SP 800-38A §6.5).
//!
//! CTR turns the block cipher into a stream cipher: encryption and
//! decryption are the same operation (XOR with the encrypted counter
//! stream), which is what the storage layers use for tuple payloads and
//! whole pages — and why no AES implementation here has a decrypt
//! direction.
//!
//! The lane is picked **once per cipher construction** over the
//! [`CryptoBackend`] selector (never per block), and the cipher then
//! holds that lane's schedule and nothing else:
//!
//! * **Hardware** ([`crate::aesni`], x86_64 hosts with AES-NI): counter
//!   blocks run 8-wide through AESENC in XMM registers with an SSE2 XOR.
//! * **Software** ([`crate::aes`], everywhere else): one counter block at
//!   a time through the T-table rounds, counter kept in u32 lanes, u128
//!   XOR.
//!
//! Both produce the stream of the [`crate::reference`] oracle byte for
//! byte (CI's crypto-equivalence gate), so the selector changes
//! wall-clock time and nothing else.

use crate::aes::{Aes, KeySize, MAX_ROUND_KEYS};
use crate::aesni::AesNi;
use crate::backend::{ActiveBackend, CryptoBackend};

/// AES in counter mode with a 16-byte initial counter block.
///
/// The value is exactly one expanded key schedule, held inline: there is
/// no raw key, second schedule or selector beside it. A long-lived
/// cipher (a drive's, a log's) keeps it; the per-unit
/// [`KeyVault`](crate::vault::KeyVault) keeps raw keys and expands one of
/// these per operation.
#[derive(Clone, Debug)]
pub struct AesCtr(Lane);

/// The implementation a cipher resolved to at construction. Both variants
/// are one inline schedule of ~256 B (on software-only builds `AesNi` is
/// an uninhabited stub, which is what the lint would trip over).
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
enum Lane {
    Hardware(AesNi),
    Software(Aes),
}

impl AesCtr {
    /// Expand `key` under the default [`CryptoBackend::Auto`] selector
    /// (hardware when the host has it).
    ///
    /// # Panics
    /// Panics if `key.len() != size.key_len()`.
    pub fn from_key(size: KeySize, key: &[u8]) -> AesCtr {
        AesCtr::expand(size, key, CryptoBackend::Auto)
    }

    /// Expand `key` onto the lane `backend` resolves to on this host.
    pub(crate) fn expand(size: KeySize, key: &[u8], backend: CryptoBackend) -> AesCtr {
        AesCtr(match backend.resolve() {
            ActiveBackend::Hardware => {
                Lane::Hardware(AesNi::new(size, key).expect("resolve() detected AES-NI"))
            }
            ActiveBackend::Software => Lane::Software(Aes::new(size, key)),
        })
    }

    /// Move this cipher onto the lane `backend` resolves to — the
    /// per-instance selector every layer above threads down (engine
    /// config → vault / sector cipher / encrypted logger → here). A
    /// no-op when it already runs there; otherwise the key is read back
    /// from the schedule (FIPS-197 §5.2: the first `Nk` expansion words
    /// *are* the key) and re-expanded.
    pub fn with_backend(self, backend: CryptoBackend) -> AesCtr {
        if backend.resolve() == self.active_backend() {
            return self;
        }
        let size = self.key_size();
        let schedule = self.round_keys();
        AesCtr::expand(size, &schedule.as_flattened()[..size.key_len()], backend)
    }

    /// The schedule as bytes (round key `r` in FIPS column-major order).
    fn round_keys(&self) -> [[u8; 16]; MAX_ROUND_KEYS] {
        match &self.0 {
            Lane::Hardware(hw) => hw.round_keys(),
            Lane::Software(aes) => aes.round_keys(),
        }
    }

    /// The implementation actually running: what the selector resolved
    /// to at construction.
    pub fn active_backend(&self) -> ActiveBackend {
        match &self.0 {
            Lane::Hardware(_) => ActiveBackend::Hardware,
            Lane::Software(_) => ActiveBackend::Software,
        }
    }

    /// The underlying key size (for cost accounting).
    pub fn key_size(&self) -> KeySize {
        match &self.0 {
            Lane::Hardware(hw) => hw.key_size(),
            Lane::Software(aes) => aes.key_size(),
        }
    }

    /// XOR `data` in place with the keystream generated from `iv`.
    ///
    /// The counter occupies the last 8 bytes of the IV block, big-endian,
    /// and increments once per 16-byte block. Calling this twice with the
    /// same IV restores the original data (CTR is an involution).
    pub fn apply(&self, iv: [u8; 16], data: &mut [u8]) {
        self.apply_at(iv, 0, data);
    }

    /// [`apply`](AesCtr::apply) starting `start_block` counter steps past
    /// `iv` — the entry for resuming a stream mid-way (e.g. XORing a
    /// cached keystream prefix and generating only the uncovered suffix).
    /// `apply_at(iv, n, data)` produces exactly the bytes `apply(iv, buf)`
    /// would have placed at offset `16 * n` of a longer buffer.
    pub fn apply_at(&self, iv: [u8; 16], start_block: u64, data: &mut [u8]) {
        let whole = data.len() & !15;
        let (blocks, tail) = data.split_at_mut(whole);
        self.xor_keystream(iv, start_block, blocks);
        if !tail.is_empty() {
            let ks = self.keystream_block(iv, start_block.wrapping_add((whole / 16) as u64));
            for (d, k) in tail.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
        }
    }

    /// `iv` with its counter half advanced by `start_block` steps.
    fn iv_at(iv: [u8; 16], start_block: u64) -> [u8; 16] {
        let mut out = iv;
        let counter =
            u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes")).wrapping_add(start_block);
        out[8..16].copy_from_slice(&counter.to_be_bytes());
        out
    }

    /// [`apply`](AesCtr::apply) specialised to whole 16-byte blocks — the
    /// entry [`SectorCipher`](crate::sector::SectorCipher) uses for page
    /// work, where the tail check is dead weight on every sector.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn apply_blocks(&self, iv: [u8; 16], data: &mut [u8]) {
        assert!(
            data.len().is_multiple_of(16),
            "apply_blocks requires whole blocks"
        );
        self.xor_keystream(iv, 0, data);
    }

    /// The keystream block at `block_index` counter steps past `iv`.
    fn keystream_block(&self, iv: [u8; 16], block_index: u64) -> [u8; 16] {
        let mut block = Self::iv_at(iv, block_index);
        match &self.0 {
            Lane::Hardware(hw) => hw.encrypt_block(&mut block),
            Lane::Software(aes) => aes.encrypt_block(&mut block),
        }
        block
    }

    /// XOR whole blocks of `data` (`len % 16 == 0`) with the keystream
    /// starting `start_block` counter steps past `iv`. The hardware lane
    /// hands the whole call to [`AesNi::ctr_xor_blocks`] (8 counter blocks
    /// at a time through AESENC, SSE2 XOR). The software lane sets the
    /// IV's word lanes up once — per block only the counter lanes change
    /// — and XORs each keystream block in as one u128.
    fn xor_keystream(&self, iv: [u8; 16], start_block: u64, data: &mut [u8]) {
        let aes = match &self.0 {
            Lane::Hardware(hw) => return hw.ctr_xor_blocks(iv, start_block, data),
            Lane::Software(aes) => aes,
        };
        let hi = u32::from_be_bytes(iv[0..4].try_into().expect("4 bytes"));
        let lo = u32::from_be_bytes(iv[4..8].try_into().expect("4 bytes"));
        let mut counter =
            u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes")).wrapping_add(start_block);
        for chunk in data.chunks_exact_mut(16) {
            let ks = aes.encrypt_words([hi, lo, (counter >> 32) as u32, counter as u32]);
            Self::xor_block(chunk, ks);
            counter = counter.wrapping_add(1);
        }
    }

    /// XOR one keystream block (as column words) into a 16-byte chunk,
    /// as a single u128 lane.
    #[inline]
    fn xor_block(chunk: &mut [u8], ks: [u32; 4]) {
        let mut ks_bytes = [0u8; 16];
        Aes::store_words(ks, &mut ks_bytes);
        let lane = u128::from_ne_bytes(chunk[..16].try_into().expect("16 bytes"))
            ^ u128::from_ne_bytes(ks_bytes);
        chunk.copy_from_slice(&lane.to_ne_bytes());
    }

    /// Derive a deterministic IV from a 64-bit nonce (e.g. a tuple id or a
    /// sector number), placing the nonce in the IV prefix and zeroing the
    /// counter half.
    pub fn iv_from_nonce(nonce: u64) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[0..8].copy_from_slice(&nonce.to_be_bytes());
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_vectors::hex;
    use datacase_sim::check::check;

    #[test]
    fn sp800_38a_f5_1_ctr_aes128() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, on both lanes and
        // the oracle.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let plain = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let expect = hex(concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee"
        ));
        let mut slow = plain.clone();
        crate::reference::apply_ctr(KeySize::Aes128, &key, iv, &mut slow);
        assert_eq!(slow, expect, "oracle");
        for backend in [CryptoBackend::Auto, CryptoBackend::Software] {
            let mut data = plain.clone();
            AesCtr::expand(KeySize::Aes128, &key, backend).apply(iv, &mut data);
            assert_eq!(data, expect, "{backend}");
        }
    }

    #[test]
    fn sp800_38a_f5_5_ctr_aes256() {
        // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt, first block.
        let key = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex("6bc1bee22e409f96e93d7e117393172a");
        let ctr = AesCtr::from_key(KeySize::Aes256, &key);
        ctr.apply(iv, &mut data);
        assert_eq!(data, hex("601ec313775789a5b7a7f504bbf3d228"));
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[1u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr.apply(AesCtr::iv_from_nonce(1), &mut a);
        ctr.apply(AesCtr::iv_from_nonce(2), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn with_backend_moves_the_same_key_onto_the_other_lane() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let auto = AesCtr::from_key(size, &[7u8; 32][..size.key_len()]);
            let forced = auto.clone().with_backend(CryptoBackend::Software);
            assert_eq!(forced.active_backend(), ActiveBackend::Software);
            assert_eq!(forced.key_size(), size);
            // ...and back again (a no-op on hosts without AES-NI).
            let back = forced.clone().with_backend(CryptoBackend::Auto);
            assert_eq!(back.active_backend(), auto.active_backend());
            let iv = [0xFF; 16]; // counter at u64::MAX: the stream wraps it
            let plain: Vec<u8> = (0..200).map(|i| i as u8).collect();
            let [mut a, mut b, mut c] = [plain.clone(), plain.clone(), plain];
            auto.apply_at(iv, 5, &mut a);
            forced.apply_at(iv, 5, &mut b);
            back.apply_at(iv, 5, &mut c);
            assert_eq!(a, b, "{size:?}: the lanes produce identical ciphertext");
            assert_eq!(a, c, "{size:?}: the round trip kept the key");
        }
    }

    #[test]
    fn apply_blocks_matches_apply_on_page_sized_buffers() {
        let ctr = AesCtr::from_key(KeySize::Aes256, &[0x17; 32]);
        let iv = AesCtr::iv_from_nonce(99);
        let mut a: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        let mut b = a.clone();
        ctr.apply(iv, &mut a);
        ctr.apply_blocks(iv, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_at_matches_the_tail_of_a_longer_apply() {
        let ctr = AesCtr::from_key(KeySize::Aes256, &[0x31; 32]);
        for skip_blocks in [1usize, 3, 4, 7] {
            let iv = AesCtr::iv_from_nonce(0xDEAD_0000 + skip_blocks as u64);
            let mut whole: Vec<u8> = (0..(skip_blocks * 16 + 100)).map(|i| i as u8).collect();
            let mut tail = whole[skip_blocks * 16..].to_vec();
            ctr.apply(iv, &mut whole);
            ctr.apply_at(iv, skip_blocks as u64, &mut tail);
            assert_eq!(tail, whole[skip_blocks * 16..], "offset {skip_blocks}");
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn apply_blocks_rejects_partial_blocks() {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[1u8; 16]);
        let mut data = vec![0u8; 17];
        ctr.apply_blocks(AesCtr::iv_from_nonce(1), &mut data);
    }

    #[test]
    fn involution_property() {
        check("involution_property", 64, |s| {
            let nonce = s.u64();
            let data = s.vec(0..200, |s| s.range(0u8..=255));
            let iv = AesCtr::iv_from_nonce(nonce);
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let ctr = AesCtr::from_key(size, &[0x42; 32][..size.key_len()]);
                let mut buf = data.clone();
                ctr.apply(iv, &mut buf);
                assert!(data.len() < 16 || buf != data);
                ctr.apply(iv, &mut buf);
                assert_eq!(&buf, &data);
            }
        });
    }

    #[test]
    fn lane_xor_path_matches_reference() {
        check("lane_xor_path_matches_reference", 64, |s| {
            // Random IVs exercise counter carries; lengths cover empty,
            // sub-block, block-aligned and straddling buffers.
            let iv = s.vec(16..=16, |s| s.range(0u8..=255));
            let data = s.vec(0..260, |s| s.range(0u8..=255));
            let iv: [u8; 16] = iv.try_into().unwrap();
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let key = &[0x5C; 32][..size.key_len()];
                let mut slow = data.clone();
                crate::reference::apply_ctr(size, key, iv, &mut slow);
                for backend in [CryptoBackend::Auto, CryptoBackend::Software] {
                    let mut fast = data.clone();
                    AesCtr::expand(size, key, backend).apply(iv, &mut fast);
                    assert_eq!(&fast, &slow, "{size:?} {backend}");
                }
            }
        });
    }
}
