//! AES-CTR stream mode (NIST SP 800-38A §6.5).
//!
//! CTR turns the block cipher into a stream cipher: encryption and
//! decryption are the same operation (XOR with the encrypted counter
//! stream), which is what the storage layers use for tuple payloads and
//! whole pages.
//!
//! The keystream generator dispatches **once per cipher construction**
//! over the [`CryptoBackend`] selector (never per block):
//!
//! * **Hardware** ([`crate::aesni`], x86_64 hosts with AES-NI): counter
//!   blocks run 8-wide through AESENC in XMM registers with an SSE2 XOR.
//! * **Software**: four counter blocks at a time through
//!   `Aes::encrypt_words_x4` in interleaved u32 lanes (round keys loaded
//!   once per round, four dependency chains in flight), scalar remainder
//!   loop, u128-lane XOR.
//! * **Reference**: the original per-byte path, retained as
//!   [`AesCtr::apply_ref`] for the crypto-equivalence gate and
//!   before/after throughput reporting.
//!
//! All three produce byte-identical streams (CI's crypto-equivalence and
//! HW-crypto gates), so the selector changes wall-clock time and nothing
//! else.

use crate::aes::{Aes, KeySize};
use crate::aesni::AesNi;
use crate::backend::{ActiveBackend, CryptoBackend};

/// AES in counter mode with a 16-byte initial counter block.
#[derive(Clone, Debug)]
pub struct AesCtr {
    aes: Aes,
    /// The expanded hardware schedule — present exactly when this
    /// instance's selector resolved to [`ActiveBackend::Hardware`] at
    /// construction.
    hw: Option<AesNi>,
    /// The selector this instance was built under (kept for
    /// introspection; the resolved implementation is what dispatches).
    backend: CryptoBackend,
    /// Resolved `backend == Reference`: route
    /// [`apply`](AesCtr::apply) / [`apply_blocks`](AesCtr::apply_blocks)
    /// through the retained byte-oriented reference path. **Benchmark
    /// instrumentation only**: the paths are byte-identical (the
    /// crypto-equivalence gate), so the flag changes wall-clock time and
    /// nothing else. The switch is per-instance — an earlier process-wide
    /// toggle would have let one engine's A/B run silently reroute every
    /// other engine in the process, which a concurrent sharded engine
    /// cannot tolerate.
    reference: bool,
}

impl AesCtr {
    /// Build from an already-expanded cipher under the default
    /// [`CryptoBackend::Auto`] selector (hardware when the host has it).
    pub fn new(aes: Aes) -> AesCtr {
        AesCtr::with_schedule(aes, CryptoBackend::Auto)
    }

    /// Convenience constructor from raw key bytes (`Auto` backend).
    pub fn from_key(size: KeySize, key: &[u8]) -> AesCtr {
        AesCtr::new(Aes::new(size, key))
    }

    fn with_schedule(aes: Aes, backend: CryptoBackend) -> AesCtr {
        let hw = match backend.resolve() {
            ActiveBackend::Hardware => AesNi::new(aes.key_size(), &aes.raw_key()),
            ActiveBackend::Software | ActiveBackend::Reference => None,
        };
        AesCtr {
            hw,
            reference: backend.resolve() == ActiveBackend::Reference,
            backend,
            aes,
        }
    }

    /// Rebuild this instance under `backend` — the per-instance selector
    /// every layer above threads down (engine config → vault / sector
    /// cipher / encrypted logger → here). Resolution happens now, once:
    /// `Auto`/`Hardware` expand the AES-NI schedule when the host
    /// supports it and fall back to software otherwise.
    pub fn with_backend(self, backend: CryptoBackend) -> AesCtr {
        AesCtr::with_schedule(self.aes, backend)
    }

    /// Whether this instance takes the reference path.
    pub fn is_reference(&self) -> bool {
        self.reference
    }

    /// The selector this instance was constructed under.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// The implementation actually running: what the selector resolved
    /// to at construction. Layers that cache schedules assert on this
    /// (mixed-backend streams would be a silent perf lie, never a
    /// correctness bug — the streams are byte-identical).
    pub fn active_backend(&self) -> ActiveBackend {
        if self.reference {
            ActiveBackend::Reference
        } else if self.hw.is_some() {
            ActiveBackend::Hardware
        } else {
            ActiveBackend::Software
        }
    }

    /// The underlying key size (for cost accounting).
    pub fn key_size(&self) -> KeySize {
        self.aes.key_size()
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
        if self.reference {
            // The reference path has no offset entry; pre-advancing the
            // counter half of the IV is the same stream by definition.
            return self.apply_ref(Self::iv_at(iv, start_block), data);
        }
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
        if self.reference {
            return self.apply_ref(iv, data);
        }
        self.xor_keystream(iv, 0, data);
    }

    /// The keystream block at `block_index` counter steps past `iv`.
    fn keystream_block(&self, iv: [u8; 16], block_index: u64) -> [u8; 16] {
        let mut block = Self::iv_at(iv, block_index);
        if let Some(hw) = &self.hw {
            hw.encrypt_block(&mut block);
        } else {
            self.aes.encrypt_block(&mut block);
        }
        block
    }

    /// XOR whole blocks of `data` (`len % 16 == 0`) with the keystream
    /// starting `start_block` counter steps past `iv`. The IV's word
    /// lanes are set up once here — per block only the counter lanes
    /// change — then 64-byte chunks run four counter blocks through
    /// [`Aes::encrypt_words_x4`] at once (round keys loaded once per
    /// round, four chains in flight), with a scalar loop for the last
    /// 1–3 blocks. The XOR runs over u128 lanes either way.
    ///
    /// When the instance resolved to the hardware backend, the whole
    /// call is handed to [`AesNi::ctr_xor_blocks`] instead: 8 counter
    /// blocks at a time through AESENC, SSE2 XOR.
    fn xor_keystream(&self, iv: [u8; 16], start_block: u64, data: &mut [u8]) {
        if let Some(hw) = &self.hw {
            return hw.ctr_xor_blocks(iv, start_block, data);
        }
        let hi = u32::from_be_bytes(iv[0..4].try_into().expect("4 bytes"));
        let lo = u32::from_be_bytes(iv[4..8].try_into().expect("4 bytes"));
        let mut counter =
            u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes")).wrapping_add(start_block);
        let mut chunks4 = data.chunks_exact_mut(64);
        for quad in chunks4.by_ref() {
            let mut states = [[0u32; 4]; 4];
            for state in states.iter_mut() {
                *state = [hi, lo, (counter >> 32) as u32, counter as u32];
                counter = counter.wrapping_add(1);
            }
            let ks4 = self.aes.encrypt_words_x4(states);
            for (chunk, ks) in quad.chunks_exact_mut(16).zip(ks4) {
                Self::xor_block(chunk, ks);
            }
        }
        for chunk in chunks4.into_remainder().chunks_exact_mut(16) {
            let ks = self
                .aes
                .encrypt_words([hi, lo, (counter >> 32) as u32, counter as u32]);
            Self::xor_block(chunk, ks);
            counter = counter.wrapping_add(1);
        }
    }

    /// XOR one keystream block (as column words) into a 16-byte chunk,
    /// as a single u128 lane.
    #[inline]
    fn xor_block(chunk: &mut [u8], ks: [u32; 4]) {
        let mut ks_bytes = [0u8; 16];
        for (c, w) in ks.into_iter().enumerate() {
            ks_bytes[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
        let lane = u128::from_ne_bytes(chunk[..16].try_into().expect("16 bytes"))
            ^ u128::from_ne_bytes(ks_bytes);
        chunk.copy_from_slice(&lane.to_ne_bytes());
    }

    /// The retained byte-oriented CTR path: reference AES rounds and
    /// byte-at-a-time XOR, exactly the pre-T-table implementation. The
    /// crypto-equivalence gate holds [`apply`](AesCtr::apply) to this
    /// output on unaligned lengths and random IVs.
    pub fn apply_ref(&self, iv: [u8; 16], data: &mut [u8]) {
        let mut counter_block = iv;
        let mut counter = u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes"));
        for chunk in data.chunks_mut(16) {
            counter_block[8..16].copy_from_slice(&counter.to_be_bytes());
            let mut ks = counter_block;
            self.aes.encrypt_block_ref(&mut ks);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
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

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sp800_38a_f5_1_ctr_aes128() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let ctr = AesCtr::from_key(KeySize::Aes128, &key);
        ctr.apply(iv, &mut data);
        assert_eq!(
            data,
            hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee"
            ))
        );
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
    fn ctr_is_involution() {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[9u8; 16]);
        let iv = AesCtr::iv_from_nonce(12345);
        let original: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut data = original.clone();
        ctr.apply(iv, &mut data);
        assert_ne!(data, original);
        ctr.apply(iv, &mut data);
        assert_eq!(data, original);
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
    fn partial_block_handled() {
        let ctr = AesCtr::from_key(KeySize::Aes256, &[3u8; 32]);
        let iv = AesCtr::iv_from_nonce(7);
        let mut data = vec![0xAA; 5];
        ctr.apply(iv, &mut data);
        ctr.apply(iv, &mut data);
        assert_eq!(data, vec![0xAA; 5]);
    }

    #[test]
    fn reference_mode_is_per_instance_and_byte_identical() {
        let fast = AesCtr::from_key(KeySize::Aes128, &[7u8; 16]);
        let slow = fast.clone().with_backend(CryptoBackend::Reference);
        assert!(
            !fast.is_reference(),
            "the flag must not leak across instances"
        );
        assert!(slow.is_reference());
        let iv = AesCtr::iv_from_nonce(11);
        let mut a: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut b = a.clone();
        fast.apply(iv, &mut a);
        slow.apply(iv, &mut b);
        assert_eq!(a, b, "the two paths produce identical ciphertext");
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
    fn apply_at_reference_mode_agrees_with_fast_path() {
        let fast = AesCtr::from_key(KeySize::Aes128, &[0x66; 16]);
        let slow = fast.clone().with_backend(CryptoBackend::Reference);
        let iv = [0xFF; 16]; // counter at u64::MAX: the offset wraps it
        let mut a: Vec<u8> = (0..75).map(|i| i as u8).collect();
        let mut b = a.clone();
        fast.apply_at(iv, 5, &mut a);
        slow.apply_at(iv, 5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn apply_blocks_rejects_partial_blocks() {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[1u8; 16]);
        let mut data = vec![0u8; 17];
        ctr.apply_blocks(AesCtr::iv_from_nonce(1), &mut data);
    }

    proptest::proptest! {
        #[test]
        fn involution_property(nonce in proptest::prelude::any::<u64>(),
                               data in proptest::collection::vec(0u8..=255, 0..200)) {
            let ctr = AesCtr::from_key(KeySize::Aes128, &[0x42; 16]);
            let iv = AesCtr::iv_from_nonce(nonce);
            let mut buf = data.clone();
            ctr.apply(iv, &mut buf);
            ctr.apply(iv, &mut buf);
            proptest::prop_assert_eq!(buf, data);
        }

        #[test]
        fn lane_xor_path_matches_reference(iv in proptest::collection::vec(0u8..=255, 16),
                                           data in proptest::collection::vec(0u8..=255, 0..260)) {
            // Random IVs exercise counter carries; lengths cover empty,
            // sub-block, block-aligned and straddling buffers.
            let iv: [u8; 16] = iv.try_into().unwrap();
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let ctr = AesCtr::from_key(size, &[0x5C; 32][..size.key_len()]);
                let mut fast = data.clone();
                let mut slow = data.clone();
                ctr.apply(iv, &mut fast);
                ctr.apply_ref(iv, &mut slow);
                proptest::prop_assert_eq!(&fast, &slow);
            }
        }
    }
}
