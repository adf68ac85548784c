//! Hardware AES (AES-NI) via `std::arch::x86_64` intrinsics.
//!
//! This is the crate's **only** module containing `unsafe` code, and every
//! unsafe block reduces to one precondition: the host CPU supports the
//! `aes` (and baseline `sse2`) instruction set. That precondition is
//! checked exactly once, at [`AesNi::new`], via
//! `is_x86_feature_detected!("aes")` — construction fails with `None` on
//! non-capable hosts, so a live [`AesNi`] value *is* the proof that the
//! `#[target_feature(enable = "aes")]` functions below may run. Callers
//! never touch `unsafe`; they go through the safe methods.
//!
//! Implementation notes:
//!
//! * **Key expansion** is AESKEYGENASSIST-based: the FIPS-197 schedule
//!   recurrence runs over little-endian schedule words, with `SubWord` /
//!   `RotWord(SubWord(·))` supplied by `_mm_aeskeygenassist_si128`
//!   (rcon folded in as a plain XOR afterwards, which keeps the
//!   immediate-operand constraint out of the loop and makes one routine
//!   serve all three key sizes).
//! * **No decrypt direction**: every cipher in the system is CTR, so the
//!   schedule is the encryption round keys and nothing else.
//! * **CTR keystream** runs `WIDE` (8) counter blocks per iteration in XMM
//!   registers: each round key is loaded once and `WIDE` independent
//!   `_mm_aesenc_si128` chains stay in flight, hiding the ~4-cycle AESENC
//!   latency behind its 1/cycle throughput. The XOR into the data buffer
//!   is SSE2 `_mm_xor_si128` on unaligned 128-bit lanes.
//!
//! On non-x86_64 targets (or with the crate's `hw-aes` feature disabled —
//! the CI "software-only build guard" configuration) the real
//! implementation compiles out entirely and a stub whose
//! [`available`] is a constant `false` takes its place, so the hardware
//! lane of [`AesCtr`](crate::ctr::AesCtr) is uninhabited and compiles out.

#[cfg(all(target_arch = "x86_64", feature = "hw-aes"))]
mod imp {
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_set1_epi32, _mm_set_epi64x, _mm_setzero_si128,
        _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    use crate::aes::{KeySize, MAX_ROUND_KEYS as MAX_RK};

    /// Counter blocks generated per wide CTR iteration. Eight chains keep
    /// the AESENC pipeline saturated on every post-Westmere core without
    /// spilling XMM registers (16 available; 8 states + 1 round key).
    const WIDE: usize = 8;

    /// Is hardware AES usable on this host? (Runtime CPUID detection;
    /// `sse2` is baseline on x86_64.)
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    /// An expanded hardware key schedule: the encryption round keys, held
    /// inline in XMM-ready form — the value *is* the key material, so
    /// `wipe` reaches all of it.
    #[derive(Clone)]
    pub struct AesNi {
        ek: [__m128i; MAX_RK],
        rounds: usize,
    }

    impl std::fmt::Debug for AesNi {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Never print key material (round keys invert to the key).
            f.debug_struct("AesNi")
                .field("rounds", &self.rounds)
                .finish()
        }
    }

    /// `SubWord(w)` and `RotWord(SubWord(w))` for one little-endian
    /// schedule word, both read from a single AESKEYGENASSIST issue
    /// (input broadcast to every lane; lane 0 carries `SubWord(X1)`,
    /// lane 1 `RotWord(SubWord(X1))` — rcon immediate kept at 0 and
    /// XORed by the caller instead).
    ///
    /// # Safety
    /// Requires the `aes` target feature (checked by [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    unsafe fn sub_rot_word(w: u32) -> (u32, u32) {
        let v = _mm_set1_epi32(w as i32);
        let r = _mm_aeskeygenassist_si128::<0>(v);
        let sub = _mm_cvtsi128_si32(r) as u32;
        let rot_sub = _mm_cvtsi128_si32(_mm_srli_si128::<4>(r)) as u32;
        (sub, rot_sub)
    }

    /// FIPS-197 §5.2 key expansion over little-endian u32 schedule words,
    /// non-linear steps via [`sub_rot_word`].
    ///
    /// # Safety
    /// Requires the `aes` target feature (checked by [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    unsafe fn expand(size: KeySize, key: &[u8]) -> AesNi {
        let nk = size.nk();
        let nr = size.rounds();
        let nwords = 4 * (nr + 1);
        let mut w = [0u32; 4 * MAX_RK];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        // rcon lives in the word's low byte here: schedule words are
        // little-endian, and FIPS XORs rcon into the word's *first* byte.
        let mut rcon: u32 = 1;
        for i in nk..nwords {
            let prev = w[i - 1];
            let t = if i % nk == 0 {
                let (_, rot_sub) = sub_rot_word(prev);
                let t = rot_sub ^ rcon;
                rcon = (rcon << 1) ^ if rcon & 0x80 != 0 { 0x11b } else { 0 };
                t
            } else if nk > 6 && i % nk == 4 {
                let (sub, _) = sub_rot_word(prev);
                sub
            } else {
                prev
            };
            w[i] = w[i - nk] ^ t;
        }
        let mut ek = [_mm_setzero_si128(); MAX_RK];
        for (r, rk) in ek.iter_mut().enumerate().take(nr + 1) {
            // Little-endian schedule words in order are the round key's
            // byte layout, so a straight unaligned load materialises it.
            *rk = _mm_loadu_si128(w[4 * r..].as_ptr() as *const __m128i);
        }
        AesNi { ek, rounds: nr }
    }

    impl AesNi {
        /// Expand `key` for hardware use, or `None` when the host lacks
        /// AES-NI (the caller falls back to the software path). This is
        /// the module's one checked entry point: every unsafe call below
        /// is justified by the detection performed here.
        ///
        /// # Panics
        /// Panics if `key.len() != size.key_len()`.
        pub fn new(size: KeySize, key: &[u8]) -> Option<AesNi> {
            assert_eq!(key.len(), size.key_len(), "AES key length mismatch");
            if !available() {
                return None;
            }
            // SAFETY: `available()` just confirmed the `aes` feature.
            Some(unsafe { expand(size, key) })
        }

        /// Encrypt one 16-byte block in place (AESENC rounds).
        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            // SAFETY: `self` exists ⇒ `AesNi::new` detected AES-NI.
            unsafe { self.encrypt_block_hw(block) }
        }

        /// The key size this schedule was expanded for.
        pub fn key_size(&self) -> KeySize {
            match self.rounds {
                10 => KeySize::Aes128,
                12 => KeySize::Aes192,
                _ => KeySize::Aes256,
            }
        }

        /// The schedule as bytes, in the layout of
        /// [`expand_key`](crate::aes::expand_key).
        pub(crate) fn round_keys(&self) -> [[u8; 16]; MAX_RK] {
            self.ek.map(|rk| {
                let mut out = [0u8; 16];
                // SAFETY: `out` is 16 writable bytes and the store is the
                // unaligned form; `sse2` is baseline on x86_64.
                unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, rk) };
                out
            })
        }

        /// Overwrite the schedule with zeros. [`std::hint::black_box`]
        /// keeps the store from being elided when the value is freed
        /// right after.
        pub(crate) fn wipe(&mut self) {
            // SAFETY: `sse2` is baseline on x86_64, the only target this
            // module compiles for.
            self.ek = [unsafe { _mm_setzero_si128() }; MAX_RK];
            std::hint::black_box(&self.ek);
        }

        /// XOR whole 16-byte blocks of `data` with the CTR keystream whose
        /// counter block is `iv` advanced by `start_block` steps — the
        /// same stream contract as the software
        /// [`AesCtr`](crate::ctr::AesCtr) path: the IV's last 8 bytes are
        /// a big-endian wrapping counter, incremented once per block.
        ///
        /// # Panics
        /// Panics if `data.len()` is not a multiple of 16.
        pub fn ctr_xor_blocks(&self, iv: [u8; 16], start_block: u64, data: &mut [u8]) {
            assert!(
                data.len().is_multiple_of(16),
                "ctr_xor_blocks requires whole blocks"
            );
            // SAFETY: `self` exists ⇒ `AesNi::new` detected AES-NI.
            unsafe { self.ctr_xor_hw(iv, start_block, data) }
        }

        /// # Safety
        /// Requires the `aes` target feature (checked by [`AesNi::new`]).
        #[target_feature(enable = "aes")]
        unsafe fn encrypt_block_hw(&self, block: &mut [u8; 16]) {
            let p = block.as_mut_ptr() as *mut __m128i;
            let mut s = _mm_xor_si128(_mm_loadu_si128(p as *const __m128i), self.ek[0]);
            for rk in &self.ek[1..self.rounds] {
                s = _mm_aesenc_si128(s, *rk);
            }
            s = _mm_aesenclast_si128(s, self.ek[self.rounds]);
            _mm_storeu_si128(p, s);
        }

        /// The counter block `counter` steps into the stream, as an XMM
        /// value: IV prefix bytes in the low lane, big-endian counter in
        /// the high lane (a byte-swapped little-endian store).
        ///
        /// # Safety
        /// Requires the `aes` target feature (checked by [`AesNi::new`]).
        #[target_feature(enable = "aes")]
        unsafe fn counter_block(prefix_le: u64, counter: u64) -> __m128i {
            _mm_set_epi64x(counter.swap_bytes() as i64, prefix_le as i64)
        }

        /// # Safety
        /// Requires the `aes` target feature (checked by [`AesNi::new`]).
        #[target_feature(enable = "aes")]
        unsafe fn ctr_xor_hw(&self, iv: [u8; 16], start_block: u64, data: &mut [u8]) {
            let prefix_le = u64::from_le_bytes(iv[0..8].try_into().expect("8 bytes"));
            let mut counter = u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes"))
                .wrapping_add(start_block);
            let nr = self.rounds;
            let rk0 = self.ek[0];
            let rk_last = self.ek[nr];
            let mut wide = data.chunks_exact_mut(16 * WIDE);
            for chunk in wide.by_ref() {
                let mut s = [rk0; WIDE];
                for (j, state) in s.iter_mut().enumerate() {
                    *state = _mm_xor_si128(
                        Self::counter_block(prefix_le, counter.wrapping_add(j as u64)),
                        rk0,
                    );
                }
                counter = counter.wrapping_add(WIDE as u64);
                for rk in &self.ek[1..nr] {
                    for state in s.iter_mut() {
                        *state = _mm_aesenc_si128(*state, *rk);
                    }
                }
                let base = chunk.as_mut_ptr() as *mut __m128i;
                for (j, state) in s.iter().enumerate() {
                    let ks = _mm_aesenclast_si128(*state, rk_last);
                    let p = base.add(j);
                    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p as *const __m128i), ks));
                }
            }
            for chunk in wide.into_remainder().chunks_exact_mut(16) {
                let mut s = _mm_xor_si128(Self::counter_block(prefix_le, counter), rk0);
                counter = counter.wrapping_add(1);
                for rk in &self.ek[1..nr] {
                    s = _mm_aesenc_si128(s, *rk);
                }
                let ks = _mm_aesenclast_si128(s, rk_last);
                let p = chunk.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p as *const __m128i), ks));
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "hw-aes")))]
mod imp {
    use crate::aes::{KeySize, MAX_ROUND_KEYS};

    /// Hardware AES is never available on this build: either the target
    /// is not x86_64 or the `hw-aes` feature is disabled (the CI
    /// software-only guard configuration). Constant `false` lets the
    /// dispatch in [`AesCtr`](crate::ctr::AesCtr) compile out.
    pub fn available() -> bool {
        false
    }

    /// Uninstantiable stand-in: [`AesNi::new`] always returns `None`, so
    /// the methods below are unreachable by construction.
    #[derive(Clone, Debug)]
    pub struct AesNi {
        never: core::convert::Infallible,
    }

    impl AesNi {
        /// Always `None` on software-only builds.
        ///
        /// # Panics
        /// Panics if `key.len() != size.key_len()` (same contract as the
        /// real implementation, so tests exercise it uniformly).
        pub fn new(size: KeySize, key: &[u8]) -> Option<AesNi> {
            assert_eq!(key.len(), size.key_len(), "AES key length mismatch");
            None
        }

        /// Unreachable: no value of this type exists.
        pub fn encrypt_block(&self, _block: &mut [u8; 16]) {
            match self.never {}
        }

        /// Unreachable: no value of this type exists.
        pub fn key_size(&self) -> KeySize {
            match self.never {}
        }

        /// Unreachable: no value of this type exists.
        pub(crate) fn round_keys(&self) -> [[u8; 16]; MAX_ROUND_KEYS] {
            match self.never {}
        }

        /// Unreachable: no value of this type exists.
        pub(crate) fn wipe(&mut self) {
            match self.never {}
        }

        /// Unreachable: no value of this type exists.
        pub fn ctr_xor_blocks(&self, _iv: [u8; 16], _start_block: u64, _data: &mut [u8]) {
            match self.never {}
        }
    }
}

pub use imp::{available, AesNi};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::KeySize;
    use crate::test_vectors::{hex, FIPS197_C, FIPS197_PT};

    /// All further tests run only where hardware AES exists; this one
    /// documents that detection itself never panics anywhere.
    #[test]
    fn detection_is_callable() {
        let _ = available();
    }

    #[test]
    fn fips197_appendix_c_vectors() {
        for (size, key, ct) in FIPS197_C {
            let key = hex(key);
            let Some(hw) = AesNi::new(size, &key) else {
                return; // no AES-NI on this host: nothing to pin
            };
            let mut block: [u8; 16] = hex(FIPS197_PT).try_into().unwrap();
            hw.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex(ct), "{size:?} encrypt");
            assert_eq!(hw.key_size(), size);
            assert_eq!(hw.round_keys(), crate::aes::expand_key(size, &key));
        }
    }

    #[test]
    fn ctr_xor_crosses_wide_scalar_and_wrap_boundaries() {
        let Some(hw) = AesNi::new(KeySize::Aes128, &[0x42; 16]) else {
            return;
        };
        let sw = crate::ctr::AesCtr::from_key(KeySize::Aes128, &[0x42; 16])
            .with_backend(crate::backend::CryptoBackend::Software);
        // Counter at u64::MAX exercises the wrapping increment inside a
        // wide batch; lengths cross the 8-block wide loop and remainder.
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&7u64.to_be_bytes());
        iv[8..].copy_from_slice(&u64::MAX.to_be_bytes());
        for blocks in [0usize, 1, 7, 8, 9, 24, 31] {
            let data: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
            let mut a = data.clone();
            let mut b = data;
            hw.ctr_xor_blocks(iv, 0, &mut a);
            sw.apply_blocks(iv, &mut b);
            assert_eq!(a, b, "{blocks} blocks");
        }
    }
}
