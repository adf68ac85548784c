//! Hardware SHA-256 (SHA-NI) via `std::arch::x86_64` intrinsics.
//!
//! One of the crate's two modules containing `unsafe` code (the other is
//! [`aesni`](crate::aesni)), on the same pattern: every unsafe block
//! reduces to one precondition, that the host CPU supports the `sha`,
//! `ssse3` and `sse4.1` instruction sets. That precondition is checked
//! exactly once, at [`ShaNi::detect`], and a live [`ShaNi`] token *is*
//! the proof that the `#[target_feature]` functions below may run.
//! Callers never touch `unsafe`; [`Sha256`](crate::sha256::Sha256)
//! resolves its lane once, in `new()`, and hands the lane whole blocks.
//!
//! Implementation notes:
//!
//! * **State layout.** `SHA256RNDS2` works on the eight working variables
//!   split as `ABEF` and `CDGH` (each register high lane first), so the
//!   `[u32; 8]` state is shuffled into that form on entry and back on
//!   exit, once per [`compress_blocks`](ShaNi::compress_blocks) call — the
//!   state stays in XMM registers across every block of one `update`.
//! * **Rounds.** Each `SHA256RNDS2` does two rounds on the low 64 bits of
//!   its `W + K` operand, so four message words take two of them, the
//!   second on the operand's high half (`_mm_shuffle_epi32(·, 0x0E)`).
//! * **Schedule.** `W[t..t+4]` for `t ≥ 16` is `SHA256MSG2(SHA256MSG1(
//!   W[t-16..], W[t-12..]) + W[t-7..t-3], W[t-4..])`, the `W[t-7..]`
//!   window cut out of two registers with `PALIGNR` (`ssse3`).
//!
//! On non-x86_64 targets (or with the crate's `hw-aes` feature disabled,
//! which gates both intrinsics lanes) the real implementation compiles out
//! and an uninhabited stub whose [`available`] is a constant `false` takes
//! its place, so every hasher resolves to the scalar rounds.

#[cfg(all(target_arch = "x86_64", feature = "hw-aes"))]
mod imp {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use crate::sha256::K;

    /// Is hardware SHA-256 usable on this host? (Runtime CPUID detection
    /// of every extension the lane executes.)
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Proof that this host has SHA-NI: zero-sized, and only
    /// [`ShaNi::detect`] makes one.
    #[derive(Clone, Copy, Debug)]
    pub struct ShaNi(());

    impl ShaNi {
        /// The token, or `None` when the host lacks SHA-NI (the caller
        /// falls back to the scalar rounds). The module's one checked
        /// entry point: every unsafe call below is justified by it.
        pub fn detect() -> Option<ShaNi> {
            available().then_some(ShaNi(()))
        }

        /// Run the compression function over every 64-byte block of
        /// `blocks`, in order, updating `state` in place.
        ///
        /// # Panics
        /// Panics if `blocks.len()` is not a multiple of 64.
        pub fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
            assert!(
                blocks.len().is_multiple_of(64),
                "compress_blocks requires whole blocks"
            );
            // SAFETY: `self` exists ⇒ `ShaNi::detect` found sha, ssse3
            // and sse4.1.
            unsafe { compress_hw(state, blocks) }
        }
    }

    /// `W[t..t+4]` from the four registers holding `W[t-16..t]`.
    ///
    /// # Safety
    /// Requires `sha` and `ssse3` (checked by [`ShaNi::detect`]).
    #[inline]
    #[target_feature(enable = "sha,ssse3")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Four rounds on message words `w` with constants `K[4q..4q + 4]`.
    ///
    /// # Safety
    /// Requires `sha` (checked by [`ShaNi::detect`]); `q < 16`.
    #[inline]
    #[target_feature(enable = "sha")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, q: usize) {
        let wk = _mm_add_epi32(w, _mm_loadu_si128(K[4 * q..].as_ptr() as *const __m128i));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// # Safety
    /// Requires `sha`, `ssse3` and `sse4.1` (checked by
    /// [`ShaNi::detect`]); `blocks.len()` a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_hw(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each big-endian message word into a u32 lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state[4..].as_ptr() as *const __m128i);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            for q in (0..16).step_by(4) {
                rounds4(&mut abef, &mut cdgh, w0, q);
                rounds4(&mut abef, &mut cdgh, w1, q + 1);
                rounds4(&mut abef, &mut cdgh, w2, q + 2);
                rounds4(&mut abef, &mut cdgh, w3, q + 3);
                if q < 12 {
                    w0 = schedule(w0, w1, w2, w3);
                    w1 = schedule(w1, w2, w3, w0);
                    w2 = schedule(w2, w3, w0, w1);
                    w3 = schedule(w3, w0, w1, w2);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr() as *mut __m128i, hgfe);
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "hw-aes")))]
mod imp {
    /// Hardware SHA-256 is never available on this build: either the
    /// target is not x86_64 or the `hw-aes` feature is disabled.
    pub fn available() -> bool {
        false
    }

    /// Uninhabited stand-in: [`ShaNi::detect`] always returns `None`, so
    /// the method below is unreachable by construction.
    #[derive(Clone, Copy, Debug)]
    pub struct ShaNi {
        never: core::convert::Infallible,
    }

    impl ShaNi {
        /// Always `None` on this build.
        pub fn detect() -> Option<ShaNi> {
            None
        }

        /// Unreachable: no value of this type exists.
        pub fn compress_blocks(self, _state: &mut [u32; 8], _blocks: &[u8]) {
            match self.never {}
        }
    }
}

pub use imp::{available, ShaNi};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::compress;
    use datacase_sim::check::check;

    /// The hardware lane equals the scalar rounds on random states
    /// and 1–20 random blocks (vacuous on a host without SHA-NI).
    #[test]
    fn compress_blocks_matches_scalar() {
        check("compress_blocks_matches_scalar", 64, |s| {
            let state = s.vec(8..=8, |s| s.range::<u32>(..));
            let nblocks = s.range(1usize..21);
            let data = s.vec(64 * 20..=64 * 20, |s| s.range(0u8..=255));
            let Some(hw) = ShaNi::detect() else {
                return;
            };
            let blocks = &data[..64 * nblocks];
            let mut expect: [u32; 8] = state.try_into().unwrap();
            let mut got = expect;
            for block in blocks.chunks_exact(64) {
                compress(&mut expect, block.try_into().unwrap());
            }
            hw.compress_blocks(&mut got, blocks);
            assert_eq!(got, expect);
        });
    }
}
