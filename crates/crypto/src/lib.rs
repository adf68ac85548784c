#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # datacase-crypto
//!
//! From-scratch cryptographic primitives for the Data-CASE reproduction.
//!
//! The paper's compliance profiles encrypt data at rest: P_Base uses AES-256,
//! P_SYS uses AES-128, and P_GBench uses LUKS (SHA-256-keyed) full-disk
//! encryption. No cryptography crates are available offline, so this crate
//! implements the standards directly and validates them against the official
//! test vectors (FIPS-197 Appendix C, NIST SP 800-38A, FIPS-180-4, RFC 4231).
//!
//! **Scope note:** these implementations are table-driven and *not*
//! constant-time; they exist to reproduce the computational and storage
//! behaviour of encrypted data paths inside a simulator, not to protect real
//! secrets.
//!
//! Every cipher in the system is CTR, so AES exists in the encrypt
//! direction only, as two lanes plus an oracle: the
//! [`backend::CryptoBackend`] selector picks between hardware AES-NI
//! ([`aesni`], runtime-detected on x86_64) and the software fused-T-table
//! fallback ([`aes`]), and a property-based equivalence gate pins both
//! against the byte-oriented FIPS-197 rounds in [`mod@reference`] — see the
//! workspace `tests/prop_crypto.rs`. A cipher ([`ctr::AesCtr`]) *is* the
//! one schedule of the lane it resolved to. The per-unit [`vault`] keeps
//! no schedule: it owns one boxed raw key per live unit — the one
//! long-lived copy of that key — expands a schedule from it per
//! operation, a stack temporary as the derivation's temporaries are, and
//! zeroes the box on destroy.
//!
//! Modules:
//! * [`aes`] — AES-128/192/256 key expansion and the T-table encrypt rounds.
//! * [`aesni`] — hardware AES via `std::arch` intrinsics.
//! * [`shani`] — hardware SHA-256 via `std::arch` intrinsics, the lane
//!   every [`Sha256`] resolves to where the host has SHA-NI.
//! * [`backend`] — the `Auto`/`Software` selector.
//! * [`ctr`] — AES-CTR stream mode used for tuple- and page-level encryption.
//! * [`mod@reference`] — the byte-oriented test oracle, addressed by key.
//! * [`sha256`] — SHA-256 digest; its scalar rounds are the fallback
//!   lane and the oracle [`shani`] is tested against.
//! * [`hmac`] — HMAC-SHA-256.
//! * [`kdf`] — a LUKS-flavoured iterated-hash key-derivation shim.
//! * [`vault`] — per-data-unit key vault enabling *crypto-erasure* (destroy
//!   the key ⇒ ciphertext is permanently unreadable), the alternative
//!   grounding of permanent deletion discussed in the paper's related work.
//! * [`sector`] — sector/page encryption helper emulating LUKS-style
//!   disk-layer encryption for the P_GBench profile.
//!
//! [`aesni`] and [`shani`] are the crate's only `unsafe`: the crate root
//! denies `unsafe_code` and exactly these two modules allow it.

pub mod aes;
#[allow(unsafe_code)]
pub mod aesni;
pub mod backend;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod reference;
pub mod sector;
pub mod sha256;
#[allow(unsafe_code)]
pub mod shani;
pub mod vault;

pub use aes::{Aes, KeySize};
pub use backend::{ActiveBackend, CryptoBackend};
pub use ctr::AesCtr;
pub use sha256::Sha256;

/// Constant-time equality for secret material (tokens, MACs).
///
/// Inequality of *lengths* is revealed — lengths are public for every
/// caller here — but for equal-length inputs the comparison touches all
/// bytes and accumulates differences with XOR, so timing does not leak
/// *where* two values diverge. [`std::hint::black_box`] keeps the
/// accumulator from being short-circuited by the optimiser.
///
/// The gateway's Hello handshake uses this for tenant-token checks; a
/// naive early-exit `==` would let a byte-at-a-time guessing attack
/// walk the token.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    std::hint::black_box(diff) == 0
}

/// Known-answer material shared by the per-implementation tests.
#[cfg(test)]
pub(crate) mod test_vectors {
    use crate::aes::KeySize;

    pub fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The FIPS-197 Appendix C plaintext block.
    pub const FIPS197_PT: &str = "00112233445566778899aabbccddeeff";

    /// FIPS-197 Appendix C.1–C.3: key and the ciphertext of [`FIPS197_PT`].
    pub const FIPS197_C: [(KeySize, &str, &str); 3] = [
        (
            KeySize::Aes128,
            "000102030405060708090a0b0c0d0e0f",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            KeySize::Aes192,
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        ),
        (
            KeySize::Aes256,
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ];
}

#[cfg(test)]
mod ct_tests {
    use super::ct_eq;

    #[test]
    fn ct_eq_matches_plain_equality() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"secret-token", b"secret-token"));
        assert!(!ct_eq(b"secret-token", b"secret-tokeN"));
        assert!(!ct_eq(b"secret-token", b"Xecret-token"));
        assert!(!ct_eq(b"short", b"longer-value"));
        assert!(!ct_eq(b"a", b""));
    }

    #[test]
    fn ct_eq_catches_single_bit_differences_at_every_position() {
        let a = [0x5Au8; 32];
        for pos in 0..a.len() {
            for bit in 0..8 {
                let mut b = a;
                b[pos] ^= 1 << bit;
                assert!(!ct_eq(&a, &b), "flip at byte {pos} bit {bit}");
            }
        }
    }
}
