//! AES-128/192/256 forward cipher (FIPS-197): key expansion and the
//! software fused-T-table rounds.
//!
//! Every cipher in the system is CTR, so only the *encrypt* direction
//! exists. The S-box is generated at first use from the GF(2⁸) inverse +
//! affine transform rather than pasted as a 256-entry literal, which keeps
//! the code auditable; correctness is pinned by the FIPS-197 appendix
//! vectors in the tests below.
//!
//! [`Aes`] is the software lane — what a cipher runs on hosts without
//! AES-NI. Each round fuses SubBytes + ShiftRows + MixColumns +
//! AddRoundKey into four u32 table lookups and four XORs per column (the
//! classic T-table construction). It holds one schedule: the encryption
//! round keys, inline. The byte-oriented FIPS-197 rounds it is pinned
//! against live in [`crate::reference`], addressed by key.

/// AES key sizes supported by the cipher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Number of rounds (Nr).
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Key length in 32-bit words (Nk).
    pub fn nk(self) -> usize {
        self.key_len() / 4
    }

    /// Key size in bits (for cost accounting).
    pub fn bits(self) -> u32 {
        (self.key_len() * 8) as u32
    }
}

/// GF(2⁸) multiplication modulo the AES polynomial x⁸+x⁴+x³+x+1.
pub(crate) fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸) (0 maps to 0): a⁻¹ = a²⁵⁴, by plain
/// repeated multiplication — it only ever runs 256 times, to build the S-box.
fn ginv(a: u8) -> u8 {
    (1..254).fold(a, |acc, _| gmul(acc, a))
}

fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    for (i, s) in sbox.iter_mut().enumerate() {
        let x = ginv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        *s = x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
    }
    sbox
}

pub(crate) fn sbox() -> &'static [u8; 256] {
    static SBOX: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    SBOX.get_or_init(build_sbox)
}

/// Fused round tables: `te[r][x]` is MixColumns' column `r` scaled by
/// `S(x)`, packed big-endian, so one encryption round per column is
/// `te[0][b0] ^ te[1][b1] ^ te[2][b2] ^ te[3][b3] ^ rk` (SubBytes,
/// ShiftRows and MixColumns fused into the lookups, AddRoundKey the final
/// XOR). 4 KiB, derived — like the S-box — from `gmul` at first use.
type TeTables = [[u32; 256]; 4];

fn build_te() -> TeTables {
    let mut te = [[0u32; 256]; 4];
    for (x, &s) in sbox().iter().enumerate() {
        let te0 = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        for (r, table) in te.iter_mut().enumerate() {
            table[x] = te0.rotate_right(8 * r as u32);
        }
    }
    te
}

fn te_tables() -> &'static TeTables {
    static TABLES: std::sync::OnceLock<TeTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(build_te)
}

/// Maximum round keys across key sizes (AES-256: Nr = 14, so 15).
pub(crate) const MAX_ROUND_KEYS: usize = 15;

/// FIPS-197 §5.2 key expansion: round key `r` as its 16 bytes in FIPS
/// column-major order (slots past `Nr` stay zero). One routine feeds both
/// [`Aes::new`] and the [`crate::reference`] oracle; the AES-NI lane
/// expands independently.
///
/// # Panics
/// Panics if `key.len() != size.key_len()`.
pub(crate) fn expand_key(size: KeySize, key: &[u8]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    assert_eq!(key.len(), size.key_len(), "AES key length mismatch");
    let sbox = sbox();
    let nk = size.nk();
    let nwords = 4 * (size.rounds() + 1);
    let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
    for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
        word.copy_from_slice(chunk);
    }
    let mut rcon: u8 = 1;
    for i in nk..nwords {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp = [temp[1], temp[2], temp[3], temp[0]]; // RotWord
            temp = temp.map(|b| sbox[b as usize]); // SubWord
            temp[0] ^= rcon;
            rcon = gmul(rcon, 2);
        } else if nk > 6 && i % nk == 4 {
            temp = temp.map(|b| sbox[b as usize]);
        }
        w[i] = std::array::from_fn(|b| w[i - nk][b] ^ temp[b]);
    }
    let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
    for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
        for (dst, word) in rk.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(word);
        }
    }
    round_keys
}

/// An expanded AES key ready to encrypt 16-byte blocks: one schedule,
/// held inline, so the value *is* the key material.
#[derive(Clone)]
pub struct Aes {
    size: KeySize,
    /// Encryption round keys as big-endian column words.
    ek: [[u32; 4]; MAX_ROUND_KEYS],
    sbox: &'static [u8; 256],
    te: &'static TeTables,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("size", &self.size).finish()
    }
}

impl Aes {
    /// Expand `key` (length must match `size`) into round keys.
    ///
    /// # Panics
    /// Panics if `key.len() != size.key_len()`.
    pub fn new(size: KeySize, key: &[u8]) -> Aes {
        let ek = expand_key(size, key).map(|rk| Self::load_words(&rk));
        Aes {
            size,
            ek,
            sbox: sbox(),
            te: te_tables(),
        }
    }

    /// The configured key size.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// The schedule as bytes, in the layout of [`expand_key`].
    pub(crate) fn round_keys(&self) -> [[u8; 16]; MAX_ROUND_KEYS] {
        self.ek.map(|words| {
            let mut rk = [0u8; 16];
            Self::store_words(words, &mut rk);
            rk
        })
    }

    /// Encrypt one 16-byte block in place (T-table hot path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let out = self.encrypt_words(Self::load_words(block));
        Self::store_words(out, block);
    }

    /// The FIPS column-major state as four big-endian column words.
    #[inline]
    fn load_words(block: &[u8; 16]) -> [u32; 4] {
        [0, 1, 2, 3].map(|c| u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4")))
    }

    /// The inverse of [`load_words`](Aes::load_words).
    #[inline]
    pub(crate) fn store_words(words: [u32; 4], block: &mut [u8; 16]) {
        for (c, w) in words.into_iter().enumerate() {
            block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
    }

    /// One full encryption over column words — the shared core of
    /// [`encrypt_block`](Aes::encrypt_block) and the CTR keystream
    /// generator, which keeps its counter in words and skips the byte
    /// round-trip entirely.
    #[inline]
    pub(crate) fn encrypt_words(&self, mut s: [u32; 4]) -> [u32; 4] {
        let te = self.te;
        let sbox = self.sbox;
        let nr = self.size.rounds();
        for (w, rk) in s.iter_mut().zip(self.ek[0]) {
            *w ^= rk;
        }
        for r in 1..nr {
            let rk = self.ek[r];
            // ShiftRows moves row r left by r: output column i, row r
            // comes from input column (i + r) % 4.
            s = [
                te[0][(s[0] >> 24) as usize]
                    ^ te[1][((s[1] >> 16) & 0xff) as usize]
                    ^ te[2][((s[2] >> 8) & 0xff) as usize]
                    ^ te[3][(s[3] & 0xff) as usize]
                    ^ rk[0],
                te[0][(s[1] >> 24) as usize]
                    ^ te[1][((s[2] >> 16) & 0xff) as usize]
                    ^ te[2][((s[3] >> 8) & 0xff) as usize]
                    ^ te[3][(s[0] & 0xff) as usize]
                    ^ rk[1],
                te[0][(s[2] >> 24) as usize]
                    ^ te[1][((s[3] >> 16) & 0xff) as usize]
                    ^ te[2][((s[0] >> 8) & 0xff) as usize]
                    ^ te[3][(s[1] & 0xff) as usize]
                    ^ rk[2],
                te[0][(s[3] >> 24) as usize]
                    ^ te[1][((s[0] >> 16) & 0xff) as usize]
                    ^ te[2][((s[1] >> 8) & 0xff) as usize]
                    ^ te[3][(s[2] & 0xff) as usize]
                    ^ rk[3],
            ];
        }
        let rk = self.ek[nr];
        let sub = |i: usize, j1: usize, j2: usize, j3: usize| -> u32 {
            u32::from_be_bytes([
                sbox[(s[i] >> 24) as usize],
                sbox[((s[j1] >> 16) & 0xff) as usize],
                sbox[((s[j2] >> 8) & 0xff) as usize],
                sbox[(s[j3] & 0xff) as usize],
            ])
        };
        [
            sub(0, 1, 2, 3) ^ rk[0],
            sub(1, 2, 3, 0) ^ rk[1],
            sub(2, 3, 0, 1) ^ rk[2],
            sub(3, 0, 1, 2) ^ rk[3],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_vectors::{hex, FIPS197_C, FIPS197_PT};
    use datacase_sim::check::check;

    #[test]
    fn sbox_known_entries() {
        let sbox = build_sbox();
        // FIPS-197 Figure 7 spot checks.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        // A permutation: every byte value appears exactly once.
        let mut seen = [false; 256];
        for s in sbox {
            assert!(!std::mem::replace(&mut seen[s as usize], true));
        }
    }

    #[test]
    fn fips197_appendix_c_vectors() {
        for (size, key, ct) in FIPS197_C {
            let key = hex(key);
            let aes = Aes::new(size, &key);
            let mut fast: [u8; 16] = hex(FIPS197_PT).try_into().unwrap();
            let mut slow = fast;
            aes.encrypt_block(&mut fast);
            assert_eq!(fast.to_vec(), hex(ct), "{size:?} T-table");
            crate::reference::encrypt_block(size, &key, &mut slow);
            assert_eq!(slow.to_vec(), hex(ct), "{size:?} oracle");
            assert_eq!(aes.round_keys(), expand_key(size, &key), "{size:?}");
        }
    }

    #[test]
    fn sp800_38a_aes128_ecb_block1() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, block #1.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(KeySize::Aes128, &key);
        let mut block: [u8; 16] = hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    #[should_panic(expected = "key length")]
    fn wrong_key_length_panics() {
        let _ = Aes::new(KeySize::Aes128, &[0u8; 24]);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(KeySize::Aes128, &[7u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('7'), "debug output leaked key bytes: {dbg}");
    }

    #[test]
    fn gmul_matches_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 §4.2 example)
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn ginv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gmul(a, ginv(a)), 1, "a={a}");
        }
        assert_eq!(ginv(0), 0);
    }

    #[test]
    fn ttable_path_matches_reference() {
        check("ttable_path_matches_reference", 64, |s| {
            let key = s.vec(32..=32, |s| s.range(0u8..=255));
            let pt = s.vec(16..=16, |s| s.range(0u8..=255));
            let block: [u8; 16] = pt.clone().try_into().unwrap();
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let key = &key[..size.key_len()];
                let mut fast = block;
                let mut slow = block;
                Aes::new(size, key).encrypt_block(&mut fast);
                crate::reference::encrypt_block(size, key, &mut slow);
                assert_eq!(&fast[..], &slow[..]);
                assert_ne!(&fast[..], &block[..]);
            }
        });
    }
}
