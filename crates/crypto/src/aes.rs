//! AES-128/192/256 block cipher (FIPS-197), with a fused-T-table hot path.
//!
//! The S-box is generated at construction from the GF(2⁸) inverse + affine
//! transform rather than pasted as a 256-entry literal, which keeps the code
//! auditable; correctness is pinned by the FIPS-197 appendix vectors in the
//! tests below.
//!
//! Two round implementations coexist:
//!
//! * [`Aes::encrypt_block`] / [`Aes::decrypt_block`] — the hot path. Each
//!   round fuses SubBytes + ShiftRows + MixColumns + AddRoundKey into four
//!   u32 table lookups and four XORs per column (the classic T-table
//!   construction; decryption uses the FIPS-197 §5.3.5 *equivalent inverse
//!   cipher* with InvMixColumns-transformed round keys).
//! * [`Aes::encrypt_block_ref`] / [`Aes::decrypt_block_ref`] — the original
//!   byte-oriented FIPS-197 rounds, retained verbatim as the reference
//!   implementation. The crypto-equivalence gate (`tests/prop_crypto.rs`)
//!   pins the T-table path byte-identical to this one on random keys and
//!   blocks for all three key sizes.

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
fn gmul(mut a: u8, mut b: u8) -> u8 {
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

/// Multiplicative inverse in GF(2⁸) (0 maps to 0), by exponentiation to 254.
fn ginv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8)*
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gmul(result, base);
        }
        base = gmul(base, base);
        exp >>= 1;
    }
    result
}

#[allow(clippy::needless_range_loop)] // i is the GF(2^8) element, not just an index
fn build_sbox() -> ([u8; 256], [u8; 256]) {
    let mut sbox = [0u8; 256];
    let mut inv = [0u8; 256];
    for i in 0..256usize {
        let x = ginv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let s =
            x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        sbox[i] = s;
        inv[s as usize] = i as u8;
    }
    (sbox, inv)
}

/// Precomputed GF(2⁸) multiplication tables for the MixColumns constants.
/// Sector-level encryption pushes megabytes through the cipher, so the
/// per-byte `gmul` loop is replaced by table lookups (≈10× throughput)
/// while key expansion keeps using `gmul` directly.
#[derive(Clone)]
struct MulTables {
    x2: [u8; 256],
    x3: [u8; 256],
    x9: [u8; 256],
    x11: [u8; 256],
    x13: [u8; 256],
    x14: [u8; 256],
}

fn build_mul_tables() -> MulTables {
    let mut t = MulTables {
        x2: [0; 256],
        x3: [0; 256],
        x9: [0; 256],
        x11: [0; 256],
        x13: [0; 256],
        x14: [0; 256],
    };
    for i in 0..256usize {
        let b = i as u8;
        t.x2[i] = gmul(b, 2);
        t.x3[i] = gmul(b, 3);
        t.x9[i] = gmul(b, 9);
        t.x11[i] = gmul(b, 11);
        t.x13[i] = gmul(b, 13);
        t.x14[i] = gmul(b, 14);
    }
    t
}

fn sboxes() -> &'static ([u8; 256], [u8; 256]) {
    static SBOXES: std::sync::OnceLock<([u8; 256], [u8; 256])> = std::sync::OnceLock::new();
    SBOXES.get_or_init(build_sbox)
}

fn mul_tables() -> &'static MulTables {
    static TABLES: std::sync::OnceLock<MulTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(build_mul_tables)
}

/// Fused round tables: `te[r][x]` is MixColumns' column `r` scaled by
/// `S(x)`, packed big-endian, so one encryption round per column is
/// `te[0][b0] ^ te[1][b1] ^ te[2][b2] ^ te[3][b3] ^ rk` (SubBytes,
/// ShiftRows and MixColumns fused into the lookups, AddRoundKey the final
/// XOR). `td` is the mirror image over `InvS` with the InvMixColumns
/// constants, used by the equivalent inverse cipher. 8 KiB total,
/// derived — like the S-box — from `gmul` at first use.
struct TTables {
    te: [[u32; 256]; 4],
    td: [[u32; 256]; 4],
}

#[allow(clippy::needless_range_loop)] // x is the GF(2^8) element, not just an index
fn build_ttables() -> TTables {
    let (sbox, inv_sbox) = sboxes();
    let m = mul_tables();
    let mut t = TTables {
        te: [[0u32; 256]; 4],
        td: [[0u32; 256]; 4],
    };
    for x in 0..256usize {
        let s = sbox[x] as usize;
        let te0 = u32::from_be_bytes([m.x2[s], s as u8, s as u8, m.x3[s]]);
        let is = inv_sbox[x] as usize;
        let td0 = u32::from_be_bytes([m.x14[is], m.x9[is], m.x13[is], m.x11[is]]);
        for r in 0..4 {
            t.te[r][x] = te0.rotate_right(8 * r as u32);
            t.td[r][x] = td0.rotate_right(8 * r as u32);
        }
    }
    t
}

fn ttables() -> &'static TTables {
    static TABLES: std::sync::OnceLock<TTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(build_ttables)
}

/// InvMixColumns of one big-endian column word (key-schedule transform
/// for the equivalent inverse cipher — cold path, so plain `MulTables`).
fn inv_mix_word(m: &MulTables, w: u32) -> u32 {
    let [a0, a1, a2, a3] = w.to_be_bytes().map(|b| b as usize);
    u32::from_be_bytes([
        m.x14[a0] ^ m.x11[a1] ^ m.x13[a2] ^ m.x9[a3],
        m.x9[a0] ^ m.x14[a1] ^ m.x11[a2] ^ m.x13[a3],
        m.x13[a0] ^ m.x9[a1] ^ m.x14[a2] ^ m.x11[a3],
        m.x11[a0] ^ m.x13[a1] ^ m.x9[a2] ^ m.x14[a3],
    ])
}

/// An expanded AES key ready to encrypt/decrypt 16-byte blocks.
#[derive(Clone)]
pub struct Aes {
    size: KeySize,
    round_keys: Vec<[u8; 16]>,
    /// Encryption round keys as big-endian column words (T-table path).
    ek: Vec<[u32; 4]>,
    /// Equivalent-inverse-cipher round keys: `ek` reversed, middle rounds
    /// passed through InvMixColumns (FIPS-197 §5.3.5).
    dk: Vec<[u32; 4]>,
    sbox: &'static [u8; 256],
    inv_sbox: &'static [u8; 256],
    mul: &'static MulTables,
    tt: &'static TTables,
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
        assert_eq!(key.len(), size.key_len(), "AES key length mismatch");
        let (sbox, inv_sbox) = sboxes();
        let nk = size.nk();
        let nr = size.rounds();
        let nwords = 4 * (nr + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(nwords);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = [temp[1], temp[2], temp[3], temp[0]]; // RotWord
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize]; // SubWord
                }
                temp[0] ^= rcon;
                rcon = gmul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let round_keys: Vec<[u8; 16]> = (0..=nr)
            .map(|r| {
                let mut rk = [0u8; 16];
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
                rk
            })
            .collect();
        let mul = mul_tables();
        let ek: Vec<[u32; 4]> = round_keys
            .iter()
            .map(|rk| {
                [0, 1, 2, 3]
                    .map(|c| u32::from_be_bytes(rk[4 * c..4 * c + 4].try_into().expect("4 bytes")))
            })
            .collect();
        let dk: Vec<[u32; 4]> = (0..=nr)
            .map(|r| {
                let src = ek[nr - r];
                if r == 0 || r == nr {
                    src
                } else {
                    src.map(|w| inv_mix_word(mul, w))
                }
            })
            .collect();
        Aes {
            size,
            round_keys,
            ek,
            dk,
            sbox,
            inv_sbox,
            mul,
            tt: ttables(),
        }
    }

    /// The configured key size.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// The raw cipher key, reconstructed from the schedule (FIPS-197
    /// §5.2: the first `Nk` expansion words *are* the key). Lets
    /// [`AesCtr`](crate::ctr::AesCtr) re-expand an already-built cipher
    /// onto a different backend without carrying key bytes separately.
    pub(crate) fn raw_key(&self) -> Vec<u8> {
        self.round_keys
            .iter()
            .flatten()
            .copied()
            .take(self.size.key_len())
            .collect()
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.sbox[*b as usize];
        }
    }

    fn inv_sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.inv_sbox[*b as usize];
        }
    }

    /// State layout: state[4*c + r] = byte at row r, column c (FIPS column-major).
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[(c + r) % 4] = state[4 * c + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(&self, state: &mut [u8; 16]) {
        let m = &self.mul;
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = m.x2[col[0] as usize] ^ m.x3[col[1] as usize] ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ m.x2[col[1] as usize] ^ m.x3[col[2] as usize] ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ m.x2[col[2] as usize] ^ m.x3[col[3] as usize];
            state[4 * c + 3] = m.x3[col[0] as usize] ^ col[1] ^ col[2] ^ m.x2[col[3] as usize];
        }
    }

    fn inv_mix_columns(&self, state: &mut [u8; 16]) {
        let m = &self.mul;
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = m.x14[col[0] as usize]
                ^ m.x11[col[1] as usize]
                ^ m.x13[col[2] as usize]
                ^ m.x9[col[3] as usize];
            state[4 * c + 1] = m.x9[col[0] as usize]
                ^ m.x14[col[1] as usize]
                ^ m.x11[col[2] as usize]
                ^ m.x13[col[3] as usize];
            state[4 * c + 2] = m.x13[col[0] as usize]
                ^ m.x9[col[1] as usize]
                ^ m.x14[col[2] as usize]
                ^ m.x11[col[3] as usize];
            state[4 * c + 3] = m.x11[col[0] as usize]
                ^ m.x13[col[1] as usize]
                ^ m.x9[col[2] as usize]
                ^ m.x14[col[3] as usize];
        }
    }

    /// Encrypt one 16-byte block in place (T-table hot path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let out = self.encrypt_words(Self::load_words(block));
        Self::store_words(out, block);
    }

    /// Decrypt one 16-byte block in place (equivalent inverse cipher).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let td = &self.tt.td;
        let is = self.inv_sbox;
        let nr = self.size.rounds();
        let mut s = Self::load_words(block);
        for (w, rk) in s.iter_mut().zip(self.dk[0]) {
            *w ^= rk;
        }
        for r in 1..nr {
            let rk = self.dk[r];
            // InvShiftRows moves row r right by r: output column i, row r
            // comes from input column (i + 4 - r) % 4.
            s = [
                td[0][(s[0] >> 24) as usize]
                    ^ td[1][((s[3] >> 16) & 0xff) as usize]
                    ^ td[2][((s[2] >> 8) & 0xff) as usize]
                    ^ td[3][(s[1] & 0xff) as usize]
                    ^ rk[0],
                td[0][(s[1] >> 24) as usize]
                    ^ td[1][((s[0] >> 16) & 0xff) as usize]
                    ^ td[2][((s[3] >> 8) & 0xff) as usize]
                    ^ td[3][(s[2] & 0xff) as usize]
                    ^ rk[1],
                td[0][(s[2] >> 24) as usize]
                    ^ td[1][((s[1] >> 16) & 0xff) as usize]
                    ^ td[2][((s[0] >> 8) & 0xff) as usize]
                    ^ td[3][(s[3] & 0xff) as usize]
                    ^ rk[2],
                td[0][(s[3] >> 24) as usize]
                    ^ td[1][((s[2] >> 16) & 0xff) as usize]
                    ^ td[2][((s[1] >> 8) & 0xff) as usize]
                    ^ td[3][(s[0] & 0xff) as usize]
                    ^ rk[3],
            ];
        }
        let rk = self.dk[nr];
        let sub = |i: usize, j3: usize, j2: usize, j1: usize| -> u32 {
            u32::from_be_bytes([
                is[(s[i] >> 24) as usize],
                is[((s[j3] >> 16) & 0xff) as usize],
                is[((s[j2] >> 8) & 0xff) as usize],
                is[(s[j1] & 0xff) as usize],
            ])
        };
        let out = [
            sub(0, 3, 2, 1) ^ rk[0],
            sub(1, 0, 3, 2) ^ rk[1],
            sub(2, 1, 0, 3) ^ rk[2],
            sub(3, 2, 1, 0) ^ rk[3],
        ];
        Self::store_words(out, block);
    }

    /// The FIPS column-major state as four big-endian column words.
    #[inline]
    fn load_words(block: &[u8; 16]) -> [u32; 4] {
        [0, 1, 2, 3].map(|c| u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4")))
    }

    #[inline]
    fn store_words(words: [u32; 4], block: &mut [u8; 16]) {
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
        let te = &self.tt.te;
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

    /// Four [`encrypt_words`](Aes::encrypt_words) in software-SIMD
    /// lockstep: each round loads its key once and advances four
    /// independent states through the T-tables together, so the four
    /// dependency chains overlap (the per-chain table-load latency hides
    /// behind the other three) instead of serialising block after block.
    /// CTR keystream generation is the caller: four counter blocks per
    /// call, bit-identical to four scalar calls.
    #[inline]
    pub(crate) fn encrypt_words_x4(&self, mut s: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
        let te = &self.tt.te;
        let sbox = self.sbox;
        let nr = self.size.rounds();
        let rk0 = self.ek[0];
        for lane in s.iter_mut() {
            for (w, rk) in lane.iter_mut().zip(rk0) {
                *w ^= rk;
            }
        }
        for r in 1..nr {
            let rk = self.ek[r];
            for lane in s.iter_mut() {
                let v = *lane;
                *lane = [
                    te[0][(v[0] >> 24) as usize]
                        ^ te[1][((v[1] >> 16) & 0xff) as usize]
                        ^ te[2][((v[2] >> 8) & 0xff) as usize]
                        ^ te[3][(v[3] & 0xff) as usize]
                        ^ rk[0],
                    te[0][(v[1] >> 24) as usize]
                        ^ te[1][((v[2] >> 16) & 0xff) as usize]
                        ^ te[2][((v[3] >> 8) & 0xff) as usize]
                        ^ te[3][(v[0] & 0xff) as usize]
                        ^ rk[1],
                    te[0][(v[2] >> 24) as usize]
                        ^ te[1][((v[3] >> 16) & 0xff) as usize]
                        ^ te[2][((v[0] >> 8) & 0xff) as usize]
                        ^ te[3][(v[1] & 0xff) as usize]
                        ^ rk[2],
                    te[0][(v[3] >> 24) as usize]
                        ^ te[1][((v[0] >> 16) & 0xff) as usize]
                        ^ te[2][((v[1] >> 8) & 0xff) as usize]
                        ^ te[3][(v[2] & 0xff) as usize]
                        ^ rk[3],
                ];
            }
        }
        let rk = self.ek[nr];
        for lane in s.iter_mut() {
            let v = *lane;
            let sub = |i: usize, j1: usize, j2: usize, j3: usize| -> u32 {
                u32::from_be_bytes([
                    sbox[(v[i] >> 24) as usize],
                    sbox[((v[j1] >> 16) & 0xff) as usize],
                    sbox[((v[j2] >> 8) & 0xff) as usize],
                    sbox[(v[j3] & 0xff) as usize],
                ])
            };
            *lane = [
                sub(0, 1, 2, 3) ^ rk[0],
                sub(1, 2, 3, 0) ^ rk[1],
                sub(2, 3, 0, 1) ^ rk[2],
                sub(3, 0, 1, 2) ^ rk[3],
            ];
        }
        s
    }

    /// Encrypt one block with the retained byte-oriented FIPS-197 rounds —
    /// the reference path the crypto-equivalence gate pins
    /// [`encrypt_block`](Aes::encrypt_block) against.
    pub fn encrypt_block_ref(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        Self::add_round_key(block, &self.round_keys[0]);
        for r in 1..nr {
            self.sub_bytes(block);
            Self::shift_rows(block);
            self.mix_columns(block);
            Self::add_round_key(block, &self.round_keys[r]);
        }
        self.sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[nr]);
    }

    /// Decrypt one block with the retained byte-oriented FIPS-197 rounds
    /// (see [`encrypt_block_ref`](Aes::encrypt_block_ref)).
    pub fn decrypt_block_ref(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        Self::add_round_key(block, &self.round_keys[nr]);
        for r in (1..nr).rev() {
            Self::inv_shift_rows(block);
            self.inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_keys[r]);
            self.inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        self.inv_sub_bytes(block);
        Self::add_round_key(block, &self.round_keys[0]);
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
    fn sbox_known_entries() {
        let (sbox, inv) = build_sbox();
        // FIPS-197 Figure 7 spot checks.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        for i in 0..256 {
            assert_eq!(inv[sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(KeySize::Aes128, &key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key = hex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let aes = Aes::new(KeySize::Aes192, &key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(KeySize::Aes256, &key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
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
    fn reference_path_passes_fips197_vectors() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(KeySize::Aes128, &key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block_ref(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block_ref(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    proptest::proptest! {
        #[test]
        fn roundtrip_all_sizes(key in proptest::collection::vec(0u8..=255, 32),
                               pt in proptest::collection::vec(0u8..=255, 16)) {
            let mut block: [u8; 16] = pt.clone().try_into().unwrap();
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let aes = Aes::new(size, &key[..size.key_len()]);
                let orig = block;
                aes.encrypt_block(&mut block);
                proptest::prop_assert_ne!(&block[..], &orig[..]);
                aes.decrypt_block(&mut block);
                proptest::prop_assert_eq!(&block[..], &orig[..]);
            }
        }

        #[test]
        fn ttable_path_matches_reference(key in proptest::collection::vec(0u8..=255, 32),
                                         pt in proptest::collection::vec(0u8..=255, 16)) {
            let block: [u8; 16] = pt.clone().try_into().unwrap();
            for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
                let aes = Aes::new(size, &key[..size.key_len()]);
                let mut fast = block;
                let mut slow = block;
                aes.encrypt_block(&mut fast);
                aes.encrypt_block_ref(&mut slow);
                proptest::prop_assert_eq!(&fast[..], &slow[..]);
                aes.decrypt_block(&mut fast);
                aes.decrypt_block_ref(&mut slow);
                proptest::prop_assert_eq!(&fast[..], &slow[..]);
                proptest::prop_assert_eq!(&fast[..], &block[..]);
            }
        }
    }
}
