//! The byte-oriented FIPS-197 encrypt rounds and a byte-at-a-time CTR —
//! the **test oracle** both live lanes are pinned against.
//!
//! Nothing here runs in an engine, and no cipher carries a second schedule
//! for it: the oracle is a function of the *key*, expanding it on every
//! call. SubBytes / ShiftRows / MixColumns / AddRoundKey are spelled out
//! one byte at a time over the FIPS column-major state, MixColumns through
//! plain `gmul`, so the code reads against the standard line by line.
//! The crypto-equivalence gate (`tests/prop_crypto.rs`) holds the T-table
//! and AES-NI lanes byte-identical to it on random keys, IVs and ragged
//! lengths for all three key sizes.

use crate::aes::{expand_key, gmul, sbox, KeySize};

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    let sbox = sbox();
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
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

fn mix_columns(state: &mut [u8; 16]) {
    for col in state.chunks_exact_mut(4) {
        let [a0, a1, a2, a3] = [col[0], col[1], col[2], col[3]];
        col[0] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3;
        col[1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3;
        col[2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3);
        col[3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2);
    }
}

/// The FIPS-197 §5.1 cipher over an expanded key with `nr` rounds.
fn encrypt_with(round_keys: &[[u8; 16]], nr: usize, block: &mut [u8; 16]) {
    add_round_key(block, &round_keys[0]);
    for rk in &round_keys[1..nr] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, rk);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &round_keys[nr]);
}

/// Encrypt one block under `key` with the FIPS-197 §5.1 rounds.
///
/// # Panics
/// Panics if `key.len() != size.key_len()`.
pub fn encrypt_block(size: KeySize, key: &[u8], block: &mut [u8; 16]) {
    encrypt_with(&expand_key(size, key), size.rounds(), block);
}

/// XOR `data` with the CTR keystream of `key` from `iv` — the stream
/// contract of [`AesCtr::apply`](crate::ctr::AesCtr::apply): the IV's last
/// 8 bytes are a big-endian wrapping counter, incremented once per block.
///
/// # Panics
/// Panics if `key.len() != size.key_len()`.
pub fn apply_ctr(size: KeySize, key: &[u8], iv: [u8; 16], data: &mut [u8]) {
    let round_keys = expand_key(size, key);
    let mut counter_block = iv;
    let mut counter = u64::from_be_bytes(iv[8..16].try_into().expect("8 bytes"));
    for chunk in data.chunks_mut(16) {
        counter_block[8..16].copy_from_slice(&counter.to_be_bytes());
        let mut ks = counter_block;
        encrypt_with(&round_keys, size.rounds(), &mut ks);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}
