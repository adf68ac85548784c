//! Crypto-equivalence gate: both AES lanes a cipher can run on must be
//! byte-identical to the byte-oriented reference oracle.
//!
//! The lanes — AES-NI where the host has it, fused-T-table rounds with
//! the u128-lane CTR XOR elsewhere — live behind the `CryptoBackend`
//! selector; the oracle — the FIPS-197 byte rounds and byte-at-a-time
//! XOR in `datacase_crypto::reference` — is a function of the key. This
//! suite pins them together on random keys, IVs and *unaligned* lengths
//! for all three key sizes, so any future round tweak that diverges from
//! FIPS-197 fails here, by name, instead of silently corrupting
//! ciphertexts. The FIPS/NIST known vectors live next to the
//! implementations in `crates/crypto`.
//!
//! The `backend_`-named properties run the **selector cross-product**:
//! block/CTR/sector × 128/192/256-bit keys × unaligned lengths × nonzero
//! offsets, plus the keystream-cache × backend interaction. The forced
//! `Software` run is what covers the fallback lane on hosts with AES-NI.

use proptest::prelude::*;

use data_case::crypto::aes::{Aes, KeySize};
use data_case::crypto::ctr::AesCtr;
use data_case::crypto::sector::SectorCipher;
use data_case::crypto::vault::KeyVault;
use data_case::crypto::{aesni, kdf, reference, ActiveBackend, CryptoBackend};

const ALL_SIZES: [KeySize; 3] = [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256];

/// The full selector cross-product every `backend_` property runs:
/// `Auto` resolves to AES-NI exactly on capable hosts (elsewhere it is a
/// second software run), `Software` forces the T-table path everywhere.
const ALL_BACKENDS: [CryptoBackend; 2] = [CryptoBackend::Auto, CryptoBackend::Software];

proptest! {
    /// Block level: T-table encrypt ≡ reference rounds.
    #[test]
    fn block_paths_agree(key in proptest::collection::vec(0u8..=255, 32),
                         pt in proptest::collection::vec(0u8..=255, 16)) {
        let block: [u8; 16] = pt.try_into().unwrap();
        for size in ALL_SIZES {
            let key = &key[..size.key_len()];
            let mut fast = block;
            let mut slow = block;
            Aes::new(size, key).encrypt_block(&mut fast);
            reference::encrypt_block(size, key, &mut slow);
            prop_assert_eq!(fast, slow, "{:?} encrypt diverged", size);
        }
    }

    /// Stream level: lane-XOR CTR ≡ reference CTR on random IVs (counter
    /// carries included) and ragged lengths — empty, sub-block, aligned,
    /// and straddling buffers.
    #[test]
    fn ctr_paths_agree(key in proptest::collection::vec(0u8..=255, 32),
                       iv in proptest::collection::vec(0u8..=255, 16),
                       data in proptest::collection::vec(0u8..=255, 0..300)) {
        let iv: [u8; 16] = iv.try_into().unwrap();
        for size in ALL_SIZES {
            let key = &key[..size.key_len()];
            let ctr = AesCtr::from_key(size, key);
            let mut fast = data.clone();
            let mut slow = data.clone();
            ctr.apply(iv, &mut fast);
            reference::apply_ctr(size, key, iv, &mut slow);
            prop_assert_eq!(&fast, &slow, "{:?} CTR diverged", size);
            // Involution through the fast path alone.
            ctr.apply(iv, &mut fast);
            prop_assert_eq!(&fast, &data, "{:?} CTR involution broken", size);
        }
    }

    /// The whole-block entry used for page work must agree with the
    /// general entry (and therefore with the reference).
    #[test]
    fn apply_blocks_agrees_with_apply(key in proptest::collection::vec(0u8..=255, 16),
                                      nonce in any::<u64>(),
                                      blocks in 0usize..20) {
        let ctr = AesCtr::from_key(KeySize::Aes128, &key);
        let iv = AesCtr::iv_from_nonce(nonce);
        let data: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
        let mut a = data.clone();
        let mut b = data;
        ctr.apply(iv, &mut a);
        ctr.apply_blocks(iv, &mut b);
        prop_assert_eq!(a, b);
    }

    /// Offset entry: the keystream reached through `apply_at` must agree,
    /// at every key size, with the reference path applied over a longer
    /// buffer that *contains* the offset region — i.e. starting
    /// `start_block` blocks into the stream is the same as skipping that
    /// prefix. Lengths are ragged so the bulk loop and the partial tail
    /// are both crossed with nonzero block offsets.
    #[test]
    fn batched_offset_keystream_agrees_with_reference(
        key in proptest::collection::vec(0u8..=255, 32),
        iv in proptest::collection::vec(0u8..=255, 16),
        start_block in 0u64..40,
        data in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let iv: [u8; 16] = iv.try_into().unwrap();
        for size in ALL_SIZES {
            let key = &key[..size.key_len()];
            let ctr = AesCtr::from_key(size, key);
            let mut fast = data.clone();
            ctr.apply_at(iv, start_block, &mut fast);
            // Oracle: reference-encrypt a zero prefix plus the data and
            // keep the tail past the prefix.
            let prefix = start_block as usize * 16;
            let mut whole = vec![0u8; prefix];
            whole.extend_from_slice(&data);
            reference::apply_ctr(size, key, iv, &mut whole);
            prop_assert_eq!(&fast, &whole[prefix..], "{:?} offset keystream diverged", size);
            // Involution through the offset entry alone.
            ctr.apply_at(iv, start_block, &mut fast);
            prop_assert_eq!(&fast, &data, "{:?} offset involution broken", size);
        }
    }

    /// Sector level: the page fast path is the reference CTR of the
    /// LUKS-derived key under the ESSIV-flavoured IV binding.
    #[test]
    fn sector_paths_agree(pass in proptest::collection::vec(0u8..=255, 1..24),
                          sector in any::<u64>(),
                          data in proptest::collection::vec(0u8..=255, 0..300)) {
        for size in ALL_SIZES {
            let sc = SectorCipher::from_passphrase(&pass, size);
            let mut fast = data.clone();
            let mut slow = data.clone();
            sc.apply(sector, &mut fast);
            sector_oracle(&sc, &pass, sector, &mut slow);
            prop_assert_eq!(&fast, &slow, "{:?} sector cipher diverged", size);
        }
    }

    // ---- Hardware ≡ software ≡ reference: the backend cross-product ----

    /// Block level across backends: the AES-NI rounds (when the host has
    /// them) must agree with the T-table rounds, for all three key sizes.
    #[test]
    fn backend_block_paths_agree(key in proptest::collection::vec(0u8..=255, 32),
                                 pt in proptest::collection::vec(0u8..=255, 16)) {
        let block: [u8; 16] = pt.try_into().unwrap();
        for size in ALL_SIZES {
            let sw = Aes::new(size, &key[..size.key_len()]);
            let mut expect = block;
            sw.encrypt_block(&mut expect);
            if let Some(hw) = aesni::AesNi::new(size, &key[..size.key_len()]) {
                let mut got = block;
                hw.encrypt_block(&mut got);
                prop_assert_eq!(got, expect, "{:?} hw encrypt diverged", size);
            } else {
                prop_assert!(!CryptoBackend::hardware_available(),
                             "AesNi::new must only fail without AES-NI");
            }
        }
    }

    /// Stream level across the full selector cross-product: every
    /// backend's CTR output is pinned to the reference oracle on random
    /// IVs (counter carries included) and ragged lengths, for all three
    /// key sizes. `Software` is always a forced run, so dispatch coverage
    /// survives CI hosts without AES-NI.
    #[test]
    fn backend_ctr_cross_product_agrees(key in proptest::collection::vec(0u8..=255, 32),
                                        iv in proptest::collection::vec(0u8..=255, 16),
                                        data in proptest::collection::vec(0u8..=255, 0..300)) {
        let iv: [u8; 16] = iv.try_into().unwrap();
        for size in ALL_SIZES {
            let key = &key[..size.key_len()];
            let mut expect = data.clone();
            reference::apply_ctr(size, key, iv, &mut expect);
            for backend in ALL_BACKENDS {
                let ctr = AesCtr::from_key(size, key).with_backend(backend);
                let mut got = data.clone();
                ctr.apply(iv, &mut got);
                prop_assert_eq!(&got, &expect, "{:?} {} CTR diverged", size, backend);
                ctr.apply(iv, &mut got);
                prop_assert_eq!(&got, &data, "{:?} {} involution broken", size, backend);
            }
        }
    }

    /// Offset entry across backends: nonzero `apply_at` block offsets —
    /// crossing the hardware 8-wide loop, its scalar remainder, and the
    /// partial tail — must equal skipping the same prefix of a reference
    /// stream, for every backend and key size.
    #[test]
    fn backend_offset_keystream_cross_product(
        key in proptest::collection::vec(0u8..=255, 32),
        iv in proptest::collection::vec(0u8..=255, 16),
        start_block in 1u64..40,
        data in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let iv: [u8; 16] = iv.try_into().unwrap();
        for size in ALL_SIZES {
            let key = &key[..size.key_len()];
            let prefix = start_block as usize * 16;
            let mut whole = vec![0u8; prefix];
            whole.extend_from_slice(&data);
            reference::apply_ctr(size, key, iv, &mut whole);
            for backend in ALL_BACKENDS {
                let ctr = AesCtr::from_key(size, key).with_backend(backend);
                let mut got = data.clone();
                ctr.apply_at(iv, start_block, &mut got);
                prop_assert_eq!(&got, &whole[prefix..],
                                "{:?} {} offset keystream diverged", size, backend);
                ctr.apply_at(iv, start_block, &mut got);
                prop_assert_eq!(&got, &data, "{:?} {} offset involution broken", size, backend);
            }
        }
    }

    /// Sector level across backends: the ESSIV IV binding and the page
    /// fast path agree with the reference twin under every selector.
    #[test]
    fn backend_sector_cross_product(pass in proptest::collection::vec(0u8..=255, 1..24),
                                    sector in any::<u64>(),
                                    data in proptest::collection::vec(0u8..=255, 0..300)) {
        for size in ALL_SIZES {
            let oracle = SectorCipher::from_passphrase(&pass, size);
            let mut expect = data.clone();
            sector_oracle(&oracle, &pass, sector, &mut expect);
            for backend in ALL_BACKENDS {
                let sc = SectorCipher::from_passphrase(&pass, size).with_backend(backend);
                let mut got = data.clone();
                sc.apply(sector, &mut got);
                prop_assert_eq!(&got, &expect, "{:?} {} sector cipher diverged", size, backend);
            }
        }
    }
}

/// The sector cipher's oracle: reference CTR under the LUKS-derived key
/// and the cipher's own sector-bound IV.
fn sector_oracle(sc: &SectorCipher, pass: &[u8], sector: u64, data: &mut [u8]) {
    let size = sc.key_size();
    let key = kdf::luks_derive_key(pass, size.key_len());
    reference::apply_ctr(size, &key, sc.sector_iv(sector), data);
}

/// Dispatch sanity for the gate: forced `Software` resolves to itself,
/// `Auto` tracks detection, and a constructed cipher reports the lane it
/// actually runs.
#[test]
fn backend_dispatch_resolves_and_reports_consistently() {
    let hw = CryptoBackend::hardware_available();
    for backend in ALL_BACKENDS {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[0x42; 16]).with_backend(backend);
        let expect = match backend {
            CryptoBackend::Auto if hw => ActiveBackend::Hardware,
            CryptoBackend::Auto | CryptoBackend::Software => ActiveBackend::Software,
        };
        assert_eq!(ctr.active_backend(), expect, "{backend} misreported");
        assert_eq!(backend.resolve(), expect, "{backend} resolved elsewhere");
    }
}

/// Keystream-cache × hardware-backend interaction: a vault's cached
/// stream must be byte-identical no matter which backend generated it,
/// a warm hit must serve the same bytes as a cold generate, and
/// `destroy_key` must purge the cache under every backend (crypto-erasure
/// is backend-independent).
#[test]
fn backend_keystream_cache_interaction() {
    let unit = 7u64;
    let iv = AesCtr::iv_from_nonce(unit);
    let plain: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for backend in ALL_BACKENDS {
        let mut vault = KeyVault::new(b"gate-master", KeySize::Aes256)
            .with_backend(backend)
            .with_keystream_cache(8);
        vault.ensure_key(unit);
        // Cold: generates through `backend` and caches.
        let mut cold = plain.clone();
        assert_eq!(vault.keystream_apply(unit, iv, &mut cold), Ok(true));
        assert_eq!(vault.cached_keystreams(), 1);
        // Warm: served from cache, byte-identical to the cold pass.
        let mut warm = plain.clone();
        assert_eq!(vault.keystream_apply(unit, iv, &mut warm), Ok(true));
        assert_eq!(warm, cold, "{backend} warm hit diverged from generate");
        streams.push(cold);
        // Crypto-erasure purges the cached stream regardless of backend.
        assert!(vault.destroy_key(unit));
        assert_eq!(
            vault.cached_keystreams(),
            0,
            "{backend} left keystream behind after destroy_key"
        );
        let mut after = plain.clone();
        assert!(
            vault.keystream_apply(unit, iv, &mut after).is_err(),
            "{backend} served a stream for a destroyed key"
        );
    }
    for pair in streams.windows(2) {
        assert_eq!(pair[0], pair[1], "cached streams differ across backends");
    }
}
