//! HMAC-SHA-256 (RFC 2104 / FIPS-198-1).
//!
//! Used by the audit layer to make log segments tamper-evident, which is
//! what lets an auditor treat them as compliance evidence (invariant IX).

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// A keyed, incremental HMAC-SHA-256.
///
/// [`new`](HmacSha256::new) absorbs both 64-byte pads, so a value fresh
/// from it is the *key*: clone it per message, stream the message in with
/// [`update`](HmacSha256::update) and [`finalize`](HmacSha256::finalize)
/// the clone. A chain MACing many short records under one key pays the two
/// pad compressions once instead of once per record.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Both hash states primed with `key`'s pads, no message bytes yet.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Feed more of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and produce the 32-byte MAC.
    pub fn finalize(mut self) -> [u8; 32] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Compute HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_long_key_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_oversized_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn a_primed_key_macs_many_streamed_messages() {
        // One key state, cloned per message, the message fed in pieces of
        // every alignment: byte-identical to the one-shot function.
        let key = HmacSha256::new(b"chain-key");
        let msg: Vec<u8> = (0..200u8).collect();
        for split in [0, 1, 31, 32, 55, 56, 64, 65, 128, 199, 200] {
            let mut mac = key.clone();
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), hmac_sha256(b"chain-key", &msg), "{split}");
        }
    }
}
