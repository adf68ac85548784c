//! Log records and the tamper-evidence chain.

use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::PurposeId;
use datacase_crypto::hmac::hmac_sha256;
use datacase_sim::time::Ts;

/// One audit log record (the persisted mirror of an action-history tuple,
/// possibly with response content).
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Sequence number within the log.
    pub seq: u64,
    /// When the operation happened.
    pub at: Ts,
    /// The unit involved, if unit-specific.
    pub unit: Option<UnitId>,
    /// The acting entity.
    pub entity: EntityId,
    /// The claimed purpose.
    pub purpose: PurposeId,
    /// Operation label ("read", "update-meta", the SQL-ish text …).
    pub op: String,
    /// Logged content (response row, query text — backend-dependent).
    pub payload: Vec<u8>,
    /// Whether the payload was redacted after the fact (unit erasure).
    pub redacted: bool,
}

impl LogRecord {
    /// Serialized size estimate (for space accounting and log costs).
    pub fn size(&self) -> usize {
        40 + self.op.len() + self.payload.len()
    }

    /// Canonical bytes fed to the HMAC chain.
    pub fn chain_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.at.0.to_le_bytes());
        out.extend_from_slice(&self.unit.map(|u| u.0).unwrap_or(u64::MAX).to_le_bytes());
        out.extend_from_slice(&self.entity.0.to_le_bytes());
        out.extend_from_slice(&(self.purpose.name().len() as u32).to_le_bytes());
        out.extend_from_slice(self.purpose.name().as_bytes());
        out.extend_from_slice(self.op.as_bytes());
        out.push(self.redacted as u8);
        out.extend_from_slice(&self.payload);
        out
    }
}

/// An HMAC hash chain over log records: `mac_i = HMAC(key, mac_{i-1} ‖
/// bytes_i)`. An auditor holding the key can verify that no record was
/// altered or dropped — the "demonstrable compliance" evidence of
/// invariant IX.
#[derive(Clone, Debug)]
pub struct HmacChain {
    key: [u8; 32],
    head: [u8; 32],
    links: u64,
}

impl HmacChain {
    /// A chain sealed under `key`.
    pub fn new(key: &[u8]) -> HmacChain {
        HmacChain {
            key: datacase_crypto::sha256::Sha256::digest(key),
            head: [0u8; 32],
            links: 0,
        }
    }

    /// Extend the chain with a record's bytes; returns the new head MAC.
    pub fn extend(&mut self, bytes: &[u8]) -> [u8; 32] {
        let mut input = self.head.to_vec();
        input.extend_from_slice(bytes);
        self.head = hmac_sha256(&self.key, &input);
        self.links += 1;
        self.head
    }

    /// The current head MAC.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Number of links.
    pub fn links(&self) -> u64 {
        self.links
    }

    /// Recompute the chain over `records` and compare with `self`'s head
    /// (auditor-side verification).
    pub fn verify(&self, key: &[u8], records: impl Iterator<Item = Vec<u8>>) -> bool {
        let mut fresh = HmacChain::new(key);
        for bytes in records {
            fresh.extend(&bytes);
        }
        fresh.links == self.links && fresh.head == self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::purpose::well_known as wk;

    fn rec(seq: u64, payload: &[u8]) -> LogRecord {
        LogRecord {
            seq,
            at: Ts::from_secs(seq),
            unit: Some(UnitId(1)),
            entity: EntityId(2),
            purpose: wk::billing(),
            op: "read".into(),
            payload: payload.to_vec(),
            redacted: false,
        }
    }

    #[test]
    fn chain_verifies_untampered_log() {
        let mut chain = HmacChain::new(b"audit-key");
        let records = vec![rec(1, b"a"), rec(2, b"b"), rec(3, b"c")];
        for r in &records {
            chain.extend(&r.chain_bytes());
        }
        assert!(chain.verify(b"audit-key", records.iter().map(|r| r.chain_bytes())));
    }

    #[test]
    fn chain_detects_tampering() {
        let mut chain = HmacChain::new(b"audit-key");
        let mut records = vec![rec(1, b"a"), rec(2, b"b")];
        for r in &records {
            chain.extend(&r.chain_bytes());
        }
        records[0].payload = b"ALTERED".to_vec();
        assert!(!chain.verify(b"audit-key", records.iter().map(|r| r.chain_bytes())));
    }

    #[test]
    fn chain_detects_dropped_record() {
        let mut chain = HmacChain::new(b"audit-key");
        let records = vec![rec(1, b"a"), rec(2, b"b")];
        for r in &records {
            chain.extend(&r.chain_bytes());
        }
        assert!(!chain.verify(b"audit-key", records[..1].iter().map(|r| r.chain_bytes())));
    }

    #[test]
    fn chain_rejects_wrong_key() {
        let mut chain = HmacChain::new(b"audit-key");
        let records = [rec(1, b"a")];
        chain.extend(&records[0].chain_bytes());
        assert!(!chain.verify(b"other-key", records.iter().map(|r| r.chain_bytes())));
    }

    #[test]
    fn record_size_counts_parts() {
        let r = rec(1, b"12345");
        assert_eq!(r.size(), 40 + 4 + 5);
    }

    #[test]
    fn redaction_changes_chain_bytes() {
        let a = rec(1, b"x");
        let mut b = a.clone();
        b.redacted = true;
        assert_ne!(a.chain_bytes(), b.chain_bytes());
    }
}
