//! Log records and the tamper-evidence chain.
//!
//! A [`LogRecord`] is what a caller hands a logger. What a logger *keeps*
//! is the packed `Stored` form — the same facts in their smallest shape
//! — and the stored form is what is sized, chained and redacted: the
//! canonical byte layout under the HMAC chain is defined once, in
//! `Stored::feed`.

use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::PurposeId;
use datacase_crypto::hmac::HmacSha256;
use datacase_sim::time::Ts;

/// One audit log record (the persisted mirror of an action-history tuple,
/// possibly with response content), as submitted to a logger.
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
    /// Operation label ("SELECT", "DENIED", "update-meta" …): a literal at
    /// every call site, so a record costs no allocation for it.
    pub op: &'static str,
    /// Logged content (response row, query text — backend-dependent).
    pub payload: Vec<u8>,
    /// Whether the payload was redacted after the fact (unit erasure).
    pub redacted: bool,
}

/// The unit field of a record that names no unit.
const NO_UNIT: u64 = u64::MAX;

/// A record as the log store holds it: no `Option` tag, no heap string
/// for the label, a payload allocation of exactly the bytes kept.
#[derive(Clone, Debug)]
pub(crate) struct Stored {
    seq: u64,
    at: Ts,
    unit: u64,
    entity: EntityId,
    purpose: PurposeId,
    op: &'static str,
    pub(crate) redacted: bool,
    pub(crate) payload: Box<[u8]>,
}

impl From<LogRecord> for Stored {
    fn from(rec: LogRecord) -> Stored {
        Stored {
            seq: rec.seq,
            at: rec.at,
            unit: rec.unit.map_or(NO_UNIT, |u| u.0),
            entity: rec.entity,
            purpose: rec.purpose,
            op: rec.op,
            redacted: rec.redacted,
            payload: rec.payload.into_boxed_slice(),
        }
    }
}

impl Stored {
    /// Serialized size estimate (for space accounting and log costs).
    pub(crate) fn size(&self) -> usize {
        40 + self.op.len() + self.payload.len()
    }

    /// Stream the record's canonical bytes into a chain link's MAC.
    fn feed(&self, mac: &mut HmacSha256) {
        let purpose = self.purpose.name();
        mac.update(&self.seq.to_le_bytes());
        mac.update(&self.at.0.to_le_bytes());
        mac.update(&self.unit.to_le_bytes());
        mac.update(&self.entity.0.to_le_bytes());
        mac.update(&(purpose.len() as u32).to_le_bytes());
        mac.update(purpose.as_bytes());
        mac.update(self.op.as_bytes());
        mac.update(&[self.redacted as u8]);
        mac.update(&self.payload);
    }
}

/// An HMAC hash chain over log records: `mac_i = HMAC(key, mac_{i-1} ‖
/// bytes_i)`. An auditor holding the key can verify that no record was
/// altered or dropped — the "demonstrable compliance" evidence of
/// invariant IX.
#[derive(Clone, Debug)]
pub struct HmacChain {
    /// The chain key with both HMAC pads absorbed; cloned per link.
    key: HmacSha256,
    head: [u8; 32],
    links: u64,
}

impl HmacChain {
    /// A chain sealed under `key`.
    pub fn new(key: &[u8]) -> HmacChain {
        HmacChain {
            key: HmacSha256::new(&datacase_crypto::sha256::Sha256::digest(key)),
            head: [0u8; 32],
            links: 0,
        }
    }

    /// Extend the chain with a record; returns the new head MAC.
    pub(crate) fn extend(&mut self, rec: &Stored) -> [u8; 32] {
        let mut mac = self.key.clone();
        mac.update(&self.head);
        rec.feed(&mut mac);
        self.head = mac.finalize();
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
    pub(crate) fn verify<'a>(&self, key: &[u8], records: impl Iterator<Item = &'a Stored>) -> bool {
        let mut fresh = HmacChain::new(key);
        for rec in records {
            fresh.extend(rec);
        }
        fresh.links == self.links && fresh.head == self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::purpose::well_known as wk;

    fn rec(seq: u64, payload: &[u8]) -> Stored {
        LogRecord {
            seq,
            at: Ts::from_secs(seq),
            unit: Some(UnitId(1)),
            entity: EntityId(2),
            purpose: wk::billing(),
            op: "read",
            payload: payload.to_vec(),
            redacted: false,
        }
        .into()
    }

    fn sealed(key: &[u8], records: &[Stored]) -> HmacChain {
        let mut chain = HmacChain::new(key);
        for r in records {
            chain.extend(r);
        }
        chain
    }

    #[test]
    fn chain_verifies_untampered_log() {
        let records = vec![rec(1, b"a"), rec(2, b"b"), rec(3, b"c")];
        let chain = sealed(b"audit-key", &records);
        assert!(chain.verify(b"audit-key", records.iter()));
    }

    #[test]
    fn chain_detects_tampering() {
        let mut records = vec![rec(1, b"a"), rec(2, b"b")];
        let chain = sealed(b"audit-key", &records);
        records[0].payload = b"ALTERED".to_vec().into();
        assert!(!chain.verify(b"audit-key", records.iter()));
    }

    #[test]
    fn chain_detects_dropped_record() {
        let records = vec![rec(1, b"a"), rec(2, b"b")];
        let chain = sealed(b"audit-key", &records);
        assert!(!chain.verify(b"audit-key", records[..1].iter()));
    }

    #[test]
    fn chain_rejects_wrong_key() {
        let records = [rec(1, b"a")];
        let chain = sealed(b"audit-key", &records);
        assert!(!chain.verify(b"other-key", records.iter()));
    }

    #[test]
    fn record_size_counts_parts() {
        let r = rec(1, b"12345");
        assert_eq!(r.size(), 40 + 4 + 5);
    }

    #[test]
    fn stored_record_is_packed() {
        assert!(std::mem::size_of::<Stored>() <= 72);
    }

    #[test]
    fn redaction_changes_the_chain() {
        let a = rec(1, b"x");
        let mut b = a.clone();
        b.redacted = true;
        assert_ne!(sealed(b"k", &[a]).head(), sealed(b"k", &[b]).head());
    }
}
