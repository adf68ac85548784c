//! Log records and the tamper-evidence chain.
//!
//! A [`LogRecord`] is what a caller hands a logger. What a logger *keeps*
//! is the packed `Stored` form — the same facts in their smallest shape
//! — and the stored form is what is sized, chained and redacted: the
//! canonical byte layout under the HMAC chain is defined once, in
//! `Stored::feed`.
//!
//! A link MACs a record's facts and a keyed commitment to its payload,
//! never the payload itself. Redaction swaps the payload for that
//! commitment, so the chained bytes of a record are the same before and
//! after its unit is erased, and the chain only ever grows.

use datacase_core::action::Action;
use datacase_core::history::HistoryTuple;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::PurposeId;
use datacase_crypto::hmac::{hmac_sha256, HmacSha256};
use datacase_sim::time::Ts;

/// One audit log record, as submitted to a logger: the chained mirror of
/// one action-history tuple, possibly with response content. A denial,
/// which changes nothing, is the one record with no tuple.
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
    /// A logger stores every record live, whatever this says.
    pub redacted: bool,
}

/// The unit field of a record that names no unit.
const NO_UNIT: u64 = u64::MAX;

/// A record as the log store holds it: no `Option` tag, no heap string
/// for the label, a payload allocation of exactly the bytes kept.
#[derive(Clone, Debug)]
pub(crate) struct Stored {
    seq: u64,
    pub(crate) at: Ts,
    unit: u64,
    entity: EntityId,
    purpose: PurposeId,
    op: &'static str,
    /// Set once the payload was redacted: a non-empty payload is then its
    /// own commitment.
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
            redacted: false,
            payload: rec.payload.into_boxed_slice(),
        }
    }
}

impl Stored {
    /// The history tuple the record mirrors, read off its facts: a record
    /// that names no unit is a tuple on `UnitId(u64::MAX)`. `None` for a
    /// label that names no action (a denial).
    pub(crate) fn tuple(&self) -> Option<HistoryTuple> {
        Some(HistoryTuple {
            unit: UnitId(self.unit),
            purpose: self.purpose,
            entity: self.entity,
            action: Action::from_label(self.op)?,
            at: self.at,
        })
    }

    /// Serialized size estimate (for space accounting and log costs).
    pub(crate) fn size(&self) -> usize {
        40 + self.op.len() + self.payload.len()
    }

    /// Stream the record's canonical bytes into a chain link's MAC: its
    /// facts, then its payload's commitment. A redacted payload already
    /// is its commitment; an empty one is never swapped.
    fn feed(&self, mac: &mut HmacSha256, chain: &HmacChain) {
        let purpose = self.purpose.name();
        mac.update(&self.seq.to_le_bytes());
        mac.update(&self.at.0.to_le_bytes());
        mac.update(&self.unit.to_le_bytes());
        mac.update(&self.entity.0.to_le_bytes());
        mac.update(&(purpose.len() as u32).to_le_bytes());
        mac.update(purpose.as_bytes());
        mac.update(self.op.as_bytes());
        if self.redacted && !self.payload.is_empty() {
            mac.update(&self.payload);
        } else {
            mac.update(&chain.commit(&self.payload));
        }
    }
}

/// An HMAC hash chain over log records: `mac_i = HMAC(key, mac_{i-1} ‖
/// facts_i ‖ c_i)`, where `c_i = HMAC(k_c, payload_i)` is a commitment
/// under a key derived from the chain key. An auditor holding the key can
/// verify that no record was altered or dropped — the "demonstrable
/// compliance" evidence of invariant IX — whether or not a payload has
/// since been redacted to its commitment. Without the key, a commitment
/// admits no test of a guessed payload.
#[derive(Clone, Debug)]
pub struct HmacChain {
    /// The chain key with both HMAC pads absorbed; cloned per link.
    key: HmacSha256,
    /// The commitment key, likewise primed.
    commit: HmacSha256,
    head: [u8; 32],
    links: u64,
}

impl HmacChain {
    /// A chain sealed under `key`.
    pub fn new(key: &[u8]) -> HmacChain {
        let key = datacase_crypto::sha256::Sha256::digest(key);
        HmacChain {
            key: HmacSha256::new(&key),
            commit: HmacSha256::new(&hmac_sha256(&key, b"datacase-audit-commitment")),
            head: [0u8; 32],
            links: 0,
        }
    }

    /// The keyed commitment to `payload`: what a link MACs in its place,
    /// and what redaction leaves behind.
    pub(crate) fn commit(&self, payload: &[u8]) -> [u8; 32] {
        let mut c = self.commit.clone();
        c.update(payload);
        c.finalize()
    }

    /// Extend the chain with a record.
    pub(crate) fn extend(&mut self, rec: &Stored) {
        let mut mac = self.key.clone();
        mac.update(&self.head);
        rec.feed(&mut mac, self);
        self.head = mac.finalize();
        self.links += 1;
    }

    /// The current head MAC.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Recompute the chain over `records` under the same key and compare
    /// with `self`'s head (auditor-side verification).
    pub(crate) fn verify<'a>(&self, records: impl Iterator<Item = &'a Stored>) -> bool {
        let mut fresh = HmacChain {
            key: self.key.clone(),
            commit: self.commit.clone(),
            head: [0u8; 32],
            links: 0,
        };
        for rec in records {
            fresh.extend(rec);
        }
        fresh.links == self.links && datacase_crypto::ct_eq(&fresh.head, &self.head)
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
        assert!(chain.verify(records.iter()));
    }

    #[test]
    fn chain_detects_tampering() {
        let mut records = vec![rec(1, b"a"), rec(2, b"b")];
        let chain = sealed(b"audit-key", &records);
        records[0].payload = b"ALTERED".to_vec().into();
        assert!(!chain.verify(records.iter()));
    }

    #[test]
    fn chain_detects_dropped_record() {
        let records = vec![rec(1, b"a"), rec(2, b"b")];
        let chain = sealed(b"audit-key", &records);
        assert!(!chain.verify(records[..1].iter()));
    }

    #[test]
    fn chain_depends_on_the_key() {
        let records = [rec(1, b"a")];
        assert_ne!(
            sealed(b"audit-key", &records).head(),
            sealed(b"other-key", &records).head()
        );
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
    fn redaction_keeps_the_chain() {
        let live = [rec(1, b"x"), rec(2, b"")];
        let chain = sealed(b"k", &live);
        let mut redacted = live.clone();
        for r in &mut redacted {
            if !r.payload.is_empty() {
                r.payload = Box::new(chain.commit(&r.payload));
            }
            r.redacted = true;
        }
        assert_eq!(sealed(b"k", &redacted).head(), chain.head());
        assert!(chain.verify(redacted.iter()));
    }

    #[test]
    fn a_commitment_is_keyed() {
        let a = sealed(b"k", &[]);
        let b = sealed(b"other-key", &[]);
        assert_ne!(a.commit(b"x"), b.commit(b"x"));
        assert_ne!(
            a.commit(b"x"),
            datacase_crypto::sha256::Sha256::digest(b"x")
        );
    }
}
