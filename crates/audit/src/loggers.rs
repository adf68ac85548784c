//! The audit log of the compliance profiles, in three formats.
//!
//! One [`AuditLog`] keeps its records in the packed stored form
//! ([`crate::record`]), each payload in an allocation of exactly the
//! bytes its [`LogFormat`] decided to keep, under one HMAC chain
//! ([`HmacChain`]) that redaction never touches. The format decides only
//! that encoding. `bytes()` is computed from what is stored, so what
//! Table 2 accounts is what the process holds.
//!
//! The records sit in fixed-capacity segments of 4,096 records
//! (about 288 KiB each) that are allocated once and never grow, so a
//! record never moves once written and a growing log never copies
//! itself into an array twice the size, which would leave the old one
//! behind as a resident hole in the allocator. The per-unit index is a
//! [`UnitMap`] of global record positions, a slot per dense unit id.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

use datacase_core::history::{History, HistoryTuple};
use datacase_core::ids::{UnitId, UnitMap};
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_crypto::CryptoBackend;
use datacase_sim::{Meter, SimClock};

use crate::record::{HmacChain, LogRecord, Stored};

/// Row cap for [`LogFormat::CsvRow`]: the payload bytes it keeps.
const CSV_ROW_CAP: usize = 48;

/// Records per segment of the store: 4,096 × 72 B = 288 KiB.
const SEGMENT: usize = 4096;

/// The stored records, in append order, in segments of [`SEGMENT`]
/// records: every segment but the last is full, and none reallocates.
/// A record is addressed by its global position, as in one array.
#[derive(Default)]
struct Records {
    segments: Vec<Vec<Stored>>,
}

impl Records {
    /// Append `rec`, opening a new segment when the last one is full.
    fn push(&mut self, rec: Stored) {
        match self.segments.last_mut() {
            Some(segment) if segment.len() < SEGMENT => segment.push(rec),
            _ => {
                let mut segment = Vec::with_capacity(SEGMENT);
                segment.push(rec);
                self.segments.push(segment);
            }
        }
    }

    /// Number of records.
    fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }

    /// The last record appended.
    fn last(&self) -> Option<&Stored> {
        self.segments.last()?.last()
    }

    /// The records in append order.
    fn iter(&self) -> impl Iterator<Item = &Stored> {
        self.segments.iter().flatten()
    }
}

impl Index<usize> for Records {
    type Output = Stored;

    fn index(&self, i: usize) -> &Stored {
        &self.segments[i / SEGMENT][i % SEGMENT]
    }
}

impl IndexMut<usize> for Records {
    fn index_mut(&mut self, i: usize) -> &mut Stored {
        &mut self.segments[i / SEGMENT][i % SEGMENT]
    }
}

/// What a record's payload becomes before it is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// P_Base: CSV row-level response logging. Keeps the first 48 bytes
    /// of the response row — cheap and small.
    CsvRow,
    /// P_GBench: "logging all queries and responses (no csv logs)": the
    /// synthesised query text plus the whole response.
    FullQuery,
    /// P_SYS: AES-128-CTR ciphertext, so scanning for plaintext finds
    /// nothing. The cipher is keyed by the first half of SHA-256 of the
    /// log's key. The IV holds a record's `seq` in bytes 0–7 and the
    /// log's engine `shard` in bytes 8–9, the top of the counter half:
    /// shards never share a keystream while a payload stays under 2^48
    /// blocks, and shard 0's IV is `iv_from_nonce(seq)`.
    Encrypted {
        /// The log's engine shard.
        shard: u16,
    },
}

/// The audit log: persists records, accounts bytes, stays tamper-evident,
/// and supports per-unit redaction.
pub struct AuditLog {
    format: LogFormat,
    /// The payload cipher, present iff `format` is encrypted.
    cipher: Option<AesCtr>,
    records: Records,
    /// unit → the positions of its records, a slot per dense unit id.
    by_unit: UnitMap<Vec<u32>>,
    bytes: u64,
    chain: HmacChain,
    clock: SimClock,
    meter: Arc<Meter>,
}

impl AuditLog {
    /// An empty log in `format`, its chain sealed under `key` (and an
    /// encrypted format's cipher derived from it), charging `clock` and
    /// `meter`.
    pub fn new(format: LogFormat, key: &[u8], clock: SimClock, meter: Arc<Meter>) -> AuditLog {
        let cipher = matches!(format, LogFormat::Encrypted { .. }).then(|| {
            let digest = datacase_crypto::sha256::Sha256::digest(key);
            AesCtr::from_key(KeySize::Aes128, &digest[..16])
        });
        AuditLog {
            format,
            cipher,
            records: Records::default(),
            by_unit: UnitMap::new(),
            bytes: 0,
            chain: HmacChain::new(key),
            clock,
            meter,
        }
    }

    /// Move an encrypted log's cipher onto `backend` (see
    /// [`AesCtr::with_backend`]): same ciphertext, other implementation.
    pub fn with_crypto_backend(mut self, backend: CryptoBackend) -> AuditLog {
        self.cipher = self.cipher.map(|c| c.with_backend(backend));
        self
    }

    /// Persist one record: encode its payload in the log's format, pay
    /// its simulated costs (log bytes, AES work — driven by the stored
    /// length, never the content), then commit it to the store and the
    /// tamper-evidence chain in call order.
    ///
    /// # Panics
    /// Panics if `rec.at` precedes the last record's time: the log is the
    /// action history, time-ordered evidence an audit reads in order.
    pub fn log(&mut self, mut rec: LogRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                last.at <= rec.at,
                "history must be time-ordered: {:?} after {:?}",
                rec.at,
                last.at
            );
        }
        match self.format {
            // Only a truncated response row is stored — copied out, so
            // that the caller's row buffer goes back to the allocator
            // whole. Shrinking it in place would pin every retained 48
            // bytes at the head of a hole one row wide that the next row
            // cannot fit.
            LogFormat::CsvRow if rec.payload.len() > CSV_ROW_CAP => {
                rec.payload = rec.payload[..CSV_ROW_CAP].to_vec();
            }
            LogFormat::CsvRow => {}
            LogFormat::FullQuery => {
                let query = query_text(&rec);
                let mut payload = Vec::with_capacity(query.len() + rec.payload.len());
                payload.extend_from_slice(query.as_bytes());
                payload.extend_from_slice(&rec.payload);
                rec.payload = payload;
            }
            LogFormat::Encrypted { shard } => {
                let cipher = self.cipher.as_ref().expect("`new` derives the cipher");
                let len = rec.payload.len();
                self.clock.charge(self.clock.model().aes_cost(128, len));
                Meter::bump(&self.meter.crypto_bytes, len as u64);
                let mut iv = AesCtr::iv_from_nonce(rec.seq);
                iv[8..10].copy_from_slice(&shard.to_be_bytes());
                // AES-CTR: ciphertext length equals plaintext length.
                cipher.apply(iv, &mut rec.payload);
            }
        }
        let unit = rec.unit;
        let rec = Stored::from(rec);
        let size = rec.size();
        self.clock.charge(self.clock.model().log_cost(size));
        Meter::bump(&self.meter.log_records, 1);
        Meter::bump(&self.meter.log_bytes, size as u64);
        self.bytes += size as u64;
        self.chain.extend(&rec);
        if let Some(unit) = unit {
            self.by_unit
                .get_or_insert_default(unit)
                .push(self.records.len() as u32);
        }
        self.records.push(rec);
    }

    /// The chain's current head MAC — a 32-byte digest two logs can be
    /// compared by. Redaction does not move it.
    pub fn chain_head(&self) -> [u8; 32] {
        self.chain.head()
    }

    /// Retained records.
    pub fn records(&self) -> usize {
        self.records.len()
    }

    /// Retained bytes (Table 2 metadata accounting).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Redact all records of `unit`: each non-empty payload becomes its
    /// 32-byte commitment, and the chain is left as it is. Returns how
    /// many records were redacted.
    pub fn redact_unit(&mut self, unit: UnitId) -> usize {
        let Some(positions) = self.by_unit.get(unit) else {
            return 0;
        };
        let mut n = 0;
        let mut touched = 0usize;
        for &i in positions {
            let r = &mut self.records[i as usize];
            if !r.redacted {
                touched += r.size();
                if !r.payload.is_empty() {
                    let c = self.chain.commit(&r.payload);
                    self.bytes = self.bytes + c.len() as u64 - r.payload.len() as u64;
                    r.payload = Box::new(c);
                }
                r.redacted = true;
                n += 1;
            }
        }
        if n > 0 {
            // Charge the indexed redaction: the unit's records only.
            self.clock.charge(self.clock.model().log_cost(touched));
        }
        n
    }

    /// Forensic scan of retained payloads: how many contain `needle`.
    pub fn scan(&self, needle: &[u8]) -> usize {
        if needle.is_empty() {
            return 0;
        }
        self.records
            .iter()
            .filter(|r| r.payload.windows(needle.len()).any(|w| w == needle))
            .count()
    }

    /// Verify the tamper-evidence chain (invariant IX's input): recompute
    /// it over the retained records and compare heads.
    pub fn verify_chain(&self) -> bool {
        self.chain.verify(self.records.iter())
    }

    /// The action history the retained records mirror, read off the
    /// chain's records: what the compliance checker audits. Redacted
    /// records keep their facts, so they still project; denials project
    /// nothing.
    pub fn history(&self) -> &dyn History {
        self
    }
}

/// The history as a view of the stored records: `H(X)` reads the
/// per-unit index, so nothing is materialised beyond the tuples asked for.
impl History for AuditLog {
    fn tuples(&self) -> Box<dyn Iterator<Item = HistoryTuple> + '_> {
        Box::new(self.records.iter().filter_map(Stored::tuple))
    }

    fn of_unit(&self, unit: UnitId) -> Vec<HistoryTuple> {
        let positions = self.by_unit.get(unit).map_or(&[][..], Vec::as_slice);
        positions
            .iter()
            .filter_map(|&i| self.records[i as usize].tuple())
            .collect()
    }
}

/// The query text [`LogFormat::FullQuery`] synthesises for a record; a
/// record that names no unit renders as `unit=-` (unit ids start at 0).
fn query_text(rec: &LogRecord) -> String {
    let (op, purpose, entity) = (rec.op, rec.purpose, rec.entity);
    match rec.unit {
        Some(unit) => format!("{op} unit={} purpose={purpose} entity={entity};", unit.0),
        None => format!("{op} unit=- purpose={purpose} entity={entity};"),
    }
}

/// The former logger trait, cut to `log`; ROADMAP item 25 deletes it.
pub trait AuditLogger {
    /// See [`AuditLog::log`].
    fn log(&mut self, rec: LogRecord);
}

impl AuditLogger for AuditLog {
    fn log(&mut self, rec: LogRecord) {
        AuditLog::log(self, rec);
    }
}

/// The former CSV logger's name; ROADMAP item 25 deletes it.
pub struct CsvRowLogger;
/// The former query logger's name; ROADMAP item 25 deletes it.
pub struct FullQueryLogger;
/// The former encrypted logger's name; ROADMAP item 25 deletes it.
pub struct EncryptedLogger;

#[allow(clippy::new_ret_no_self)] // A bridge: `new` builds an `AuditLog`.
impl CsvRowLogger {
    /// A [`LogFormat::CsvRow`] log.
    pub fn new(key: &[u8], clock: SimClock, meter: Arc<Meter>) -> AuditLog {
        AuditLog::new(LogFormat::CsvRow, key, clock, meter)
    }
}

#[allow(clippy::new_ret_no_self)]
impl FullQueryLogger {
    /// A [`LogFormat::FullQuery`] log.
    pub fn new(key: &[u8], clock: SimClock, meter: Arc<Meter>) -> AuditLog {
        AuditLog::new(LogFormat::FullQuery, key, clock, meter)
    }
}

#[allow(clippy::new_ret_no_self)]
impl EncryptedLogger {
    /// A shard-0 [`LogFormat::Encrypted`] log.
    pub fn new(key: &[u8], clock: SimClock, meter: Arc<Meter>) -> AuditLog {
        AuditLog::new(LogFormat::Encrypted { shard: 0 }, key, clock, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::action::Action;
    use datacase_core::grounding::erasure::ErasureInterpretation;
    use datacase_core::ids::EntityId;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::time::Ts;

    fn rec(seq: u64, unit: u64, payload: &[u8]) -> LogRecord {
        LogRecord {
            seq,
            at: Ts::from_secs(seq),
            unit: Some(UnitId(unit)),
            entity: EntityId(1),
            purpose: wk::billing(),
            op: "read",
            payload: payload.to_vec(),
            redacted: false,
        }
    }

    /// The three formats, named, each over its own log.
    fn logs() -> Vec<(&'static str, AuditLog)> {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let log = |format| AuditLog::new(format, b"k", clock.clone(), meter.clone());
        vec![
            ("csv", log(LogFormat::CsvRow)),
            ("full", log(LogFormat::FullQuery)),
            ("enc", log(LogFormat::Encrypted { shard: 0 })),
        ]
    }

    fn csv() -> AuditLog {
        AuditLog::new(
            LogFormat::CsvRow,
            b"k",
            SimClock::commodity(),
            Arc::new(Meter::new()),
        )
    }

    /// Five records over two units and a unit-less one, five labels, an
    /// empty payload and one over the CSV row cap.
    fn golden_sequence() -> Vec<LogRecord> {
        fn r(
            seq: u64,
            unit: Option<u64>,
            entity: u32,
            purpose: datacase_core::purpose::PurposeId,
            op: &'static str,
            payload: &[u8],
        ) -> LogRecord {
            LogRecord {
                seq,
                at: Ts::from_secs(seq),
                unit: unit.map(UnitId),
                entity: EntityId(entity),
                purpose,
                op,
                payload: payload.to_vec(),
                redacted: false,
            }
        }
        let row: Vec<u8> = (0..100u8).collect();
        vec![
            r(1, Some(7), 1, wk::billing(), "INSERT", b"unit7-first-row"),
            r(2, Some(8), 2, wk::subject_access(), "SELECT", &row),
            r(3, None, 0, wk::audit(), "DENIED", b""),
            r(4, Some(7), 1, wk::billing(), "UPDATE", b"unit7-second"),
            r(5, Some(8), 3, wk::retention(), "read", b"x"),
        ]
    }

    #[test]
    fn golden_chain_heads() {
        // Heads and retained bytes of this sequence with unit 7 redacted:
        // one chained byte moving in any backend — a field's width, the
        // unit-less sentinel, the commitment key's label, the pads —
        // changes a hex string here. Recomputed once, when links began to
        // MAC a payload's commitment instead of the payload and redaction
        // began to keep the 32-byte commitment (2 x 32 B more per format).
        let golden = [
            (
                "daf143f27d158b4b2650fe03650317791401770d243783d0af38270a21452de2",
                341,
            ),
            (
                "5c94f566d2da2e701d741fc06280849ba7a1248480e4ee864f3b2d600e38f5d2",
                518,
            ),
            (
                "a32ec9a6144777e6a155af820adc10f6edf4bf39b231f8a24699868cde70c47f",
                393,
            ),
        ];
        for ((name, mut b), (head, bytes)) in logs().into_iter().zip(golden) {
            for rec in golden_sequence() {
                b.log(rec);
            }
            let before = b.chain_head();
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{name}");
            assert_eq!(b.chain_head(), before, "{name}");
            assert_eq!(
                datacase_crypto::sha256::to_hex(&b.chain_head()),
                head,
                "{name}"
            );
            assert_eq!(b.bytes(), bytes, "{name}");
            assert!(b.verify_chain(), "{name}");
        }
    }

    #[test]
    fn tampering_before_an_erase_is_still_caught() {
        // Unit 8's first record is altered in the store, then unit 7 is
        // erased: the erase must not absorb the forgery into the chain.
        for (name, mut b) in logs() {
            for rec in golden_sequence() {
                b.log(rec);
            }
            b.records[1].payload[0] ^= 1;
            assert!(!b.verify_chain(), "{name}");
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{name}");
            assert!(!b.verify_chain(), "{name}: erase hid the forgery");
        }
    }

    #[test]
    fn a_head_from_before_a_redaction_still_heads_its_prefix() {
        for (name, mut b) in logs() {
            let records = golden_sequence();
            let (prefix, rest) = records.split_at(3);
            for rec in prefix {
                b.log(rec.clone());
            }
            let head = b.chain_head();
            for rec in rest {
                b.log(rec.clone());
            }
            b.redact_unit(UnitId(7));
            b.redact_unit(UnitId(8));
            let mut chain = HmacChain::new(b"k");
            for rec in b.records.iter().take(3) {
                chain.extend(rec);
            }
            assert_eq!(chain.head(), head, "{name}");
            assert!(b.verify_chain(), "{name}");
        }
    }

    #[test]
    fn redaction_keeps_bytes_the_sum_of_record_sizes() {
        // Short and empty payloads: a commitment is longer than the first
        // and is never swapped in for the second.
        for (name, mut b) in logs() {
            b.log(rec(1, 7, b"short"));
            b.log(rec(2, 7, b""));
            b.log(rec(3, 8, b"another payload"));
            b.redact_unit(UnitId(7));
            let sizes: usize = b.records.iter().map(Stored::size).sum();
            assert_eq!(b.bytes, sizes as u64, "{name}");
            // The query log stores query text even for an empty response.
            let kept = if name == "full" { [32, 32] } else { [32, 0] };
            assert_eq!(b.records[0].payload.len(), kept[0], "{name}");
            assert_eq!(b.records[1].payload.len(), kept[1], "{name}");
            assert!(b.verify_chain(), "{name}");
        }
    }

    #[test]
    fn all_backends_log_and_verify() {
        for (name, mut b) in logs() {
            b.log(rec(1, 1, b"payload-a"));
            b.log(rec(2, 2, b"payload-b"));
            assert_eq!(b.records(), 2, "{name}");
            assert!(b.bytes() > 0);
            assert!(b.verify_chain(), "{name}");
        }
    }

    #[test]
    fn full_query_logs_more_bytes_than_csv() {
        let [(_, mut csv), (_, mut full), _] = logs().try_into().ok().unwrap();
        let payload = vec![7u8; 100];
        csv.log(rec(1, 1, &payload));
        full.log(rec(1, 1, &payload));
        assert!(
            full.bytes() > csv.bytes(),
            "full {} vs csv {}",
            full.bytes(),
            csv.bytes()
        );
    }

    #[test]
    fn encrypted_log_hides_plaintext() {
        let [(_, mut csv), _, (_, mut enc)] = logs().try_into().ok().unwrap();
        enc.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        csv.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        assert_eq!(enc.scan(b"SECRET-PII"), 0, "ciphertext at rest");
        assert_eq!(csv.scan(b"SECRET-PII"), 1, "csv keeps plaintext");
    }

    #[test]
    fn shards_never_share_a_keystream() {
        // Two engine shards number their records alike: the same seq on
        // shard 0 and shard 1 must not be encrypted under the same
        // keystream, or one shard's ciphertext XOR the other's would
        // equal the plaintexts' XOR. Shard 0 keeps the unsharded IV.
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let log = |shard| {
            let format = LogFormat::Encrypted { shard };
            AuditLog::new(format, b"k", clock.clone(), meter.clone())
        };
        let (mut a, mut b) = (log(0), log(1));
        let (pa, pb) = (b"tenant A's row".to_vec(), b"tenant B's row".to_vec());
        a.log(rec(8, 1, &pa));
        b.log(rec(8, 1, &pb));
        let xor = |x: &[u8], y: &[u8]| -> Vec<u8> { x.iter().zip(y).map(|(x, y)| x ^ y).collect() };
        let (ca, cb) = (&a.records[0].payload, &b.records[0].payload);
        assert_ne!(xor(ca, cb), xor(&pa, &pb), "shared keystream");
        let mut unsharded = pa.clone();
        let digest = datacase_crypto::sha256::Sha256::digest(b"k");
        AesCtr::from_key(KeySize::Aes128, &digest[..16])
            .apply(AesCtr::iv_from_nonce(8), &mut unsharded);
        assert_eq!(**ca, *unsharded, "shard 0's IV is unchanged");
    }

    #[test]
    fn the_former_names_build_the_same_logs() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut bridged = [
            CsvRowLogger::new(b"k", clock.clone(), meter.clone()),
            FullQueryLogger::new(b"k", clock.clone(), meter.clone()),
            EncryptedLogger::new(b"k", clock, meter),
        ];
        for ((name, mut direct), bridged) in logs().into_iter().zip(&mut bridged) {
            direct.log(rec(1, 1, b"payload"));
            let boxed: &mut dyn AuditLogger = bridged;
            boxed.log(rec(1, 1, b"payload"));
            assert_eq!(direct.chain_head(), bridged.chain_head(), "{name}");
            assert_eq!(
                direct.records[0].payload, bridged.records[0].payload,
                "{name}"
            );
        }
    }

    #[test]
    fn redact_unit_hides_payloads_and_keeps_the_chain() {
        for (name, mut b) in logs() {
            b.log(rec(1, 7, b"unit7-first"));
            b.log(rec(2, 8, b"unit8-data"));
            b.log(rec(3, 7, b"unit7-second"));
            let n = b.redact_unit(UnitId(7));
            assert_eq!(n, 2, "{name}");
            assert_eq!(b.scan(b"unit7"), 0, "{name}");
            assert!(b.verify_chain(), "{name}");
            assert_eq!(b.records(), 3, "records preserved, payloads committed");
        }
    }

    #[test]
    fn history_projects_each_action_record_by_unit_and_time() {
        let labelled = |seq: u64, unit: Option<u64>, op: &'static str| LogRecord {
            unit: unit.map(UnitId),
            op,
            ..rec(seq, 0, b"payload")
        };
        for (name, mut b) in logs() {
            b.log(labelled(1, Some(7), "INSERT"));
            b.log(labelled(2, Some(8), "SELECT"));
            b.log(labelled(3, Some(7), "DENIED"));
            b.log(labelled(4, None, "assess"));
            b.log(labelled(5, Some(7), "DELETE"));
            b.redact_unit(UnitId(7));
            let history = b.history();
            let seen: Vec<(UnitId, Action, u64)> = history
                .tuples()
                .map(|t| (t.unit, t.action, t.at.0 / Ts::from_secs(1).0))
                .collect();
            let deleted = Action::Erase(ErasureInterpretation::Deleted);
            assert_eq!(
                seen,
                [
                    (UnitId(7), Action::Create, 1),
                    (UnitId(8), Action::Read, 2),
                    (UnitId(u64::MAX), Action::Assess, 4),
                    (UnitId(7), deleted, 5),
                ],
                "{name}: redacted records project, the denial does not"
            );
            let of_seven: Vec<(Action, Ts)> = history
                .of_unit(UnitId(7))
                .into_iter()
                .map(|t| (t.action, t.at))
                .collect();
            assert_eq!(
                of_seven,
                [
                    (Action::Create, Ts::from_secs(1)),
                    (deleted, Ts::from_secs(5))
                ],
                "{name}"
            );
            assert!(history.of_unit(UnitId(9)).is_empty());
        }
    }

    #[test]
    fn a_stored_record_never_moves() {
        // A `Vec` of records would have reallocated a dozen times over
        // these appends, leaving each old array behind as a hole.
        let mut b = csv();
        b.log(rec(0, 0, b"first"));
        let first: *const Stored = &b.records[0];
        for seq in 1..=10_000 {
            b.log(rec(seq, seq % 97, b"payload"));
        }
        assert_eq!(b.records(), 10_001);
        assert!(std::ptr::eq(first, &b.records[0]), "record 0 moved");
        assert_eq!(b.records.segments.len(), 10_001usize.div_ceil(SEGMENT));
        assert!(b.records.segments.iter().all(|s| s.capacity() == SEGMENT));
    }

    #[test]
    fn a_unit_straddling_two_segments_redacts_projects_and_verifies() {
        // Unit 7's records sit at positions 4,095 and 4,096: the last slot
        // of the first segment and the first slot of the second.
        assert_eq!(SEGMENT, 4096);
        for (name, mut b) in logs() {
            for seq in 0..4095 {
                b.log(rec(seq, 1 + seq % 5, b"filler"));
            }
            let select = |seq, payload: &[u8]| LogRecord {
                op: "SELECT",
                ..rec(seq, 7, payload)
            };
            b.log(select(4095, b"unit7-before"));
            b.log(select(4096, b"unit7-after"));
            b.log(rec(4097, 8, b"unit8-data"));
            assert_eq!(b.records(), 4098, "{name}");
            assert!(std::ptr::eq(b.records.last().unwrap(), &b.records[4097]));
            let of_seven: Vec<Ts> = b
                .history()
                .of_unit(UnitId(7))
                .iter()
                .map(|t| t.at)
                .collect();
            assert_eq!(of_seven, [4095, 4096].map(Ts::from_secs), "{name}");
            let before = b.chain_head();
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{name}");
            assert_eq!(b.scan(b"unit7"), 0, "{name}");
            assert!(
                b.records[4095].redacted && b.records[4096].redacted,
                "{name}"
            );
            assert!(
                !b.records[4094].redacted && !b.records[4097].redacted,
                "{name}"
            );
            assert_eq!(
                b.history().of_unit(UnitId(7)).len(),
                2,
                "{name}: facts kept"
            );
            assert_eq!(b.chain_head(), before, "{name}");
            assert!(b.verify_chain(), "{name}");
            b.records[4096].payload[0] ^= 1;
            assert!(!b.verify_chain(), "{name}: tampering past the seam");
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_append_panics() {
        let mut b = csv();
        b.log(rec(5, 1, b"later"));
        b.log(rec(4, 1, b"earlier"));
    }

    #[test]
    fn csv_truncates_row_payloads() {
        let mut csv = csv();
        csv.log(rec(1, 1, &vec![9u8; 500]));
        assert!(csv.bytes() < 200, "row-level keeps it compact");
    }

    #[test]
    fn stored_records_own_exactly_what_they_account() {
        // A read hands the log the whole decrypted row; what the store
        // retains per record is the bytes it charged for — a boxed slice
        // has no spare capacity to hide the rest of the row in.
        let row = vec![9u8; 1024];
        let query = query_text(&rec(1, 1, &row)).len();
        let kept = [CSV_ROW_CAP, query + 1024, 1024];
        for ((name, mut b), kept) in logs().into_iter().zip(kept) {
            b.log(rec(1, 1, &row));
            assert_eq!(b.records[0].payload.len(), kept, "{name}");
            assert_eq!(b.bytes, (40 + "read".len() + kept) as u64, "{name}");
        }
    }

    #[test]
    fn chain_head_distinguishes_diverging_logs() {
        let (mut a, mut b) = (csv(), csv());
        a.log(rec(1, 1, b"same"));
        b.log(rec(1, 1, b"same"));
        assert_eq!(a.chain_head(), b.chain_head());
        b.log(rec(2, 1, b"extra"));
        assert_ne!(a.chain_head(), b.chain_head());
    }

    #[test]
    fn logging_charges_cost_and_meter() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut b = AuditLog::new(LogFormat::CsvRow, b"k", clock.clone(), meter.clone());
        let t0 = clock.now();
        b.log(rec(1, 1, b"x"));
        assert!(clock.now() > t0);
        assert_eq!(meter.snapshot().log_records, 1);
    }
}
