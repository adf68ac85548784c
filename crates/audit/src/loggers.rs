//! The three logging backends of the compliance profiles.
//!
//! Every backend keeps its records in one `LogCore`: a `Vec` of the
//! packed stored form ([`crate::record`]) — a record's facts once, its
//! payload in an allocation of exactly the bytes the backend decided to
//! keep (the truncated row, the query text plus response, the ciphertext)
//! — under one HMAC chain. `bytes()` is computed from what is stored, so
//! what Table 2 accounts is what the process holds.
//!
//! The chain only grows. A link commits to a payload instead of holding
//! it ([`HmacChain`]), so redaction swaps payloads for their commitments
//! without touching a link, and a head handed out before an erase still
//! heads the same records after it.

use datacase_core::history::{History, HistoryTuple};
use datacase_core::ids::UnitId;
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_sim::{Meter, SimClock};

use crate::record::{HmacChain, LogRecord, Stored};

/// A logging backend: persists records, accounts bytes, stays
/// tamper-evident, and supports per-unit redaction.
pub trait AuditLogger: Send {
    /// Persist one record: pay its simulated costs (log bytes, AES work —
    /// driven by the stored length, never the content), then commit it to
    /// the store and the tamper-evidence chain in call order.
    fn log(&mut self, rec: LogRecord);

    /// The chain's current head MAC — a 32-byte digest two logs can be
    /// compared by. Redaction does not move it.
    fn chain_head(&self) -> [u8; 32];

    /// Retained records.
    fn records(&self) -> usize;

    /// Retained bytes (Table 2 metadata accounting).
    fn bytes(&self) -> u64;

    /// Redact all records of `unit`: each non-empty payload becomes its
    /// 32-byte commitment, and the chain is left as it is. Returns how
    /// many records were redacted.
    fn redact_unit(&mut self, unit: UnitId) -> usize;

    /// Forensic scan of retained payloads.
    fn scan(&self, needle: &[u8]) -> usize;

    /// Verify the tamper-evidence chain (invariant IX's input): recompute
    /// it over the retained records and compare heads.
    fn verify_chain(&self) -> bool;

    /// The action history the retained records mirror, read off the
    /// chain's records: what the compliance checker audits. Redacted
    /// records keep their facts, so they still project; denials project
    /// nothing.
    fn history(&self) -> &dyn History;
}

/// Shared storage + chain logic for the backends.
struct LogCore {
    records: Vec<Stored>,
    by_unit: std::collections::HashMap<UnitId, Vec<u32>>,
    bytes: u64,
    chain: HmacChain,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl LogCore {
    fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> LogCore {
        LogCore {
            records: Vec::new(),
            by_unit: std::collections::HashMap::new(),
            bytes: 0,
            chain: HmacChain::new(key),
            clock,
            meter,
        }
    }

    /// Pay for `rec` as stored (clock + meter + space accounting), then
    /// commit it to the store and the chain.
    ///
    /// # Panics
    /// Panics if `rec.at` precedes the last record's time: the log is the
    /// action history, time-ordered evidence an audit reads in order.
    fn append(&mut self, rec: LogRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                last.at <= rec.at,
                "history must be time-ordered: {:?} after {:?}",
                rec.at,
                last.at
            );
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
                .entry(unit)
                .or_default()
                .push(self.records.len() as u32);
        }
        self.records.push(rec);
    }

    fn redact_unit(&mut self, unit: UnitId) -> usize {
        let Some(positions) = self.by_unit.get(&unit) else {
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

    fn scan(&self, needle: &[u8]) -> usize {
        if needle.is_empty() {
            return 0;
        }
        self.records
            .iter()
            .filter(|r| r.payload.windows(needle.len()).any(|w| w == needle))
            .count()
    }

    fn verify(&self) -> bool {
        self.chain.verify(self.records.iter())
    }
}

/// The history as a view of the stored records: `H(X)` reads the
/// per-unit index, so nothing is materialised beyond the tuples asked for.
impl History for LogCore {
    fn tuples(&self) -> Box<dyn Iterator<Item = HistoryTuple> + '_> {
        Box::new(self.records.iter().filter_map(Stored::tuple))
    }

    fn of_unit(&self, unit: UnitId) -> Vec<HistoryTuple> {
        let positions = self.by_unit.get(&unit).map_or(&[][..], Vec::as_slice);
        positions
            .iter()
            .filter_map(|&i| self.records[i as usize].tuple())
            .collect()
    }
}

/// Row cap for [`CsvRowLogger`]: only this many payload bytes are kept.
const CSV_ROW_CAP: usize = 48;

/// P_Base: CSV row-level response logging. Stores a compact row rendering
/// of the response — cheap and small.
pub struct CsvRowLogger {
    core: LogCore,
}

impl CsvRowLogger {
    /// A fresh CSV logger.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> CsvRowLogger {
        CsvRowLogger {
            core: LogCore::new(key, clock, meter),
        }
    }
}

impl AuditLogger for CsvRowLogger {
    fn log(&mut self, mut rec: LogRecord) {
        // Row-level: only a truncated response row is stored — copied
        // out, so that the caller's row buffer goes back to the allocator
        // whole. Shrinking it in place would pin every retained 48 bytes
        // at the head of a hole one row wide that the next row cannot fit.
        if rec.payload.len() > CSV_ROW_CAP {
            rec.payload = rec.payload[..CSV_ROW_CAP].to_vec();
        }
        self.core.append(rec);
    }

    fn chain_head(&self) -> [u8; 32] {
        self.core.chain.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&self) -> bool {
        self.core.verify()
    }
    fn history(&self) -> &dyn History {
        &self.core
    }
}

/// The query text [`FullQueryLogger`] synthesises for a record; a record
/// that names no unit renders as `unit=-` (unit ids start at 0).
fn query_text(rec: &LogRecord) -> String {
    let (op, purpose, entity) = (rec.op, rec.purpose, rec.entity);
    match rec.unit {
        Some(unit) => format!("{op} unit={} purpose={purpose} entity={entity};", unit.0),
        None => format!("{op} unit=- purpose={purpose} entity={entity};"),
    }
}

/// P_GBench: full query + response logging ("logging all queries and
/// responses (no csv logs)"). Keeps the whole payload plus the query text,
/// so it is strictly chattier than row-level CSV.
pub struct FullQueryLogger {
    core: LogCore,
}

impl FullQueryLogger {
    /// A fresh full-query logger.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> FullQueryLogger {
        FullQueryLogger {
            core: LogCore::new(key, clock, meter),
        }
    }
}

impl AuditLogger for FullQueryLogger {
    fn log(&mut self, mut rec: LogRecord) {
        // The stored payload is the synthesised query text plus the
        // response payload.
        let query = query_text(&rec);
        let mut payload = Vec::with_capacity(query.len() + rec.payload.len());
        payload.extend_from_slice(query.as_bytes());
        payload.extend_from_slice(&rec.payload);
        rec.payload = payload;
        self.core.append(rec);
    }

    fn chain_head(&self) -> [u8; 32] {
        self.core.chain.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&self) -> bool {
        self.core.verify()
    }
    fn history(&self) -> &dyn History {
        &self.core
    }
}

/// P_SYS: encrypted logging (AES-128) with per-unit deletion. Payloads are
/// stored as ciphertext; scanning for plaintext finds nothing, and erasing
/// a unit redacts its records. The cipher schedule is expanded once at
/// construction.
pub struct EncryptedLogger {
    core: LogCore,
    cipher: AesCtr,
}

impl EncryptedLogger {
    /// A fresh encrypted logger (AES-128, as P_SYS specifies), deriving
    /// its payload key by hashing `key`; `key` also seals the chain.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> EncryptedLogger {
        let digest = datacase_crypto::sha256::Sha256::digest(key);
        EncryptedLogger {
            cipher: AesCtr::from_key(KeySize::Aes128, &digest[..16]),
            core: LogCore::new(key, clock, meter),
        }
    }

    /// Move the payload cipher onto `backend` (see
    /// [`AesCtr::with_backend`]) — per-logger. Ciphertext bytes are
    /// unchanged, only the implementation that produces them.
    pub fn with_crypto_backend(
        mut self,
        backend: datacase_crypto::CryptoBackend,
    ) -> EncryptedLogger {
        self.cipher = self.cipher.with_backend(backend);
        self
    }
}

impl AuditLogger for EncryptedLogger {
    fn log(&mut self, mut rec: LogRecord) {
        let payload_len = rec.payload.len();
        self.core
            .clock
            .charge(self.core.clock.model().aes_cost(128, payload_len));
        Meter::bump(&self.core.meter.crypto_bytes, payload_len as u64);
        // AES-CTR: ciphertext length equals plaintext length.
        self.cipher
            .apply(AesCtr::iv_from_nonce(rec.seq), &mut rec.payload);
        self.core.append(rec);
    }

    fn chain_head(&self) -> [u8; 32] {
        self.core.chain.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&self) -> bool {
        self.core.verify()
    }
    fn history(&self) -> &dyn History {
        &self.core
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
    use std::sync::Arc;

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

    /// A logger the tests can name and reach into, as a forger with
    /// write access to the store could.
    trait Format: AuditLogger {
        fn name(&self) -> &'static str;
        fn core(&mut self) -> &mut LogCore;
    }

    macro_rules! format {
        ($logger:ty, $name:literal) => {
            impl Format for $logger {
                fn name(&self) -> &'static str {
                    $name
                }
                fn core(&mut self) -> &mut LogCore {
                    &mut self.core
                }
            }
        };
    }
    format!(CsvRowLogger, "csv");
    format!(FullQueryLogger, "full");
    format!(EncryptedLogger, "enc");

    fn backends() -> Vec<Box<dyn Format>> {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        vec![
            Box::new(CsvRowLogger::new(b"k", clock.clone(), meter.clone())),
            Box::new(FullQueryLogger::new(b"k", clock.clone(), meter.clone())),
            Box::new(EncryptedLogger::new(b"k", clock, meter)),
        ]
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
        for (mut b, (head, bytes)) in backends().into_iter().zip(golden) {
            for rec in golden_sequence() {
                b.log(rec);
            }
            let before = b.chain_head();
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{}", b.name());
            assert_eq!(b.chain_head(), before, "{}", b.name());
            assert_eq!(
                datacase_crypto::sha256::to_hex(&b.chain_head()),
                head,
                "{}",
                b.name()
            );
            assert_eq!(b.bytes(), bytes, "{}", b.name());
            assert!(b.verify_chain(), "{}", b.name());
        }
    }

    #[test]
    fn tampering_before_an_erase_is_still_caught() {
        // Unit 8's first record is altered in the store, then unit 7 is
        // erased: the erase must not absorb the forgery into the chain.
        for mut b in backends() {
            for rec in golden_sequence() {
                b.log(rec);
            }
            b.core().records[1].payload[0] ^= 1;
            assert!(!b.verify_chain(), "{}", b.name());
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{}", b.name());
            assert!(!b.verify_chain(), "{}: erase hid the forgery", b.name());
        }
    }

    #[test]
    fn a_head_from_before_a_redaction_still_heads_its_prefix() {
        for mut b in backends() {
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
            for rec in &b.core().records[..3] {
                chain.extend(rec);
            }
            assert_eq!(chain.head(), head, "{}", b.name());
            assert!(b.verify_chain(), "{}", b.name());
        }
    }

    #[test]
    fn redaction_keeps_bytes_the_sum_of_record_sizes() {
        // Short and empty payloads: a commitment is longer than the first
        // and is never swapped in for the second.
        for mut b in backends() {
            b.log(rec(1, 7, b"short"));
            b.log(rec(2, 7, b""));
            b.log(rec(3, 8, b"another payload"));
            b.redact_unit(UnitId(7));
            let name = b.name();
            let core = b.core();
            let sizes: usize = core.records.iter().map(Stored::size).sum();
            assert_eq!(core.bytes, sizes as u64, "{name}");
            // The query log stores query text even for an empty response.
            let kept = if name == "full" { [32, 32] } else { [32, 0] };
            assert_eq!(core.records[0].payload.len(), kept[0], "{name}");
            assert_eq!(core.records[1].payload.len(), kept[1], "{name}");
            assert!(b.verify_chain(), "{name}");
        }
    }

    #[test]
    fn all_backends_log_and_verify() {
        for mut b in backends() {
            b.log(rec(1, 1, b"payload-a"));
            b.log(rec(2, 2, b"payload-b"));
            assert_eq!(b.records(), 2, "{}", b.name());
            assert!(b.bytes() > 0);
            assert!(b.verify_chain(), "{}", b.name());
        }
    }

    #[test]
    fn full_query_logs_more_bytes_than_csv() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut csv = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let mut full = FullQueryLogger::new(b"k", clock, meter);
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
    fn encrypted_logger_hides_plaintext() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut enc = EncryptedLogger::new(b"k", clock.clone(), meter.clone());
        let mut csv = CsvRowLogger::new(b"k", clock, meter);
        enc.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        csv.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        assert_eq!(enc.scan(b"SECRET-PII"), 0, "ciphertext at rest");
        assert_eq!(csv.scan(b"SECRET-PII"), 1, "csv keeps plaintext");
    }

    #[test]
    fn redact_unit_hides_payloads_and_keeps_the_chain() {
        for mut b in backends() {
            b.log(rec(1, 7, b"unit7-first"));
            b.log(rec(2, 8, b"unit8-data"));
            b.log(rec(3, 7, b"unit7-second"));
            let n = b.redact_unit(UnitId(7));
            assert_eq!(n, 2, "{}", b.name());
            assert_eq!(b.scan(b"unit7"), 0, "{}", b.name());
            assert!(b.verify_chain(), "{}", b.name());
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
        for mut b in backends() {
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
                "{}: redacted records project, the denial does not",
                b.name()
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
                "{}",
                b.name()
            );
            assert!(history.of_unit(UnitId(9)).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_append_panics() {
        let mut b = CsvRowLogger::new(b"k", SimClock::commodity(), Arc::new(Meter::new()));
        b.log(rec(5, 1, b"later"));
        b.log(rec(4, 1, b"earlier"));
    }

    #[test]
    fn csv_truncates_row_payloads() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut csv = CsvRowLogger::new(b"k", clock, meter);
        csv.log(rec(1, 1, &vec![9u8; 500]));
        assert!(csv.bytes() < 200, "row-level keeps it compact");
    }

    #[test]
    fn stored_records_own_exactly_what_they_account() {
        // A read hands the logger the whole decrypted row; what the store
        // retains per record is the bytes it charged for — a boxed slice
        // has no spare capacity to hide the rest of the row in.
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let row = vec![9u8; 1024];
        let mut csv = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let mut full = FullQueryLogger::new(b"k", clock.clone(), meter.clone());
        let mut enc = EncryptedLogger::new(b"k", clock, meter);
        csv.log(rec(1, 1, &row));
        full.log(rec(1, 1, &row));
        enc.log(rec(1, 1, &row));
        let query = query_text(&rec(1, 1, &row)).len();
        for (name, core, kept) in [
            ("csv", &csv.core, CSV_ROW_CAP),
            ("full", &full.core, query + 1024),
            ("enc", &enc.core, 1024),
        ] {
            assert_eq!(core.records[0].payload.len(), kept, "{name}");
            assert_eq!(core.bytes, (40 + "read".len() + kept) as u64, "{name}");
        }
    }

    #[test]
    fn chain_head_distinguishes_diverging_logs() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut a = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let mut b = CsvRowLogger::new(b"k", clock, meter);
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
        let mut b = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let t0 = clock.now();
        b.log(rec(1, 1, b"x"));
        assert!(clock.now() > t0);
        assert_eq!(meter.snapshot().log_records, 1);
    }
}
