//! The three logging backends of the compliance profiles.
//!
//! Every backend keeps its records in one `LogCore`: a `Vec` of the
//! packed stored form ([`crate::record`]) — a record's facts once, its
//! payload in an allocation of exactly the bytes the backend decided to
//! keep (the truncated row, the query text plus response, the ciphertext)
//! — under one HMAC chain. `bytes()` is computed from what is stored, so
//! what Table 2 accounts is what the process holds.

use datacase_core::ids::UnitId;
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_sim::{Meter, SimClock};

use crate::record::{HmacChain, LogRecord, Stored};

/// A logging backend: persists records, accounts bytes, stays
/// tamper-evident, and supports per-unit redaction.
pub trait AuditLogger: Send {
    /// Backend display name.
    fn name(&self) -> &'static str;

    /// Persist one record: pay its simulated costs (log bytes, AES work —
    /// driven by the stored length, never the content), then commit it to
    /// the store and the tamper-evidence chain in call order.
    fn log(&mut self, rec: LogRecord);

    /// The chain's current head MAC, resealing pending redactions first —
    /// a 32-byte digest two logs can be compared by.
    fn chain_head(&mut self) -> [u8; 32];

    /// Retained records.
    fn records(&self) -> usize;

    /// Retained bytes (Table 2 metadata accounting).
    fn bytes(&self) -> u64;

    /// Redact all records of `unit` (zero payloads, reseal the chain).
    /// Returns how many records were redacted.
    fn redact_unit(&mut self, unit: UnitId) -> usize;

    /// Forensic scan of retained payloads.
    fn scan(&self, needle: &[u8]) -> usize;

    /// Verify the tamper-evidence chain (invariant IX's input). Reseals
    /// any batched redactions first (an audit-time operation).
    fn verify_chain(&mut self) -> bool;
}

/// Shared storage + chain logic for the backends.
///
/// Redaction marks the chain *dirty* instead of resealing
/// immediately: like real audit systems, redactions batch and the chain is
/// resealed once, when the next verification (or audit export) happens.
/// Without this, per-delete redaction would re-MAC the whole log —
/// quadratic work under delete-heavy workloads.
struct LogCore {
    records: Vec<Stored>,
    by_unit: std::collections::HashMap<UnitId, Vec<u32>>,
    bytes: u64,
    chain: HmacChain,
    chain_key: Vec<u8>,
    chain_dirty: bool,
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
            chain_key: key.to_vec(),
            chain_dirty: false,
            clock,
            meter,
        }
    }

    /// Pay for `rec` as stored (clock + meter + space accounting), then
    /// commit it to the store and the chain.
    fn append(&mut self, rec: LogRecord) {
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

    fn reseal(&mut self) {
        let mut chain = HmacChain::new(&self.chain_key);
        for r in &self.records {
            chain.extend(r);
        }
        self.chain = chain;
    }

    fn redact_unit(&mut self, unit: UnitId) -> usize {
        let Some(positions) = self.by_unit.get(&unit) else {
            return 0;
        };
        let mut n = 0;
        let mut freed = 0u64;
        let mut touched = 0usize;
        for &i in positions {
            let r = &mut self.records[i as usize];
            if !r.redacted {
                freed += r.payload.len() as u64;
                touched += r.size();
                r.payload = Box::default();
                r.redacted = true;
                n += 1;
            }
        }
        if n > 0 {
            self.bytes = self.bytes.saturating_sub(freed);
            // Charge the indexed redaction (the unit's records only); the
            // chain reseal batches until the next verification.
            self.clock.charge(self.clock.model().log_cost(touched));
            self.chain_dirty = true;
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

    fn verify(&mut self) -> bool {
        if self.chain_dirty {
            self.reseal();
            self.chain_dirty = false;
        }
        self.chain.verify(&self.chain_key, self.records.iter())
    }

    fn head(&mut self) -> [u8; 32] {
        if self.chain_dirty {
            self.reseal();
            self.chain_dirty = false;
        }
        self.chain.head()
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
    fn name(&self) -> &'static str {
        "csv row-level (P_Base)"
    }

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

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
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
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
    }
}

/// The query text [`FullQueryLogger`] synthesises for a record.
fn query_text(rec: &LogRecord) -> String {
    format!(
        "{} unit={} purpose={} entity={};",
        rec.op,
        rec.unit.map(|u| u.0).unwrap_or(0),
        rec.purpose,
        rec.entity
    )
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
    fn name(&self) -> &'static str {
        "full query+response (P_GBench)"
    }

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

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
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
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
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
    /// its payload key by hashing `key`. Construction-heavy call sites
    /// (tests, benches constructing many loggers) can pre-expand once and
    /// use [`with_cipher`](EncryptedLogger::with_cipher) instead.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> EncryptedLogger {
        let digest = datacase_crypto::sha256::Sha256::digest(key);
        Self::with_cipher(
            AesCtr::from_key(KeySize::Aes128, &digest[..16]),
            key,
            clock,
            meter,
        )
    }

    /// A logger reusing an already-expanded payload cipher — no hashing,
    /// no key expansion. `chain_key` seals the tamper-evidence chain
    /// exactly as in [`new`](EncryptedLogger::new).
    pub fn with_cipher(
        cipher: AesCtr,
        chain_key: &[u8],
        clock: SimClock,
        meter: std::sync::Arc<Meter>,
    ) -> EncryptedLogger {
        EncryptedLogger {
            cipher,
            core: LogCore::new(chain_key, clock, meter),
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
    fn name(&self) -> &'static str {
        "encrypted AES-128 (P_SYS)"
    }

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

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
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
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn backends() -> Vec<Box<dyn AuditLogger>> {
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
        // Heads and retained bytes printed by the build before the store
        // was packed and the HMAC streamed (PR 22's tree, same sequence,
        // unit 7 redacted): one chained byte moving in any backend — a
        // field's width, the unit-less sentinel, the redaction flag, the
        // pads — changes a hex string here.
        let golden = [
            (
                "1382707f21ca0a1dc96bf551f78974d3c15acff8ca3beb91481eec15ccd2afd3",
                277,
            ),
            (
                "49ff227d2083ed55fcab4728379b33affbff011d181ca3ae633993d9da5d8ce2",
                454,
            ),
            (
                "dca03daedcc9a7feb7fbc780eb3eb4386ff341198653629e90fac62e2f4146aa",
                329,
            ),
        ];
        for (mut b, (head, bytes)) in backends().into_iter().zip(golden) {
            for rec in golden_sequence() {
                b.log(rec);
            }
            assert_eq!(b.redact_unit(UnitId(7)), 2, "{}", b.name());
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
    fn redact_unit_blanks_and_reseals() {
        for mut b in backends() {
            b.log(rec(1, 7, b"unit7-first"));
            b.log(rec(2, 8, b"unit8-data"));
            b.log(rec(3, 7, b"unit7-second"));
            let n = b.redact_unit(UnitId(7));
            assert_eq!(n, 2, "{}", b.name());
            assert_eq!(b.scan(b"unit7"), 0, "{}", b.name());
            assert!(b.verify_chain(), "chain resealed: {}", b.name());
            assert_eq!(b.records(), 3, "records preserved, payloads blanked");
        }
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
    fn with_cipher_matches_new() {
        // The cheap constructor must be observationally identical to the
        // hashing one: same ciphertext at rest, same chain.
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let digest = datacase_crypto::sha256::Sha256::digest(b"k");
        let cipher = AesCtr::from_key(KeySize::Aes128, &digest[..16]);
        let mut cheap = EncryptedLogger::with_cipher(cipher, b"k", clock.clone(), meter.clone());
        let mut hashed = EncryptedLogger::new(b"k", clock, meter);
        cheap.log(rec(1, 1, b"payload"));
        hashed.log(rec(1, 1, b"payload"));
        assert_eq!(cheap.chain_head(), hashed.chain_head());
        assert_eq!(cheap.bytes(), hashed.bytes());
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
