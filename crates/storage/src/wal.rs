//! Write-ahead log.
//!
//! Besides its classic durability role (replayed by
//! [`crate::backend::recover_backend`]), the WAL is itself a *retention
//! hazard* the paper's record-keeping discussion points at: payloads of
//! long-gone tuples persist in the log. The forensic scanner therefore
//! scans it, and the permanent-deletion plan scrubs it per unit.

use datacase_sim::{Meter, SimClock};

/// One WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A tuple insert.
    Insert {
        /// Transaction id.
        xid: u64,
        /// Record key.
        key: u64,
        /// Data-CASE unit id.
        unit_id: u64,
        /// Tuple payload (cleartext unless the engine encrypted upstream).
        payload: Box<[u8]>,
    },
    /// A tuple delete.
    Delete {
        /// Transaction id.
        xid: u64,
        /// Record key.
        key: u64,
        /// Data-CASE unit id.
        unit_id: u64,
    },
    /// A tuple update (new version).
    Update {
        /// Transaction id.
        xid: u64,
        /// Record key.
        key: u64,
        /// Data-CASE unit id.
        unit_id: u64,
        /// New payload.
        payload: Box<[u8]>,
        /// Whether the new version carries the HIDDEN flag.
        hidden: bool,
    },
    /// A vacuum ran (lazy or full).
    Vacuum {
        /// Transaction id.
        xid: u64,
        /// True for VACUUM FULL.
        full: bool,
    },
    /// Checkpoint: everything before this LSN is on disk.
    Checkpoint,
}

impl WalRecord {
    /// Payload bytes carried (for size accounting).
    pub fn payload_len(&self) -> usize {
        match self {
            WalRecord::Insert { payload, .. } | WalRecord::Update { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// The unit the record concerns, if any.
    pub fn unit_id(&self) -> Option<u64> {
        match self {
            WalRecord::Insert { unit_id, .. }
            | WalRecord::Delete { unit_id, .. }
            | WalRecord::Update { unit_id, .. } => Some(*unit_id),
            _ => None,
        }
    }
}

/// The write-ahead log: an append-only record sequence with LSNs.
pub struct Wal {
    records: Vec<(u64, WalRecord)>,
    next_lsn: u64,
    bytes: u64,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.records.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Wal {
    /// An empty log.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> Wal {
        Wal {
            records: Vec::new(),
            next_lsn: 1,
            bytes: 0,
            clock,
            meter,
        }
    }

    /// Append a record, charging log cost; returns its LSN.
    pub fn append(&mut self, rec: WalRecord) -> u64 {
        let size = 32 + rec.payload_len();
        self.clock.charge(self.clock.model().log_cost(size));
        Meter::bump(&self.meter.wal_records, 1);
        self.bytes += size as u64;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push((lsn, rec));
        lsn
    }

    /// Durably flush (fsync) — charged per statement commit.
    pub fn flush(&self) {
        self.clock.charge_nanos(self.clock.model().fsync);
    }

    /// Iterate all retained records in LSN order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, WalRecord)> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total retained bytes (Table 2 metadata accounting).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// LSN of the most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.records
            .iter()
            .rev()
            .find(|(_, r)| matches!(r, WalRecord::Checkpoint))
            .map(|(lsn, _)| *lsn)
    }

    /// Drop records with LSN < `upto` (checkpoint truncation).
    pub fn truncate_before(&mut self, upto: u64) -> usize {
        let before = self.records.len();
        self.records.retain(|(lsn, _)| *lsn >= upto);
        let dropped = before - self.records.len();
        self.bytes = self
            .records
            .iter()
            .map(|(_, r)| 32 + r.payload_len() as u64)
            .sum();
        dropped
    }

    /// Scrub payloads of all records belonging to `unit` (permanent
    /// deletion's DeleteLogs step). Returns how many records were scrubbed.
    pub fn scrub_unit(&mut self, unit: u64) -> usize {
        let mut scrubbed = 0;
        for (_, rec) in &mut self.records {
            if rec.unit_id() == Some(unit) {
                match rec {
                    WalRecord::Insert { payload, .. } | WalRecord::Update { payload, .. } => {
                        self.clock
                            .charge(self.clock.model().log_cost(payload.len()));
                        payload.fill(0);
                        scrubbed += 1;
                    }
                    _ => {
                        scrubbed += 1;
                    }
                }
            }
        }
        scrubbed
    }

    /// Scan retained payload bytes for `needle` (forensic observer).
    pub fn scan(&self, needle: &[u8]) -> Vec<u64> {
        if needle.is_empty() {
            return Vec::new();
        }
        self.records
            .iter()
            .filter(|(_, r)| match r {
                WalRecord::Insert { payload, .. } | WalRecord::Update { payload, .. } => {
                    payload.windows(needle.len()).any(|w| w == needle)
                }
                _ => false,
            })
            .map(|(lsn, _)| *lsn)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mk() -> (Wal, SimClock) {
        let clock = SimClock::commodity();
        (Wal::new(clock.clone(), Arc::new(Meter::new())), clock)
    }

    fn ins(key: u64, payload: &[u8]) -> WalRecord {
        WalRecord::Insert {
            xid: 1,
            key,
            unit_id: key,
            payload: payload.into(),
        }
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let (mut w, _) = mk();
        let a = w.append(ins(1, b"a"));
        let b = w.append(ins(2, b"b"));
        assert!(b > a);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn append_and_flush_charge_time() {
        let (mut w, clock) = mk();
        let t0 = clock.now();
        w.append(ins(1, b"payload"));
        w.flush();
        assert!(clock.now() > t0);
    }

    #[test]
    fn scan_finds_payloads() {
        let (mut w, _) = mk();
        let lsn = w.append(ins(1, b"needle-here"));
        w.append(ins(2, b"other"));
        assert_eq!(w.scan(b"needle-here"), vec![lsn]);
        assert!(w.scan(b"absent").is_empty());
    }

    #[test]
    fn scrub_unit_blanks_payloads() {
        let (mut w, _) = mk();
        w.append(ins(1, b"pii-of-unit-1"));
        w.append(ins(2, b"pii-of-unit-2"));
        let n = w.scrub_unit(1);
        assert_eq!(n, 1);
        assert!(w.scan(b"pii-of-unit-1").is_empty());
        assert!(!w.scan(b"pii-of-unit-2").is_empty());
        assert_eq!(w.len(), 2, "records remain, payloads blanked");
    }

    #[test]
    fn truncate_drops_old_records() {
        let (mut w, _) = mk();
        let _a = w.append(ins(1, b"old"));
        let b = w.append(ins(2, b"new"));
        let dropped = w.truncate_before(b);
        assert_eq!(dropped, 1);
        assert_eq!(w.len(), 1);
        assert!(w.scan(b"old").is_empty());
    }

    #[test]
    fn bytes_accounting_tracks_payloads() {
        let (mut w, _) = mk();
        w.append(ins(1, &[0u8; 100]));
        assert_eq!(w.bytes(), 132);
        w.truncate_before(u64::MAX);
        assert_eq!(w.bytes(), 0);
    }
}
