//! The forensic residual findings: what the independent observer reports
//! when it checks whether "erased" personal data physically persists
//! anywhere.
//!
//! This is what turns Table 1 from a claimed matrix into a *measured* one.
//! Each backend's [`scan_physical`](crate::backend::StorageBackend::scan_physical)
//! fills the buckets of the layers it has:
//!
//! * heap pages as they are on disk (dead tuples, unvacuumed versions),
//! * the WAL (payloads of old records),
//! * drive remanence (overwritten sectors not yet sanitised),
//! * LSM runs (shadowed versions under tombstones);
//!
//! and the engine adds the audit logs' hits on top.

/// Where residuals of a needle were found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForensicFindings {
    /// Heap/file pages whose current bytes contain the needle.
    pub file_pages: Vec<u32>,
    /// WAL records whose payload contains the needle.
    pub wal_lsns: Vec<u64>,
    /// Sectors whose drive-remanence layer contains the needle.
    pub remanent_pages: Vec<u32>,
    /// LSM entries (across runs + memtable) containing the needle.
    pub lsm_entries: usize,
    /// Audit-log records containing the needle (filled by the engine,
    /// which owns the logs; a storage backend leaves it at zero).
    pub audit_records: usize,
}

impl ForensicFindings {
    /// Residuals reachable through *online* storage (file pages, WAL, LSM
    /// runs, audit logs) — what an attacker with filesystem access gets.
    /// Table 1's probe counts any as an illegal inference (II), so strong
    /// deletion must clear them all.
    pub fn online(&self) -> bool {
        !self.file_pages.is_empty()
            || !self.wal_lsns.is_empty()
            || self.lsm_entries > 0
            || self.audit_records > 0
    }

    /// Residuals at any layer, including drive remanence — what a
    /// forensics lab gets. Permanent deletion must clear this too.
    pub fn any(&self) -> bool {
        self.online() || !self.remanent_pages.is_empty()
    }

    /// Total residual hits across every layer — the per-backend count
    /// erasure evidence reports lead with.
    pub fn total(&self) -> usize {
        self.file_pages.len()
            + self.wal_lsns.len()
            + self.remanent_pages.len()
            + self.lsm_entries
            + self.audit_records
    }

    /// One-line description, bucket by bucket.
    pub fn describe(&self) -> String {
        format!(
            "file_pages={} wal_records={} remanent_sectors={} lsm_entries={} audit_records={}",
            self.file_pages.len(),
            self.wal_lsns.len(),
            self.remanent_pages.len(),
            self.lsm_entries,
            self.audit_records
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LsmBackend, MaintenanceDepth, StorageBackend};
    use crate::heap::HeapDb;

    #[test]
    fn delete_only_leaves_online_residuals() {
        let mut db = HeapDb::default_single();
        db.insert(1, 1, b"forensic-target").unwrap();
        db.delete(1).unwrap();
        db.checkpoint();
        let f = db.scan_physical(b"forensic-target");
        assert!(f.online(), "{}", f.describe());
        assert!(!f.file_pages.is_empty());
        assert!(!f.wal_lsns.is_empty());
    }

    #[test]
    fn vacuum_clears_pages_not_wal() {
        let mut db = HeapDb::default_single();
        db.insert(1, 1, b"forensic-target").unwrap();
        db.delete(1).unwrap();
        db.maintain(MaintenanceDepth::Lazy);
        db.checkpoint();
        let f = db.scan_physical(b"forensic-target");
        assert!(f.file_pages.is_empty(), "{}", f.describe());
        assert!(!f.wal_lsns.is_empty(), "WAL still retains it");
        assert!(f.online());
    }

    #[test]
    fn full_stack_erasure_clears_everything() {
        let mut db = HeapDb::default_single();
        db.insert(1, 77, b"forensic-target").unwrap();
        db.delete(1).unwrap();
        db.maintain(MaintenanceDepth::Full);
        db.purge_unit(77);
        db.sanitize(3);
        db.checkpoint();
        let f = db.scan_physical(b"forensic-target");
        assert!(!f.any(), "{}", f.describe());
    }

    #[test]
    fn lsm_residuals_until_compaction() {
        let mut b = LsmBackend::default_single();
        b.insert(1, 1, b"lsm-target").unwrap();
        b.checkpoint();
        b.delete(1).unwrap();
        let f = b.scan_physical(b"lsm-target");
        assert!(f.online());
        b.maintain(MaintenanceDepth::Full);
        let f2 = b.scan_physical(b"lsm-target");
        assert!(!f2.any(), "{}", f2.describe());
    }

    #[test]
    fn describe_is_informative() {
        let f = ForensicFindings {
            file_pages: vec![1, 2],
            wal_lsns: vec![9],
            audit_records: 3,
            ..ForensicFindings::default()
        };
        let d = f.describe();
        assert!(d.contains("file_pages=2"));
        assert!(d.contains("wal_records=1"));
        assert!(d.contains("audit_records=3"));
    }

    #[test]
    fn audit_hits_count_as_online_residuals() {
        let f = ForensicFindings {
            audit_records: 2,
            ..ForensicFindings::default()
        };
        assert!(f.online() && f.any());
        assert_eq!(f.total(), 2);
    }
}
