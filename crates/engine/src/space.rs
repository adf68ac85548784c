//! Space accounting: Table 2's "metadata explosion" measurement.
//!
//! The paper defines the **space factor** as "the ratio of the total size
//! of the database to the total size of personal data in it" (§4.2,
//! Metrics). We decompose metadata into the same buckets the profiles
//! differ on: policy metadata (enforcer), logs, indexes, WAL, and heap
//! page overhead (slack + headers + dead tuples).

use datacase_sim::report::{bytes_human, Table};

use crate::frontend::Frontend;

/// A space-usage breakdown of one engine instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpaceReport {
    /// Live personal-data payload bytes (current versions).
    pub personal_bytes: u64,
    /// Policy metadata held by the enforcer (rows, guards, indexes).
    pub policy_bytes: u64,
    /// Audit log bytes.
    pub log_bytes: u64,
    /// Primary-index bytes.
    pub index_bytes: u64,
    /// Retained recovery-log (WAL) bytes.
    pub wal_bytes: u64,
    /// Storage overhead: on-disk table/run size minus live payload.
    pub heap_overhead_bytes: u64,
}

impl SpaceReport {
    /// Measure an engine (any storage backend: the buckets come from the
    /// substrate-independent [`BackendStats`] vocabulary).
    ///
    /// [`BackendStats`]: datacase_storage::backend::BackendStats
    pub fn measure(frontend: &Frontend) -> SpaceReport {
        let personal = frontend.state().personal_bytes();
        let storage = frontend.backend_stats();
        SpaceReport {
            personal_bytes: personal,
            policy_bytes: frontend.substrate.enforcer.metadata_bytes(),
            log_bytes: frontend.model.audit.bytes(),
            index_bytes: storage.index_bytes,
            wal_bytes: storage.log_bytes,
            heap_overhead_bytes: storage.disk_bytes.saturating_sub(personal),
        }
    }

    /// Total metadata bytes.
    pub fn metadata_bytes(&self) -> u64 {
        self.policy_bytes
            + self.log_bytes
            + self.index_bytes
            + self.wal_bytes
            + self.heap_overhead_bytes
    }

    /// Total database size.
    pub fn total_bytes(&self) -> u64 {
        self.personal_bytes + self.metadata_bytes()
    }

    /// The paper's space factor (total / personal). Infinity when no
    /// personal data is stored.
    pub fn space_factor(&self) -> f64 {
        if self.personal_bytes == 0 {
            f64::INFINITY
        } else {
            self.total_bytes() as f64 / self.personal_bytes as f64
        }
    }

    /// Render the Table 2 row for this engine under `label`.
    pub fn row(&self, label: &str) -> Vec<String> {
        vec![
            label.to_string(),
            bytes_human(self.personal_bytes),
            bytes_human(self.metadata_bytes()),
            bytes_human(self.total_bytes()),
            format!("{:.1}x", self.space_factor()),
        ]
    }

    /// Table 2's headers.
    pub fn table(title: &str) -> Table {
        Table::new(
            title,
            &[
                "System",
                "Personal data size",
                "Metadata size",
                "Total DB size",
                "Space factor",
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Actor, Session};
    use crate::profiles::{EngineConfig, ProfileKind};
    use datacase_workloads::gdprbench::GdprBench;

    fn loaded(profile: ProfileKind, n: usize) -> Frontend {
        let mut fe = Frontend::new(EngineConfig::for_profile(profile));
        let mut bench = GdprBench::new(11, 100);
        fe.submit(&Session::new(Actor::Controller), &bench.load_phase(n));
        fe
    }

    #[test]
    fn factors_are_ordered_like_table_2() {
        let base = SpaceReport::measure(&loaded(ProfileKind::PBase, 300));
        let gbench = SpaceReport::measure(&loaded(ProfileKind::PGBench, 300));
        let sys = SpaceReport::measure(&loaded(ProfileKind::PSys, 300));
        assert!(
            base.space_factor() < gbench.space_factor(),
            "base {} vs gbench {}",
            base.space_factor(),
            gbench.space_factor()
        );
        assert!(
            gbench.space_factor() < sys.space_factor(),
            "gbench {} vs sys {}",
            gbench.space_factor(),
            sys.space_factor()
        );
    }

    #[test]
    fn psys_policy_metadata_dominates() {
        let sys = SpaceReport::measure(&loaded(ProfileKind::PSys, 300));
        let base = SpaceReport::measure(&loaded(ProfileKind::PBase, 300));
        assert!(sys.policy_bytes > 20 * base.policy_bytes.max(1));
    }

    #[test]
    fn totals_add_up() {
        let r = SpaceReport::measure(&loaded(ProfileKind::PBase, 100));
        assert_eq!(r.total_bytes(), r.personal_bytes + r.metadata_bytes());
        assert!(r.space_factor() > 1.0);
        assert!(r.personal_bytes >= 100 * 100, "100 records x 100 bytes");
    }

    #[test]
    fn empty_db_factor_is_infinite() {
        let fe = Frontend::new(EngineConfig::p_base());
        let r = SpaceReport::measure(&fe);
        assert!(r.space_factor().is_infinite());
    }

    #[test]
    fn row_renders_five_cells() {
        let r = SpaceReport::measure(&loaded(ProfileKind::PBase, 50));
        let row = r.row("P_Base");
        assert_eq!(row.len(), 5);
        assert_eq!(row[0], "P_Base");
        assert!(row[4].ends_with('x'));
    }
}
