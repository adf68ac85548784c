//! Per-operation cost constants for the simulated clock.
//!
//! The constants are calibrated to commodity hardware (SATA SSD + one core
//! of a desktop CPU, roughly the paper's Ryzen 5 VM): a random page read
//! from "disk" costs ~80 µs, a buffered page hit ~1 µs, an fsync ~500 µs,
//! AES at a few cycles/byte, and so on. The *ratios* between the constants
//! are what drive every figure's shape; the absolute scale just keeps
//! reported completion times in plausible units.

use crate::time::Dur;

/// Cost constants charged to a [`crate::clock::SimClock`] by the substrates.
///
/// All values are simulated nanoseconds (or nanoseconds per byte where
/// noted). Engines never invent their own constants — they ask the shared
/// `CostModel`, which makes ablations (e.g. "what if crypto were free?")
/// one-line configuration changes.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Random page read that misses the buffer pool (disk I/O).
    pub page_read_disk: u64,
    /// Sequential page read (scans, vacuum passes) — an order of magnitude
    /// cheaper than random I/O on both SSDs and spinning disks.
    pub page_read_seq: u64,
    /// Page read satisfied by the buffer pool.
    pub page_read_cached: u64,
    /// Page write-back to disk.
    pub page_write_disk: u64,
    /// Sequential page write (vacuum ring buffer, checkpoint batches).
    pub page_write_seq: u64,
    /// Durable log flush (group commit on NVMe-class storage).
    pub fsync: u64,
    /// CPU cost of examining one tuple (visibility check + copy).
    pub tuple_cpu: u64,
    /// CPU cost of skipping a dead tuple / tombstone during a scan.
    pub dead_tuple_skip: u64,
    /// One index probe step (B-tree node visit or hash bucket lookup).
    pub index_probe: u64,
    /// Inserting or deleting one index entry.
    pub index_maintain: u64,
    /// AES-128 cost per byte.
    pub aes128_per_byte: u64,
    /// AES-256 cost per byte (14 rounds vs 10 → ~1.4×).
    pub aes256_per_byte: u64,
    /// SHA-256 cost per byte.
    pub sha256_per_byte: u64,
    /// Fixed cost of appending one log record.
    pub log_append: u64,
    /// Additional log cost per payload byte.
    pub log_per_byte: u64,
    /// Coarse (role-based) policy check.
    pub policy_check_coarse: u64,
    /// Fine-grained per-tuple policy guard evaluation: one UDF-based guard
    /// in the rewritten query, PL/pgSQL invocation overhead included
    /// (Sieve-on-PostgreSQL reality — the reason P_SYS dominates
    /// read-heavy workloads in Figure 4b).
    pub policy_check_fine: u64,
    /// Extra join/lookup against a separate metadata table (per operation).
    pub metadata_join: u64,
    /// LSM: cost per byte moved during compaction.
    pub compaction_per_byte: u64,
    /// Bloom filter probe.
    pub bloom_probe: u64,
    /// Per-byte cost of a sanitisation overwrite pass.
    pub sanitize_per_byte: u64,
    /// Fixed transaction begin/commit bookkeeping.
    pub txn_overhead: u64,
}

impl CostModel {
    /// Calibration used by all experiments: commodity SSD + desktop CPU.
    pub fn commodity() -> CostModel {
        CostModel {
            page_read_disk: 80_000,
            page_read_seq: 8_000,
            page_read_cached: 1_000,
            page_write_disk: 100_000,
            page_write_seq: 15_000,
            fsync: 50_000,
            tuple_cpu: 250,
            dead_tuple_skip: 120,
            index_probe: 400,
            index_maintain: 900,
            aes128_per_byte: 3,
            aes256_per_byte: 4,
            sha256_per_byte: 5,
            log_append: 2_500,
            log_per_byte: 2,
            policy_check_coarse: 300,
            policy_check_fine: 10_000,
            metadata_join: 3_500,
            compaction_per_byte: 6,
            bloom_probe: 120,
            sanitize_per_byte: 12,
            txn_overhead: 1_500,
        }
    }

    /// Cost of encrypting/decrypting `n` bytes with AES of the given key
    /// size in bits (128 or 256; 192 priced between).
    pub fn aes_cost(&self, key_bits: u32, n: usize) -> Dur {
        let per = match key_bits {
            128 => self.aes128_per_byte,
            192 => self.aes128_per_byte + (self.aes256_per_byte - self.aes128_per_byte) / 2,
            _ => self.aes256_per_byte,
        };
        Dur(per.saturating_mul(n as u64))
    }

    /// Cost of appending one log record with an `n`-byte payload.
    pub fn log_cost(&self, n: usize) -> Dur {
        Dur(self.log_append + self.log_per_byte.saturating_mul(n as u64))
    }

    /// Cost of a sanitisation overwrite of `n` bytes, `passes` times.
    pub fn sanitize_cost(&self, n: usize, passes: u32) -> Dur {
        Dur(self
            .sanitize_per_byte
            .saturating_mul(n as u64)
            .saturating_mul(passes as u64))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::commodity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes256_costs_more_than_aes128() {
        let m = CostModel::commodity();
        assert!(m.aes_cost(256, 1024) > m.aes_cost(128, 1024));
        assert!(m.aes_cost(192, 1024) >= m.aes_cost(128, 1024));
        assert!(m.aes_cost(192, 1024) <= m.aes_cost(256, 1024));
    }

    #[test]
    fn disk_read_dominates_cache_hit() {
        let m = CostModel::commodity();
        assert!(m.page_read_disk >= 10 * m.page_read_cached);
        assert!(
            m.page_read_disk >= 5 * m.page_read_seq,
            "random >> sequential"
        );
        assert!(m.page_read_seq > m.page_read_cached);
    }

    #[test]
    fn fine_policy_check_dominates_coarse() {
        let m = CostModel::commodity();
        assert!(m.policy_check_fine > 5 * m.policy_check_coarse);
    }

    #[test]
    fn log_cost_is_affine_in_bytes() {
        let m = CostModel::commodity();
        let a = m.log_cost(0).0;
        let b = m.log_cost(100).0;
        assert_eq!(b - a, 100 * m.log_per_byte);
    }
}
