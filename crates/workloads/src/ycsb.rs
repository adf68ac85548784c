//! YCSB workloads (Cooper et al., SoCC '10) — the paper's non-GDPR
//! baseline. Workload C (100 % reads) is what Figure 4b/4c use; A and B
//! are included for ablations.

use datacase_sim::rng::{child_seed, SplitMix64};
use datacase_sim::zipf::ScrambledZipfian;

use crate::record::MallGenerator;
use crate::request::Request;

/// The standard YCSB mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50 % reads / 50 % updates.
    A,
    /// 95 % reads / 5 % updates.
    B,
    /// 100 % reads.
    C,
}

impl YcsbWorkload {
    /// Read percentage of the mix.
    pub fn read_pct(self) -> u8 {
        match self {
            YcsbWorkload::A => 50,
            YcsbWorkload::B => 95,
            YcsbWorkload::C => 100,
        }
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "YCSB-A",
            YcsbWorkload::B => "YCSB-B",
            YcsbWorkload::C => "YCSB-C",
        }
    }
}

/// The YCSB generator: uniform load phase + zipfian request phase.
pub struct Ycsb {
    rng: SplitMix64,
    zipf: ScrambledZipfian,
    records: u64,
    mall: MallGenerator,
    payload_size: usize,
    /// When set, load-phase payloads are padded/truncated to this size
    /// (classic YCSB uses 1 KiB records); `None` keeps the natural
    /// MallGenerator record.
    load_payload_size: Option<usize>,
}

impl std::fmt::Debug for Ycsb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ycsb")
            .field("records", &self.records)
            .finish()
    }
}

impl Ycsb {
    /// A generator over `records` keys.
    pub fn new(seed: u64, records: u64) -> Ycsb {
        assert!(records > 0);
        Ycsb {
            rng: SplitMix64::new(child_seed(seed, "ycsb-ops")),
            zipf: ScrambledZipfian::new(records),
            records,
            mall: MallGenerator::new(child_seed(seed, "ycsb-mall"), 1000, 64),
            payload_size: 100,
            load_payload_size: None,
        }
    }

    /// Use `bytes`-sized payloads for both phases (classic YCSB records
    /// are 1 KiB; the default here is the compact 100-byte shape the
    /// paper figures use). Load-phase records are padded/truncated to the
    /// size, update payloads generated at it.
    pub fn with_payload_size(mut self, bytes: usize) -> Ycsb {
        self.payload_size = bytes;
        self.load_payload_size = Some(bytes);
        self
    }

    /// The load phase: create all `records` keys.
    pub fn load_phase(&mut self) -> Vec<Request> {
        (0..self.records)
            .map(|key| {
                let (_, metadata, mut payload) = self.mall.record();
                if let Some(size) = self.load_payload_size {
                    payload.resize(size, b'.');
                }
                Request::Create {
                    key,
                    payload,
                    metadata,
                }
            })
            .collect()
    }

    /// `n` request-phase requests with the given mix, zipfian keys.
    pub fn ops(&mut self, n: usize, workload: YcsbWorkload) -> Vec<Request> {
        let read_pct = workload.read_pct();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let key = self.zipf.sample(&mut self.rng);
            if self.rng.next_below(100) < read_pct as u64 {
                out.push(Request::Read { key });
            } else {
                let reading = self.mall.reading();
                out.push(Request::Update {
                    key,
                    payload: reading.to_payload(self.payload_size),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_is_pure_reads() {
        let mut y = Ycsb::new(1, 1000);
        let ops = y.ops(2000, YcsbWorkload::C);
        assert_eq!(ops.iter().filter(|r| r.label() == "read").count(), 2000);
    }

    #[test]
    fn a_is_half_updates() {
        let mut y = Ycsb::new(2, 1000);
        let ops = y.ops(10_000, YcsbWorkload::A);
        let updates = ops.iter().filter(|r| r.label() == "update").count() as f64 / 10_000.0;
        assert!((updates - 0.5).abs() < 0.03, "update share {updates}");
    }

    #[test]
    fn load_phase_covers_all_keys() {
        let mut y = Ycsb::new(3, 500);
        let ops = y.load_phase();
        assert_eq!(ops.len(), 500);
        let keys: std::collections::HashSet<u64> = ops.iter().filter_map(Request::key).collect();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn request_keys_are_skewed() {
        let mut y = Ycsb::new(4, 10_000);
        let ops = y.ops(20_000, YcsbWorkload::C);
        let mut counts: std::collections::HashMap<u64, usize> = Default::default();
        for op in &ops {
            *counts.entry(op.key().unwrap()).or_insert(0) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest key should be hit far more than the median key.
        assert!(freqs[0] >= 20, "hottest {}", freqs[0]);
        assert!(counts.len() < 10_000, "not all keys touched (skew)");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| Ycsb::new(seed, 100).ops(100, YcsbWorkload::A);
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
