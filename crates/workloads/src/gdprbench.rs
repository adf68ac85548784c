//! GDPRBench workload generation (paper §4.2):
//!
//! * **WCon** — Controller: 25 % create, 25 % delete, 50 % metadata update;
//! * **WPro** — Processor: 80 % reads of data by key, 20 % reads of data
//!   using metadata;
//! * **WCus** — Customer: 20 % each of read/update/delete of data, and
//!   read/update of metadata;
//! * **Fig4a customer mix** — 20 % deletes on data, rest reads (§4.1).

use datacase_core::purpose::well_known as wk;
use datacase_sim::rng::{child_seed, SplitMix64};

use crate::record::MallGenerator;
use crate::request::{MetaField, MetaSelector, Request};

/// An operation mix: weights per op class (summing to 100).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// % creates.
    pub create: u8,
    /// % data reads by key.
    pub read_data: u8,
    /// % data updates.
    pub update_data: u8,
    /// % data deletes.
    pub delete_data: u8,
    /// % metadata reads by key.
    pub read_meta: u8,
    /// % metadata updates.
    pub update_meta: u8,
    /// % metadata-based data reads.
    pub read_by_meta: u8,
}

impl Mix {
    /// GDPRBench Controller: 25 % create, 25 % delete, 50 % metadata update.
    pub fn wcon() -> Mix {
        Mix {
            create: 25,
            read_data: 0,
            update_data: 0,
            delete_data: 25,
            read_meta: 0,
            update_meta: 50,
            read_by_meta: 0,
        }
    }

    /// GDPRBench Processor: 80 % key reads, 20 % metadata-based reads.
    pub fn wpro() -> Mix {
        Mix {
            create: 0,
            read_data: 80,
            update_data: 0,
            delete_data: 0,
            read_meta: 0,
            update_meta: 0,
            read_by_meta: 20,
        }
    }

    /// GDPRBench Customer: 20 % each of data read/update/delete and
    /// metadata read/update.
    pub fn wcus() -> Mix {
        Mix {
            create: 0,
            read_data: 20,
            update_data: 20,
            delete_data: 20,
            read_meta: 20,
            update_meta: 20,
            read_by_meta: 0,
        }
    }

    /// The §4.1 case-study customer workload: 20 % deletes, rest reads.
    pub fn fig4a_customer() -> Mix {
        Mix {
            create: 0,
            read_data: 80,
            update_data: 0,
            delete_data: 20,
            read_meta: 0,
            update_meta: 0,
            read_by_meta: 0,
        }
    }

    /// A delete-only workload (the paper's "expected performance is
    /// observed for a workload composed only of deletions").
    pub fn delete_only() -> Mix {
        Mix {
            create: 0,
            read_data: 0,
            update_data: 0,
            delete_data: 100,
            read_meta: 0,
            update_meta: 0,
            read_by_meta: 0,
        }
    }

    fn total(&self) -> u32 {
        self.create as u32
            + self.read_data as u32
            + self.update_data as u32
            + self.delete_data as u32
            + self.read_meta as u32
            + self.update_meta as u32
            + self.read_by_meta as u32
    }
}

/// The GDPRBench generator: a load phase plus seeded request streams.
///
/// Deletions follow GDPRBench's TTL semantics: the *oldest* live records
/// are deleted first (retention deadlines expire in insertion order), so
/// dead tuples cluster on contiguous heap pages — the locality PostgreSQL's
/// visibility map exploits and Figure 4a depends on.
pub struct GdprBench {
    rng: SplitMix64,
    mall: MallGenerator,
    live_keys: std::collections::VecDeque<u64>,
    next_key: u64,
    payload_size: usize,
}

impl std::fmt::Debug for GdprBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdprBench")
            .field("live_keys", &self.live_keys.len())
            .field("next_key", &self.next_key)
            .finish()
    }
}

impl GdprBench {
    /// A bench over `people` subjects with the given seed.
    pub fn new(seed: u64, people: u32) -> GdprBench {
        GdprBench {
            rng: SplitMix64::new(child_seed(seed, "gdprbench-ops")),
            mall: MallGenerator::new(child_seed(seed, "mall"), people, 64),
            live_keys: std::collections::VecDeque::new(),
            next_key: 0,
            payload_size: 100,
        }
    }

    /// The load phase: `n` create requests with Mall records.
    pub fn load_phase(&mut self, n: usize) -> Vec<Request> {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(self.fresh_create());
        }
        ops
    }

    fn fresh_create(&mut self) -> Request {
        let key = self.next_key;
        self.next_key += 1;
        self.live_keys.push_back(key);
        let (_, metadata, payload) = self.mall.record();
        Request::Create {
            key,
            payload,
            metadata,
        }
    }

    fn pick_live(&mut self) -> Option<u64> {
        if self.live_keys.is_empty() {
            return None;
        }
        let idx = self.rng.next_below(self.live_keys.len() as u64) as usize;
        self.live_keys.get(idx).copied()
    }

    /// TTL-order deletion target: the oldest live key.
    fn pick_expired(&mut self) -> Option<u64> {
        self.live_keys.pop_front()
    }

    /// Uniform over *all* keys ever created — GDPRBench reads do not know
    /// which records were deleted, so reads of deleted keys happen and pay
    /// the dead-tuple penalty (the mechanism behind Figure 4a).
    fn pick_any(&mut self) -> Option<u64> {
        if self.next_key == 0 {
            return None;
        }
        Some(self.rng.next_below(self.next_key))
    }

    /// Generate `n` transaction-phase requests with the given mix.
    /// Deletes target the oldest live keys (TTL order) and retire them;
    /// creates mint fresh keys.
    pub fn ops(&mut self, n: usize, mix: Mix) -> Vec<Request> {
        assert_eq!(mix.total(), 100, "mix weights must sum to 100");
        // Cumulative thresholds over the mix classes, in a fixed order.
        let thresholds: [(u32, u8); 7] = {
            let mut acc = 0u32;
            let mut out = [(0u32, 0u8); 7];
            for (slot, (weight, tag)) in [
                (mix.create, 0u8),
                (mix.read_data, 1),
                (mix.update_data, 2),
                (mix.delete_data, 3),
                (mix.read_meta, 4),
                (mix.update_meta, 5),
                (mix.read_by_meta, 6),
            ]
            .into_iter()
            .enumerate()
            {
                acc += weight as u32;
                out[slot] = (acc, tag);
            }
            out
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let roll = self.rng.next_below(100) as u32;
            let tag = thresholds
                .iter()
                .find(|(cum, _)| roll < *cum)
                .map(|(_, t)| *t)
                .expect("weights sum to 100");
            let op = match tag {
                0 => self.fresh_create(),
                1 => match self.pick_any() {
                    Some(key) => Request::Read { key },
                    None => self.fresh_create(),
                },
                2 => match self.pick_live() {
                    Some(key) => {
                        let reading = self.mall.reading();
                        Request::Update {
                            key,
                            payload: reading.to_payload(self.payload_size),
                        }
                    }
                    None => self.fresh_create(),
                },
                3 => match self.pick_expired() {
                    Some(key) => Request::Delete { key },
                    None => self.fresh_create(),
                },
                4 => match self.pick_any() {
                    Some(key) => Request::ReadMeta { key },
                    None => self.fresh_create(),
                },
                5 => match self.pick_live() {
                    Some(key) => {
                        let field = match self.rng.next_below(3) {
                            0 => MetaField::Ttl,
                            1 => MetaField::Purpose,
                            _ => MetaField::Objection,
                        };
                        Request::UpdateMeta { key, field }
                    }
                    None => self.fresh_create(),
                },
                _ => {
                    let selector = if self.rng.next_below(2) == 0 {
                        MetaSelector::BySubject(
                            self.rng.next_below(self.mall.people() as u64) as u32
                        )
                    } else {
                        let p = match self.rng.next_below(4) {
                            0 => wk::billing(),
                            1 => wk::analytics(),
                            2 => wk::advertising(),
                            _ => wk::smart_space(),
                        };
                        MetaSelector::ByPurpose(p)
                    };
                    Request::ReadByMeta { selector }
                }
            };
            out.push(op);
        }
        out
    }

    /// Keys currently alive (for harness assertions).
    pub fn live_keys(&self) -> usize {
        self.live_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of `requests` carrying `label`.
    fn share(requests: &[Request], label: &str) -> f64 {
        let n = requests.iter().filter(|r| r.label() == label).count();
        n as f64 / requests.len() as f64
    }

    #[test]
    fn mixes_sum_to_100() {
        for m in [
            Mix::wcon(),
            Mix::wpro(),
            Mix::wcus(),
            Mix::fig4a_customer(),
            Mix::delete_only(),
        ] {
            assert_eq!(m.total(), 100);
        }
    }

    #[test]
    fn load_phase_creates_unique_keys() {
        let mut b = GdprBench::new(1, 100);
        let ops = b.load_phase(1000);
        assert_eq!(ops.len(), 1000);
        let mut keys: Vec<u64> = ops.iter().filter_map(Request::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
        assert_eq!(b.live_keys(), 1000);
    }

    #[test]
    fn wcus_mix_roughly_respected() {
        let mut b = GdprBench::new(2, 100);
        let _ = b.load_phase(5000);
        let ops = b.ops(10_000, Mix::wcus());
        for label in ["read", "update", "delete", "read-meta", "update-meta"] {
            let share = share(&ops, label);
            assert!(
                (share - 0.20).abs() < 0.03,
                "{label} share {share} out of tolerance"
            );
        }
    }

    #[test]
    fn wpro_is_read_only() {
        let mut b = GdprBench::new(3, 100);
        let _ = b.load_phase(1000);
        let ops = b.ops(5000, Mix::wpro());
        assert_eq!(share(&ops, "delete"), 0.0);
        assert_eq!(share(&ops, "update"), 0.0);
        assert!(share(&ops, "read-by-meta") > 700.0 / 5000.0);
    }

    #[test]
    fn deletes_retire_keys_and_never_repeat() {
        let mut b = GdprBench::new(4, 100);
        let _ = b.load_phase(2000);
        let ops = b.ops(5000, Mix::fig4a_customer());
        let mut deleted = std::collections::HashSet::new();
        for op in &ops {
            if let Request::Delete { key } = op {
                assert!(deleted.insert(*key), "key {key} deleted twice");
            }
        }
        assert_eq!(b.live_keys(), 2000 - deleted.len());
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let gen = |seed| {
            let mut b = GdprBench::new(seed, 50);
            let _ = b.load_phase(100);
            b.ops(200, Mix::wcus())
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        let mut b = GdprBench::new(1, 10);
        let bad = Mix {
            create: 50,
            read_data: 0,
            update_data: 0,
            delete_data: 0,
            read_meta: 0,
            update_meta: 0,
            read_by_meta: 0,
        };
        let _ = b.ops(10, bad);
    }
}
