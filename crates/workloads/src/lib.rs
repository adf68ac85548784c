#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-workloads
//!
//! The benchmark workloads of the paper's evaluation (§4):
//!
//! * [`record`] — GDPR-annotated records enriched with the Mall dataset
//!   (simulated personal-device readings from a shopping complex,
//!   SmartBench-style), exactly how the paper builds its records;
//! * [`gdprbench`] — GDPRBench's three roles: **WCon** (controller: 25 %
//!   create, 25 % delete, 50 % metadata update), **WPro** (processor: 80 %
//!   key reads, 20 % metadata-based reads), **WCus** (customer: 20 % each
//!   of data read/update/delete and metadata read/update), plus the
//!   Figure-4a customer mix (20 % deletes, 80 % reads);
//! * [`ycsb`] — YCSB workloads A/B/C with zipfian key choice (C is the
//!   paper's non-GDPR baseline);
//! * [`opstream`] — the operation vocabulary engines execute.
//!
//! Every generator is seeded and deterministic.

pub mod gdprbench;
pub mod opstream;
pub mod record;
pub mod ycsb;

pub use gdprbench::{GdprBench, Mix};
pub use opstream::{MetaField, MetaSelector, Op};
pub use record::{GdprMetadata, MallGenerator, MallReading};
pub use ycsb::{Ycsb, YcsbWorkload};

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the `Debug` rendering of every op: a fingerprint of
    /// each draw a generator makes (keys, mix rolls, metadata fields,
    /// payload bytes).
    fn fingerprint(ops: &[Op]) -> u64 {
        format!("{ops:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn seeded_streams_are_pinned() {
        // Every figure and benchmark plan is built on these streams, so a
        // change to any draw must show up here before it shows up in the
        // paper record or a benchmark `stream_hash`.
        let mut g = GdprBench::new(7, 100);
        let mut gdpr = g.load_phase(50);
        for mix in [Mix::wcon(), Mix::wpro(), Mix::wcus()] {
            gdpr.extend(g.ops(200, mix));
        }
        let mut y = Ycsb::new(7, 200);
        let mut ycsb = y.load_phase();
        ycsb.extend(y.ops(400, YcsbWorkload::A));
        assert_eq!(fingerprint(&gdpr), 0x460a_9cba_bd3e_becb);
        assert_eq!(fingerprint(&ycsb), 0xe616_800e_db29_82eb);
    }
}
