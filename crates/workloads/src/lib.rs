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
