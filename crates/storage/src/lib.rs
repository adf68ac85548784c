#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-storage
//!
//! The storage substrates of the Data-CASE reproduction — everything the
//! paper's evaluation ran on PostgreSQL and discusses for LSM/NoSQL
//! engines, built from scratch:
//!
//! * [`page`] — 8 KiB slotted pages where DELETE leaves dead bytes behind;
//! * [`tuple`](mod@tuple) — MVCC tuple encoding with the `HIDDEN` attribute that
//!   grounds *reversible inaccessibility*;
//! * [`txn`] — transaction ids, snapshots, visibility;
//! * [`disk`] — the simulated drive, with optional LUKS-style sector
//!   encryption and a *remanence* layer distinguishing strong from
//!   permanent deletion;
//! * [`buffer`] — LRU buffer pool;
//! * [`btree`] — a real index structure whose dead-entry probes are
//!   part of Figure 4a's cost story;
//! * [`fsm`] — free-space map;
//! * [`wal`] — write-ahead log (durability *and* retention hazard);
//! * [`heap`] — the PostgreSQL-style engine: INSERT/SELECT/UPDATE/DELETE,
//!   VACUUM, VACUUM FULL, hidden-attribute updates, crash recovery,
//!   drive sanitisation;
//! * [`lsm`] — memtable + SSTables + bloom filters + tombstones + tiered
//!   compaction (the Cassandra-style engine from the paper's intro);
//! * [`forensic`] — the residual findings every backend's forensic scan
//!   reports, which make Table 1's property matrix *measurable*;
//! * [`backend`] — the [`backend::StorageBackend`] contract the
//!   compliance layer composes over, implemented for the heap and (via
//!   [`backend::LsmBackend`]) the LSM tree.

pub mod backend;
pub mod btree;
pub mod buffer;
pub mod disk;
pub mod error;
pub mod forensic;
pub mod fsm;
pub mod heap;
pub mod lsm;
pub mod page;
pub mod tuple;
pub mod txn;
pub mod wal;

pub use backend::{BackendKind, BackendStats, LsmBackend, MaintenanceDepth, StorageBackend};
pub use error::{Result, StorageError};
pub use forensic::ForensicFindings;
pub use heap::{HeapConfig, HeapDb};
pub use lsm::{LsmConfig, LsmStats, LsmTree};
