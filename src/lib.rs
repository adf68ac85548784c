#![warn(missing_docs)]
//! # data-case
//!
//! Umbrella crate for the Data-CASE reproduction (EDBT 2024,
//! arXiv:2308.07501): a formal framework for grounding data regulations
//! (GDPR and friends) into system-level invariants, plus every substrate the
//! paper's evaluation depends on — a PostgreSQL-style MVCC heap engine, an
//! LSM engine with tombstones, RBAC / metadata-table / Sieve-style FGAC
//! policy enforcement, audit logging, from-scratch AES/SHA-256, GDPRBench
//! and YCSB workload generators, and the three compliance profiles
//! (P_Base, P_GBench, P_SYS) the paper benchmarks.
//!
//! Each subsystem lives in its own crate; this crate re-exports them under
//! short names so applications can depend on `data-case` alone:
//!
//! ```
//! use data_case::prelude::*;
//!
//! let clock = SimClock::commodity();
//! assert_eq!(clock.now(), Ts::ZERO);
//! ```
//!
//! The deterministic chaos harness (`chaos`) replays seeded compliance
//! scenarios under named crash points and holds recovery to the paper's
//! groundings; `repro chaos` runs its matrix.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the harness that regenerates every table and figure
//! of the paper.

pub use datacase_audit as audit;
pub use datacase_chaos as chaos;
pub use datacase_core as core;
pub use datacase_crypto as crypto;
pub use datacase_engine as engine;
pub use datacase_policy as policy;
pub use datacase_server as server;
pub use datacase_sim as sim;
pub use datacase_storage as storage;
pub use datacase_workloads as workloads;

/// Convenient glob-import surface for examples and quickstarts.
///
/// Covers the simulation substrate plus everything an end-to-end scenario
/// like `examples/quickstart.rs` needs: the session-scoped engine
/// frontend (`Frontend` / `Session` / `Request` / `Batch` and the typed
/// `Reply` / `EngineError` outcomes), its configuration profiles, the
/// workload operation/record types, and the core regulation/grounding
/// vocabulary.
pub mod prelude {
    pub use datacase_core::grounding::erasure::ErasureInterpretation;
    pub use datacase_core::regulation::Regulation;
    pub use datacase_engine::concurrent::{
        merged_chain_head, ConcurrentEngine, EngineHandle, SubmitStamp, Ticket,
    };
    pub use datacase_engine::driver::RunStats;
    pub use datacase_engine::error::EngineError;
    pub use datacase_engine::frontend::{
        AuditRef, Batch, Frontend, Reply, Request, Response, Session,
    };
    pub use datacase_engine::profiles::{DeleteStrategy, EngineConfig, ProfileKind};
    pub use datacase_engine::Actor;
    pub use datacase_policy::enforcer::PolicyEpoch;
    pub use datacase_server::{Client, Server, TenantSpec};
    pub use datacase_sim::time::{Dur, Ts};
    pub use datacase_sim::{CostModel, Meter, MeterSnapshot, SimClock};
    pub use datacase_workloads::opstream::Op;
    pub use datacase_workloads::record::GdprMetadata;
}
