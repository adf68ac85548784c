#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-engine
//!
//! The compliant engine: the paper's three GDPR-compliance profiles
//! (§4.2) realised over the from-scratch substrates, fronted by a
//! session-scoped, batch-first request API.
//!
//! * **P_Base** — RBAC, CSV row-level response logging, AES-256 per-tuple
//!   encryption, erasure = DELETE + (periodic) VACUUM. Least restrictive,
//!   cheapest.
//! * **P_GBench** — policies in a separate metadata table (join per
//!   operation), full query+response logging, LUKS-style (SHA-256-derived
//!   key) disk encryption, erasure = DELETE only.
//! * **P_SYS** — Sieve-style FGAC middleware (fine per-tuple policy
//!   checks), AES-128 encrypted data and logs, erasure = DELETE +
//!   VACUUM FULL + deletion of the unit's logs. Most restrictive, most
//!   expensive.
//!
//! The **only public write path** is the [`frontend`] module: a
//! [`Frontend`] is the engine, a [`Session`] carries the authenticated
//! [`Actor`], declared purpose, and deadline, and slices of typed
//! [`Request`]s are submitted — each answered with a [`Response`] whose
//! outcome is `Result<Reply, EngineError>` plus an [`AuditRef`] into the
//! audit log. Every request runs decide → apply → account to completion,
//! in submission order: the policy check asks the profile's enforcer
//! against the current policy state, and the audit records are appended
//! before the reply is built. The engine simultaneously maintains the
//! Data-CASE *abstract model* (the state from `datacase-core` and the
//! chained audit log, whose records the action history is read off), so
//! the compliance checker can audit any run against the tamper-evident
//! record. One erasure executor
//! ([`erasure`]) maps every erasure trigger to a system-action plan
//! (Table 1) and runs it: [`Request::Erase`], a workload
//! [`Request::Delete`] and the retention drain all go through it, and
//! [`Request::Restore`] inverts the reversible plan. The drain runs
//! before every request and at every deadline [`Frontend::advance_to`]
//! passes, so the engine keeps storage limitation (G17) itself.
//!
//! Every profile composes over a pluggable
//! [`StorageBackend`](datacase_storage::backend::StorageBackend): the
//! PostgreSQL-style heap or the Cassandra-style LSM tree, selected by
//! [`EngineConfig::backend`](profiles::EngineConfig) — the full
//! configuration space is `ProfileKind` × `DeleteStrategy` ×
//! [`BackendKind`].
//!
//! Inside, the engine is cut along its state into three holders, each in
//! its own module next to its methods: the **substrate** (backend, tuple
//! key vault, policy enforcer), the Data-CASE **model** (state, the
//! chained audit log that is its history, purpose and entity registries),
//! and the **key index** binding record keys to units (derived state,
//! rebuildable from the other two). Config, clock, meter and the two cadence counters
//! sit on the [`Frontend`] itself. The per-request handlers share one
//! module (`ops`), which execution (`exec`) drives.

pub mod concurrent;
pub mod driver;
pub mod erasure;
pub mod error;
mod exec;
pub mod frontend;
mod keys;
mod model;
mod ops;
pub mod pia;
pub mod profiles;
mod request;
pub mod space;
mod substrate;

pub use concurrent::{
    merged_chain_head, shard_of, ConcurrentEngine, EngineHandle, SubmitStamp, Ticket,
};
pub use datacase_storage::backend::{BackendKind, BackendStats};
pub use driver::{run_ops, RunStats};
pub use erasure::{probe_config, probe_on, PropertyProbe};
pub use error::EngineError;
pub use frontend::{Actor, AuditRef, Forensic, Frontend, Reply, Request, Response, Session};
pub use pia::{assess, certify, Certificate, PiaReport};
pub use profiles::{DeleteStrategy, EngineConfig, ProfileKind};
pub use space::SpaceReport;
