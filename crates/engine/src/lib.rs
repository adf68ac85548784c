#![warn(missing_docs)]
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
//! [`Frontend`] owns the engine, a [`Session`] carries the authenticated
//! [`Actor`], declared purpose, and deadline, and typed [`Request`]s are
//! submitted as [`Batch`]es — each answered with a [`Response`] whose
//! outcome is `Result<Reply, EngineError>` plus an [`AuditRef`] into the
//! audit log. Every request runs decide → apply → account to completion,
//! in submission order: the policy check asks the profile's enforcer
//! against the current policy state, and the audit record is appended
//! before the reply is built. The engine simultaneously maintains the
//! Data-CASE *abstract model* (state + action history from
//! `datacase-core`), so the compliance checker can audit any run; the
//! erasure executor that maps grounded interpretations to system-action
//! plans (Table 1) is driven by [`Request::Erase`] / [`Request::Restore`].
//!
//! Every profile composes over a pluggable
//! [`StorageBackend`](datacase_storage::backend::StorageBackend): the
//! PostgreSQL-style heap or the Cassandra-style LSM tree, selected by
//! [`EngineConfig::backend`](profiles::EngineConfig) — the full
//! configuration space is `ProfileKind` × `DeleteStrategy` ×
//! [`BackendKind`].

mod db;

pub mod concurrent;
pub mod driver;
pub mod erasure;
pub mod error;
mod exec;
pub mod frontend;
pub mod pia;
pub mod profiles;
pub mod space;
pub mod sweeper;

pub use concurrent::{
    merged_chain_head, shard_of, ConcurrentEngine, EngineHandle, SubmitStamp, Ticket,
};
pub use datacase_storage::backend::{BackendKind, BackendStats};
pub use db::Actor;
pub use driver::{run_ops, RunStats};
pub use erasure::{probe, probe_on};
pub use error::EngineError;
pub use frontend::{AuditRef, Batch, Forensic, Frontend, Reply, Request, Response, Session};
pub use pia::{assess, certify, Certificate, PiaReport};
pub use profiles::{DeleteStrategy, EngineConfig, ProfileKind};
pub use space::SpaceReport;
pub use sweeper::{sweep, SweepReport, SweeperConfig};
