#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-core
//!
//! The Data-CASE model (paper §2–§3): a small set of data-processing
//! concepts in which data regulations can be stated *formally* as
//! invariants, plus the machinery for **grounding** ambiguous concepts
//! (like "erasure") into unique interpretations mapped to system-actions.
//!
//! Concepts (paper §2.1):
//! * **entities** — data-subjects, controllers, processors, auditors
//!   ([`entity`]);
//! * **data units** `X = (S, O, V, P)` — subject, origin, time-versioned
//!   values, policies ([`unit`](mod@unit), [`value`], [`policy`]);
//! * **purposes** — what collected data may be used for ([`purpose`]);
//! * **actions** — state-changing/reading operations on units ([`action`]);
//! * **action-history tuples** `(X, p, e, τ(X), t)` and histories `H(X)`
//!   ([`history`]);
//! * **policy-consistent processing** — the formalisation of lawful
//!   processing ([`history::HistoryTuple::policy_consistent`]).
//!
//! Invariants (paper §2.2, Figure 1): the nine requirement groups I–IX,
//! the deployment invariant X (tenant isolation) and the two formal
//! examples G6 (lawful processing) and G17 (timely erasure) are the rows
//! of [`invariants::CATALOG`]; [`checker::check`] runs the rows a
//! regulation enforces over a [`state::DatabaseState`] +
//! [`history::History`].
//!
//! Grounding (paper §3): [`grounding`] defines the four erasure
//! interpretations, their restrictiveness order and the IR/II/Inv
//! property matrix of Table 1. The mapping to system-action plans is
//! system dependent and lives with the engine
//! (`datacase_engine::erasure::plan`). [`timeline`] reproduces Figure 3's
//! erasure timeline.

pub mod action;
pub mod checker;
pub mod entity;
pub mod grounding;
pub mod history;
pub mod ids;
pub mod intern;
pub mod invariants;
pub mod policy;
pub mod provenance;
pub mod purpose;
pub mod regulation;
pub mod state;
pub mod tenant;
pub mod timeline;
pub mod unit;
pub mod value;
pub mod violation;

pub use action::{Action, ActionKind};
pub use checker::ComplianceReport;
pub use entity::{Entity, EntityKind, EntityRegistry};
pub use grounding::erasure::ErasureInterpretation;
pub use history::{History, HistoryTuple};
pub use ids::{EntityId, UnitId};
pub use policy::{Policy, PolicySet};
pub use purpose::PurposeId;
pub use regulation::Regulation;
pub use state::DatabaseState;
pub use tenant::{KeyRange, TenantDirectory, TenantId};
pub use unit::{Category, DataUnit, ErasureStatus, Origin};
pub use value::{Value, VersionedValue};
pub use violation::{Severity, Violation};
