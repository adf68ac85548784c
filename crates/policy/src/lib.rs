#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-policy
//!
//! The three policy-enforcement substrates behind the paper's compliance
//! profiles (§4.2):
//!
//! * [`rbac`] — role-based access control: the coarse, cheap enforcement
//!   P_Base uses (roles, role attributes, memberships);
//! * [`metatable`] — policies stored in a *separate metadata table*, so
//!   every data operation pays a join/lookup against it (P_GBench);
//! * [`fgac`] — Sieve-style fine-grained access control middleware:
//!   per-unit policies, an (entity, purpose) policy index with
//!   time-interval filtering, and per-tuple guard evaluation (P_SYS).
//!
//! All three implement [`enforcer::PolicyEnforcer`], charge their distinct
//! cost signatures to the shared [`datacase_sim::SimClock`], and report the
//! metadata bytes they occupy (Table 2's space accounting). The engine
//! holds the active mechanism in an [`enforcer::VersionedEnforcer`], which
//! counts policy mutations in a [`PolicyEpoch`] and decides every access
//! against the current policy state.

pub mod enforcer;
pub mod fgac;
pub mod metatable;
pub mod rbac;

pub use enforcer::{AccessRequest, Decision, PolicyEnforcer, PolicyEpoch, VersionedEnforcer};
pub use fgac::{FgacConfig, FgacEnforcer};
pub use metatable::MetaTableEnforcer;
pub use rbac::{RbacEnforcer, Role};
