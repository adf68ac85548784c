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
//! metadata bytes they occupy (Table 2's space accounting). The two
//! unit-scoped mechanisms share one semantics: each stores a unit's rows
//! as a [`datacase_core::policy::PolicySet`] and decides with
//! [`PolicySet::authorises`](datacase_core::policy::PolicySet::authorises),
//! G6's predicate, so a revocation stops access at its own instant and
//! the two differ from each other only in cost. RBAC stays coarse by
//! design: it decides per role, not per unit. The engine holds the active
//! mechanism bare and decides every access against its current state.

pub mod enforcer;
pub mod fgac;
pub mod metatable;
pub mod rbac;

pub use enforcer::{AccessRequest, Decision, PolicyEnforcer};
pub use fgac::{FgacConfig, FgacEnforcer};
pub use metatable::MetaTableEnforcer;
pub use rbac::{RbacEnforcer, Role};
