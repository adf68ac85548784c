#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-policy
//!
//! The policy-enforcement substrates behind the paper's compliance
//! profiles (§4.2):
//!
//! * [`rbac`] — role-based access control: the coarse, cheap enforcement
//!   P_Base uses (roles, role attributes, memberships);
//! * [`table`] — the unit-scoped policy table, enforced by one of two
//!   mechanisms: a *separate metadata table* that every data operation
//!   joins against (P_GBench), or Sieve-style fine-grained access control
//!   middleware, per-tuple guards behind an (entity, purpose) policy
//!   index (P_SYS).
//!
//! Both implement [`enforcer::PolicyEnforcer`], charge their distinct
//! cost signatures to the shared [`datacase_sim::SimClock`], and report the
//! metadata bytes they occupy (Table 2's space accounting). Neither keeps
//! a unit's rows: they live once, in the model, as the unit's
//! [`datacase_core::policy::PolicySet`], and every call is handed them.
//! The table keeps its books and decides with
//! [`PolicySet::authorises`](datacase_core::policy::PolicySet::authorises),
//! G6's predicate, so a revocation stops access at its own instant and
//! the two mechanisms differ only in cost: they are one type, and the
//! mechanism is data. RBAC stays coarse by design: it decides per role,
//! not per unit, and ignores the rows.
//!
//! [`fgac`] and [`metatable`] keep the two mechanisms' former type names
//! as bridges to the table, and [`enforcer`] the versioning wrapper's,
//! which keeps rows for the benchmark alone; ROADMAP item 25 deletes them.

pub mod enforcer;
pub mod fgac;
pub mod metatable;
pub mod rbac;
pub mod table;

pub use enforcer::{AccessRequest, Decision, PolicyEnforcer};
pub use rbac::{RbacEnforcer, Role};
pub use table::{Mechanism, PolicyTable};
