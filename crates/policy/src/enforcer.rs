//! The common enforcement interface.
//!
//! Every request is decided by asking the profile's enforcer against the
//! *current* policy state — there is no cached outcome to keep sound.

use datacase_core::action::ActionKind;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::policy::Policy;
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;

/// One access request: entity `e` wants to perform `action` on `unit` for
/// `purpose` at time `at` — the inputs of the paper's policy-consistency
/// predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRequest {
    /// The data unit being touched.
    pub unit: UnitId,
    /// The acting entity.
    pub entity: EntityId,
    /// The claimed purpose.
    pub purpose: PurposeId,
    /// The action kind.
    pub action: ActionKind,
    /// When.
    pub at: Ts,
}

/// The enforcement outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Permitted.
    Allow,
    /// Denied, with a reason string for the audit log.
    Deny(String),
}

impl Decision {
    /// Was the request allowed?
    pub fn is_allow(&self) -> bool {
        matches!(self, Decision::Allow)
    }
}

/// A policy enforcement mechanism (one per compliance profile).
pub trait PolicyEnforcer: Send {
    /// Register a new unit with its initial policies.
    fn register_unit(&mut self, unit: UnitId, policies: &[Policy]);

    /// A new data-subject entity appeared (RBAC uses this to enrol the
    /// subject into the data-subject role; unit-scoped mechanisms ignore
    /// it).
    fn on_new_subject(&mut self, _entity: EntityId) {}

    /// Grant an additional policy on a unit.
    fn grant(&mut self, unit: UnitId, policy: Policy);

    /// Revoke all policies on a unit (erasure request / consent
    /// withdrawal); returns how many were revoked.
    fn revoke_all(&mut self, unit: UnitId, at: Ts) -> usize;

    /// Evaluate an access request.
    fn check(&mut self, req: &AccessRequest) -> Decision;

    /// Metadata bytes this mechanism occupies (policies + indexes).
    fn metadata_bytes(&self) -> u64;
}

/// An engine's `policy_mutations` count, as `Frontend::policy_epoch`
/// reports it: the former epoch type; ROADMAP item 25 deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolicyEpoch(pub u64);

/// The former versioning wrapper's name; ROADMAP item 25 deletes it.
pub struct VersionedEnforcer;

#[allow(clippy::new_ret_no_self)] // A bridge: `new` is the identity.
impl VersionedEnforcer {
    /// `inner`, unchanged.
    pub fn new(inner: Box<dyn PolicyEnforcer>) -> Box<dyn PolicyEnforcer> {
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_allow() {
        assert!(Decision::Allow.is_allow());
        assert!(!Decision::Deny("no".into()).is_allow());
    }
}
