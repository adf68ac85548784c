//! The common enforcement interface, and the wrapper that versions a
//! mechanism's policy state.
//!
//! Every request is decided by asking the profile's enforcer against the
//! *current* policy state — there is no cached outcome to keep sound.
//! [`VersionedEnforcer`] counts the policy-mutating actions routed
//! through it in a monotonic [`PolicyEpoch`]: two decisions taken at the
//! same epoch saw the same policy set.

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

/// A monotonic version counter over an enforcer's policy state.
///
/// Bumped by every policy-mutating action; two decisions computed at the
/// same epoch saw the same policy set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyEpoch(pub u64);

impl PolicyEpoch {
    /// The epoch before any mutation.
    pub const ZERO: PolicyEpoch = PolicyEpoch(0);

    /// The next epoch.
    pub fn next(self) -> PolicyEpoch {
        PolicyEpoch(self.0 + 1)
    }
}

impl std::fmt::Display for PolicyEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A policy enforcement mechanism (one per compliance profile).
pub trait PolicyEnforcer: Send {
    /// The mechanism's display name.
    fn name(&self) -> &'static str;

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

/// An enforcer wrapped with epoch versioning. One rule: every
/// [`grant`](VersionedEnforcer::grant) /
/// [`revoke_all`](VersionedEnforcer::revoke_all) routed through the
/// wrapper bumps the [`PolicyEpoch`], whatever the mechanism made of it.
pub struct VersionedEnforcer {
    inner: Box<dyn PolicyEnforcer>,
    epoch: PolicyEpoch,
}

impl std::fmt::Debug for VersionedEnforcer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedEnforcer")
            .field("inner", &self.inner.name())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl VersionedEnforcer {
    /// Wrap a mechanism, starting at [`PolicyEpoch::ZERO`].
    pub fn new(inner: Box<dyn PolicyEnforcer>) -> VersionedEnforcer {
        VersionedEnforcer {
            inner,
            epoch: PolicyEpoch::ZERO,
        }
    }

    /// The current policy epoch.
    pub fn epoch(&self) -> PolicyEpoch {
        self.epoch
    }

    /// Evaluate an access request against the current policy state.
    pub fn check(&mut self, req: &AccessRequest) -> Decision {
        self.inner.check(req)
    }

    /// Register a new unit with its initial policies. Does **not** bump
    /// the epoch: the unit's id is fresh, so no earlier decision was
    /// about it.
    pub fn register_unit(&mut self, unit: UnitId, policies: &[Policy]) {
        self.inner.register_unit(unit, policies);
    }

    /// A new data-subject entity appeared. Does not bump the epoch: the
    /// entity id is fresh, so no earlier decision named it.
    pub fn on_new_subject(&mut self, entity: EntityId) {
        self.inner.on_new_subject(entity);
    }

    /// Grant an additional policy on a unit (policy-mutating).
    pub fn grant(&mut self, unit: UnitId, policy: Policy) {
        self.epoch = self.epoch.next();
        self.inner.grant(unit, policy);
    }

    /// Revoke all policies on a unit (policy-mutating).
    pub fn revoke_all(&mut self, unit: UnitId, at: Ts) -> usize {
        self.epoch = self.epoch.next();
        self.inner.revoke_all(unit, at)
    }

    /// The wrapped mechanism, read-only.
    pub fn inner(&self) -> &dyn PolicyEnforcer {
        self.inner.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metatable::MetaTableEnforcer;
    use crate::rbac::RbacEnforcer;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::{Meter, SimClock};
    use std::sync::Arc;

    #[test]
    fn decision_is_allow() {
        assert!(Decision::Allow.is_allow());
        assert!(!Decision::Deny("no".into()).is_allow());
    }

    #[test]
    fn epoch_is_monotonic_and_ordered() {
        let e = PolicyEpoch::ZERO;
        assert!(e < e.next());
        assert_eq!(e.next().next(), PolicyEpoch(2));
        assert_eq!(format!("{}", PolicyEpoch(3)), "e3");
    }

    #[test]
    fn every_routed_mutation_bumps_the_epoch_and_registration_does_not() {
        let clock = SimClock::commodity();
        let metatable = MetaTableEnforcer::new(clock.clone(), Arc::new(Meter::new()));
        // RBAC ignores per-unit mutations; the rule holds regardless.
        let rbac = RbacEnforcer::new(clock, Arc::new(Meter::new()));
        let mechanisms: [Box<dyn PolicyEnforcer>; 2] = [Box::new(metatable), Box::new(rbac)];
        for inner in mechanisms {
            let mut v = VersionedEnforcer::new(inner);
            v.on_new_subject(EntityId(1));
            v.register_unit(UnitId(1), &[]);
            assert_eq!(v.epoch(), PolicyEpoch::ZERO, "{v:?}");
            v.grant(
                UnitId(1),
                Policy::open_ended(wk::billing(), EntityId(1), Ts::ZERO),
            );
            assert_eq!(v.epoch(), PolicyEpoch(1), "{v:?}");
            v.revoke_all(UnitId(1), Ts::from_secs(20));
            assert_eq!(v.epoch(), PolicyEpoch(2), "{v:?}");
        }
    }
}
