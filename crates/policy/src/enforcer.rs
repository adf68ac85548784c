//! The common enforcement interface.
//!
//! Every request is decided by asking the profile's enforcer against the
//! unit's *current* rows, which the model holds and hands in — there is
//! no cached outcome, and no second copy of the rows, to keep sound.

use datacase_core::action::ActionKind;
use datacase_core::ids::{EntityId, UnitId, UnitMap};
use datacase_core::policy::{Policy, PolicySet};
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

/// A policy enforcement mechanism (one per compliance profile). It keeps
/// no unit's rows: the model holds each unit's [`PolicySet`] and hands it in.
pub trait PolicyEnforcer: Send {
    /// Register a new unit with its initial policies.
    fn register_unit(&mut self, policies: &[Policy]);

    /// A new data-subject entity appeared (RBAC uses this to enrol the
    /// subject into the data-subject role; unit-scoped mechanisms ignore
    /// it).
    fn on_new_subject(&mut self, _entity: EntityId) {}

    /// Grant an additional policy on a unit whose rows *before* the grant
    /// are `rows` (`None` for a unit that has none).
    fn grant(&mut self, rows: Option<&PolicySet>, policy: Policy);

    /// Evaluate an access request against the unit's current `rows`.
    fn check(&mut self, req: &AccessRequest, rows: Option<&PolicySet>) -> Decision;

    /// Metadata bytes this mechanism occupies (policies + indexes).
    fn metadata_bytes(&self) -> u64;
}

/// An engine's `policy_mutations` count, as `Frontend::policy_epoch`
/// reports it: the former epoch type; ROADMAP item 25 deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolicyEpoch(pub u64);

/// The former versioning wrapper's name, and the one holder of policy
/// rows outside the model: it keeps each registered unit's rows for a
/// standalone enforcer, for the benchmark's policy probe alone. Nothing
/// in the workspace builds it; ROADMAP item 25 deletes it.
pub struct VersionedEnforcer {
    inner: Box<dyn PolicyEnforcer>,
    rows: UnitMap<PolicySet>,
}

impl VersionedEnforcer {
    /// `inner`, keeping rows for it.
    pub fn new(inner: Box<dyn PolicyEnforcer>) -> VersionedEnforcer {
        VersionedEnforcer {
            inner,
            rows: UnitMap::new(),
        }
    }

    /// See [`PolicyEnforcer::on_new_subject`].
    pub fn on_new_subject(&mut self, entity: EntityId) {
        self.inner.on_new_subject(entity);
    }

    /// Register `unit` with `policies`, keeping its rows.
    pub fn register_unit(&mut self, unit: UnitId, policies: &[Policy]) {
        self.inner.register_unit(policies);
        self.rows.get_or_insert_default(unit).grant_all(policies);
    }

    /// Decide `req` against the rows kept for its unit.
    pub fn check(&mut self, req: &AccessRequest) -> Decision {
        self.inner.check(req, self.rows.get(req.unit))
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
