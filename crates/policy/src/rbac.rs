//! Role-based access control — P_Base's enforcement (paper §4.2: "roles,
//! role attributes, and role memberships").
//!
//! RBAC is *coarse*: authorisation depends on (role, purpose, action),
//! not on the individual data unit. That is why it is the cheapest (one
//! hash lookup per check) and the least restrictive interpretation of
//! lawful processing — per-unit consent windows are not consulted.

use std::collections::{HashMap, HashSet};

use datacase_core::action::ActionKind;
use datacase_core::ids::EntityId;
use datacase_core::policy::{Policy, PolicySet};
use datacase_core::purpose::PurposeId;
use datacase_sim::{Meter, SimClock};

use crate::enforcer::{AccessRequest, Decision, PolicyEnforcer};

/// A role: a named set of (purpose, action-kind) capabilities.
#[derive(Clone, Debug, Default)]
pub struct Role {
    /// Role name.
    pub name: String,
    /// Capabilities: purpose × allowed action kinds.
    pub grants: Vec<(PurposeId, Vec<ActionKind>)>,
}

impl Role {
    /// A role with the given grants.
    pub fn new(name: &str, grants: Vec<(PurposeId, Vec<ActionKind>)>) -> Role {
        Role {
            name: name.to_owned(),
            grants,
        }
    }

    fn permits(&self, purpose: PurposeId, action: ActionKind) -> bool {
        self.grants
            .iter()
            .any(|(p, kinds)| *p == purpose && kinds.contains(&action))
    }
}

/// The RBAC enforcer.
pub struct RbacEnforcer {
    roles: Vec<Role>,
    membership: HashMap<EntityId, HashSet<usize>>,
    subject_role: Option<usize>,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for RbacEnforcer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RbacEnforcer")
            .field("roles", &self.roles.len())
            .field("members", &self.membership.len())
            .finish()
    }
}

impl RbacEnforcer {
    /// An enforcer with no roles.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> RbacEnforcer {
        RbacEnforcer {
            roles: Vec::new(),
            membership: HashMap::new(),
            subject_role: None,
            clock,
            meter,
        }
    }

    /// Designate the role newly seen data-subjects are enrolled into.
    pub fn set_subject_role(&mut self, role_id: usize) {
        assert!(role_id < self.roles.len(), "unknown role id");
        self.subject_role = Some(role_id);
    }

    /// Define a role, returning its id.
    pub fn define_role(&mut self, role: Role) -> usize {
        self.roles.push(role);
        self.roles.len() - 1
    }

    /// Add an entity to a role.
    pub fn add_member(&mut self, entity: EntityId, role_id: usize) {
        assert!(role_id < self.roles.len(), "unknown role id");
        self.membership.entry(entity).or_default().insert(role_id);
    }
}

impl PolicyEnforcer for RbacEnforcer {
    fn register_unit(&mut self, _policies: &[Policy]) {
        // RBAC keeps no per-unit state — that is exactly its coarseness.
    }

    fn on_new_subject(&mut self, entity: EntityId) {
        if let Some(role) = self.subject_role {
            self.membership.entry(entity).or_default().insert(role);
        }
    }

    fn grant(&mut self, _rows: Option<&PolicySet>, _policy: Policy) {}

    fn check(&mut self, req: &AccessRequest, _rows: Option<&PolicySet>) -> Decision {
        self.clock
            .charge_nanos(self.clock.model().policy_check_coarse);
        Meter::bump(&self.meter.policy_checks, 1);
        let allowed = self
            .membership
            .get(&req.entity)
            .map(|roles| {
                roles
                    .iter()
                    .any(|&r| self.roles[r].permits(req.purpose, req.action))
            })
            .unwrap_or(false);
        if allowed {
            Decision::Allow
        } else {
            Meter::bump(&self.meter.denials, 1);
            Decision::Deny(format!(
                "no role of {} grants {:?} for {}",
                req.entity, req.action, req.purpose
            ))
        }
    }

    fn metadata_bytes(&self) -> u64 {
        let roles: u64 = self
            .roles
            .iter()
            .map(|r| 32 + r.grants.len() as u64 * 24)
            .sum();
        let members: u64 = self
            .membership
            .values()
            .map(|s| 16 + s.len() as u64 * 8)
            .sum();
        roles + members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::ids::UnitId;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::time::Ts;
    use std::sync::Arc;

    fn mk() -> RbacEnforcer {
        RbacEnforcer::new(SimClock::commodity(), Arc::new(Meter::new()))
    }

    fn req(entity: u32, purpose: PurposeId, action: ActionKind) -> AccessRequest {
        AccessRequest {
            unit: UnitId(1),
            entity: EntityId(entity),
            purpose,
            action,
            at: Ts::from_secs(10),
        }
    }

    #[test]
    fn role_grants_access() {
        let mut e = mk();
        let billing = e.define_role(Role::new(
            "billing-service",
            vec![(wk::billing(), vec![ActionKind::Read, ActionKind::ReadMeta])],
        ));
        e.add_member(EntityId(1), billing);
        assert!(e
            .check(&req(1, wk::billing(), ActionKind::Read), None)
            .is_allow());
        assert!(!e
            .check(&req(1, wk::billing(), ActionKind::UpdateValue), None)
            .is_allow());
        assert!(!e
            .check(&req(2, wk::billing(), ActionKind::Read), None)
            .is_allow());
    }

    #[test]
    fn multiple_roles_union() {
        let mut e = mk();
        let r1 = e.define_role(Role::new(
            "reader",
            vec![(wk::billing(), vec![ActionKind::Read])],
        ));
        let r2 = e.define_role(Role::new(
            "eraser",
            vec![(wk::compliance_erase(), vec![ActionKind::Erase])],
        ));
        e.add_member(EntityId(1), r1);
        e.add_member(EntityId(1), r2);
        assert!(e
            .check(&req(1, wk::billing(), ActionKind::Read), None)
            .is_allow());
        assert!(e
            .check(&req(1, wk::compliance_erase(), ActionKind::Erase), None)
            .is_allow());
    }

    #[test]
    fn rbac_ignores_per_unit_policies() {
        // The coarseness property: consent windows are not consulted.
        let mut e = mk();
        let r = e.define_role(Role::new(
            "reader",
            vec![(wk::billing(), vec![ActionKind::Read])],
        ));
        e.add_member(EntityId(1), r);
        e.register_unit(&[]);
        // No unit policy exists, yet RBAC allows: least restrictive.
        assert!(e
            .check(
                &AccessRequest {
                    unit: UnitId(9),
                    entity: EntityId(1),
                    purpose: wk::billing(),
                    action: ActionKind::Read,
                    at: Ts::from_secs(1),
                },
                Some(&PolicySet::new()),
            )
            .is_allow());
    }

    #[test]
    fn denials_are_metered() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut e = RbacEnforcer::new(clock, meter.clone());
        let _ = e.check(&req(1, wk::billing(), ActionKind::Read), None);
        let s = meter.snapshot();
        assert_eq!(s.policy_checks, 1);
        assert_eq!(s.denials, 1);
    }

    #[test]
    fn metadata_footprint_is_small() {
        let mut e = mk();
        let r = e.define_role(Role::new(
            "reader",
            vec![(wk::billing(), vec![ActionKind::Read])],
        ));
        for i in 0..100 {
            e.add_member(EntityId(i), r);
        }
        // Constant in the number of data units: the whole point of P_Base.
        for _ in 0..10_000u64 {
            e.register_unit(&[]);
        }
        assert!(e.metadata_bytes() < 10_000);
    }

    #[test]
    #[should_panic(expected = "unknown role")]
    fn unknown_role_panics() {
        let mut e = mk();
        e.add_member(EntityId(1), 99);
    }
}
