//! Metadata-table policy enforcement — P_GBench's mechanism (paper §4.2:
//! "stores policies and other metadata in a table separate from the one
//! containing personal data. Thus, all queries must perform joins to
//! implement appropriate policies").
//!
//! Every check pays the metadata-join cost plus a per-candidate policy
//! evaluation — finer than RBAC (real per-unit consent windows), coarser
//! and cheaper than Sieve-style FGAC.

use std::collections::HashMap;

use datacase_core::ids::UnitId;
use datacase_core::policy::Policy;
use datacase_sim::time::Ts;
use datacase_sim::{Meter, SimClock};

use crate::enforcer::{AccessRequest, Decision, PolicyEnforcer};

/// The separate policy table: unit → its policy rows.
pub struct MetaTableEnforcer {
    table: HashMap<UnitId, Vec<Policy>>,
    policies: usize,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for MetaTableEnforcer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaTableEnforcer")
            .field("units", &self.table.len())
            .field("policies", &self.policies)
            .finish()
    }
}

impl MetaTableEnforcer {
    /// An empty policy table.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> MetaTableEnforcer {
        MetaTableEnforcer {
            table: HashMap::new(),
            policies: 0,
            clock,
            meter,
        }
    }
}

impl PolicyEnforcer for MetaTableEnforcer {
    fn name(&self) -> &'static str {
        "metadata-table join (P_GBench)"
    }

    fn register_unit(&mut self, unit: UnitId, policies: &[Policy]) {
        // Each policy row is an insert into the separate metadata table.
        let model = self.clock.model().clone();
        self.clock
            .charge_nanos((model.metadata_join + model.index_maintain) * policies.len() as u64);
        self.policies += policies.len();
        self.table.insert(unit, policies.to_vec());
    }

    fn grant(&mut self, unit: UnitId, policy: Policy) {
        let model = self.clock.model().clone();
        self.clock
            .charge_nanos(model.metadata_join + model.index_maintain);
        self.table.entry(unit).or_default().push(policy);
        self.policies += 1;
    }

    fn revoke_all(&mut self, unit: UnitId, at: Ts) -> usize {
        // Model revocation as clipping windows to end now.
        let mut n = 0;
        if let Some(rows) = self.table.get_mut(&unit) {
            for p in rows.iter_mut() {
                if p.active_at(at) {
                    p.until = at;
                    n += 1;
                }
            }
        }
        n
    }

    fn forget_unit(&mut self, unit: UnitId) -> u64 {
        if let Some(rows) = self.table.remove(&unit) {
            self.policies -= rows.len();
            16 + rows.len() as u64 * 32
        } else {
            0
        }
    }

    fn check(&mut self, req: &AccessRequest) -> Decision {
        let model = self.clock.model().clone();
        // The join against the separate table.
        self.clock
            .charge_nanos(model.metadata_join + model.index_probe);
        Meter::bump(&self.meter.policy_checks, 1);
        Meter::bump(&self.meter.index_probes, 1);
        let rows: &[Policy] = self
            .table
            .get(&req.unit)
            .map(|r| r.as_slice())
            .unwrap_or(&[]);
        self.clock
            .charge_nanos(model.policy_check_coarse * rows.len() as u64);
        let allowed = rows
            .iter()
            .any(|p| p.entity == req.entity && p.purpose == req.purpose && p.active_at(req.at));
        if allowed {
            Decision::Allow
        } else {
            Meter::bump(&self.meter.denials, 1);
            Decision::Deny(format!(
                "no policy row ⟨{}, {}⟩ active at {} for unit {}",
                req.purpose, req.entity, req.at, req.unit
            ))
        }
    }

    fn metadata_bytes(&self) -> u64 {
        // Rows + the per-unit index on the policy table.
        self.policies as u64 * 32 + self.table.len() as u64 * 24
    }

    fn policy_count(&self) -> usize {
        self.policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::action::ActionKind;
    use datacase_core::ids::EntityId;
    use datacase_core::purpose::well_known as wk;
    use std::sync::Arc;

    fn mk() -> MetaTableEnforcer {
        MetaTableEnforcer::new(SimClock::commodity(), Arc::new(Meter::new()))
    }

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    fn req(unit: u64, entity: u32, at: Ts) -> AccessRequest {
        AccessRequest {
            unit: UnitId(unit),
            entity: EntityId(entity),
            purpose: wk::billing(),
            action: ActionKind::Read,
            at,
        }
    }

    #[test]
    fn per_unit_windows_enforced() {
        let mut e = mk();
        e.register_unit(
            UnitId(1),
            &[Policy::new(wk::billing(), EntityId(1), t(0), t(100))],
        );
        assert!(e.check(&req(1, 1, t(50))).is_allow());
        assert!(!e.check(&req(1, 1, t(150))).is_allow(), "window expired");
        assert!(!e.check(&req(1, 2, t(50))).is_allow(), "wrong entity");
        assert!(!e.check(&req(2, 1, t(50))).is_allow(), "unknown unit");
    }

    #[test]
    fn grant_and_revoke_all() {
        let mut e = mk();
        e.register_unit(UnitId(1), &[]);
        e.grant(
            UnitId(1),
            Policy::open_ended(wk::billing(), EntityId(1), t(0)),
        );
        assert!(e.check(&req(1, 1, t(10))).is_allow());
        assert_eq!(e.revoke_all(UnitId(1), t(20)), 1);
        assert!(!e.check(&req(1, 1, t(21))).is_allow());
        // Paper semantics: the policy row records its own end.
        assert!(e.check(&req(1, 1, t(20))).is_allow(), "inclusive end");
    }

    #[test]
    fn forget_unit_frees_metadata() {
        let mut e = mk();
        e.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let before = e.metadata_bytes();
        let freed = e.forget_unit(UnitId(1));
        assert!(freed > 0);
        assert!(e.metadata_bytes() < before);
        assert_eq!(e.policy_count(), 0);
    }

    #[test]
    fn join_cost_charged_per_check() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut e = MetaTableEnforcer::new(clock.clone(), meter.clone());
        e.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t0 = clock.now();
        let _ = e.check(&req(1, 1, t(10)));
        let cost = clock.now().since(t0);
        assert!(
            cost.0 >= clock.model().metadata_join,
            "each check pays the join"
        );
        assert_eq!(meter.snapshot().policy_checks, 1);
    }

    #[test]
    fn costlier_than_rbac() {
        // The profile ordering P_Base < P_GBench on checks.
        let c1 = SimClock::commodity();
        let m1 = Arc::new(Meter::new());
        let mut rbac = crate::rbac::RbacEnforcer::new(c1.clone(), m1);
        let role = rbac.define_role(crate::rbac::Role::new(
            "r",
            vec![(wk::billing(), vec![ActionKind::Read])],
        ));
        rbac.add_member(EntityId(1), role);
        let t0 = c1.now();
        let _ = rbac.check(&req(1, 1, t(10)));
        let rbac_cost = c1.now().since(t0);

        let c2 = SimClock::commodity();
        let m2 = Arc::new(Meter::new());
        let mut mt = MetaTableEnforcer::new(c2.clone(), m2);
        mt.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t1 = c2.now();
        let _ = mt.check(&req(1, 1, t(10)));
        let mt_cost = c2.now().since(t1);
        assert!(mt_cost > rbac_cost);
    }
}
