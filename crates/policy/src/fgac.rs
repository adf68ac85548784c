//! Sieve-style fine-grained access control — P_SYS's middleware (paper
//! §4.2: "retrofitted with a middleware that comprises Sieve \[51\] and
//! associated metadata which implements FGAC by exploiting a variety of
//! its features such as UDFs, index usage hints, etc. to scale to a large
//! number of policies").
//!
//! Mechanics reproduced:
//!
//! * per-unit fine-grained policies (arbitrary cardinality);
//! * a **policy index** keyed by `(entity, purpose)` whose postings are
//!   sorted by unit id for binary search — Sieve's answer to "don't scan
//!   every policy on every tuple";
//! * per-tuple **guard evaluation** at the fine-check cost — the reason
//!   P_SYS dominates read-heavy WPro in Figure 4b;
//! * guard metadata (UDF descriptors, index hints) accounted as the large
//!   per-policy metadata footprint behind Table 2's 17.1× space factor.
//!
//! The index can be disabled ([`FgacConfig::use_index`]) to reproduce
//! Sieve's motivating ablation: policy checks degrade to a linear scan
//! over the unit's policy list.

use std::collections::HashMap;

use datacase_core::ids::EntityId;
use datacase_core::ids::UnitId;
use datacase_core::policy::Policy;
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;
use datacase_sim::{Meter, SimClock};

use crate::enforcer::{AccessRequest, Decision, PolicyEnforcer};

/// FGAC middleware configuration.
#[derive(Clone, Copy, Debug)]
pub struct FgacConfig {
    /// Use the (entity, purpose) policy index (Sieve). Disabling it is the
    /// ablation: linear scans over per-unit policies.
    pub use_index: bool,
    /// Guard metadata bytes modelled per policy (UDF descriptors, hints,
    /// provenance of the policy). Sieve's "associated metadata".
    pub guard_bytes_per_policy: u64,
}

impl Default for FgacConfig {
    fn default() -> Self {
        FgacConfig {
            use_index: true,
            guard_bytes_per_policy: 96,
        }
    }
}

/// One stored fine-grained policy with its guard id.
#[derive(Clone, Debug)]
struct StoredPolicy {
    policy: Policy,
    revoked_at: Option<Ts>,
}

impl StoredPolicy {
    fn active_at(&self, t: Ts) -> bool {
        self.policy.active_at(t) && self.revoked_at.map(|r| t < r).unwrap_or(true)
    }
}

/// The FGAC enforcer.
pub struct FgacEnforcer {
    config: FgacConfig,
    /// unit → its policies.
    by_unit: HashMap<UnitId, Vec<StoredPolicy>>,
    /// (entity, purpose) → sorted unit postings (the Sieve index).
    index: HashMap<(EntityId, PurposeId), Vec<UnitId>>,
    policies: usize,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for FgacEnforcer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FgacEnforcer")
            .field("policies", &self.policies)
            .field("index_keys", &self.index.len())
            .field("indexed", &self.config.use_index)
            .finish()
    }
}

impl FgacEnforcer {
    /// A fresh enforcer.
    pub fn new(config: FgacConfig, clock: SimClock, meter: std::sync::Arc<Meter>) -> FgacEnforcer {
        FgacEnforcer {
            config,
            by_unit: HashMap::new(),
            index: HashMap::new(),
            policies: 0,
            clock,
            meter,
        }
    }

    fn index_insert(&mut self, unit: UnitId, policy: &Policy) {
        if !self.config.use_index {
            return;
        }
        let postings = self
            .index
            .entry((policy.entity, policy.purpose))
            .or_default();
        match postings.binary_search(&unit) {
            Ok(_) => {}
            Err(pos) => postings.insert(pos, unit),
        }
    }

    fn add_policy(&mut self, unit: UnitId, policy: Policy) {
        self.index_insert(unit, &policy);
        datacase_core::policy::push_row(
            self.by_unit.entry(unit).or_default(),
            StoredPolicy {
                policy,
                revoked_at: None,
            },
        );
        self.policies += 1;
    }
}

impl PolicyEnforcer for FgacEnforcer {
    fn name(&self) -> &'static str {
        "Sieve-style FGAC (P_SYS)"
    }

    fn register_unit(&mut self, unit: UnitId, policies: &[Policy]) {
        // Guard compilation + index insertion per policy.
        let model = self.clock.model().clone();
        self.clock
            .charge_nanos((model.index_maintain + model.policy_check_fine) * policies.len() as u64);
        // A unit arrives with its whole policy list: exact-sized rows.
        self.by_unit
            .entry(unit)
            .or_default()
            .reserve_exact(policies.len());
        for p in policies {
            self.add_policy(unit, *p);
        }
    }

    fn grant(&mut self, unit: UnitId, policy: Policy) {
        let model = self.clock.model().clone();
        self.clock
            .charge_nanos(model.index_maintain + model.policy_check_fine);
        self.add_policy(unit, policy);
    }

    fn revoke_all(&mut self, unit: UnitId, at: Ts) -> usize {
        let mut n = 0;
        if let Some(rows) = self.by_unit.get_mut(&unit) {
            for p in rows.iter_mut() {
                if p.revoked_at.is_none() && p.policy.active_at(at) {
                    p.revoked_at = Some(at);
                    n += 1;
                }
            }
        }
        n
    }

    fn forget_unit(&mut self, unit: UnitId) -> u64 {
        let Some(rows) = self.by_unit.remove(&unit) else {
            return 0;
        };
        for row in &rows {
            if let Some(postings) = self.index.get_mut(&(row.policy.entity, row.policy.purpose)) {
                if let Ok(pos) = postings.binary_search(&unit) {
                    postings.remove(pos);
                }
            }
        }
        self.policies -= rows.len();
        rows.len() as u64 * (64 + self.config.guard_bytes_per_policy)
    }

    fn check(&mut self, req: &AccessRequest) -> Decision {
        let model = self.clock.model().clone();
        Meter::bump(&self.meter.policy_checks, 1);
        let unit_rows = self
            .by_unit
            .get(&req.unit)
            .map(|r| r.as_slice())
            .unwrap_or(&[]);
        let rows = unit_rows.len() as u64;
        if self.config.use_index {
            // Sieve path: one index probe narrows to the posting list and
            // the index-usage hints let the rewritten query evaluate only
            // the guards attached to this tuple.
            self.clock.charge_nanos(model.index_probe);
            Meter::bump(&self.meter.index_probes, 1);
            let candidate = self
                .index
                .get(&(req.entity, req.purpose))
                .map(|postings| postings.binary_search(&req.unit).is_ok())
                .unwrap_or(false);
            if !candidate {
                Meter::bump(&self.meter.denials, 1);
                return Decision::Deny(format!(
                    "policy index has no entry ({}, {}) covering unit {}",
                    req.entity, req.purpose, req.unit
                ));
            }
            // Per-tuple guard evaluation (UDF calls): one per policy row
            // attached to the tuple.
            self.clock
                .charge_nanos(model.policy_check_fine * rows.max(1));
        } else {
            // Ablation — no policy index: the middleware scans the policy
            // rows to find applicable ones AND the rewritten query cannot
            // prune guard evaluation with index hints, so the UDF guard
            // set is several times larger (Sieve's measured 3–5× effect).
            self.clock.charge_nanos(
                model.policy_check_coarse * rows + model.policy_check_fine * rows.max(1) * 4,
            );
        }
        let allowed = unit_rows.iter().any(|row| {
            row.policy.entity == req.entity
                && row.policy.purpose == req.purpose
                && row.active_at(req.at)
        });
        if allowed {
            Decision::Allow
        } else {
            Meter::bump(&self.meter.denials, 1);
            Decision::Deny(format!(
                "no active fine-grained policy ⟨{}, {}⟩ on unit {} at {}",
                req.purpose, req.entity, req.unit, req.at
            ))
        }
    }

    fn metadata_bytes(&self) -> u64 {
        let policy_rows = self.policies as u64 * 64;
        let guards = self.policies as u64 * self.config.guard_bytes_per_policy;
        let index: u64 = self.index.values().map(|p| 24 + p.len() as u64 * 8).sum();
        policy_rows + guards + index
    }

    fn policy_count(&self) -> usize {
        self.policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::action::ActionKind;
    use datacase_core::purpose::well_known as wk;
    use std::sync::Arc;

    fn mk(use_index: bool) -> FgacEnforcer {
        FgacEnforcer::new(
            FgacConfig {
                use_index,
                ..FgacConfig::default()
            },
            SimClock::commodity(),
            Arc::new(Meter::new()),
        )
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
    fn fine_grained_windows_enforced() {
        for use_index in [true, false] {
            let mut e = mk(use_index);
            e.register_unit(
                UnitId(1),
                &[Policy::new(wk::billing(), EntityId(1), t(0), t(100))],
            );
            assert!(e.check(&req(1, 1, t(50))).is_allow(), "index={use_index}");
            assert!(!e.check(&req(1, 1, t(200))).is_allow());
            assert!(!e.check(&req(1, 2, t(50))).is_allow());
            assert!(!e.check(&req(2, 1, t(50))).is_allow());
        }
    }

    #[test]
    fn registered_units_hold_exactly_their_rows() {
        let mut e = mk(true);
        let policies: Vec<Policy> = (0..10)
            .map(|i| Policy::new(wk::billing(), EntityId(i), t(0), t(100)))
            .collect();
        e.register_unit(UnitId(1), &policies);
        assert_eq!(e.by_unit[&UnitId(1)].len(), 10);
        assert_eq!(e.by_unit[&UnitId(1)].capacity(), 10);
        // One later grant costs two more slots, not ten.
        e.grant(
            UnitId(1),
            Policy::open_ended(wk::audit(), EntityId(1), t(0)),
        );
        assert_eq!(e.policy_count(), 11);
        assert_eq!(e.by_unit[&UnitId(1)].capacity(), 12);
    }

    #[test]
    fn revocation_respected() {
        let mut e = mk(true);
        e.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        assert_eq!(e.revoke_all(UnitId(1), t(10)), 1);
        assert!(!e.check(&req(1, 1, t(11))).is_allow());
    }

    #[test]
    fn forget_unit_cleans_index_and_bytes() {
        let mut e = mk(true);
        e.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let before = e.metadata_bytes();
        let freed = e.forget_unit(UnitId(1));
        assert!(freed > 0);
        assert!(e.metadata_bytes() < before);
        assert!(!e.check(&req(1, 1, t(5))).is_allow());
        assert_eq!(e.policy_count(), 0);
    }

    #[test]
    fn checks_cost_more_than_metatable() {
        let c1 = SimClock::commodity();
        let mut fg = FgacEnforcer::new(FgacConfig::default(), c1.clone(), Arc::new(Meter::new()));
        fg.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t0 = c1.now();
        let _ = fg.check(&req(1, 1, t(5)));
        let fg_cost = c1.now().since(t0);
        // The fine guard evaluation alone exceeds a coarse check.
        assert!(fg_cost.0 >= c1.model().policy_check_fine);
    }

    #[test]
    fn index_scales_better_than_linear_scan() {
        // Many policies on one unit: the ablation's point.
        let policies: Vec<Policy> = (0..200u32)
            .map(|i| Policy::open_ended(wk::billing(), EntityId(i), t(0)))
            .collect();

        let c_idx = SimClock::commodity();
        let mut with_index =
            FgacEnforcer::new(FgacConfig::default(), c_idx.clone(), Arc::new(Meter::new()));
        with_index.register_unit(UnitId(1), &policies);
        let t0 = c_idx.now();
        let _ = with_index.check(&req(1, 7, t(5)));
        let idx_cost = c_idx.now().since(t0);

        let c_lin = SimClock::commodity();
        let mut without = FgacEnforcer::new(
            FgacConfig {
                use_index: false,
                ..FgacConfig::default()
            },
            c_lin.clone(),
            Arc::new(Meter::new()),
        );
        without.register_unit(UnitId(1), &policies);
        let t1 = c_lin.now();
        let _ = without.check(&req(1, 7, t(5)));
        let lin_cost = c_lin.now().since(t1);

        assert!(
            lin_cost.0 > 3 * idx_cost.0,
            "linear {lin_cost:?} vs indexed {idx_cost:?}"
        );
    }

    #[test]
    fn metadata_footprint_grows_with_policies() {
        let mut e = mk(true);
        for u in 0..100u64 {
            e.register_unit(
                UnitId(u),
                &[
                    Policy::open_ended(wk::billing(), EntityId(1), t(0)),
                    Policy::open_ended(wk::retention(), EntityId(2), t(0)),
                ],
            );
        }
        assert_eq!(e.policy_count(), 200);
        // 200 policies × (64 + 96 guard bytes) plus index postings.
        assert!(e.metadata_bytes() > 200 * 160);
    }

    #[test]
    fn duplicate_grants_index_once() {
        let mut e = mk(true);
        e.grant(
            UnitId(1),
            Policy::new(wk::billing(), EntityId(1), t(0), t(10)),
        );
        e.grant(
            UnitId(1),
            Policy::new(wk::billing(), EntityId(1), t(20), t(30)),
        );
        // Two windows, one posting; both enforced.
        assert!(e.check(&req(1, 1, t(5))).is_allow());
        assert!(!e.check(&req(1, 1, t(15))).is_allow());
        assert!(e.check(&req(1, 1, t(25))).is_allow());
    }
}
