//! The unit-scoped policy table: one type behind P_GBench's metadata
//! table and P_SYS's Sieve FGAC middleware (paper §4.2).
//!
//! Both keep each unit's policy rows as a [`PolicySet`] and decide with
//! G6's predicate, [`PolicySet::authorises`], so a revocation ends access
//! at its own instant under either. They differ only in the work they
//! charge and the metadata they occupy, so the [`Mechanism`] is data:
//!
//! * [`Mechanism::MetaTable`] — "stores policies and other metadata in a
//!   table separate from the one containing personal data. Thus, all
//!   queries must perform joins": every row written pays a join and an
//!   index update, and every check pays the join, one index probe and a
//!   coarse evaluation per row of the unit;
//! * [`Mechanism::Sieve`] — "a middleware that comprises Sieve \[51\] and
//!   associated metadata which implements FGAC by exploiting ... UDFs,
//!   index usage hints, etc.": every row written pays guard compilation
//!   and an index insertion, and every check one probe of the
//!   `(entity, purpose)` policy index, then one fine guard evaluation per
//!   row of the unit — the reason P_SYS dominates read-heavy WPro in
//!   Figure 4b. Unindexed is Sieve's motivating ablation: the checks scan
//!   the rows, and without index hints evaluate four times the guards.
//!
//! Sieve's index is kept as its books. A posting is added for every
//! granted policy and never removed, so a unit is a candidate for
//! `(entity, purpose)` exactly when one of its rows
//! [names](PolicySet::names) the pair: the probe is answered from the
//! rows, and the index keeps only its size for Table 2's space
//! accounting — its keys and its count of distinct
//! `(unit, entity, purpose)` postings. The unindexed ablation keeps none.

use std::collections::HashSet;
use std::sync::Arc;

use datacase_core::ids::{EntityId, UnitId, UnitMap};
use datacase_core::policy::{Policy, PolicySet};
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;
use datacase_sim::{Meter, SimClock};

use crate::enforcer::{AccessRequest, Decision, PolicyEnforcer};

/// How a [`PolicyTable`] enforces its rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// P_GBench: a separate metadata table, joined on every check.
    MetaTable,
    /// P_SYS: Sieve FGAC middleware with per-row guards.
    Sieve {
        /// Probe the `(entity, purpose)` policy index first; `false` is
        /// the ablation, a scan of the unit's rows.
        indexed: bool,
    },
}

/// Guard metadata bytes modelled per Sieve policy row (UDF descriptors,
/// index hints, the policy's provenance): Sieve's "associated metadata".
const GUARD_BYTES_PER_POLICY: u64 = 96;

/// Each unit's policy rows, enforced by one [`Mechanism`].
pub struct PolicyTable {
    mechanism: Mechanism,
    /// unit → its policy rows, a slot per dense unit id.
    rows: UnitMap<PolicySet>,
    /// Rows ever granted, across units.
    granted: u64,
    /// The indexed Sieve's books: the index's keys ...
    index_keys: HashSet<(EntityId, PurposeId)>,
    /// ... and its postings, one per distinct `(unit, entity, purpose)`.
    postings: u64,
    clock: SimClock,
    meter: Arc<Meter>,
}

impl std::fmt::Debug for PolicyTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyTable")
            .field("mechanism", &self.mechanism)
            .field("units", &self.rows.len())
            .field("granted", &self.granted)
            .finish()
    }
}

impl PolicyTable {
    /// An empty table enforced by `mechanism`, charging `clock` and
    /// `meter`.
    pub fn new(mechanism: Mechanism, clock: SimClock, meter: Arc<Meter>) -> PolicyTable {
        PolicyTable {
            mechanism,
            rows: UnitMap::new(),
            granted: 0,
            index_keys: HashSet::new(),
            postings: 0,
            clock,
            meter,
        }
    }

    /// What [`register_unit`](PolicyEnforcer::register_unit) and
    /// [`grant`](PolicyEnforcer::grant) share: charge the write of each
    /// of `policies`, book the postings they add, and hand back `unit`'s
    /// rows for the caller to grant them into.
    fn add(&mut self, unit: UnitId, policies: &[Policy]) -> &mut PolicySet {
        let model = self.clock.model();
        let per_row = match self.mechanism {
            // An insert into the separate metadata table.
            Mechanism::MetaTable => model.metadata_join + model.index_maintain,
            // Guard compilation and index insertion.
            Mechanism::Sieve { .. } => model.index_maintain + model.policy_check_fine,
        };
        self.clock.charge_nanos(per_row * policies.len() as u64);
        self.granted += policies.len() as u64;
        let rows = self.rows.get_or_insert_default(unit);
        if self.mechanism == (Mechanism::Sieve { indexed: true }) {
            for (i, p) in policies.iter().enumerate() {
                let pair = |q: &Policy| (q.entity, q.purpose) == (p.entity, p.purpose);
                if !rows.names(p.purpose, p.entity) && !policies[..i].iter().any(pair) {
                    self.postings += 1;
                    self.index_keys.insert((p.entity, p.purpose));
                }
            }
        }
        rows
    }
}

impl PolicyEnforcer for PolicyTable {
    fn register_unit(&mut self, unit: UnitId, policies: &[Policy]) {
        self.add(unit, policies).grant_all(policies);
    }

    fn grant(&mut self, unit: UnitId, policy: Policy) {
        self.add(unit, &[policy]).grant(policy);
    }

    fn revoke_all(&mut self, unit: UnitId, at: Ts) -> usize {
        self.rows
            .get_mut(unit)
            .map_or(0, |rows| rows.revoke_all(at))
    }

    fn check(&mut self, req: &AccessRequest) -> Decision {
        let model = self.clock.model();
        let unit_rows = self.rows.get(req.unit);
        let rows = unit_rows.map_or(0, PolicySet::len) as u64;
        Meter::bump(&self.meter.policy_checks, 1);
        match self.mechanism {
            Mechanism::MetaTable => {
                // The join against the separate table, then a coarse
                // evaluation of each of the unit's rows.
                self.clock
                    .charge_nanos(model.metadata_join + model.index_probe);
                Meter::bump(&self.meter.index_probes, 1);
                self.clock.charge_nanos(model.policy_check_coarse * rows);
            }
            Mechanism::Sieve { indexed: true } => {
                // One index probe narrows to the posting list, and the
                // index-usage hints let the rewritten query evaluate only
                // the guards attached to this tuple.
                self.clock.charge_nanos(model.index_probe);
                Meter::bump(&self.meter.index_probes, 1);
                if !unit_rows.is_some_and(|r| r.names(req.purpose, req.entity)) {
                    Meter::bump(&self.meter.denials, 1);
                    return Decision::Deny(format!(
                        "policy index has no entry ({}, {}) covering unit {}",
                        req.entity, req.purpose, req.unit
                    ));
                }
                self.clock
                    .charge_nanos(model.policy_check_fine * rows.max(1));
            }
            Mechanism::Sieve { indexed: false } => {
                // No index: a scan of the rows to find the applicable
                // ones, and without index hints the UDF guard set is
                // several times larger (Sieve's measured 3–5× effect).
                self.clock.charge_nanos(
                    model.policy_check_coarse * rows + model.policy_check_fine * rows.max(1) * 4,
                );
            }
        }
        if unit_rows.is_some_and(|r| r.authorises(req.purpose, req.entity, req.at)) {
            return Decision::Allow;
        }
        Meter::bump(&self.meter.denials, 1);
        Decision::Deny(match self.mechanism {
            Mechanism::MetaTable => format!(
                "no policy row ⟨{}, {}⟩ active at {} for unit {}",
                req.purpose, req.entity, req.at, req.unit
            ),
            Mechanism::Sieve { .. } => format!(
                "no active fine-grained policy ⟨{}, {}⟩ on unit {} at {}",
                req.purpose, req.entity, req.unit, req.at
            ),
        })
    }

    fn metadata_bytes(&self) -> u64 {
        match self.mechanism {
            // Rows plus the per-unit index on the policy table.
            Mechanism::MetaTable => self.granted * 32 + self.rows.len() as u64 * 24,
            // Rows with their guard metadata, plus the index: a header
            // per key and a unit id per posting.
            Mechanism::Sieve { .. } => {
                self.granted * (64 + GUARD_BYTES_PER_POLICY)
                    + 24 * self.index_keys.len() as u64
                    + 8 * self.postings
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::action::ActionKind;
    use datacase_core::purpose::well_known as wk;

    const SIEVE: Mechanism = Mechanism::Sieve { indexed: true };
    const SIEVE_UNINDEXED: Mechanism = Mechanism::Sieve { indexed: false };

    fn mk(mechanism: Mechanism) -> PolicyTable {
        PolicyTable::new(mechanism, SimClock::commodity(), Arc::new(Meter::new()))
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
    fn meta_table_enforces_per_unit_windows() {
        let mut e = mk(Mechanism::MetaTable);
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
    fn meta_table_grants_and_revokes_all() {
        let mut e = mk(Mechanism::MetaTable);
        e.register_unit(UnitId(1), &[]);
        e.grant(
            UnitId(1),
            Policy::open_ended(wk::billing(), EntityId(1), t(0)),
        );
        assert!(e.check(&req(1, 1, t(10))).is_allow());
        assert_eq!(e.revoke_all(UnitId(1), t(20)), 1);
        assert!(!e.check(&req(1, 1, t(21))).is_allow());
        // G6's semantics: a revocation ends access at its own instant.
        assert!(
            !e.check(&req(1, 1, t(20))).is_allow(),
            "revoked at the instant"
        );
        assert!(e.check(&req(1, 1, t(19))).is_allow());
    }

    #[test]
    fn meta_table_charges_the_join_per_check() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut e = PolicyTable::new(Mechanism::MetaTable, clock.clone(), meter.clone());
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
    fn meta_table_checks_cost_more_than_rbac() {
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
        let mut mt = PolicyTable::new(Mechanism::MetaTable, c2.clone(), m2);
        mt.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t1 = c2.now();
        let _ = mt.check(&req(1, 1, t(10)));
        let mt_cost = c2.now().since(t1);
        assert!(mt_cost > rbac_cost);
    }

    #[test]
    fn sieve_enforces_fine_grained_windows() {
        for mechanism in [SIEVE, SIEVE_UNINDEXED] {
            let mut e = mk(mechanism);
            e.register_unit(
                UnitId(1),
                &[Policy::new(wk::billing(), EntityId(1), t(0), t(100))],
            );
            assert!(e.check(&req(1, 1, t(50))).is_allow(), "{mechanism:?}");
            assert!(!e.check(&req(1, 1, t(200))).is_allow());
            assert!(!e.check(&req(1, 2, t(50))).is_allow());
            assert!(!e.check(&req(2, 1, t(50))).is_allow());
        }
    }

    #[test]
    fn sieve_respects_revocation() {
        let mut e = mk(SIEVE);
        e.register_unit(
            UnitId(1),
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        assert_eq!(e.revoke_all(UnitId(1), t(10)), 1);
        assert!(!e.check(&req(1, 1, t(10))).is_allow());
        assert!(!e.check(&req(1, 1, t(11))).is_allow());
    }

    #[test]
    fn sieve_checks_cost_more_than_meta_table() {
        let c1 = SimClock::commodity();
        let mut fg = PolicyTable::new(SIEVE, c1.clone(), Arc::new(Meter::new()));
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
    fn sieve_index_scales_better_than_linear_scan() {
        // Many policies on one unit: the ablation's point.
        let policies: Vec<Policy> = (0..200u32)
            .map(|i| Policy::open_ended(wk::billing(), EntityId(i), t(0)))
            .collect();

        let c_idx = SimClock::commodity();
        let mut with_index = PolicyTable::new(SIEVE, c_idx.clone(), Arc::new(Meter::new()));
        with_index.register_unit(UnitId(1), &policies);
        let t0 = c_idx.now();
        let _ = with_index.check(&req(1, 7, t(5)));
        let idx_cost = c_idx.now().since(t0);

        let c_lin = SimClock::commodity();
        let mut without = PolicyTable::new(SIEVE_UNINDEXED, c_lin.clone(), Arc::new(Meter::new()));
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
    fn sieve_metadata_footprint_grows_with_policies() {
        let mut e = mk(SIEVE);
        for u in 0..100u64 {
            e.register_unit(
                UnitId(u),
                &[
                    Policy::open_ended(wk::billing(), EntityId(1), t(0)),
                    Policy::open_ended(wk::retention(), EntityId(2), t(0)),
                ],
            );
        }
        // 200 policies × (64 + 96 guard bytes) plus index postings.
        assert!(e.metadata_bytes() > 200 * 160);
    }

    #[test]
    fn sieve_duplicate_grants_index_once() {
        let mut e = mk(SIEVE);
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
