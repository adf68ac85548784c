//! The unit-scoped policy table: one type behind P_GBench's metadata
//! table and P_SYS's Sieve FGAC middleware (paper §4.2).
//!
//! A unit's rows live once, in the model, as the [`PolicySet`] G6 reads.
//! The table keeps only its books and decides from the rows it is handed
//! with G6's predicate, [`PolicySet::authorises`], so a revocation ends
//! access at its own instant under either mechanism, and a derived unit
//! is decided on its own rows. The mechanisms differ only in the work
//! they charge and the metadata they occupy, so the [`Mechanism`] is data:
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
//! The books are the units registered, the rows ever granted and the
//! indexed Sieve's index size. A posting is added for every granted
//! policy and never removed, so a unit is a candidate for
//! `(entity, purpose)` exactly when one of its rows
//! [names](PolicySet::names) the pair: the probe is answered from the
//! rows, and the index keeps only its keys and its count of distinct
//! `(unit, entity, purpose)` postings, deduplicated against the unit's
//! rows from before each grant.

use std::collections::HashSet;
use std::sync::Arc;

use datacase_core::ids::EntityId;
use datacase_core::policy::{Policy, PolicySet};
use datacase_core::purpose::PurposeId;
use datacase_sim::{Meter, SimClock};

use crate::enforcer::{AccessRequest, Decision, PolicyEnforcer};

/// How a [`PolicyTable`] enforces a unit's rows.
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

/// The books of the units' policy rows, enforced by one [`Mechanism`].
pub struct PolicyTable {
    mechanism: Mechanism,
    /// Units registered.
    units: u64,
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
            .field("units", &self.units)
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
            units: 0,
            granted: 0,
            index_keys: HashSet::new(),
            postings: 0,
            clock,
            meter,
        }
    }

    /// What [`register_unit`](PolicyEnforcer::register_unit) and
    /// [`grant`](PolicyEnforcer::grant) share: charge the write of each
    /// of `policies` and book the postings they add to a unit whose rows
    /// before them are `rows`.
    fn add(&mut self, rows: Option<&PolicySet>, policies: &[Policy]) {
        let model = self.clock.model();
        let per_row = match self.mechanism {
            // An insert into the separate metadata table.
            Mechanism::MetaTable => model.metadata_join + model.index_maintain,
            // Guard compilation and index insertion.
            Mechanism::Sieve { .. } => model.index_maintain + model.policy_check_fine,
        };
        self.clock.charge_nanos(per_row * policies.len() as u64);
        self.granted += policies.len() as u64;
        if self.mechanism == (Mechanism::Sieve { indexed: true }) {
            for (i, p) in policies.iter().enumerate() {
                let pair = |q: &Policy| (q.entity, q.purpose) == (p.entity, p.purpose);
                let posted = rows.is_some_and(|r| r.names(p.purpose, p.entity));
                if !posted && !policies[..i].iter().any(pair) {
                    self.postings += 1;
                    self.index_keys.insert((p.entity, p.purpose));
                }
            }
        }
    }
}

impl PolicyEnforcer for PolicyTable {
    fn register_unit(&mut self, policies: &[Policy]) {
        self.units += 1;
        self.add(None, policies);
    }

    fn grant(&mut self, rows: Option<&PolicySet>, policy: Policy) {
        self.add(rows, &[policy]);
    }

    fn check(&mut self, req: &AccessRequest, unit_rows: Option<&PolicySet>) -> Decision {
        let model = self.clock.model();
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
            Mechanism::MetaTable => self.granted * 32 + self.units * 24,
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
    use datacase_core::ids::UnitId;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::time::Ts;

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

    /// Register a unit with `policies` on `table`, returning the rows the
    /// model keeps for it.
    fn register(table: &mut PolicyTable, policies: &[Policy]) -> PolicySet {
        table.register_unit(policies);
        let mut rows = PolicySet::new();
        rows.grant_all(policies);
        rows
    }

    /// Grant `policy` on `rows` through `table`, as the engine does: the
    /// table sees the rows from before the grant.
    fn grant(table: &mut PolicyTable, rows: &mut PolicySet, policy: Policy) {
        table.grant(Some(&*rows), policy);
        rows.grant(policy);
    }

    #[test]
    fn meta_table_enforces_per_unit_windows() {
        let mut e = mk(Mechanism::MetaTable);
        let rows = register(
            &mut e,
            &[Policy::new(wk::billing(), EntityId(1), t(0), t(100))],
        );
        let rows = Some(&rows);
        assert!(e.check(&req(1, 1, t(50)), rows).is_allow());
        assert!(
            !e.check(&req(1, 1, t(150)), rows).is_allow(),
            "window expired"
        );
        assert!(!e.check(&req(1, 2, t(50)), rows).is_allow(), "wrong entity");
        assert!(!e.check(&req(2, 1, t(50)), None).is_allow(), "unknown unit");
    }

    #[test]
    fn meta_table_grants_and_revokes_all() {
        let mut e = mk(Mechanism::MetaTable);
        let mut rows = register(&mut e, &[]);
        grant(
            &mut e,
            &mut rows,
            Policy::open_ended(wk::billing(), EntityId(1), t(0)),
        );
        assert!(e.check(&req(1, 1, t(10)), Some(&rows)).is_allow());
        assert_eq!(rows.revoke_all(t(20)), 1);
        assert!(!e.check(&req(1, 1, t(21)), Some(&rows)).is_allow());
        // G6's semantics: a revocation ends access at its own instant.
        assert!(
            !e.check(&req(1, 1, t(20)), Some(&rows)).is_allow(),
            "revoked at the instant"
        );
        assert!(e.check(&req(1, 1, t(19)), Some(&rows)).is_allow());
    }

    #[test]
    fn meta_table_charges_the_join_per_check() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut e = PolicyTable::new(Mechanism::MetaTable, clock.clone(), meter.clone());
        let rows = register(
            &mut e,
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t0 = clock.now();
        let _ = e.check(&req(1, 1, t(10)), Some(&rows));
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
        let _ = rbac.check(&req(1, 1, t(10)), None);
        let rbac_cost = c1.now().since(t0);

        let c2 = SimClock::commodity();
        let m2 = Arc::new(Meter::new());
        let mut mt = PolicyTable::new(Mechanism::MetaTable, c2.clone(), m2);
        let rows = register(
            &mut mt,
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t1 = c2.now();
        let _ = mt.check(&req(1, 1, t(10)), Some(&rows));
        let mt_cost = c2.now().since(t1);
        assert!(mt_cost > rbac_cost);
    }

    #[test]
    fn sieve_enforces_fine_grained_windows() {
        for mechanism in [SIEVE, SIEVE_UNINDEXED] {
            let mut e = mk(mechanism);
            let rows = register(
                &mut e,
                &[Policy::new(wk::billing(), EntityId(1), t(0), t(100))],
            );
            let rows = Some(&rows);
            assert!(e.check(&req(1, 1, t(50)), rows).is_allow(), "{mechanism:?}");
            assert!(!e.check(&req(1, 1, t(200)), rows).is_allow());
            assert!(!e.check(&req(1, 2, t(50)), rows).is_allow());
            assert!(!e.check(&req(2, 1, t(50)), None).is_allow());
        }
    }

    #[test]
    fn sieve_respects_revocation() {
        let mut e = mk(SIEVE);
        let mut rows = register(
            &mut e,
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        assert_eq!(rows.revoke_all(t(10)), 1);
        assert!(!e.check(&req(1, 1, t(10)), Some(&rows)).is_allow());
        assert!(!e.check(&req(1, 1, t(11)), Some(&rows)).is_allow());
    }

    #[test]
    fn sieve_checks_cost_more_than_meta_table() {
        let c1 = SimClock::commodity();
        let mut fg = PolicyTable::new(SIEVE, c1.clone(), Arc::new(Meter::new()));
        let rows = register(
            &mut fg,
            &[Policy::open_ended(wk::billing(), EntityId(1), t(0))],
        );
        let t0 = c1.now();
        let _ = fg.check(&req(1, 1, t(5)), Some(&rows));
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
        let rows = register(&mut with_index, &policies);
        let t0 = c_idx.now();
        let _ = with_index.check(&req(1, 7, t(5)), Some(&rows));
        let idx_cost = c_idx.now().since(t0);

        let c_lin = SimClock::commodity();
        let mut without = PolicyTable::new(SIEVE_UNINDEXED, c_lin.clone(), Arc::new(Meter::new()));
        let rows = register(&mut without, &policies);
        let t1 = c_lin.now();
        let _ = without.check(&req(1, 7, t(5)), Some(&rows));
        let lin_cost = c_lin.now().since(t1);

        assert!(
            lin_cost.0 > 3 * idx_cost.0,
            "linear {lin_cost:?} vs indexed {idx_cost:?}"
        );
    }

    #[test]
    fn sieve_metadata_footprint_grows_with_policies() {
        let mut e = mk(SIEVE);
        for _ in 0..100u64 {
            register(
                &mut e,
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
        let mut rows = PolicySet::new();
        grant(
            &mut e,
            &mut rows,
            Policy::new(wk::billing(), EntityId(1), t(0), t(10)),
        );
        grant(
            &mut e,
            &mut rows,
            Policy::new(wk::billing(), EntityId(1), t(20), t(30)),
        );
        // Two windows, one posting; both enforced.
        assert!(e.check(&req(1, 1, t(5)), Some(&rows)).is_allow());
        assert!(!e.check(&req(1, 1, t(15)), Some(&rows)).is_allow());
        assert!(e.check(&req(1, 1, t(25)), Some(&rows)).is_allow());
    }
}
