//! Property-based tests over the policy enforcement substrates.
//!
//! The central property: the *unit-scoped* policy table, under each of its
//! mechanisms (metadata table, and Sieve FGAC indexed or not), decides
//! exactly as G6's predicate,
//! [`PolicySet::authorises`] over the same grants and revocations — they
//! differ in cost and metadata footprint, never in verdict, and a
//! revocation ends access at its own instant in all of them. That is
//! exactly the paper's framing: interpretations differ in system-actions
//! and overheads, while a fixed grounding fixes the semantics.

use data_case::sim::check::{check, Source};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use data_case::core::action::ActionKind;
use data_case::core::ids::{EntityId, UnitId};
use data_case::core::policy::{Policy, PolicySet};
use data_case::core::purpose::PurposeId;
use data_case::policy::enforcer::{AccessRequest, PolicyEnforcer};
use data_case::policy::table::{Mechanism, PolicyTable};
use data_case::sim::time::Ts;
use data_case::sim::{Meter, SimClock};

fn purposes() -> Vec<PurposeId> {
    vec![
        PurposeId::new("prop-billing"),
        PurposeId::new("prop-analytics"),
        PurposeId::new("prop-retention"),
    ]
}

fn mk(mechanism: Mechanism) -> PolicyTable {
    PolicyTable::new(mechanism, SimClock::commodity(), Arc::new(Meter::new()))
}

#[test]
fn unit_scoped_enforcers_are_decision_equivalent() {
    check("unit_scoped_enforcers_are_decision_equivalent", 48, |s| {
        let grants = s.vec(0..25, |s| {
            (
                s.range(0u64..6),
                s.range(0u32..4),
                s.range(0usize..3),
                s.range(0u64..50),
                s.range(50u64..100),
            )
        });
        let checks = s.vec(1..40, |s| {
            (
                s.range(0u64..6),
                s.range(0u32..4),
                s.range(0usize..3),
                s.range(0u64..120),
            )
        });
        let revoke = s.option(|s| (s.range(0u64..6), s.range(0u64..110)));
        let ps = purposes();
        let mut meta = mk(Mechanism::MetaTable);
        let mut fgac_i = mk(Mechanism::Sieve { indexed: true });
        let mut fgac_l = mk(Mechanism::Sieve { indexed: false });
        // G6's predicate over the same grants: one policy set per unit.
        let mut model: HashMap<u64, PolicySet> = HashMap::new();

        for &(unit, entity, pi, from, until) in &grants {
            let policy = Policy::new(
                ps[pi],
                EntityId(entity),
                Ts::from_secs(from),
                Ts::from_secs(until),
            );
            meta.grant(UnitId(unit), policy);
            fgac_i.grant(UnitId(unit), policy);
            fgac_l.grant(UnitId(unit), policy);
            model.entry(unit).or_default().grant(policy);
        }
        let mut probes: Vec<(u64, u32, usize, Ts)> = checks
            .iter()
            .map(|&(unit, entity, pi, at)| (unit, entity, pi, Ts::from_secs(at)))
            .collect();
        if let Some((unit, at)) = revoke {
            let r = Ts::from_secs(at);
            let a = meta.revoke_all(UnitId(unit), r);
            let b = fgac_i.revoke_all(UnitId(unit), r);
            let c = fgac_l.revoke_all(UnitId(unit), r);
            let d = model.get_mut(&unit).map_or(0, |set| set.revoke_all(r));
            assert_eq!((a, b, c), (d, d, d), "revoked rows on unit {unit} at {r}");
            // The revocation instant, and one second either side of it,
            // for every entity and purpose on the revoked unit.
            for at in [at.saturating_sub(1), at, at + 1] {
                for entity in 0..4 {
                    for pi in 0..ps.len() {
                        probes.push((unit, entity, pi, Ts::from_secs(at)));
                    }
                }
            }
        }
        for (unit, entity, pi, at) in probes {
            let req = AccessRequest {
                unit: UnitId(unit),
                entity: EntityId(entity),
                purpose: ps[pi],
                action: ActionKind::Read,
                at,
            };
            let m = meta.check(&req).is_allow();
            let fi = fgac_i.check(&req).is_allow();
            let fl = fgac_l.check(&req).is_allow();
            let g6 = model
                .get(&unit)
                .is_some_and(|set| set.authorises(ps[pi], EntityId(entity), at));
            assert_eq!(
                (m, fi, fl),
                (g6, g6, g6),
                "metatable={m} fgac={fi} fgac-linear={fl} model={g6} on {req:?}"
            );
        }
    });
}

/// Metadata footprint is monotone in the number of live policies.
#[test]
fn metadata_bytes_monotone() {
    check("metadata_bytes_monotone", 48, |s| {
        let n = s.range(1usize..60);
        let p = PurposeId::new("prop-bytes");
        let mut e = mk(Mechanism::Sieve { indexed: true });
        let mut last = e.metadata_bytes();
        for i in 0..n {
            e.grant(
                UnitId(i as u64),
                Policy::open_ended(p, EntityId(1), Ts::ZERO),
            );
            let now = e.metadata_bytes();
            assert!(now > last);
            last = now;
        }
    });
}

/// The indexed Sieve table keeps its index as books — a key set and a
/// posting count — instead of postings. Its footprint must still be what
/// the postings it stands for would occupy, rebuilt here from the stream:
/// 160 B a row ever granted, 24 B a distinct `(entity, purpose)` key and
/// 8 B a distinct `(unit, entity, purpose)` posting. The registered lists
/// repeat pairs within themselves and across later grants, and some
/// grants go to units never registered.
#[test]
fn sieve_books_match_postings_rebuilt_from_the_stream() {
    check(
        "sieve_books_match_postings_rebuilt_from_the_stream",
        48,
        |s| {
            fn policy(s: &mut Source) -> (u32, usize, u64) {
                (s.range(0u32..3), s.range(0usize..3), s.range(0u64..50))
            }
            let registered = s.vec(0..6, |s| s.vec(0..8, policy));
            let grants = s.vec(0..20, |s| (s.range(0u64..10), policy(s)));
            let ps = purposes();
            let mk_policy = |(entity, pi, from): (u32, usize, u64)| {
                Policy::open_ended(ps[pi], EntityId(entity), Ts::from_secs(from))
            };
            let mut table = mk(Mechanism::Sieve { indexed: true });
            let mut rows = 0u64;
            let mut keys = HashSet::new();
            let mut postings = HashSet::new();
            let mut book = |unit: u64, p: &Policy| {
                rows += 1;
                keys.insert((p.entity, p.purpose));
                postings.insert((unit, p.entity, p.purpose));
            };
            for (unit, list) in registered.iter().enumerate() {
                let list: Vec<Policy> = list.iter().copied().map(mk_policy).collect();
                table.register_unit(UnitId(unit as u64), &list);
                list.iter().for_each(|p| book(unit as u64, p));
            }
            for &(unit, p) in &grants {
                let p = mk_policy(p);
                table.grant(UnitId(unit), p);
                book(unit, &p);
            }
            let want = 160 * rows + 24 * keys.len() as u64 + 8 * postings.len() as u64;
            assert_eq!(
                table.metadata_bytes(),
                want,
                "{rows} rows, {} keys, {} postings",
                keys.len(),
                postings.len()
            );
        },
    );
}
