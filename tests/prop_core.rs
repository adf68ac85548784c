//! Property-based tests over the Data-CASE model.

use data_case::sim::check::check;

use data_case::core::action::Action;
use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::core::history::HistoryTuple;
use data_case::core::ids::EntityId;
use data_case::core::policy::{Policy, PolicySet};
use data_case::core::purpose::PurposeId;
use data_case::core::timeline::ErasureTimeline;
use data_case::sim::time::Ts;

const INTERPRETATIONS: [ErasureInterpretation; 4] = [
    ErasureInterpretation::ReversiblyInaccessible,
    ErasureInterpretation::Deleted,
    ErasureInterpretation::StronglyDeleted,
    ErasureInterpretation::PermanentlyDeleted,
];

/// `P(t)` is exactly the set of granted, unexpired, unrevoked windows.
#[test]
fn active_policy_set_matches_window_algebra() {
    check("active_policy_set_matches_window_algebra", 64, |s| {
        let grants = s.vec(1..20, |s| {
            (s.range(0u64..100), s.range(0u64..100), s.range(0u32..4))
        });
        let revoke_at = s.option(|s| s.range(0u64..120));
        let query = s.range(0u64..140);
        let e = EntityId(1);
        let p = PurposeId::new("prop-core-purpose");
        let mut set = PolicySet::new();
        let mut windows = Vec::new();
        for (a, b, _) in &grants {
            let (from, until) = (Ts::from_secs(*a.min(b)), Ts::from_secs(*a.max(b)));
            set.grant(Policy::new(p, e, from, until));
            windows.push((from, until));
        }
        if let Some(r) = revoke_at {
            set.revoke_all(Ts::from_secs(r));
        }
        let q = Ts::from_secs(query);
        // Reference semantics: a grant authorises at q iff its window
        // covers q, and — if a revocation at r clipped it (i.e. the window
        // covered r) — only for q strictly before r.
        let expected = windows.iter().any(|(f, u)| {
            if !q.within(*f, *u) {
                return false;
            }
            match revoke_at {
                Some(r) => {
                    let r = Ts::from_secs(r);
                    !r.within(*f, *u) || q < r
                }
                None => true,
            }
        });
        assert_eq!(set.authorises(p, e, q), expected);
    });
}

/// Restrictiveness is a total order: for any two interpretations one
/// implies the other, and implication agrees with rank.
#[test]
fn erasure_lattice_total_order() {
    check("erasure_lattice_total_order", 64, |s| {
        let a = s.pick(&INTERPRETATIONS);
        let b = s.pick(&INTERPRETATIONS);
        assert!(a.implies(b) || b.implies(a));
        assert_eq!(a.implies(b), a.rank() >= b.rank());
    });
}

/// Timelines reconstructed from arbitrary erase sequences are always
/// monotone, and a stricter erase stamps all weaker stages.
#[test]
fn timelines_are_monotone() {
    check("timelines_are_monotone", 64, |s| {
        let stages = s.vec(1..8, |s| (s.pick(&INTERPRETATIONS), s.range(1u64..1000)));
        let unit = data_case::core::ids::UnitId(1);
        let mut h = Vec::new();
        h.push(HistoryTuple {
            unit,
            purpose: data_case::core::purpose::well_known::contract(),
            entity: EntityId(0),
            action: Action::Create,
            at: Ts::ZERO,
        });
        let mut t = 0u64;
        for (interp, dt) in stages {
            t += dt;
            h.push(HistoryTuple {
                unit,
                purpose: data_case::core::purpose::well_known::compliance_erase(),
                entity: EntityId(0),
                action: Action::Erase(interp),
                at: Ts::from_secs(t),
            });
        }
        let tl = ErasureTimeline::from_history(&h, unit);
        assert!(tl.is_monotone());
        if tl.permanently_deleted.is_some() {
            assert!(tl.strongly_deleted.is_some());
            assert!(tl.deleted.is_some());
            assert!(tl.reversibly_inaccessible.is_some());
        }
    });
}

/// Derived policy sets never grant more than every parent allows.
#[test]
fn derivation_restricts_policies() {
    check("derivation_restricts_policies", 64, |s| {
        let parent_windows = s.vec(1..4, |s| {
            s.vec(0..4, |s| (s.range(0u64..50), s.range(50u64..100)))
        });
        let query = s.range(0u64..120);
        let e = EntityId(3);
        let p = PurposeId::new("prop-derive-purpose");
        let now = Ts::from_secs(60);
        let sets: Vec<PolicySet> = parent_windows
            .iter()
            .map(|ws| {
                let mut s = PolicySet::new();
                for (a, b) in ws {
                    s.grant(Policy::new(p, e, Ts::from_secs(*a), Ts::from_secs(*b)));
                }
                s
            })
            .collect();
        let refs: Vec<&PolicySet> = sets.iter().collect();
        let derived = PolicySet::restrict_for_derivation(&refs, now);
        let q = Ts::from_secs(query);
        if derived.authorises(p, e, q) {
            for s in &sets {
                assert!(
                    s.authorises(p, e, q),
                    "derived policy must be within every parent's grants"
                );
            }
        }
    });
}
