//! Policies: `⟨p, e, t_b, t_f⟩` constraints stating that entity `e` may
//! access a data unit for purpose `p` from `t_b` to `t_f` (paper §2.1).
//!
//! A [`PolicySet`] is the `P` aspect of a data unit. It tracks the
//! evolution of policies over time — grants and revocations — so the
//! active set `P(t)` can be computed for any instant, which is what
//! policy-consistency (G6) and the erasure deadline (G17) are defined over.
//! It is the one policy semantics of the system: the model's units carry
//! it, and `datacase-policy`'s unit-scoped policy table (the metadata
//! table and Sieve FGAC, one type) stores its rows in it, so both
//! mechanisms differ from G6 in cost only.
//! A revocation at `r` ends access at `r` itself: `P(r)` no longer holds
//! the revoked policies. `Ts::MAX`, the instant the simulated clock
//! saturates at, ends every record the same way: `P(Ts::MAX)` is empty.
//!
//! Every unit of a loaded engine carries one of these, so a row is 32
//! bytes (the policy and one revocation instant), and the rows are kept
//! exact-sized where the whole list is known up front
//! ([`PolicySet::grant_all`]), and a later single [`PolicySet::grant`]
//! grows them gently.

use datacase_sim::time::Ts;

use crate::ids::EntityId;
use crate::purpose::PurposeId;

/// A single policy `⟨p, e, t_b, t_f⟩`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Policy {
    /// Authorised purpose.
    pub purpose: PurposeId,
    /// Authorised entity.
    pub entity: EntityId,
    /// Start of the validity window (inclusive).
    pub from: Ts,
    /// End of the validity window (inclusive).
    pub until: Ts,
}

impl Policy {
    /// A policy valid over `[from, until]`.
    pub fn new(purpose: PurposeId, entity: EntityId, from: Ts, until: Ts) -> Policy {
        Policy {
            purpose,
            entity,
            from,
            until,
        }
    }

    /// A policy valid from `from` with no expiry.
    pub fn open_ended(purpose: PurposeId, entity: EntityId, from: Ts) -> Policy {
        Policy::new(purpose, entity, from, Ts::MAX)
    }

    /// Is the window active at `t`?
    pub fn active_at(&self, t: Ts) -> bool {
        t.within(self.from, self.until)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {}⟩",
            self.purpose, self.entity, self.from, self.until
        )
    }
}

/// A granted policy plus its revocation state: 32 bytes, the policy's 24
/// and one instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PolicyRecord {
    policy: Policy,
    /// When it was revoked (consent withdrawal, GDPR Art. 7(3)), or
    /// [`NEVER`] — no `Option`, whose tag would cost 8 bytes a row.
    revoked_at: Ts,
}

/// The `revoked_at` of a record never revoked: the end of time, which the
/// simulated clock saturates at and never passes.
const NEVER: Ts = Ts::MAX;

impl PolicyRecord {
    fn granted(policy: Policy) -> PolicyRecord {
        PolicyRecord {
            policy,
            revoked_at: NEVER,
        }
    }

    /// Is this record active at `t` (window covers `t` and not yet revoked)?
    /// A revocation at `r` ends access at `r` itself, and so does the end
    /// of time: nothing is active at `Ts::MAX`.
    fn active_at(&self, t: Ts) -> bool {
        self.policy.active_at(t) && t < self.revoked_at
    }
}

/// The `P` aspect of a data unit: all policies ever attached, with their
/// lifecycle. `P(t)` is derived, never stored.
///
/// ```
/// use datacase_core::policy::{Policy, PolicySet};
/// use datacase_core::purpose::well_known;
/// use datacase_core::ids::EntityId;
/// use datacase_sim::time::Ts;
///
/// // The paper's running example: π1 = ⟨billing, Netflix, t_b, t_f⟩.
/// let netflix = EntityId(1);
/// let mut p = PolicySet::new();
/// p.grant(Policy::new(
///     well_known::billing(),
///     netflix,
///     Ts::from_secs(0),
///     Ts::from_secs(100),
/// ));
/// assert!(p.authorises(well_known::billing(), netflix, Ts::from_secs(50)));
/// assert!(!p.authorises(well_known::billing(), netflix, Ts::from_secs(200)));
/// // Consent withdrawal empties P(t) from that instant on.
/// p.revoke_all(Ts::from_secs(60));
/// assert!(p.is_empty_at(Ts::from_secs(60)));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicySet {
    records: Vec<PolicyRecord>,
}

impl PolicySet {
    /// An empty policy set.
    pub fn new() -> PolicySet {
        PolicySet::default()
    }

    /// Grant a policy. Sets are many (one per unit), live as long as the
    /// unit and rarely grow after it is created, so a full set grows by a
    /// quarter — at least one slot — instead of doubling: still amortised
    /// O(1) per grant, and a unit that receives one later grant holds 11
    /// rows' worth of memory, not 18.
    pub fn grant(&mut self, policy: Policy) {
        if self.records.len() == self.records.capacity() {
            self.records.reserve_exact((self.records.len() / 4).max(1));
        }
        self.records.push(PolicyRecord::granted(policy));
    }

    /// Grant every policy of `policies`, in order. The rows are reserved
    /// exactly: a unit created with its nine base policies holds nine
    /// records, not the sixteen slots that nine pushes double to.
    pub fn grant_all(&mut self, policies: &[Policy]) {
        self.records.reserve_exact(policies.len());
        self.records
            .extend(policies.iter().copied().map(PolicyRecord::granted));
    }

    /// Revoke *all* policies at `now` (erasure request: consent withdrawn
    /// wholesale). Returns how many records were revoked. Nothing is
    /// active at `Ts::MAX`, so revoking there revokes nothing.
    pub fn revoke_all(&mut self, now: Ts) -> usize {
        let mut n = 0;
        for r in &mut self.records {
            if r.revoked_at == NEVER && r.active_at(now) {
                r.revoked_at = now;
                n += 1;
            }
        }
        n
    }

    /// The active set `P(t)`.
    pub fn active_at(&self, t: Ts) -> Vec<Policy> {
        self.records
            .iter()
            .filter(|r| r.active_at(t))
            .map(|r| r.policy)
            .collect()
    }

    /// Does some active policy at `t` authorise `(purpose, entity)`?
    pub fn authorises(&self, purpose: PurposeId, entity: EntityId, t: Ts) -> bool {
        self.records
            .iter()
            .any(|r| r.active_at(t) && r.policy.purpose == purpose && r.policy.entity == entity)
    }

    /// Was a policy for `(purpose, entity)` ever granted, active or not?
    /// Rows are never removed, so this is what an index posted at every
    /// grant and never pruned would answer.
    pub fn names(&self, purpose: PurposeId, entity: EntityId) -> bool {
        self.records
            .iter()
            .any(|r| r.policy.purpose == purpose && r.policy.entity == entity)
    }

    /// Is `P(t)` empty (no active policy at all)? This is the condition in
    /// the paper's *erasure-inconsistent read* definition.
    pub fn is_empty_at(&self, t: Ts) -> bool {
        !self.records.iter().any(|r| r.active_at(t))
    }

    /// The unit's retention deadline: the `t_f` by which it must be erased
    /// (G17), the earliest `until` of every `compliance-erase` policy ever
    /// granted. Revoked and expired policies count — a deadline, once
    /// granted, still binds. `None` if no such policy was ever granted. The
    /// one definition G17 and the engine's retention drain both use.
    pub fn erase_deadline(&self) -> Option<Ts> {
        let ce = crate::purpose::well_known::compliance_erase();
        self.records
            .iter()
            .filter(|r| r.policy.purpose == ce)
            .map(|r| r.policy.until)
            .min()
    }

    /// Number of records ever granted.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no policy was ever granted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Restrict (intersect) this set for a derived unit: the paper notes a
    /// derived unit's policies are "generally a restriction of the policies
    /// of the base units". We keep policies present (same purpose+entity)
    /// in *all* parents, with the tightest window.
    pub fn restrict_for_derivation(parents: &[&PolicySet], now: Ts) -> PolicySet {
        let mut out = PolicySet::new();
        let Some((first, rest)) = parents.split_first() else {
            return out;
        };
        for p in first.active_at(now) {
            let mut window: Option<(Ts, Ts)> = Some((p.from, p.until));
            for other in rest {
                let matching = other
                    .active_at(now)
                    .into_iter()
                    .find(|q| q.purpose == p.purpose && q.entity == p.entity);
                window = match (window, matching) {
                    (Some((f, u)), Some(q)) => Some((f.max(q.from), u.min(q.until))),
                    _ => None,
                };
            }
            if let Some((f, u)) = window {
                if f <= u {
                    out.grant(Policy::new(p.purpose, p.entity, f, u));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purpose::well_known as wk;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    #[test]
    fn paper_example_pi1_pi2() {
        // π1 = ⟨billing, Netflix, 010123, 010124⟩,
        // π2 = ⟨retention, AWS, 010123, 010124⟩ over unit X.
        let netflix = EntityId(1);
        let aws = EntityId(2);
        let mut p = PolicySet::new();
        p.grant(Policy::new(wk::billing(), netflix, t(100), t(200)));
        p.grant(Policy::new(wk::retention(), aws, t(100), t(200)));
        assert!(p.authorises(wk::billing(), netflix, t(150)));
        assert!(p.authorises(wk::retention(), aws, t(150)));
        assert!(!p.authorises(wk::billing(), aws, t(150)));
        assert!(!p.authorises(wk::billing(), netflix, t(201)));
        assert_eq!(p.active_at(t(150)).len(), 2);
        assert_eq!(p.active_at(t(250)).len(), 0);
    }

    #[test]
    fn a_row_is_a_policy_and_one_instant() {
        assert_eq!(std::mem::size_of::<PolicyRecord>(), 32);
    }

    /// The rows as they were with `Option<Ts>`: `None` for never revoked.
    #[derive(Default)]
    struct Reference(Vec<(Policy, Option<Ts>)>);

    impl Reference {
        fn active(&self, t: Ts) -> impl Iterator<Item = &Policy> {
            self.0
                .iter()
                .filter(move |(p, r)| p.active_at(t) && r.map(|r| t < r).unwrap_or(true))
                .map(|(p, _)| p)
        }
        fn revoke_all(&mut self, now: Ts) -> usize {
            let mut n = 0;
            for (p, r) in &mut self.0 {
                if r.is_none() && p.active_at(now) {
                    *r = Some(now);
                    n += 1;
                }
            }
            n
        }
    }

    /// Random grants, bulk grants and revocations, queried at instants
    /// up to `Ts::MAX - 1`: the sentinel encoding answers every query as
    /// the `Option` one did. At `Ts::MAX` itself it differs by design
    /// (see the module docs), and that instant is pinned on its own.
    #[test]
    fn sentinel_rows_match_the_option_reference_below_the_end_of_time() {
        datacase_sim::check::check(
            "sentinel_rows_match_the_option_reference_below_the_end_of_time",
            128,
            |s| {
                let instants = [0, 1, 5, 9, 10, 11, 50, 100, u64::MAX - 2, u64::MAX - 1];
                let purposes = [wk::billing(), wk::retention(), wk::compliance_erase()];
                let mut set = PolicySet::new();
                let mut reference = Reference::default();
                let ops = s.vec(1..40, |s| {
                    let from = Ts(s.pick(&instants));
                    let until = if s.bool() {
                        Ts::MAX
                    } else {
                        Ts(s.pick(&instants))
                    };
                    let policy =
                        Policy::new(s.pick(&purposes), EntityId(s.range(0u32..3)), from, until);
                    (s.range(0u8..3), policy, Ts(s.pick(&instants)))
                });
                for (op, policy, at) in ops {
                    match op {
                        0 => {
                            set.grant(policy);
                            reference.0.push((policy, None));
                        }
                        1 => {
                            set.grant_all(&[policy, policy]);
                            reference.0.extend([(policy, None), (policy, None)]);
                        }
                        _ => assert_eq!(set.revoke_all(at), reference.revoke_all(at)),
                    }
                    for &t in &instants {
                        let t = Ts(t);
                        let expect: Vec<Policy> = reference.active(t).copied().collect();
                        assert_eq!(set.active_at(t), expect, "P({t:?})");
                        assert_eq!(set.is_empty_at(t), expect.is_empty());
                        for purpose in purposes {
                            for e in 0..3 {
                                assert_eq!(
                                    set.authorises(purpose, EntityId(e), t),
                                    expect
                                        .iter()
                                        .any(|p| p.purpose == purpose && p.entity == EntityId(e))
                                );
                            }
                        }
                    }
                    assert_eq!(set.len(), reference.0.len());
                    let deadline = reference
                        .0
                        .iter()
                        .filter(|(p, _)| p.purpose == wk::compliance_erase())
                        .map(|(p, _)| p.until)
                        .min();
                    assert_eq!(set.erase_deadline(), deadline);
                }
            },
        );
    }

    #[test]
    fn nothing_is_active_at_the_end_of_time() {
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), EntityId(1), t(0)));
        assert!(p.authorises(wk::billing(), EntityId(1), Ts(u64::MAX - 1)));
        assert!(p.is_empty_at(Ts::MAX));
        assert_eq!(p.revoke_all(Ts::MAX), 0);
        assert!(p.authorises(wk::billing(), EntityId(1), Ts(u64::MAX - 1)));
    }

    #[test]
    fn grant_all_is_n_grants_in_exactly_n_rows() {
        let e = EntityId(1);
        let policies: Vec<Policy> = (0..9)
            .map(|i| Policy::new(wk::billing(), e, t(i), t(100 + i)))
            .collect();
        let mut bulk = PolicySet::new();
        bulk.grant_all(&policies);
        let mut one_by_one = PolicySet::new();
        for p in &policies {
            one_by_one.grant(*p);
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.records.capacity(), 9);
        // One later grant costs two more slots, not nine.
        bulk.grant(policies[0]);
        assert_eq!(bulk.records.capacity(), 11);
    }

    #[test]
    fn revoke_all_empties_active_set() {
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), EntityId(1), t(0)));
        p.grant(Policy::open_ended(wk::retention(), EntityId(2), t(0)));
        assert!(!p.is_empty_at(t(10)));
        assert_eq!(p.revoke_all(t(10)), 2);
        assert!(p.is_empty_at(t(10)));
        // History of grants is preserved for audit.
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn names_counts_revoked_and_expired_rows() {
        let mut p = PolicySet::new();
        p.grant(Policy::new(wk::billing(), EntityId(1), t(0), t(10)));
        p.grant(Policy::open_ended(wk::retention(), EntityId(2), t(0)));
        p.revoke_all(t(5));
        assert!(p.is_empty_at(t(20)));
        assert!(p.names(wk::billing(), EntityId(1)));
        assert!(p.names(wk::retention(), EntityId(2)));
        assert!(
            !p.names(wk::billing(), EntityId(2)),
            "pairs, not either half"
        );
        assert!(!p.names(wk::retention(), EntityId(1)));
    }

    #[test]
    fn erase_deadline_takes_earliest() {
        let mut p = PolicySet::new();
        p.grant(Policy::new(
            wk::compliance_erase(),
            EntityId(0),
            t(0),
            t(500),
        ));
        p.grant(Policy::new(
            wk::compliance_erase(),
            EntityId(0),
            t(0),
            t(300),
        ));
        assert_eq!(p.erase_deadline(), Some(t(300)));
        // Revocation (an erasure request) does not move the deadline.
        p.revoke_all(t(20));
        assert_eq!(p.erase_deadline(), Some(t(300)));
    }

    #[test]
    fn no_erase_policy_means_no_deadline() {
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), EntityId(1), t(0)));
        assert_eq!(p.erase_deadline(), None);
    }

    #[test]
    fn derived_policies_are_intersection() {
        let e = EntityId(1);
        let mut a = PolicySet::new();
        a.grant(Policy::new(wk::analytics(), e, t(0), t(100)));
        a.grant(Policy::new(wk::billing(), e, t(0), t(100)));
        let mut b = PolicySet::new();
        b.grant(Policy::new(wk::analytics(), e, t(50), t(200)));
        let d = PolicySet::restrict_for_derivation(&[&a, &b], t(60));
        // analytics survives with tightened window [50,100]; billing (absent
        // in b) is dropped.
        let active = d.active_at(t(75));
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].purpose, wk::analytics());
        assert_eq!(active[0].from, t(50));
        assert_eq!(active[0].until, t(100));
    }

    #[test]
    fn derivation_from_no_parents_is_empty() {
        let d = PolicySet::restrict_for_derivation(&[], t(0));
        assert!(d.is_empty());
    }

    #[test]
    fn policy_display_shows_tuple() {
        let pi = Policy::new(wk::billing(), EntityId(7), t(1), t(2));
        let s = format!("{pi}");
        assert!(s.contains("billing"));
        assert!(s.contains("e7"));
    }
}
