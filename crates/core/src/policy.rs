//! Policies: `⟨p, e, t_b, t_f⟩` constraints stating that entity `e` may
//! access a data unit for purpose `p` from `t_b` to `t_f` (paper §2.1).
//!
//! A [`PolicySet`] is the `P` aspect of a data unit. It tracks the
//! evolution of policies over time — grants and revocations — so the
//! active set `P(t)` can be computed for any instant, which is what
//! policy-consistency (G6) and the erasure deadline (G17) are defined over.
//!
//! Every unit of a loaded engine carries one of these, so the rows are kept
//! exact-sized where the whole list is known up front
//! ([`PolicySet::grant_all`]), and a later single [`PolicySet::grant`]
//! grows them gently ([`push_row`]).

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

/// Push onto a per-unit row list. Such lists are many (one per unit),
/// live as long as the unit and rarely grow after it is created, so a full
/// list grows by a quarter — at least one slot — instead of doubling:
/// still amortised O(1) per push, and a unit that receives one later grant
/// holds 11 rows' worth of memory, not 18.
pub fn push_row<T>(rows: &mut Vec<T>, row: T) {
    if rows.len() == rows.capacity() {
        rows.reserve_exact((rows.len() / 4).max(1));
    }
    rows.push(row);
}

/// A granted policy plus its revocation state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyRecord {
    /// The policy as granted.
    pub policy: Policy,
    /// When it was granted (for audit).
    pub granted_at: Ts,
    /// When it was revoked, if ever (consent withdrawal, GDPR Art. 7(3)).
    pub revoked_at: Option<Ts>,
}

impl PolicyRecord {
    /// Is this record active at `t` (window covers `t` and not yet revoked)?
    pub fn active_at(&self, t: Ts) -> bool {
        self.policy.active_at(t) && self.revoked_at.map(|r| t < r).unwrap_or(true)
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
/// p.grant(
///     Policy::new(well_known::billing(), netflix, Ts::from_secs(0), Ts::from_secs(100)),
///     Ts::ZERO,
/// );
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

    /// Grant a policy at time `now`.
    pub fn grant(&mut self, policy: Policy, now: Ts) {
        push_row(
            &mut self.records,
            PolicyRecord {
                policy,
                granted_at: now,
                revoked_at: None,
            },
        );
    }

    /// Grant every policy of `policies` at `now`, in order. The rows are
    /// reserved exactly: a unit created with its nine base policies holds
    /// nine records, not the sixteen slots that nine pushes double to.
    pub fn grant_all(&mut self, policies: &[Policy], now: Ts) {
        self.records.reserve_exact(policies.len());
        self.records
            .extend(policies.iter().map(|&policy| PolicyRecord {
                policy,
                granted_at: now,
                revoked_at: None,
            }));
    }

    /// Revoke every active policy matching `purpose`/`entity` at `now`.
    /// Returns how many records were revoked.
    pub fn revoke(&mut self, purpose: PurposeId, entity: EntityId, now: Ts) -> usize {
        let mut n = 0;
        for r in &mut self.records {
            if r.revoked_at.is_none()
                && r.policy.purpose == purpose
                && r.policy.entity == entity
                && r.policy.active_at(now)
            {
                r.revoked_at = Some(now);
                n += 1;
            }
        }
        n
    }

    /// Revoke *all* policies at `now` (erasure request: consent withdrawn
    /// wholesale). Returns how many records were revoked.
    pub fn revoke_all(&mut self, now: Ts) -> usize {
        let mut n = 0;
        for r in &mut self.records {
            if r.revoked_at.is_none() && r.policy.active_at(now) {
                r.revoked_at = Some(now);
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

    /// Is `P(t)` empty (no active policy at all)? This is the condition in
    /// the paper's *erasure-inconsistent read* definition.
    pub fn is_empty_at(&self, t: Ts) -> bool {
        !self.records.iter().any(|r| r.active_at(t))
    }

    /// The earliest deadline of an active `compliance-erase` policy at `t`,
    /// i.e. the `t_f` by which the unit must be erased (G17).
    pub fn erase_deadline(&self, t: Ts) -> Option<Ts> {
        let ce = crate::purpose::well_known::compliance_erase();
        self.records
            .iter()
            .filter(|r| r.active_at(t) && r.policy.purpose == ce)
            .map(|r| r.policy.until)
            .min()
    }

    /// Whether any (even inactive) `compliance-erase` policy was ever granted.
    pub fn has_erase_policy(&self) -> bool {
        let ce = crate::purpose::well_known::compliance_erase();
        self.records.iter().any(|r| r.policy.purpose == ce)
    }

    /// All records (for audit and space accounting).
    pub fn records(&self) -> &[PolicyRecord] {
        &self.records
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
                    out.grant(Policy::new(p.purpose, p.entity, f, u), now);
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
        p.grant(Policy::new(wk::billing(), netflix, t(100), t(200)), t(100));
        p.grant(Policy::new(wk::retention(), aws, t(100), t(200)), t(100));
        assert!(p.authorises(wk::billing(), netflix, t(150)));
        assert!(p.authorises(wk::retention(), aws, t(150)));
        assert!(!p.authorises(wk::billing(), aws, t(150)));
        assert!(!p.authorises(wk::billing(), netflix, t(201)));
        assert_eq!(p.active_at(t(150)).len(), 2);
        assert_eq!(p.active_at(t(250)).len(), 0);
    }

    #[test]
    fn grant_all_is_n_grants_in_exactly_n_rows() {
        let e = EntityId(1);
        let policies: Vec<Policy> = (0..9)
            .map(|i| Policy::new(wk::billing(), e, t(i), t(100 + i)))
            .collect();
        let mut bulk = PolicySet::new();
        bulk.grant_all(&policies, t(5));
        let mut one_by_one = PolicySet::new();
        for p in &policies {
            one_by_one.grant(*p, t(5));
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.records.capacity(), 9);
        // One later grant costs two more slots, not nine.
        bulk.grant(policies[0], t(6));
        assert_eq!(bulk.records.capacity(), 11);
    }

    #[test]
    fn revocation_cuts_access() {
        let e = EntityId(1);
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), e, t(0)), t(0));
        assert!(p.authorises(wk::billing(), e, t(50)));
        assert_eq!(p.revoke(wk::billing(), e, t(60)), 1);
        assert!(p.authorises(wk::billing(), e, t(59)));
        assert!(!p.authorises(wk::billing(), e, t(60)));
        assert!(!p.authorises(wk::billing(), e, t(100)));
    }

    #[test]
    fn revoke_all_empties_active_set() {
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), EntityId(1), t(0)), t(0));
        p.grant(Policy::open_ended(wk::retention(), EntityId(2), t(0)), t(0));
        assert!(!p.is_empty_at(t(10)));
        assert_eq!(p.revoke_all(t(10)), 2);
        assert!(p.is_empty_at(t(10)));
        // History of grants is preserved for audit.
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn erase_deadline_takes_earliest() {
        let mut p = PolicySet::new();
        p.grant(
            Policy::new(wk::compliance_erase(), EntityId(0), t(0), t(500)),
            t(0),
        );
        p.grant(
            Policy::new(wk::compliance_erase(), EntityId(0), t(0), t(300)),
            t(0),
        );
        assert_eq!(p.erase_deadline(t(10)), Some(t(300)));
        assert!(p.has_erase_policy());
    }

    #[test]
    fn no_erase_policy_means_no_deadline() {
        let mut p = PolicySet::new();
        p.grant(Policy::open_ended(wk::billing(), EntityId(1), t(0)), t(0));
        assert_eq!(p.erase_deadline(t(10)), None);
        assert!(!p.has_erase_policy());
    }

    #[test]
    fn derived_policies_are_intersection() {
        let e = EntityId(1);
        let mut a = PolicySet::new();
        a.grant(Policy::new(wk::analytics(), e, t(0), t(100)), t(0));
        a.grant(Policy::new(wk::billing(), e, t(0), t(100)), t(0));
        let mut b = PolicySet::new();
        b.grant(Policy::new(wk::analytics(), e, t(50), t(200)), t(0));
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
