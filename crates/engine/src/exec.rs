//! Request execution: the one path behind
//! [`Frontend::submit`](crate::frontend::Frontend::submit).
//!
//! Every request runs to completion, in submission order, before the
//! next one starts:
//!
//! 1. **Decide** — session admission (scope, deadline), then the policy
//!    check, resolved against the epoch-versioned decision cache
//!    (`DecisionCache`): outcomes (allows **and** denials) are stamped
//!    with the [`PolicyEpoch`] they were computed at plus the
//!    policy-window horizon they hold until, and revalidated by
//!    comparison against the enforcer's current epoch — fine-grained,
//!    structural invalidation instead of a TTL or a wholesale flush.
//! 2. **Apply** — the request touches the backend and the abstract
//!    model; tuple payloads are encrypted before they reach the backend
//!    and sectors before they reach the disk.
//! 3. **Account** — the request's audit records are appended to the log
//!    store, synchronously: a record is in the store (and under the
//!    tamper-evidence chain) before its request's [`Response`] is built.
//!
//! One batch of *n* requests is therefore *n* single-request
//! submissions: replies, meter counters, forensic residuals and the
//! audit chain's bytes are independent of batch size (the
//! `prop_frontend` batch-parity property holds the engine to this).

use std::collections::HashMap;

use datacase_core::action::ActionKind;
use datacase_core::ids::EntityId;
use datacase_core::purpose::PurposeId;
use datacase_policy::enforcer::{PolicyEpoch, UnitClass, VersionedEnforcer};
use datacase_sim::fault::CrashPoint;
use datacase_sim::time::Ts;

use crate::db::CompliantDb;
use crate::error::EngineError;
use crate::frontend::{AuditRef, Request, Response, Session};

/// A decision-cache key: the unit's equivalence class under the active
/// enforcement mechanism, plus the (actor entity, purpose, action) triple.
pub(crate) type CacheKey = (UnitClass, EntityId, PurposeId, ActionKind);

/// One cached, epoch-stamped policy decision.
#[derive(Clone, Debug)]
pub(crate) struct CachedDecision {
    /// Epoch the decision was computed at.
    pub epoch: PolicyEpoch,
    /// The decision holds through this instant (policy-window horizon).
    pub until: Ts,
    /// `None` = allow; `Some(reason)` = deny (denials are cached too —
    /// the re-logged DENIED audit record is cheap, the policy evaluation
    /// is not).
    pub deny_reason: Option<String>,
}

/// The versioned policy-decision cache: entries are validated by epoch
/// comparison against the [`VersionedEnforcer`], never expired by TTL and
/// never flushed wholesale. A policy mutation bumps the epoch for the
/// touched unit class, which strands exactly the entries it invalidated.
pub(crate) struct DecisionCache {
    capacity: usize,
    entries: HashMap<CacheKey, CachedDecision>,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (0 = disabled).
    pub fn new(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity,
            entries: HashMap::new(),
        }
    }

    /// Is caching enabled?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Live entries (stale ones linger until evicted or overwritten).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A still-valid cached decision for `key`, if any: the stamp must be
    /// current for the key's unit class and the clock must not have
    /// passed the decision's policy-window horizon.
    pub fn lookup(
        &self,
        key: &CacheKey,
        enforcer: &VersionedEnforcer,
        now: Ts,
    ) -> Option<&CachedDecision> {
        let cached = self.entries.get(key)?;
        (enforcer.is_current(key.0, cached.epoch) && now <= cached.until).then_some(cached)
    }

    /// Insert (or refresh) a decision. At capacity, stale entries are
    /// dropped first; if every entry is still valid the cache resets —
    /// a deterministic, bounded-memory relief valve that two runs of the
    /// same request stream hit identically.
    pub fn insert(
        &mut self,
        key: CacheKey,
        decision: CachedDecision,
        enforcer: &VersionedEnforcer,
        now: Ts,
    ) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.entries
                .retain(|k, v| enforcer.is_current(k.0, v.epoch) && now <= v.until);
            if self.entries.len() >= self.capacity {
                self.entries.clear();
            }
        }
        self.entries.insert(key, decision);
    }
}

/// Execute a batch under `session`, returning one [`Response`] per
/// request in submission order.
pub(crate) fn execute(
    db: &mut CompliantDb,
    session: &Session,
    requests: &[Request],
) -> Vec<Response> {
    db.config().fault.hit(CrashPoint::Plan);
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| run_one(db, session, request, i))
        .collect()
}

/// Admission control: a session past its deadline is denied without
/// touching enforcement — checked per request, so a deadline crossing
/// mid-batch behaves exactly like it would across single-request
/// submissions.
fn admitted(db: &CompliantDb, session: &Session) -> bool {
    session
        .deadline()
        .map(|d| db.clock().now() <= d)
        .unwrap_or(true)
}

/// Key-scope admission: a scoped session may only address keys inside
/// its block. Like the deadline gate, denial happens before enforcement
/// and writes no audit records — the request never names a record the
/// session could legitimately see. Scans carry no key and are admitted;
/// their candidate set is filtered to the scope inside the engine.
fn in_scope(session: &Session, request: &Request) -> bool {
    match (session.scope(), request.key()) {
        (Some(scope), Some(key)) => scope.contains(key),
        _ => true,
    }
}
/// Execute one request to completion: decide, apply, account.
fn run_one(db: &mut CompliantDb, session: &Session, request: &Request, index: usize) -> Response {
    db.config().fault.hit(CrashPoint::Decide);
    let seq_before = db.log_seq();
    let outcome = if !in_scope(session, request) {
        Err(EngineError::Denied {
            reason: "key outside session scope".into(),
        })
    } else if admitted(db, session) {
        db.apply(request, session.actor(), session.purpose(), session.scope())
    } else {
        Err(EngineError::Denied {
            reason: "session deadline passed".into(),
        })
    };
    let seq_after = db.log_seq();
    Response {
        index,
        outcome,
        audit: AuditRef {
            start: seq_before + 1,
            records: seq_after - seq_before,
            at: db.clock().now(),
        },
    }
}
