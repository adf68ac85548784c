//! Request execution: the one path behind
//! [`Frontend::submit`](crate::frontend::Frontend::submit).
//!
//! Every request runs to completion, in submission order, before the
//! next one starts:
//!
//! 1. **Decide** — session admission (scope, deadline), then the policy
//!    check: the profile's enforcer is asked, against the current policy
//!    state, for every access. No outcome is remembered, so a decision is
//!    always re-derivable from the policy state it was taken at.
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

use datacase_sim::fault::CrashPoint;

use crate::db::CompliantDb;
use crate::error::EngineError;
use crate::frontend::{AuditRef, Request, Response, Session};

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
