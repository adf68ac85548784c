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
//! 3. **Account** — every action the request took is recorded through
//!    `Model::record`, which appends the action's chained audit record
//!    (the history reads it back) synchronously: a record is in the store
//!    (and under the tamper-evidence chain) before its request's
//!    [`Response`] is built. A denial is recorded by `Model::deny`.
//!
//! Before each request, the retention drain erases the units due; those
//! records are the controller's, not the request's.
//!
//! One batch of *n* requests is therefore *n* single-request
//! submissions: replies, meter counters, forensic residuals and the
//! audit chain's bytes are independent of batch size (the
//! `prop_frontend` batch-parity property holds the engine to this).

use datacase_core::action::ActionKind;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::PurposeId;
use datacase_policy::enforcer::{AccessRequest, Decision};
use datacase_sim::fault::CrashPoint;

use crate::error::EngineError;
use crate::frontend::{Actor, AuditRef, Frontend, Reply, Request, Response, Session};
use crate::profiles::ProfileKind;

/// Execute a batch under `session`, returning one [`Response`] per
/// request in submission order.
pub(crate) fn execute(fe: &mut Frontend, session: &Session, requests: &[Request]) -> Vec<Response> {
    fe.config.fault.hit(CrashPoint::Plan);
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| run_one(fe, session, request, i))
        .collect()
}

/// Admission control: a session past its deadline is denied without
/// touching enforcement — checked per request, so a deadline crossing
/// mid-batch behaves exactly like it would across single-request
/// submissions.
fn admitted(fe: &Frontend, session: &Session) -> bool {
    session.deadline().is_none_or(|d| fe.clock.now() <= d)
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

/// Drain the units due, then execute one request to completion: decide,
/// apply, account. The request's audit records are the ones the log
/// gained meanwhile.
fn run_one(fe: &mut Frontend, session: &Session, request: &Request, index: usize) -> Response {
    crate::erasure::drain(fe);
    fe.config.fault.hit(CrashPoint::Decide);
    let records_before = fe.audit_records() as u64;
    let outcome = if !in_scope(session, request) {
        Err(EngineError::Denied {
            reason: "key outside session scope".into(),
        })
    } else if admitted(fe, session) {
        fe.apply(request, session.actor(), session.purpose(), session.scope())
    } else {
        Err(EngineError::Denied {
            reason: "session deadline passed".into(),
        })
    };
    Response {
        index,
        outcome,
        audit: AuditRef {
            start: records_before + 1,
            records: fe.audit_records() as u64 - records_before,
            at: fe.clock.now(),
        },
    }
}

impl Frontend {
    /// Apply one admitted request as `actor` under an optional declared
    /// purpose, after advancing the checkpoint cadence.
    fn apply(
        &mut self,
        request: &Request,
        actor: Actor,
        purpose: Option<PurposeId>,
        scope: Option<datacase_core::tenant::KeyRange>,
    ) -> Result<Reply, EngineError> {
        /// Checkpoint (flush + WAL recycle) after this many operations.
        const CHECKPOINT_EVERY: u64 = 20_000;
        self.config.fault.hit(CrashPoint::Apply);
        if !matches!(request, Request::Erase { .. } | Request::Restore { .. }) {
            // Workload ops drive the checkpoint cadence; the compliance
            // path (erase/restore) never did and still does not.
            self.ops_since_checkpoint += 1;
            if self.ops_since_checkpoint >= CHECKPOINT_EVERY {
                self.ops_since_checkpoint = 0;
                self.substrate.backend.checkpoint();
                self.substrate.backend.recycle_logs();
            }
        }
        match request {
            Request::Create {
                key,
                payload,
                metadata,
            } => self.op_create(*key, payload, metadata),
            Request::Read { key } => self.op_read(*key, actor, purpose),
            Request::Update { key, payload } => self.op_update(*key, payload, actor, purpose),
            Request::Delete { key } => self.op_delete(*key, actor),
            Request::ReadMeta { key } => self.op_read_meta(*key, actor, purpose),
            Request::UpdateMeta { key, field } => self.op_update_meta(*key, *field, actor),
            Request::ReadByMeta { selector } => self.op_read_by_meta(*selector, purpose, scope),
            Request::Erase {
                key,
                interpretation,
            } => self.op_erase(*key, *interpretation, actor),
            Request::Restore { key } => self.op_restore(*key, actor),
        }
    }

    /// The decide step for one access: ask the profile's enforcer. A
    /// denial is audited (a `DENIED` record) before it is returned.
    pub(crate) fn check(
        &mut self,
        unit: UnitId,
        entity: EntityId,
        purpose: PurposeId,
        action: ActionKind,
    ) -> Result<(), EngineError> {
        if self.config.profile == ProfileKind::Stock {
            return Ok(()); // vanilla engine: no enforcement at all
        }
        let req = AccessRequest {
            unit,
            entity,
            purpose,
            action,
            at: self.clock.now(),
        };
        match self.substrate.enforcer.check(&req) {
            Decision::Allow => Ok(()),
            Decision::Deny(reason) => {
                self.model.deny(&req, &reason);
                Err(EngineError::Denied { reason })
            }
        }
    }
}
