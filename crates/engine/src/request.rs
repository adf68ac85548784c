#![deny(missing_docs)]
//! Who is asking ([`Actor`], [`Session`]), what they ask ([`Request`],
//! the workloads crate's vocabulary, re-exported here) and what comes
//! back ([`Response`], [`Reply`], [`AuditRef`]). Re-exported through
//! [`frontend`](crate::frontend), the one place requests are executed.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;
pub use datacase_workloads::Request;

use crate::error::EngineError;

/// Who is issuing operations (maps workloads to entities).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The controller (WCon).
    Controller,
    /// A processor (WPro).
    Processor,
    /// The record's data-subject (WCus).
    Subject,
}

/// An ordered batch of [`Request`]s: a plain vector, since
/// [`Frontend::submit`](crate::frontend::Frontend::submit) takes a slice.
/// Kept only for callers written against the former batch type; ROADMAP
/// item 25 deletes it.
pub type Batch = Vec<Request>;

// ---------------------------------------------------------------------
// Replies and responses
// ---------------------------------------------------------------------

/// The successful outcome of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Mutation applied.
    Done,
    /// Read returned this many payload bytes.
    Value(usize),
    /// Metadata-based read returned this many rows.
    Rows(usize),
    /// The erasure grounding executed.
    Erased(ErasureInterpretation),
    /// The record was restored from reversible inaccessibility.
    Restored,
}

/// A pointer into the audit log: the records one request produced.
///
/// Sequence numbers are the engine's global, monotonically increasing
/// audit sequence; `records == 0` means the request wrote no audit
/// records (e.g. it failed before reaching the logging layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditRef {
    /// First audit sequence number written by the request.
    pub start: u64,
    /// How many audit records the request wrote.
    pub records: u64,
    /// Engine time when the response was produced.
    pub at: Ts,
}

impl AuditRef {
    /// Did the request write any audit records?
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Last audit sequence number covered, if any.
    pub fn last(&self) -> Option<u64> {
        (self.records > 0).then(|| self.start + self.records - 1)
    }
}

/// The engine's answer to one [`Request`] of a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Position of the request within its batch.
    pub index: usize,
    /// What happened: a typed reply, or a typed error.
    pub outcome: Result<Reply, EngineError>,
    /// The audit-log records this request produced.
    pub audit: AuditRef,
}

impl Response {
    /// The reply, if the request succeeded.
    pub fn reply(&self) -> Option<Reply> {
        self.outcome.as_ref().ok().copied()
    }

    /// The error, if the request failed.
    pub fn err(&self) -> Option<&EngineError> {
        self.outcome.as_ref().err()
    }

    /// Did the request succeed with [`Reply::Done`]?
    pub fn is_done(&self) -> bool {
        matches!(self.outcome, Ok(Reply::Done))
    }

    /// Bytes returned, when the reply is a [`Reply::Value`].
    pub fn value(&self) -> Option<usize> {
        match self.outcome {
            Ok(Reply::Value(n)) => Some(n),
            _ => None,
        }
    }

    /// Rows returned, when the reply is a [`Reply::Rows`].
    pub fn rows(&self) -> Option<usize> {
        match self.outcome {
            Ok(Reply::Rows(n)) => Some(n),
            _ => None,
        }
    }

    /// Was the request denied by policy enforcement?
    pub fn is_denied(&self) -> bool {
        self.err().is_some_and(EngineError::is_denied)
    }

    /// Did the request target a key that never existed?
    pub fn is_not_found(&self) -> bool {
        self.err().is_some_and(EngineError::is_not_found)
    }
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// Who is asking, for what declared purpose, and until when.
///
/// A session is the unit of authentication and intent: every batch is
/// submitted under exactly one session, and the frontend's single
/// enforcement choke point derives entities, purposes, and deadline
/// gating from it. Sessions are cheap descriptors — build one per actor
/// and reuse it across batches.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    actor: Actor,
    purpose: Option<PurposeId>,
    deadline: Option<Ts>,
    scope: Option<datacase_core::tenant::KeyRange>,
}

impl Session {
    /// A session for `actor` with no declared purpose (each request's
    /// purpose is derived from the actor and the record's collection
    /// metadata, as workload streams expect), no deadline, and no
    /// key-scope.
    pub fn new(actor: Actor) -> Session {
        Session {
            actor,
            purpose: None,
            deadline: None,
            scope: None,
        }
    }

    /// Declare a processing purpose: data-access requests in this session
    /// are checked against `purpose` instead of the per-record default —
    /// purpose limitation made explicit at the boundary.
    pub fn for_purpose(mut self, purpose: PurposeId) -> Session {
        self.purpose = Some(purpose);
        self
    }

    /// Gate the session with a deadline: batches submitted after
    /// `deadline` (engine time) are denied wholesale at admission.
    pub fn until(mut self, deadline: Ts) -> Session {
        self.deadline = Some(deadline);
        self
    }

    /// The authenticated actor.
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// The declared purpose, if any.
    pub fn purpose(&self) -> Option<PurposeId> {
        self.purpose
    }

    /// Confine the session to a half-open block of the keyspace: any
    /// key-addressed request outside `scope` is denied at admission, and
    /// metadata scans only see records inside it. This is how the
    /// multi-tenant gateway pins each tenant's sessions to the tenant's
    /// own keyspace block.
    pub fn scoped(mut self, scope: datacase_core::tenant::KeyRange) -> Session {
        self.scope = Some(scope);
        self
    }

    /// The admission deadline, if any.
    pub fn deadline(&self) -> Option<Ts> {
        self.deadline
    }

    /// The key-scope, if any.
    pub fn scope(&self) -> Option<datacase_core::tenant::KeyRange> {
        self.scope
    }
}
