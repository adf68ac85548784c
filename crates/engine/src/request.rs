#![deny(missing_docs)]
//! The request vocabulary: who is asking ([`Actor`], [`Session`]), what
//! they ask ([`Request`], [`Batch`]) and what comes back ([`Response`],
//! [`Reply`], [`AuditRef`]). Re-exported through
//! [`frontend`](crate::frontend), the one place requests are executed.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;
use datacase_workloads::opstream::{MetaField, MetaSelector, Op};
use datacase_workloads::record::GdprMetadata;

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

// ---------------------------------------------------------------------
// Requests and batches
// ---------------------------------------------------------------------

/// One typed request to the engine.
///
/// The first seven variants mirror the workload vocabulary
/// ([`Op`]); the last two are the compliance path (right to erasure,
/// Table 1) that previously required reaching into the engine's internals.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Insert a new record with GDPR metadata (consent capture).
    Create {
        /// Record key.
        key: u64,
        /// Personal-data payload.
        payload: Vec<u8>,
        /// GDPR metadata attached at collection.
        metadata: GdprMetadata,
    },
    /// Point read of the record's payload.
    Read {
        /// Record key.
        key: u64,
    },
    /// Replace the record's payload.
    Update {
        /// Record key.
        key: u64,
        /// New payload.
        payload: Vec<u8>,
    },
    /// Workload-path delete (grounded per the engine's
    /// [`DeleteStrategy`](crate::profiles::DeleteStrategy)).
    Delete {
        /// Record key.
        key: u64,
    },
    /// Read the record's metadata row (policies, purpose, TTL).
    ReadMeta {
        /// Record key.
        key: u64,
    },
    /// Update one metadata field (policy change + subject notification).
    UpdateMeta {
        /// Record key.
        key: u64,
        /// Which field.
        field: MetaField,
    },
    /// Read data *via* metadata (e.g. "all records for purpose X").
    ReadByMeta {
        /// The selector.
        selector: MetaSelector,
    },
    /// Execute a grounded erasure interpretation immediately (the
    /// compliance path: an Art. 17 request, not a workload delete).
    Erase {
        /// Record key.
        key: u64,
        /// The grounding to execute.
        interpretation: ErasureInterpretation,
    },
    /// Restore a reversibly-inaccessible record (the inverse action that
    /// makes that grounding invertible).
    Restore {
        /// Record key.
        key: u64,
    },
}

impl Request {
    /// Short label for statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Create { .. } => "create",
            Request::Read { .. } => "read",
            Request::Update { .. } => "update",
            Request::Delete { .. } => "delete",
            Request::ReadMeta { .. } => "read-meta",
            Request::UpdateMeta { .. } => "update-meta",
            Request::ReadByMeta { .. } => "read-by-meta",
            Request::Erase { .. } => "erase",
            Request::Restore { .. } => "restore",
        }
    }

    /// The key the request targets, when key-addressed.
    pub fn key(&self) -> Option<u64> {
        match self {
            Request::Create { key, .. }
            | Request::Read { key }
            | Request::Update { key, .. }
            | Request::Delete { key }
            | Request::ReadMeta { key }
            | Request::UpdateMeta { key, .. }
            | Request::Erase { key, .. }
            | Request::Restore { key } => Some(*key),
            Request::ReadByMeta { .. } => None,
        }
    }
}

impl From<&Op> for Request {
    fn from(op: &Op) -> Request {
        match op {
            Op::Create {
                key,
                payload,
                metadata,
            } => Request::Create {
                key: *key,
                payload: payload.clone(),
                metadata: metadata.clone(),
            },
            Op::ReadData { key } => Request::Read { key: *key },
            Op::UpdateData { key, payload } => Request::Update {
                key: *key,
                payload: payload.clone(),
            },
            Op::DeleteData { key } => Request::Delete { key: *key },
            Op::ReadMeta { key } => Request::ReadMeta { key: *key },
            Op::UpdateMeta { key, field } => Request::UpdateMeta {
                key: *key,
                field: *field,
            },
            Op::ReadByMetadata { selector } => Request::ReadByMeta {
                selector: *selector,
            },
        }
    }
}

impl From<Op> for Request {
    fn from(op: Op) -> Request {
        Request::from(&op)
    }
}

/// An ordered batch of [`Request`]s submitted as one unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    requests: Vec<Request>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Append a request, builder-style.
    pub fn with(mut self, request: Request) -> Batch {
        self.requests.push(request);
        self
    }

    /// Append a request.
    pub fn push(&mut self, request: Request) {
        self.requests.push(request);
    }

    /// Convert a workload op stream into a batch.
    pub fn from_ops(ops: &[Op]) -> Batch {
        ops.iter().map(Request::from).collect()
    }

    /// The requests, in submission order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl From<Vec<Request>> for Batch {
    fn from(requests: Vec<Request>) -> Batch {
        Batch { requests }
    }
}

impl FromIterator<Request> for Batch {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Batch {
        Batch {
            requests: iter.into_iter().collect(),
        }
    }
}

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
