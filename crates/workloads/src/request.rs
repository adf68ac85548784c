//! The request vocabulary: what the generators emit and the engines
//! execute, one verb per [`Request`] variant.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::purpose::PurposeId;

use crate::record::GdprMetadata;

/// Metadata fields GDPRBench updates ("updates to metadata").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaField {
    /// Time-to-live / retention deadline.
    Ttl,
    /// Processing purpose.
    Purpose,
    /// Objection to third-party sharing.
    Objection,
}

/// Selectors for metadata-based reads (WPro's 20 %).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaSelector {
    /// All records collected for a purpose.
    ByPurpose(PurposeId),
    /// All records of one data-subject (subject-access request shape).
    BySubject(u32),
}

/// One typed request to a compliant engine.
///
/// The first seven variants are the workload vocabulary the generators
/// emit; the last two are the compliance path (right to erasure,
/// Table 1).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Insert a new record with GDPR metadata (consent capture).
    Create {
        /// Record key.
        key: u64,
        /// Personal-data payload (a Mall reading).
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
    /// Workload-path delete (the right-to-erasure path a workload takes,
    /// grounded per the engine's delete strategy).
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

    /// The key the request targets, mutably, when key-addressed.
    pub fn key_mut(&mut self) -> Option<&mut u64> {
        match self {
            Request::Create { key, .. }
            | Request::Read { key }
            | Request::Update { key, .. }
            | Request::Delete { key }
            | Request::ReadMeta { key }
            | Request::UpdateMeta { key, .. }
            | Request::Erase { key, .. }
            | Request::Restore { key } => Some(key),
            Request::ReadByMeta { .. } => None,
        }
    }
}

/// A clone. It keeps `requests.iter().map(Request::from)` compiling for
/// callers written against the former `Op` → `Request` conversion;
/// ROADMAP item 25 deletes it.
impl From<&Request> for Request {
    fn from(request: &Request) -> Request {
        request.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_keys() {
        let mut read = Request::Read { key: 5 };
        assert_eq!(read.label(), "read");
        assert_eq!(read.key(), Some(5));
        *read.key_mut().unwrap() = 6;
        assert_eq!(read, Request::Read { key: 6 });
        let mut scan = Request::ReadByMeta {
            selector: MetaSelector::BySubject(1),
        };
        assert_eq!(scan.key(), None);
        assert_eq!(scan.key_mut(), None);
    }
}
