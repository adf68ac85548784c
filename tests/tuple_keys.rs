//! Tuple keys: every stored version of a unit is encrypted under a key of
//! its own, and a write the backend refuses changes nothing.
//!
//! - **No keystream reuse.** Two versions of one unit under one key and
//!   one IV would give each other up: the XOR of their ciphertexts is the
//!   XOR of their plaintexts, so knowing the new value reveals the old.
//!   Read off the heap's WAL and the LSM's runs.
//! - **Install after accept.** A fresh key replaces the unit's old one
//!   only once the backend took the write: a refused update must leave
//!   the stored version readable, and a refused create must leave no
//!   unit, policy, audit record or key behind.
//!
//! Decrypted payloads never leave the engine (a read answers with the
//! length), but P_Base's CSV audit rows hold each read's plaintext, so
//! these tests count those rows to see what a read decrypted to.

use data_case::prelude::*;
use data_case::storage::backend::{BackendKind, DurableSnapshot};
use data_case::storage::lsm::memtable::Entry;
use data_case::storage::wal::WalRecord;

const OLD: &[u8] = b"person=alice;card=4111-1111";
const NEW: &[u8] = b"person=alice;card=5500-0000";

fn metadata(subject: u32) -> GdprMetadata {
    GdprMetadata {
        subject,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 0,
        objects_to_sharing: false,
    }
}

fn create(fe: &mut Frontend, key: u64, payload: &[u8]) -> Result<Reply, EngineError> {
    fe.run(
        &Session::new(Actor::Controller),
        Request::Create {
            key,
            payload: payload.to_vec(),
            metadata: metadata(key as u32),
        },
    )
    .outcome
}

fn update(fe: &mut Frontend, key: u64, payload: &[u8]) -> Result<Reply, EngineError> {
    fe.run(
        &Session::new(Actor::Controller),
        Request::Update {
            key,
            payload: payload.to_vec(),
        },
    )
    .outcome
}

fn read(fe: &mut Frontend, key: u64) -> Option<usize> {
    fe.run(&Session::new(Actor::Processor), Request::Read { key })
        .value()
}

/// Audit records whose payload holds `plain` (P_Base: CSV rows, in the
/// clear).
fn audited(fe: &mut Frontend, plain: &[u8]) -> usize {
    fe.forensic().scan(plain).audit_records
}

/// Every stored version of `key` the durable state still holds, oldest
/// first: the WAL's inserts and updates on the heap, one entry per
/// committed run on the LSM.
fn stored_versions(fe: &mut Frontend, key: u64) -> Vec<Vec<u8>> {
    match fe.forensic().durable_snapshot() {
        DurableSnapshot::Heap(records) => records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Insert {
                    key: k, payload, ..
                }
                | WalRecord::Update {
                    key: k, payload, ..
                } if *k == key => Some(payload.to_vec()),
                _ => None,
            })
            .collect(),
        DurableSnapshot::Lsm(manifest) => {
            let mut puts: Vec<(u64, Vec<u8>)> = manifest
                .levels
                .iter()
                .flatten()
                .filter_map(|run| match run.get(key) {
                    Some(Entry::Put { seq, value, .. }) => Some((*seq, value.clone())),
                    _ => None,
                })
                .collect();
            puts.sort();
            puts.into_iter().map(|(_, value)| value).collect()
        }
    }
}

fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b).map(|(a, b)| a ^ b).collect()
}

#[test]
fn an_update_never_reuses_the_keystream_it_replaces() {
    for config in [EngineConfig::p_sys(), EngineConfig::p_base()] {
        for backend in BackendKind::ALL {
            let mut fe = Frontend::new(config.clone().with_backend(backend));
            assert_eq!(create(&mut fe, 1, OLD), Ok(Reply::Done));
            // Each version goes to durable state on its own: a WAL record
            // on the heap, a run of its own on the LSM.
            fe.forensic().checkpoint();
            assert_eq!(update(&mut fe, 1, NEW), Ok(Reply::Done));
            fe.forensic().checkpoint();
            let versions = stored_versions(&mut fe, 1);
            let label = format!("{:?} on {backend:?}", config.profile);
            assert_eq!(versions.len(), 2, "{label}: both versions survive");
            assert_ne!(versions[0], OLD, "{label}: stored in the clear");
            assert_ne!(
                xor(&xor(&versions[0], &versions[1]), NEW),
                OLD,
                "{label}: one keystream encrypted both versions"
            );
            assert_eq!(read(&mut fe, 1), Some(NEW.len()));
        }
    }
}

#[test]
fn rekeyed_unit_is_not_decrypted_with_the_stale_stream() {
    // Every write draws the unit a fresh key; every read must decrypt
    // under the key of the version it reads. A crypto-erased key stays
    // gone until the next write brings a new one.
    for backend in BackendKind::ALL {
        let mut fe = Frontend::new(EngineConfig::p_base().with_backend(backend));
        assert_eq!(create(&mut fe, 7, OLD), Ok(Reply::Done));
        let versions: [&[u8]; 3] = [NEW, b"person=alice;card=6011-0000", OLD];
        for version in versions {
            assert_eq!(update(&mut fe, 7, version), Ok(Reply::Done));
            let before = audited(&mut fe, version);
            assert_eq!(read(&mut fe, 7), Some(version.len()), "{backend:?}");
            assert_eq!(audited(&mut fe, version), before + 1, "{backend:?}");
        }
        let unit = fe.unit_of_key(7).expect("key 7 exists");
        assert!(fe.forensic().destroy_key(unit), "{backend:?}");
        let before = audited(&mut fe, OLD);
        assert_eq!(read(&mut fe, 7), Some(0), "{backend:?}: read without a key");
        assert_eq!(audited(&mut fe, OLD), before, "{backend:?}");
        assert_eq!(update(&mut fe, 7, NEW), Ok(Reply::Done));
        let before = audited(&mut fe, NEW);
        assert_eq!(read(&mut fe, 7), Some(NEW.len()), "{backend:?}");
        assert_eq!(audited(&mut fe, NEW), before + 1, "{backend:?}");
    }
}

#[test]
fn a_refused_create_changes_nothing() {
    // A heap tuple must fit a page; the wire takes frames up to 1 MiB.
    let mut fe = Frontend::new(EngineConfig::p_sys());
    assert_eq!(create(&mut fe, 1, OLD), Ok(Reply::Done));
    assert_eq!(create(&mut fe, 2, NEW), Ok(Reply::Done));
    let records = fe.audit_records();
    let huge = vec![b'x'; 9_000];
    match create(&mut fe, 3, &huge) {
        Err(EngineError::Backend { detail }) => {
            assert!(detail.contains("exceeds page capacity"), "{detail}")
        }
        other => panic!("oversized create: {other:?}"),
    }
    let report = fe.compliance_report(&Regulation::gdpr());
    assert!(report.is_compliant(), "{:?}", report.violations);
    assert_eq!(fe.audit_records(), records, "a refused create was audited");
    assert_eq!(fe.unit_of_key(3), None);
    // Units 0 and 1 hold keys 1 and 2; no other unit holds a key.
    for unit in 2..8 {
        assert!(!fe
            .forensic()
            .key_is_live(data_case::core::ids::UnitId(unit)));
    }
    assert_eq!(create(&mut fe, 3, OLD), Ok(Reply::Done), "retry");
    assert_eq!(read(&mut fe, 3), Some(OLD.len()));
    assert!(fe.compliance_report(&Regulation::gdpr()).is_compliant());
}

#[test]
fn a_refused_update_says_why_and_keeps_the_stored_version() {
    let mut fe = Frontend::new(EngineConfig::p_base());
    assert_eq!(create(&mut fe, 1, OLD), Ok(Reply::Done));
    match update(&mut fe, 1, &vec![b'x'; 9_000]) {
        Err(EngineError::Backend { detail }) => {
            assert!(detail.contains("exceeds page capacity"), "{detail}")
        }
        other => panic!("oversized update: {other:?}"),
    }
    // The stored version still decrypts to the old payload: the read's
    // audit row holds it.
    let before = audited(&mut fe, OLD);
    assert_eq!(read(&mut fe, 1), Some(OLD.len()));
    assert_eq!(
        audited(&mut fe, OLD),
        before + 1,
        "decrypted under the wrong key"
    );
}
