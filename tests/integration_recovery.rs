//! Crash-recovery integration: a backend rebuilt by `recover_backend` from
//! its durable snapshot matches the pre-crash logical state, under
//! workload-shaped data, on both the heap and the LSM.

use std::sync::Arc;

use data_case::sim::{Meter, SimClock};
use data_case::storage::backend::{
    recover_backend, BackendKind, LsmBackend, MaintenanceDepth, StorageBackend,
};
use data_case::storage::heap::{HeapConfig, HeapDb};
use data_case::storage::lsm::LsmConfig;
use data_case::workloads::gdprbench::{GdprBench, Mix};
use data_case::workloads::opstream::Op;

fn fresh(kind: BackendKind) -> Box<dyn StorageBackend> {
    match kind {
        BackendKind::Heap => Box::new(HeapDb::default_single()),
        BackendKind::Lsm => Box::new(LsmBackend::default_single()),
    }
}

/// Salvage `db`'s durable layer and rebuild a backend from it alone. The
/// LSM's durable layer is its flushed runs, so it checkpoints first; the
/// heap's is its WAL, durable as written, so recovery never reads a page.
fn recover(kind: BackendKind, db: &mut dyn StorageBackend) -> Box<dyn StorageBackend> {
    if kind == BackendKind::Lsm {
        db.checkpoint();
    }
    recover_backend(
        db.durable_snapshot(),
        HeapConfig::default(),
        LsmConfig::default(),
        SimClock::commodity(),
        Arc::new(Meter::new()),
    )
}

#[test]
fn recovery_after_workload_matches_logical_state() {
    for kind in BackendKind::ALL {
        let mut db = fresh(kind);
        let mut bench = GdprBench::new(7, 50);
        let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for op in bench.load_phase(300) {
            if let Op::Create { key, payload, .. } = op {
                db.insert(key, key, &payload).unwrap();
                model.insert(key, payload);
            }
        }
        for op in bench.ops(300, Mix::wcus()) {
            match op {
                Op::UpdateData { key, payload } if db.update(key, &payload).is_ok() => {
                    model.insert(key, payload);
                }
                Op::DeleteData { key } if db.delete(key).is_ok() => {
                    model.remove(&key);
                }
                _ => {}
            }
        }
        let mut r = recover(kind, db.as_mut());
        for (k, v) in &model {
            assert_eq!(
                r.read(*k, false).as_deref(),
                Some(v.as_slice()),
                "{kind:?}: key {k}"
            );
        }
        assert_eq!(r.stats().live_entries, model.len() as u64, "{kind:?}");
    }
}

#[test]
fn recovery_preserves_hidden_flags() {
    for kind in BackendKind::ALL {
        let mut db = fresh(kind);
        db.insert(1, 1, b"visible").unwrap();
        db.insert(2, 2, b"hidden").unwrap();
        db.set_hidden(2, true).unwrap();
        let mut r = recover(kind, db.as_mut());
        assert_eq!(r.read(1, false).unwrap(), b"visible", "{kind:?}");
        assert_eq!(
            r.read(2, false),
            None,
            "{kind:?}: hidden flag survives recovery"
        );
        assert_eq!(r.read(2, true).unwrap(), b"hidden", "{kind:?}");
        assert_eq!(r.stats().live_entries, 2, "{kind:?}");
    }
}

#[test]
fn recovery_replays_vacuum_marks() {
    for kind in BackendKind::ALL {
        let mut db = fresh(kind);
        for i in 0..50u64 {
            db.insert(i, i, &[i as u8; 40]).unwrap();
        }
        for i in 0..20u64 {
            db.delete(i).unwrap();
        }
        db.maintain(MaintenanceDepth::Lazy);
        let mut r = recover(kind, db.as_mut());
        for i in 0..20u64 {
            assert_eq!(r.read(i, false), None, "{kind:?}: key {i}");
        }
        for i in 20..50u64 {
            assert!(r.read(i, false).is_some(), "{kind:?}: key {i}");
        }
        assert_eq!(r.stats().live_entries, 30, "{kind:?}");
    }
}
