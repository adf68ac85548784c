//! Property-based tests over the storage substrates at workspace level.

use data_case::sim::check::check;

use data_case::sim::{Meter, SimClock};
use data_case::storage::backend::{MaintenanceDepth, StorageBackend};
use data_case::storage::heap::HeapDb;
use data_case::storage::lsm::{LsmConfig, LsmTree};
use std::sync::Arc;

/// The heap equals a reference map under arbitrary interleavings of
/// insert/update/delete/hide/vacuum/vacuum-full, and the forensic
/// invariant holds: after VACUUM, no deleted payload remains on file
/// pages.
#[test]
fn heap_model_equivalence_with_maintenance() {
    check("heap_model_equivalence_with_maintenance", 24, |s| {
        let ops = s.vec(1..120, |s| {
            (
                s.range(0u64..30),
                s.range(0u8..6),
                s.vec(8..32, |s| s.range(1u8..=255)),
            )
        });
        let mut db = HeapDb::default_single();
        let mut model: std::collections::HashMap<u64, (Vec<u8>, bool)> = Default::default();
        for (key, op, payload) in ops {
            match op {
                0 => {
                    let r = db.insert(key, key, &payload);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                        assert!(r.is_ok());
                        e.insert((payload, false));
                    } else {
                        assert!(r.is_err());
                    }
                }
                1 => {
                    let r = db.update(key, &payload);
                    match model.get_mut(&key) {
                        Some(entry) => {
                            assert!(r.is_ok());
                            entry.0 = payload;
                        }
                        None => assert!(r.is_err()),
                    }
                }
                2 => {
                    let r = db.delete(key);
                    assert_eq!(r.is_ok(), model.remove(&key).is_some());
                }
                3 => {
                    let r = db.set_hidden(key, true);
                    match model.get_mut(&key) {
                        Some(entry) => {
                            assert!(r.is_ok());
                            entry.1 = true;
                        }
                        None => assert!(r.is_err()),
                    }
                }
                4 => {
                    db.maintain(MaintenanceDepth::Lazy);
                }
                _ => {
                    db.maintain(MaintenanceDepth::Full);
                }
            }
        }
        for (k, (v, hidden)) in &model {
            let visible = db.read(*k, false);
            let any = db.read(*k, true);
            assert_eq!(any.as_deref(), Some(v.as_slice()), "key {}", k);
            if *hidden {
                assert_eq!(visible, None);
            } else {
                assert_eq!(visible.as_deref(), Some(v.as_slice()));
            }
        }
        let visible_count = model.values().filter(|(_, h)| !h).count();
        let mut scanned = 0usize;
        db.seq_scan(|_, _, _| scanned += 1);
        assert_eq!(scanned, visible_count);
    });
}

/// Vacuum after deletes always wipes the deleted payloads from the
/// file level (WAL retention is separate and expected).
#[test]
fn vacuum_wipes_deleted_payloads() {
    check("vacuum_wipes_deleted_payloads", 24, |s| {
        let keys = s.vec(1..40, |s| s.range(0u64..50));
        let mut db = HeapDb::default_single();
        let marker = b"WIPE-MARKER-";
        let mut inserted = std::collections::HashSet::new();
        for &k in &keys {
            if inserted.insert(k) {
                let mut payload = marker.to_vec();
                payload.extend_from_slice(&k.to_le_bytes());
                db.insert(k, k, &payload).unwrap();
            }
        }
        for &k in &inserted {
            db.delete(k).unwrap();
        }
        db.maintain(MaintenanceDepth::Lazy);
        db.checkpoint();
        assert!(
            db.scan_physical(marker).file_pages.is_empty(),
            "vacuumed payloads must not remain on pages"
        );
    });
}

/// LSM full compaction removes every tombstoned payload physically.
#[test]
fn lsm_compaction_drops_all_shadowed() {
    check("lsm_compaction_drops_all_shadowed", 24, |s| {
        let ops = s.vec(1..100, |s| (s.range(0u64..20), s.bool()));
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_bytes: 256,
                runs_per_level: 2,
                ..LsmConfig::default()
            },
            SimClock::commodity(),
            Arc::new(Meter::new()),
        );
        let marker = b"LSM-SHADOW";
        let mut live: std::collections::HashSet<u64> = Default::default();
        for (k, put) in ops {
            if put {
                let mut v = marker.to_vec();
                v.extend_from_slice(&k.to_le_bytes());
                t.put(k, k, &v);
                live.insert(k);
            } else {
                t.delete(k, k);
                live.remove(&k);
            }
        }
        t.compact_all();
        let residuals = t.scan_physical(marker);
        assert_eq!(
            residuals,
            live.len(),
            "only live values may remain after full compaction"
        );
        for k in 0..20u64 {
            assert_eq!(t.get(k).is_some(), live.contains(&k), "key {}", k);
        }
    });
}
