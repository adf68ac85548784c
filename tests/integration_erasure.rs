//! Cross-crate integration: erasure groundings, forensics, Table 1 probes
//! — all driven through the session frontend's `Erase`/`Restore`
//! requests.
//!
//! With `integration_backends` (per-backend erasure parity) and
//! `integration_invariants` (the G6/G17 invariant suite) these are the
//! paper's compliance claims as regression tests: a grounding that stops
//! holding fails here under its own name.

use data_case::core::grounding::properties::ErasureProperties;
use data_case::engine::{probe_config, probe_on};
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::storage::lsm::LsmTree;

/// An engine built from `config` holding one record, key 1, whose
/// payload is `INTEGRATION-ERASE-TARGET`.
fn seeded(config: EngineConfig) -> Frontend {
    let mut fe = Frontend::new(config);
    let metadata = GdprMetadata {
        subject: 5,
        purpose: data_case::core::purpose::well_known::smart_space(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 2,
        objects_to_sharing: false,
    };
    assert!(fe
        .run(
            &Session::new(Actor::Controller),
            Request::Create {
                key: 1,
                payload: b"INTEGRATION-ERASE-TARGET".to_vec(),
                metadata,
            },
        )
        .is_done());
    fe
}

fn erase(fe: &mut Frontend, key: u64, interpretation: ErasureInterpretation) -> bool {
    fe.run(
        &Session::new(Actor::Controller),
        Request::Erase {
            key,
            interpretation,
        },
    )
    .outcome
    .is_ok()
}

fn update(fe: &mut Frontend, key: u64, payload: &[u8]) -> bool {
    fe.run(
        &Session::new(Actor::Controller),
        Request::Update {
            key,
            payload: payload.to_vec(),
        },
    )
    .is_done()
}

fn restore(fe: &mut Frontend, key: u64) -> bool {
    fe.run(&Session::new(Actor::Controller), Request::Restore { key })
        .outcome
        .is_ok()
}

/// Table 1, measured: on the probe configuration and on every paper
/// profile, over both backends, each interpretation's probe reads the
/// paper's (IR, II, Inv) triple — II off the forensic residuals.
#[test]
fn table1_probes_match_expected_matrix_end_to_end() {
    for backend in BackendKind::ALL {
        let profiles = ProfileKind::PAPER.map(|p| {
            (
                p.label(),
                EngineConfig::for_profile(p).with_backend(backend),
            )
        });
        for (name, config) in [("probe", probe_config(backend))]
            .into_iter()
            .chain(profiles)
        {
            for interp in ErasureInterpretation::ALL {
                let p = probe_on(&config, interp);
                assert_eq!(
                    p.measured,
                    ErasureProperties::expected(interp),
                    "{name}/{backend:?}/{interp}: {}",
                    p.residuals.describe()
                );
            }
        }
    }
}

/// Strong deletion leaves nothing an attacker with filesystem access can
/// read: on every paper profile and both backends, erasing an updated unit
/// with an identifying derived copy clears every version of the payload
/// from pages, WAL, LSM runs and the audit log alike. (Table 1's probe
/// never updates its unit, so the superseded version is covered here.)
#[test]
fn strong_erasure_leaves_no_online_residual() {
    const PAYLOAD: &[u8] = b"INTEGRATION-ERASE-TARGET";
    for backend in BackendKind::ALL {
        for profile in ProfileKind::PAPER {
            let mut fe = seeded(EngineConfig::for_profile(profile).with_backend(backend));
            assert!(update(&mut fe, 1, b"INTEGRATION-ERASE-TARGET-v2"));
            let unit = fe.unit_of_key(1).unwrap();
            fe.forensic()
                .plant_derived(&[unit], "mirror", true, true, PAYLOAD, 2);
            assert!(erase(&mut fe, 1, ErasureInterpretation::StronglyDeleted));
            let f = fe.forensic().scan(PAYLOAD);
            let cell = format!("{}/{backend:?}", profile.label());
            assert!(!f.online(), "{cell}: {}", f.describe());
        }
    }
}

/// Erasure is on the tamper-evident record: on either backend, every
/// interpretation's erase and a restore answer with a non-empty audit
/// reference, a strong erase that cascades to a derived copy leaves one
/// receipt per erased unit, and IX (a verified chain) stays clean.
#[test]
fn every_erase_and_restore_leaves_a_receipt() {
    let controller = Session::new(Actor::Controller);
    for backend in BackendKind::ALL {
        for interpretation in ErasureInterpretation::ALL {
            let mut fe = seeded(probe_config(backend));
            let r = fe.run(
                &controller,
                Request::Erase {
                    key: 1,
                    interpretation,
                },
            );
            assert_eq!(r.reply(), Some(Reply::Erased(interpretation)));
            assert!(!r.audit.is_empty(), "{backend:?}/{interpretation}");
            let ix = fe.compliance_report(&Regulation::gdpr());
            assert!(
                ix.of_invariant("IX").is_empty(),
                "{backend:?}/{interpretation}"
            );
        }

        let mut fe = seeded(probe_config(backend));
        assert!(erase(
            &mut fe,
            1,
            ErasureInterpretation::ReversiblyInaccessible
        ));
        let r = fe.run(&controller, Request::Restore { key: 1 });
        assert_eq!(r.reply(), Some(Reply::Restored));
        assert_eq!(r.audit.records, 1, "{backend:?}: restore");

        let mut fe = seeded(probe_config(backend));
        let unit = fe.unit_of_key(1).unwrap();
        fe.forensic()
            .plant_derived(&[unit], "mirror", true, true, b"MIRROR", 2);
        let r = fe.run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::StronglyDeleted,
            },
        );
        assert!(r.outcome.is_ok(), "{:?}", r.outcome);
        assert_eq!(r.audit.records, 2, "{backend:?}: unit + mirror");
    }
}

#[test]
fn delete_leaves_online_residuals_strong_delete_clears_file() {
    let mut fe = seeded(probe_config(BackendKind::Heap));
    assert!(erase(&mut fe, 1, ErasureInterpretation::Deleted));
    let f = fe.forensic().scan(b"INTEGRATION-ERASE-TARGET");
    // Vacuum wiped the page, but the WAL retains the payload.
    assert!(!f.wal_lsns.is_empty(), "WAL retention: {}", f.describe());

    for backend in BackendKind::ALL {
        for interp in [
            ErasureInterpretation::Deleted,
            ErasureInterpretation::StronglyDeleted,
            ErasureInterpretation::PermanentlyDeleted,
        ] {
            let mut fe2 = seeded(probe_config(backend));
            assert!(update(&mut fe2, 1, b"INTEGRATION-ERASE-TARGET-v2"));
            assert!(erase(&mut fe2, 1, interp));
            if interp == ErasureInterpretation::PermanentlyDeleted {
                let f2 = fe2.forensic().scan(b"INTEGRATION-ERASE-TARGET");
                assert!(
                    !f2.any(),
                    "{backend:?}: permanent deletion must clear all layers: {}",
                    f2.describe()
                );
            }
            // The model forgets with the disk: no version the unit ever
            // held is still readable through `state()`.
            let unit = fe2.unit_of_key(1).unwrap();
            let versions = fe2.state().unit(unit).unwrap().value.versions();
            assert_eq!(versions.len(), 3, "create, update, erase stay on record");
            assert!(
                versions.iter().all(|(_, v)| v.is_erased()),
                "{backend:?}/{interp}: an erased unit's version still has content: {versions:?}"
            );
            let report = fe2.compliance_report(&Regulation::gdpr());
            assert!(
                report.violations.is_empty(),
                "{backend:?}/{interp}: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn the_model_never_holds_payload_bytes() {
    use data_case::engine::space::SpaceReport;
    const V2: &[u8] = b"INTEGRATION-ERASE-TARGET-v2";
    // `[personal, policy, log, index, wal, overhead]` as measured by the
    // tree that still kept a plaintext copy of every version in the model
    // (PR 22), same script: recording sizes moved no accounted byte.
    // The log column has since grown by the records every action leaves
    // on the chain: the seven construction-time assessments (7 x 46 B)
    // and each erase's receipts (the erase, a cascaded mirror's, and a
    // permanent erase's sanitise record). A strong or permanent erase
    // purges the unit's logs, so its create and update records trade
    // their payloads (24 + 27 B) for 32-byte commitments.
    let report = |r: [u64; 6]| SpaceReport {
        personal_bytes: r[0],
        policy_bytes: r[1],
        log_bytes: r[2],
        index_bytes: r[3],
        wal_bytes: r[4],
        heap_overhead_bytes: r[5],
    };
    let before = [[94, 3720, 551, 96, 246, 8098], [94, 3720, 551, 0, 0, 0]];
    let after = [
        [
            [94, 3720, 595, 112, 305, 8098],
            [67, 3720, 597, 64, 310, 8125],
            [40, 3720, 663, 48, 342, 8152],
            [40, 3720, 714, 48, 374, 8152],
        ],
        [
            [94, 3720, 595, 0, 0, 0],
            [67, 3720, 597, 0, 0, 74],
            [40, 3720, 663, 0, 0, 25],
            [40, 3720, 714, 0, 0, 25],
        ],
    ];
    for (backend, (before, after)) in BackendKind::ALL
        .into_iter()
        .zip(before.into_iter().zip(after))
    {
        for (interp, after) in ErasureInterpretation::ALL.into_iter().zip(after) {
            let mut fe = seeded(probe_config(backend));
            let controller = Session::new(Actor::Controller);
            let metadata = GdprMetadata {
                subject: 6,
                purpose: data_case::core::purpose::well_known::billing(),
                ttl: Ts::from_secs(1_000_000),
                origin_device: 3,
                objects_to_sharing: false,
            };
            let bystander = vec![b'b'; 40];
            assert!(fe
                .run(
                    &controller,
                    Request::Create {
                        key: 2,
                        payload: bystander.clone(),
                        metadata,
                    },
                )
                .is_done());
            assert!(update(&mut fe, 1, V2));
            let unit = fe.unit_of_key(1).unwrap();
            let mirror = fe
                .forensic()
                .plant_derived(&[unit], "mirror", true, true, V2, 3);
            let content_free = |fe: &Frontend| {
                fe.state()
                    .units()
                    .flat_map(|u| u.value.versions())
                    .all(|(_, v)| v.as_bytes().is_none())
            };
            assert!(
                content_free(&fe),
                "{backend:?}: a write put bytes in the model"
            );
            assert_eq!(fe.state().unit(unit).unwrap().value.len(), 2);
            assert_eq!(SpaceReport::measure(&fe), report(before), "{backend:?}");
            assert_eq!(before[0] as usize, 2 * V2.len() + bystander.len());

            assert!(erase(&mut fe, 1, interp));
            assert!(content_free(&fe), "{backend:?}/{interp}");
            let live: usize = [(unit, V2.len()), (mirror, V2.len())]
                .into_iter()
                .filter(|&(u, _)| fe.state().content_alive(u))
                .map(|(_, len)| len)
                .sum::<usize>()
                + bystander.len();
            assert_eq!(
                fe.state().personal_bytes(),
                live as u64,
                "{backend:?}/{interp}"
            );
            assert_eq!(
                SpaceReport::measure(&fe),
                report(after),
                "{backend:?}/{interp}"
            );
            // The bytes are where they belong: the store still serves them.
            assert_eq!(fe.forensic().raw_read(2, false), Some(bystander));
        }
    }
}

#[test]
fn staged_escalation_reaches_permanent() {
    let mut fe = seeded(probe_config(BackendKind::Heap));
    assert!(erase(
        &mut fe,
        1,
        ErasureInterpretation::ReversiblyInaccessible
    ));
    assert!(erase(&mut fe, 1, ErasureInterpretation::Deleted));
    assert!(erase(&mut fe, 1, ErasureInterpretation::StronglyDeleted));
    assert!(erase(&mut fe, 1, ErasureInterpretation::PermanentlyDeleted));
    let unit = fe.unit_of_key(1).unwrap();
    let tl = data_case::core::timeline::ErasureTimeline::from_history(fe.history(), unit);
    assert!(tl.is_monotone());
    assert!(tl.permanently_deleted.is_some());
}

#[test]
fn permanent_erasures_recycle_the_drive_and_keep_their_groundings() {
    use data_case::storage::page::PAGE_SIZE;
    const ROWS: u64 = 400;
    const ERASED: usize = 150;
    let marker = |key: u64| format!("RECYCLE-MARK-{key:05}-").into_bytes();
    let payload = |key: u64| {
        let mut p = marker(key);
        p.resize(256, b'x');
        p
    };
    let erased = |key: u64| key % 8 < 3;
    assert_eq!((0..ROWS).filter(|&k| erased(k)).count(), ERASED);
    // Plain disk with the profile's per-tuple AES; plain disk with the
    // markers in the clear (what a reused sector would leak, the scanner
    // sees); LUKS disk, where a reused sector must be re-sealed.
    let mut in_the_clear = EngineConfig::p_sys();
    in_the_clear.tuple_encryption = None;
    for (name, config) in [
        ("P_SYS", EngineConfig::p_sys()),
        ("P_SYS, tuples in the clear", in_the_clear),
        ("P_GBench", EngineConfig::p_gbench()),
    ] {
        assert_eq!(config.backend, BackendKind::Heap);
        let tuples_encrypted = config.tuple_encryption.is_some();
        let encrypted_at_rest = config.encryption_at_rest();
        let mut fe = Frontend::new(config);
        let controller = Session::new(Actor::Controller);
        for key in 0..ROWS {
            let metadata = GdprMetadata {
                subject: (key % 20) as u32,
                purpose: data_case::core::purpose::well_known::smart_space(),
                ttl: Ts::from_secs(1_000_000),
                origin_device: 2,
                objects_to_sharing: false,
            };
            let create = Request::Create {
                key,
                payload: payload(key),
                metadata,
            };
            assert!(
                fe.run(&controller, create).is_done(),
                "{name}: create {key}"
            );
        }
        let loaded = fe.backend_stats();
        assert_eq!(
            loaded.drive_bytes, loaded.disk_bytes,
            "{name}: no rewrite yet"
        );
        // One erase per submission: each rewrites the table, scrubs the
        // logs and sanitises the drive — and hands its retired sectors back.
        for key in (0..ROWS).filter(|&k| erased(k)) {
            assert!(
                erase(&mut fe, key, ErasureInterpretation::PermanentlyDeleted),
                "{name}: erase {key}"
            );
        }
        // The drive never shrinks, and the table only did: the bound is
        // the table at its largest plus the one rewrite behind it.
        let stats = fe.backend_stats();
        assert!(stats.disk_bytes < loaded.disk_bytes, "{name}: table shrank");
        assert!(
            stats.drive_bytes <= 2 * loaded.disk_bytes + 2 * PAGE_SIZE as u64,
            "{name}: the drive holds {} B for a table of at most {} B after {ERASED} rewrites",
            stats.drive_bytes,
            loaded.disk_bytes
        );
        for key in 0..ROWS {
            if erased(key) {
                let found = fe.forensic().scan(&marker(key));
                assert_eq!(found.total(), 0, "{name}: key {key}: {}", found.describe());
                assert_eq!(fe.forensic().raw_read(key, true), None, "{name}: key {key}");
            } else if tuples_encrypted {
                let read = fe.run(&controller, Request::Read { key });
                assert_eq!(read.value(), Some(256), "{name}: surviving key {key}");
            } else {
                assert_eq!(
                    fe.forensic().raw_read(key, false),
                    Some(payload(key)),
                    "{name}: surviving key {key} lost across sector reuse"
                );
                // (one survivor per page or so keeps the scan count down)
                if key % 8 == 7 {
                    let found = fe.forensic().scan(&marker(key));
                    assert!(
                        found.total() > 0,
                        "{name}: surviving key {key} left no trace"
                    );
                }
            }
        }
        // Invariant VI is the one breach the in-the-clear variant has by
        // construction; nothing else may be reported on any of the three.
        let report = fe.compliance_report(&Regulation::gdpr());
        let breaches: Vec<_> = report
            .violations
            .iter()
            .filter(|v| encrypted_at_rest || v.invariant != "VI")
            .collect();
        assert!(breaches.is_empty(), "{name}: {breaches:?}");
    }
}

#[test]
fn restore_works_only_before_physical_deletion() {
    let mut fe = seeded(probe_config(BackendKind::Heap));
    assert!(erase(
        &mut fe,
        1,
        ErasureInterpretation::ReversiblyInaccessible
    ));
    assert!(restore(&mut fe, 1));
    assert!(erase(&mut fe, 1, ErasureInterpretation::Deleted));
    assert!(!restore(&mut fe, 1));
}

/// A hidden unit past its retention deadline cannot be restored: the
/// restore request's retention drain escalates it to deleted first.
#[test]
fn restore_cannot_bring_back_an_overdue_hidden_unit() {
    let mut fe = seeded(probe_config(BackendKind::Heap));
    assert!(erase(
        &mut fe,
        1,
        ErasureInterpretation::ReversiblyInaccessible
    ));
    fe.clock().advance_to(Ts::from_secs(2_000_000));
    let r = fe.run(
        &Session::new(Actor::Controller),
        Request::Restore { key: 1 },
    );
    assert_eq!(
        r.outcome,
        Err(EngineError::Denied {
            reason: "unit is not reversibly inaccessible".into()
        })
    );
    let unit = fe.unit_of_key(1).unwrap();
    assert!(fe
        .state()
        .unit(unit)
        .unwrap()
        .erasure
        .satisfies(ErasureInterpretation::Deleted));
}

#[test]
fn tombstone_strategy_keeps_data_readable_by_controller_view() {
    let mut config = EngineConfig::stock(DeleteStrategy::TombstoneAttribute);
    config.maintenance_every = u64::MAX;
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller);
    let metadata = GdprMetadata {
        subject: 1,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 0,
        objects_to_sharing: false,
    };
    fe.run(
        &controller,
        Request::Create {
            key: 9,
            payload: b"hidden-not-gone".to_vec(),
            metadata,
        },
    );
    fe.run(&controller, Request::Delete { key: 9 });
    // Normal reads can no longer see it — and the error says *why*…
    let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 9 });
    assert!(
        r.err().is_some_and(EngineError::is_retention_expired),
        "{:?}",
        r.outcome
    );
    // …but the bytes are physically present (the paper's hazard).
    let f = fe.forensic().scan(b"hidden-not-gone");
    assert!(f.online(), "{}", f.describe());
}

#[test]
fn lsm_erasure_groundings_full_cycle() {
    let mut tree = LsmTree::default_single();
    for i in 0..200u64 {
        tree.put(i, i, format!("lsm-unit-{i:04}").as_bytes());
    }
    tree.flush();
    // Plain tombstone delete retains bytes until compaction.
    tree.delete(7, 7);
    assert!(tree.scan_physical(b"lsm-unit-0007") > 0);
    // Delete-and-above forces the compaction.
    tree.delete(8, 8);
    tree.compact_all();
    assert_eq!(tree.scan_physical(b"lsm-unit-0008"), 0);
    // Permanent purge removes all entries of the unit.
    tree.delete(9, 9);
    tree.compact_all();
    tree.purge_unit(9);
    assert_eq!(tree.scan_physical(b"lsm-unit-0009"), 0);
    // Unrelated units intact.
    assert!(tree.get(100).is_some());
}

#[test]
fn crypto_erasure_seals_ciphertext_forever() {
    let mut fe = Frontend::new(EngineConfig::p_sys()); // per-unit AES keys
    let metadata = GdprMetadata {
        subject: 3,
        purpose: data_case::core::purpose::well_known::billing(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 0,
        objects_to_sharing: false,
    };
    fe.run(
        &Session::new(Actor::Controller),
        Request::Create {
            key: 4,
            payload: b"crypto-erase-me".to_vec(),
            metadata,
        },
    );
    // Plaintext never reaches persistent storage under tuple encryption.
    let f = fe.forensic().scan(b"crypto-erase-me");
    assert!(f.file_pages.is_empty(), "{}", f.describe());
    // Destroy the key: the unit is now permanently unreadable.
    let unit = fe.unit_of_key(4).unwrap();
    assert!(fe.forensic().destroy_key(unit));
    match fe
        .run(&Session::new(Actor::Processor), Request::Read { key: 4 })
        .outcome
    {
        Ok(Reply::Value(0)) => {} // unreadable: empty decryption
        Err(EngineError::Denied { .. })
        | Err(EngineError::NotFound { .. })
        | Err(EngineError::RetentionExpired { .. }) => {}
        other => panic!("expected unreadable content, got {other:?}"),
    }
}

#[test]
fn audit_log_residuals_have_their_own_bucket() {
    // Both profiles' audit logs keep the payload in cleartext. P_Base's
    // WAL holds only tuple ciphertext; P_GBench's holds the plaintext.
    for (name, config, wal_hits) in [
        ("P_Base", EngineConfig::p_base(), 0),
        ("P_GBench", EngineConfig::p_gbench(), 1),
    ] {
        let mut fe = Frontend::new(config);
        let metadata = GdprMetadata {
            subject: 3,
            purpose: data_case::core::purpose::well_known::billing(),
            ttl: Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        assert!(fe
            .run(
                &Session::new(Actor::Controller),
                Request::Create {
                    key: 1,
                    payload: b"AUDIT-BUCKET-TARGET".to_vec(),
                    metadata,
                },
            )
            .is_done());
        let f = fe.forensic().scan(b"AUDIT-BUCKET-TARGET");
        assert_eq!(f.wal_lsns.len(), wal_hits, "{name}: {}", f.describe());
        assert!(
            !f.wal_lsns.contains(&u64::MAX),
            "{name}: an audit hit posed as a WAL record: {}",
            f.describe()
        );
        assert_eq!(f.audit_records, 1, "{name}: {}", f.describe());
        assert!(f.describe().contains("audit_records=1"), "{name}");
        assert_eq!(f.total(), wal_hits + f.file_pages.len() + 1, "{name}");
    }
}
