//! The erasure executor: grounded interpretations → system-action plans,
//! executed immediately (the compliance path, as opposed to the workload
//! path's periodic maintenance).
//!
//! This is step ③ of Figure 2 made concrete: each
//! [`ErasureInterpretation`] maps to a
//! [`StorageBackend`](datacase_storage::backend::StorageBackend) plan of
//! Table 1 — heap mechanics (hide / DELETE+VACUUM / VACUUM FULL / WAL
//! scrub + sanitise) or LSM mechanics (flagged version / tombstone+flush /
//! compaction / run purge) — and after execution the [`probe`] verifies
//! the IR / II / Inv properties *empirically* against the forensic
//! scanner and the provenance graph, on either backend.
//!
//! The executor itself is crate-internal: callers reach it through
//! [`Request::Erase`](crate::frontend::Request::Erase) and
//! [`Request::Restore`](crate::frontend::Request::Restore) on a session.

use datacase_core::action::Action;
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::grounding::properties::{ErasureProperties, PropertyProbe};
use datacase_core::history::HistoryTuple;
use datacase_core::ids::UnitId;
use datacase_core::purpose::well_known as wk;
use datacase_core::unit::ErasureStatus;
use datacase_sim::fault::CrashPoint;
use datacase_storage::backend::{BackendKind, MaintenanceDepth};

use crate::db::CompliantDb;

/// Execute the full system-action plan for `interp` on the unit stored at
/// `key`, immediately (right-to-erasure handling, Table 1 row). The
/// erase is attributed to `entity` in the action history — the actor the
/// frontend authenticated (or the controller, for sweeper-initiated
/// retention erasure).
///
/// Returns false if the key is unknown.
pub(crate) fn erase_now(
    db: &mut CompliantDb,
    key: u64,
    interp: ErasureInterpretation,
    entity: datacase_core::ids::EntityId,
) -> bool {
    let Some(unit) = db.unit_of_key(key) else {
        return false;
    };
    let now = db.clock().now();
    let controller = db.controller();
    // Escalation support (the Figure-3 staged timeline): a unit already
    // deleted at a weaker interpretation can be erased "harder" — the row
    // removal is then a no-op and only the stronger plan steps run.
    let already_rank = db.state().unit(unit).map(|u| u.erasure.rank()).unwrap_or(0);

    // Cascade first (strong/permanent): identifying descendants go too.
    let mut descendants = Vec::new();
    if interp.implies(ErasureInterpretation::StronglyDeleted) {
        descendants = db.state().provenance().identifying_descendants(unit);
        for &d in &descendants {
            if let Some(dkey) = db.key_of_unit(d) {
                let _ = db.backend_mut().delete(dkey);
            }
            let at = db.clock().now();
            let already = db
                .state()
                .unit(d)
                .map(|u| u.erasure.rank() >= 2)
                .unwrap_or(true);
            if !already {
                db.state_mut()
                    .mark_erased(d, ErasureStatus::Deleted { since: at }, at);
                db.record_history(HistoryTuple {
                    unit: d,
                    purpose: wk::compliance_erase(),
                    entity: controller,
                    action: Action::Erase(ErasureInterpretation::Deleted),
                    at,
                });
            }
        }
    }

    let remove_row = |db: &mut CompliantDb| -> bool {
        if already_rank >= 2 {
            true // the row is already physically gone or dead
        } else {
            // A reversibly-inaccessible (rank 1) row still exists on the
            // backend; delete it like a live one.
            db.backend_mut().delete(key).is_ok()
        }
    };

    let status = match interp {
        ErasureInterpretation::ReversiblyInaccessible => {
            if db.backend_mut().set_hidden(key, true).is_err() {
                return false;
            }
            ErasureStatus::ReversiblyInaccessible { since: now }
        }
        ErasureInterpretation::Deleted => {
            if !remove_row(db) {
                return false;
            }
            db.backend_mut().maintain(MaintenanceDepth::Lazy);
            ErasureStatus::Deleted { since: now }
        }
        ErasureInterpretation::StronglyDeleted => {
            if !remove_row(db) {
                return false;
            }
            db.backend_mut().maintain(MaintenanceDepth::Full);
            ErasureStatus::StronglyDeleted { since: now }
        }
        ErasureInterpretation::PermanentlyDeleted => {
            if !remove_row(db) {
                return false;
            }
            db.backend_mut().maintain(MaintenanceDepth::Full);
            db.backend_mut().purge_unit(unit.0);
            db.logger_mut().redact_unit(unit);
            // Descendants erased by the cascade get their retained log
            // copies purged too — permanent deletion leaves no trail of
            // the subject in any log-shaped layer.
            for &d in &descendants {
                db.backend_mut().purge_unit(d.0);
                db.logger_mut().redact_unit(d);
            }
            db.backend_mut().sanitize(3);
            // Chaos tap: crash between purging the unit's rows/logs and
            // destroying its key — recovery must still converge to zero
            // residuals under crypto-erasure.
            db.config().fault.hit(CrashPoint::DestroyKey);
            if let Some(vault) = db.vault_mut() {
                vault.destroy_key(unit.0);
                for &d in &descendants {
                    vault.destroy_key(d.0);
                }
            }
            ErasureStatus::PermanentlyDeleted { since: now }
        }
    };

    // Consent is withdrawn wholesale with the erasure request.
    let at = db.clock().now();
    if let Some(u) = db.state_mut().unit_mut(unit) {
        u.policies.revoke_all(at);
    }
    // Revocation through the versioned enforcer bumps the policy epoch.
    db.enforcer_mut().revoke_all(unit, at);
    db.state_mut().mark_erased(unit, status, at);
    db.record_history(HistoryTuple {
        unit,
        purpose: wk::compliance_erase(),
        entity,
        action: Action::Erase(interp),
        at,
    });
    if interp == ErasureInterpretation::PermanentlyDeleted {
        let at2 = db.clock().now();
        db.record_history(HistoryTuple {
            unit,
            purpose: wk::compliance_erase(),
            entity,
            action: Action::Sanitize,
            at: at2,
        });
    }
    true
}

/// Restore a reversibly-inaccessible unit (the inverse action that makes
/// the interpretation *invertible* in Table 1). Returns false if the unit
/// is not in the reversible state.
pub(crate) fn restore_now(db: &mut CompliantDb, key: u64) -> bool {
    let Some(unit) = db.unit_of_key(key) else {
        return false;
    };
    let restorable = db
        .state()
        .unit(unit)
        .map(|u| matches!(u.erasure, ErasureStatus::ReversiblyInaccessible { .. }))
        .unwrap_or(false);
    if !restorable {
        return false;
    }
    if db.backend_mut().set_hidden(key, false).is_err() {
        return false;
    }
    let at = db.clock().now();
    let controller = db.controller();
    db.state_mut().unit_mut(unit).expect("checked").restore();
    db.record_history(HistoryTuple {
        unit,
        purpose: wk::subject_access(),
        entity: controller,
        action: Action::Restore,
        at,
    });
    true
}

/// Empirically measure (IR, II, Inv) for one interpretation on a fresh
/// heap-backed engine — the measured side of Table 1. See [`probe_on`]
/// for the backend-parameterised version.
///
/// Scenario: a subject's record plus an *identifying, invertible* derived
/// copy (an encrypted backup). After erasure:
///
/// * **IR** — can any entity still read the unit through the API with no
///   active policy? (The probe tries; enforcement or physical absence must
///   stop it.)
/// * **II** — can the unit be inferred from dependent data (provenance
///   reconstruction from the surviving copy)?
/// * **Inv** — does the restore action bring the unit back?
pub fn probe(interp: ErasureInterpretation) -> PropertyProbe {
    probe_on(BackendKind::Heap, interp)
}

/// [`probe`] over a chosen storage substrate: the paper's claim that the
/// grounded properties hold *independently of the underlying system*,
/// measured per backend.
pub fn probe_on(backend: BackendKind, interp: ErasureInterpretation) -> PropertyProbe {
    use crate::db::Actor;
    use crate::frontend::{Frontend, Reply, Request, Session};
    use datacase_workloads::record::GdprMetadata;

    let mut config = crate::profiles::EngineConfig::p_sys().with_backend(backend);
    config.tuple_encryption = None; // stock-engine-like storage for the probe
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller);

    let payload = b"PROBE-SENSITIVE-PAYLOAD-0001".to_vec();
    let meta = GdprMetadata {
        subject: 1,
        purpose: wk::smart_space(),
        ttl: datacase_sim::time::Ts::from_secs(1_000_000),
        origin_device: 0,
        objects_to_sharing: false,
    };
    assert!(fe
        .run(
            &controller,
            Request::Create {
                key: 1,
                payload: payload.clone(),
                metadata: meta,
            },
        )
        .is_done());
    let unit = fe.unit_of_key(1).expect("created");
    let processor_entity = fe.db().processor();

    // Derived identifying, invertible copy (e.g. an analytics mirror).
    let derived = fe
        .forensic()
        .plant_derived(&[unit], "mirror-copy", true, true, &payload, 2);
    let now = fe.clock().now();
    fe.forensic().inject_history(HistoryTuple {
        unit,
        purpose: wk::analytics(),
        entity: processor_entity,
        action: Action::Derive { output: derived },
        at: now,
    });

    let mut notes = Vec::new();
    assert!(
        fe.run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation: interp,
            },
        )
        .outcome
        .is_ok(),
        "erasure must execute"
    );

    // IR: read attempts with all policies revoked.
    let read_as_processor = fe
        .run(&Session::new(Actor::Processor), Request::Read { key: 1 })
        .outcome;
    let read_as_subject = fe
        .run(&Session::new(Actor::Subject), Request::Read { key: 1 })
        .outcome;
    let illegal_read = matches!(read_as_processor, Ok(Reply::Value(_)))
        || matches!(read_as_subject, Ok(Reply::Value(_)));
    notes.push(format!(
        "post-erase reads: processor={read_as_processor:?} subject={read_as_subject:?}"
    ));

    // II: model-level reconstruction from surviving dependent data.
    let alive: Vec<UnitId> = fe
        .state()
        .units()
        .filter(|u| !u.erasure.is_erased())
        .map(|u| u.id)
        .collect();
    let alive_fn = move |u: UnitId| alive.contains(&u);
    let illegal_inference = fe.state().provenance().reconstructable(unit, &alive_fn)
        || fe
            .state()
            .unit(unit)
            .map(|u| u.erasure.rank() <= 1)
            .unwrap_or(false);
    let residuals = fe.forensic().scan(b"PROBE-SENSITIVE-PAYLOAD-0001");
    notes.push(format!("forensic: {}", residuals.describe()));

    // Inv: does restore bring it back?
    let restored = fe.run(&controller, Request::Restore { key: 1 }).outcome;
    let invertible = restored.is_ok()
        && matches!(
            fe.run(&Session::new(Actor::Subject), Request::Read { key: 1 })
                .outcome,
            Ok(Reply::Value(_)) | Err(crate::error::EngineError::Denied { .. })
        )
        && fe
            .state()
            .unit(unit)
            .map(|u| !u.erasure.is_erased())
            .unwrap_or(false);

    PropertyProbe {
        interpretation: interp,
        measured: ErasureProperties {
            illegal_read,
            illegal_inference,
            invertible,
        },
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Actor;
    use crate::frontend::{Frontend, Request, Session};
    use datacase_core::grounding::properties::ErasureProperties;
    use datacase_workloads::record::GdprMetadata;

    fn erase(fe: &mut Frontend, key: u64, interp: ErasureInterpretation) -> bool {
        fe.run(
            &Session::new(Actor::Controller),
            Request::Erase {
                key,
                interpretation: interp,
            },
        )
        .outcome
        .is_ok()
    }

    #[test]
    fn probes_match_table_1_expected_matrix_on_both_backends() {
        for backend in BackendKind::ALL {
            for interp in ErasureInterpretation::ALL {
                let p = probe_on(backend, interp);
                assert_eq!(
                    p.measured,
                    ErasureProperties::expected(interp),
                    "{backend:?}/{interp}: notes {:?}",
                    p.notes
                );
            }
        }
    }

    #[test]
    fn permanent_delete_clears_all_forensic_layers() {
        let mut config = crate::profiles::EngineConfig::p_sys();
        config.tuple_encryption = None;
        let mut fe = Frontend::new(config);
        let meta = GdprMetadata {
            subject: 1,
            purpose: wk::smart_space(),
            ttl: datacase_sim::time::Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &Session::new(Actor::Controller),
            Request::Create {
                key: 9,
                payload: b"PERMANENT-TARGET-XYZ".to_vec(),
                metadata: meta,
            },
        );
        assert!(erase(&mut fe, 9, ErasureInterpretation::PermanentlyDeleted));
        let f = fe.forensic().scan(b"PERMANENT-TARGET-XYZ");
        assert!(!f.any(), "residuals: {}", f.describe());
    }

    #[test]
    fn reversible_then_restore_roundtrip() {
        let mut fe = Frontend::new(crate::profiles::EngineConfig::p_base());
        let meta = GdprMetadata {
            subject: 2,
            purpose: wk::billing(),
            ttl: datacase_sim::time::Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &Session::new(Actor::Controller),
            Request::Create {
                key: 3,
                payload: vec![1, 2, 3],
                metadata: meta,
            },
        );
        assert!(erase(
            &mut fe,
            3,
            ErasureInterpretation::ReversiblyInaccessible
        ));
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(&controller, Request::Restore { key: 3 })
            .outcome
            .is_ok());
        assert!(
            fe.run(&controller, Request::Restore { key: 3 })
                .outcome
                .is_err(),
            "already restored"
        );
    }

    #[test]
    fn strong_delete_cascades_to_identifying_derived() {
        let mut config = crate::profiles::EngineConfig::p_sys();
        config.tuple_encryption = None;
        let mut fe = Frontend::new(config);
        let meta = GdprMetadata {
            subject: 5,
            purpose: wk::analytics(),
            ttl: datacase_sim::time::Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &Session::new(Actor::Controller),
            Request::Create {
                key: 1,
                payload: b"base-data".to_vec(),
                metadata: meta,
            },
        );
        let unit = fe.unit_of_key(1).unwrap();
        let derived = fe
            .forensic()
            .plant_derived(&[unit], "copy", true, true, b"base-data", 50);
        assert!(erase(&mut fe, 1, ErasureInterpretation::StronglyDeleted));
        assert!(fe
            .state()
            .unit(derived)
            .map(|u| u.erasure.is_erased())
            .unwrap());
        assert_eq!(
            fe.forensic().raw_read(50, true),
            None,
            "derived row deleted"
        );
    }
}
