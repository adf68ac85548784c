//! The erasure executor: the one mapping from erasure triggers to
//! system-actions (paper Figure 2 step ③, Table 1's last column), and the
//! one loop that runs them.
//!
//! A compliance erase (`Request::Erase`) runs [`plan`] for its
//! [`ErasureInterpretation`], the retention drain runs [`plan`] for
//! [`ErasureInterpretation::Deleted`], and a workload `Request::Delete`
//! runs [`workload_plan`]. The mapping is system
//! dependent, as the paper says: a [`Step`] names one [`StorageBackend`]
//! hook (or the audit log / key vault) and renders per backend — heap
//! mechanics (hidden attribute / DELETE / VACUUM / VACUUM FULL / WAL scrub
//! / sanitise) or LSM mechanics (flagged version / tombstone / memtable
//! flush / compaction / run purge). [`describe`] renders a plan as Table 1
//! prints it.
//!
//! `erase_now` runs every plan: it refuses an erasure the unit already
//! satisfies, executes the steps in order, then ends with the epilogue
//! (`Model::finish_erasure`: revoke consent, mark and record the erasure,
//! receipt included; then the metadata scans forget the key, which
//! `restore_now` puts back, and a unit now deleted or beyond leaves the
//! deadline index). No other code decides which backend calls an
//! erasure makes, so the plan a report declares is the plan that runs.
//! [`probe_on`] then measures the IR / II / Inv properties *empirically*
//! — II from the provenance graph and the forensic scanner's residuals —
//! on any engine configuration. The executor itself is crate-internal:
//! callers reach it through the requests above, `Request::Restore` and
//! the retention drain, which runs before every request and at every
//! deadline [`Frontend::advance_to`] passes.

use datacase_core::action::Action;
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::grounding::properties::ErasureProperties;
use datacase_core::history::HistoryTuple;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::well_known as wk;
use datacase_core::unit::ErasureStatus;
use datacase_sim::fault::CrashPoint;
use datacase_sim::Meter;
use datacase_storage::backend::{BackendKind, MaintenanceDepth, StorageBackend};
use datacase_storage::forensic::ForensicFindings;

use crate::error::EngineError;
use crate::frontend::Frontend;
use crate::profiles::{DeleteStrategy, EngineConfig, ProfileKind};

/// One system-action of an erasure plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Set the row's hidden attribute ([`StorageBackend::set_hidden`]).
    Hide,
    /// Logically delete the row ([`StorageBackend::delete`]). A no-op on
    /// a unit already deleted (rank ≥ 2), so an erasure can escalate.
    Delete,
    /// Delete the identifying derived units the provenance graph names.
    Cascade,
    /// A maintenance pass ([`StorageBackend::maintain`]).
    Maintain(MaintenanceDepth),
    /// Redact the unit's audit records, leaving the backend's copies.
    RedactLogs,
    /// Purge the retained copies of the unit and its cascaded
    /// descendants: [`StorageBackend::purge_unit`] plus the audit
    /// log's redaction — every online residual the maintenance pass
    /// leaves (WAL payloads, LSM run entries, audit payloads).
    PurgeLogs,
    /// Multi-pass overwrite of drive remanence ([`StorageBackend::sanitize`]).
    Sanitize,
    /// Destroy the per-unit tuple keys of the unit and its cascaded
    /// descendants (crypto-erasure).
    DestroyKey,
}

impl Step {
    /// The system-action this step is on `backend`, as Table 1 names it.
    pub fn label(self, backend: BackendKind) -> &'static str {
        use BackendKind::{Heap, Lsm};
        use MaintenanceDepth::{Full, Lazy};
        match (self, backend) {
            (Step::Hide, _) => "ADD/SET hidden attribute",
            (Step::Delete, Heap) => "DELETE",
            (Step::Delete, Lsm) => "INSERT tombstone",
            (Step::Cascade, _) => "CASCADE to identifying derived units",
            (Step::Maintain(Lazy), Heap) => "VACUUM",
            (Step::Maintain(Lazy), Lsm) => "FLUSH memtable",
            (Step::Maintain(Full), Heap) => "VACUUM FULL",
            (Step::Maintain(Full), Lsm) => "FORCE compaction",
            (Step::RedactLogs, _) => "REDACT unit's audit records",
            (Step::PurgeLogs, Heap) => "DELETE unit's logs",
            (Step::PurgeLogs, Lsm) => "DELETE unit's logs (run rewrite)",
            (Step::Sanitize, _) => "SANITIZE (multi-pass overwrite)",
            (Step::DestroyKey, _) => "DESTROY per-unit key",
        }
    }
}

/// The system-action plan grounding `interp` on an engine built from
/// `config`, in execution order.
///
/// Strong deletion clears every *online* residual
/// ([`ForensicFindings::online`]): the row and its identifying
/// descendants are deleted, rewritten away and purged from the WAL, the
/// LSM runs and the audit log. Permanent deletion is the same plan plus
/// the offline steps: `Sanitize` of drive remanence (heap only — the LSM
/// has no sub-run remanence) and `DestroyKey` (only under tuple
/// encryption; there is no key otherwise).
pub fn plan(config: &EngineConfig, interp: ErasureInterpretation) -> Vec<Step> {
    use MaintenanceDepth::{Full, Lazy};
    let mut steps = match interp {
        ErasureInterpretation::ReversiblyInaccessible => return vec![Step::Hide],
        ErasureInterpretation::Deleted => return vec![Step::Delete, Step::Maintain(Lazy)],
        ErasureInterpretation::StronglyDeleted | ErasureInterpretation::PermanentlyDeleted => {
            vec![
                Step::Delete,
                Step::Cascade,
                Step::Maintain(Full),
                Step::PurgeLogs,
            ]
        }
    };
    if interp == ErasureInterpretation::PermanentlyDeleted {
        if config.backend == BackendKind::Heap {
            steps.push(Step::Sanitize);
        }
        if config.tuple_encryption.is_some() {
            steps.push(Step::DestroyKey);
        }
    }
    steps
}

/// The plan a workload `DELETE` runs, grounding the delete strategy's
/// [`interpretation`](DeleteStrategy::interpretation): the hidden
/// attribute under [`DeleteStrategy::TombstoneAttribute`], a logical
/// delete otherwise, and on P_SYS the redaction of the unit's audit
/// records (§4.2). The strategy's maintenance is periodic, not per delete.
pub fn workload_plan(config: &EngineConfig) -> Vec<Step> {
    let mut steps = match config.delete_strategy {
        DeleteStrategy::TombstoneAttribute => vec![Step::Hide],
        _ => vec![Step::Delete],
    };
    if config.profile == ProfileKind::PSys {
        steps.push(Step::RedactLogs);
    }
    steps
}

/// Table 1's system-action column: [`plan`] rendered for the configured
/// backend. Permanent deletion is marked as a retrofit — the paper notes
/// stock PostgreSQL does not support it.
pub fn describe(config: &EngineConfig, interp: ErasureInterpretation) -> String {
    let joined = plan(config, interp)
        .iter()
        .map(|step| step.label(config.backend))
        .collect::<Vec<_>>()
        .join(" + ");
    if interp == ErasureInterpretation::PermanentlyDeleted {
        format!("{joined} (requires retrofit)")
    } else {
        joined
    }
}

/// Execute `steps`, the plan of an erasure grounding `interp`, on the
/// unit stored at `key`, immediately. The erase is attributed to `entity`
/// in the history and on its receipt — the actor the frontend
/// authenticated (or the controller, for retention erasure). Each
/// cascaded descendant gets its own receipt.
///
/// An erasure the unit already satisfies (its status ranks at or above
/// `interp`) is refused with [`EngineError::RetentionExpired`] before any
/// step runs, so erasure never regresses and never repeats. A key that is
/// unknown, or whose row cannot be hidden or deleted, is
/// [`EngineError::NotFound`].
pub(crate) fn erase_now(
    fe: &mut Frontend,
    key: u64,
    interp: ErasureInterpretation,
    steps: Vec<Step>,
    entity: EntityId,
) -> Result<(), EngineError> {
    let unit = fe.keys.unit_of(key).ok_or(EngineError::NotFound { key })?;
    let status = fe
        .model
        .state
        .unit(unit)
        .map_or(ErasureStatus::Active, |u| u.erasure);
    if let (true, Some(since)) = (status.satisfies(interp), status.since()) {
        return Err(EngineError::RetentionExpired { key, since });
    }
    let now = fe.clock.now();
    let Frontend {
        config,
        substrate,
        model,
        keys,
        clock,
        meter,
        ..
    } = fe;
    let backend: &mut dyn StorageBackend = substrate.backend.as_mut();
    let missing = |_| EngineError::NotFound { key };
    let mut descendants = Vec::new();
    for step in steps {
        match step {
            Step::Hide => backend.set_hidden(key, true).map_err(missing)?,
            // Escalation support (the Figure-3 staged timeline): the row is
            // already physically gone or dead from rank 2 on; a reversibly-
            // inaccessible (rank 1) row still exists on the backend and is
            // deleted like a live one.
            Step::Delete if status.rank() < 2 => backend.delete(key).map_err(missing)?,
            Step::Delete => {}
            Step::Cascade => {
                descendants = model.state.provenance().identifying_descendants(unit);
                for &d in &descendants {
                    if let Some(dkey) = keys.key_of(d) {
                        let _ = backend.delete(dkey);
                    }
                    keys.unschedule(d, model.erase_deadline(d));
                    let at = clock.now();
                    let already = model.state.unit(d).is_none_or(|u| u.erasure.rank() >= 2);
                    if !already {
                        model
                            .state
                            .mark_erased(d, ErasureStatus::Deleted { since: at }, at);
                        model.record(
                            d,
                            wk::compliance_erase(),
                            model.controller,
                            Action::Erase(ErasureInterpretation::Deleted),
                            at,
                            Vec::new(),
                        );
                    }
                }
            }
            Step::Maintain(depth) => {
                backend.maintain(depth);
            }
            Step::RedactLogs | Step::PurgeLogs => {
                for &u in std::iter::once(&unit).chain(&descendants) {
                    if step == Step::PurgeLogs {
                        backend.purge_unit(u.0);
                    }
                    model.audit.redact_unit(u);
                }
            }
            Step::Sanitize => backend.sanitize(3),
            Step::DestroyKey => {
                // Chaos tap: crash between purging the unit's rows/logs
                // and destroying its key — recovery must still converge
                // to zero residuals under crypto-erasure.
                config.fault.hit(CrashPoint::DestroyKey);
                if let Some(vault) = &mut substrate.vault {
                    for &u in std::iter::once(&unit).chain(&descendants) {
                        vault.destroy_key(u.0);
                    }
                }
            }
        }
    }

    let at = clock.now();
    model.finish_erasure(unit, interp, entity, now, at);
    Meter::bump(&meter.policy_mutations, 1);
    keys.unscan(key);
    if interp.implies(ErasureInterpretation::Deleted) {
        keys.unschedule(unit, model.erase_deadline(unit));
    }
    Ok(())
}

/// The retention drain: erase, as the controller and at
/// [`ErasureInterpretation::Deleted`], every personal unit whose
/// [`erase_deadline`](datacase_core::policy::PolicySet::erase_deadline)
/// is at or before now, in (deadline, unit) order, so the engine's own
/// actions keep G17. Each unit leaves the index as it is taken, so one the
/// executor refuses or fails is not retried; one only hidden is
/// escalated. With nothing due, it only reads the index's first entry.
pub(crate) fn drain(fe: &mut Frontend) {
    let interp = ErasureInterpretation::Deleted;
    while let Some(unit) = fe.keys.pop_due(fe.clock.now()) {
        let key = fe.keys.key_of(unit).expect("indexed units are bound");
        let steps = plan(&fe.config, interp);
        let controller = fe.model.controller;
        let _ = erase_now(fe, key, interp, steps, controller);
    }
}

/// Restore a reversibly-inaccessible unit (the inverse action that makes
/// the interpretation *invertible* in Table 1). Returns false if the unit
/// is not in the reversible state.
pub(crate) fn restore_now(fe: &mut Frontend, key: u64) -> bool {
    let Some(meta) = fe.keys.get(key) else {
        return false;
    };
    let unit = meta.unit;
    let restorable = fe
        .model
        .state
        .unit(unit)
        .is_some_and(|u| matches!(u.erasure, ErasureStatus::ReversiblyInaccessible { .. }));
    if !restorable {
        return false;
    }
    if fe.substrate.backend.set_hidden(key, false).is_err() {
        return false;
    }
    fe.keys.insert(key, meta, fe.model.erase_deadline(unit));
    let at = fe.clock.now();
    fe.model.state.unit_mut(unit).expect("checked").restore();
    fe.model.record(
        unit,
        wk::subject_access(),
        fe.model.controller,
        Action::Restore,
        at,
        Vec::new(),
    );
    true
}

/// The configuration Table 1 is probed on: P_SYS over `backend` with
/// stock-engine-like plaintext tuple storage. Table 1's system-action
/// column is [`describe`]d for it on the heap.
pub fn probe_config(backend: BackendKind) -> EngineConfig {
    let mut config = EngineConfig::p_sys().with_backend(backend);
    config.tuple_encryption = None;
    config
}

/// One empirical measurement of Table 1's properties on a live engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyProbe {
    /// The interpretation that was exercised.
    pub interpretation: ErasureInterpretation,
    /// Measured (IR, II, Inv).
    pub measured: ErasureProperties,
    /// What the forensic scanner found of the erased payload after the
    /// erasure: the physical half of the II measurement.
    pub residuals: ForensicFindings,
}

impl PropertyProbe {
    /// Does the measurement match Table 1's expectation?
    pub fn matches_expected(&self) -> bool {
        self.measured == ErasureProperties::expected(self.interpretation)
    }
}

/// Empirically measure (IR, II, Inv) for one interpretation on a fresh
/// engine built from `config` — the measured side of Table 1, and the
/// paper's claim that the grounded properties hold *independently of the
/// underlying system*, measured on the configuration that runs.
///
/// Scenario: a subject's record plus an *identifying, invertible* derived
/// copy (an encrypted backup). After erasure:
///
/// * **IR** — can any entity still read the unit through the API with no
///   active policy? (The probe tries; enforcement or physical absence must
///   stop it.)
/// * **II** — can the unit be inferred, either from dependent data
///   (provenance reconstruction from the surviving copy) or from the
///   payload's [online](ForensicFindings::online) residuals?
/// * **Inv** — does the restore action bring the unit back?
pub fn probe_on(config: &EngineConfig, interp: ErasureInterpretation) -> PropertyProbe {
    use crate::frontend::{Actor, Reply, Request, Session};
    use datacase_workloads::record::GdprMetadata;

    let mut fe = Frontend::new(config.clone());
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
    let processor_entity = fe.model.processor;

    // Derived identifying, invertible copy (e.g. an analytics mirror).
    fe.forensic()
        .plant_derived(&[unit], "mirror-copy", true, true, &payload, 2);
    let now = fe.clock().now();
    fe.forensic().inject_history(HistoryTuple {
        unit,
        purpose: wk::analytics(),
        entity: processor_entity,
        action: Action::Derive,
        at: now,
    });

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

    // II: reconstruction from surviving dependent data, or the payload's
    // bytes still online.
    let alive: Vec<UnitId> = fe
        .state()
        .units()
        .filter(|u| !u.erasure.is_erased())
        .map(|u| u.id)
        .collect();
    let alive_fn = move |u: UnitId| alive.contains(&u);
    let residuals = fe.forensic().scan(&payload);
    let illegal_inference =
        fe.state().provenance().reconstructable(unit, &alive_fn) || residuals.online();

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
            .is_some_and(|u| !u.erasure.is_erased());

    PropertyProbe {
        interpretation: interp,
        measured: ErasureProperties {
            illegal_read,
            illegal_inference,
            invertible,
        },
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Actor, Request, Session};
    use datacase_core::regulation::Regulation;
    use datacase_sim::time::Ts;
    use datacase_workloads::record::GdprMetadata;

    fn create(fe: &mut Frontend, key: u64, payload: &[u8]) {
        let metadata = GdprMetadata {
            subject: 1,
            purpose: wk::smart_space(),
            ttl: datacase_sim::time::Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        };
        let created = fe.run(
            &Session::new(Actor::Controller),
            Request::Create {
                key,
                payload: payload.to_vec(),
                metadata,
            },
        );
        assert!(created.is_done());
    }

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
    fn probe_match_detection() {
        let ok = PropertyProbe {
            interpretation: ErasureInterpretation::Deleted,
            measured: ErasureProperties::expected(ErasureInterpretation::Deleted),
            residuals: ForensicFindings::default(),
        };
        assert!(ok.matches_expected());
        let bad = PropertyProbe {
            interpretation: ErasureInterpretation::StronglyDeleted,
            measured: ErasureProperties {
                illegal_read: false,
                illegal_inference: true, // residuals found!
                invertible: false,
            },
            residuals: ForensicFindings::default(),
        };
        assert!(!bad.matches_expected());
    }

    #[test]
    fn paper_heap_column_is_the_probe_plan() {
        let config = probe_config(BackendKind::Heap);
        assert_eq!(
            describe(&config, ErasureInterpretation::ReversiblyInaccessible),
            "ADD/SET hidden attribute"
        );
        assert_eq!(
            describe(&config, ErasureInterpretation::Deleted),
            "DELETE + VACUUM"
        );
        assert_eq!(
            describe(&config, ErasureInterpretation::StronglyDeleted),
            "DELETE + CASCADE to identifying derived units + VACUUM FULL + DELETE unit's logs"
        );
        // Paper: "permanently delete: Not supported" in stock PSQL — the
        // engine retrofits it with log deletion and a sanitisation pass.
        assert_eq!(
            describe(&config, ErasureInterpretation::PermanentlyDeleted),
            "DELETE + CASCADE to identifying derived units + VACUUM FULL + \
             DELETE unit's logs + SANITIZE (multi-pass overwrite) (requires retrofit)"
        );
    }

    #[test]
    fn lsm_plans_use_tombstones_and_never_sanitize() {
        let config = probe_config(BackendKind::Lsm);
        assert_eq!(
            describe(&config, ErasureInterpretation::Deleted),
            "INSERT tombstone + FLUSH memtable"
        );
        assert!(describe(&config, ErasureInterpretation::StronglyDeleted)
            .ends_with("FORCE compaction + DELETE unit's logs (run rewrite)"));
        assert!(!plan(&config, ErasureInterpretation::PermanentlyDeleted).contains(&Step::Sanitize));
    }

    #[test]
    fn only_permanent_deletion_destroys_keys_and_only_when_encrypted() {
        for backend in BackendKind::ALL {
            let encrypted = EngineConfig::p_sys().with_backend(backend);
            let plaintext = probe_config(backend);
            for interp in ErasureInterpretation::ALL {
                let permanent = interp == ErasureInterpretation::PermanentlyDeleted;
                assert_eq!(
                    plan(&encrypted, interp).contains(&Step::DestroyKey),
                    permanent
                );
                assert!(!plan(&plaintext, interp).contains(&Step::DestroyKey));
            }
        }
    }

    /// The plan a report declares is the plan that runs. For `Erase`,
    /// every step with a crash tap is reached exactly when the plan holds
    /// it, for every backend × interpretation × tuple-encryption cell. For
    /// a workload `DELETE`, in every backend × strategy cell with and
    /// without P_SYS's redaction, the row is left hidden exactly when the
    /// plan hides it, the audit log holds no payload exactly when the plan
    /// redacts it, and no tapped step runs.
    #[test]
    fn declared_plan_is_the_executed_plan() {
        for backend in BackendKind::ALL {
            for profile in [EngineConfig::p_base(), probe_config(backend)] {
                for strategy in DeleteStrategy::ALL {
                    let fault = datacase_sim::fault::FaultInjector::counting();
                    let mut config = profile
                        .clone()
                        .with_backend(backend)
                        .with_fault(fault.clone());
                    config.delete_strategy = strategy;
                    let steps = workload_plan(&config);
                    let mut fe = Frontend::new(config);
                    create(&mut fe, 1, b"PLAN-TARGET");
                    let deleted =
                        fe.run(&Session::new(Actor::Controller), Request::Delete { key: 1 });
                    assert!(deleted.is_done(), "{:?}", deleted.outcome);
                    let cell = format!("{backend:?}/{strategy:?}: {steps:?}");
                    let mut forensic = fe.forensic();
                    assert_eq!(
                        forensic.raw_read(1, true).is_some(),
                        steps.contains(&Step::Hide),
                        "hidden row, {cell}"
                    );
                    assert_eq!(
                        forensic.scan(b"PLAN-TARGET").audit_records == 0,
                        steps.contains(&Step::RedactLogs),
                        "audit redaction, {cell}"
                    );
                    for point in [
                        CrashPoint::PurgeUnit,
                        CrashPoint::DestroyKey,
                        CrashPoint::Compaction,
                    ] {
                        assert_eq!(fault.count(point), 0, "{}, {cell}", point.name());
                    }
                }
            }
            for encrypted in [false, true] {
                for interp in ErasureInterpretation::ALL {
                    let fault = datacase_sim::fault::FaultInjector::counting();
                    let mut config = probe_config(backend).with_fault(fault.clone());
                    if encrypted {
                        config.tuple_encryption = EngineConfig::p_sys().tuple_encryption;
                    }
                    let steps = plan(&config, interp);
                    let mut fe = Frontend::new(config);
                    create(&mut fe, 1, b"PLAN-TARGET");
                    // One create reaches none of the three taps below.
                    assert!(erase(&mut fe, 1, interp));
                    let reached = |point: CrashPoint| fault.count(point) > 0;
                    let cell = format!("{backend:?}/{interp}/encrypted={encrypted}: {steps:?}");
                    assert_eq!(
                        reached(CrashPoint::PurgeUnit),
                        steps.contains(&Step::PurgeLogs),
                        "purge-unit, {cell}"
                    );
                    assert_eq!(
                        reached(CrashPoint::DestroyKey),
                        steps.contains(&Step::DestroyKey),
                        "destroy-key, {cell}"
                    );
                    if backend == BackendKind::Lsm {
                        assert_eq!(
                            reached(CrashPoint::Compaction),
                            steps.contains(&Step::Maintain(MaintenanceDepth::Full)),
                            "compaction, {cell}"
                        );
                    }
                }
            }
        }
    }

    /// An erasure the unit already satisfies is refused before any step
    /// runs: a typed reply, no audit record, the status unchanged.
    #[test]
    fn an_erasure_the_unit_already_satisfies_is_refused() {
        use ErasureInterpretation::{Deleted, PermanentlyDeleted, StronglyDeleted};
        for backend in BackendKind::ALL {
            for (first, second) in [
                (StronglyDeleted, Deleted),
                (PermanentlyDeleted, StronglyDeleted),
                (PermanentlyDeleted, Deleted),
                (Deleted, Deleted),
            ] {
                let mut fe = Frontend::new(EngineConfig::p_sys().with_backend(backend));
                create(&mut fe, 1, b"REFUSED-TARGET");
                assert!(erase(&mut fe, 1, first));
                let unit = fe.unit_of_key(1).unwrap();
                let status = fe.state().unit(unit).unwrap().erasure;
                let records = fe.audit_records();
                let refused = fe.run(
                    &Session::new(Actor::Controller),
                    Request::Erase {
                        key: 1,
                        interpretation: second,
                    },
                );
                let cell = format!("{backend:?}/{first} then {second}");
                assert_eq!(
                    refused.outcome,
                    Err(EngineError::RetentionExpired {
                        key: 1,
                        since: status.since().unwrap(),
                    }),
                    "{cell}"
                );
                assert_eq!(fe.audit_records(), records, "{cell}");
                assert_eq!(fe.state().unit(unit).unwrap().erasure, status, "{cell}");
            }
        }
    }

    #[test]
    fn permanent_delete_clears_all_forensic_layers() {
        let mut fe = Frontend::new(probe_config(BackendKind::Heap));
        create(&mut fe, 9, b"PERMANENT-TARGET-XYZ");
        assert!(erase(&mut fe, 9, ErasureInterpretation::PermanentlyDeleted));
        let f = fe.forensic().scan(b"PERMANENT-TARGET-XYZ");
        assert!(!f.any(), "residuals: {}", f.describe());
    }

    #[test]
    fn reversible_then_restore_roundtrip() {
        let mut fe = Frontend::new(EngineConfig::p_base());
        create(&mut fe, 3, &[1, 2, 3]);
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

    /// An engine holding one billing record per entry of `ttls`, key `i`
    /// due at `ttls[i]` seconds.
    fn fe_with_ttls(ttls: &[u64]) -> Frontend {
        let mut fe = Frontend::new(EngineConfig::p_base());
        let controller = Session::new(Actor::Controller);
        for (i, &ttl) in ttls.iter().enumerate() {
            let metadata = GdprMetadata {
                subject: i as u32,
                purpose: wk::billing(),
                ttl: Ts::from_secs(ttl),
                origin_device: 0,
                objects_to_sharing: false,
            };
            let created = fe.run(
                &controller,
                Request::Create {
                    key: i as u64,
                    payload: format!("record-{i}").into_bytes(),
                    metadata,
                },
            );
            assert!(created.is_done(), "{:?}", created.outcome);
        }
        fe
    }

    fn status(fe: &Frontend, key: u64) -> ErasureStatus {
        fe.state()
            .unit(fe.unit_of_key(key).unwrap())
            .unwrap()
            .erasure
    }

    fn g17(fe: &mut Frontend) -> Vec<datacase_core::violation::Violation> {
        let report = fe.compliance_report(&Regulation::gdpr());
        report.of_invariant("G17").into_iter().cloned().collect()
    }

    #[test]
    fn drain_erases_only_due_units() {
        let mut fe = fe_with_ttls(&[100, 10_000_000]);
        fe.advance_to(Ts::from_secs(200));
        assert_eq!(
            status(&fe, 0),
            ErasureStatus::Deleted {
                since: Ts::from_secs(100)
            },
            "erased at its deadline"
        );
        assert_eq!(status(&fe, 1), ErasureStatus::Active);
    }

    /// A raw clock jump drains nothing by itself; the next request's
    /// drain erases every overdue unit, however late.
    #[test]
    fn the_next_request_drains_units_overdue_on_the_raw_clock() {
        let mut fe = fe_with_ttls(&[100, 200, 300]);
        fe.clock().advance_to(Ts::from_secs(40 * 24 * 3600));
        assert!(!g17(&mut fe).is_empty());
        let read = fe.run(&Session::new(Actor::Controller), Request::Read { key: 0 });
        assert!(read.outcome.is_err(), "{:?}", read.outcome);
        for key in 0..3 {
            assert!(status(&fe, key).satisfies(ErasureInterpretation::Deleted));
        }
        assert!(g17(&mut fe)
            .iter()
            .all(|v| !v.message.contains("regulation requires")));
    }

    #[test]
    fn hourly_advances_never_let_g17_break() {
        let mut fe = fe_with_ttls(&[3600, 7200, 10_800]);
        for hour in 1..=4 {
            fe.advance_to(Ts::from_secs(hour * 3600));
            let violations = g17(&mut fe);
            assert!(
                violations.is_empty(),
                "G17 after hour {hour}: {violations:?}"
            );
        }
        assert_eq!(fe.keys.next_deadline(), None, "everything erased");
    }

    /// Extending a TTL grants a later erase-by policy next to the first;
    /// the drain and G17 both read the earliest, so the unit keeps one
    /// deadline.
    #[test]
    fn extended_ttl_keeps_the_drain_and_g17_on_one_deadline() {
        use datacase_workloads::MetaField;
        let mut fe = fe_with_ttls(&[3600, 7200, 10_800, 14_400]);
        let extended = fe.run(
            &Session::new(Actor::Controller),
            Request::UpdateMeta {
                key: 1,
                field: MetaField::Ttl,
            },
        );
        assert!(extended.outcome.is_ok(), "{:?}", extended.outcome);
        for hour in 1..=5 {
            fe.advance_to(Ts::from_secs(hour * 3600));
            let violations = g17(&mut fe);
            assert!(
                violations.is_empty(),
                "G17 after hour {hour}: {violations:?}"
            );
        }
        assert_eq!(
            status(&fe, 1),
            ErasureStatus::Deleted {
                since: Ts::from_secs(7200)
            }
        );
        assert_eq!(fe.keys.next_deadline(), None, "everything erased");
    }

    #[test]
    fn a_second_advance_writes_no_second_receipt() {
        let mut fe = fe_with_ttls(&[100]);
        fe.advance_to(Ts::from_secs(5000));
        let records = fe.audit_records();
        fe.advance_to(Ts::from_secs(10_000));
        let unit = fe.unit_of_key(0).unwrap();
        let erases = fe
            .history()
            .of_unit(unit)
            .iter()
            .filter(|t| matches!(t.action, Action::Erase(_)))
            .count();
        assert_eq!(erases, 1);
        assert_eq!(fe.audit_records(), records);
    }

    #[test]
    fn drain_erases_due_units_on_lsm_backend() {
        let mut fe = Frontend::new(EngineConfig::p_base().with_backend(BackendKind::Lsm));
        let controller = Session::new(Actor::Controller);
        let metadata = GdprMetadata {
            subject: 1,
            purpose: wk::billing(),
            ttl: Ts::from_secs(100),
            origin_device: 0,
            objects_to_sharing: false,
        };
        fe.run(
            &controller,
            Request::Create {
                key: 0,
                payload: b"lsm-drained-record".to_vec(),
                metadata,
            },
        );
        fe.advance_to(Ts::from_secs(5000));
        assert!(status(&fe, 0).satisfies(ErasureInterpretation::Deleted));
        let read_back = fe.run(&controller, Request::Read { key: 0 });
        assert!(
            read_back.outcome.is_err(),
            "erased record must be unreadable: {:?}",
            read_back.outcome
        );
    }

    /// A unit only hidden (reversibly inaccessible) is below G17's
    /// minimum: it stays in the deadline index and is escalated to
    /// deleted.
    #[test]
    fn drain_escalates_a_hidden_unit_to_deleted() {
        let mut fe = fe_with_ttls(&[100, 10_000_000]);
        assert!(erase(
            &mut fe,
            0,
            ErasureInterpretation::ReversiblyInaccessible
        ));
        assert_eq!(
            fe.keys.next_deadline(),
            Some(Ts::from_secs(100)),
            "the hidden unit is still due"
        );
        fe.advance_to(Ts::from_secs(40 * 24 * 3600));
        assert!(status(&fe, 0).satisfies(ErasureInterpretation::Deleted));
        let violations = g17(&mut fe);
        assert!(
            violations
                .iter()
                .all(|v| !v.message.contains("regulation requires")),
            "{violations:?}"
        );
    }

    #[test]
    fn strong_delete_cascades_to_identifying_derived() {
        let mut fe = Frontend::new(probe_config(BackendKind::Heap));
        create(&mut fe, 1, b"base-data");
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
