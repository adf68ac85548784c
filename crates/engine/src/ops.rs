//! The request handlers: one `op_*` per
//! [`Request`](crate::frontend::Request) variant, each
//! deciding, applying and accounting its request against the engine's
//! holders — the [`Substrate`](crate::substrate::Substrate), the
//! [`Model`](crate::model::Model) and the [`KeyIndex`](crate::keys::KeyIndex).

use datacase_core::action::{Action, ActionKind};
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::policy::Policy;
use datacase_core::purpose::{well_known as wk, PurposeId};
use datacase_core::tenant::KeyRange;
use datacase_core::unit::{DataUnit, Origin};
use datacase_core::value::Value;
use datacase_sim::time::Ts;
use datacase_sim::Meter;
use datacase_storage::error::StorageError;
use datacase_workloads::record::GdprMetadata;
use datacase_workloads::{MetaField, MetaSelector};

use crate::erasure;
use crate::error::EngineError;
use crate::frontend::{Actor, Frontend, Reply};
use crate::keys::KeyMeta;

impl Frontend {
    fn actor_entity(&mut self, actor: Actor, subject: u32) -> EntityId {
        match actor {
            Actor::Controller => self.model.controller,
            Actor::Processor => self.model.processor,
            Actor::Subject => self
                .model
                .subject_entity(subject, self.substrate.enforcer.as_mut()),
        }
    }

    /// The error for an access to a key whose row is physically absent:
    /// erased units report the erasure, anything else is a plain miss.
    fn gone(&self, key: u64, unit: UnitId) -> EngineError {
        match self.model.erased_since(unit) {
            Some(since) => EngineError::RetentionExpired { key, since },
            None => EngineError::NotFound { key },
        }
    }

    /// The compliance erase path.
    ///
    /// Erasure is the one request whose entitlement never lapses: the
    /// subject's right to erasure and the controller's retention duty
    /// hold regardless of the unit's policy state — the policies may
    /// already be revoked (a prior, weaker erasure being escalated) or
    /// expired (an overdue unit must stay erasable). Processors have
    /// neither right nor duty; their erase requests go through policy
    /// enforcement like any other action and are denied (with an audit
    /// record) unless a policy explicitly grants them `Erase`.
    pub(crate) fn op_erase(
        &mut self,
        key: u64,
        interpretation: ErasureInterpretation,
        actor: Actor,
    ) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        let entity = self.actor_entity(actor, meta.subject);
        if actor == Actor::Processor {
            self.check(meta.unit, entity, wk::compliance_erase(), ActionKind::Erase)?;
        }
        let steps = erasure::plan(&self.config, interpretation);
        erasure::erase_now(self, key, interpretation, steps, entity)?;
        Ok(Reply::Erased(interpretation))
    }

    /// The inverse compliance action. Restoration cannot be checked
    /// against unit policies (they were revoked with the erasure), so it
    /// is gated on the actor: the subject reclaiming their data or the
    /// controller handling their request — never a processor.
    pub(crate) fn op_restore(&mut self, key: u64, actor: Actor) -> Result<Reply, EngineError> {
        if self.keys.unit_of(key).is_none() {
            return Err(EngineError::NotFound { key });
        }
        if actor == Actor::Processor {
            return Err(EngineError::Denied {
                reason: "processors cannot restore erased records".into(),
            });
        }
        if erasure::restore_now(self, key) {
            Ok(Reply::Restored)
        } else {
            Err(EngineError::Denied {
                reason: "unit is not reversibly inaccessible".into(),
            })
        }
    }

    pub(crate) fn op_create(
        &mut self,
        key: u64,
        payload: &[u8],
        metadata: &GdprMetadata,
    ) -> Result<Reply, EngineError> {
        if let Some(meta) = self.keys.get(key) {
            // Duplicate key in the stream. An erased key stays bound to
            // its (dead) unit — re-collection is a retention question,
            // not a constraint violation.
            return Err(match self.model.erased_since(meta.unit) {
                Some(since) => EngineError::RetentionExpired { key, since },
                None => EngineError::Backend {
                    detail: format!("key {key} already exists"),
                },
            });
        }
        let now = self.clock.now();
        // Physical insert (encrypted per profile) first: a refused insert
        // leaves the model, the enforcer and the vault as they were.
        let unit = self.model.state.allocate_unit_id();
        self.substrate
            .store_payload(
                unit,
                payload,
                &self.clock,
                &self.meter,
                |backend, stored| backend.insert(key, unit.0, stored),
            )
            .map_err(|e| EngineError::Backend {
                detail: e.to_string(),
            })?;
        let subject_e = self.actor_entity(Actor::Subject, metadata.subject);
        let (controller, processor) = (self.model.controller, self.model.processor);
        self.model.state.insert(DataUnit::base(
            unit,
            subject_e,
            Origin::Device(format!("dev-{}", metadata.origin_device)),
            Value::Stored { len: payload.len() },
            now,
        ));
        // The unit's policy rows, which G6, G17 and the enforcer read: the
        // base set, padded to `policies_per_unit` with short-lived rows
        // (finer-grained slicing in P_SYS — Sieve metadata volume).
        let ttl = metadata.ttl;
        let mut policies = vec![
            Policy::open_ended(wk::subject_access(), subject_e, now),
            Policy::new(wk::compliance_erase(), subject_e, now, ttl),
            Policy::new(wk::compliance_erase(), controller, now, ttl),
            Policy::open_ended(wk::contract(), controller, now),
            Policy::open_ended(wk::contract(), subject_e, now),
            Policy::new(metadata.purpose, processor, now, ttl),
            Policy::new(metadata.purpose, controller, now, ttl),
            Policy::new(wk::retention(), processor, now, ttl),
            Policy::open_ended(wk::audit(), self.model.auditor, now),
        ];
        while policies.len() < self.config.policies_per_unit {
            let i = policies.len() as u64;
            policies.push(Policy::new(
                wk::analytics(),
                processor,
                now,
                Ts(now.0.saturating_add(1 + i)),
            ));
        }
        self.substrate.enforcer.register_unit(&policies);
        {
            let u = self.model.state.unit_mut(unit).expect("just collected");
            u.policies.grant_all(&policies);
            u.encrypted_at_rest = self.config.encryption_at_rest();
        }
        self.keys.insert(
            key,
            KeyMeta {
                unit,
                subject: metadata.subject,
                purpose: metadata.purpose,
                ttl,
            },
            self.model.erase_deadline(unit),
        );
        // Consent capture: the paper's CtrC tuple.
        self.model.record(
            unit,
            wk::contract(),
            controller,
            Action::Create,
            now,
            payload.to_vec(),
        );
        Ok(Reply::Done)
    }

    pub(crate) fn op_read(
        &mut self,
        key: u64,
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        let purpose = declared.unwrap_or(match actor {
            Actor::Subject => wk::subject_access(),
            _ => meta.purpose,
        });
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, purpose, ActionKind::Read)?;
        let Some(stored) = self.substrate.backend.read(key, false) else {
            return Err(self.gone(key, meta.unit));
        };
        let plain = self
            .substrate
            .decrypt_payload(meta.unit, stored, &self.clock, &self.meter);
        let len = plain.len();
        let now = self.clock.now();
        self.model
            .record(meta.unit, purpose, entity, Action::Read, now, plain);
        Ok(Reply::Value(len))
    }

    pub(crate) fn op_update(
        &mut self,
        key: u64,
        payload: &[u8],
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        let purpose = declared.unwrap_or(match actor {
            Actor::Subject => wk::subject_access(),
            _ => meta.purpose,
        });
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, purpose, ActionKind::UpdateValue)?;
        self.substrate
            .store_payload(
                meta.unit,
                payload,
                &self.clock,
                &self.meter,
                |backend, stored| backend.update(key, stored),
            )
            .map_err(|e| match e {
                StorageError::KeyNotFound(_) => self.gone(key, meta.unit),
                e => EngineError::Backend {
                    detail: e.to_string(),
                },
            })?;
        let now = self.clock.now();
        if let Some(u) = self.model.state.unit_mut(meta.unit) {
            u.value.write(now, Value::Stored { len: payload.len() });
        }
        self.model.record(
            meta.unit,
            purpose,
            entity,
            Action::UpdateValue,
            now,
            payload.to_vec(),
        );
        Ok(Reply::Done)
    }

    pub(crate) fn op_delete(&mut self, key: u64, actor: Actor) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, wk::compliance_erase(), ActionKind::Erase)?;
        let interp = self.config.delete_strategy.interpretation();
        let steps = erasure::workload_plan(&self.config);
        erasure::erase_now(self, key, interp, steps, entity)?;
        self.deletes_since_maintenance += 1;
        if self.deletes_since_maintenance >= self.config.maintenance_every {
            self.run_maintenance();
        }
        Ok(Reply::Done)
    }

    /// Run the delete strategy's periodic maintenance now, mapped to the
    /// backend's mechanics (heap: VACUUM / VACUUM FULL; LSM: flush /
    /// full compaction).
    fn run_maintenance(&mut self) {
        self.deletes_since_maintenance = 0;
        if let Some(depth) = self.config.delete_strategy.maintenance() {
            self.substrate.backend.maintain(depth);
        }
    }

    pub(crate) fn op_read_meta(
        &mut self,
        key: u64,
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        if let Some(since) = self.model.erased_since(meta.unit) {
            // The record's metadata row went with the record.
            return Err(EngineError::RetentionExpired { key, since });
        }
        let entity = self.actor_entity(actor, meta.subject);
        let purpose = declared.unwrap_or(match actor {
            Actor::Subject => wk::subject_access(),
            Actor::Controller => wk::contract(),
            Actor::Processor => meta.purpose,
        });
        self.check(meta.unit, entity, purpose, ActionKind::ReadMeta)?;
        // The metadata row itself: policies + provenance summary.
        let now = self.clock.now();
        let policies = self
            .model
            .state
            .unit(meta.unit)
            .map_or(0, |u| u.policies.active_at(now).len());
        let rendered = format!(
            "key={key} subject={} purpose={} ttl={} policies={policies}",
            meta.subject, meta.purpose, meta.ttl
        );
        let len = rendered.len();
        self.model.record(
            meta.unit,
            purpose,
            entity,
            Action::ReadMeta,
            now,
            rendered.into_bytes(),
        );
        Ok(Reply::Value(len))
    }

    pub(crate) fn op_update_meta(
        &mut self,
        key: u64,
        field: MetaField,
        actor: Actor,
    ) -> Result<Reply, EngineError> {
        let meta = self.keys.get(key).ok_or(EngineError::NotFound { key })?;
        if let Some(since) = self.model.erased_since(meta.unit) {
            return Err(EngineError::RetentionExpired { key, since });
        }
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, wk::contract(), ActionKind::UpdatePolicy)?;
        let now = self.clock.now();
        let controller = self.model.controller;
        // Apply the policy change to the model.
        let new_policy = match field {
            MetaField::Ttl => {
                let new_ttl = Ts(meta.ttl.0.saturating_add(86_400_000_000_000)); // +1 day
                self.keys.set_ttl(key, new_ttl);
                Policy::new(wk::compliance_erase(), controller, now, new_ttl)
            }
            MetaField::Purpose => Policy::new(
                wk::analytics(),
                self.model.processor,
                now,
                Ts(now.0.saturating_add(30 * 86_400_000_000_000)),
            ),
            MetaField::Objection => Policy::new(wk::audit(), self.model.auditor, now, Ts::MAX),
        };
        let before = self.model.erase_deadline(meta.unit);
        // The enforcer books the grant against the rows from before it.
        let rows = self.model.state.unit(meta.unit).map(|u| &u.policies);
        self.substrate.enforcer.grant(rows, new_policy);
        if let Some(u) = self.model.state.unit_mut(meta.unit) {
            u.policies.grant(new_policy);
        }
        Meter::bump(&self.meter.policy_mutations, 1);
        let after = self.model.erase_deadline(meta.unit);
        self.keys.reschedule(meta.unit, before, after);
        // The metadata-row update is a durable write like any other
        // statement (the paper: "such operations require more metadata
        // access and logging").
        let model = self.clock.model().clone();
        self.clock.charge(model.log_cost(64));
        self.clock.charge_nanos(model.txn_overhead + model.fsync);
        self.model.record(
            meta.unit,
            wk::contract(),
            entity,
            Action::UpdatePolicy,
            now,
            format!("{field:?}").into_bytes(),
        );
        // Invariant VIII: notify the subject of the policy change.
        let now2 = self.clock.now();
        self.model.record(
            meta.unit,
            wk::contract(),
            controller,
            Action::Notify,
            now2,
            Vec::new(),
        );
        Ok(Reply::Done)
    }

    pub(crate) fn op_read_by_meta(
        &mut self,
        selector: MetaSelector,
        declared: Option<PurposeId>,
        scope: Option<KeyRange>,
    ) -> Result<Reply, EngineError> {
        const SCAN_CAP: usize = 20;
        let keys = self.keys.scan(selector, scope, SCAN_CAP);
        // Metadata-index probe cost.
        self.clock
            .charge_nanos(self.clock.model().index_probe * (1 + keys.len() as u64));
        Meter::bump(&self.meter.index_probes, 1 + keys.len() as u64);
        let processor = self.model.processor;
        let mut rows = 0usize;
        for key in keys {
            let Some(meta) = self.keys.get(key) else {
                continue;
            };
            // Processor reads each matching record under its collection
            // purpose (or the session's declared one); enforcement is
            // per-record (FGAC pays per tuple).
            let purpose = declared.unwrap_or(meta.purpose);
            if self
                .check(meta.unit, processor, purpose, ActionKind::Read)
                .is_err()
            {
                continue;
            }
            if let Some(stored) = self.substrate.backend.read(key, false) {
                // Decrypted, charged and recorded like any read; only the
                // row count leaves the engine, so the record holds none.
                self.substrate
                    .decrypt_payload(meta.unit, stored, &self.clock, &self.meter);
                let now = self.clock.now();
                self.model
                    .record(meta.unit, purpose, processor, Action::Read, now, Vec::new());
                rows += 1;
            }
        }
        Ok(Reply::Rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Request, Session};
    use crate::profiles::{DeleteStrategy, EngineConfig, ProfileKind};
    use datacase_core::regulation::Regulation;
    use datacase_storage::backend::BackendKind;
    use datacase_workloads::gdprbench::{GdprBench, Mix};

    fn small_db(profile: ProfileKind) -> (Frontend, GdprBench) {
        let mut config = EngineConfig::for_profile(profile);
        config.maintenance_every = 50;
        let fe = Frontend::new(config);
        let bench = GdprBench::new(42, 50);
        (fe, bench)
    }

    fn load(fe: &mut Frontend, bench: &mut GdprBench, n: usize) {
        let controller = Session::new(Actor::Controller);
        for r in fe.submit(&controller, &bench.load_phase(n)) {
            assert!(r.is_done(), "load op failed: {:?}", r.outcome);
        }
    }

    #[test]
    fn load_and_read_roundtrip_all_profiles() {
        for profile in [
            ProfileKind::Stock,
            ProfileKind::PBase,
            ProfileKind::PGBench,
            ProfileKind::PSys,
        ] {
            let (mut fe, mut bench) = small_db(profile);
            load(&mut fe, &mut bench, 100);
            let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 5 });
            assert_eq!(r.value(), Some(100), "{profile:?}: {:?}", r.outcome);
        }
    }

    #[test]
    fn subject_reads_own_data() {
        let (mut fe, mut bench) = small_db(ProfileKind::PSys);
        load(&mut fe, &mut bench, 20);
        let r = fe.run(&Session::new(Actor::Subject), Request::Read { key: 3 });
        assert!(r.value().is_some(), "{:?}", r.outcome);
    }

    #[test]
    fn delete_then_read_is_typed_gone() {
        let (mut fe, mut bench) = small_db(ProfileKind::PBase);
        load(&mut fe, &mut bench, 20);
        assert!(fe
            .run(&Session::new(Actor::Subject), Request::Delete { key: 7 })
            .is_done());
        let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 7 });
        // P_Base enforces: the revoked policies deny before storage.
        let e = r.err().expect("must fail");
        assert!(
            e.is_denied() || e.is_retention_expired(),
            "post-delete read: {e:?}"
        );
    }

    #[test]
    fn workload_denies_only_post_erasure_accesses() {
        // Reads of deleted keys are *correctly* denied on enforcing
        // profiles (their policies were revoked with the erasure request);
        // everything else must be allowed.
        for profile in ProfileKind::PAPER {
            let (mut fe, mut bench) = small_db(profile);
            load(&mut fe, &mut bench, 200);
            let ops = bench.ops(500, Mix::wcus());
            let subject = Session::new(Actor::Subject);
            let mut deleted: std::collections::HashSet<u64> = Default::default();
            for op in &ops {
                let r = fe.run(&subject, op.clone());
                if let Request::Delete { key } = op {
                    deleted.insert(*key);
                }
                if r.is_denied() {
                    let key = op.key().expect("denied ops are key-addressed");
                    assert!(
                        deleted.contains(&key),
                        "{profile:?} denied op on live key {key}: {op:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unauthorized_read_denied_on_enforcing_profiles() {
        for profile in [ProfileKind::PGBench, ProfileKind::PSys] {
            // Delete revokes policies; subsequent processor read on the
            // tombstone-kept key is policy-denied before storage is hit.
            let mut cfg = EngineConfig::for_profile(profile);
            cfg.delete_strategy = DeleteStrategy::TombstoneAttribute;
            let mut fe = Frontend::new(cfg);
            let mut bench = GdprBench::new(43, 20);
            load(&mut fe, &mut bench, 10);
            fe.run(&Session::new(Actor::Subject), Request::Delete { key: 2 });
            let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 2 });
            assert!(r.is_denied(), "{profile:?}: {:?}", r.outcome);
            assert!(fe.denied() > 0);
        }
    }

    #[test]
    fn profiles_have_ordered_costs() {
        let mut times = Vec::new();
        for profile in ProfileKind::PAPER {
            let (mut fe, mut bench) = small_db(profile);
            load(&mut fe, &mut bench, 300);
            let ops = bench.ops(600, Mix::wcus());
            let t0 = fe.clock().now();
            fe.submit(&Session::new(Actor::Subject), &ops);
            times.push((profile, fe.clock().now().since(t0)));
        }
        assert!(
            times[0].1 < times[1].1 && times[1].1 < times[2].1,
            "expected P_Base < P_GBench < P_SYS, got {times:?}"
        );
    }

    #[test]
    fn compliance_report_is_clean_after_legitimate_run() {
        let (mut fe, mut bench) = small_db(ProfileKind::PSys);
        load(&mut fe, &mut bench, 50);
        let ops = bench.ops(100, Mix::wcus());
        fe.submit(&Session::new(Actor::Subject), &ops);
        let report = fe.compliance_report(&Regulation::gdpr());
        assert!(
            report.is_compliant(),
            "violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }

    #[test]
    fn stock_profile_fails_design_security() {
        let (mut fe, mut bench) = small_db(ProfileKind::Stock);
        load(&mut fe, &mut bench, 10);
        let report = fe.compliance_report(&Regulation::gdpr());
        assert!(
            !report.of_invariant("VI").is_empty(),
            "no encryption at rest"
        );
    }

    #[test]
    fn forensic_finds_deleted_data_under_delete_only() {
        let mut config = EngineConfig::stock(DeleteStrategy::DeleteOnly);
        config.maintenance_every = u64::MAX;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(9, 10);
        load(&mut fe, &mut bench, 10);
        // Grab the payload of key 4 for the needle.
        let needle = {
            let stored = fe.forensic().raw_read(4, true).unwrap();
            stored[..20].to_vec()
        };
        fe.run(&Session::new(Actor::Controller), Request::Delete { key: 4 });
        let f = fe.forensic().scan(&needle);
        assert!(f.online(), "DELETE leaves residuals: {}", f.describe());
    }

    #[test]
    fn lsm_backend_roundtrips_all_profiles() {
        for profile in [
            ProfileKind::Stock,
            ProfileKind::PBase,
            ProfileKind::PGBench,
            ProfileKind::PSys,
        ] {
            let mut config = EngineConfig::for_profile(profile).with_backend(BackendKind::Lsm);
            config.maintenance_every = 50;
            let mut fe = Frontend::new(config);
            let mut bench = GdprBench::new(42, 50);
            load(&mut fe, &mut bench, 100);
            let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 5 });
            assert_eq!(r.value(), Some(100), "{profile:?}/lsm: {:?}", r.outcome);
            assert!(fe
                .run(&Session::new(Actor::Subject), Request::Delete { key: 5 })
                .is_done());
            let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 5 });
            let e = r.err().expect("post-delete read must fail");
            assert!(
                e.is_denied() || e.is_retention_expired(),
                "{profile:?}/lsm post-delete: {e:?}"
            );
        }
    }

    #[test]
    fn lsm_backend_tombstone_strategy_is_reversibly_hidden() {
        let mut config =
            EngineConfig::stock(DeleteStrategy::TombstoneAttribute).with_backend(BackendKind::Lsm);
        config.maintenance_every = u64::MAX;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(8, 20);
        load(&mut fe, &mut bench, 10);
        assert!(fe
            .run(&Session::new(Actor::Controller), Request::Delete { key: 3 })
            .is_done());
        let r = fe.run(&Session::new(Actor::Processor), Request::Read { key: 3 });
        assert!(
            r.err().is_some_and(EngineError::is_retention_expired),
            "{:?}",
            r.outcome
        );
        // The hidden version is still there for the controller view.
        assert!(fe.forensic().raw_read(3, true).is_some());
    }

    #[test]
    fn meta_scan_returns_rows() {
        let (mut fe, mut bench) = small_db(ProfileKind::PBase);
        load(&mut fe, &mut bench, 200);
        let r = fe.run(
            &Session::new(Actor::Processor),
            Request::ReadByMeta {
                selector: MetaSelector::BySubject(3),
            },
        );
        assert!(r.rows().is_some(), "expected rows, got {:?}", r.outcome);
    }

    #[test]
    fn meta_scan_is_deterministic_across_engines() {
        // Which keys a capped metadata scan picks decides which pages it
        // faults in: with more matching keys than the cap and a buffer
        // pool smaller than the table, any run-to-run variation in scan
        // order shows on the simulated clock and the disk-read counters.
        let run = || {
            let mut config = EngineConfig::p_gbench();
            config.heap.buffer_pages = 4;
            let mut fe = Frontend::new(config);
            let mut bench = GdprBench::new(42, 50);
            load(&mut fe, &mut bench, 1500);
            let purposes = [wk::billing(), wk::analytics(), wk::smart_space()];
            assert!(
                purposes.iter().all(|&p| fe
                    .keys
                    .scan(MetaSelector::ByPurpose(p), None, usize::MAX)
                    .len()
                    > 100),
                "the load must put more keys under each purpose than a scan returns"
            );
            let scans: Vec<Request> = (0..30)
                .map(|i| Request::ReadByMeta {
                    selector: MetaSelector::ByPurpose(purposes[i % purposes.len()]),
                })
                .collect();
            fe.submit(&Session::new(Actor::Processor), &scans);
            let read_units: Vec<UnitId> = fe
                .history()
                .tuples()
                .filter(|t| t.action == Action::Read)
                .map(|t| t.unit)
                .collect();
            assert!(!read_units.is_empty(), "the scans must read rows");
            (fe.clock().now(), fe.meter().snapshot(), read_units)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn erase_drops_the_key_from_metadata_scans() {
        // An erased record must leave the scans exactly as a workload
        // delete does: the scan neither reaches it nor audits a denial
        // naming it.
        let scan_after = |request: Request| {
            let (mut fe, mut bench) = small_db(ProfileKind::PSys);
            load(&mut fe, &mut bench, 200);
            let subject = fe.keys.get(3).unwrap().subject;
            let r = fe.run(&Session::new(Actor::Controller), request);
            assert!(r.outcome.is_ok(), "{:?}", r.outcome);
            let selector = MetaSelector::BySubject(subject);
            assert!(!fe.keys.scan(selector, None, usize::MAX).contains(&3));
            let scan = Request::ReadByMeta { selector };
            fe.run(&Session::new(Actor::Processor), scan).audit.records
        };
        let erase = Request::Erase {
            key: 3,
            interpretation: ErasureInterpretation::Deleted,
        };
        assert_eq!(scan_after(erase), scan_after(Request::Delete { key: 3 }));
    }

    #[test]
    fn restore_puts_the_key_back_into_metadata_scans() {
        let mut config = EngineConfig::stock(DeleteStrategy::TombstoneAttribute);
        config.maintenance_every = u64::MAX;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(42, 50);
        load(&mut fe, &mut bench, 200);
        let controller = Session::new(Actor::Controller);
        let scan = Request::ReadByMeta {
            selector: MetaSelector::BySubject(fe.keys.get(3).unwrap().subject),
        };
        let before = fe.run(&Session::new(Actor::Processor), scan.clone()).rows();
        assert!(fe.run(&controller, Request::Delete { key: 3 }).is_done());
        let r = fe.run(&controller, Request::Restore { key: 3 });
        assert_eq!(r.outcome, Ok(Reply::Restored));
        let after = fe.run(&Session::new(Actor::Processor), scan).rows();
        assert!(before.is_some_and(|rows| rows > 1), "{before:?}");
        assert_eq!(after, before, "the restored record must scan again");
    }

    #[test]
    fn update_meta_records_policy_change_and_notify() {
        let (mut fe, mut bench) = small_db(ProfileKind::PBase);
        load(&mut fe, &mut bench, 10);
        let unit = fe.unit_of_key(1).unwrap();
        let before = fe.history().of_unit(unit).len();
        let r = fe.run(
            &Session::new(Actor::Controller),
            Request::UpdateMeta {
                key: 1,
                field: MetaField::Ttl,
            },
        );
        // Each tuple has its own record on the chain, and the history
        // reads them back off it.
        assert_eq!(r.audit.records, 2, "{:?}", r.audit);
        let actions: Vec<Action> = fe.history().of_unit(unit)[before..]
            .iter()
            .map(|t| t.action)
            .collect();
        assert_eq!(actions, [Action::UpdatePolicy, Action::Notify]);
    }

    #[test]
    fn read_by_meta_records_one_read_per_row() {
        let (mut fe, mut bench) = small_db(ProfileKind::PSys);
        load(&mut fe, &mut bench, 200);
        let selector = MetaSelector::BySubject(fe.keys.get(3).unwrap().subject);
        let before = fe.history().tuples().count();
        let r = fe.run(
            &Session::new(Actor::Processor),
            Request::ReadByMeta { selector },
        );
        let rows = r.rows().expect("a scan answers rows");
        assert!(rows > 1, "the subject must own several rows: {rows}");
        assert_eq!(r.audit.records, rows as u64, "one record per row read");
        let reads: Vec<_> = fe.history().tuples().skip(before).collect();
        assert!(reads.iter().all(|t| t.action == Action::Read));
        let units: std::collections::HashSet<UnitId> = reads.iter().map(|t| t.unit).collect();
        assert_eq!(units.len(), rows, "each row's read names its own unit");
    }
}
