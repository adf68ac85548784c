//! The compliant database: substrates wired per profile, with the
//! Data-CASE abstract model maintained alongside for auditability.
//!
//! `CompliantDb` is crate-internal: the only public mutation path is the
//! session-scoped [`Frontend`](crate::frontend::Frontend), which owns an
//! engine and drives it through [`CompliantDb::apply`]. Raw substrate /
//! model access is available in-crate (erasure executor, sweeper, space
//! accounting) and, for tests and probes, through the clearly-marked
//! [`Forensic`](crate::frontend::Forensic) guard.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use datacase_audit::loggers::{AuditLogger, CsvRowLogger, EncryptedLogger, FullQueryLogger};
use datacase_audit::record::LogRecord;
use datacase_core::action::{Action, ActionKind};
use datacase_core::checker::{ComplianceChecker, ComplianceReport};
use datacase_core::entity::{EntityKind, EntityRegistry};
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::history::{ActionHistory, HistoryTuple};
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::invariants::EvidenceFlags;
use datacase_core::policy::Policy;
use datacase_core::purpose::{well_known as wk, PurposeId, PurposeRegistry};
use datacase_core::regulation::Regulation;
use datacase_core::state::DatabaseState;
use datacase_core::unit::{ErasureStatus, Origin};
use datacase_core::value::Value;
use datacase_crypto::ctr::AesCtr;
use datacase_crypto::vault::KeyVault;
use datacase_policy::enforcer::{
    AccessRequest, Decision, PolicyEnforcer, PolicyEpoch, VersionedEnforcer,
};
use datacase_policy::fgac::{FgacConfig, FgacEnforcer};
use datacase_policy::metatable::MetaTableEnforcer;
use datacase_policy::rbac::{RbacEnforcer, Role};
use datacase_sim::fault::CrashPoint;
use datacase_sim::time::Ts;
use datacase_sim::{Meter, SimClock};
use datacase_storage::backend::{
    BackendKind, BackendStats, LsmBackend, MaintenanceDepth, StorageBackend,
};
use datacase_storage::forensic::ForensicFindings;
use datacase_storage::heap::HeapDb;
use datacase_workloads::opstream::{MetaField, MetaSelector};

use crate::error::EngineError;
use crate::frontend::{Reply, Request};
use crate::profiles::{DeleteStrategy, EngineConfig, ProfileKind};

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

/// Per-key bookkeeping the executor needs without touching the model.
#[derive(Clone, Copy, Debug)]
struct KeyMeta {
    unit: UnitId,
    subject: u32,
    purpose: PurposeId,
    ttl: Ts,
}

/// The compliant database engine.
///
/// The compliance stack (enforcement, logging, crypto, the abstract
/// Data-CASE model) composes over any [`StorageBackend`]; the substrate is
/// chosen by [`EngineConfig::backend`](crate::profiles::EngineConfig).
pub struct CompliantDb {
    config: EngineConfig,
    backend: Box<dyn StorageBackend>,
    enforcer: VersionedEnforcer,
    logger: Box<dyn AuditLogger>,
    vault: Option<KeyVault>,
    state: DatabaseState,
    history: ActionHistory,
    purposes: PurposeRegistry,
    entities: EntityRegistry,
    controller: EntityId,
    processor: EntityId,
    auditor: EntityId,
    third_party: EntityId,
    subject_entities: HashMap<u32, EntityId>,
    key_meta: HashMap<u64, KeyMeta>,
    unit_key: HashMap<UnitId, u64>,
    // Ordered, so a metadata scan reads the same keys in the same order
    // on every run (the simulated clock depends on which pages it hits).
    by_purpose: HashMap<PurposeId, BTreeSet<u64>>,
    by_subject: HashMap<u32, BTreeSet<u64>>,
    clock: SimClock,
    meter: Arc<Meter>,
    deletes_since_maintenance: u64,
    ops_since_checkpoint: u64,
    log_seq: u64,
    denied: u64,
}

impl std::fmt::Debug for CompliantDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompliantDb")
            .field("profile", &self.config.profile)
            .field("keys", &self.key_meta.len())
            .finish()
    }
}

impl CompliantDb {
    /// Build an engine for `config` on a fresh clock/meter.
    pub(crate) fn new(config: EngineConfig) -> CompliantDb {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        CompliantDb::with_clock(config, clock, meter)
    }

    /// Build an engine sharing an existing clock/meter (sharded runs).
    pub(crate) fn with_clock(
        config: EngineConfig,
        clock: SimClock,
        meter: Arc<Meter>,
    ) -> CompliantDb {
        let mut entities = EntityRegistry::new();
        let controller = entities.register("MetaSpace", EntityKind::Controller);
        let processor = entities.register("CloudProc", EntityKind::Processor);
        let auditor = entities.register("DPA-Auditor", EntityKind::Auditor);
        let third_party = entities.register("AdPartner", EntityKind::ThirdParty);

        let enforcer: Box<dyn PolicyEnforcer> = match config.profile {
            ProfileKind::Stock | ProfileKind::PBase => {
                let mut rbac = RbacEnforcer::new(clock.clone(), meter.clone());
                Self::install_roles(&mut rbac, controller, processor, auditor);
                Box::new(rbac)
            }
            ProfileKind::PGBench => Box::new(MetaTableEnforcer::new(clock.clone(), meter.clone())),
            ProfileKind::PSys => Box::new(FgacEnforcer::new(
                FgacConfig {
                    use_index: config.fgac_index,
                    ..FgacConfig::default()
                },
                clock.clone(),
                meter.clone(),
            )),
        };

        let logger: Box<dyn AuditLogger> = match config.profile {
            ProfileKind::Stock | ProfileKind::PBase => Box::new(CsvRowLogger::new(
                b"audit-key",
                clock.clone(),
                meter.clone(),
            )),
            ProfileKind::PGBench => Box::new(FullQueryLogger::new(
                b"audit-key",
                clock.clone(),
                meter.clone(),
            )),
            ProfileKind::PSys => Box::new(
                EncryptedLogger::new(b"audit-key", clock.clone(), meter.clone())
                    .with_crypto_backend(config.crypto_backend),
            ),
        };

        let vault = config.tuple_encryption.map(|size| {
            KeyVault::new(b"engine-master-secret", size)
                .with_backend(config.crypto_backend)
                .with_keystream_cache(config.keystream_cache)
        });

        // The only place a concrete substrate type appears: construction.
        let backend: Box<dyn StorageBackend> = match config.backend {
            BackendKind::Heap => {
                let mut heap = config.heap.clone();
                heap.crypto_backend = config.crypto_backend;
                heap.fault = config.fault.clone();
                Box::new(HeapDb::new(heap, clock.clone(), meter.clone()))
            }
            BackendKind::Lsm => {
                let mut lsm = config.lsm.clone();
                lsm.fault = config.fault.clone();
                Box::new(LsmBackend::new(lsm, clock.clone(), meter.clone()))
            }
        };

        let mut db = CompliantDb {
            config,
            backend,
            enforcer: VersionedEnforcer::new(enforcer),
            logger,
            vault,
            state: DatabaseState::new(),
            history: ActionHistory::new(),
            purposes: PurposeRegistry::with_defaults(),
            entities,
            controller,
            processor,
            auditor,
            third_party,
            subject_entities: HashMap::new(),
            key_meta: HashMap::new(),
            unit_key: HashMap::new(),
            by_purpose: HashMap::new(),
            by_subject: HashMap::new(),
            clock,
            meter,
            deletes_since_maintenance: 0,
            ops_since_checkpoint: 0,
            log_seq: 0,
            denied: 0,
        };
        db.record_assessments();
        db
    }

    fn install_roles(
        rbac: &mut RbacEnforcer,
        controller: EntityId,
        processor: EntityId,
        auditor: EntityId,
    ) {
        use ActionKind::*;
        let service_purposes = [
            wk::billing(),
            wk::analytics(),
            wk::advertising(),
            wk::smart_space(),
            wk::retention(),
        ];
        let mut controller_grants: Vec<(PurposeId, Vec<ActionKind>)> = vec![
            (
                wk::contract(),
                vec![Create, UpdatePolicy, UpdateMeta, ReadMeta, Notify],
            ),
            (wk::compliance_erase(), vec![Erase, Sanitize, ReadMeta]),
        ];
        let mut processor_grants: Vec<(PurposeId, Vec<ActionKind>)> = Vec::new();
        for p in service_purposes {
            controller_grants.push((p, vec![Read, UpdateValue, ReadMeta, Derive]));
            processor_grants.push((p, vec![Read, UpdateValue, ReadMeta, Derive]));
        }
        let r_controller = rbac.define_role(Role::new("controller", controller_grants));
        let r_processor = rbac.define_role(Role::new("processor", processor_grants));
        let r_subject = rbac.define_role(Role::new(
            "data-subject",
            vec![
                (
                    wk::subject_access(),
                    vec![Read, ReadMeta, UpdateValue, UpdatePolicy, Erase, Restore],
                ),
                (wk::compliance_erase(), vec![Erase]),
                (wk::contract(), vec![UpdatePolicy, UpdateMeta, Notify]),
            ],
        ));
        let r_auditor = rbac.define_role(Role::new("auditor", vec![(wk::audit(), vec![ReadMeta])]));
        rbac.add_member(controller, r_controller);
        rbac.add_member(processor, r_processor);
        rbac.add_member(auditor, r_auditor);
        // Subjects join the subject role as they appear.
        rbac.set_subject_role(r_subject);
    }

    fn record_assessments(&mut self) {
        // Invariant III: a DPIA per purpose before any processing.
        let now = self.clock.now();
        for p in [
            wk::billing(),
            wk::analytics(),
            wk::advertising(),
            wk::smart_space(),
            wk::retention(),
            wk::subject_access(),
            wk::audit(),
        ] {
            self.history.record(HistoryTuple {
                unit: UnitId(u64::MAX),
                purpose: p,
                entity: self.controller,
                action: Action::Assess,
                at: now,
            });
        }
    }

    fn subject_entity(&mut self, subject: u32) -> EntityId {
        if let Some(&e) = self.subject_entities.get(&subject) {
            return e;
        }
        let e = self
            .entities
            .register(&format!("user-{subject}"), EntityKind::DataSubject);
        self.subject_entities.insert(subject, e);
        // RBAC-based profiles enrol the subject into the data-subject role;
        // unit-scoped enforcers ignore the hook.
        self.enforcer.on_new_subject(e);
        e
    }

    fn actor_entity(&mut self, actor: Actor, subject: u32) -> EntityId {
        match actor {
            Actor::Controller => self.controller,
            Actor::Processor => self.processor,
            Actor::Subject => self.subject_entity(subject),
        }
    }

    /// When the unit left the live state, if it did.
    fn erased_since(&self, unit: UnitId) -> Option<Ts> {
        match self.state.unit(unit)?.erasure {
            ErasureStatus::Active => None,
            ErasureStatus::ReversiblyInaccessible { since }
            | ErasureStatus::Deleted { since }
            | ErasureStatus::StronglyDeleted { since }
            | ErasureStatus::PermanentlyDeleted { since } => Some(since),
        }
    }

    /// The error for an access to a key whose row is physically absent:
    /// erased units report the erasure, anything else is a plain miss.
    fn gone(&self, key: u64, unit: UnitId) -> EngineError {
        match self.erased_since(unit) {
            Some(since) => EngineError::RetentionExpired { key, since },
            None => EngineError::NotFound { key },
        }
    }

    /// Audit sequence numbers issued so far (the frontend derives
    /// [`AuditRef`](crate::frontend::AuditRef)s from before/after pairs).
    pub(crate) fn log_seq(&self) -> u64 {
        self.log_seq
    }

    /// The current policy epoch: bumped by every policy-mutating action
    /// (grant, revocation, erasure, metadata update) — the version of
    /// the policy state a decision was taken against.
    pub fn policy_epoch(&self) -> PolicyEpoch {
        self.enforcer.epoch()
    }

    /// The account step: sequence, charge and append one audit record.
    /// Synchronous — the record is in the log store, under the
    /// tamper-evidence chain, before the request that produced it is
    /// answered.
    fn log(
        &mut self,
        unit: Option<UnitId>,
        entity: EntityId,
        purpose: PurposeId,
        op: &'static str,
        payload: Vec<u8>,
    ) {
        self.log_seq += 1;
        let rec = LogRecord {
            seq: self.log_seq,
            at: self.clock.now(),
            unit,
            entity,
            purpose,
            op,
            payload,
            redacted: false,
        };
        self.config.fault.hit(CrashPoint::Account);
        self.logger.log(rec);
    }

    /// The decide step for one access: ask the profile's enforcer. A
    /// denial is audited (a DENIED record) before it is returned.
    fn check(
        &mut self,
        unit: UnitId,
        entity: EntityId,
        purpose: PurposeId,
        action: ActionKind,
    ) -> Result<(), EngineError> {
        if self.config.profile == ProfileKind::Stock {
            return Ok(()); // vanilla engine: no enforcement at all
        }
        let req = AccessRequest {
            unit,
            entity,
            purpose,
            action,
            at: self.clock.now(),
        };
        match self.enforcer.check(&req) {
            Decision::Allow => Ok(()),
            Decision::Deny(reason) => {
                self.denied += 1;
                self.log(
                    Some(unit),
                    entity,
                    purpose,
                    "DENIED",
                    reason.clone().into_bytes(),
                );
                Err(EngineError::Denied { reason })
            }
        }
    }

    fn encrypt_payload(&mut self, unit: UnitId, payload: &[u8]) -> Vec<u8> {
        match &mut self.vault {
            Some(vault) => {
                vault.ensure_key(unit.0);
                let bits = vault.key_size().bits();
                // Charged as a full AES pass regardless of how the
                // keystream is produced: the cache changes host work,
                // never the simulated cost.
                self.clock
                    .charge(self.clock.model().aes_cost(bits, payload.len()));
                Meter::bump(&self.meter.crypto_bytes, payload.len() as u64);
                let mut buf = payload.to_vec();
                let iv = AesCtr::iv_from_nonce(unit.0);
                if !matches!(vault.keystream_apply(unit.0, iv, &mut buf), Ok(true)) {
                    let cipher = vault.cipher(unit.0).expect("just ensured");
                    cipher.apply(iv, &mut buf);
                }
                buf
            }
            None => payload.to_vec(),
        }
    }

    fn decrypt_payload(&mut self, unit: UnitId, stored: Vec<u8>) -> Vec<u8> {
        match &mut self.vault {
            Some(vault) => {
                if vault.cipher(unit.0).is_err() {
                    return Vec::new(); // crypto-erased: unreadable
                }
                let bits = vault.key_size().bits();
                self.clock
                    .charge(self.clock.model().aes_cost(bits, stored.len()));
                Meter::bump(&self.meter.crypto_bytes, stored.len() as u64);
                let mut buf = stored;
                let iv = AesCtr::iv_from_nonce(unit.0);
                if !matches!(vault.keystream_apply(unit.0, iv, &mut buf), Ok(true)) {
                    let cipher = vault.cipher(unit.0).expect("checked live");
                    cipher.apply(iv, &mut buf);
                }
                buf
            }
            None => stored,
        }
    }

    /// Execute one request as `actor` under an optional declared purpose.
    ///
    /// This is the crate-internal execution entry the
    /// [`Frontend`](crate::frontend::Frontend) choke point drives; it is
    /// deliberately not `pub`.
    pub(crate) fn apply(
        &mut self,
        request: &Request,
        actor: Actor,
        purpose: Option<PurposeId>,
        scope: Option<datacase_core::tenant::KeyRange>,
    ) -> Result<Reply, EngineError> {
        /// Checkpoint (flush + WAL recycle) after this many operations.
        const CHECKPOINT_EVERY: u64 = 20_000;
        self.config.fault.hit(CrashPoint::Apply);
        if !matches!(request, Request::Erase { .. } | Request::Restore { .. }) {
            // Workload ops drive the checkpoint cadence; the compliance
            // path (erase/restore) never did and still does not.
            self.ops_since_checkpoint += 1;
            if self.ops_since_checkpoint >= CHECKPOINT_EVERY {
                self.ops_since_checkpoint = 0;
                self.backend.checkpoint();
                self.backend.recycle_logs();
            }
        }
        match request {
            Request::Create {
                key,
                payload,
                metadata,
            } => self.op_create(*key, payload, metadata),
            Request::Read { key } => self.op_read(*key, actor, purpose),
            Request::Update { key, payload } => self.op_update(*key, payload, actor, purpose),
            Request::Delete { key } => self.op_delete(*key, actor),
            Request::ReadMeta { key } => self.op_read_meta(*key, actor, purpose),
            Request::UpdateMeta { key, field } => self.op_update_meta(*key, *field, actor),
            Request::ReadByMeta { selector } => self.op_read_by_meta(*selector, purpose, scope),
            Request::Erase {
                key,
                interpretation,
            } => self.op_erase(*key, *interpretation, actor),
            Request::Restore { key } => self.op_restore(*key, actor),
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
    fn op_erase(
        &mut self,
        key: u64,
        interpretation: ErasureInterpretation,
        actor: Actor,
    ) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        let entity = self.actor_entity(actor, meta.subject);
        if actor == Actor::Processor {
            self.check(meta.unit, entity, wk::compliance_erase(), ActionKind::Erase)?;
        }
        if crate::erasure::erase_now(self, key, interpretation, entity) {
            Ok(Reply::Erased(interpretation))
        } else {
            Err(EngineError::NotFound { key })
        }
    }

    /// The inverse compliance action. Restoration cannot be checked
    /// against unit policies (they were revoked with the erasure), so it
    /// is gated on the actor: the subject reclaiming their data or the
    /// controller handling their request — never a processor.
    fn op_restore(&mut self, key: u64, actor: Actor) -> Result<Reply, EngineError> {
        if self.unit_of_key(key).is_none() {
            return Err(EngineError::NotFound { key });
        }
        if actor == Actor::Processor {
            return Err(EngineError::Denied {
                reason: "processors cannot restore erased records".into(),
            });
        }
        if crate::erasure::restore_now(self, key) {
            Ok(Reply::Restored)
        } else {
            Err(EngineError::Denied {
                reason: "unit is not reversibly inaccessible".into(),
            })
        }
    }

    fn op_create(
        &mut self,
        key: u64,
        payload: &[u8],
        metadata: &datacase_workloads::record::GdprMetadata,
    ) -> Result<Reply, EngineError> {
        if let Some(meta) = self.key_meta.get(&key) {
            // Duplicate key in the stream. An erased key stays bound to
            // its (dead) unit — re-collection is a retention question,
            // not a constraint violation.
            let unit = meta.unit;
            return Err(match self.erased_since(unit) {
                Some(since) => EngineError::RetentionExpired { key, since },
                None => EngineError::Backend {
                    detail: format!("key {key} already exists"),
                },
            });
        }
        let now = self.clock.now();
        let subject_e = self.actor_entity(Actor::Subject, metadata.subject);
        let unit = self.state.collect(
            subject_e,
            Origin::Device(format!("dev-{}", metadata.origin_device)),
            Value::Stored { len: payload.len() },
            now,
        );
        // Base policy set (also the model's ground truth for G6/G17).
        let ttl = metadata.ttl;
        let base_policies = vec![
            Policy::open_ended(wk::subject_access(), subject_e, now),
            Policy::new(wk::compliance_erase(), subject_e, now, ttl),
            Policy::new(wk::compliance_erase(), self.controller, now, ttl),
            Policy::open_ended(wk::contract(), self.controller, now),
            Policy::open_ended(wk::contract(), subject_e, now),
            Policy::new(metadata.purpose, self.processor, now, ttl),
            Policy::new(metadata.purpose, self.controller, now, ttl),
            Policy::new(wk::retention(), self.processor, now, ttl),
            Policy::open_ended(wk::audit(), self.auditor, now),
        ];
        {
            let u = self.state.unit_mut(unit).expect("just collected");
            u.policies.grant_all(&base_policies, now);
            u.encrypted_at_rest = self.config.encryption_at_rest();
        }
        // The enforcer sees base policies plus profile-dependent padding
        // (finer-grained slicing in P_SYS — Sieve metadata volume).
        let mut enforcer_policies = base_policies;
        while enforcer_policies.len() < self.config.policies_per_unit {
            let i = enforcer_policies.len() as u64;
            enforcer_policies.push(Policy::new(
                wk::analytics(),
                self.processor,
                now,
                Ts(now.0.saturating_add(1 + i)),
            ));
        }
        self.enforcer.register_unit(unit, &enforcer_policies);
        // Physical insert (encrypted per profile).
        let stored = self.encrypt_payload(unit, payload);
        if let Err(e) = self.backend.insert(key, unit.0, &stored) {
            return Err(EngineError::Backend {
                detail: e.to_string(),
            });
        }
        // Bookkeeping.
        self.key_meta.insert(
            key,
            KeyMeta {
                unit,
                subject: metadata.subject,
                purpose: metadata.purpose,
                ttl,
            },
        );
        self.unit_key.insert(unit, key);
        self.by_purpose
            .entry(metadata.purpose)
            .or_default()
            .insert(key);
        self.by_subject
            .entry(metadata.subject)
            .or_default()
            .insert(key);
        // Model + audit records (consent capture: the paper's CtrC tuple).
        self.history.record(HistoryTuple {
            unit,
            purpose: wk::contract(),
            entity: self.controller,
            action: Action::Create,
            at: now,
        });
        self.log(
            Some(unit),
            self.controller,
            wk::contract(),
            "INSERT",
            payload.to_vec(),
        );
        Ok(Reply::Done)
    }

    fn op_read(
        &mut self,
        key: u64,
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        let purpose = declared.unwrap_or(match actor {
            Actor::Subject => wk::subject_access(),
            _ => meta.purpose,
        });
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, purpose, ActionKind::Read)?;
        let Some(stored) = self.backend.read(key, false) else {
            return Err(self.gone(key, meta.unit));
        };
        let plain = self.decrypt_payload(meta.unit, stored);
        let len = plain.len();
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose,
            entity,
            action: Action::Read,
            at: self.clock.now(),
        });
        self.log(Some(meta.unit), entity, purpose, "SELECT", plain);
        Ok(Reply::Value(len))
    }

    fn op_update(
        &mut self,
        key: u64,
        payload: &[u8],
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        let purpose = declared.unwrap_or(match actor {
            Actor::Subject => wk::subject_access(),
            _ => meta.purpose,
        });
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, purpose, ActionKind::UpdateValue)?;
        let stored = self.encrypt_payload(meta.unit, payload);
        if self.backend.update(key, &stored).is_err() {
            return Err(self.gone(key, meta.unit));
        }
        let now = self.clock.now();
        if let Some(u) = self.state.unit_mut(meta.unit) {
            u.value.write(now, Value::Stored { len: payload.len() });
        }
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose,
            entity,
            action: Action::UpdateValue,
            at: now,
        });
        self.log(Some(meta.unit), entity, purpose, "UPDATE", payload.to_vec());
        Ok(Reply::Done)
    }

    fn op_delete(&mut self, key: u64, actor: Actor) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, wk::compliance_erase(), ActionKind::Erase)?;
        let (interp, ok) = match self.config.delete_strategy {
            DeleteStrategy::TombstoneAttribute => (
                ErasureInterpretation::ReversiblyInaccessible,
                self.backend.set_hidden(key, true).is_ok(),
            ),
            _ => (
                ErasureInterpretation::Deleted,
                self.backend.delete(key).is_ok(),
            ),
        };
        if !ok {
            return Err(self.gone(key, meta.unit));
        }
        let now = self.clock.now();
        let status = match interp {
            ErasureInterpretation::ReversiblyInaccessible => {
                ErasureStatus::ReversiblyInaccessible { since: now }
            }
            _ => ErasureStatus::Deleted { since: now },
        };
        self.state.mark_erased(meta.unit, status, now);
        if let Some(u) = self.state.unit_mut(meta.unit) {
            u.policies.revoke_all(now);
        }
        self.enforcer.revoke_all(meta.unit, now);
        if self.config.redacts_logs_on_delete() {
            self.logger.redact_unit(meta.unit);
        }
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose: wk::compliance_erase(),
            entity,
            action: Action::Erase(interp),
            at: now,
        });
        self.log(
            Some(meta.unit),
            entity,
            wk::compliance_erase(),
            "DELETE",
            Vec::new(),
        );
        // Index maintenance. `key_meta` is deliberately retained: a real
        // database does not know a key is gone until it probes the index
        // and heap, so post-delete reads must pay that path (the Figure-4a
        // mechanism). Only the metadata-scan indexes forget the key.
        if let Some(s) = self.by_purpose.get_mut(&meta.purpose) {
            s.remove(&key);
        }
        if let Some(s) = self.by_subject.get_mut(&meta.subject) {
            s.remove(&key);
        }
        self.deletes_since_maintenance += 1;
        if self.deletes_since_maintenance >= self.config.maintenance_every {
            self.run_maintenance();
        }
        Ok(Reply::Done)
    }

    /// Run the delete strategy's periodic maintenance now, mapped to the
    /// backend's mechanics (heap: VACUUM / VACUUM FULL; LSM: flush /
    /// full compaction).
    pub(crate) fn run_maintenance(&mut self) {
        self.deletes_since_maintenance = 0;
        match self.config.delete_strategy {
            DeleteStrategy::DeleteVacuum => {
                self.backend.maintain(MaintenanceDepth::Lazy);
            }
            DeleteStrategy::DeleteVacuumFull => {
                self.backend.maintain(MaintenanceDepth::Full);
            }
            DeleteStrategy::DeleteOnly | DeleteStrategy::TombstoneAttribute => {}
        }
    }

    fn op_read_meta(
        &mut self,
        key: u64,
        actor: Actor,
        declared: Option<PurposeId>,
    ) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        if let Some(since) = self.erased_since(meta.unit) {
            // The record's metadata row went with the record.
            return Err(EngineError::RetentionExpired { key, since });
        }
        let (entity, purpose) = match actor {
            Actor::Subject => (
                self.actor_entity(Actor::Subject, meta.subject),
                declared.unwrap_or(wk::subject_access()),
            ),
            Actor::Controller => (self.controller, declared.unwrap_or(wk::contract())),
            Actor::Processor => (self.processor, declared.unwrap_or(meta.purpose)),
        };
        self.check(meta.unit, entity, purpose, ActionKind::ReadMeta)?;
        // The metadata row itself: policies + provenance summary.
        let now = self.clock.now();
        let policies = self
            .state
            .unit(meta.unit)
            .map(|u| u.policies.active_at(now).len())
            .unwrap_or(0);
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose,
            entity,
            action: Action::ReadMeta,
            at: now,
        });
        let rendered = format!(
            "key={key} subject={} purpose={} ttl={} policies={policies}",
            meta.subject, meta.purpose, meta.ttl
        );
        let len = rendered.len();
        self.log(
            Some(meta.unit),
            entity,
            purpose,
            "SELECT-META",
            rendered.into_bytes(),
        );
        Ok(Reply::Value(len))
    }

    fn op_update_meta(
        &mut self,
        key: u64,
        field: MetaField,
        actor: Actor,
    ) -> Result<Reply, EngineError> {
        let Some(meta) = self.key_meta.get(&key).copied() else {
            return Err(EngineError::NotFound { key });
        };
        if let Some(since) = self.erased_since(meta.unit) {
            return Err(EngineError::RetentionExpired { key, since });
        }
        let entity = self.actor_entity(actor, meta.subject);
        self.check(meta.unit, entity, wk::contract(), ActionKind::UpdatePolicy)?;
        let now = self.clock.now();
        // Apply the policy change to the model + enforcer.
        let new_policy = match field {
            MetaField::Ttl => {
                let new_ttl = Ts(meta.ttl.0.saturating_add(86_400_000_000_000)); // +1 day
                if let Some(km) = self.key_meta.get_mut(&key) {
                    km.ttl = new_ttl;
                }
                Policy::new(wk::compliance_erase(), self.controller, now, new_ttl)
            }
            MetaField::Purpose => Policy::new(
                wk::analytics(),
                self.processor,
                now,
                Ts(now.0.saturating_add(30 * 86_400_000_000_000)),
            ),
            MetaField::Objection => {
                // Objection: revoke sharing-ish access for the third party.
                if let Some(u) = self.state.unit_mut(meta.unit) {
                    u.policies.revoke(wk::advertising(), self.third_party, now);
                }
                Policy::new(wk::audit(), self.auditor, now, Ts::MAX)
            }
        };
        if let Some(u) = self.state.unit_mut(meta.unit) {
            u.policies.grant(new_policy, now);
        }
        self.enforcer.grant(meta.unit, new_policy);
        // The metadata-row update is a durable write like any other
        // statement (the paper: "such operations require more metadata
        // access and logging").
        let model = self.clock.model().clone();
        self.clock.charge(model.log_cost(64));
        self.clock.charge_nanos(model.txn_overhead + model.fsync);
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose: wk::contract(),
            entity,
            action: Action::UpdatePolicy,
            at: now,
        });
        // Invariant VIII: notify the subject of the policy change.
        let now2 = self.clock.now();
        self.history.record(HistoryTuple {
            unit: meta.unit,
            purpose: wk::contract(),
            entity: self.controller,
            action: Action::Notify,
            at: now2,
        });
        self.log(
            Some(meta.unit),
            entity,
            wk::contract(),
            "UPDATE-META+NOTIFY",
            format!("{field:?}").into_bytes(),
        );
        Ok(Reply::Done)
    }

    fn op_read_by_meta(
        &mut self,
        selector: MetaSelector,
        declared: Option<PurposeId>,
        scope: Option<datacase_core::tenant::KeyRange>,
    ) -> Result<Reply, EngineError> {
        const SCAN_CAP: usize = 20;
        // A scoped session only ever sees its own block of the keyspace:
        // candidates outside it are filtered before costing, capping, and
        // enforcement, so another tenant's records are invisible even to
        // metadata probes. The scan returns the first `SCAN_CAP` in-scope
        // keys in key order, like an index range scan.
        let in_scope = |key: &u64| scope.map(|r| r.contains(*key)).unwrap_or(true);
        let matching = match selector {
            MetaSelector::ByPurpose(p) => self.by_purpose.get(&p),
            MetaSelector::BySubject(s) => self.by_subject.get(&s),
        };
        let keys: Vec<u64> = matching
            .into_iter()
            .flatten()
            .copied()
            .filter(in_scope)
            .take(SCAN_CAP)
            .collect();
        // Metadata-index probe cost.
        self.clock
            .charge_nanos(self.clock.model().index_probe * (1 + keys.len() as u64));
        Meter::bump(&self.meter.index_probes, 1 + keys.len() as u64);
        let mut rows = 0usize;
        for key in keys {
            let Some(meta) = self.key_meta.get(&key).copied() else {
                continue;
            };
            // Processor reads each matching record under its collection
            // purpose (or the session's declared one); enforcement is
            // per-record (FGAC pays per tuple).
            let purpose = declared.unwrap_or(meta.purpose);
            if self
                .check(meta.unit, self.processor, purpose, ActionKind::Read)
                .is_err()
            {
                continue;
            }
            if let Some(stored) = self.backend.read(key, false) {
                let plain = self.decrypt_payload(meta.unit, stored);
                self.history.record(HistoryTuple {
                    unit: meta.unit,
                    purpose,
                    entity: self.processor,
                    action: Action::Read,
                    at: self.clock.now(),
                });
                let _ = plain;
                rows += 1;
            }
        }
        let entity = self.processor;
        self.log(
            None,
            entity,
            wk::retention(),
            "SELECT-BY-META",
            format!("{selector:?} rows={rows}").into_bytes(),
        );
        Ok(Reply::Rows(rows))
    }

    // ------------------------------------------------------------------
    // Compliance-facing surface
    // ------------------------------------------------------------------

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared meter.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The abstract Data-CASE state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }

    /// Mutable access to the abstract state (forensic guard / probes).
    pub(crate) fn state_mut(&mut self) -> &mut DatabaseState {
        &mut self.state
    }

    /// The action history.
    pub fn history(&self) -> &ActionHistory {
        &self.history
    }

    /// The purpose registry.
    pub fn purposes(&self) -> &PurposeRegistry {
        &self.purposes
    }

    /// The entity registry.
    pub fn entities(&self) -> &EntityRegistry {
        &self.entities
    }

    /// The controller entity.
    pub fn controller(&self) -> EntityId {
        self.controller
    }

    /// The processor entity.
    pub fn processor(&self) -> EntityId {
        self.processor
    }

    /// Number of denied operations so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Unit id stored under a key.
    pub fn unit_of_key(&self, key: u64) -> Option<UnitId> {
        self.key_meta.get(&key).map(|m| m.unit)
    }

    /// Key a unit is stored under.
    pub fn key_of_unit(&self, unit: UnitId) -> Option<u64> {
        self.unit_key.get(&unit).copied()
    }

    /// Backend statistics on the substrate-independent vocabulary.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Direct backend access (erasure executor, forensic guard).
    pub(crate) fn backend_mut(&mut self) -> &mut dyn StorageBackend {
        self.backend.as_mut()
    }

    /// The policy enforcer (read-only).
    pub fn enforcer(&self) -> &dyn PolicyEnforcer {
        self.enforcer.inner()
    }

    /// Mutable access to the versioned enforcer (erasure executor) —
    /// mutations through it bump the policy epoch.
    pub(crate) fn enforcer_mut(&mut self) -> &mut VersionedEnforcer {
        &mut self.enforcer
    }

    /// The audit logger (read-only).
    pub fn logger(&self) -> &dyn AuditLogger {
        self.logger.as_ref()
    }

    /// Mutable logger access (erasure executor, forensic guard).
    pub(crate) fn logger_mut(&mut self) -> &mut dyn AuditLogger {
        self.logger.as_mut()
    }

    /// The key vault, when tuple encryption is on.
    pub(crate) fn vault_mut(&mut self) -> Option<&mut KeyVault> {
        self.vault.as_mut()
    }

    /// Record an externally produced history tuple (erasure executor,
    /// violation injection via the forensic guard).
    pub(crate) fn record_history(&mut self, tuple: HistoryTuple) {
        self.history.record(tuple);
    }

    /// Bind a heap key to a *derived* unit created through
    /// `DatabaseState::derive`, so erasure cascades can find its row.
    pub(crate) fn bind_derived_key(&mut self, unit: UnitId, key: u64) {
        self.key_meta.insert(
            key,
            KeyMeta {
                unit,
                subject: u32::MAX,
                purpose: wk::analytics(),
                ttl: Ts::MAX,
            },
        );
        self.unit_key.insert(unit, key);
    }

    /// Forensic scan of all persistent layers for `needle` (checkpoints
    /// the backend first so the scan sees buffered state — flushed pages
    /// on the heap, a flushed memtable on the LSM).
    pub(crate) fn forensic(&mut self, needle: &[u8]) -> ForensicFindings {
        self.backend.checkpoint();
        let mut findings = self.backend.scan_physical(needle);
        // The audit logs are a persistence layer too.
        let log_hits = self.logger.scan(needle);
        if log_hits > 0 {
            // Fold into the WAL bucket: both are log-shaped retention.
            findings
                .wal_lsns
                .extend(std::iter::repeat_n(u64::MAX, log_hits));
        }
        findings
    }

    /// Run the compliance checker against this engine's model.
    ///
    /// The engine knows which tenant every registered subject belongs to
    /// (the subject number carries it — see
    /// [`datacase_core::tenant::TenantId::of_subject`]), so it supplies a
    /// [`datacase_core::tenant::TenantDirectory`] arming the
    /// tenant-isolation invariant X. Single-tenant engines assign every
    /// subject to tenant 0 and X degenerates to the vacuous case of one
    /// partition class.
    pub fn compliance_report(&mut self, regulation: &Regulation) -> ComplianceReport {
        let evidence = EvidenceFlags {
            audit_log_tamper_evident: self.logger.verify_chain(),
            encryption_at_rest_default: self.config.encryption_at_rest(),
        };
        let mut tenants = datacase_core::tenant::TenantDirectory::new();
        for (&subject, &entity) in &self.subject_entities {
            tenants.assign(entity, datacase_core::tenant::TenantId::of_subject(subject));
        }
        ComplianceChecker::new(regulation.clone())
            .with_evidence(evidence)
            .with_tenants(tenants)
            .check(&self.state, &self.history, &self.purposes, self.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Frontend, Request, Session};
    use datacase_workloads::gdprbench::{GdprBench, Mix};
    use datacase_workloads::opstream::Op;

    fn small_db(profile: ProfileKind) -> (Frontend, GdprBench) {
        let mut config = EngineConfig::for_profile(profile);
        config.maintenance_every = 50;
        let fe = Frontend::new(config);
        let bench = GdprBench::new(42, 50);
        (fe, bench)
    }

    fn load(fe: &mut Frontend, bench: &mut GdprBench, n: usize) {
        let controller = Session::new(Actor::Controller);
        for r in fe.submit_ops(&controller, &bench.load_phase(n)) {
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
                let r = fe.run(&subject, Request::from(op));
                if let Op::DeleteData { key } = op {
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
            fe.submit_ops(&Session::new(Actor::Subject), &ops);
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
        fe.submit_ops(&Session::new(Actor::Subject), &ops);
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
            assert!(
                fe.db().by_purpose.values().any(|keys| keys.len() > 100),
                "the load must put more keys under one purpose than a scan returns"
            );
            let purposes = [wk::billing(), wk::analytics(), wk::smart_space()];
            let scans: Vec<Request> = (0..30)
                .map(|i| Request::ReadByMeta {
                    selector: MetaSelector::ByPurpose(purposes[i % purposes.len()]),
                })
                .collect();
            fe.submit(&Session::new(Actor::Processor), &scans.into());
            let read_units: Vec<UnitId> = fe
                .history()
                .iter()
                .filter(|t| t.action == Action::Read)
                .map(|t| t.unit)
                .collect();
            assert!(!read_units.is_empty(), "the scans must read rows");
            (fe.clock().now(), fe.meter().snapshot(), read_units)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn update_meta_records_policy_change_and_notify() {
        let (mut fe, mut bench) = small_db(ProfileKind::PBase);
        load(&mut fe, &mut bench, 10);
        fe.run(
            &Session::new(Actor::Controller),
            Request::UpdateMeta {
                key: 1,
                field: MetaField::Ttl,
            },
        );
        let unit = fe.unit_of_key(1).unwrap();
        let tuples = fe.history().of_unit(unit);
        assert!(tuples
            .iter()
            .any(|t| t.action.kind() == ActionKind::UpdatePolicy));
        assert!(tuples.iter().any(|t| t.action.kind() == ActionKind::Notify));
    }
}
