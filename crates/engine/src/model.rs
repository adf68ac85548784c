//! The Data-CASE model the engine keeps next to its substrate: the
//! abstract state, the chained audit log, the purpose and entity
//! registries, and the data-subject entities registered so far — what the
//! compliance checker audits.
//!
//! The log is the one record of what happened: the action history the
//! checker reads is a view of its records ([`AuditLog::history`]), and
//! [`Model::record`] is the engine's one way to record an action. The
//! state holds no payload bytes (a version is `Value::Stored { len }`);
//! the log keeps the profile's rendering of each response until an
//! erasure redacts it to its commitment, which leaves the chain as it was.

use std::collections::HashMap;

use datacase_audit::loggers::AuditLog;
use datacase_audit::record::LogRecord;
use datacase_core::action::Action;
use datacase_core::checker::{self, ComplianceReport};
use datacase_core::entity::{EntityKind, EntityRegistry};
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::invariants::{CheckContext, EvidenceFlags};
use datacase_core::purpose::{well_known as wk, PurposeId, PurposeRegistry};
use datacase_core::regulation::Regulation;
use datacase_core::state::DatabaseState;
use datacase_core::tenant::{TenantDirectory, TenantId};
use datacase_core::unit::ErasureStatus;
use datacase_policy::enforcer::{AccessRequest, PolicyEnforcer};
use datacase_sim::fault::{CrashPoint, FaultInjector};
use datacase_sim::time::Ts;

/// State + audit log + registries, and the fixed entities.
pub(crate) struct Model {
    pub(crate) state: DatabaseState,
    /// Appended to only by [`Model::record`] and [`Model::deny`].
    pub(crate) audit: AuditLog,
    pub(crate) purposes: PurposeRegistry,
    pub(crate) entities: EntityRegistry,
    pub(crate) controller: EntityId,
    pub(crate) processor: EntityId,
    pub(crate) auditor: EntityId,
    subject_entities: HashMap<u32, EntityId>,
    /// The chaos taps' plane.
    fault: FaultInjector,
}

impl Model {
    /// A fresh model over the profile's `audit` log: the fixed
    /// entities registered, and (invariant III) a DPIA per purpose
    /// recorded at `now`, before any processing. `fault` is armed once
    /// the model is built, so building it reaches no crash tap.
    pub(crate) fn new(audit: AuditLog, fault: FaultInjector, now: Ts) -> Model {
        let mut entities = EntityRegistry::new();
        let controller = entities.register("MetaSpace", EntityKind::Controller);
        let processor = entities.register("CloudProc", EntityKind::Processor);
        let auditor = entities.register("DPA-Auditor", EntityKind::Auditor);
        // A third party no unit ever grants a policy: the figures and
        // examples look it up by name to stage an unlawful read.
        entities.register("AdPartner", EntityKind::ThirdParty);
        let mut model = Model {
            state: DatabaseState::new(),
            audit,
            purposes: PurposeRegistry::with_defaults(),
            entities,
            controller,
            processor,
            auditor,
            subject_entities: HashMap::new(),
            fault: FaultInjector::disabled(),
        };
        for purpose in [
            wk::billing(),
            wk::analytics(),
            wk::advertising(),
            wk::smart_space(),
            wk::retention(),
            wk::subject_access(),
            wk::audit(),
        ] {
            let no_unit = UnitId(u64::MAX);
            model.record(no_unit, purpose, controller, Action::Assess, now, vec![]);
        }
        model.fault = fault;
        model
    }

    /// Record one action: append its chained audit record, labelled with
    /// the action and carrying `payload` — the history tuple, as the log
    /// projects it (a tuple on no unit, `UnitId(u64::MAX)`, logs no
    /// unit). Synchronous, so a request's records are under the
    /// tamper-evidence chain before it is answered.
    pub(crate) fn record(
        &mut self,
        unit: UnitId,
        purpose: PurposeId,
        entity: EntityId,
        action: Action,
        at: Ts,
        payload: Vec<u8>,
    ) {
        let logged = (unit != UnitId(u64::MAX)).then_some(unit);
        self.append(logged, entity, purpose, action.label(), at, payload);
    }

    /// Record a denied access: the one record whose label names no
    /// action, so it projects no history tuple — a denial changes nothing.
    pub(crate) fn deny(&mut self, req: &AccessRequest, reason: &str) {
        let (unit, reason) = (Some(req.unit), reason.as_bytes().to_vec());
        self.append(unit, req.entity, req.purpose, "DENIED", req.at, reason);
    }

    /// Append one record, numbered by its position in the log.
    fn append(
        &mut self,
        unit: Option<UnitId>,
        entity: EntityId,
        purpose: PurposeId,
        op: &'static str,
        at: Ts,
        payload: Vec<u8>,
    ) {
        self.fault.hit(CrashPoint::Account);
        self.audit.log(LogRecord {
            seq: self.audit.records() as u64 + 1,
            at,
            unit,
            entity,
            purpose,
            op,
            payload,
            redacted: false,
        });
    }

    /// The entity of data-subject number `subject`, registered on first
    /// sight. RBAC-based profiles enrol a new subject into the
    /// data-subject role; the unit-scoped policy table ignores the hook.
    pub(crate) fn subject_entity(
        &mut self,
        subject: u32,
        enforcer: &mut dyn PolicyEnforcer,
    ) -> EntityId {
        if let Some(&e) = self.subject_entities.get(&subject) {
            return e;
        }
        let e = self
            .entities
            .register(&format!("user-{subject}"), EntityKind::DataSubject);
        self.subject_entities.insert(subject, e);
        enforcer.on_new_subject(e);
        e
    }

    /// The epilogue every erasure ends with, workload `DELETE` and
    /// compliance erase alike: consent is withdrawn wholesale in the
    /// unit's rows (the enforcer keeps none), the unit is marked erased
    /// under `interp` since `since`, and the erase is recorded for
    /// `entity`, its receipt on the chain (a permanent erasure's sanitise
    /// pass too). Everything but the status's `since` happens at `at`.
    pub(crate) fn finish_erasure(
        &mut self,
        unit: UnitId,
        interp: ErasureInterpretation,
        entity: EntityId,
        since: Ts,
        at: Ts,
    ) {
        if let Some(u) = self.state.unit_mut(unit) {
            u.policies.revoke_all(at);
        }
        self.state
            .mark_erased(unit, ErasureStatus::of(interp, since), at);
        let ce = wk::compliance_erase();
        self.record(unit, ce, entity, Action::Erase(interp), at, Vec::new());
        if interp == ErasureInterpretation::PermanentlyDeleted {
            self.record(unit, ce, entity, Action::Sanitize, at, Vec::new());
        }
    }

    /// When the unit left the live state, if it did.
    pub(crate) fn erased_since(&self, unit: UnitId) -> Option<Ts> {
        self.state.unit(unit)?.erasure.since()
    }

    /// The retention deadline of a personal unit, the key the deadline
    /// index files it under; `None` for any other unit.
    pub(crate) fn erase_deadline(&self, unit: UnitId) -> Option<Ts> {
        let unit = self.state.unit(unit).filter(|u| u.is_personal())?;
        unit.policies.erase_deadline()
    }

    /// Run the compliance checker against the model at `now`, over the
    /// history the chained log holds.
    ///
    /// The subject number carries its tenant (see
    /// [`TenantId::of_subject`]), so the model supplies a
    /// [`TenantDirectory`] arming the tenant-isolation invariant X.
    /// Single-tenant engines assign every subject to tenant 0 and X
    /// degenerates to the vacuous case of one partition class.
    pub(crate) fn check(
        &self,
        regulation: &Regulation,
        evidence: EvidenceFlags,
        now: Ts,
    ) -> ComplianceReport {
        let mut tenants = TenantDirectory::new();
        for (&subject, &entity) in &self.subject_entities {
            tenants.assign(entity, TenantId::of_subject(subject));
        }
        checker::check(&CheckContext {
            state: &self.state,
            history: self.audit.history(),
            purposes: &self.purposes,
            regulation,
            now,
            evidence,
            tenants: &tenants,
        })
    }
}
