//! The Data-CASE model the engine keeps next to its substrate: the
//! abstract state, the action history, the purpose and entity
//! registries, and the data-subject entities registered so far.
//!
//! This is what the compliance checker audits. It holds no payload bytes
//! (a version is recorded as `Value::Stored { len }`), so nothing in it
//! has to be erased with a unit.

use std::collections::HashMap;

use datacase_core::action::Action;
use datacase_core::checker::{self, ComplianceReport};
use datacase_core::entity::{EntityKind, EntityRegistry};
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::history::{ActionHistory, HistoryTuple};
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::invariants::{CheckContext, EvidenceFlags};
use datacase_core::purpose::{well_known as wk, PurposeId, PurposeRegistry};
use datacase_core::regulation::Regulation;
use datacase_core::state::DatabaseState;
use datacase_core::tenant::{TenantDirectory, TenantId};
use datacase_core::unit::ErasureStatus;
use datacase_policy::enforcer::VersionedEnforcer;
use datacase_sim::time::Ts;

/// State + history + registries, and the four fixed entities.
pub(crate) struct Model {
    pub(crate) state: DatabaseState,
    pub(crate) history: ActionHistory,
    pub(crate) purposes: PurposeRegistry,
    pub(crate) entities: EntityRegistry,
    pub(crate) controller: EntityId,
    pub(crate) processor: EntityId,
    pub(crate) auditor: EntityId,
    pub(crate) third_party: EntityId,
    subject_entities: HashMap<u32, EntityId>,
}

impl Model {
    /// A fresh model: the fixed entities registered, and (invariant III)
    /// a DPIA per purpose recorded at `now`, before any processing.
    pub(crate) fn new(now: Ts) -> Model {
        let mut entities = EntityRegistry::new();
        let controller = entities.register("MetaSpace", EntityKind::Controller);
        let processor = entities.register("CloudProc", EntityKind::Processor);
        let auditor = entities.register("DPA-Auditor", EntityKind::Auditor);
        let third_party = entities.register("AdPartner", EntityKind::ThirdParty);
        let mut model = Model {
            state: DatabaseState::new(),
            history: ActionHistory::new(),
            purposes: PurposeRegistry::with_defaults(),
            entities,
            controller,
            processor,
            auditor,
            third_party,
            subject_entities: HashMap::new(),
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
            model.record(UnitId(u64::MAX), purpose, controller, Action::Assess, now);
        }
        model
    }

    /// Append one action to the history.
    pub(crate) fn record(
        &mut self,
        unit: UnitId,
        purpose: PurposeId,
        entity: EntityId,
        action: Action,
        at: Ts,
    ) {
        self.history.record(HistoryTuple {
            unit,
            purpose,
            entity,
            action,
            at,
        });
    }

    /// The entity of data-subject number `subject`, registered on first
    /// sight. RBAC-based profiles enrol a new subject into the
    /// data-subject role; unit-scoped enforcers ignore the hook.
    pub(crate) fn subject_entity(
        &mut self,
        subject: u32,
        enforcer: &mut VersionedEnforcer,
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
    /// compliance erase alike: consent is withdrawn wholesale in the model
    /// and the enforcer (bumping the policy epoch), the unit is marked
    /// erased under `interp` since `since`, and the erase is recorded for
    /// `entity`. Everything but the status's `since` happens at `at`.
    pub(crate) fn finish_erasure(
        &mut self,
        enforcer: &mut VersionedEnforcer,
        unit: UnitId,
        interp: ErasureInterpretation,
        entity: EntityId,
        since: Ts,
        at: Ts,
    ) {
        if let Some(u) = self.state.unit_mut(unit) {
            u.policies.revoke_all(at);
        }
        enforcer.revoke_all(unit, at);
        self.state
            .mark_erased(unit, ErasureStatus::of(interp, since), at);
        self.record(
            unit,
            wk::compliance_erase(),
            entity,
            Action::Erase(interp),
            at,
        );
    }

    /// When the unit left the live state, if it did.
    pub(crate) fn erased_since(&self, unit: UnitId) -> Option<Ts> {
        self.state.unit(unit)?.erasure.since()
    }

    /// Run the compliance checker against the model at `now`.
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
            history: &self.history,
            purposes: &self.purposes,
            regulation,
            now,
            evidence,
            tenants: &tenants,
        })
    }
}
