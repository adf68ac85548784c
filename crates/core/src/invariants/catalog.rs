//! The groundings of Figure 1's informal invariants, one function each
//! (other groundings are possible — that is the framework's point; ours
//! are documented on each function). [`super::CATALOG`] names them; IV
//! and V are the formal G6 and G17 (their own modules), under those ids.
//!
//! | id   | group                        | GDPR articles |
//! |------|------------------------------|---------------|
//! | I    | Disclosure                   | 13, 14        |
//! | II   | Storage                      | 12, 15–18, 20, 21, 23 |
//! | III  | Pre-processing               | 35, 36        |
//! | G6   | Sharing and Processing (IV)  | 5–11, 22, 26–29, 44, 45 |
//! | G17  | Erasure (V)                  | 17            |
//! | VI   | Design and Security          | 25, 32        |
//! | VII  | Record keeping               | 30            |
//! | VIII | Obligations & Accountability | 19, 33, 34    |
//! | IX   | Demonstrate compliance       | 24, 31        |
//!
//! The catalog also carries one deployment invariant that is not a
//! Figure 1 row: **X — Tenant isolation** (arts. 28, 32), introduced
//! with the served multi-tenant engine. It is vacuous for single-tenant
//! deployments and becomes checkable once the engine supplies a
//! non-empty [`crate::tenant::TenantDirectory`].

use crate::action::ActionKind;
use crate::purpose::well_known as wk;
use crate::tenant::TenantId;
use crate::violation::{Severity, Violation};

use super::CheckContext;

/// **I — Disclosure**: "Keep data subjects informed when collecting data."
///
/// Grounding: every personal base unit's history must contain a
/// `contract`-purposed tuple (consent/contract capture) at or before its
/// creation instant — the paper's `CtrC1234` contract example.
pub fn disclosure(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        if !unit.is_personal() || unit.category != crate::unit::Category::Base {
            continue;
        }
        let informed = ctx
            .history
            .of_unit(id)
            .iter()
            .any(|t| t.purpose == wk::contract() && t.at <= unit.created_at);
        if !informed {
            out.push(Violation::on_unit(
                "I",
                id,
                ctx.now,
                Severity::Breach,
                "collected without a contract/consent disclosure tuple at collection time",
            ));
        }
    }
    out
}

/// **II — Storage**: "Store data such that data subjects can exercise
/// their rights."
///
/// Grounding: every *live* personal unit must carry an active
/// `subject-access` policy naming one of its subjects, so access /
/// rectification / erasure requests have an authorised path.
pub fn storage(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        if !unit.is_personal() || unit.erasure.is_erased() {
            continue;
        }
        let reachable = unit
            .subjects
            .iter()
            .any(|&s| unit.policies.authorises(wk::subject_access(), s, ctx.now));
        if !reachable {
            out.push(Violation::on_unit(
                "II",
                id,
                ctx.now,
                Severity::Breach,
                "no active subject-access policy: the subject cannot exercise their rights",
            ));
        }
    }
    out
}

/// **III — Pre-processing**: "Consult and assess prior to processing data."
///
/// Grounding: for every purpose under which personal data was processed
/// (read/derive/share), an `Assess` tuple for that purpose must exist at or
/// before the first such processing action (our DPIA evidence).
pub fn pre_processing(ctx: &CheckContext<'_>) -> Vec<Violation> {
    if !ctx.regulation.require_assessment {
        return Vec::new();
    }
    use std::collections::HashMap;
    let mut first_use: HashMap<crate::purpose::PurposeId, crate::history::HistoryTuple> =
        HashMap::new();
    let mut assessed_at: HashMap<crate::purpose::PurposeId, datacase_sim::time::Ts> =
        HashMap::new();
    for t in ctx.history.tuples() {
        match t.action.kind() {
            ActionKind::Assess => {
                assessed_at.entry(t.purpose).or_insert(t.at);
            }
            ActionKind::Read | ActionKind::Derive | ActionKind::Share => {
                let personal = ctx
                    .state
                    .unit(t.unit)
                    .map(|u| u.is_personal())
                    .unwrap_or(false);
                if personal {
                    first_use.entry(t.purpose).or_insert(t);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    let mut purposes: Vec<_> = first_use.keys().copied().collect();
    purposes.sort();
    for p in purposes {
        let first = &first_use[&p];
        let ok = assessed_at.get(&p).map(|&a| a <= first.at).unwrap_or(false);
        if !ok {
            out.push(Violation {
                invariant: "III",
                unit: Some(first.unit),
                entity: Some(first.entity),
                at: first.at,
                severity: Severity::Breach,
                message: format!(
                    "personal data processed for purpose {p} without a prior assessment"
                ),
            });
        }
    }
    out
}

/// **VI — Design and Security**: "Build and design data protective systems."
///
/// Grounding: when the regulation requires it, every live personal unit is
/// stored encrypted at rest (per-unit flag, or the deployment-wide default
/// evidenced by the engine).
pub fn design_security(ctx: &CheckContext<'_>) -> Vec<Violation> {
    if !ctx.regulation.require_encryption_at_rest || ctx.evidence.encryption_at_rest_default {
        return Vec::new();
    }
    let mut out = Vec::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        if unit.is_personal() && !unit.erasure.is_erased() && !unit.encrypted_at_rest {
            out.push(Violation::on_unit(
                "VI",
                id,
                ctx.now,
                Severity::Breach,
                "personal data stored unencrypted at rest",
            ));
        }
    }
    out
}

/// **VII — Record keeping**: "Keep records of all data-operations."
///
/// Grounding: every value version of every unit is matched by a recorded
/// mutation tuple (create / update-value / erase), and every unit has a
/// Create tuple. A history thinner than the state means operations escaped
/// the record.
pub fn record_keeping(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        let tuples = ctx.history.of_unit(id);
        let has_create = tuples
            .iter()
            .any(|t| matches!(t.action.kind(), ActionKind::Create | ActionKind::Derive));
        if !has_create {
            out.push(Violation::on_unit(
                "VII",
                id,
                ctx.now,
                Severity::Breach,
                "unit exists but its creation was never recorded",
            ));
            continue;
        }
        let mutations = tuples
            .iter()
            .filter(|t| {
                matches!(
                    t.action.kind(),
                    ActionKind::Create
                        | ActionKind::UpdateValue
                        | ActionKind::Erase
                        | ActionKind::Derive
                )
            })
            .count();
        if unit.value.len() > mutations {
            out.push(Violation::on_unit(
                "VII",
                id,
                ctx.now,
                Severity::Breach,
                format!(
                    "{} value versions but only {} recorded mutations",
                    unit.value.len(),
                    mutations
                ),
            ));
        }
    }
    out
}

/// **VIII — Obligations & Accountability**: "Inform the user of changes and
/// unauthorized access to their data."
///
/// Grounding: every policy-change (`UpdatePolicy`) on a personal unit must
/// be followed by a `Notify` tuple for the same unit within the
/// regulation's notification window.
pub fn obligations(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let window = ctx.regulation.notification_window;
    let mut out = Vec::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        if !unit.is_personal() {
            continue;
        }
        let tuples = ctx.history.of_unit(id);
        for (i, t) in tuples.iter().enumerate() {
            if t.action.kind() != ActionKind::UpdatePolicy {
                continue;
            }
            // Skip the initial consent capture (contract purpose).
            if t.purpose == wk::contract() {
                continue;
            }
            let deadline = t.at + window;
            let notified = tuples[i..]
                .iter()
                .any(|n| n.action.kind() == ActionKind::Notify && n.at <= deadline);
            if !notified && ctx.now > deadline {
                out.push(Violation::on_unit(
                    "VIII",
                    id,
                    t.at,
                    Severity::Breach,
                    "policy change without subject notification inside the window",
                ));
            }
        }
    }
    out
}

/// **IX — Demonstrate compliance**: "Demonstrate compliance."
///
/// Grounding: if the state holds personal data there must be (a) a
/// non-empty action history and (b) tamper-evident audit evidence (the
/// audit layer's HMAC chain verified), supplied via
/// [`super::EvidenceFlags::audit_log_tamper_evident`]. The engine's
/// history is read off that chain, so (b) covers every tuple the checker
/// reads. A denial is the one chained record with no tuple: it changes
/// nothing, so no invariant reads it.
pub fn demonstrate(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let has_personal = ctx.state.units().any(|u| u.is_personal());
    if !has_personal {
        return Vec::new();
    }
    let mut out = Vec::new();
    if ctx.history.tuples().next().is_none() {
        out.push(Violation::systemic(
            "IX",
            ctx.now,
            Severity::Critical,
            "personal data present but the action history is empty",
        ));
    }
    if !ctx.evidence.audit_log_tamper_evident {
        out.push(Violation::systemic(
            "IX",
            ctx.now,
            Severity::Breach,
            "audit log integrity not demonstrated (no verified HMAC chain)",
        ));
    }
    out
}

/// **X — Tenant isolation**: "One tenant's probes must never surface
/// another tenant's tuples, residuals, or audit records."
///
/// Grounding (served multi-tenant deployments; vacuous when the
/// context's [`crate::tenant::TenantDirectory`] is empty): the
/// tenant partition must hold over the *whole* model, erased residuals
/// and audit records included —
///
/// * **(a) units** — no data unit's subjects may span two tenants: a
///   unit belongs to exactly the tenant of its subjects, so erasure and
///   restore of that unit can only ever touch one tenant's data;
/// * **(b) history** — every recorded action (the abstract audit
///   record) on a tenant-owned unit must have been performed by an
///   entity of the *same* tenant. Entities absent from the directory
///   are infrastructure principals (the serving platform's shared
///   controller/processor/auditor) and are exempt: the gateway's
///   key-scoped sessions are what confine those to one tenant's block.
pub fn tenant_isolation(ctx: &CheckContext<'_>) -> Vec<Violation> {
    let dir = ctx.tenants;
    if dir.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut unit_tenant: std::collections::HashMap<crate::ids::UnitId, TenantId> =
        std::collections::HashMap::new();
    for id in ctx.state.unit_ids_sorted() {
        let unit = ctx.state.unit(id).expect("listed");
        let mut tenants: Vec<TenantId> = unit
            .subjects
            .iter()
            .filter_map(|&s| dir.tenant_of(s))
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        match tenants.as_slice() {
            [] => {}
            [one] => {
                unit_tenant.insert(id, *one);
            }
            many => {
                out.push(Violation::on_unit(
                    "X",
                    id,
                    ctx.now,
                    Severity::Critical,
                    format!(
                        "unit's subjects span {} tenants — the tenant partition is breached",
                        many.len()
                    ),
                ));
            }
        }
    }
    for t in ctx.history.tuples() {
        let owner = unit_tenant.get(&t.unit).copied();
        let actor = dir.tenant_of(t.entity);
        if let (Some(owner), Some(actor)) = (owner, actor) {
            if actor != owner {
                out.push(Violation {
                    invariant: "X",
                    unit: Some(t.unit),
                    entity: Some(t.entity),
                    at: t.at,
                    severity: Severity::Critical,
                    message: format!("{actor} acted on a unit owned by {owner}"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::history::HistoryTuple;
    use crate::ids::{EntityId, UnitId};
    use crate::invariants::EvidenceFlags;
    use crate::policy::Policy;
    use crate::purpose::PurposeRegistry;
    use crate::regulation::Regulation;
    use crate::state::DatabaseState;
    use crate::unit::Origin;
    use datacase_sim::time::Ts;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    struct Fx {
        state: DatabaseState,
        history: Vec<HistoryTuple>,
        purposes: PurposeRegistry,
        regulation: Regulation,
        evidence: EvidenceFlags,
        tenants: crate::tenant::TenantDirectory,
    }

    impl Fx {
        fn new() -> Fx {
            Fx {
                state: DatabaseState::new(),
                history: Vec::new(),
                purposes: PurposeRegistry::with_defaults(),
                regulation: Regulation::gdpr(),
                evidence: EvidenceFlags {
                    audit_log_tamper_evident: true,
                    encryption_at_rest_default: true,
                },
                tenants: crate::tenant::TenantDirectory::new(),
            }
        }

        fn collect_with_consent(&mut self, subject: u32, at: Ts) -> UnitId {
            let uid = self.state.collect(
                EntityId(subject),
                Origin::Subject(EntityId(subject)),
                "pii".into(),
                at,
            );
            self.history.push(HistoryTuple {
                unit: uid,
                purpose: wk::contract(),
                entity: EntityId(0),
                action: Action::Create,
                at,
            });
            self.state
                .unit_mut(uid)
                .unwrap()
                .policies
                .grant(Policy::open_ended(
                    wk::subject_access(),
                    EntityId(subject),
                    at,
                ));
            uid
        }

        /// Run one grounding over the fixture.
        fn check(
            &self,
            grounding: fn(&CheckContext<'_>) -> Vec<Violation>,
            now: Ts,
        ) -> Vec<Violation> {
            let ctx = CheckContext {
                state: &self.state,
                history: &self.history,
                purposes: &self.purposes,
                regulation: &self.regulation,
                now,
                evidence: self.evidence,
                tenants: &self.tenants,
            };
            grounding(&ctx)
        }
    }

    #[test]
    fn disclosure_requires_contract_tuple() {
        let mut fx = Fx::new();
        let _ok = fx.collect_with_consent(1, t(0));
        // Collected silently — no contract tuple.
        let _bad = fx.state.collect(
            EntityId(2),
            Origin::Subject(EntityId(2)),
            "pii".into(),
            t(1),
        );
        let v = fx.check(disclosure, t(5));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("consent"));
    }

    #[test]
    fn storage_requires_subject_access_policy() {
        let mut fx = Fx::new();
        let _ok = fx.collect_with_consent(1, t(0));
        let bad = fx.state.collect(
            EntityId(2),
            Origin::Subject(EntityId(2)),
            "pii".into(),
            t(1),
        );
        let v = fx.check(storage, t(5));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].unit, Some(bad));
    }

    #[test]
    fn preprocessing_needs_assessment_before_first_use() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        // Assess analytics at t=5, first use at t=10: fine.
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::analytics(),
            entity: EntityId(0),
            action: Action::Assess,
            at: t(5),
        });
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::analytics(),
            entity: EntityId(0),
            action: Action::Read,
            at: t(10),
        });
        assert!(fx.check(pre_processing, t(20)).is_empty());
        // Billing used with no assessment: violation.
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(0),
            action: Action::Read,
            at: t(15),
        });
        let v = fx.check(pre_processing, t(20));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("billing"));
    }

    #[test]
    fn preprocessing_skipped_when_regulation_does_not_require() {
        let mut fx = Fx::new();
        fx.regulation = Regulation::ccpa();
        let uid = fx.collect_with_consent(1, t(0));
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(0),
            action: Action::Read,
            at: t(15),
        });
        assert!(fx.check(pre_processing, t(20)).is_empty());
    }

    #[test]
    fn design_security_checks_per_unit_unless_default() {
        let mut fx = Fx::new();
        fx.evidence.encryption_at_rest_default = false;
        let uid = fx.collect_with_consent(1, t(0));
        let v = fx.check(design_security, t(5));
        assert_eq!(v.len(), 1, "unit not flagged encrypted");
        fx.state.unit_mut(uid).unwrap().encrypted_at_rest = true;
        assert!(fx.check(design_security, t(5)).is_empty());
    }

    #[test]
    fn record_keeping_flags_unrecorded_mutations() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        assert!(fx.check(record_keeping, t(5)).is_empty());
        // Mutate the value without recording history.
        fx.state
            .unit_mut(uid)
            .unwrap()
            .value
            .write(t(3), "changed".into());
        let v = fx.check(record_keeping, t(5));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("versions"));
    }

    #[test]
    fn record_keeping_flags_missing_create() {
        let mut fx = Fx::new();
        let _uid = fx.state.collect(
            EntityId(3),
            Origin::Subject(EntityId(3)),
            "pii".into(),
            t(0),
        );
        let v = fx.check(record_keeping, t(5));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("creation"));
    }

    #[test]
    fn obligations_require_notification_after_policy_change() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(0),
            action: Action::UpdatePolicy,
            at: t(10),
        });
        // Window is 72h; inside it, no violation yet.
        assert!(fx.check(obligations, t(20)).is_empty());
        // Far beyond, with no Notify: violation.
        let far = t(10 + 73 * 3600);
        let v = fx.check(obligations, far);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn obligations_satisfied_by_timely_notify() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(0),
            action: Action::UpdatePolicy,
            at: t(10),
        });
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::billing(),
            entity: EntityId(0),
            action: Action::Notify,
            at: t(20),
        });
        let far = t(10 + 100 * 3600);
        assert!(fx.check(obligations, far).is_empty());
    }

    #[test]
    fn demonstrate_needs_history_and_evidence() {
        let mut fx = Fx::new();
        let _ = fx.state.collect(
            EntityId(1),
            Origin::Subject(EntityId(1)),
            "pii".into(),
            t(0),
        );
        fx.evidence.audit_log_tamper_evident = false;
        let v = fx.check(demonstrate, t(5));
        assert_eq!(v.len(), 2, "empty history + no evidence");
        assert!(v.iter().any(|x| x.severity == Severity::Critical));
    }

    #[test]
    fn demonstrate_passes_on_empty_database() {
        let fx = Fx::new();
        assert!(fx.check(demonstrate, t(5)).is_empty());
    }

    #[test]
    fn tenant_isolation_vacuous_without_directory() {
        let mut fx = Fx::new();
        let _ = fx.collect_with_consent(1, t(0));
        assert!(fx.check(tenant_isolation, t(5)).is_empty());
    }

    #[test]
    fn tenant_isolation_passes_on_clean_partition() {
        let mut fx = Fx::new();
        let _a = fx.collect_with_consent(1, t(0));
        let _b = fx.collect_with_consent(2, t(0));
        fx.tenants.assign(EntityId(1), TenantId(1));
        fx.tenants.assign(EntityId(2), TenantId(2));
        assert!(fx.check(tenant_isolation, t(5)).is_empty());
    }

    #[test]
    fn tenant_isolation_flags_unit_spanning_tenants() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        // A second subject from another tenant attached to the same unit.
        fx.state.unit_mut(uid).unwrap().subjects.push(EntityId(2));
        fx.tenants.assign(EntityId(1), TenantId(1));
        fx.tenants.assign(EntityId(2), TenantId(2));
        let v = fx.check(tenant_isolation, t(5));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].severity, Severity::Critical);
        assert!(v[0].message.contains("span"));
    }

    #[test]
    fn tenant_isolation_flags_cross_tenant_action() {
        let mut fx = Fx::new();
        let uid = fx.collect_with_consent(1, t(0));
        fx.tenants.assign(EntityId(1), TenantId(1));
        fx.tenants.assign(EntityId(9), TenantId(2));
        // Tenant 2's entity reads tenant 1's unit: an audit record leaked
        // across the partition.
        fx.history.push(HistoryTuple {
            unit: uid,
            purpose: wk::analytics(),
            entity: EntityId(9),
            action: Action::Read,
            at: t(3),
        });
        let v = fx.check(tenant_isolation, t(5));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("tenant-2"));
        // The same action by an infrastructure entity (unassigned) is the
        // platform acting on the tenant's behalf: exempt.
        let mut ok = Fx::new();
        let uid2 = ok.collect_with_consent(1, t(0));
        ok.tenants.assign(EntityId(1), TenantId(1));
        ok.history.push(HistoryTuple {
            unit: uid2,
            purpose: wk::analytics(),
            entity: EntityId(50),
            action: Action::Read,
            at: t(3),
        });
        assert!(ok.check(tenant_isolation, t(5)).is_empty());
    }
}
