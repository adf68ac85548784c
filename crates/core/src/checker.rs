//! The compliance checker: evaluates a regulation's invariants over a
//! database state and action history, producing a report (the paper's
//! "demonstrable compliance", §1 and §4.4).

use datacase_sim::report::Table;
use datacase_sim::time::Ts;

use crate::invariants::{CheckContext, CATALOG};
use crate::violation::{Severity, Violation};

/// Per-invariant outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct InvariantOutcome {
    /// The invariant's id.
    pub id: &'static str,
    /// Its one-line statement.
    pub statement: &'static str,
    /// Number of violations found.
    pub violations: usize,
    /// Worst severity among them, if any.
    pub worst: Option<Severity>,
}

/// The result of a full compliance check.
#[derive(Clone, Debug, Default)]
pub struct ComplianceReport {
    /// When the check ran.
    pub at: Ts,
    /// Name of the regulation checked against.
    pub regulation: String,
    /// Outcome per enforced invariant, in catalog order.
    pub outcomes: Vec<InvariantOutcome>,
    /// All violations found.
    pub violations: Vec<Violation>,
}

impl ComplianceReport {
    /// Did every enforced invariant hold?
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one invariant.
    pub fn of_invariant(&self, id: &str) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.invariant == id)
            .collect()
    }

    /// Render a summary table (one row per invariant).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Compliance report against {} at {} — {}",
                self.regulation,
                self.at,
                if self.is_compliant() {
                    "COMPLIANT"
                } else {
                    "NON-COMPLIANT"
                }
            ),
            &["invariant", "violations", "worst", "statement"],
        );
        for o in &self.outcomes {
            t.row(vec![
                o.id.to_string(),
                o.violations.to_string(),
                o.worst
                    .map(|s| s.label().to_string())
                    .unwrap_or_else(|| "-".into()),
                o.statement.to_string(),
            ]);
        }
        t.render_text()
    }
}

/// Run the catalog rows `ctx.regulation` enforces, in catalog order.
pub fn check(ctx: &CheckContext<'_>) -> ComplianceReport {
    let mut report = ComplianceReport {
        at: ctx.now,
        regulation: ctx.regulation.name.clone(),
        ..ComplianceReport::default()
    };
    for inv in CATALOG.iter().filter(|i| ctx.regulation.enforces(i.id)) {
        let vs = (inv.check)(ctx);
        debug_assert!(vs.iter().all(|v| v.invariant == inv.id), "{}", inv.id);
        report.outcomes.push(InvariantOutcome {
            id: inv.id,
            statement: inv.statement,
            violations: vs.len(),
            worst: vs.iter().map(|v| v.severity).max(),
        });
        report.violations.extend(vs);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::history::HistoryTuple;
    use crate::ids::EntityId;
    use crate::invariants::EvidenceFlags;
    use crate::policy::Policy;
    use crate::purpose::{well_known as wk, PurposeRegistry};
    use crate::regulation::Regulation;
    use crate::state::DatabaseState;
    use crate::tenant::TenantDirectory;
    use crate::unit::Origin;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    /// Build a fully compliant little world: consented collection, subject
    /// access, retention bound far in the future, tamper-evident logs.
    fn compliant_world() -> (DatabaseState, Vec<HistoryTuple>, PurposeRegistry) {
        let mut state = DatabaseState::new();
        let mut history = Vec::new();
        let subject = EntityId(7);
        let uid = state.collect(subject, Origin::Subject(subject), "cc".into(), t(0));
        history.push(HistoryTuple {
            unit: uid,
            purpose: wk::contract(),
            entity: EntityId(1),
            action: Action::Create,
            at: t(0),
        });
        let u = state.unit_mut(uid).unwrap();
        u.encrypted_at_rest = true;
        u.policies
            .grant(Policy::open_ended(wk::subject_access(), subject, t(0)));
        u.policies.grant(Policy::new(
            wk::compliance_erase(),
            EntityId(1),
            t(0),
            Ts::from_secs(1_000_000),
        ));
        (state, history, PurposeRegistry::with_defaults())
    }

    /// Check `regulation` over a world whose audit log verified.
    fn check_world(
        (state, history, purposes): &(DatabaseState, Vec<HistoryTuple>, PurposeRegistry),
        regulation: &Regulation,
        now: Ts,
    ) -> ComplianceReport {
        check(&CheckContext {
            state,
            history,
            purposes,
            regulation,
            now,
            evidence: EvidenceFlags {
                audit_log_tamper_evident: true,
                encryption_at_rest_default: false,
            },
            tenants: &TenantDirectory::new(),
        })
    }

    #[test]
    fn compliant_world_passes_everything() {
        let report = check_world(&compliant_world(), &Regulation::gdpr(), t(100));
        assert!(report.is_compliant(), "violations: {:?}", report.violations);
        assert_eq!(report.outcomes.len(), 10);
        assert!(report.render().contains("COMPLIANT"));
    }

    #[test]
    fn illegal_read_surfaces_once_in_g6() {
        let mut world = compliant_world();
        world.1.push(HistoryTuple {
            unit: crate::ids::UnitId(0),
            purpose: wk::billing(),
            entity: EntityId(66),
            action: Action::Read,
            at: t(10),
        });
        let report = check_world(&world, &Regulation::gdpr(), t(100));
        assert!(!report.is_compliant());
        // One unlawful action, reported once under G6 (and under III:
        // this world recorded no assessment for billing).
        let flagged: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(flagged, ["III", "G6"]);
    }

    #[test]
    fn ccpa_checker_enforces_fewer_invariants() {
        let world = compliant_world();
        let enforced = |regulation: Regulation| -> Vec<&'static str> {
            let report = check_world(&world, &regulation, t(100));
            report.outcomes.iter().map(|o| o.id).collect()
        };
        let (gdpr, ccpa) = (enforced(Regulation::gdpr()), enforced(Regulation::ccpa()));
        assert!(gdpr.contains(&"III"));
        assert!(!ccpa.contains(&"III"));
        assert!(ccpa.len() < gdpr.len());
    }

    #[test]
    fn report_render_lists_all_invariants() {
        let report = check_world(&compliant_world(), &Regulation::gdpr(), t(5));
        let rendered = report.render();
        for id in ["I", "G6", "G17", "IX", "X"] {
            assert!(
                rendered.lines().any(|l| l.trim_start().starts_with(id)),
                "missing {id} in:\n{rendered}"
            );
        }
    }
}
