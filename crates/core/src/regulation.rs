//! Data regulations as parameter sets over the Data-CASE invariants.
//!
//! Data-CASE is regulation-agnostic: a regulation contributes (a) which
//! invariants it imposes, (b) the parameters those invariants are checked
//! with (erasure deadline, notification window, minimum erasure
//! interpretation), and (c) which actions it *requires* regardless of
//! policies (those are always policy-consistent, §2.1). GDPR member states
//! may tighten parameters, and other laws (CCPA, PIPEDA) pick different
//! ones — which is what the multinational example (§4.3) exercises.

use datacase_sim::time::Dur;

use crate::action::ActionKind;
use crate::grounding::erasure::ErasureInterpretation;
use crate::history::HistoryTuple;
use crate::purpose::well_known;

/// A regulation's checkable parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Regulation {
    /// Display name ("GDPR", "CCPA" …).
    pub name: String,
    /// The minimum erasure interpretation that satisfies the regulation's
    /// right to erasure (a deployment-level grounding choice; GDPR's text
    /// is ambiguous, which is the paper's point).
    pub min_erasure: ErasureInterpretation,
    /// "Without undue delay": the window between an erasure obligation
    /// falling due and the erase action.
    pub erase_grace: Dur,
    /// Window for notifying the subject after a breach/policy change
    /// (GDPR Art. 33: 72 hours).
    pub notification_window: Dur,
    /// Whether personal data must be encrypted at rest (our grounding of
    /// Art. 25/32 "data protection by design" for invariant VI).
    pub require_encryption_at_rest: bool,
    /// Whether a pre-processing assessment (Art. 35 DPIA) is required
    /// before a new purpose touches personal data.
    pub require_assessment: bool,
    /// Enforced invariant identifiers (subset of the catalog: "I".."X",
    /// with "G6" and "G17" for IV and V).
    pub invariants: Vec<&'static str>,
}

impl Regulation {
    /// A GDPR-flavoured parameterisation with the full catalog.
    pub fn gdpr() -> Regulation {
        Regulation {
            name: "GDPR".into(),
            min_erasure: ErasureInterpretation::Deleted,
            erase_grace: Dur::from_secs(72 * 3600),
            notification_window: Dur::from_secs(72 * 3600),
            require_encryption_at_rest: true,
            require_assessment: true,
            invariants: vec![
                "I", "II", "III", "G6", "G17", "VI", "VII", "VIII", "IX", "X",
            ],
        }
    }

    /// A stricter member-state variant (shorter delays, strong deletion) —
    /// "GDPR itself allows EU member states to define their own data
    /// processing principles" (§4.3).
    pub fn gdpr_strict_member_state() -> Regulation {
        Regulation {
            name: "GDPR (strict member state)".into(),
            min_erasure: ErasureInterpretation::StronglyDeleted,
            erase_grace: Dur::from_secs(24 * 3600),
            notification_window: Dur::from_secs(24 * 3600),
            ..Regulation::gdpr()
        }
    }

    /// A PIPEDA-flavoured parameterisation (Canada): consent-centric,
    /// 30-day response window, no DPIA requirement, breach notification
    /// "as soon as feasible" (we ground it as 72 hours).
    pub fn pipeda() -> Regulation {
        Regulation {
            name: "PIPEDA".into(),
            min_erasure: ErasureInterpretation::Deleted,
            erase_grace: Dur::from_secs(30 * 24 * 3600),
            notification_window: Dur::from_secs(72 * 3600),
            require_encryption_at_rest: false,
            require_assessment: false,
            invariants: vec!["I", "II", "G6", "G17", "VII", "VIII", "IX"],
        }
    }

    /// A CCPA-flavoured parameterisation: no DPIA requirement, weaker
    /// erasure (deletion of the business's copy), 45-day response window.
    pub fn ccpa() -> Regulation {
        Regulation {
            name: "CCPA".into(),
            min_erasure: ErasureInterpretation::Deleted,
            erase_grace: Dur::from_secs(45 * 24 * 3600),
            notification_window: Dur::from_secs(72 * 3600),
            require_encryption_at_rest: false,
            require_assessment: false,
            invariants: vec!["I", "II", "G6", "G17", "VII", "IX"],
        }
    }

    /// Is the invariant enforced under this regulation?
    pub fn enforces(&self, invariant: &str) -> bool {
        self.invariants.contains(&invariant)
    }

    /// Actions the regulation *requires* irrespective of user policies;
    /// such history tuples are policy-consistent by definition (paper §2.1:
    /// "or the action in the tuple is required by a data regulation").
    ///
    /// We require: erasure/sanitisation under the `compliance-erase`
    /// purpose; consent/contract capture under the `contract` purpose
    /// (the paper's `CtrC1234` example — the contract action is what
    /// *establishes* the policies, so no policy can precede it); subject
    /// notifications; pre-processing assessments; and audit metadata reads
    /// under the `audit` purpose.
    pub fn requires_action(&self, tuple: &HistoryTuple) -> bool {
        match tuple.action.kind() {
            ActionKind::Erase | ActionKind::Sanitize => {
                tuple.purpose == well_known::compliance_erase()
            }
            ActionKind::Create | ActionKind::UpdatePolicy => {
                tuple.purpose == well_known::contract()
            }
            ActionKind::Notify => true,
            ActionKind::Assess => true,
            ActionKind::ReadMeta => tuple.purpose == well_known::audit(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{EntityId, UnitId};
    use datacase_sim::time::Ts;

    fn tup(action: Action, purpose: crate::purpose::PurposeId) -> HistoryTuple {
        HistoryTuple {
            unit: UnitId(1),
            purpose,
            entity: EntityId(1),
            action,
            at: Ts::from_secs(1),
        }
    }

    #[test]
    fn gdpr_enforces_the_whole_catalog() {
        let g = Regulation::gdpr();
        for inv in crate::invariants::CATALOG {
            assert!(g.enforces(inv.id), "{}", inv.id);
        }
        assert!(g.require_encryption_at_rest);
        assert!(g.require_assessment);
    }

    #[test]
    fn pipeda_enforces_obligations_but_not_dpia() {
        let p = Regulation::pipeda();
        assert!(p.enforces("VIII"), "breach notification");
        assert!(!p.enforces("III"), "no DPIA requirement");
        assert!(!p.require_encryption_at_rest);
        assert_eq!(p.min_erasure, ErasureInterpretation::Deleted);
    }

    #[test]
    fn ccpa_is_a_strict_subset_with_weaker_params() {
        let c = Regulation::ccpa();
        assert!(!c.enforces("III"));
        assert!(!c.enforces("VI"));
        assert!(c.enforces("G17"));
        assert!(!c.require_assessment);
        assert!(c.erase_grace > Regulation::gdpr().erase_grace);
    }

    #[test]
    fn strict_member_state_tightens() {
        let g = Regulation::gdpr();
        let s = Regulation::gdpr_strict_member_state();
        assert!(s.min_erasure.implies(g.min_erasure));
        assert!(s.erase_grace < g.erase_grace);
        assert_eq!(s.invariants, g.invariants);
    }

    #[test]
    fn compliance_erase_is_required_action() {
        let g = Regulation::gdpr();
        assert!(g.requires_action(&tup(
            Action::Erase(ErasureInterpretation::Deleted),
            well_known::compliance_erase()
        )));
        assert!(g.requires_action(&tup(Action::Sanitize, well_known::compliance_erase())));
        // Erase under a non-compliance purpose is NOT regulation-required.
        assert!(!g.requires_action(&tup(
            Action::Erase(ErasureInterpretation::Deleted),
            well_known::billing()
        )));
    }

    #[test]
    fn notifications_and_assessments_always_required() {
        let g = Regulation::gdpr();
        assert!(g.requires_action(&tup(Action::Notify, well_known::billing())));
        assert!(g.requires_action(&tup(Action::Assess, well_known::analytics())));
    }

    #[test]
    fn audit_reads_are_required_only_under_audit_purpose() {
        let g = Regulation::gdpr();
        assert!(g.requires_action(&tup(Action::ReadMeta, well_known::audit())));
        assert!(!g.requires_action(&tup(Action::ReadMeta, well_known::billing())));
        assert!(!g.requires_action(&tup(Action::Read, well_known::audit())));
    }
}
