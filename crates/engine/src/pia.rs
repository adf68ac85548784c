//! Privacy Impact Assessment and certification support (paper §4.4).
//!
//! * **PIA** — "GDPR (G35) imposes the burden of a PIA on controllers
//!   prior to starting data processing. […] Data-CASE supports impact
//!   assessments by providing system designers with system-actions
//!   corresponding to each step in the data processing pipeline and their
//!   properties." [`assess`] inspects an engine *configuration* (before
//!   deployment) and reports the groundings it supports, their property
//!   matrix, and the residual risks.
//! * **Certification** — "regulatory agencies […] certify that a data
//!   processing system is, indeed, compliant". [`certify`] runs the live
//!   checker plus the empirical erasure probes, on a fresh engine of the
//!   certified engine's own configuration, and issues a certificate only
//!   if both pass.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::regulation::Regulation;
use datacase_sim::fault::FaultInjector;
use datacase_sim::report::Table;

use crate::erasure::{describe, probe_on, workload_plan, PropertyProbe, Step};
use crate::frontend::Frontend;
use crate::profiles::{DeleteStrategy, EngineConfig, ProfileKind};

/// One identified risk with its severity and mitigation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Risk {
    /// Short risk title.
    pub title: String,
    /// Why it matters.
    pub detail: String,
    /// The system-action-level mitigation Data-CASE suggests.
    pub mitigation: String,
}

/// A pre-deployment privacy impact assessment.
#[derive(Clone, Debug)]
pub struct PiaReport {
    /// The profile assessed.
    pub profile: ProfileKind,
    /// The strongest erasure interpretation the workload path achieves.
    pub workload_erasure: ErasureInterpretation,
    /// Whether data is encrypted at rest by default.
    pub encrypted_at_rest: bool,
    /// Whether logs are redacted on erasure.
    pub logs_redacted_on_erase: bool,
    /// Identified risks.
    pub risks: Vec<Risk>,
}

impl PiaReport {
    /// Render as a report table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("PIA — {} profile", self.profile.label()),
            &["risk", "detail", "mitigation"],
        );
        for r in &self.risks {
            t.row(vec![
                r.title.clone(),
                r.detail.clone(),
                r.mitigation.clone(),
            ]);
        }
        format!(
            "workload erasure grounding: {}\nencrypted at rest: {}\nlogs redacted on erase: {}\n{}",
            self.workload_erasure.label(),
            self.encrypted_at_rest,
            self.logs_redacted_on_erase,
            t.render_text()
        )
    }

    /// Is the configuration acceptable for `regulation` without retrofit?
    pub fn acceptable_for(&self, regulation: &Regulation) -> bool {
        self.workload_erasure.implies(regulation.min_erasure)
            && (!regulation.require_encryption_at_rest || self.encrypted_at_rest)
    }
}

/// Assess an engine configuration before deployment.
pub fn assess(config: &EngineConfig) -> PiaReport {
    let workload_erasure = config.delete_strategy.interpretation();
    let logs_redacted_on_erase = workload_plan(config).contains(&Step::RedactLogs);
    let encrypted = config.encryption_at_rest();
    let mut risks = Vec::new();
    if config.delete_strategy == DeleteStrategy::DeleteOnly {
        risks.push(Risk {
            title: "unbounded physical retention".into(),
            detail: "DELETE without VACUUM leaves dead tuples on pages indefinitely".into(),
            mitigation: "enable periodic VACUUM (maintenance_every) or VACUUM FULL".into(),
        });
    }
    if config.delete_strategy == DeleteStrategy::TombstoneAttribute {
        risks.push(Risk {
            title: "erasure is reversible".into(),
            detail: "the hidden attribute keeps data readable by the controller".into(),
            mitigation: "schedule physical deletion after the inaccessibility window".into(),
        });
    }
    if !encrypted {
        risks.push(Risk {
            title: "plaintext at rest".into(),
            detail: "disk residuals (dead tuples, WAL, remanence) expose personal data".into(),
            mitigation: "enable tuple encryption or LUKS-style disk encryption".into(),
        });
    }
    if !logs_redacted_on_erase {
        risks.push(Risk {
            title: "log retention after erasure".into(),
            detail: "audit/WAL records keep erased units' payloads".into(),
            mitigation: "redact logs on delete (P_SYS behaviour) or encrypt the log".into(),
        });
    }
    if config.maintenance_every == u64::MAX
        && config.delete_strategy != DeleteStrategy::TombstoneAttribute
    {
        risks.push(Risk {
            title: "no maintenance cadence".into(),
            detail: "vacuum never runs; physical deletion is never completed".into(),
            mitigation: "set maintenance_every to bound time-to-physical-erasure".into(),
        });
    }
    PiaReport {
        profile: config.profile,
        workload_erasure,
        encrypted_at_rest: encrypted,
        logs_redacted_on_erase,
        risks,
    }
}

/// A certificate issued by a regulatory agency's process (§4.4).
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Regulation certified against.
    pub regulation: String,
    /// The checker's verdict.
    pub checker_compliant: bool,
    /// One erasure probe per interpretation, run on the certified
    /// engine's configuration.
    pub probes: Vec<PropertyProbe>,
    /// Grounding descriptions the system declared (Figure 2's mapping).
    pub declared_groundings: Vec<String>,
}

impl Certificate {
    /// Is the certificate granted?
    pub fn granted(&self) -> bool {
        self.checker_compliant && self.probes.iter().all(PropertyProbe::matches_expected)
    }
}

/// Certify a live engine: invariant check + empirical erasure probes on
/// a fresh engine of the same configuration (its fault plane disarmed) +
/// declared groundings, the erasure plans that configuration executes.
pub fn certify(frontend: &mut Frontend, regulation: &Regulation) -> Certificate {
    let report = frontend.compliance_report(regulation);
    let config = frontend
        .config
        .clone()
        .with_fault(FaultInjector::disabled());
    let probes = ErasureInterpretation::ALL
        .into_iter()
        .map(|interp| probe_on(&config, interp))
        .collect();
    let declared = ErasureInterpretation::ALL
        .into_iter()
        .map(|i| format!("{} -> {}", i.label(), describe(&config, i)))
        .collect();
    Certificate {
        regulation: regulation.name.clone(),
        checker_compliant: report.is_compliant(),
        probes,
        declared_groundings: declared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{Actor, Session};
    use datacase_storage::backend::BackendKind;
    use datacase_workloads::gdprbench::GdprBench;

    #[test]
    fn stock_config_is_risky() {
        let pia = assess(&EngineConfig::stock(DeleteStrategy::DeleteOnly));
        assert!(pia.risks.len() >= 3, "{:#?}", pia.risks);
        assert!(!pia.acceptable_for(&Regulation::gdpr()), "no encryption");
        assert!(pia.render().contains("unbounded physical retention"));
    }

    #[test]
    fn p_sys_config_has_fewest_risks() {
        let base = assess(&EngineConfig::p_base());
        let sys = assess(&EngineConfig::p_sys());
        assert!(sys.risks.len() < base.risks.len());
        assert!(sys.acceptable_for(&Regulation::gdpr()));
        assert!(sys.logs_redacted_on_erase);
    }

    #[test]
    fn luks_counts_as_encryption_at_rest_only_on_the_heap() {
        // P_GBench's at-rest encryption is a heap disk feature: on the LSM
        // the assessment must flag plaintext at rest, as the live
        // checker's invariant VI does for the same configuration.
        let heap = assess(&EngineConfig::p_gbench());
        assert!(heap.encrypted_at_rest);
        let lsm_config = EngineConfig::p_gbench().with_backend(BackendKind::Lsm);
        let lsm = assess(&lsm_config);
        assert!(!lsm.encrypted_at_rest);
        assert!(!lsm.acceptable_for(&Regulation::gdpr()));
        assert!(lsm.risks.iter().any(|r| r.title == "plaintext at rest"));

        let mut fe = Frontend::new(lsm_config);
        let mut bench = GdprBench::new(5, 50);
        fe.submit_ops(&Session::new(Actor::Controller), &bench.load_phase(10));
        let report = fe.compliance_report(&Regulation::gdpr());
        assert!(!report.of_invariant("VI").is_empty());
    }

    #[test]
    fn tombstone_config_fails_gdpr_minimum() {
        let mut cfg = EngineConfig::p_base();
        cfg.delete_strategy = DeleteStrategy::TombstoneAttribute;
        let pia = assess(&cfg);
        assert_eq!(
            pia.workload_erasure,
            ErasureInterpretation::ReversiblyInaccessible
        );
        assert!(!pia.acceptable_for(&Regulation::gdpr()));
        // …but acceptable where reversible inaccessibility suffices.
        let mut lax = Regulation::ccpa();
        lax.min_erasure = ErasureInterpretation::ReversiblyInaccessible;
        lax.require_encryption_at_rest = false;
        assert!(pia.acceptable_for(&lax));
    }

    #[test]
    fn certification_passes_for_compliant_engine() {
        let mut fe = Frontend::new(EngineConfig::p_sys());
        let mut bench = GdprBench::new(5, 50);
        fe.submit_ops(&Session::new(Actor::Controller), &bench.load_phase(50));
        let cert = certify(&mut fe, &Regulation::gdpr());
        assert!(cert.granted(), "{cert:?}");
        assert_eq!(cert.probes.len(), 4);
        assert_eq!(cert.declared_groundings.len(), 4);
        // P_SYS encrypts tuples, so its permanent plan ends in crypto-erasure.
        assert!(cert.declared_groundings[3].contains("DESTROY per-unit key"));
    }

    /// Certification probes the engine it certifies: an LSM-backed
    /// P_GBench engine stores plaintext tuples, so the deleted unit's
    /// surviving derived copy shows up in the LSM runs.
    #[test]
    fn certification_probes_the_certified_backend() {
        let mut fe = Frontend::new(EngineConfig::p_gbench().with_backend(BackendKind::Lsm));
        let cert = certify(&mut fe, &Regulation::gdpr());
        let deleted = cert
            .probes
            .iter()
            .find(|p| p.interpretation == ErasureInterpretation::Deleted)
            .expect("one probe per interpretation");
        assert!(
            deleted.residuals.lsm_entries > 0,
            "{}",
            deleted.residuals.describe()
        );
        assert!(cert.probes.iter().all(PropertyProbe::matches_expected));
    }

    #[test]
    fn certification_denied_after_violation() {
        let mut fe = Frontend::new(EngineConfig::p_base());
        let mut bench = GdprBench::new(6, 50);
        fe.submit_ops(&Session::new(Actor::Controller), &bench.load_phase(20));
        let unit = fe.unit_of_key(1).unwrap();
        let rogue = fe.entities().by_name("AdPartner").unwrap().id;
        let at = fe.clock().now();
        fe.forensic()
            .inject_history(datacase_core::history::HistoryTuple {
                unit,
                purpose: datacase_core::purpose::well_known::advertising(),
                entity: rogue,
                action: datacase_core::action::Action::Read,
                at,
            });
        let cert = certify(&mut fe, &Regulation::gdpr());
        assert!(!cert.granted());
        assert!(!cert.checker_compliant);
    }
}
