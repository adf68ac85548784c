//! Compliance by construction (paper §4.4 + §6): a pre-deployment PIA on
//! the engine configuration, a retention sweeper that erases data *before*
//! G17 can break, and a regulator-style certification at the end.
//!
//! ```sh
//! cargo run --release --example compliance_by_construction
//! ```

use data_case::engine::pia::{assess, certify};
use data_case::engine::sweeper::{next_due, sweep};
use data_case::prelude::*;

fn main() {
    // 1. PIA first (GDPR Art. 35): assess candidate configurations before
    //    any personal data is touched.
    println!("--- pre-deployment impact assessment ---\n");
    for config in [
        EngineConfig::stock(DeleteStrategy::DeleteOnly),
        EngineConfig::p_base(),
        EngineConfig::p_sys(),
    ] {
        let pia = assess(&config);
        println!("{}", pia.render());
        println!(
            "acceptable for GDPR without retrofit: {}\n",
            pia.acceptable_for(&Regulation::gdpr())
        );
    }

    // 2. Deploy the acceptable profile and collect data with staggered
    //    retention deadlines — one batch, one session, one response per
    //    record.
    let mut fe = Frontend::new(EngineConfig::p_base());
    let controller = Session::new(Actor::Controller);
    let collect: Batch = (0..6u64)
        .map(|i| Request::Create {
            key: i,
            payload: format!("reading-{i}").into_bytes(),
            metadata: GdprMetadata {
                subject: i as u32,
                purpose: data_case::core::purpose::well_known::smart_space(),
                ttl: Ts::from_secs(3600 * (i + 1)), // expire hourly, staggered
                origin_device: 1,
                objects_to_sharing: false,
            },
        })
        .collect();
    for r in fe.submit(&controller, &collect) {
        assert!(r.is_done());
    }

    // 3. Run the sweeper at each due instant: G17 never breaks.
    println!("--- retention sweeping ---\n");
    while let Some(due) = next_due(&fe) {
        fe.clock().advance_to(due);
        let report = sweep(&mut fe);
        let check = fe.compliance_report(&Regulation::gdpr());
        println!(
            "sweep at {:>10}: erased {:?} | G17 violations: {}",
            format!("{}", fe.clock().now()),
            report.erased,
            check.of_invariant("G17").len(),
        );
        assert!(check.of_invariant("G17").is_empty());
    }

    // 4. Certification (the DPA's process): checker + empirical probes +
    //    declared groundings.
    println!("\n--- certification ---\n");
    let cert = certify(&mut fe, &Regulation::gdpr());
    let passed = cert.probes.iter().filter(|p| p.matches_expected()).count();
    println!(
        "regulation: {} | checker: {} | probes: {passed}/{}",
        cert.regulation,
        cert.checker_compliant,
        cert.probes.len()
    );
    for g in &cert.declared_groundings {
        println!("  declared: {g}");
    }
    println!(
        "\ncertificate {}",
        if cert.granted() { "GRANTED" } else { "DENIED" }
    );
    assert!(cert.granted());
}
