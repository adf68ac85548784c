//! Compliance by construction (paper §4.4 + §6): a pre-deployment PIA on
//! the engine configuration, the engine's retention drain erasing data at
//! its deadline so G17 never breaks, and a regulator-style certification
//! at the end.
//!
//! ```sh
//! cargo run --release --example compliance_by_construction
//! ```

use data_case::engine::pia::{assess, certify};
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
    let collect: Vec<Request> = (0..6u64)
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

    // 3. Let time pass an hour at a time: the engine's retention drain
    //    erases each record at its deadline, so G17 never breaks.
    println!("--- retention drain ---\n");
    for hour in 1..=7 {
        fe.advance_to(Ts::from_secs(3600 * hour));
        let erased = fe.state().units().filter(|u| u.erasure.is_erased()).count();
        let check = fe.compliance_report(&Regulation::gdpr());
        println!(
            "hour {hour}: {erased}/6 records erased | G17 violations: {}",
            check.of_invariant("G17").len(),
        );
        assert_eq!(erased, hour.min(6) as usize, "one record due per hour");
        assert!(check.of_invariant("G17").is_empty());
    }

    // 4. Certification (the DPA's process): checker + empirical probes +
    //    declared groundings.
    println!("\n--- certification ---\n");
    let cert = certify(&fe, &Regulation::gdpr());
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
