//! Multinational compliance (paper §4.3): one system trace, three
//! regulations, three different verdicts — the point of making the
//! grounding explicit instead of baked-in.
//!
//! ```sh
//! cargo run --release --example multinational
//! ```

use data_case::prelude::*;

fn billing_record() -> Request {
    Request::Create {
        key: 1,
        payload: b"billing-record-of-subject-9".to_vec(),
        metadata: GdprMetadata {
            subject: 9,
            purpose: data_case::core::purpose::well_known::billing(),
            ttl: Ts::from_secs(3600), // 1 simulated hour
            origin_device: 1,
            objects_to_sharing: true,
        },
    }
}

fn main() {
    let mut config = EngineConfig::p_sys();
    config.tuple_encryption = None;
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller);

    // Collect a record whose retention deadline is short; then let the
    // deadline pass and erase with plain deletion.
    assert!(fe.run(&controller, billing_record()).is_done());

    // Erase *before* the deadline with plain deletion.
    assert!(fe
        .run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::Deleted,
            },
        )
        .outcome
        .is_ok());
    // Jump past the deadline plus every regulation's grace window.
    fe.advance_to(Ts::from_secs(60 * 24 * 3600));

    let regulations = [
        Regulation::gdpr(),
        Regulation::gdpr_strict_member_state(),
        Regulation::ccpa(),
    ];
    for reg in &regulations {
        let report = fe.compliance_report(reg);
        println!(
            "{:<28} min-erasure={:<24} verdict: {}",
            reg.name,
            reg.min_erasure.label(),
            if report.is_compliant() {
                "COMPLIANT"
            } else {
                "NON-COMPLIANT"
            }
        );
        for v in report.violations.iter().take(2) {
            println!("    {v}");
        }
    }

    println!(
        "\nThe same trace satisfies GDPR and CCPA (minimum grounding: delete)\n\
         but fails the strict member state, which grounds erasure as STRONG\n\
         deletion — plain deletion leaves identifying derived data eligible.\n\
         Fixing it is a grounding decision, not a code rewrite: erase with\n\
         StronglyDeleted instead."
    );

    // Do it right for the strict regime on a fresh engine.
    let mut config2 = EngineConfig::p_sys();
    config2.tuple_encryption = None;
    let mut fe2 = Frontend::new(config2);
    fe2.run(&controller, billing_record());
    assert!(fe2
        .run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::StronglyDeleted,
            },
        )
        .outcome
        .is_ok());
    fe2.advance_to(Ts::from_secs(60 * 24 * 3600));
    let strict = fe2.compliance_report(&Regulation::gdpr_strict_member_state());
    println!(
        "\nre-grounded erase as strong deletion → strict member state: {}",
        if strict.is_compliant() {
            "COMPLIANT"
        } else {
            "NON-COMPLIANT"
        }
    );
}
