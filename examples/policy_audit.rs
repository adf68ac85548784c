//! Policy-consistent processing (G6) and demonstrable compliance (IX).
//!
//! An ad partner tries to read personal data it has no policy for; the
//! enforcement layer denies it, so the action history stays
//! policy-consistent and the compliance checker stays green. Then the same
//! rogue read is *injected* into the history (as if enforcement had been
//! bypassed — which is exactly what the forensic guard models) and the
//! checker catches it. Finally the auditor verifies the tamper-evident
//! log chain — the paper's "demonstrable compliance".
//!
//! ```sh
//! cargo run --release --example policy_audit
//! ```

use data_case::core::action::Action;
use data_case::core::history::HistoryTuple;
use data_case::prelude::*;
use data_case::workloads::gdprbench::GdprBench;

fn main() {
    let mut fe = Frontend::new(EngineConfig::p_sys());
    let mut bench = GdprBench::new(2024, 100);
    fe.submit(&Session::new(Actor::Controller), &bench.load_phase(500));
    println!("loaded 500 records under P_SYS (FGAC + encrypted logs)");

    // Legitimate processing.
    fe.submit(
        &Session::new(Actor::Subject),
        &bench.ops(200, data_case::workloads::gdprbench::Mix::wcus()),
    );

    // The ad partner has no policy on unit 1 — FGAC denies the read
    // *before* it reaches storage, and the typed error says why. Denied
    // actions never enter the history, which is exactly how enforcement
    // preserves G6.
    let rogue_entity = fe.entities().by_name("AdPartner").expect("registered").id;
    let denied_before = fe.denied();
    let probe = fe.run(
        // processor declaring a purpose it holds no policy for
        &Session::new(Actor::Processor).for_purpose(data_case::core::purpose::well_known::audit()),
        Request::Read { key: 1 },
    );
    println!(
        "in-band probe outcome: {:?} (denials so far: {})",
        probe.outcome,
        fe.denied()
    );
    assert!(probe.is_denied());
    assert!(fe.denied() > denied_before);

    let clean = fe.compliance_report(&Regulation::gdpr());
    println!("\n-- with enforcement --\n{}", clean.render());
    assert!(clean.is_compliant());

    // Now simulate an enforcement bypass: the rogue read gets recorded in
    // the action history without any covering policy.
    let unit = fe.unit_of_key(1).expect("loaded");
    let at = fe.clock().now();
    fe.forensic().inject_history(HistoryTuple {
        unit,
        purpose: data_case::core::purpose::well_known::advertising(),
        entity: rogue_entity,
        action: Action::Read,
        at,
    });
    let dirty = fe.compliance_report(&Regulation::gdpr());
    println!(
        "-- after a bypassed read is found in the history --\n{}",
        dirty.render()
    );
    assert!(!dirty.is_compliant());
    for v in dirty.of_invariant("G6") {
        println!("  {v}");
    }

    // The auditor's integrity check over the encrypted log.
    println!(
        "\naudit log: {} records, tamper-evident chain valid: {}",
        fe.audit_records(),
        fe.forensic().verify_chain()
    );
    let r = fe.run(
        &Session::new(Actor::Controller),
        Request::ReadMeta { key: 1 },
    );
    assert!(!r.is_denied(), "controller meta access");
}
