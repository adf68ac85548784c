//! Quickstart: collect personal data compliantly, process it through
//! session-scoped requests, and demonstrate compliance with a checker
//! report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use data_case::prelude::*;

fn main() {
    // A P_Base-profile engine behind the session frontend: RBAC + CSV
    // response logging + AES-256 at rest + DELETE+VACUUM erasure. The
    // frontend is the only write path — there is no way to touch the
    // substrate without a session.
    let mut fe = Frontend::new(EngineConfig::p_base());

    // MetaSpace collects a smart-space reading about subject #7 with
    // consent, a purpose, and a retention deadline (the compliance-erase
    // policy Data-CASE's G17 invariant keys on).
    let controller = Session::new(Actor::Controller);
    let metadata = GdprMetadata {
        subject: 7,
        purpose: data_case::core::purpose::well_known::smart_space(),
        ttl: Ts::from_secs(90 * 24 * 3600),
        origin_device: 12,
        objects_to_sharing: false,
    };
    let resp = fe.run(
        &controller,
        Request::Create {
            key: 1,
            payload: b"dev=000012 person=000007 zone=004 ts=000000001000;".to_vec(),
            metadata,
        },
    );
    assert!(resp.is_done());
    println!(
        "collected 1 record (consent capture + policy grants, audit seq {})",
        resp.audit.start
    );

    // The processor reads it under its declared collection purpose —
    // policy-consistent, purpose limitation made explicit at the boundary.
    let processor = Session::new(Actor::Processor)
        .for_purpose(data_case::core::purpose::well_known::smart_space());
    match fe.run(&processor, Request::Read { key: 1 }).outcome {
        Ok(Reply::Value(n)) => println!("processor read {n} bytes (authorised)"),
        other => println!("unexpected: {other:?}"),
    }

    // The subject reads their own data — the subject-access policy path.
    // Requests can also go out in batches; each gets its own response.
    let subject = Session::new(Actor::Subject);
    let batch = vec![Request::Read { key: 1 }, Request::ReadMeta { key: 1 }];
    for r in fe.submit(&subject, &batch) {
        match r.outcome {
            Ok(Reply::Value(n)) => {
                println!("subject request #{} returned {n} bytes", r.index)
            }
            other => println!("unexpected: {other:?}"),
        }
    }

    // The typed error taxonomy at work: a read of a key that was never
    // stored is NotFound — distinct from a policy denial.
    match fe.run(&processor, Request::Read { key: 999 }).outcome {
        Err(EngineError::NotFound { key }) => println!("key {key} was never collected"),
        other => println!("unexpected: {other:?}"),
    }

    // Demonstrate compliance: run the full GDPR invariant catalog over the
    // engine's Data-CASE model (state + action history).
    let report = fe.compliance_report(&Regulation::gdpr());
    println!("\n{}", report.render());
    assert!(report.is_compliant());

    println!(
        "simulated time elapsed: {} | denied ops: {}",
        fe.clock().now(),
        fe.denied()
    );
}
