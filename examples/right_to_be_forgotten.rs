//! The right to be forgotten, under all four groundings of "erase" —
//! on *both* storage backends.
//!
//! A subject requests erasure (GDPR Art. 17). The same request is executed
//! under each interpretation on a fresh engine — once over the
//! PostgreSQL-style heap and once over the Cassandra-style LSM tree — and
//! after each one the forensic scanner reports what a seized disk would
//! still reveal. Table 1 and Figure 3, live, with the paper's claim that
//! groundings hold independently of the underlying system made visible:
//! the residual *mechanics* differ per backend (dead tuples and WAL
//! records vs shadowed run entries), but the grounded *properties* agree.
//!
//! Everything compliant goes through sessions (`Request::Erase` /
//! `Request::Restore`); only the seized-disk simulation uses the
//! clearly-marked forensic guard.
//!
//! ```sh
//! cargo run --release --example right_to_be_forgotten
//! ```

use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::core::timeline::ErasureTimeline;
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;

const PAYLOAD: &[u8] = b"SUBJECT-42-LOCATION-TRACE-SENSITIVE";

fn fresh_frontend(backend: BackendKind) -> Frontend {
    let mut config = EngineConfig::p_sys().with_backend(backend);
    config.tuple_encryption = None; // keep bytes visible so forensics bite
    let mut fe = Frontend::new(config);
    let metadata = GdprMetadata {
        subject: 42,
        purpose: data_case::core::purpose::well_known::smart_space(),
        ttl: Ts::from_secs(90 * 24 * 3600),
        origin_device: 3,
        objects_to_sharing: false,
    };
    let r = fe.run(
        &Session::new(Actor::Controller),
        Request::Create {
            key: 1,
            payload: PAYLOAD.to_vec(),
            metadata,
        },
    );
    assert!(r.is_done());
    // A derived analytics mirror — identifying and invertible — so the
    // illegal-inference property has something to find. Planting it is a
    // forensic-guard action: it models data copied outside the request
    // path.
    let unit = fe.unit_of_key(1).expect("created");
    fe.forensic()
        .plant_derived(&[unit], "analytics-mirror", true, true, PAYLOAD, 2);
    // Data at rest before the request arrives (flushed pages / runs).
    fe.forensic().checkpoint();
    fe
}

fn main() {
    let controller = Session::new(Actor::Controller);
    for interp in ErasureInterpretation::ALL {
        println!("== erase as: {interp} ==");
        for backend in BackendKind::ALL {
            let mut fe = fresh_frontend(backend);
            assert!(fe
                .run(
                    &controller,
                    Request::Erase {
                        key: 1,
                        interpretation: interp,
                    },
                )
                .outcome
                .is_ok());

            let read_back = fe
                .run(&Session::new(Actor::Processor), Request::Read { key: 1 })
                .outcome;
            let findings = fe.forensic().scan(PAYLOAD);
            println!(
                "   [{:<4}] read-after-erase: {read_back:?}",
                backend.label()
            );
            println!(
                "   [{:<4}] forensic residuals: {} ({})",
                backend.label(),
                findings.total(),
                findings.describe()
            );
            let restored = fe
                .run(&controller, Request::Restore { key: 1 })
                .outcome
                .is_ok();
            println!(
                "   [{:<4}] restore attempt: {restored} ({})",
                backend.label(),
                if interp == ErasureInterpretation::ReversiblyInaccessible {
                    "this grounding is invertible"
                } else {
                    "irreversible"
                }
            );
        }
        println!();
    }

    // Figure 3: one unit staged through every interpretation over time
    // (heap-backed; the staging is identical on the LSM).
    let mut fe = fresh_frontend(BackendKind::Heap);
    let unit = fe.unit_of_key(1).expect("created");
    let mut stage = |at_secs: u64, interpretation: ErasureInterpretation| {
        fe.advance_to(Ts::from_secs(at_secs));
        fe.run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation,
            },
        );
    };
    stage(3600, ErasureInterpretation::ReversiblyInaccessible);
    stage(7200, ErasureInterpretation::Deleted);
    stage(9000, ErasureInterpretation::StronglyDeleted);
    stage(10800, ErasureInterpretation::PermanentlyDeleted);
    let tl = ErasureTimeline::from_history(fe.history(), unit);
    println!("{}", tl.render());
}
