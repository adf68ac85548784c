//! The right to be forgotten, under all four groundings of "erase" —
//! on *both* storage backends.
//!
//! A subject requests erasure (GDPR Art. 17). Table 1's probe
//! (`probe_on`) executes the same request under each interpretation on a
//! fresh engine — once over the PostgreSQL-style heap and once over the
//! Cassandra-style LSM tree — with an identifying derived copy of the
//! subject's record in place, then measures what an illegal read, an
//! inference and a restore still achieve, and what the forensic scanner
//! finds on a seized disk. The example asserts that every measurement is
//! Table 1's, making the paper's claim that groundings hold independently
//! of the underlying system visible: the plans and residual *mechanics*
//! differ per backend (dead tuples, WAL records and drive remanence vs
//! shadowed run entries), but the grounded *properties* agree. Figure 3
//! follows, live.
//!
//! Everything compliant goes through sessions (`Request::Erase` /
//! `Request::Restore`); only the probe's planted copy and its seized-disk
//! scan use the clearly-marked forensic guard.
//!
//! ```sh
//! cargo run --release --example right_to_be_forgotten
//! ```

use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::core::grounding::properties::ErasureProperties;
use data_case::core::timeline::ErasureTimeline;
use data_case::engine::erasure::describe;
use data_case::engine::{probe_config, probe_on};
use data_case::prelude::*;
use data_case::storage::backend::BackendKind;

const PAYLOAD: &[u8] = b"SUBJECT-42-LOCATION-TRACE-SENSITIVE";

fn main() {
    for interp in ErasureInterpretation::ALL {
        println!("== erase as: {interp} ==");
        for backend in BackendKind::ALL {
            let config = probe_config(backend);
            let probe = probe_on(&config, interp);
            let [ir, ii, inv] = probe.measured.cells();
            let label = backend.label();
            println!("   [{label:<4}] plan: {}", describe(&config, interp));
            println!("   [{label:<4}] measured IR {ir}  II {ii}  Inv {inv}");
            println!(
                "   [{label:<4}] forensic residuals: {} ({})",
                probe.residuals.total(),
                probe.residuals.describe()
            );
            assert!(
                probe.matches_expected(),
                "{label}/{interp}: Table 1 says {:?}",
                ErasureProperties::expected(interp).cells()
            );
        }
        println!();
    }

    // Figure 3: one unit staged through every interpretation over time
    // (heap-backed; the staging is identical on the LSM).
    let controller = Session::new(Actor::Controller);
    let mut fe = Frontend::new(probe_config(BackendKind::Heap));
    let metadata = GdprMetadata {
        subject: 42,
        purpose: data_case::core::purpose::well_known::smart_space(),
        ttl: Ts::from_secs(90 * 24 * 3600),
        origin_device: 3,
        objects_to_sharing: false,
    };
    let create = Request::Create {
        key: 1,
        payload: PAYLOAD.to_vec(),
        metadata,
    };
    assert!(fe.run(&controller, create).is_done());
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
