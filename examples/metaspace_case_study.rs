//! Case Study 1 (paper §4.1): MetaSpace wants strong erasure semantics
//! for G17 and uses Data-CASE to pick an interpretation its PSQL-style
//! engine can afford — by benchmarking the groundings on its own customer
//! workload (20 % deletes, 80 % reads).
//!
//! ```sh
//! cargo run --release --example metaspace_case_study
//! ```

use data_case::engine::driver::run_ops;
use data_case::engine::erasure::describe;
use data_case::prelude::*;
use data_case::workloads::gdprbench::{GdprBench, Mix};

fn main() {
    let records = 10_000usize;
    let txns = 5_000usize;
    println!(
        "MetaSpace customer workload: {records} records, {txns} txns (20% deletes / 80% reads)\n"
    );

    let stock = EngineConfig::stock(DeleteStrategy::DeleteVacuum);
    println!("candidate groundings (Table 1):");
    for interp in ErasureInterpretation::ALL {
        println!("  {:<24} -> {}", interp.label(), describe(&stock, interp));
    }
    println!();

    let mut results = Vec::new();
    for strategy in DeleteStrategy::ALL {
        let mut config = EngineConfig::stock(strategy);
        config.maintenance_every = (txns as u64 / 35).max(20);
        config.heap.buffer_pages = (records / 390).max(32);
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(777, 1000);
        fe.submit(&Session::new(Actor::Controller), &bench.load_phase(records));
        let ops = bench.ops(txns, Mix::fig4a_customer());
        let stats = run_ops(&mut fe, &ops, Actor::Subject);
        let storage = fe.backend_stats();
        println!(
            "{:<24} completion={:>8}   dead-tuples-left={:<6} pages={}",
            strategy.label(),
            format!("{}", stats.simulated),
            storage.dead_entries,
            storage.segments,
        );
        results.push((strategy, stats.simulated));
    }

    results.sort_by_key(|(_, d)| *d);
    println!(
        "\ndecision: '{}' is the cheapest grounding that still achieves\n\
         physical deletion on this workload — the 'surprising' Figure 4a\n\
         result (VACUUM's cost is repaid by the other 80% of operations).",
        results
            .iter()
            .map(|(s, _)| *s)
            .find(|s| *s == DeleteStrategy::DeleteVacuum)
            .map(|s| s.label())
            .unwrap_or("DELETE + VACUUM")
    );
}
