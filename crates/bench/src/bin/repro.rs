//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [--quick] [fig1|fig3|fig4a|fig4b|fig4c|table1|table2|backends|crypto|mt|server|invariants|ablations|checks|chaos|all]
//! ```
//!
//! `crypto` additionally writes the crypto-substrate before/after
//! throughput plus encrypted-profile wall times to
//! `BENCH_crypto.json`, `mt` writes the concurrent-engine
//! multi-session scaling cells to `BENCH_mt.json`, and `server` writes
//! the served-engine clients × tenants × backend wire-throughput cells
//! to `BENCH_server.json` (the repo's wall-clock perf trajectory).
//!
//! `--quick` divides record/transaction counts by 10 (useful for smoke
//! runs); the default is paper-faithful sizes (100k records, 10k txns,
//! 10k–70k txn sweep, 100k–500k record sweep).
//!
//! `chaos` runs the deterministic chaos matrix (seeded scenarios ×
//! backends × named crash points, recover-and-compare against a serial
//! oracle) and exits non-zero if any recovery grounding is breached;
//! with `--quick` it crashes at the first hit of each reachable point
//! only.

use datacase_bench::figures::{self, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = targets.is_empty() || targets.contains(&"all");
    let want = |name: &str| all || targets.contains(&name);

    println!("Data-CASE reproduction harness (scale = 1/{})\n", scale.0);

    if want("fig1") {
        println!("{}", figures::fig1().render_text());
    }
    if want("table1") {
        println!("{}", figures::table1().render_text());
    }
    if want("fig3") {
        let (rendered, _) = figures::fig3();
        println!("== Figure 3 — data erasure timeline ==\n{rendered}");
    }
    if want("fig4a") {
        let (table, _) = figures::fig4a(scale);
        println!("{}", table.render_text());
        println!("{}", figures::fig4a_delete_only(scale).render_text());
    }
    if want("fig4b") {
        let (table, _) = figures::fig4b(scale);
        println!("{}", table.render_text());
    }
    if want("fig4c") {
        let (table, _) = figures::fig4c(scale);
        println!("{}", table.render_text());
    }
    if want("table2") {
        let (table, _) = figures::table2(scale);
        println!("{}", table.render_text());
    }
    if want("backends") {
        println!("{}", figures::backend_matrix(scale).render_text());
    }
    if want("crypto") {
        // Log what the runtime dispatcher picked so every recorded run
        // is attributable to the silicon it measured.
        println!(
            "crypto backend: Auto resolves to \"{}\" on this host (hardware AES {})\n",
            datacase_crypto::CryptoBackend::Auto.resolve(),
            if datacase_crypto::CryptoBackend::hardware_available() {
                "detected"
            } else {
                "not detected"
            }
        );
        let (micro, e2e_table, points, e2e) = figures::crypto_matrix(scale);
        println!("{}", micro.render_text());
        println!("{}", e2e_table.render_text());
        let json = figures::crypto_json(&points, &e2e, scale);
        match std::fs::write("BENCH_crypto.json", &json) {
            Ok(()) => println!(
                "wrote BENCH_crypto.json ({} substrates, {} end-to-end cells)\n",
                points.len(),
                e2e.len()
            ),
            Err(e) => println!("could not write BENCH_crypto.json: {e}\n"),
        }
    }
    if want("mt") {
        let (table, points) = figures::mt_matrix(scale);
        println!("{}", table.render_text());
        let json = figures::mt_json(&points, scale);
        match std::fs::write("BENCH_mt.json", &json) {
            Ok(()) => println!("wrote BENCH_mt.json ({} cells)\n", points.len()),
            Err(e) => println!("could not write BENCH_mt.json: {e}\n"),
        }
    }
    if want("server") {
        let (table, points) = figures::server_matrix(scale);
        println!("{}", table.render_text());
        let json = figures::server_json(&points, scale);
        match std::fs::write("BENCH_server.json", &json) {
            Ok(()) => println!("wrote BENCH_server.json ({} cells)\n", points.len()),
            Err(e) => println!("could not write BENCH_server.json: {e}\n"),
        }
    }
    if want("invariants") {
        let (clean, dirty) = figures::invariants_demo();
        println!("{}", clean.render());
        println!("After injecting an unauthorised read into the history:\n");
        println!("{}", dirty.render());
        for v in dirty.violations.iter().take(3) {
            println!("  {v}");
        }
        println!();
    }
    if want("ablations") {
        println!("{}", figures::ablation_policy_index(scale).render_text());
        println!("{}", figures::ablation_vacuum_period(scale).render_text());
        println!("{}", figures::ablation_lsm_retention().render_text());
        println!("{}", figures::ablation_crypto_erasure(scale).render_text());
        println!("{}", figures::ablation_aes_strength(scale).render_text());
    }
    if want("chaos") {
        println!("== Chaos matrix (seed 42, crash → recover → oracle) ==");
        let report = datacase_chaos::matrix(&datacase_chaos::MatrixOptions { seed: 42, quick });
        let mut by_cell: std::collections::BTreeMap<String, (usize, usize)> =
            std::collections::BTreeMap::new();
        for row in &report.rows {
            let cell = by_cell
                .entry(format!("{}/{:?}", row.scenario, row.backend))
                .or_default();
            cell.0 += 1;
            cell.1 += usize::from(row.ok);
        }
        for (cell, (runs, ok)) in &by_cell {
            println!("  [{}] {cell}: {ok}/{runs} crash runs recovered clean", {
                if ok == runs {
                    "PASS"
                } else {
                    "FAIL"
                }
            });
        }
        println!(
            "  {} crash runs across {} scenario/backend cells\n",
            report.runs(),
            by_cell.len()
        );
        if !report.failures.is_empty() {
            for failure in &report.failures {
                println!("  BREACH {failure}");
            }
            std::process::exit(1);
        }
    }
    if want("checks") {
        println!("== Shape checks (paper-claim verification) ==");
        let mut all_ok = true;
        for (name, ok) in figures::shape_checks(scale) {
            println!("  [{}] {}", if ok { "PASS" } else { "FAIL" }, name);
            all_ok &= ok;
        }
        println!();
        if !all_ok {
            std::process::exit(1);
        }
    }
}
