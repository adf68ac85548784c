//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [--quick] [fig1|table1|fig3|fig4a|fig4b|fig4c|table2|backends|invariants|ablations|chaos|checks|all]...
//! ```
//!
//! No target (or `all`) runs everything; an unknown target or flag
//! prints the usage line on stderr and exits with code 2.
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

#![forbid(unsafe_code)]

use datacase_bench::figures::{self, Scale};

/// Every target, in the order `all` prints them.
const TARGETS: [&str; 12] = [
    "fig1",
    "table1",
    "fig3",
    "fig4a",
    "fig4b",
    "fig4c",
    "table2",
    "backends",
    "invariants",
    "ablations",
    "chaos",
    "checks",
];

/// A parsed command line: the scale flag and the selected targets.
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    targets: Vec<&'static str>,
}

/// Parse the arguments after the program name. No target, or `all`
/// among them, selects every target; the error is the offending
/// argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut quick = false;
    let mut all = false;
    let mut targets = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "all" => all = true,
            name => match TARGETS.iter().find(|t| **t == name) {
                Some(target) => targets.push(*target),
                None => return Err(arg.clone()),
            },
        }
    }
    if all || targets.is_empty() {
        targets = TARGETS.to_vec();
    }
    Ok(Args { quick, targets })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { quick, targets } = parse_args(&args).unwrap_or_else(|bad| {
        eprintln!("repro: unknown argument `{bad}`");
        eprintln!("usage: repro [--quick] [{}|all]...", TARGETS.join("|"));
        std::process::exit(2);
    });
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let want = |name: &str| targets.contains(&name);
    // `checks` reads the series of fig4a, fig4b and table2: kept here so
    // each is computed at most once per invocation.
    let (mut fig4a, mut fig4b, mut table2) = (None, None, None);

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
        let (table, series) = figures::fig4a(scale);
        println!("{}", table.render_text());
        println!("{}", figures::fig4a_delete_only(scale).render_text());
        fig4a = Some(series);
    }
    if want("fig4b") {
        let (table, raw) = figures::fig4b(scale);
        println!("{}", table.render_text());
        fig4b = Some(raw);
    }
    if want("fig4c") {
        let (table, _) = figures::fig4c(scale);
        println!("{}", table.render_text());
    }
    if want("table2") {
        let (table, spaces) = figures::table2(scale);
        println!("{}", table.render_text());
        table2 = Some(spaces);
    }
    if want("backends") {
        println!("{}", figures::backend_matrix(scale).render_text());
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
        let fig4a = fig4a.unwrap_or_else(|| figures::fig4a(scale).1);
        let fig4b = fig4b.unwrap_or_else(|| figures::fig4b(scale).1);
        let table2 = table2.unwrap_or_else(|| figures::table2(scale).1);
        let mut all_ok = true;
        for (name, ok) in figures::shape_checks(&fig4a, &fig4b, &table2) {
            println!("  [{}] {}", if ok { "PASS" } else { "FAIL" }, name);
            all_ok &= ok;
        }
        println!();
        if !all_ok {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_selects_named_targets_and_rejects_unknown_ones() {
        let picked = parse(&["--quick", "fig4b", "table2"]).expect("valid targets");
        assert_eq!(
            picked,
            Args {
                quick: true,
                targets: vec!["fig4b", "table2"]
            }
        );
        // Nothing named, or `all` anywhere, selects every target.
        let everything = Args {
            quick: false,
            targets: TARGETS.to_vec(),
        };
        assert_eq!(parse(&[]), Ok(everything));
        assert_eq!(
            parse(&["fig1", "all"]).expect("all is valid").targets,
            TARGETS
        );
        // A retired harness name or a mistyped flag is an error naming
        // the argument, never an empty run that exits 0.
        assert_eq!(parse(&["crypto"]), Err("crypto".into()));
        assert_eq!(parse(&["fig1", "--quik"]), Err("--quik".into()));
    }
}
