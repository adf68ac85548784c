//! Open-loop served-engine benchmark for the Data-CASE reproduction.
//!
//! ```text
//! datacase-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; last stdout line is the result
//! datacase-benchmark run      [--seed N] [--workload W] [--quick]
//! datacase-benchmark trace    [--seed N] [--workload W] [--quick]
//! datacase-benchmark selftest [--runs K] [--seed N] [--workload W] [--quick]
//!     every workload in a child process of its own
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod env;
mod json;
mod metrics;
mod run;
mod sched;
mod stats;
mod suite;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

use suite::{RunArgs, SuiteArgs, DEFAULT_SECONDS, DEFAULT_SEED};

/// `--flag value` pairs and bare `--quick`, after the optional command.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        Some(
            self.0
                .get(at + 1)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {v}")))
        })
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: datacase-benchmark [run|trace|selftest] [--workload W] [--seed N] \
         [--seconds S] [--trace 0|1] [--quick] [--runs K]\nworkloads: {}",
        workloads::SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => Some(args.remove(0)),
        _ => None,
    };
    let flags = Flags(args);
    let workload = flags.value("--workload").map(|name| {
        workloads::spec(name).unwrap_or_else(|| usage(&format!("unknown workload {name}")))
    });
    let quick = flags.has("--quick");
    let seed = flags.parsed("--seed").unwrap_or(DEFAULT_SEED);
    // `--quick` runs a tenth of the counts.
    let seconds = flags.parsed("--seconds").unwrap_or(if quick {
        DEFAULT_SECONDS / 10.0
    } else {
        DEFAULT_SECONDS
    });
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage("--seconds must be in (0, 60]");
    }
    let suite_args = SuiteArgs {
        workload,
        seed,
        seconds,
    };
    match command.as_deref() {
        None => {
            let trace = match flags.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => usage(&format!("--trace takes 0 or 1, not {other}")),
            };
            suite::single(RunArgs {
                spec: workload.unwrap_or_else(|| usage("--workload is required")),
                seed,
                seconds,
                trace,
            })
        }
        Some("run") => suite::suite(&suite_args, false),
        Some("trace") => suite::suite(&suite_args, true),
        Some("selftest") => suite::selftest(&suite_args, flags.parsed("--runs").unwrap_or(5)),
        Some(other) => usage(&format!("unknown command {other}")),
    }
}
