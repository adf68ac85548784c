#![warn(missing_docs)]
//! # datacase-bench
//!
//! The paper's record: the harness that regenerates every table and
//! figure of its evaluation (§4), plus five ablations and the shape
//! checks that restate its claims. Each experiment is a pure function
//! returning a rendered [`datacase_sim::report::Table`] (and raw series
//! for plotting) in *simulated* time; the `repro` binary prints them.
//! Wall-clock performance is measured elsewhere — `benchmark/` +
//! `BENCHMARK.json`.

pub mod figures;

pub use figures::*;
