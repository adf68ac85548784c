//! The environment block and the noise flag.
//!
//! Every output says what it ran on, and brackets the workload with a
//! fixed compute kernel: a box that is busy with something else shows up
//! as a slow calibration, and the run is *flagged* — reported as
//! `"noisy": true`, never discarded or retried.

use std::process::Command;
use std::time::Instant;

use datacase_crypto::backend::{cpu_features, CryptoBackend};
use datacase_crypto::sha256::Sha256;

use crate::json::Json;

/// Calibration kernel time on the reference box (2 vCPUs, AES-NI), ms:
/// the median over the reference runs recorded in `reference.json`.
pub const CALIB_REFERENCE_MS: f64 = 4.2;
/// A calibration this far from the reference marks the run noisy.
pub const CALIB_TOLERANCE: f64 = 0.10;
const CALIB_BYTES: usize = 64 << 10;
const CALIB_PASSES: usize = 16;
const CALIB_REPS: usize = 9;

/// Time the fixed kernel: SHA-256 [`CALIB_PASSES`] times over a 64 KiB
/// pattern — single-threaded, cache-resident, no syscalls. The median
/// of [`CALIB_REPS`] repetitions, so one hiccup of the box does not flag
/// a run and a box that is slow throughout does.
pub fn calibrate() -> f64 {
    let buf: Vec<u8> = (0..CALIB_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let reps: Vec<f64> = (0..CALIB_REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..CALIB_PASSES {
                std::hint::black_box(Sha256::digest(std::hint::black_box(&buf)));
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&reps).expect("calibration ran")
}

/// Is a calibration pair outside the tolerance around the reference?
pub fn noisy(before_ms: f64, after_ms: f64) -> bool {
    [before_ms, after_ms]
        .iter()
        .any(|ms| (ms - CALIB_REFERENCE_MS).abs() / CALIB_REFERENCE_MS > CALIB_TOLERANCE)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment block: what the numbers below it were measured on.
pub fn block(
    seed: u64,
    stream_hash: &str,
    calib_before: f64,
    calib_after: f64,
    steal_ticks: u64,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<Json> = cpu_features()
        .into_iter()
        .filter(|(_, detected)| *detected)
        .map(|(name, _)| Json::from(name))
        .collect();
    Json::obj()
        .set("nproc", nproc)
        .set("crypto_backend", CryptoBackend::Auto.resolve().label())
        .set("cpu_features", features)
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        // A driver checkout is not a git repository: then there is no
        // commit to name.
        .set(
            "git_commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "none".into()),
        )
        .set("seed", seed)
        .set("stream_hash", stream_hash)
        .set("calib_ms_before", calib_before)
        .set("calib_ms_after", calib_after)
        .set("calib_ms_reference", CALIB_REFERENCE_MS)
        // What the hypervisor took from the guest during the measured
        // phases (10 ms ticks, all CPUs): on a shared host, the first
        // thing to look at when a run reads slow.
        .set("steal_ticks", steal_ticks)
        .set("noisy", noisy(calib_before, calib_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_flag_trips_outside_ten_percent() {
        assert!(!noisy(CALIB_REFERENCE_MS, CALIB_REFERENCE_MS * 1.09));
        assert!(noisy(CALIB_REFERENCE_MS, CALIB_REFERENCE_MS * 1.11));
        assert!(noisy(CALIB_REFERENCE_MS * 0.85, CALIB_REFERENCE_MS));
    }
}
