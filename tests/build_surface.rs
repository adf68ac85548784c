//! Smoke tests for the build surface itself.
//!
//! `cargo build --examples` and `cargo bench --no-run` (both run in CI)
//! prove the example and bench targets *compile*; these tests guard the
//! declarations those commands depend on, so a renamed file or a dropped
//! `[[bench]]` entry fails `cargo test` loudly instead of silently
//! shrinking the built surface.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rs_stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect()
}

const EXAMPLES: &[&str] = &[
    "compliance_by_construction",
    "metaspace_case_study",
    "multinational",
    "policy_audit",
    "quickstart",
    "right_to_be_forgotten",
    "served_engine",
];

const BENCHES: &[&str] = &[
    "ablation_crypto_erasure",
    "ablation_lsm_retention",
    "ablation_policy_index",
    "ablation_vacuum_period",
    "backend_matrix",
    "fig4a_erasure_interpretations",
    "fig4b_profiles",
    "fig4c_scalability",
    "micro_substrates",
    "table1_erasure_actions",
    "table2_space_factor",
];

#[test]
fn all_examples_present() {
    let found = rs_stems(&repo_root().join("examples"));
    let expected: BTreeSet<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "examples/ drifted from the documented example set; update \
         tests/build_surface.rs and the README together"
    );
}

#[test]
fn all_bench_targets_present_and_declared() {
    let root = repo_root();
    let found = rs_stems(&root.join("crates/bench/benches"));
    let expected: BTreeSet<String> = BENCHES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "crates/bench/benches/ drifted from the documented bench set"
    );

    // Criterion targets must opt out of libtest's harness, or
    // `cargo bench` fails at runtime even though `--no-run` compiles.
    // Parse per-[[bench]] sections rather than substring-matching the whole
    // manifest, so [[bin]] entries and comments can't satisfy the check.
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml"))
        .expect("crates/bench/Cargo.toml");
    let declared: BTreeSet<String> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|section| {
            let name = section
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .and_then(|rest| rest.strip_suffix('"'))
                .expect("[[bench]] section without a name")
                .to_string();
            let harness_off = section.lines().any(|l| l.trim() == "harness = false");
            assert!(harness_off, "[[bench]] {name} is missing harness = false");
            name
        })
        .collect();
    assert_eq!(
        declared, expected,
        "[[bench]] declarations drifted from the bench files on disk"
    );
}

#[test]
fn workspace_members_and_vendored_deps_exist() {
    let root = repo_root();
    for krate in [
        "audit",
        "bench",
        "core",
        "crypto",
        "engine",
        "policy",
        "server",
        "sim",
        "storage",
        "workloads",
    ] {
        let manifest = root.join("crates").join(krate).join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "missing manifest {}",
            manifest.display()
        );
    }
    // The offline build depends on these in-tree stand-ins resolving; see
    // [workspace.dependencies] in the root manifest.
    for dep in ["bytes", "criterion", "proptest", "rand"] {
        let manifest = root.join("vendor").join(dep).join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "missing vendored dep {}",
            manifest.display()
        );
    }
    assert!(
        root.join("rust-toolchain.toml").is_file(),
        "rust-toolchain.toml pin missing"
    );
}
