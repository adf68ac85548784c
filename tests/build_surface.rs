//! Smoke tests for the build surface itself.
//!
//! `cargo test` compiles every example, which proves they *build*; these
//! tests pin the example set, the workspace members and the vendored
//! stand-ins, so a renamed or dropped file fails `cargo test` loudly
//! instead of silently shrinking the built surface.

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
    for dep in ["bytes", "proptest", "rand"] {
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
