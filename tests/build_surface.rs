//! Smoke tests for the build surface itself.
//!
//! `cargo test` compiles every example, which proves they *build*; these
//! tests pin the example set, the exact set of `crates/*` members and the
//! vendored stand-in, so a renamed, dropped or added file fails `cargo
//! test` loudly instead of silently changing the built surface.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn entries(dir: &Path) -> impl Iterator<Item = PathBuf> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
}

fn rs_stems(dir: &Path) -> BTreeSet<String> {
    entries(dir)
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect()
}

fn subdirs(dir: &Path) -> BTreeSet<String> {
    entries(dir)
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
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

const CRATES: &[&str] = &[
    "audit",
    "bench",
    "chaos",
    "core",
    "crypto",
    "engine",
    "policy",
    "server",
    "sim",
    "storage",
    "workloads",
];

#[test]
fn workspace_members_and_vendored_deps_exist() {
    let root = repo_root();
    let crates_dir = root.join("crates");
    let expected: BTreeSet<String> = CRATES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        subdirs(&crates_dir),
        expected,
        "crates/ drifted from the documented crate set; update \
         tests/build_surface.rs and the README together"
    );
    for krate in CRATES {
        let manifest = crates_dir.join(krate).join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "missing manifest {}",
            manifest.display()
        );
    }
    // The offline test build depends on the one in-tree stand-in; see
    // [workspace.dependencies] in the root manifest.
    assert_eq!(
        subdirs(&root.join("vendor")),
        BTreeSet::from(["proptest".to_string()]),
        "vendor/ drifted from the one vendored stand-in"
    );
    assert!(
        root.join("vendor/proptest/Cargo.toml").is_file(),
        "missing vendored dep proptest"
    );
    assert!(
        root.join("rust-toolchain.toml").is_file(),
        "rust-toolchain.toml pin missing"
    );
}
