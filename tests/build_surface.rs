//! Smoke tests for the build surface itself.
//!
//! `cargo test` compiles every example, which proves they *build*; these
//! tests pin the example set and the exact set of `crates/*` members, so a
//! renamed, dropped or added file fails `cargo test` loudly instead of
//! silently changing the built surface, and they hold the workspace to
//! depending on nothing outside itself.

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
fn workspace_members_exist() {
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
    assert!(
        root.join("rust-toolchain.toml").is_file(),
        "rust-toolchain.toml pin missing"
    );
}

/// The workspace builds offline because it depends on nothing outside
/// itself: no vendored stand-in, and no package in the lockfile that is
/// not one of ours.
#[test]
fn no_external_dependency() {
    let root = repo_root();
    assert!(!root.join("vendor").exists(), "vendor/ is back");
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
    let packages: Vec<&str> = lock
        .lines()
        .filter_map(|line| line.strip_prefix("name = \""))
        .map(|rest| rest.trim_end_matches('"'))
        .collect();
    assert!(
        packages.contains(&"data-case"),
        "Cargo.lock lists no data-case"
    );
    let external: Vec<&&str> = packages
        .iter()
        .filter(|name| **name != "data-case" && !name.starts_with("datacase-"))
        .collect();
    assert!(
        external.is_empty(),
        "Cargo.lock lists external packages: {external:?}"
    );
}

/// Every engine source file with its text, found by walking
/// `crates/engine/src`.
fn engine_sources() -> Vec<(PathBuf, String)> {
    rust_sources(vec![repo_root().join("crates/engine/src")])
}

/// Every `.rs` file under `dirs`, with its text.
fn rust_sources(mut dirs: Vec<PathBuf>) -> Vec<(PathBuf, String)> {
    let mut sources = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in entries(&dir) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                sources.push((path, text));
            }
        }
    }
    sources
}

fn is_file(path: &Path, name: &str) -> bool {
    path.file_name().is_some_and(|n| n == name)
}

/// The engine records an action in one place: `Model::record` appends
/// its chained audit record, which the history is read off (`Model::deny`
/// logs a denial). A `LogRecord` built, or a logger appended to, anywhere
/// else in the engine would be a second write path past the one the
/// checker audits.
#[test]
fn audit_records_are_written_only_by_the_model() {
    let mut offenders = Vec::new();
    for (path, text) in engine_sources() {
        if is_file(&path, "model.rs") {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            if line.contains("LogRecord {") || line.contains(".log(") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "audit records written outside model.rs:\n{}",
        offenders.join("\n")
    );
}

/// The engine erases in one place: the erasure executor (`erasure.rs`)
/// runs every erasure plan, so it alone hides, deletes, purges, redacts,
/// sanitises or ends an erasure. `model.rs` defines the epilogue, and the
/// enforcement-bypassing `Forensic` hatch in `frontend.rs` is exempt.
#[test]
fn erasures_are_executed_only_by_the_executor() {
    const CALLS: &[&str] = &[
        "set_hidden(",
        ".delete(",
        "purge_unit(",
        "redact_unit(",
        "sanitize(",
        "finish_erasure(",
    ];
    let mut offenders = Vec::new();
    for (path, text) in engine_sources() {
        if is_file(&path, "erasure.rs") || is_file(&path, "model.rs") {
            continue;
        }
        let mut in_hatch = false;
        for (i, line) in text.lines().enumerate() {
            in_hatch |= is_file(&path, "frontend.rs") && line.starts_with("impl Forensic");
            if !in_hatch && CALLS.iter().any(|call| line.contains(call)) {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
            in_hatch &= line != "}";
        }
    }
    assert!(
        offenders.is_empty(),
        "erasure steps run outside erasure.rs:\n{}",
        offenders.join("\n")
    );
}

/// Idle time passes in one place: `Frontend::advance_to` stops the clock
/// at every retention deadline on the way and drains the units due there.
/// A raw `SimClock::advance_to` anywhere else in the program (every crate,
/// the umbrella crate, the examples; test code and `tests/` are exempt)
/// would let a deadline pass with its unit still live.
#[test]
fn idle_time_passes_only_through_the_retention_drain() {
    let root = repo_root();
    let mut dirs = vec![root.join("src"), root.join("examples")];
    dirs.extend(
        CRATES
            .iter()
            .map(|krate| root.join("crates").join(krate).join("src")),
    );
    let mut offenders = Vec::new();
    for (path, text) in rust_sources(dirs) {
        let mut in_advance = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim() == "#[cfg(test)]" {
                break;
            }
            in_advance |= is_file(&path, "frontend.rs") && line.contains("pub fn advance_to(");
            let raw = line.contains("clock().advance_to(") || line.contains("clock.advance_to(");
            if raw && !in_advance {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
            in_advance &= line != "    }";
        }
    }
    assert!(
        offenders.is_empty(),
        "the clock advanced outside Frontend::advance_to:\n{}",
        offenders.join("\n")
    );
}

/// The history is kept in one place: the audit log's records, which the
/// checker reads through the `History` view `crates/audit/src/loggers.rs`
/// implements. Core's fixture impl over a `Vec` of tuples is the one
/// other. A further impl anywhere in the program, the examples or the
/// tests would be a second, unchained store of what happened.
#[test]
fn the_history_is_stored_only_by_the_audit_log() {
    let implements =
        |line: &str| line.trim_start().starts_with("impl") && line.contains("History for ");
    let root = repo_root();
    let mut dirs = vec![root.join("src"), root.join("examples"), root.join("tests")];
    dirs.extend(
        CRATES
            .iter()
            .map(|krate| root.join("crates").join(krate).join("src")),
    );
    let mut offenders = Vec::new();
    for (path, text) in rust_sources(dirs) {
        let allowed = path.starts_with(root.join("crates/core"))
            || path == root.join("crates/audit/src/loggers.rs");
        for (i, line) in text.lines().enumerate() {
            if implements(line) && !allowed {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a history store outside the audit log:\n{}",
        offenders.join("\n")
    );
}

/// One request vocabulary and one door. Requests are executed in two
/// places: `Frontend::submit`, which `Frontend::run` wraps, and the
/// concurrent engine's shard worker, which owns a `Frontend` per shard. A
/// third caller of `exec::execute` would be a second way in past the
/// frontend's contract. The generators emit `Request` itself, so a second
/// operation enum, or a `submit_ops` converting one, must not come back.
#[test]
fn requests_have_one_vocabulary_and_one_door() {
    let root = repo_root();
    let mut dirs = vec![root.join("src")];
    dirs.extend(
        CRATES
            .iter()
            .map(|krate| root.join("crates").join(krate).join("src")),
    );
    let mut offenders = Vec::new();
    for (path, text) in rust_sources(dirs) {
        let mut door = None;
        for (i, line) in text.lines().enumerate() {
            if is_file(&path, "frontend.rs") && line.contains("pub fn submit(") {
                door = Some("    }");
            } else if is_file(&path, "concurrent.rs") && line.starts_with("fn shard_loop(") {
                door = Some("}");
            }
            let executes = line.contains("exec::execute(") && door.is_none();
            if executes || line.contains("enum Op ") || line.contains("fn submit_ops(") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
            if door == Some(line) {
                door = None;
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a second request vocabulary or a second door into execution:\n{}",
        offenders.join("\n")
    );
}

/// No forwarding layers. The audit log is one type in three formats and
/// the engine holds its enforcer bare; the former logger and wrapper names
/// survive only as bridges in their defining files. A caller naming one
/// elsewhere (or boxing the log as `dyn AuditLogger` again), or the
/// shared core the three logger types once forwarded to, would bring a
/// layer back. The same holds for the tuple vault's keystream-cache
/// bridges: the vault keeps no cache, and a caller of either would
/// be calling a no-op. And the metadata table and Sieve FGAC are one
/// policy table whose mechanism is data: exactly two types implement
/// `PolicyEnforcer`, RBAC and that table, and the two mechanisms' former
/// type names are bridges to it.
#[test]
fn the_log_and_the_enforcer_have_no_forwarding_layers() {
    const BRIDGES: &[(&str, &str)] = &[
        ("dyn AuditLogger", "crates/audit/src/loggers.rs"),
        ("CsvRowLogger", "crates/audit/src/loggers.rs"),
        ("FullQueryLogger", "crates/audit/src/loggers.rs"),
        ("EncryptedLogger", "crates/audit/src/loggers.rs"),
        ("VersionedEnforcer", "crates/policy/src/enforcer.rs"),
        ("FgacConfig", "crates/policy/src/fgac.rs"),
        ("FgacEnforcer", "crates/policy/src/fgac.rs"),
        ("MetaTableEnforcer", "crates/policy/src/metatable.rs"),
        ("keystream_apply", "crates/crypto/src/vault.rs"),
        ("with_keystream_cache", "crates/crypto/src/vault.rs"),
    ];
    let root = repo_root();
    let this = root.join("tests/build_surface.rs");
    let mut dirs = vec![root.join("src"), root.join("examples"), root.join("tests")];
    dirs.extend(
        CRATES
            .iter()
            .map(|krate| root.join("crates").join(krate).join("src")),
    );
    let mut offenders = Vec::new();
    let mut enforcers = BTreeSet::new();
    for (path, text) in rust_sources(dirs) {
        if path == this {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            let named = BRIDGES
                .iter()
                .any(|(name, home)| line.contains(name) && path != root.join(home));
            if named || line.contains("struct LogCore") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
            let implemented = line.trim_start().starts_with("impl");
            if let Some((_, implementor)) = line.split_once("PolicyEnforcer for ") {
                if implemented {
                    enforcers.insert(implementor.trim_end_matches(" {").to_string());
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a forwarding layer is back:\n{}",
        offenders.join("\n")
    );
    assert_eq!(
        enforcers,
        BTreeSet::from(["PolicyTable".to_string(), "RbacEnforcer".to_string()]),
        "a second unit-scoped enforcer is back beside the policy table"
    );
}
