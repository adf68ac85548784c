//! Experiment harness functions, one per paper artifact.

use datacase_core::checker::ComplianceReport;
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::grounding::properties::ErasureProperties;
use datacase_core::grounding::table::{Backend, GroundingTable};
use datacase_core::invariants::full_catalog;
use datacase_core::regulation::Regulation;
use datacase_core::timeline::ErasureTimeline;
use datacase_engine::driver::{run_ops, run_ops_batched, RunStats};
use datacase_engine::erasure::probe;
use datacase_engine::frontend::{Batch, Frontend, Request, Session};
use datacase_engine::profiles::{DeleteStrategy, EngineConfig, ProfileKind};
use datacase_engine::space::SpaceReport;
use datacase_engine::Actor;
use datacase_sim::report::{f3, Table};
use datacase_sim::time::{Dur, Ts};
use datacase_storage::backend::BackendKind;
use datacase_workloads::gdprbench::{GdprBench, Mix};
use datacase_workloads::ycsb::{Ycsb, YcsbWorkload};
use std::time::Instant;

/// Scale knob for quick runs (divides record/txn counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    /// Paper-faithful sizes.
    pub const FULL: Scale = Scale(1);
    /// 10× smaller, for smoke runs and criterion.
    pub const QUICK: Scale = Scale(10);

    fn div(&self, n: u64) -> u64 {
        (n / self.0).max(1)
    }
}

/// One (x, simulated seconds) point of a figure series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// X value (transactions or records).
    pub x: u64,
    /// Simulated completion time in seconds.
    pub secs: f64,
}

/// Buffer-pool sizing used by every experiment: ~15 % of the table, so
/// the cache-pressure regime is the same at every scale (at paper scale,
/// 100k records ≈ 1700 pages vs 256 buffer pages).
fn buffer_pages_for(records: u64) -> usize {
    ((records / 390) as usize).max(32)
}

fn load_db(profile: ProfileKind, records: u64, seed: u64) -> (Frontend, GdprBench) {
    let mut config = EngineConfig::for_profile(profile);
    config.heap.buffer_pages = buffer_pages_for(records);
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(seed, 1000);
    let load = bench.load_phase(records as usize);
    fe.submit_ops(&Session::new(Actor::Controller), &load);
    (fe, bench)
}

// ---------------------------------------------------------------------
// Figure 4a — erasure interpretations in the heap engine, WCus (20 %
// deletes / 80 % reads), completion time vs transaction count.
// ---------------------------------------------------------------------

/// Run one Figure-4a cell. The maintenance period scales with the sweep
/// (≈7 vacuum passes per run at every scale), and the buffer pool with the
/// table, so the shape is scale-invariant.
pub fn fig4a_cell(strategy: DeleteStrategy, records: u64, txns: u64, seed: u64) -> RunStats {
    let mut config = EngineConfig::stock(strategy);
    config.maintenance_every = (txns / 35).max(20);
    config.heap.buffer_pages = buffer_pages_for(records);
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(seed, 1000);
    let load = bench.load_phase(records as usize);
    fe.submit_ops(&Session::new(Actor::Controller), &load);
    let ops = bench.ops(txns as usize, Mix::fig4a_customer());
    run_ops(&mut fe, &ops, Actor::Subject)
}

/// Figure 4a: all four strategies over the transaction sweep.
pub fn fig4a(scale: Scale) -> (Table, Vec<(DeleteStrategy, Vec<SeriesPoint>)>) {
    let records = scale.div(100_000);
    let txn_points: Vec<u64> = [10_000u64, 30_000, 50_000, 70_000]
        .iter()
        .map(|t| scale.div(*t))
        .collect();
    let mut table = Table::new(
        format!("Figure 4a — erasure interpretations on WCus (records={records})"),
        &["strategy", "txns", "completion (sim s)"],
    );
    let mut series = Vec::new();
    for strategy in DeleteStrategy::ALL {
        let mut points = Vec::new();
        for &txns in &txn_points {
            let stats = fig4a_cell(strategy, records, txns, 4242);
            let secs = stats.simulated.as_secs_f64();
            table.row(vec![strategy.label().into(), txns.to_string(), f3(secs)]);
            points.push(SeriesPoint { x: txns, secs });
        }
        series.push((strategy, points));
    }
    (table, series)
}

/// The paper's footnote experiment: on a delete-only workload, plain
/// DELETE beats DELETE+VACUUM (the vacuum cost is not amortised by reads).
pub fn fig4a_delete_only(scale: Scale) -> Table {
    let records = scale.div(50_000);
    let txns = scale.div(10_000);
    let mut table = Table::new(
        format!("Figure 4a (note) — delete-only workload (records={records}, txns={txns})"),
        &["strategy", "completion (sim s)"],
    );
    for strategy in [DeleteStrategy::DeleteOnly, DeleteStrategy::DeleteVacuum] {
        let mut config = EngineConfig::stock(strategy);
        config.maintenance_every = 1000;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(7, 1000);
        fe.submit_ops(
            &Session::new(Actor::Controller),
            &bench.load_phase(records as usize),
        );
        let ops = bench.ops(txns as usize, Mix::delete_only());
        let stats = run_ops(&mut fe, &ops, Actor::Subject);
        table.row(vec![
            strategy.label().into(),
            f3(stats.simulated.as_secs_f64()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Figure 4b — profiles × workloads (100k records, 10k txns).
// ---------------------------------------------------------------------

/// Named GDPRBench/YCSB workload selector for 4b/4c.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// GDPRBench processor.
    WPro,
    /// GDPRBench controller.
    WCon,
    /// GDPRBench customer.
    WCus,
    /// YCSB workload C.
    YcsbC,
}

impl BenchWorkload {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            BenchWorkload::WPro => "WPro",
            BenchWorkload::WCon => "WCon",
            BenchWorkload::WCus => "WCus",
            BenchWorkload::YcsbC => "YCSB-C",
        }
    }

    /// The actor issuing this workload.
    pub fn actor(self) -> Actor {
        match self {
            BenchWorkload::WPro => Actor::Processor,
            BenchWorkload::WCon => Actor::Controller,
            BenchWorkload::WCus => Actor::Subject,
            BenchWorkload::YcsbC => Actor::Processor,
        }
    }

    /// All four, figure order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::WPro,
        BenchWorkload::WCon,
        BenchWorkload::WCus,
        BenchWorkload::YcsbC,
    ];
}

/// Run one (profile, workload) cell of Figure 4b/4c.
///
/// The reported completion time covers **load + transaction phase**, as
/// the paper's "each with 100k records and 10k transactions" completion
/// figures do.
pub fn profile_cell(
    profile: ProfileKind,
    workload: BenchWorkload,
    records: u64,
    txns: u64,
    seed: u64,
) -> (RunStats, Frontend) {
    match workload {
        BenchWorkload::YcsbC => {
            let mut config = EngineConfig::for_profile(profile);
            config.heap.buffer_pages = buffer_pages_for(records);
            let mut fe = Frontend::new(config);
            let mut y = Ycsb::new(seed, records);
            let mut all_ops = y.load_phase();
            all_ops.extend(y.ops(txns as usize, YcsbWorkload::C));
            let stats = run_ops(&mut fe, &all_ops, workload.actor());
            (stats, fe)
        }
        gdpr => {
            let mut config = EngineConfig::for_profile(profile);
            config.heap.buffer_pages = buffer_pages_for(records);
            let mut fe = Frontend::new(config);
            let mut bench = GdprBench::new(seed, 1000);
            let mix = match gdpr {
                BenchWorkload::WPro => Mix::wpro(),
                BenchWorkload::WCon => Mix::wcon(),
                _ => Mix::wcus(),
            };
            let mut all_ops = bench.load_phase(records as usize);
            all_ops.extend(bench.ops(txns as usize, mix));
            let stats = run_ops(&mut fe, &all_ops, workload.actor());
            (stats, fe)
        }
    }
}

/// Figure 4b: completion time for every workload × profile.
pub fn fig4b(scale: Scale) -> (Table, Vec<(BenchWorkload, ProfileKind, f64)>) {
    let records = scale.div(100_000);
    let txns = scale.div(10_000);
    let mut table = Table::new(
        format!("Figure 4b — completion time (records={records}, txns={txns})"),
        &[
            "workload",
            "P_Base (sim min)",
            "P_GBench (sim min)",
            "P_SYS (sim min)",
        ],
    );
    let mut raw = Vec::new();
    for workload in BenchWorkload::ALL {
        let mut cells = vec![workload.label().to_string()];
        for profile in ProfileKind::PAPER {
            let (stats, _) = profile_cell(profile, workload, records, txns, 99);
            let mins = stats.simulated.as_mins_f64();
            raw.push((workload, profile, mins));
            cells.push(f3(mins));
        }
        table.row(cells);
    }
    (table, raw)
}

// ---------------------------------------------------------------------
// Figure 4c — scalability in record count (WCus lines, YCSB-C bars).
// ---------------------------------------------------------------------

/// Figure 4c: completion vs record count at fixed 10k txns.
pub fn fig4c(scale: Scale) -> (Table, Vec<(BenchWorkload, ProfileKind, Vec<SeriesPoint>)>) {
    let txns = scale.div(10_000);
    let record_points: Vec<u64> = [100_000u64, 200_000, 300_000, 400_000, 500_000]
        .iter()
        .map(|r| scale.div(*r))
        .collect();
    let mut table = Table::new(
        format!("Figure 4c — scalability (txns={txns})"),
        &["workload", "profile", "records", "completion (sim min)"],
    );
    let mut raw = Vec::new();
    for workload in [BenchWorkload::WCus, BenchWorkload::YcsbC] {
        for profile in ProfileKind::PAPER {
            let mut points = Vec::new();
            for &records in &record_points {
                let (stats, _) = profile_cell(profile, workload, records, txns, 17);
                let mins = stats.simulated.as_mins_f64();
                table.row(vec![
                    workload.label().into(),
                    profile.label().into(),
                    records.to_string(),
                    f3(mins),
                ]);
                points.push(SeriesPoint {
                    x: records,
                    secs: mins * 60.0,
                });
            }
            raw.push((workload, profile, points));
        }
    }
    (table, raw)
}

// ---------------------------------------------------------------------
// Backend matrix — the same GDPRBench mix over every point of the
// ProfileKind × BackendKind × DeleteStrategy space.
// ---------------------------------------------------------------------

/// Run one (profile, backend, delete-strategy) cell on the GDPRBench
/// customer mix: load `records`, then `txns` WCus transactions.
pub fn backend_cell(
    profile: ProfileKind,
    backend: BackendKind,
    strategy: DeleteStrategy,
    records: u64,
    txns: u64,
    seed: u64,
) -> RunStats {
    let mut config = EngineConfig::for_profile(profile).with_backend(backend);
    config.delete_strategy = strategy;
    config.maintenance_every = (txns / 35).max(20);
    config.heap.buffer_pages = buffer_pages_for(records);
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(seed, 1000);
    fe.submit_ops(
        &Session::new(Actor::Controller),
        &bench.load_phase(records as usize),
    );
    let ops = bench.ops(txns as usize, Mix::wcus());
    run_ops(&mut fe, &ops, Actor::Subject)
}

/// The backend matrix: one row per (profile, backend, delete-strategy)
/// cell — completion time plus the run's typed error profile (policy
/// denials vs never-existed keys vs retention-expired records), so
/// backend parity (identical enforcement behaviour, different storage
/// cost) is visible in one table.
pub fn backend_matrix(scale: Scale) -> Table {
    let records = scale.div(20_000);
    let txns = scale.div(5_000);
    let mut table = Table::new(
        format!("Backend matrix — WCus over profile × backend × delete strategy (records={records}, txns={txns})"),
        &[
            "profile",
            "backend",
            "delete strategy",
            "completion (sim s)",
            "denied",
            "not-found",
            "expired",
        ],
    );
    for profile in ProfileKind::PAPER {
        for backend in BackendKind::ALL {
            for strategy in DeleteStrategy::ALL {
                let stats = backend_cell(profile, backend, strategy, records, txns, 4242);
                table.row(vec![
                    profile.label().into(),
                    backend.label().into(),
                    strategy.label().into(),
                    f3(stats.simulated.as_secs_f64()),
                    stats.denied.to_string(),
                    stats.not_found.to_string(),
                    stats.expired.to_string(),
                ]);
            }
        }
    }
    table
}

// ---------------------------------------------------------------------
// Table 1 — erasure interpretations: expected vs measured properties and
// the system-action plans.
// ---------------------------------------------------------------------

/// Table 1: the grounding table plus empirical property probes.
pub fn table1() -> Table {
    let groundings = GroundingTable::standard();
    let mut table = Table::new(
        "Table 1 — interpretations of erasure (expected vs measured)",
        &[
            "Erasure",
            "IR exp/meas",
            "II exp/meas",
            "Inv exp/meas",
            "PSQL-style system-action(s)",
        ],
    );
    for interp in ErasureInterpretation::ALL {
        let expected = ErasureProperties::expected(interp);
        let measured = probe(interp);
        let e = expected.cells();
        let m = measured.measured.cells();
        let plan = groundings
            .plan(Backend::Heap, interp)
            .map(|p| p.describe())
            .unwrap_or_else(|| "ungrounded".into());
        table.row(vec![
            interp.label().into(),
            format!("{}/{}", e[0], m[0]),
            format!("{}/{}", e[1], m[1]),
            format!("{}/{}", e[2], m[2]),
            plan,
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Table 2 — space overheads after the Figure-4b load.
// ---------------------------------------------------------------------

/// Table 2: per-profile space breakdown (after load + WCus txns).
pub fn table2(scale: Scale) -> (Table, Vec<(ProfileKind, SpaceReport)>) {
    let records = scale.div(100_000);
    let txns = scale.div(10_000);
    let mut table = SpaceReport::table(&format!(
        "Table 2 — storage space overhead (records={records}, txns={txns})"
    ));
    let mut raw = Vec::new();
    for profile in ProfileKind::PAPER {
        let (_, db) = profile_cell(profile, BenchWorkload::WCus, records, txns, 23);
        let report = SpaceReport::measure(&db);
        table.row(report.row(profile.label()));
        raw.push((profile, report));
    }
    (table, raw)
}

// ---------------------------------------------------------------------
// Figure 3 — erasure timeline of one unit walked through the stages.
// ---------------------------------------------------------------------

/// Figure 3: a unit staged through every erasure interpretation.
pub fn fig3() -> (String, ErasureTimeline) {
    let mut config = EngineConfig::p_sys();
    config.tuple_encryption = None;
    let mut fe = Frontend::new(config);
    let controller = Session::new(Actor::Controller);
    let meta = datacase_workloads::record::GdprMetadata {
        subject: 1,
        purpose: datacase_core::purpose::well_known::smart_space(),
        ttl: datacase_sim::time::Ts::from_secs(10_000_000),
        origin_device: 3,
        objects_to_sharing: false,
    };
    fe.run(
        &controller,
        Request::Create {
            key: 1,
            payload: b"figure-3-subject-data".to_vec(),
            metadata: meta,
        },
    );
    let unit = fe.unit_of_key(1).expect("created");
    // Let the unit live a while, then stage the erasure.
    let mut stage = |at_secs: u64, interpretation: ErasureInterpretation| {
        fe.clock()
            .advance_to(datacase_sim::time::Ts::from_secs(at_secs));
        fe.run(
            &controller,
            Request::Erase {
                key: 1,
                interpretation,
            },
        );
    };
    stage(1000, ErasureInterpretation::ReversiblyInaccessible);
    stage(2000, ErasureInterpretation::Deleted);
    stage(2500, ErasureInterpretation::StronglyDeleted);
    stage(3000, ErasureInterpretation::PermanentlyDeleted);
    let tl = ErasureTimeline::from_history(fe.history(), unit);
    (tl.render(), tl)
}

// ---------------------------------------------------------------------
// Figure 1 — the invariant catalog.
// ---------------------------------------------------------------------

/// Figure 1: the nine requirement groups and their article coverage.
pub fn fig1() -> Table {
    let mut table = Table::new(
        "Figure 1 — GDPR requirements as informal invariants",
        &["id", "articles", "statement"],
    );
    for inv in full_catalog() {
        table.row(vec![
            inv.id().into(),
            inv.articles()
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(","),
            inv.statement().into(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// G6 / G17 demonstration: a compliant run and a violating run.
// ---------------------------------------------------------------------

/// Run a small compliant workload and return its report, then inject
/// violations (an unauthorised read recorded into history, an overdue
/// unerased unit) and return the failing report.
pub fn invariants_demo() -> (ComplianceReport, ComplianceReport) {
    let (mut fe, mut bench) = load_db(ProfileKind::PSys, 200, 5);
    let ops = bench.ops(300, Mix::wcus());
    run_ops(&mut fe, &ops, Actor::Subject);
    let clean = fe.compliance_report(&Regulation::gdpr());

    // Violation injection: an action recorded with no covering policy
    // (as if enforcement had been bypassed — hence the forensic guard).
    let unit = fe.unit_of_key(1).expect("loaded");
    let rogue = fe.entities().by_name("AdPartner").expect("registered").id;
    let at = fe.clock().now();
    fe.forensic()
        .inject_history(datacase_core::history::HistoryTuple {
            unit,
            purpose: datacase_core::purpose::well_known::advertising(),
            entity: rogue,
            action: datacase_core::action::Action::Read,
            at,
        });
    let dirty = fe.compliance_report(&Regulation::gdpr());
    (clean, dirty)
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// Ablation: FGAC with and without the Sieve policy index.
pub fn ablation_policy_index(scale: Scale) -> Table {
    let records = scale.div(20_000);
    let txns = scale.div(5_000);
    let mut table = Table::new(
        format!("Ablation — FGAC policy index (records={records}, txns={txns}, WPro)"),
        &["policy index", "completion (sim s)"],
    );
    for use_index in [true, false] {
        let mut config = EngineConfig::p_sys();
        config.fgac_index = use_index;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(31, 1000);
        fe.submit_ops(
            &Session::new(Actor::Controller),
            &bench.load_phase(records as usize),
        );
        let ops = bench.ops(txns as usize, Mix::wpro());
        let stats = run_ops(&mut fe, &ops, Actor::Processor);
        table.row(vec![
            if use_index {
                "Sieve index"
            } else {
                "linear scan"
            }
            .into(),
            f3(stats.simulated.as_secs_f64()),
        ]);
    }
    table
}

/// Ablation: vacuum period sweep under the Figure-4a customer mix.
pub fn ablation_vacuum_period(scale: Scale) -> Table {
    let records = scale.div(50_000);
    let txns = scale.div(20_000);
    let mut table = Table::new(
        format!("Ablation — autovacuum period (records={records}, txns={txns})"),
        &["vacuum every N deletes", "completion (sim s)"],
    );
    for period in [100u64, 500, 1000, 2000, 5000, u64::MAX] {
        let mut config = EngineConfig::stock(DeleteStrategy::DeleteVacuum);
        config.maintenance_every = period;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(13, 1000);
        fe.submit_ops(
            &Session::new(Actor::Controller),
            &bench.load_phase(records as usize),
        );
        let ops = bench.ops(txns as usize, Mix::fig4a_customer());
        let stats = run_ops(&mut fe, &ops, Actor::Subject);
        let label = if period == u64::MAX {
            "never (DELETE only)".to_string()
        } else {
            period.to_string()
        };
        table.row(vec![label, f3(stats.simulated.as_secs_f64())]);
    }
    table
}

/// Ablation: LSM tombstone retention — how long deleted data physically
/// persists as a function of compaction aggressiveness.
pub fn ablation_lsm_retention() -> Table {
    use datacase_storage::lsm::{LsmConfig, LsmTree};
    let mut table = Table::new(
        "Ablation — LSM tombstone physical retention",
        &[
            "runs/level trigger",
            "ops until physically erased",
            "residual entries at delete+1000 ops",
        ],
    );
    for runs_per_level in [2usize, 4, 8] {
        let mut tree = LsmTree::new(
            LsmConfig {
                memtable_bytes: 8 * 1024,
                runs_per_level,
                ..LsmConfig::default()
            },
            datacase_sim::SimClock::commodity(),
            std::sync::Arc::new(datacase_sim::Meter::new()),
        );
        // Insert victim, then delete it, then keep writing other keys and
        // watch when the payload physically disappears.
        tree.put(0, 0, b"LSM-RETAINED-VICTIM");
        tree.flush();
        tree.delete(0, 0);
        let mut erased_at: Option<usize> = None;
        for i in 1..=5000usize {
            tree.put(i as u64, i as u64, &[0x55u8; 64]);
            if erased_at.is_none() && tree.scan_physical(b"LSM-RETAINED-VICTIM") == 0 {
                erased_at = Some(i);
            }
        }
        let residual_at_1000 = {
            // Rebuild to measure the 1000-op mark deterministically.
            let mut t2 = LsmTree::new(
                LsmConfig {
                    memtable_bytes: 8 * 1024,
                    runs_per_level,
                    ..LsmConfig::default()
                },
                datacase_sim::SimClock::commodity(),
                std::sync::Arc::new(datacase_sim::Meter::new()),
            );
            t2.put(0, 0, b"LSM-RETAINED-VICTIM");
            t2.flush();
            t2.delete(0, 0);
            for i in 1..=1000usize {
                t2.put(i as u64, i as u64, &[0x55u8; 64]);
            }
            t2.scan_physical(b"LSM-RETAINED-VICTIM")
        };
        table.row(vec![
            runs_per_level.to_string(),
            erased_at
                .map(|n| n.to_string())
                .unwrap_or_else(|| ">5000".into()),
            residual_at_1000.to_string(),
        ]);
    }
    table
}

/// Ablation: crypto-erasure (destroy the key) vs physical permanent
/// deletion (VACUUM FULL + sanitisation) — cost of the erase action.
pub fn ablation_crypto_erasure(scale: Scale) -> Table {
    let records = scale.div(20_000);
    let mut table = Table::new(
        format!("Ablation — permanent-deletion groundings (records={records})"),
        &[
            "grounding",
            "erase cost for 100 units (sim s)",
            "residuals afterwards",
        ],
    );
    // Physical: delete + vacuum full + sanitize per batch — one erase
    // request per key through the frontend's compliance path.
    {
        let mut config = EngineConfig::p_sys();
        config.tuple_encryption = None;
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(41, 1000);
        let controller = Session::new(Actor::Controller);
        fe.submit_ops(&controller, &bench.load_phase(records as usize));
        let t0 = fe.clock().now();
        let erasures: Batch = (0..100u64)
            .map(|key| Request::Erase {
                key,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            })
            .collect();
        fe.submit(&controller, &erasures);
        let cost = fe.clock().now().since(t0);
        let f = fe.forensic().scan(b"person=");
        table.row(vec![
            "physical (VACUUM FULL + sanitise)".into(),
            f3(cost.as_secs_f64()),
            if f.any() {
                "some (other units)"
            } else {
                "none"
            }
            .into(),
        ]);
    }
    // Crypto-erasure: per-unit keys; destroying the key makes ciphertext
    // permanently unreadable without touching the heap.
    {
        let config = EngineConfig::p_sys(); // AES-128 per-tuple keys
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(41, 1000);
        fe.submit_ops(
            &Session::new(Actor::Controller),
            &bench.load_phase(records as usize),
        );
        let t0 = fe.clock().now();
        for key in 0..100u64 {
            if let Some(unit) = fe.unit_of_key(key) {
                fe.forensic().destroy_key(unit);
            }
        }
        let cost = fe.clock().now().since(t0);
        // Plaintext was never on disk; key destruction sealed it forever.
        let f = fe.forensic().scan(b"person=");
        table.row(vec![
            "crypto-erasure (destroy per-unit key)".into(),
            f3(cost.as_secs_f64()),
            if f.online() {
                "ciphertext only"
            } else {
                "none"
            }
            .into(),
        ]);
    }
    table
}

/// Ablation: AES-128 vs AES-256 tuple encryption under YCSB-C.
pub fn ablation_aes_strength(scale: Scale) -> Table {
    use datacase_crypto::aes::KeySize;
    let records = scale.div(20_000);
    let txns = scale.div(10_000);
    let mut table = Table::new(
        format!("Ablation — tuple encryption strength (records={records}, txns={txns}, YCSB-C)"),
        &["cipher", "completion (sim s)"],
    );
    for (label, size) in [
        ("none", None),
        ("AES-128", Some(KeySize::Aes128)),
        ("AES-256", Some(KeySize::Aes256)),
    ] {
        let mut config = EngineConfig::p_base();
        config.tuple_encryption = size;
        let mut fe = Frontend::new(config);
        let mut y = Ycsb::new(3, records);
        fe.submit_ops(&Session::new(Actor::Controller), &y.load_phase());
        let ops = y.ops(txns as usize, YcsbWorkload::C);
        let stats = run_ops(&mut fe, &ops, Actor::Processor);
        table.row(vec![label.into(), f3(stats.simulated.as_secs_f64())]);
    }
    table
}

// ---------------------------------------------------------------------
// Crypto-substrate throughput (BENCH_crypto.json)
// ---------------------------------------------------------------------

/// One measured crypto-substrate cell: host throughput through the
/// retained byte-oriented reference path, the software T-table /
/// lane-XOR path, and (on AES-NI hosts) the hardware path, over the
/// same buffers.
#[derive(Clone, Debug)]
pub struct CryptoPoint {
    /// Substrate label (cipher × buffer shape).
    pub substrate: &'static str,
    /// Bytes per measured pass.
    pub buf_bytes: usize,
    /// Reference-path throughput in MB/s.
    pub ref_mb_s: f64,
    /// Software (T-table) path throughput in MB/s.
    pub fast_mb_s: f64,
    /// Hardware (AES-NI) path throughput in MB/s; `None` when the host
    /// has no usable hardware AES.
    pub hw_mb_s: Option<f64>,
}

impl CryptoPoint {
    /// software ÷ reference.
    pub fn speedup(&self) -> f64 {
        self.fast_mb_s / self.ref_mb_s
    }

    /// hardware ÷ software, when the hardware series ran.
    pub fn hw_speedup(&self) -> Option<f64> {
        self.hw_mb_s.map(|hw| hw / self.fast_mb_s)
    }
}

/// One end-to-end encrypted-profile cell: transaction-phase wall times
/// through up to three crypto backends of the *same* engine build — the
/// retained byte-oriented reference rounds, the software T-table path,
/// and on AES-NI hosts the hardware backend — each selected per engine
/// via [`EngineConfig::with_crypto_backend`], so results are
/// bit-identical and only wall time moves.
///
/// The reference cells isolate the *round/XOR implementation*: cached
/// key schedules stay active in them, so the reported speedup is a
/// **lower bound** on the gap to the pre-overhaul engine.
#[derive(Clone, Debug)]
pub struct CryptoEndToEnd {
    /// The encrypted profile under test.
    pub profile: ProfileKind,
    /// The YCSB mix driving it.
    pub workload: YcsbWorkload,
    /// Transactions executed.
    pub ops: usize,
    /// Best-of-reps wall ms on the pre-overhaul reference crypto path.
    pub reference_wall_ms: f64,
    /// Best-of-reps wall ms, software T-table crypto.
    pub software_wall_ms: f64,
    /// Best-of-reps wall ms, hardware (AES-NI) crypto; `None` on hosts
    /// without hardware AES.
    pub hardware_wall_ms: Option<f64>,
    /// Simulated throughput (identical across every backend by the
    /// crypto-equivalence contract; reported as evidence).
    pub sim_ops_per_sec: f64,
}

/// Measure `f` (one pass over `buf_bytes`) and return MB/s, after one
/// untimed warm-up pass.
fn throughput_mb_s(buf_bytes: usize, passes: u64, mut f: impl FnMut()) -> f64 {
    f();
    let t = std::time::Instant::now();
    for _ in 0..passes {
        f();
    }
    (buf_bytes as u64 * passes) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The crypto-substrate micro matrix: every AES shape the profiles pay on
/// their hot paths — P_SYS log records (AES-128, record-sized), tuple
/// payloads (AES-128/AES-256, row-sized), and P_GBench/LUKS whole pages
/// (AES-256 under the sector-IV binding) — measured through both paths.
pub fn crypto_micro(scale: Scale) -> Vec<CryptoPoint> {
    use datacase_crypto::aes::KeySize;
    use datacase_crypto::ctr::AesCtr;
    use datacase_crypto::sector::SectorCipher;
    use datacase_crypto::CryptoBackend;
    // ~32 MB through each series at full scale, ~3 MB on --quick.
    let budget = scale.div(32 * 1024 * 1024);
    let hw_here = CryptoBackend::hardware_available();
    let mut points = Vec::new();
    let mut ctr_cell = |substrate: &'static str, size: KeySize, buf_bytes: usize| {
        // The software series forces its backend: under `Auto` this
        // cipher would silently become the hardware measurement on
        // AES-NI hosts and the A/B would compare hardware to itself.
        let sw = AesCtr::from_key(size, &[0x42u8; 32][..size.key_len()])
            .with_backend(CryptoBackend::Software);
        let iv = AesCtr::iv_from_nonce(7);
        let mut buf = vec![0xABu8; buf_bytes];
        let passes = (budget / buf_bytes as u64).max(8);
        let fast = throughput_mb_s(buf_bytes, passes, || sw.apply(iv, &mut buf));
        let hw = hw_here.then(|| {
            let hw_ctr = sw.clone().with_backend(CryptoBackend::Hardware);
            // Hardware sustains several times the software rate; give it
            // the same byte budget scaled up so the timing window stays
            // comparable.
            throughput_mb_s(buf_bytes, passes * 4, || hw_ctr.apply(iv, &mut buf))
        });
        // The reference path is ~4–5× slower; a quarter of the passes
        // keeps runtimes balanced without starving the measurement.
        let r = throughput_mb_s(buf_bytes, (passes / 4).max(8), || {
            sw.apply_ref(iv, &mut buf)
        });
        points.push(CryptoPoint {
            substrate,
            buf_bytes,
            ref_mb_s: r,
            fast_mb_s: fast,
            hw_mb_s: hw,
        });
    };
    ctr_cell("aes128-ctr 256 B (P_SYS log record)", KeySize::Aes128, 256);
    ctr_cell("aes128-ctr 4 KiB (P_SYS tuples)", KeySize::Aes128, 4096);
    ctr_cell("aes256-ctr 4 KiB (P_Base tuples)", KeySize::Aes256, 4096);
    {
        let sc = SectorCipher::from_passphrase(b"luks-gbench-passphrase", KeySize::Aes256)
            .with_backend(CryptoBackend::Software);
        let buf_bytes = 4096;
        let mut buf = vec![0xCDu8; buf_bytes];
        let passes = (budget / buf_bytes as u64).max(8);
        let fast = throughput_mb_s(buf_bytes, passes, || sc.apply(11, &mut buf));
        let hw = hw_here.then(|| {
            let hw_sc = sc.clone().with_backend(CryptoBackend::Hardware);
            throughput_mb_s(buf_bytes, passes * 4, || hw_sc.apply(11, &mut buf))
        });
        let r = throughput_mb_s(buf_bytes, (passes / 4).max(8), || {
            sc.apply_ref(11, &mut buf)
        });
        points.push(CryptoPoint {
            substrate: "sector-aes256 4 KiB page (P_GBench/LUKS)",
            buf_bytes,
            ref_mb_s: r,
            fast_mb_s: fast,
            hw_mb_s: hw,
        });
    }
    points
}

/// Record size for the end-to-end crypto cells: classic YCSB 1 KiB
/// records, so the profiles' AES work (tuple payloads, log payloads,
/// whole pages) dominates the way it does on payload-carrying
/// production workloads.
pub const CRYPTO_E2E_PAYLOAD: usize = 1024;

/// Requests per submitted batch in the end-to-end crypto cells.
const CRYPTO_E2E_BATCH: usize = 256;

/// Wall-time repetitions per end-to-end crypto cell (the minimum is
/// reported).
const CRYPTO_E2E_REPS: usize = 3;

/// Run one end-to-end encrypted-profile cell: load, then a YCSB
/// transaction phase at [`CRYPTO_E2E_PAYLOAD`]-byte records, returning
/// its stats.
pub fn crypto_cell(
    profile: ProfileKind,
    workload: YcsbWorkload,
    backend: datacase_crypto::CryptoBackend,
    records: u64,
    txns: u64,
    seed: u64,
) -> RunStats {
    let mut config = EngineConfig::for_profile(profile)
        .with_crypto_backend(backend)
        .with_decision_cache(4096);
    config.heap.buffer_pages = buffer_pages_for(records);
    let mut fe = Frontend::new(config);
    let mut y = Ycsb::new(seed, records).with_payload_size(CRYPTO_E2E_PAYLOAD);
    let load = y.load_phase();
    run_ops_batched(&mut fe, &load, Actor::Controller, CRYPTO_E2E_BATCH);
    let ops = y.ops(txns as usize, workload);
    run_ops_batched(&mut fe, &ops, Actor::Processor, CRYPTO_E2E_BATCH)
}

/// The crypto throughput report: the micro substrate matrix plus
/// end-to-end wall times of the two encrypted paper profiles (P_SYS:
/// encrypted audit log + AES-128 tuples; P_GBench: LUKS sector
/// encryption) per crypto backend, with the sim-parity contract asserted
/// on every cell.
pub fn crypto_matrix(scale: Scale) -> (Table, Table, Vec<CryptoPoint>, Vec<CryptoEndToEnd>) {
    use datacase_crypto::CryptoBackend;
    let points = crypto_micro(scale);
    let mut table = Table::new(
        "Crypto substrate throughput — reference vs software T-table vs hardware AES-NI",
        &[
            "substrate",
            "reference (MB/s)",
            "software (MB/s)",
            "hardware (MB/s)",
            "sw/ref",
            "hw/sw",
        ],
    );
    for p in &points {
        table.row(vec![
            p.substrate.into(),
            f3(p.ref_mb_s),
            f3(p.fast_mb_s),
            p.hw_mb_s.map_or_else(|| "n/a".into(), f3),
            format!("{:.2}x", p.speedup()),
            p.hw_speedup()
                .map_or_else(|| "n/a".into(), |s| format!("{s:.2}x")),
        ]);
    }

    let records = scale.div(20_000);
    let txns = scale.div(20_000);
    let mut e2e_table = Table::new(
        format!(
            "Encrypted-profile wall times — pre-overhaul reference crypto vs T-table (records={records}, txns={txns}, batch={CRYPTO_E2E_BATCH}, {CRYPTO_E2E_PAYLOAD} B records)"
        ),
        &[
            "profile",
            "workload",
            "reference (wall ms)",
            "software (wall ms)",
            "hardware (wall ms)",
            "overall speedup",
            "sim identical",
        ],
    );
    let mut e2e = Vec::new();
    for profile in [ProfileKind::PSys, ProfileKind::PGBench] {
        let workload = YcsbWorkload::B;
        let seed = 7;
        let run = |backend: CryptoBackend| -> (f64, f64, usize) {
            let mut best_wall = f64::INFINITY;
            let mut sim = 0.0;
            let mut ops = 0;
            for rep in 0..CRYPTO_E2E_REPS {
                let stats = crypto_cell(profile, workload, backend, records, txns, seed);
                best_wall = best_wall.min(stats.wall.as_secs_f64() * 1e3);
                let rep_sim = stats.sim_ops_per_sec();
                assert!(
                    rep == 0 || rep_sim == sim,
                    "simulated throughput must be deterministic across reps"
                );
                sim = rep_sim;
                ops = stats.ops;
            }
            (best_wall, sim, ops)
        };
        // Reference cell: byte-oriented rounds — bit-identical results,
        // only wall time moves. A lower bound on the pre-overhaul engine
        // (see CryptoEndToEnd).
        let (reference_wall_ms, ref_sim, ops) = run(CryptoBackend::Reference);
        let (software_wall_ms, software_sim, _) = run(CryptoBackend::Software);
        assert!(
            ref_sim == software_sim,
            "{}: simulated throughput diverged across crypto backends ({ref_sim} / {software_sim})",
            profile.label(),
        );
        // Hardware cell (AES-NI hosts): the whole engine under the
        // hardware backend — every simulated column must stay
        // bit-identical to the software and reference runs.
        let hardware_wall_ms = CryptoBackend::hardware_available().then(|| {
            let (hw_wall, hw_sim, _) = run(CryptoBackend::Hardware);
            assert!(
                hw_sim == software_sim,
                "{}: simulated throughput diverged on the hardware backend ({hw_sim} vs {software_sim})",
                profile.label(),
            );
            hw_wall
        });
        let best_after = hardware_wall_ms.unwrap_or(software_wall_ms);
        e2e_table.row(vec![
            profile.label().into(),
            workload.label().into(),
            f3(reference_wall_ms),
            f3(software_wall_ms),
            hardware_wall_ms.map_or_else(|| "n/a".into(), f3),
            format!("{:.2}x", reference_wall_ms / best_after),
            "yes".into(),
        ]);
        e2e.push(CryptoEndToEnd {
            profile,
            workload,
            ops,
            reference_wall_ms,
            software_wall_ms,
            hardware_wall_ms,
            sim_ops_per_sec: software_sim,
        });
    }
    (table, e2e_table, points, e2e)
}

/// Render the crypto report as the `BENCH_crypto.json` document: the
/// host's detected CPU features and `Auto`'s resolved backend, one
/// object per micro substrate with reference/software/hardware MB/s, one
/// per end-to-end encrypted-profile cell with
/// reference/software/hardware wall times.
pub fn crypto_json(points: &[CryptoPoint], e2e: &[CryptoEndToEnd], scale: Scale) -> String {
    use datacase_crypto::{backend, CryptoBackend};
    let mut out = String::from("{\n  \"bench\": \"crypto_throughput\",\n");
    out.push_str(&format!("  \"scale_divisor\": {},\n", scale.0));
    out.push_str(&format!(
        "  \"auto_backend\": \"{}\",\n",
        CryptoBackend::Auto.resolve()
    ));
    let features = backend::cpu_features()
        .into_iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("  \"cpu_features\": {{{features}}},\n"));
    out.push_str("  \"substrates\": [\n");
    for (i, p) in points.iter().enumerate() {
        let hw = p
            .hw_mb_s
            .map_or_else(|| "null".into(), |v| format!("{v:.3}"));
        let hw_speedup = p
            .hw_speedup()
            .map_or_else(|| "null".into(), |v| format!("{v:.3}"));
        out.push_str(&format!(
            "    {{\"substrate\": \"{}\", \"buf_bytes\": {}, \"reference_mb_s\": {:.3}, \"fast_mb_s\": {:.3}, \"hardware_mb_s\": {}, \"speedup\": {:.3}, \"hw_over_sw\": {}}}{}\n",
            p.substrate,
            p.buf_bytes,
            p.ref_mb_s,
            p.fast_mb_s,
            hw,
            p.speedup(),
            hw_speedup,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, c) in e2e.iter().enumerate() {
        let hw_wall = c
            .hardware_wall_ms
            .map_or_else(|| "null".into(), |v| format!("{v:.3}"));
        let best_after = c.hardware_wall_ms.unwrap_or(c.software_wall_ms);
        out.push_str(&format!(
            "    {{\"profile\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \"reference_wall_ms\": {:.3}, \"software_wall_ms\": {:.3}, \"hardware_wall_ms\": {}, \"speedup\": {:.3}, \"sim_ops_per_sec\": {:.3}}}{}\n",
            c.profile.label(),
            c.workload.label(),
            c.ops,
            c.reference_wall_ms,
            c.software_wall_ms,
            hw_wall,
            c.reference_wall_ms / best_after,
            c.sim_ops_per_sec,
            if i + 1 < e2e.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Multi-session concurrent-engine throughput (BENCH_mt.json)
// ---------------------------------------------------------------------

/// Shards in every mt cell. Fixed across session counts so the per-shard
/// request streams — and therefore the per-shard simulated timelines —
/// are bit-identical whether one session drives all four shards or four
/// sessions drive one each.
pub const MT_SHARDS: usize = 4;
/// Requests per submitted sub-batch.
pub const MT_BATCH: usize = 256;
/// Record payload: classic YCSB 1 KiB rows, so P_Base's per-tuple AES
/// dominates and extra sessions buy real CPU parallelism.
pub const MT_PAYLOAD: usize = 1024;
/// Wall-clock reps per cell (best-of).
pub const MT_REPS: usize = 3;
/// Per-batch client think time (milliseconds), TPC-style: each
/// closed-loop session sleeps this long after every completed batch,
/// modelling the app/network work a real client does between
/// submissions. Think time is what makes session concurrency visible as
/// aggregate throughput even on one core — while one session thinks,
/// the engine serves the others — and it is exactly what the old serial
/// frontend could never overlap. Sleeping touches neither the simulated
/// clock nor the per-shard request order, so the CostModel columns stay
/// bit-identical across session counts.
pub const MT_THINK_MS: u64 = 3;

/// One measured multi-session cell: `sessions` closed-loop clients over
/// a [`MT_SHARDS`]-way [`datacase_engine::ConcurrentEngine`].
#[derive(Clone, Debug)]
pub struct MtPoint {
    /// Storage backend on every shard.
    pub backend: BackendKind,
    /// Concurrent closed-loop sessions.
    pub sessions: usize,
    /// Transaction-phase requests executed.
    pub ops: usize,
    /// Best-of-reps transaction-phase wall milliseconds.
    pub wall_ms: f64,
    /// Final simulated instant of each shard's clock — the CostModel
    /// column. Identical across session counts by construction (each
    /// shard always executes the same stream in the same order); the
    /// matrix asserts it.
    pub shard_sim: Vec<Ts>,
}

impl MtPoint {
    /// Aggregate wall-clock throughput in kops/s.
    pub fn kops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_ms
    }
}

/// Run one multi-session cell: load through the handle, pre-partition a
/// read-heavy YCSB-B transaction stream by shard, then let `sessions`
/// client threads drive disjoint shard subsets closed-loop (one
/// outstanding ticket per session, round-robin over its shards, with
/// [`MT_THINK_MS`] of think time after every completed batch).
///
/// Every session count submits the **identical per-shard request
/// sequence** — sharding is by key, the streams are pre-partitioned, and
/// a shard's sub-batches arrive in stream order no matter which client
/// owns it — so each shard's simulated timeline is bit-identical to the
/// single-session run and only wall time responds to the added
/// concurrency (overlapped think time everywhere; overlapped shard CPU
/// on multi-core hosts). Each shard worker is one thread, so cells
/// measure pure session-level scaling.
pub fn mt_cell(
    backend: BackendKind,
    sessions: usize,
    records: u64,
    txns: u64,
    seed: u64,
) -> MtPoint {
    assert!(
        MT_SHARDS.is_multiple_of(sessions),
        "sessions must evenly divide the shard count"
    );
    let mut config = EngineConfig::p_base()
        .with_backend(backend)
        .with_decision_cache(4096);
    config.heap.buffer_pages = buffer_pages_for(records / MT_SHARDS as u64);
    let engine = datacase_engine::ConcurrentEngine::new(config, MT_SHARDS);
    let handle = engine.handle();
    let controller = Session::new(Actor::Controller);
    let mut y = Ycsb::new(seed, records).with_payload_size(MT_PAYLOAD);
    for chunk in y.load_phase().chunks(MT_BATCH) {
        let requests: Vec<Request> = chunk.iter().map(Request::from).collect();
        handle.submit(&controller, &requests).wait();
    }
    let ops = y.ops(txns as usize, YcsbWorkload::B);
    let total_ops = ops.len();
    let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); MT_SHARDS];
    for op in &ops {
        let request = Request::from(op);
        let shard = datacase_engine::shard_of(&request, MT_SHARDS)
            .expect("YCSB requests are key-addressed");
        per_shard[shard].push(request);
    }
    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..sessions {
            let handle = engine.handle();
            let owned: Vec<&[Request]> = per_shard
                .iter()
                .enumerate()
                .filter(|(shard, _)| shard % sessions == client)
                .map(|(_, stream)| stream.as_slice())
                .collect();
            scope.spawn(move || {
                let session = Session::new(Actor::Processor);
                let mut cursors = vec![0usize; owned.len()];
                loop {
                    let mut progressed = false;
                    for (i, stream) in owned.iter().enumerate() {
                        let lo = cursors[i];
                        if lo >= stream.len() {
                            continue;
                        }
                        let hi = (lo + MT_BATCH).min(stream.len());
                        cursors[i] = hi;
                        progressed = true;
                        handle.submit(&session, &stream[lo..hi]).wait();
                        std::thread::sleep(std::time::Duration::from_millis(MT_THINK_MS));
                    }
                    if !progressed {
                        break;
                    }
                }
            });
        }
    });
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    drop(handle);
    let frontends = engine.shutdown();
    let shard_sim = frontends.iter().map(|fe| fe.clock().now()).collect();
    MtPoint {
        backend,
        sessions,
        ops: total_ops,
        wall_ms,
        shard_sim,
    }
}

/// The multi-session scaling matrix: 1, 2, and 4 closed-loop sessions
/// over the 4-shard concurrent engine (read-heavy YCSB-B, heap shards),
/// best of [`MT_REPS`] wall-clock reps per cell, with the per-shard
/// simulated timelines asserted bit-identical across every rep and every
/// session count.
pub fn mt_matrix(scale: Scale) -> (Table, Vec<MtPoint>) {
    let records = scale.div(20_000);
    let txns = scale.div(20_000);
    let backend = BackendKind::Heap;
    let seed = 7;
    let mut points: Vec<MtPoint> = Vec::new();
    for sessions in [1usize, 2, 4] {
        let mut best: Option<MtPoint> = None;
        for _ in 0..MT_REPS {
            let p = mt_cell(backend, sessions, records, txns, seed);
            if let Some(b) = &best {
                assert_eq!(
                    b.shard_sim, p.shard_sim,
                    "simulated shard timelines must be deterministic across reps"
                );
            }
            if best.as_ref().is_none_or(|b| p.wall_ms < b.wall_ms) {
                let wall_ms = best.map_or(p.wall_ms, |b| b.wall_ms.min(p.wall_ms));
                best = Some(MtPoint { wall_ms, ..p });
            }
        }
        let best = best.expect("at least one rep");
        if let Some(first) = points.first() {
            assert_eq!(
                first.shard_sim, best.shard_sim,
                "per-shard simulated timelines must not depend on the session count"
            );
        }
        points.push(best);
    }
    let base = points[0].wall_ms;
    let mut table = Table::new(
        format!(
            "Multi-session scaling — {MT_SHARDS} heap shards, YCSB-B, records={records}, txns={txns}, batch={MT_BATCH}, {MT_PAYLOAD} B records, think={MT_THINK_MS}ms"
        ),
        &[
            "sessions",
            "wall (ms)",
            "kops/s",
            "speedup vs 1 session",
            "sim identical",
        ],
    );
    for p in &points {
        table.row(vec![
            p.sessions.to_string(),
            f3(p.wall_ms),
            f3(p.kops_per_sec()),
            format!("{:.2}x", base / p.wall_ms),
            "yes".into(),
        ]);
    }
    (table, points)
}

/// Render the mt points as the `BENCH_mt.json` document: one object per
/// session count with wall time, aggregate throughput, the scaling
/// factor vs the single-session cell, and the (identical) per-shard
/// simulated timeline as evidence of the determinism contract.
pub fn mt_json(points: &[MtPoint], scale: Scale) -> String {
    let mut out = String::from("{\n  \"bench\": \"mt_throughput\",\n");
    out.push_str(&format!(
        "  \"scale_divisor\": {},\n  \"shards\": {MT_SHARDS},\n  \"batch\": {MT_BATCH},\n  \"think_ms\": {MT_THINK_MS},\n  \"reps\": {MT_REPS},\n  \"cells\": [\n",
        scale.0
    ));
    let base = points.first().map_or(1.0, |p| p.wall_ms);
    for (i, p) in points.iter().enumerate() {
        let sim: Vec<String> = p
            .shard_sim
            .iter()
            .map(|ts| format!("{:.3}", ts.as_millis_f64()))
            .collect();
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"sessions\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \"kops_per_sec\": {:.3}, \"scaling_vs_1_session\": {:.3}, \"shard_sim_ms\": [{}]}}{}\n",
            p.backend.label(),
            p.sessions,
            p.ops,
            p.wall_ms,
            p.kops_per_sec(),
            base / p.wall_ms,
            sim.join(", "),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Served-engine throughput over the wire (BENCH_server.json)
// ---------------------------------------------------------------------

/// Engine shards behind the gateway in every server cell.
pub const SERVER_SHARDS: usize = 4;
/// Requests per wire batch.
pub const SERVER_BATCH: usize = 128;
/// Record payload bytes (classic YCSB 1 KiB rows).
pub const SERVER_PAYLOAD: usize = 1024;
/// Wall-clock reps per cell (best-of).
pub const SERVER_REPS: usize = 2;

/// One measured served-engine cell: `clients` closed-loop TCP clients
/// driving `tenants` tenants of one gateway over loopback sockets.
#[derive(Clone, Debug)]
pub struct ServerPoint {
    /// Storage backend on every engine shard.
    pub backend: BackendKind,
    /// Concurrent closed-loop wire clients.
    pub clients: usize,
    /// Tenants sharing the engine (work split evenly between them).
    pub tenants: usize,
    /// Transaction-phase requests executed.
    pub ops: usize,
    /// Best-of-reps transaction-phase wall milliseconds.
    pub wall_ms: f64,
    /// Mean per-batch round-trip latency (milliseconds) across clients.
    pub mean_batch_ms: f64,
    /// 95th-percentile per-batch round-trip latency (milliseconds).
    pub p95_batch_ms: f64,
}

impl ServerPoint {
    /// Aggregate wall-clock throughput in kops/s.
    pub fn kops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_ms
    }
}

/// Run one served-engine cell: spawn a gateway over a
/// [`SERVER_SHARDS`]-way engine, load each tenant's records through its
/// own authenticated connection, then let `clients` closed-loop wire
/// clients drain a read-heavy YCSB-B stream split evenly across the
/// tenants (one in-flight batch per client, tenant-local keys on the
/// wire, every frame a real loopback round trip).
///
/// Tenant work units are interleaved round-robin across clients, so
/// every (clients, tenants) combination — including one client serving
/// two tenants over two connections — drains the identical per-tenant
/// request streams and only wall time responds to the concurrency.
pub fn server_cell(
    backend: BackendKind,
    clients: usize,
    tenants: usize,
    records: u64,
    txns: u64,
    seed: u64,
) -> ServerPoint {
    use datacase_server::{Client, Server, TenantSpec};

    let per_tenant_records = (records / tenants as u64).max(1);
    let per_tenant_txns = (txns / tenants as u64).max(1);
    let mut config = EngineConfig::p_base()
        .with_backend(backend)
        .with_decision_cache(4096);
    config.heap.buffer_pages = buffer_pages_for(per_tenant_records / SERVER_SHARDS as u64);
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(&format!("t{t}"), "bench-token"))
        .collect();
    let server = Server::spawn(config, SERVER_SHARDS, &specs);

    // Load and transaction streams, one per tenant (tenant-local keys).
    let mut streams: Vec<Vec<Request>> = Vec::new();
    for t in 0..tenants {
        let mut y =
            Ycsb::new(seed + t as u64, per_tenant_records).with_payload_size(SERVER_PAYLOAD);
        let load: Vec<Request> = y.load_phase().iter().map(Request::from).collect();
        let mut loader = Client::connect(
            server.addr(),
            &format!("t{t}"),
            "bench-token",
            Actor::Controller,
        )
        .expect("loader connects");
        for chunk in load.chunks(SERVER_BATCH) {
            loader.call(chunk).expect("load batch");
        }
        loader.goodbye().ok();
        streams.push(
            y.ops(per_tenant_txns as usize, YcsbWorkload::B)
                .iter()
                .map(Request::from)
                .collect(),
        );
    }

    // Interleave per-tenant batches into a single work-unit list, then
    // deal units round-robin to clients.
    let chunked: Vec<Vec<&[Request]>> = streams
        .iter()
        .map(|s| s.chunks(SERVER_BATCH).collect())
        .collect();
    let max_chunks = chunked.iter().map(Vec::len).max().unwrap_or(0);
    let mut units: Vec<(usize, &[Request])> = Vec::new();
    for i in 0..max_chunks {
        for (t, chunks) in chunked.iter().enumerate() {
            if let Some(chunk) = chunks.get(i) {
                units.push((t, chunk));
            }
        }
    }
    let total_ops: usize = units.iter().map(|(_, c)| c.len()).sum();

    let wall_start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            let addr = server.addr();
            let units = &units;
            handles.push(scope.spawn(move || {
                let mut conns: Vec<Option<Client>> = (0..tenants).map(|_| None).collect();
                let mut lats = Vec::new();
                for (tenant, chunk) in units.iter().skip(client).step_by(clients) {
                    let conn = conns[*tenant].get_or_insert_with(|| {
                        Client::connect(
                            addr,
                            &format!("t{tenant}"),
                            "bench-token",
                            Actor::Processor,
                        )
                        .expect("client connects")
                    });
                    let t0 = Instant::now();
                    conn.call(chunk).expect("transaction batch");
                    lats.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                for conn in conns.into_iter().flatten() {
                    conn.goodbye().ok();
                }
                lats
            }));
        }
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean_batch_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let p95_batch_ms = latencies
        .get((latencies.len().saturating_sub(1)) * 95 / 100)
        .copied()
        .unwrap_or(0.0);
    ServerPoint {
        backend,
        clients,
        tenants,
        ops: total_ops,
        wall_ms,
        mean_batch_ms,
        p95_batch_ms,
    }
}

/// The served-engine matrix: 1/2/4 clients × 1/2 tenants × heap/LSM
/// backends, best of [`SERVER_REPS`] wall-clock reps per cell.
pub fn server_matrix(scale: Scale) -> (Table, Vec<ServerPoint>) {
    let records = scale.div(20_000);
    let txns = scale.div(20_000);
    let seed = 11;
    let mut points: Vec<ServerPoint> = Vec::new();
    for backend in [BackendKind::Heap, BackendKind::Lsm] {
        for tenants in [1usize, 2] {
            for clients in [1usize, 2, 4] {
                let mut best: Option<ServerPoint> = None;
                for _ in 0..SERVER_REPS {
                    let p = server_cell(backend, clients, tenants, records, txns, seed);
                    if best.as_ref().is_none_or(|b| p.wall_ms < b.wall_ms) {
                        best = Some(p);
                    }
                }
                points.push(best.expect("at least one rep"));
            }
        }
    }
    let mut table = Table::new(
        format!(
            "Served engine over loopback TCP — {SERVER_SHARDS} shards, YCSB-B, records={records}, txns={txns}, batch={SERVER_BATCH}, {SERVER_PAYLOAD} B records"
        ),
        &[
            "backend",
            "tenants",
            "clients",
            "wall (ms)",
            "kops/s",
            "mean batch (ms)",
            "p95 batch (ms)",
        ],
    );
    for p in &points {
        table.row(vec![
            p.backend.label().into(),
            p.tenants.to_string(),
            p.clients.to_string(),
            f3(p.wall_ms),
            f3(p.kops_per_sec()),
            f3(p.mean_batch_ms),
            f3(p.p95_batch_ms),
        ]);
    }
    (table, points)
}

/// Render the server points as the `BENCH_server.json` document: one
/// object per (backend, tenants, clients) cell with wall time, aggregate
/// throughput, and per-batch round-trip latency.
pub fn server_json(points: &[ServerPoint], scale: Scale) -> String {
    let mut out = String::from("{\n  \"bench\": \"server_throughput\",\n");
    out.push_str(&format!(
        "  \"scale_divisor\": {},\n  \"shards\": {SERVER_SHARDS},\n  \"batch\": {SERVER_BATCH},\n  \"reps\": {SERVER_REPS},\n  \"cells\": [\n",
        scale.0
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"tenants\": {}, \"clients\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \"kops_per_sec\": {:.3}, \"mean_batch_ms\": {:.3}, \"p95_batch_ms\": {:.3}}}{}\n",
            p.backend.label(),
            p.tenants,
            p.clients,
            p.ops,
            p.wall_ms,
            p.kops_per_sec(),
            p.mean_batch_ms,
            p.p95_batch_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Shape assertions shared by tests and the repro binary: returns a list
/// of (check, passed) pairs so violations are visible in reports.
pub fn shape_checks(scale: Scale) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    // Fig 4a shape at the largest sweep point.
    let (_, series) = fig4a(scale);
    let at_max = |s: DeleteStrategy| -> f64 {
        series
            .iter()
            .find(|(st, _)| *st == s)
            .map(|(_, pts)| pts.last().expect("points").secs)
            .expect("strategy present")
    };
    let vf = at_max(DeleteStrategy::DeleteVacuumFull);
    let tomb = at_max(DeleteStrategy::TombstoneAttribute);
    let del = at_max(DeleteStrategy::DeleteOnly);
    let dv = at_max(DeleteStrategy::DeleteVacuum);
    checks.push((
        "fig4a: VACUUM FULL slowest".into(),
        vf > tomb && vf > del && vf > dv,
    ));
    checks.push(("fig4a: DELETE+VACUUM beats DELETE on WCus".into(), dv < del));
    // Fig 4b profile ordering on every workload.
    let (_, raw) = fig4b(scale);
    for w in BenchWorkload::ALL {
        let get = |p: ProfileKind| {
            raw.iter()
                .find(|(bw, bp, _)| *bw == w && *bp == p)
                .map(|(_, _, m)| *m)
                .expect("cell present")
        };
        let ordered = get(ProfileKind::PBase) < get(ProfileKind::PGBench)
            && get(ProfileKind::PGBench) < get(ProfileKind::PSys);
        checks.push((
            format!("fig4b: P_Base < P_GBench < P_SYS on {}", w.label()),
            ordered,
        ));
    }
    // Table 2 factor ordering.
    let (_, spaces) = table2(scale);
    let factor = |p: ProfileKind| {
        spaces
            .iter()
            .find(|(sp, _)| *sp == p)
            .map(|(_, r)| r.space_factor())
            .expect("profile present")
    };
    checks.push((
        "table2: factor(P_Base) < factor(P_GBench) < factor(P_SYS)".into(),
        factor(ProfileKind::PBase) < factor(ProfileKind::PGBench)
            && factor(ProfileKind::PGBench) < factor(ProfileKind::PSys),
    ));
    checks
}

/// Convenience: simulated seconds of a run.
pub fn sim_secs(d: Dur) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_match_expected_matrix() {
        let t = table1();
        let rendered = t.render_text();
        // Expected == measured in every cell: "×/×" or "✓/✓" only.
        assert!(!rendered.contains("×/✓"), "{rendered}");
        assert!(!rendered.contains("✓/×"), "{rendered}");
        assert!(rendered.contains("DELETE + VACUUM"));
    }

    #[test]
    fn fig1_lists_the_entire_invariant_catalog() {
        // Enumerate the live catalog rather than hard-coding its size:
        // the figure must grow with the catalog, never silently lag it.
        let t = fig1();
        let catalog = datacase_core::invariants::full_catalog();
        assert_eq!(t.len(), catalog.len());
        for invariant in &catalog {
            assert!(
                t.rows().iter().any(|row| row[0] == invariant.id()),
                "figure 1 is missing invariant {}",
                invariant.id()
            );
        }
    }

    #[test]
    fn fig3_timeline_is_monotone_and_complete() {
        let (rendered, tl) = fig3();
        assert!(tl.is_monotone());
        assert!(tl.permanently_deleted.is_some());
        assert!(rendered.contains("TT Live"));
    }

    #[test]
    fn invariants_demo_clean_then_dirty() {
        let (clean, dirty) = invariants_demo();
        assert!(
            clean.is_compliant(),
            "{:?}",
            &clean.violations[..clean.violations.len().min(3)]
        );
        assert!(!dirty.is_compliant());
        assert!(!dirty.of_invariant("G6").is_empty());
    }

    #[test]
    fn reduced_scale_shapes_hold() {
        // The headline shapes must already hold at 20x reduced scale (the
        // harness keeps buffer-pool ratio and maintenance cadence
        // scale-invariant). `repro checks` verifies the same claims at
        // paper scale in release mode.
        let failures: Vec<String> = shape_checks(Scale(20))
            .into_iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name)
            .collect();
        assert!(failures.is_empty(), "failed shape checks: {failures:?}");
    }
}
