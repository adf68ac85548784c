//! Experiment harness functions, one per paper artifact.

use datacase_core::checker::ComplianceReport;
use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::grounding::properties::ErasureProperties;
use datacase_core::grounding::table::{Backend, GroundingTable};
use datacase_core::invariants::full_catalog;
use datacase_core::regulation::Regulation;
use datacase_core::timeline::ErasureTimeline;
use datacase_engine::driver::{run_ops, RunStats};
use datacase_engine::erasure::probe;
use datacase_engine::frontend::{Batch, Frontend, Request, Session};
use datacase_engine::profiles::{DeleteStrategy, EngineConfig, ProfileKind};
use datacase_engine::space::SpaceReport;
use datacase_engine::Actor;
use datacase_sim::report::{f3, Table};
use datacase_storage::backend::BackendKind;
use datacase_workloads::gdprbench::{GdprBench, Mix};
use datacase_workloads::ycsb::{Ycsb, YcsbWorkload};

/// Scale knob for quick runs (divides record/txn counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    /// Paper-faithful sizes.
    pub const FULL: Scale = Scale(1);
    /// 10× smaller, for smoke runs (`repro --quick`) and tests.
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
