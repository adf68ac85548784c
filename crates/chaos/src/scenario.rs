//! The scenario DSL: typed compliance-stress steps compiled, under a
//! seed, into a concrete deterministic operation trace.
//!
//! A [`Scenario`] is a list of [`Step`]s — the vocabulary of compliance
//! stress this harness knows how to apply: erase-floods, revocation
//! storms, retention horizons expiring
//! mid-run, role churn, tenant churn. [`compile`] lowers the steps into
//! a [`CompiledScenario`]: an ordered list of [`TraceOp`]s (engine
//! submissions and clock advances) whose every key,
//! payload byte, and batch boundary is a pure function of
//! `(seed, scenario)` — so any run, crashed or not, can be reproduced
//! from those two values alone.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::purpose::well_known as wk;
use datacase_engine::frontend::{Request, Session};
use datacase_engine::Actor;
use datacase_sim::rng::{child_seed, SplitMix64};
use datacase_sim::time::{Dur, Ts};
use datacase_workloads::record::GdprMetadata;
use datacase_workloads::{MetaField, MetaSelector};

/// Keys of subject `s` live at `s * KEY_STRIDE + i`.
const KEY_STRIDE: u64 = 1_000;

/// Retention deadline for records that should never expire in-scenario.
const FAR_TTL: Ts = Ts(30_000_000 * 1_000_000_000);

/// One typed compliance-stress step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Register `subjects` data subjects with `records_each` records
    /// apiece (consent capture; the corpus later steps stress).
    Seed {
        /// Number of subjects to register.
        subjects: u32,
        /// Records created per subject.
        records_each: u32,
    },
    /// A burst of benign workload traffic (reads, updates, metadata
    /// reads, subject-access scans) over the live corpus.
    Workload {
        /// Number of operations.
        ops: u32,
    },
    /// Subjects exercise the right to erasure back-to-back: every live
    /// record of each chosen subject is erased at `interpretation`.
    EraseFlood {
        /// How many subjects flood in.
        subjects: u32,
        /// The grounding each erasure executes (Table 1 row).
        interpretation: ErasureInterpretation,
    },
    /// Rounds of processor reads interleaved with purpose changes that
    /// bump the policy epoch — every re-read must be decided against the
    /// changed policy state.
    RevocationStorm {
        /// Read / bump / re-read rounds.
        rounds: u32,
    },
    /// Records collected with a short retention horizon; the clock then
    /// advances past the horizon, and the retention drain erases each
    /// record at its deadline on the way (G17 is a maintained invariant:
    /// a clock advance alone keeps it).
    RetentionExpiry {
        /// Records created with the short horizon.
        records: u32,
        /// The horizon after which they must be gone.
        horizon: Dur,
    },
    /// Controller / processor / subject sessions alternate over the same
    /// records: denied processor erasures, reversible subject erasures
    /// with restores, controller updates.
    RoleChurn {
        /// Churn rounds.
        rounds: u32,
    },
    /// New tenants (subjects) onboard while old ones are permanently
    /// erased — the arrival/departure pattern that stresses key
    /// destruction and run purging under load.
    TenantChurn {
        /// Tenants arriving (and departing victims chosen).
        tenants: u32,
        /// Records each arriving tenant brings.
        records_each: u32,
    },
}

/// A named, seed-independent scenario: the steps only; all concrete
/// choices are made by [`compile`] under a seed.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name (used in reports and child-seed derivation).
    pub name: &'static str,
    /// The steps, applied in order.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// Small mixed scenario: a bit of everything, quick to run.
    pub fn quick() -> Scenario {
        Scenario {
            name: "quick",
            steps: vec![
                Step::Seed {
                    subjects: 4,
                    records_each: 3,
                },
                Step::Workload { ops: 24 },
                Step::EraseFlood {
                    subjects: 2,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                },
                Step::Workload { ops: 12 },
            ],
        }
    }

    /// The headline grounding: permanent-erasure flood over a seeded
    /// corpus — crash anywhere (including mid `destroy-key` /
    /// `purge-unit`), recover, and the Table-1 re-probe must find zero
    /// forensic residuals.
    pub fn erase_flood() -> Scenario {
        Scenario {
            name: "erase-flood",
            steps: vec![
                Step::Seed {
                    subjects: 6,
                    records_each: 4,
                },
                Step::Workload { ops: 16 },
                Step::EraseFlood {
                    subjects: 3,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                },
                Step::Workload { ops: 8 },
                Step::EraseFlood {
                    subjects: 2,
                    interpretation: ErasureInterpretation::StronglyDeleted,
                },
            ],
        }
    }

    /// Revocation storm: reads racing purpose changes.
    pub fn revocation_storm() -> Scenario {
        Scenario {
            name: "revocation-storm",
            steps: vec![
                Step::Seed {
                    subjects: 5,
                    records_each: 3,
                },
                Step::RevocationStorm { rounds: 4 },
                Step::EraseFlood {
                    subjects: 1,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                },
                Step::RevocationStorm { rounds: 2 },
            ],
        }
    }

    /// Retention horizons expiring mid-run, drained at their deadlines.
    pub fn retention() -> Scenario {
        Scenario {
            name: "retention",
            steps: vec![
                Step::Seed {
                    subjects: 3,
                    records_each: 3,
                },
                Step::RetentionExpiry {
                    records: 6,
                    horizon: Dur::from_secs(7_200),
                },
                Step::Workload { ops: 12 },
                Step::RetentionExpiry {
                    records: 4,
                    horizon: Dur::from_secs(3_600 * 24),
                },
            ],
        }
    }

    /// Role and tenant churn: arrivals, departures, denied processor
    /// erasures, reversible erase/restore cycles.
    pub fn churn() -> Scenario {
        Scenario {
            name: "churn",
            steps: vec![
                Step::Seed {
                    subjects: 4,
                    records_each: 2,
                },
                Step::RoleChurn { rounds: 4 },
                Step::TenantChurn {
                    tenants: 3,
                    records_each: 2,
                },
                Step::Workload { ops: 10 },
            ],
        }
    }

    /// Write-heavy scenario sized to force LSM memtable flushes and at
    /// least one compaction (the `compaction` crash point's stage), with
    /// a permanent erase-flood on top so run purging races compaction.
    pub fn compaction_pressure() -> Scenario {
        Scenario {
            name: "compaction-pressure",
            steps: vec![
                Step::Seed {
                    subjects: 8,
                    records_each: 6,
                },
                Step::Workload { ops: 48 },
                Step::EraseFlood {
                    subjects: 3,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                },
                Step::Workload { ops: 16 },
            ],
        }
    }

    /// Every built-in scenario, in a stable order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::quick(),
            Scenario::erase_flood(),
            Scenario::revocation_storm(),
            Scenario::retention(),
            Scenario::churn(),
            Scenario::compaction_pressure(),
        ]
    }
}

/// One lowered trace operation — the unit of crash granularity: a crash
/// aborts exactly one `TraceOp`, and recovery replays whole `TraceOp`s.
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// Submit a batch on a session.
    Submit {
        /// The submitting session.
        session: Session,
        /// The ordered batch.
        batch: Vec<Request>,
    },
    /// Advance the simulated clock to `to` (monotone; never backwards),
    /// through [`Frontend::advance_to`](datacase_engine::Frontend::advance_to):
    /// the retention drain erases every unit whose deadline it passes.
    Advance {
        /// Target instant.
        to: Ts,
    },
}

impl TraceOp {
    /// Short label for event traces.
    pub fn label(&self) -> String {
        match self {
            TraceOp::Submit { batch, .. } => format!("submit[{}]", batch.len()),
            TraceOp::Advance { to } => format!("advance[{}]", to.0),
        }
    }
}

/// The result of lowering `(seed, Scenario)`: the concrete trace plus
/// the oracle's residual obligations.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// The scenario's stable name.
    pub name: &'static str,
    /// The seed the trace was derived from.
    pub seed: u64,
    /// The trace, in submission order.
    pub ops: Vec<TraceOp>,
    /// Needles that must scan to **zero** across every persistent layer
    /// once the trace has fully executed: one per permanently-erased
    /// subject (their records' payloads all embed it), each with the index
    /// of the op in [`ops`](Self::ops) that erases the subject's keys.
    pub erased_needles: Vec<(Vec<u8>, usize)>,
}

impl CompiledScenario {
    /// Every key the trace creates or updates, ascending, once each.
    pub(crate) fn written_keys(&self) -> std::collections::BTreeSet<u64> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Submit { batch, .. } => Some(batch),
                TraceOp::Advance { .. } => None,
            })
            .flatten()
            .filter_map(|request| match request {
                Request::Create { key, .. } | Request::Update { key, .. } => Some(*key),
                _ => None,
            })
            .collect()
    }

    /// The keys an [`erased_needles`](Self::erased_needles) op erases.
    pub(crate) fn erased_keys(&self, op: usize) -> impl Iterator<Item = u64> + '_ {
        let TraceOp::Submit { batch, .. } = &self.ops[op] else {
            panic!("op[{op}] is not an erase batch");
        };
        batch.iter().filter_map(Request::key)
    }
}

/// Payload needle identifying subject `s` (fixed width, so no needle is
/// a prefix of another subject's).
fn subject_needle(s: u32) -> String {
    format!("CHAOS-S{s:06}")
}

/// Deterministic compiler state threaded through the steps.
struct Compiler {
    rng: SplitMix64,
    ops: Vec<TraceOp>,
    /// subject → live keys, in creation order (deterministic iteration).
    corpus: Vec<(u32, Vec<u64>)>,
    next_subject: u32,
    /// Lower bound for clock advances (strictly monotone).
    cursor: Ts,
    /// Permanently erased subjects, each with the index of its erase op.
    erased_perm: Vec<(u32, usize)>,
}

impl Compiler {
    fn payload(&mut self, subject: u32, key: u64) -> Vec<u8> {
        let mut p = format!("{}-K{key:08}-", subject_needle(subject)).into_bytes();
        for _ in 0..4 {
            p.extend_from_slice(format!("{:016x}", self.rng.next_u64()).as_bytes());
        }
        p
    }

    fn metadata(subject: u32, ttl: Ts) -> GdprMetadata {
        GdprMetadata {
            subject,
            purpose: wk::billing(),
            ttl,
            origin_device: 0,
            objects_to_sharing: false,
        }
    }

    fn create_subject(&mut self, records: u32, ttl: Ts) -> u32 {
        let s = self.next_subject;
        self.next_subject += 1;
        let mut batch = Vec::new();
        let mut keys = Vec::new();
        for i in 0..records {
            let key = s as u64 * KEY_STRIDE + i as u64;
            let payload = self.payload(s, key);
            batch.push(Request::Create {
                key,
                payload,
                metadata: Self::metadata(s, ttl),
            });
            keys.push(key);
        }
        self.corpus.push((s, keys));
        self.ops.push(TraceOp::Submit {
            session: Session::new(Actor::Controller),
            batch,
        });
        s
    }

    /// A deterministic random live key, if any exist.
    fn pick_live(&mut self) -> Option<(u32, u64)> {
        let populated: Vec<usize> = (0..self.corpus.len())
            .filter(|&i| !self.corpus[i].1.is_empty())
            .collect();
        if populated.is_empty() {
            return None;
        }
        let ci = populated[self.rng.next_below(populated.len() as u64) as usize];
        let (s, keys) = &self.corpus[ci];
        let key = keys[self.rng.next_below(keys.len() as u64) as usize];
        Some((*s, key))
    }

    /// Subjects that still have live records, oldest first.
    fn live_subjects(&self) -> Vec<u32> {
        self.corpus
            .iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(s, _)| *s)
            .collect()
    }

    fn remove_key(&mut self, s: u32, key: u64) {
        for (cs, keys) in &mut self.corpus {
            if *cs == s {
                keys.retain(|&k| k != key);
            }
        }
    }

    fn drain_subject(&mut self, s: u32) -> Vec<u64> {
        for (cs, keys) in &mut self.corpus {
            if *cs == s {
                return std::mem::take(keys);
            }
        }
        Vec::new()
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Seed {
                subjects,
                records_each,
            } => {
                for _ in 0..subjects {
                    self.create_subject(records_each, FAR_TTL);
                }
            }
            Step::Workload { ops } => {
                // Subject-session traffic (the WCus shape): the
                // subject-access purpose grounds reads, updates and
                // metadata reads, so a legitimate run stays clean under
                // the invariant catalog.
                let mut batch = Vec::new();
                for _ in 0..ops {
                    let Some((s, key)) = self.pick_live() else {
                        break;
                    };
                    let req = match self.rng.next_below(5) {
                        0 => Request::Read { key },
                        1 => {
                            let payload = self.payload(s, key);
                            Request::Update { key, payload }
                        }
                        2 => Request::ReadMeta { key },
                        3 => Request::ReadByMeta {
                            selector: MetaSelector::BySubject(s),
                        },
                        _ => Request::Read { key },
                    };
                    batch.push(req);
                    if batch.len() == 8 {
                        self.ops.push(TraceOp::Submit {
                            session: Session::new(Actor::Subject),
                            batch: std::mem::take(&mut batch),
                        });
                    }
                }
                if !batch.is_empty() {
                    self.ops.push(TraceOp::Submit {
                        session: Session::new(Actor::Subject),
                        batch,
                    });
                }
            }
            Step::EraseFlood {
                subjects,
                interpretation,
            } => {
                let victims: Vec<u32> = self
                    .live_subjects()
                    .into_iter()
                    .take(subjects as usize)
                    .collect();
                for s in victims {
                    let keys = self.drain_subject(s);
                    let mut batch = Vec::new();
                    for key in keys {
                        batch.push(Request::Erase {
                            key,
                            interpretation,
                        });
                    }
                    if batch.is_empty() {
                        continue;
                    }
                    self.ops.push(TraceOp::Submit {
                        session: Session::new(Actor::Subject),
                        batch,
                    });
                    if interpretation == ErasureInterpretation::PermanentlyDeleted {
                        self.erased_perm.push((s, self.ops.len() - 1));
                    }
                    // A read burst between floods keeps erase work and
                    // span work interleaved at crash-point granularity.
                    if let Some((_, key)) = self.pick_live() {
                        self.ops.push(TraceOp::Submit {
                            session: Session::new(Actor::Controller),
                            batch: vec![Request::Read { key }],
                        });
                    }
                }
            }
            Step::RevocationStorm { rounds } => {
                for _ in 0..rounds {
                    let mut targets = Vec::new();
                    for _ in 0..4 {
                        if let Some((_, key)) = self.pick_live() {
                            targets.push(key);
                        }
                    }
                    targets.dedup();
                    if targets.is_empty() {
                        continue;
                    }
                    let processor = Session::new(Actor::Processor);
                    let reads: Vec<Request> =
                        targets.iter().map(|&key| Request::Read { key }).collect();
                    // First reads (allows and denials alike).
                    self.ops.push(TraceOp::Submit {
                        session: processor.clone(),
                        batch: reads.clone(),
                    });
                    // Purpose changes bump the policy epoch.
                    let bump: Vec<Request> = targets
                        .iter()
                        .map(|&key| Request::UpdateMeta {
                            key,
                            field: MetaField::Purpose,
                        })
                        .collect();
                    self.ops.push(TraceOp::Submit {
                        session: Session::new(Actor::Controller),
                        batch: bump,
                    });
                    // Re-read under the changed policy state.
                    self.ops.push(TraceOp::Submit {
                        session: processor,
                        batch: reads,
                    });
                }
            }
            Step::RetentionExpiry { records, horizon } => {
                let ttl = self.cursor + horizon;
                let s = self.create_subject(records, ttl);
                // Touch the expiring records while they are still live.
                self.ops.push(TraceOp::Submit {
                    session: Session::new(Actor::Controller),
                    batch: vec![Request::ReadByMeta {
                        selector: MetaSelector::BySubject(s),
                    }],
                });
                // Advance past the horizon: the drain keeps G17.
                self.cursor = ttl + Dur::from_secs(60);
                self.ops.push(TraceOp::Advance { to: self.cursor });
                self.drain_subject(s);
            }
            Step::RoleChurn { rounds } => {
                for _ in 0..rounds {
                    let Some((s, key)) = self.pick_live() else {
                        break;
                    };
                    // Processor maintenance write under the retention
                    // purpose (the one purpose grounding a processor's
                    // UpdateValue).
                    let payload = self.payload(s, key);
                    self.ops.push(TraceOp::Submit {
                        session: Session::new(Actor::Processor).for_purpose(wk::retention()),
                        batch: vec![Request::Update { key, payload }],
                    });
                    // A processor cannot execute the right to erasure:
                    // deterministic denial, no history recorded.
                    self.ops.push(TraceOp::Submit {
                        session: Session::new(Actor::Processor),
                        batch: vec![Request::Erase {
                            key,
                            interpretation: ErasureInterpretation::Deleted,
                        }],
                    });
                    // The subject exercises reversible inaccessibility on
                    // one of their records; a controller read of another
                    // key keeps roles alternating.
                    let victim = self.rng.next_below(4) == 0;
                    if victim {
                        self.ops.push(TraceOp::Submit {
                            session: Session::new(Actor::Subject),
                            batch: vec![Request::Erase {
                                key,
                                interpretation: ErasureInterpretation::ReversiblyInaccessible,
                            }],
                        });
                        self.remove_key(s, key);
                    }
                    if let Some((_, other)) = self.pick_live() {
                        self.ops.push(TraceOp::Submit {
                            session: Session::new(Actor::Controller),
                            batch: vec![Request::Read { key: other }],
                        });
                    }
                }
            }
            Step::TenantChurn {
                tenants,
                records_each,
            } => {
                for _ in 0..tenants {
                    self.create_subject(records_each, FAR_TTL);
                    if let Some(&victim) = self.live_subjects().first() {
                        let keys = self.drain_subject(victim);
                        let batch: Vec<Request> = keys
                            .into_iter()
                            .map(|key| Request::Erase {
                                key,
                                interpretation: ErasureInterpretation::PermanentlyDeleted,
                            })
                            .collect();
                        if !batch.is_empty() {
                            self.ops.push(TraceOp::Submit {
                                session: Session::new(Actor::Subject),
                                batch,
                            });
                            self.erased_perm.push((victim, self.ops.len() - 1));
                        }
                    }
                }
            }
        }
    }
}

/// Lower `(seed, scenario)` into the concrete deterministic trace.
pub fn compile(seed: u64, scenario: &Scenario) -> CompiledScenario {
    let mut c = Compiler {
        rng: SplitMix64::new(child_seed(seed, scenario.name)),
        ops: Vec::new(),
        corpus: Vec::new(),
        next_subject: 1,
        cursor: Ts::ZERO,
        erased_perm: Vec::new(),
    };
    for step in &scenario.steps {
        c.step(step);
    }
    CompiledScenario {
        name: scenario.name,
        seed,
        ops: c.ops,
        erased_needles: c
            .erased_perm
            .iter()
            .map(|&(s, op)| (subject_needle(s).into_bytes(), op))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic() {
        for scenario in Scenario::all() {
            let a = compile(7, &scenario);
            let b = compile(7, &scenario);
            assert_eq!(a.ops.len(), b.ops.len(), "{}", scenario.name);
            for (x, y) in a.ops.iter().zip(&b.ops) {
                match (x, y) {
                    (TraceOp::Submit { batch: bx, .. }, TraceOp::Submit { batch: by, .. }) => {
                        assert_eq!(bx, by)
                    }
                    (TraceOp::Advance { to: tx }, TraceOp::Advance { to: ty }) => {
                        assert_eq!(tx, ty)
                    }
                    _ => panic!("op shapes diverge"),
                }
            }
            assert_eq!(a.erased_needles, b.erased_needles);
        }
    }

    #[test]
    fn seeds_change_the_trace() {
        let s = Scenario::quick();
        let a = compile(1, &s);
        let b = compile(2, &s);
        let payload_of = |c: &CompiledScenario| -> Vec<u8> {
            for op in &c.ops {
                if let TraceOp::Submit { batch, .. } = op {
                    for r in batch {
                        if let Request::Create { payload, .. } = r {
                            return payload.clone();
                        }
                    }
                }
            }
            Vec::new()
        };
        assert_ne!(payload_of(&a), payload_of(&b), "payload filler is seeded");
    }

    #[test]
    fn erase_flood_records_needles() {
        let c = compile(3, &Scenario::erase_flood());
        assert_eq!(
            c.erased_needles.len(),
            3,
            "three subjects permanently erased"
        );
        for (needle, op) in &c.erased_needles {
            assert!(needle.starts_with(b"CHAOS-S"));
            // The recorded op permanently erases the subject's keys.
            let TraceOp::Submit { batch, .. } = &c.ops[*op] else {
                panic!("op[{op}] is not a submit");
            };
            assert!(!batch.is_empty());
            for req in batch {
                let Request::Erase {
                    key,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                } = req
                else {
                    panic!("op[{op}] holds {req:?}");
                };
                let subject = (key / KEY_STRIDE) as u32;
                assert_eq!(subject_needle(subject).as_bytes(), needle.as_slice());
            }
        }
    }
}
