#![deny(missing_docs)]
//! The session-scoped, batch-first engine frontend.
//!
//! This module is the **only public write path** into a compliant engine:
//! callers open a [`Frontend`] over an [`EngineConfig`], describe who is
//! asking (and why, and until when) with a [`Session`], and submit a
//! slice of typed [`Request`]s. Every request is answered with a
//! [`Response`] carrying `Result<Reply, EngineError>` plus an [`AuditRef`]
//! pointing at the audit-log records the request produced — so the
//! regulation groundings (policy enforcement, erasure semantics, audit
//! completeness) hold at the system boundary by construction, with no
//! raw-accessor side doors.
//!
//! ```
//! use datacase_engine::frontend::{Frontend, Request, Session};
//! use datacase_engine::profiles::EngineConfig;
//! use datacase_engine::Actor;
//!
//! let mut fe = Frontend::new(EngineConfig::p_base());
//! let controller = Session::new(Actor::Controller);
//! let metadata = datacase_workloads::record::GdprMetadata {
//!     subject: 7,
//!     purpose: datacase_core::purpose::well_known::billing(),
//!     ttl: datacase_sim::time::Ts::from_secs(3600),
//!     origin_device: 0,
//!     objects_to_sharing: false,
//! };
//! let resp = fe.run(
//!     &controller,
//!     Request::Create { key: 1, payload: b"reading".to_vec(), metadata },
//! );
//! assert!(resp.is_done());
//! ```
//!
//! Deliberate escape hatch: [`Frontend::forensic`] returns a
//! clearly-marked guard for tests, probes, and seized-disk simulations.
//! It bypasses enforcement and must never appear on a production path.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use datacase_core::checker::ComplianceReport;
use datacase_core::entity::EntityRegistry;
use datacase_core::history::{History, HistoryTuple};
use datacase_core::ids::UnitId;
use datacase_core::invariants::EvidenceFlags;
use datacase_core::purpose::PurposeRegistry;
use datacase_core::regulation::Regulation;
use datacase_core::state::DatabaseState;
use datacase_core::value::Value;
use datacase_policy::enforcer::PolicyEpoch;
use datacase_sim::time::Ts;
use datacase_sim::{Meter, SimClock};
use datacase_storage::backend::{BackendStats, DurableSnapshot};
use datacase_storage::forensic::ForensicFindings;

use crate::keys::KeyIndex;
use crate::model::Model;
use crate::profiles::EngineConfig;
use crate::substrate::Substrate;

pub use crate::request::{Actor, AuditRef, Batch, Reply, Request, Response, Session};

/// The compliant engine: the system substrate, the Data-CASE model kept
/// next to it, and the key index binding the two, executing batches of
/// [`Request`]s through a single enforcement choke point.
///
/// The request handlers live in `ops`, the erasure plans in
/// [`erasure`](crate::erasure); both work on the holders directly.
pub struct Frontend {
    pub(crate) config: EngineConfig,
    pub(crate) substrate: Substrate,
    pub(crate) model: Model,
    pub(crate) keys: KeyIndex,
    pub(crate) clock: SimClock,
    pub(crate) meter: Arc<Meter>,
    /// Workload deletes since the delete strategy's last maintenance run.
    pub(crate) deletes_since_maintenance: u64,
    /// Workload requests since the last checkpoint.
    pub(crate) ops_since_checkpoint: u64,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("profile", &self.config.profile)
            .field("keys", &self.keys.len())
            .finish()
    }
}

impl Frontend {
    /// Build an engine for `config` on a fresh clock and meter.
    pub fn new(config: EngineConfig) -> Frontend {
        Frontend::on_shard(config, 0)
    }

    /// [`Frontend::new`] as shard `shard`, whose tuple and audit IVs
    /// carry `shard` (every shard numbers its units and records alike).
    pub(crate) fn on_shard(config: EngineConfig, shard: u16) -> Frontend {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let audit = crate::substrate::audit_log(&config, shard, &clock, &meter);
        let model = Model::new(audit, config.fault.clone(), clock.now());
        let substrate = Substrate::new(&config, &model, shard, &clock, &meter);
        Frontend {
            config,
            substrate,
            model,
            keys: KeyIndex::default(),
            clock,
            meter,
            deletes_since_maintenance: 0,
            ops_since_checkpoint: 0,
        }
    }

    /// Submit a batch under `session`, returning one [`Response`] per
    /// request in order.
    ///
    /// The single enforcement choke point: each request is decided,
    /// applied and accounted (see the [crate docs](crate)) before the next
    /// starts, so one batch of *n* requests is *n* single-request batches
    /// down to the audit chain's bytes — and the session deadline is
    /// checked per request, denying a mid-batch tail exactly as
    /// single-request submissions would.
    pub fn submit(&mut self, session: &Session, requests: &[Request]) -> Vec<Response> {
        crate::exec::execute(self, session, requests)
    }

    /// Submit a single request (a one-element batch).
    pub fn run(&mut self, session: &Session, request: Request) -> Response {
        self.submit(session, std::slice::from_ref(&request))
            .pop()
            .expect("one request in, one response out")
    }

    /// Let idle time pass until `to` (a request charges the clock only its
    /// own work). The clock stops at every retention deadline on the way,
    /// where the retention drain erases the units due, then moves on to
    /// `to`: a unit is erased at its deadline, not after the wait.
    pub fn advance_to(&mut self, to: Ts) {
        while let Some(deadline) = self.keys.next_deadline().filter(|&d| d <= to) {
            self.clock.advance_to(deadline);
            crate::erasure::drain(self);
        }
        self.clock.advance_to(to);
    }

    // -- read-only surface -------------------------------------------------

    /// The engine's simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The engine's work meter.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The abstract Data-CASE state.
    pub fn state(&self) -> &DatabaseState {
        &self.model.state
    }

    /// The action history: a read-only view of the chained audit log,
    /// one tuple per record that names an action (a denial names none).
    pub fn history(&self) -> &dyn History {
        self.model.audit.history()
    }

    /// The entity registry.
    pub fn entities(&self) -> &EntityRegistry {
        &self.model.entities
    }

    /// The purpose registry.
    pub fn purposes(&self) -> &PurposeRegistry {
        &self.model.purposes
    }

    /// Number of requests denied by policy enforcement so far: the
    /// meter's count, which every enforcer bumps once per denial.
    pub fn denied(&self) -> u64 {
        self.meter.denials.load(Ordering::Relaxed)
    }

    /// The engine's policy epoch: the meter's count of grants (metadata
    /// updates) and revocations (erasures) — the policy state's version.
    pub fn policy_epoch(&self) -> PolicyEpoch {
        PolicyEpoch(self.meter.policy_mutations.load(Ordering::Relaxed))
    }

    /// Unit id stored under a key.
    pub fn unit_of_key(&self, key: u64) -> Option<UnitId> {
        self.keys.unit_of(key)
    }

    /// Backend statistics on the substrate-independent vocabulary.
    pub fn backend_stats(&self) -> BackendStats {
        self.substrate.backend.stats()
    }

    /// Number of audit-log records written so far — also the sequence
    /// number of the latest one.
    pub fn audit_records(&self) -> usize {
        self.model.audit.records()
    }

    /// Run the compliance checker against this engine's model, with the
    /// audit chain's verification and the configuration's encryption at
    /// rest as evidence.
    pub fn compliance_report(&self, regulation: &Regulation) -> ComplianceReport {
        let evidence = EvidenceFlags {
            audit_log_tamper_evident: self.model.audit.verify_chain(),
            encryption_at_rest_default: self.config.encryption_at_rest(),
        };
        self.model.check(regulation, evidence, self.clock.now())
    }

    /// The forensic / test-only escape hatch.
    ///
    /// Everything behind this guard **bypasses enforcement**: it models
    /// what a seized disk, a rogue administrator, or a test harness can
    /// see and do. Production paths must never call it — the compliant
    /// write path is [`Frontend::submit`].
    pub fn forensic(&mut self) -> Forensic<'_> {
        Forensic { fe: self }
    }
}

/// Enforcement-bypassing guard returned by [`Frontend::forensic`].
///
/// Intended for tests, property probes, and the seized-disk scenarios in
/// the examples; clearly not part of the compliant request path.
pub struct Forensic<'f> {
    fe: &'f mut Frontend,
}

impl Forensic<'_> {
    /// Scan all persistent layers (pages, WAL, runs, audit logs) for
    /// `needle`, checkpointing first so buffered state is visible.
    pub fn scan(&mut self, needle: &[u8]) -> ForensicFindings {
        let backend = &mut self.fe.substrate.backend;
        backend.checkpoint();
        let mut findings = backend.scan_physical(needle);
        findings.audit_records = self.fe.model.audit.scan(needle);
        findings
    }

    /// Read a record's stored bytes directly off the substrate,
    /// optionally including reversibly-hidden versions.
    pub fn raw_read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>> {
        self.fe.substrate.backend.read(key, include_hidden)
    }

    /// Force a checkpoint now: flush buffered pages (heap) or the memtable
    /// (LSM). The WAL is not recycled.
    pub fn checkpoint(&mut self) {
        self.fe.substrate.backend.checkpoint();
    }

    /// Record an action as if enforcement had been bypassed (the
    /// violation-injection scenarios feeding the compliance checker): the
    /// tuple goes on the chain through the model's one write path, with
    /// an empty payload, like any other action.
    pub fn inject_history(&mut self, tuple: HistoryTuple) {
        let HistoryTuple {
            unit,
            purpose,
            entity,
            action,
            at,
        } = tuple;
        self.fe
            .model
            .record(unit, purpose, entity, action, at, Vec::new());
    }

    /// Derive a unit from `sources` (a mirror/backup copy), store its
    /// payload under `key`, and bind it so erasure cascades can find it.
    pub fn plant_derived(
        &mut self,
        sources: &[UnitId],
        how: &str,
        identifying: bool,
        invertible: bool,
        payload: &[u8],
        key: u64,
    ) -> UnitId {
        let now = self.fe.clock.now();
        let unit = self.fe.model.state.derive(
            sources,
            how,
            identifying,
            invertible,
            Value::Stored { len: payload.len() },
            now,
        );
        self.fe
            .substrate
            .backend
            .insert(key, unit.0, payload)
            .expect("derived insert");
        let deadline = self.fe.model.erase_deadline(unit);
        self.fe.keys.bind_derived(unit, key, deadline);
        unit
    }

    /// Destroy a unit's encryption key (crypto-erasure). Returns false
    /// when tuple encryption is off or the key is already gone.
    pub fn destroy_key(&mut self, unit: UnitId) -> bool {
        self.fe
            .substrate
            .vault
            .as_mut()
            .is_some_and(|vault| vault.destroy_key(unit.0))
    }

    /// Whether the tuple vault holds a live key for `unit`: `false` with
    /// tuple encryption off, or the key never made or destroyed.
    pub fn key_is_live(&self, unit: UnitId) -> bool {
        let vault = self.fe.substrate.vault.as_ref();
        vault.is_some_and(|vault| vault.is_live(unit.0))
    }

    /// How many keystream entries the tuple vault currently caches —
    /// `0` when tuple encryption or the keystream cache is off. Lets the
    /// erasure harnesses assert the cache actually warmed before an
    /// erasure, and actually emptied after one.
    pub fn cached_keystreams(&mut self) -> usize {
        self.fe
            .substrate
            .vault
            .as_ref()
            .map_or(0, |vault| vault.cached_keystreams())
    }

    /// Verify the audit log's tamper-evident chain.
    pub fn verify_chain(&self) -> bool {
        self.fe.model.audit.verify_chain()
    }

    /// The audit chain's head MAC — a 32-byte digest over every record's
    /// facts and payload commitment, in order. Two engines whose heads
    /// match logged the same records, whether or not either has since
    /// redacted some (the batch-parity and serial-replay properties
    /// compare runs through this).
    pub fn chain_head(&self) -> [u8; 32] {
        self.fe.model.audit.chain_head()
    }

    /// Salvage the storage substrate's durable state — exactly what
    /// survives a crash: the heap's retained WAL records (only the tail
    /// once the engine's checkpoint cadence has recycled the log) or the
    /// LSM's committed run manifest (flushed runs only; the memtable is
    /// lost). See [`DurableSnapshot`] for what recovery then restores.
    /// The chaos harness calls this on a wrecked engine
    /// (after a [`CrashSignal`](datacase_sim::fault::CrashSignal) panic
    /// was caught) and rebuilds from it via
    /// [`recover_backend`](datacase_storage::backend::recover_backend).
    pub fn durable_snapshot(&mut self) -> DurableSnapshot {
        self.fe.substrate.backend.durable_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use datacase_core::grounding::erasure::ErasureInterpretation;
    use datacase_core::purpose::well_known as wk;
    use datacase_workloads::gdprbench::{GdprBench, Mix};
    use datacase_workloads::record::GdprMetadata;
    use datacase_workloads::MetaField;

    fn meta(subject: u32) -> GdprMetadata {
        GdprMetadata {
            subject,
            purpose: wk::billing(),
            ttl: Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        }
    }

    fn loaded(config: EngineConfig, n: usize) -> (Frontend, GdprBench) {
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(42, 50);
        let controller = Session::new(Actor::Controller);
        for r in fe.submit(&controller, &bench.load_phase(n)) {
            assert!(r.is_done(), "load failed: {:?}", r.outcome);
        }
        (fe, bench)
    }

    #[test]
    fn op_stream_batch_roundtrip() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 100);
        let processor = Session::new(Actor::Processor);
        let r = fe.run(&processor, Request::Read { key: 5 });
        assert_eq!(r.value(), Some(100));
        assert!(!r.audit.is_empty(), "reads are audit-logged");
    }

    #[test]
    fn error_taxonomy_separates_outcomes() {
        let (mut fe, _) = loaded(EngineConfig::p_gbench(), 20);
        let subject = Session::new(Actor::Subject);
        let processor = Session::new(Actor::Processor);
        // Never-stored key: NotFound.
        let r = fe.run(&processor, Request::Read { key: 999_999 });
        assert!(matches!(r.outcome, Err(EngineError::NotFound { key }) if key == 999_999));
        // Post-erasure read on an enforcing profile: Denied (policies
        // were revoked with the erasure request).
        assert!(fe.run(&subject, Request::Delete { key: 3 }).is_done());
        let r = fe.run(&processor, Request::Read { key: 3 });
        assert!(r.is_denied(), "{:?}", r.outcome);
        // The same on a non-enforcing engine: RetentionExpired, not a
        // bare NotFound — the record is gone by design.
        let (mut fe2, _) = loaded(
            EngineConfig::stock(crate::profiles::DeleteStrategy::DeleteVacuum),
            20,
        );
        let controller = Session::new(Actor::Controller);
        assert!(fe2.run(&controller, Request::Delete { key: 3 }).is_done());
        let r = fe2.run(&controller, Request::Read { key: 3 });
        assert!(
            matches!(r.outcome, Err(EngineError::RetentionExpired { key: 3, .. })),
            "{:?}",
            r.outcome
        );
        // Duplicate create: a backend (constraint) failure.
        let r = fe2.run(
            &controller,
            Request::Create {
                key: 5,
                payload: vec![1],
                metadata: meta(1),
            },
        );
        assert!(
            r.err().is_some_and(EngineError::is_backend),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn session_deadline_gates_admission() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 10);
        let expired = Session::new(Actor::Processor).until(Ts::ZERO);
        let rs = fe.submit(
            &expired,
            &[Request::Read { key: 1 }, Request::Read { key: 2 }],
        );
        assert!(rs.iter().all(Response::is_denied), "{rs:?}");
        assert!(rs.iter().all(|r| r.audit.is_empty()));
        // A live deadline admits normally.
        let live = Session::new(Actor::Processor).until(Ts::MAX);
        assert_eq!(fe.run(&live, Request::Read { key: 1 }).value(), Some(100));
    }

    #[test]
    fn declared_purpose_narrows_access() {
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 10);
        // The processor declaring the audit purpose has no policy for it.
        let wrong = Session::new(Actor::Processor).for_purpose(wk::audit());
        assert!(fe.run(&wrong, Request::Read { key: 1 }).is_denied());
        // Declaring the record's collection purpose works where granted.
        let (mut fe2, _) = loaded(EngineConfig::p_sys(), 10);
        let subject = Session::new(Actor::Subject).for_purpose(wk::subject_access());
        assert!(fe2
            .run(&subject, Request::Read { key: 1 })
            .value()
            .is_some());
    }

    #[test]
    fn audit_refs_are_contiguous_and_monotone() {
        let (mut fe, mut bench) = loaded(EngineConfig::p_base(), 50);
        let subject = Session::new(Actor::Subject);
        let rs = fe.submit(&subject, &bench.ops(120, Mix::wcus()));
        let mut next = None::<u64>;
        for r in &rs {
            if let Some(expected) = next {
                assert_eq!(r.audit.start, expected, "audit refs must tile the log");
            }
            next = Some(r.audit.start + r.audit.records);
        }
        let end = next.unwrap() - 1;
        assert_eq!(end, rs.last().unwrap().audit.last().unwrap_or(end));
        // Sequence numbers are the log's own record count: the last ref
        // ends at the latest record the log holds.
        assert_eq!(end, fe.audit_records() as u64);
    }

    #[test]
    fn erase_bumps_the_epoch_and_later_reads_are_denied() {
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 10);
        let session = Session::new(Actor::Processor);
        let epoch_before = fe.policy_epoch();
        assert!(fe.run(&session, Request::Read { key: 2 }).value().is_some());
        // Erase revokes policies: the epoch moves, and the allow the
        // session just saw does not outlive it.
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::Erase {
                    key: 2,
                    interpretation: ErasureInterpretation::Deleted,
                },
            )
            .outcome
            .is_ok());
        assert!(fe.policy_epoch() > epoch_before, "erase bumps the epoch");
        let r = fe.run(&session, Request::Read { key: 2 });
        assert!(r.outcome.is_err(), "stale allow leaked: {:?}", r.outcome);
    }

    #[test]
    fn every_grant_and_revocation_bumps_the_epoch_and_registration_does_not() {
        // RBAC ignores per-unit mutations; the count holds regardless.
        for profile in crate::profiles::ProfileKind::PAPER {
            let mut fe = Frontend::new(EngineConfig::for_profile(profile));
            let controller = Session::new(Actor::Controller);
            let create = Request::Create {
                key: 1,
                payload: b"row".to_vec(),
                metadata: meta(1),
            };
            // A new subject and a new unit: fresh ids no earlier decision
            // was about.
            assert!(fe.run(&Session::new(Actor::Subject), create).is_done());
            assert_eq!(fe.policy_epoch(), PolicyEpoch(0), "{profile:?}");
            let grant = Request::UpdateMeta {
                key: 1,
                field: MetaField::Purpose,
            };
            assert!(fe.run(&controller, grant).is_done());
            assert_eq!(fe.policy_epoch(), PolicyEpoch(1), "{profile:?}");
            let erase = Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::Deleted,
            };
            assert!(fe.run(&controller, erase).outcome.is_ok());
            assert_eq!(fe.policy_epoch(), PolicyEpoch(2), "{profile:?}");
            assert_eq!(fe.meter().snapshot().policy_mutations, 2, "{profile:?}");
        }
    }

    #[test]
    fn a_gdprbench_run_reaches_its_pinned_epoch() {
        // Controller and customer traffic on P_SYS: metadata updates
        // grant, deletes revoke, and denied requests mutate nothing. The
        // count is the one the versioning wrapper kept before the engine
        // counted in its meter.
        let (mut fe, mut bench) = loaded(EngineConfig::p_sys(), 100);
        fe.submit(
            &Session::new(Actor::Controller),
            &bench.ops(300, Mix::wcon()),
        );
        fe.submit(&Session::new(Actor::Subject), &bench.ops(300, Mix::wcus()));
        assert_eq!(fe.denied(), 35);
        assert_eq!(fe.policy_epoch(), PolicyEpoch(357));
    }

    #[test]
    fn cross_session_revoke_denies_other_sessions_next_read() {
        // Session B is allowed a read; a revoke issued in session A (the
        // subject's erasure request) must deny B's next read even though
        // B never observed the mutation: every access is decided against
        // the current policy state, so there is no per-session staleness
        // window at all.
        for profile in [
            crate::profiles::ProfileKind::PGBench,
            crate::profiles::ProfileKind::PSys,
        ] {
            let mut config = EngineConfig::for_profile(profile);
            config.delete_strategy = crate::profiles::DeleteStrategy::TombstoneAttribute;
            let (mut fe, _) = loaded(config, 10);
            let session_b = Session::new(Actor::Processor);
            let allowed = fe.run(&session_b, Request::Read { key: 3 });
            assert!(
                allowed.value().is_some(),
                "{profile:?}: {:?}",
                allowed.outcome
            );
            let session_a = Session::new(Actor::Subject);
            assert!(fe.run(&session_a, Request::Delete { key: 3 }).is_done());
            let r = fe.run(&session_b, Request::Read { key: 3 });
            assert!(
                r.is_denied(),
                "{profile:?}: session B reused a stale allow: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn repeat_denial_is_rechecked_and_audited_until_a_grant_flips_it() {
        // The deny-then-grant flow: a processor reading under a purpose
        // it holds no policy for is denied; the controller's metadata
        // update then grants the analytics policy, bumping the epoch —
        // the denial must not outlive it.
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 10);
        let analyst = Session::new(Actor::Processor).for_purpose(wk::analytics());
        let denied = fe.run(&analyst, Request::Read { key: 4 });
        assert!(denied.is_denied(), "{:?}", denied.outcome);
        // Same request again: decided afresh, metered and audit-logged.
        let before = fe.meter().snapshot();
        let denied_again = fe.run(&analyst, Request::Read { key: 4 });
        assert!(denied_again.is_denied());
        assert!(
            !denied_again.audit.is_empty(),
            "repeat denials still write DENIED audit records"
        );
        let diff = fe.meter().snapshot().diff(&before);
        assert_eq!(diff.policy_checks, 1, "a repeat denial is one policy check");
        assert_eq!(diff.denials, 1, "and the denial itself is metered");
        // MetaField::Purpose grants the processor an analytics policy.
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::UpdateMeta {
                    key: 4,
                    field: MetaField::Purpose,
                },
            )
            .is_done());
        let r = fe.run(&analyst, Request::Read { key: 4 });
        assert!(
            r.value().is_some(),
            "grant must flip the deny: {:?}",
            r.outcome
        );
    }

    #[test]
    fn erase_and_restore_requests_drive_the_compliance_path() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 10);
        let controller = Session::new(Actor::Controller);
        let r = fe.run(
            &controller,
            Request::Erase {
                key: 4,
                interpretation: ErasureInterpretation::ReversiblyInaccessible,
            },
        );
        assert_eq!(
            r.reply(),
            Some(Reply::Erased(ErasureInterpretation::ReversiblyInaccessible))
        );
        assert_eq!(
            fe.run(&controller, Request::Restore { key: 4 }).reply(),
            Some(Reply::Restored)
        );
        // Restoring a live record is refused.
        assert!(fe
            .run(&controller, Request::Restore { key: 4 })
            .outcome
            .is_err());
        // Erasing an unknown key is NotFound.
        let r = fe.run(
            &controller,
            Request::Erase {
                key: 12345,
                interpretation: ErasureInterpretation::Deleted,
            },
        );
        assert!(r.is_not_found());
    }

    #[test]
    fn erase_requests_are_policy_checked() {
        // A processor holds no compliance-erase policy: its erase request
        // is denied at the boundary and the record stays live. The
        // subject's and controller's requests are authorised.
        for profile in [
            crate::profiles::ProfileKind::PBase,
            crate::profiles::ProfileKind::PSys,
        ] {
            let (mut fe, _) = loaded(EngineConfig::for_profile(profile), 10);
            let r = fe.run(
                &Session::new(Actor::Processor),
                Request::Erase {
                    key: 1,
                    interpretation: ErasureInterpretation::Deleted,
                },
            );
            assert!(r.is_denied(), "{profile:?}: {:?}", r.outcome);
            let unit = fe.unit_of_key(1).unwrap();
            assert!(!fe.state().unit(unit).unwrap().erasure.is_erased());
            assert!(fe
                .run(
                    &Session::new(Actor::Subject),
                    Request::Erase {
                        key: 1,
                        interpretation: ErasureInterpretation::Deleted,
                    },
                )
                .outcome
                .is_ok());
            // Escalating the already-erased unit stays authorised even
            // though its policies were revoked with the first request.
            assert!(fe
                .run(
                    &Session::new(Actor::Controller),
                    Request::Erase {
                        key: 1,
                        interpretation: ErasureInterpretation::PermanentlyDeleted,
                    },
                )
                .outcome
                .is_ok());
        }
    }

    #[test]
    fn overdue_units_stay_erasable_after_policies_lapse() {
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 5);
        // Way past every record's retention deadline: the unit policies
        // have lapsed, but retention execution must still be possible.
        // The request's drain deletes the unit first, so escalate past it.
        fe.clock().advance_to(Ts::from_secs(400 * 24 * 3600));
        let r = fe.run(
            &Session::new(Actor::Controller),
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::StronglyDeleted,
            },
        );
        assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    }

    #[test]
    fn restore_denied_for_processors() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 5);
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::Erase {
                    key: 1,
                    interpretation: ErasureInterpretation::ReversiblyInaccessible,
                },
            )
            .outcome
            .is_ok());
        let r = fe.run(&Session::new(Actor::Processor), Request::Restore { key: 1 });
        assert!(r.is_denied(), "{:?}", r.outcome);
        assert!(fe
            .run(&Session::new(Actor::Subject), Request::Restore { key: 1 })
            .outcome
            .is_ok());
    }

    /// Chaos arms the first arrival at every reachable crash point, and
    /// builds its engines outside `catch_unwind`: building one must reach
    /// no tap, the construction-time assessment records included.
    #[test]
    fn building_an_engine_reaches_no_crash_tap() {
        use datacase_sim::fault::{FaultInjector, CRASH_POINTS};
        for profile in crate::profiles::ProfileKind::PAPER {
            for backend in datacase_storage::backend::BackendKind::ALL {
                let fault = FaultInjector::counting();
                let config = EngineConfig::for_profile(profile)
                    .with_backend(backend)
                    .with_fault(fault.clone());
                let fe = Frontend::new(config);
                assert!(fe.audit_records() > 0, "the assessments are on the log");
                assert_eq!(fault.counts(), [0; CRASH_POINTS], "{profile:?}/{backend:?}");
            }
        }
    }

    /// A P_SYS heap trace writing every record label the engine emits:
    /// the construction-time assessments, create, read, read-meta,
    /// update, update-meta (policy change plus notify), a processor
    /// denial, a metadata scan, a workload delete, hide, restore, strong
    /// and permanent erasure (with its sanitise pass).
    fn every_label_trace() -> Frontend {
        use datacase_workloads::MetaSelector;
        let mut fe = Frontend::new(EngineConfig::p_sys());
        let controller = Session::new(Actor::Controller);
        let processor = Session::new(Actor::Processor);
        let analyst = Session::new(Actor::Processor).for_purpose(wk::analytics());
        let erase = |key, interpretation| Request::Erase {
            key,
            interpretation,
        };
        for key in 1..=5 {
            let payload = format!("row-{key}").into_bytes();
            let create = Request::Create {
                key,
                payload,
                metadata: meta(1),
            };
            assert!(fe.run(&controller, create).is_done());
        }
        let payload = b"row-1-updated".to_vec();
        let steps = [
            (&processor, Request::Read { key: 1 }),
            (&processor, Request::ReadMeta { key: 1 }),
            (&controller, Request::Update { key: 1, payload }),
            (
                &controller,
                Request::UpdateMeta {
                    key: 1,
                    field: MetaField::Ttl,
                },
            ),
            (&analyst, Request::Read { key: 2 }),
            (
                &processor,
                Request::ReadByMeta {
                    selector: MetaSelector::BySubject(1),
                },
            ),
            (&controller, Request::Delete { key: 2 }),
            (
                &controller,
                erase(3, ErasureInterpretation::ReversiblyInaccessible),
            ),
            (&controller, Request::Restore { key: 3 }),
            (
                &controller,
                erase(4, ErasureInterpretation::StronglyDeleted),
            ),
            (
                &controller,
                erase(5, ErasureInterpretation::PermanentlyDeleted),
            ),
        ];
        for (session, request) in steps {
            let r = fe.run(session, request.clone());
            assert!(!r.audit.is_empty(), "{request:?}: {:?}", r.outcome);
        }
        fe
    }

    #[test]
    fn the_label_table_keeps_every_chained_byte() {
        // The head this trace's chain had while the record labels were
        // still mapped in the engine: a byte of any label the engine
        // writes moving changes it. Recomputed twice since: when the strong
        // plan gained `PurgeLogs` (key 4's records lost their payloads and
        // the purge's charge moved every later timestamp), and when links
        // began to MAC a payload's commitment instead of the payload.
        let mut fe = every_label_trace();
        let labels: std::collections::BTreeSet<&str> =
            fe.history().tuples().map(|t| t.action.label()).collect();
        let expected = [
            "DELETE",
            "DELETE-PERMANENT",
            "DELETE-STRONG",
            "HIDE",
            "INSERT",
            "SELECT",
            "SELECT-META",
            "UPDATE",
            "assess",
            "notify",
            "restore",
            "sanitize",
            "update-policy",
        ];
        assert_eq!(labels.into_iter().collect::<Vec<_>>(), expected);
        assert_eq!(fe.denied(), 1, "the analyst's read is the one denial");
        let head = fe.forensic().chain_head();
        assert_eq!(
            datacase_crypto::sha256::to_hex(&head),
            "1f24495ca3f9c4b8ce669dd25a0fde4ddb956ac34c3039ecef0d54c46d9d76ad"
        );
    }

    #[test]
    fn a_record_that_names_no_unit_names_no_unit_in_the_query_log() {
        // P_GBench logs query text; its construction-time assessments name
        // no unit and must not read as the first collected unit's (ids
        // start at 0).
        let mut fe = Frontend::new(EngineConfig::p_gbench());
        assert_eq!(fe.audit_records(), 7, "one assessment per purpose");
        assert_eq!(fe.forensic().scan(b"unit=0 ").audit_records, 0);
        assert_eq!(fe.forensic().scan(b"unit=- ").audit_records, 7);
    }
}
