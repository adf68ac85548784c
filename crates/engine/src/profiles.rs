//! Engine configuration and the three compliance profiles.
//!
//! A configuration is a point in the `ProfileKind` × [`DeleteStrategy`] ×
//! [`BackendKind`] matrix: which enforcement/logging/crypto stack runs,
//! how workload deletes are grounded, and which storage substrate the
//! compliant engine composes over.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_crypto::aes::KeySize;
use datacase_crypto::CryptoBackend;
use datacase_sim::fault::FaultInjector;
use datacase_storage::backend::{BackendKind, MaintenanceDepth};
use datacase_storage::heap::HeapConfig;
use datacase_storage::lsm::LsmConfig;

/// Which compliance profile an engine instance embodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// Stock engine: no policy enforcement, minimal logging, no
    /// encryption. Models vanilla PostgreSQL for Table 1 / Figure 4a.
    Stock,
    /// P_Base (§4.2): RBAC + CSV row logs + AES-256 + DELETE+VACUUM.
    PBase,
    /// P_GBench (§4.2): metadata-table joins + full query logs + LUKS disk
    /// encryption + DELETE only.
    PGBench,
    /// P_SYS (§4.2): Sieve FGAC + encrypted logs + AES-128 + DELETE +
    /// VACUUM FULL + log deletion.
    PSys,
}

impl ProfileKind {
    /// Figure labels.
    pub fn label(self) -> &'static str {
        match self {
            ProfileKind::Stock => "Stock",
            ProfileKind::PBase => "P_Base",
            ProfileKind::PGBench => "P_GBench",
            ProfileKind::PSys => "P_SYS",
        }
    }

    /// All three paper profiles, in the figures' order.
    pub const PAPER: [ProfileKind; 3] =
        [ProfileKind::PBase, ProfileKind::PGBench, ProfileKind::PSys];
}

/// How deletes are grounded during workload execution (Figure 4a's four
/// strategies). Maintenance (vacuum / vacuum-full) runs every
/// [`EngineConfig::maintenance_every`] deletes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeleteStrategy {
    /// Plain `DELETE` — dead tuples accumulate forever.
    DeleteOnly,
    /// `DELETE` + periodic lazy `VACUUM`.
    DeleteVacuum,
    /// `DELETE` + periodic `VACUUM FULL`.
    DeleteVacuumFull,
    /// Hidden-attribute update ("Tombstones (Indexing)") — reversible
    /// inaccessibility; bloats like an UPDATE, filters on every read.
    TombstoneAttribute,
}

impl DeleteStrategy {
    /// Figure 4a's series label.
    pub fn label(self) -> &'static str {
        match self {
            DeleteStrategy::DeleteOnly => "DELETE",
            DeleteStrategy::DeleteVacuum => "DELETE + VACUUM",
            DeleteStrategy::DeleteVacuumFull => "DELETE and VACUUM FULL",
            DeleteStrategy::TombstoneAttribute => "Tombstones (Indexing)",
        }
    }

    /// The interpretation a workload delete under this strategy grounds.
    pub fn interpretation(self) -> ErasureInterpretation {
        match self {
            DeleteStrategy::TombstoneAttribute => ErasureInterpretation::ReversiblyInaccessible,
            DeleteStrategy::DeleteOnly
            | DeleteStrategy::DeleteVacuum
            | DeleteStrategy::DeleteVacuumFull => ErasureInterpretation::Deleted,
        }
    }

    /// The periodic maintenance pass the strategy runs every
    /// [`EngineConfig::maintenance_every`] deletes, if any.
    pub fn maintenance(self) -> Option<MaintenanceDepth> {
        match self {
            DeleteStrategy::DeleteVacuum => Some(MaintenanceDepth::Lazy),
            DeleteStrategy::DeleteVacuumFull => Some(MaintenanceDepth::Full),
            DeleteStrategy::DeleteOnly | DeleteStrategy::TombstoneAttribute => None,
        }
    }

    /// The four strategies in the figure's legend order.
    pub const ALL: [DeleteStrategy; 4] = [
        DeleteStrategy::DeleteVacuumFull,
        DeleteStrategy::TombstoneAttribute,
        DeleteStrategy::DeleteOnly,
        DeleteStrategy::DeleteVacuum,
    ];
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The profile (drives enforcement/logging/crypto choices).
    pub profile: ProfileKind,
    /// Which storage substrate backs the engine.
    pub backend: BackendKind,
    /// Heap configuration (used when `backend` is [`BackendKind::Heap`]).
    pub heap: HeapConfig,
    /// LSM configuration (used when `backend` is [`BackendKind::Lsm`]).
    pub lsm: LsmConfig,
    /// Per-tuple payload encryption (None = plaintext payloads).
    pub tuple_encryption: Option<KeySize>,
    /// Delete grounding used by workload deletes.
    pub delete_strategy: DeleteStrategy,
    /// Run the strategy's maintenance after this many deletes.
    pub maintenance_every: u64,
    /// Fine-grained policies per unit registered at collection (drives
    /// P_SYS's metadata footprint).
    pub policies_per_unit: usize,
    /// Use the FGAC policy index (ablation switch; P_SYS only).
    pub fgac_index: bool,
    /// Which AES implementation every crypto path this engine constructs
    /// (tuple vault, sector cipher, encrypted audit log) runs on:
    /// [`CryptoBackend::Auto`] (the default) detects hardware AES-NI and
    /// falls back to the software T-table path; `Software` forces the
    /// fallback. Scoped to this engine instance: selecting a
    /// backend for one engine cannot reroute concurrent engines (or
    /// shards) in the same process. Ciphertext is byte-identical across
    /// backends; only wall-clock changes.
    pub crypto_backend: CryptoBackend,
    /// Read by nothing: the tuple vault keeps no keystream cache, so the
    /// value changes no output byte and no simulated nanosecond. A bridge
    /// for the benchmark's frozen field list; ROADMAP item 25 deletes it.
    pub keystream_cache: usize,
    /// Deterministic crash-injection plane (chaos harness). Disabled by
    /// default — every tap is a no-op branch on a `None`. When armed via
    /// [`EngineConfig::with_fault`], the engine panics with a
    /// [`datacase_sim::fault::CrashSignal`] at the chosen
    /// [`datacase_sim::fault::CrashPoint`]; the chaos runner catches it,
    /// salvages the durable storage snapshot, and rebuilds.
    pub fault: FaultInjector,
}

impl EngineConfig {
    /// Stock engine (vanilla PSQL stand-in) with a delete strategy —
    /// the Figure 4a/Table 1 configuration, and the defaults every
    /// profile below states its differences from.
    pub fn stock(strategy: DeleteStrategy) -> EngineConfig {
        EngineConfig {
            profile: ProfileKind::Stock,
            backend: BackendKind::Heap,
            heap: HeapConfig::default(),
            lsm: LsmConfig::default(),
            tuple_encryption: None,
            delete_strategy: strategy,
            maintenance_every: 1000,
            policies_per_unit: 0,
            fgac_index: true,
            crypto_backend: CryptoBackend::Auto,
            keystream_cache: 0,
            fault: FaultInjector::disabled(),
        }
    }

    /// The P_Base profile.
    pub fn p_base() -> EngineConfig {
        EngineConfig {
            profile: ProfileKind::PBase,
            tuple_encryption: Some(KeySize::Aes256),
            ..EngineConfig::stock(DeleteStrategy::DeleteVacuum)
        }
    }

    /// The P_GBench profile.
    pub fn p_gbench() -> EngineConfig {
        EngineConfig {
            profile: ProfileKind::PGBench,
            heap: HeapConfig {
                disk_passphrase: Some(b"luks-gbench-passphrase".to_vec()),
                ..HeapConfig::default()
            },
            maintenance_every: u64::MAX,
            policies_per_unit: 5,
            ..EngineConfig::stock(DeleteStrategy::DeleteOnly)
        }
    }

    /// The P_SYS profile.
    pub fn p_sys() -> EngineConfig {
        EngineConfig {
            profile: ProfileKind::PSys,
            tuple_encryption: Some(KeySize::Aes128),
            maintenance_every: 2000,
            policies_per_unit: 10,
            ..EngineConfig::stock(DeleteStrategy::DeleteVacuumFull)
        }
    }

    /// Config for a profile kind.
    pub fn for_profile(kind: ProfileKind) -> EngineConfig {
        match kind {
            ProfileKind::Stock => EngineConfig::stock(DeleteStrategy::DeleteOnly),
            ProfileKind::PBase => EngineConfig::p_base(),
            ProfileKind::PGBench => EngineConfig::p_gbench(),
            ProfileKind::PSys => EngineConfig::p_sys(),
        }
    }

    /// The same configuration over a different storage substrate.
    pub fn with_backend(mut self, backend: BackendKind) -> EngineConfig {
        self.backend = backend;
        self
    }

    /// The same configuration with the crash-injection plane set. The
    /// chaos harness arms one [`CrashPoint`](datacase_sim::fault::CrashPoint)
    /// per run; the injector is shared (Arc) with the storage configs at
    /// engine construction so storage-level taps (`wal-append`,
    /// `compaction`, …) fire from the same plane as engine-level taps.
    pub fn with_fault(mut self, fault: FaultInjector) -> EngineConfig {
        self.fault = fault;
        self
    }

    /// The same configuration with every AES path this engine constructs
    /// routed through `backend`. See [`EngineConfig::crypto_backend`].
    pub fn with_crypto_backend(mut self, backend: CryptoBackend) -> EngineConfig {
        self.crypto_backend = backend;
        self
    }

    /// Is data encrypted at rest under this configuration? Per-tuple
    /// encryption counts on any backend; LUKS-style disk encryption is a
    /// heap-substrate feature.
    pub fn encryption_at_rest(&self) -> bool {
        self.tuple_encryption.is_some()
            || (self.backend == BackendKind::Heap && self.heap.disk_passphrase.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erasure::{workload_plan, Step};

    #[test]
    fn profiles_match_paper_spec() {
        let base = EngineConfig::p_base();
        assert_eq!(base.tuple_encryption, Some(KeySize::Aes256));
        assert_eq!(base.delete_strategy, DeleteStrategy::DeleteVacuum);
        assert!(!workload_plan(&base).contains(&Step::RedactLogs));

        let gbench = EngineConfig::p_gbench();
        assert!(gbench.heap.disk_passphrase.is_some(), "LUKS disk");
        assert_eq!(gbench.delete_strategy, DeleteStrategy::DeleteOnly);

        let sys = EngineConfig::p_sys();
        assert_eq!(sys.tuple_encryption, Some(KeySize::Aes128));
        assert_eq!(sys.delete_strategy, DeleteStrategy::DeleteVacuumFull);
        assert!(workload_plan(&sys).contains(&Step::RedactLogs));
        assert!(sys.policies_per_unit > gbench.policies_per_unit);
    }

    #[test]
    fn strategy_labels_match_figure_4a() {
        assert_eq!(DeleteStrategy::DeleteVacuum.label(), "DELETE + VACUUM");
        assert_eq!(
            DeleteStrategy::TombstoneAttribute.label(),
            "Tombstones (Indexing)"
        );
        assert_eq!(DeleteStrategy::ALL.len(), 4);
    }

    #[test]
    fn profile_labels() {
        assert_eq!(ProfileKind::PBase.label(), "P_Base");
        assert_eq!(ProfileKind::PAPER.len(), 3);
    }

    #[test]
    fn profiles_default_to_heap_and_rebind_to_lsm() {
        for kind in [
            ProfileKind::Stock,
            ProfileKind::PBase,
            ProfileKind::PGBench,
            ProfileKind::PSys,
        ] {
            let config = EngineConfig::for_profile(kind);
            assert_eq!(config.backend, BackendKind::Heap);
            let lsm = config.with_backend(BackendKind::Lsm);
            assert_eq!(lsm.backend, BackendKind::Lsm);
            assert_eq!(lsm.profile, kind, "profile survives the rebind");
        }
    }

    #[test]
    fn encryption_at_rest_accounts_for_backend() {
        // P_GBench's at-rest evidence is LUKS disk encryption — a heap
        // feature that does not carry to the LSM substrate.
        let gbench = EngineConfig::p_gbench();
        assert!(gbench.encryption_at_rest());
        assert!(!gbench.with_backend(BackendKind::Lsm).encryption_at_rest());
        // P_Base encrypts per tuple, which holds on any backend.
        let base = EngineConfig::p_base();
        assert!(base.with_backend(BackendKind::Lsm).encryption_at_rest());
    }
}
