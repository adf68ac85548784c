//! The system substrate a profile wires up: the storage backend, the
//! tuple key vault and the policy enforcer, plus the audit log the
//! [`Model`] owns.
//!
//! The compliance stack composes over any [`StorageBackend`]; this is the
//! only place a concrete substrate type appears. Everything else reaches
//! the parts through the trait objects built here.

use std::sync::Arc;

use datacase_audit::loggers::{AuditLog, LogFormat};
use datacase_core::action::ActionKind;
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::{well_known as wk, PurposeId};
use datacase_crypto::ctr::AesCtr;
use datacase_crypto::vault::KeyVault;
use datacase_policy::enforcer::PolicyEnforcer;
use datacase_policy::fgac::{FgacConfig, FgacEnforcer};
use datacase_policy::metatable::MetaTableEnforcer;
use datacase_policy::rbac::{RbacEnforcer, Role};
use datacase_sim::{Meter, SimClock};
use datacase_storage::backend::{BackendKind, LsmBackend, StorageBackend};
use datacase_storage::heap::HeapDb;

use crate::model::Model;
use crate::profiles::{EngineConfig, ProfileKind};

/// Backend, vault and enforcer of one engine.
pub(crate) struct Substrate {
    pub(crate) backend: Box<dyn StorageBackend>,
    /// Present when tuple encryption is on.
    pub(crate) vault: Option<KeyVault>,
    pub(crate) enforcer: Box<dyn PolicyEnforcer>,
    /// The engine shard this substrate serves, carried in every tuple IV.
    shard: u16,
}

impl Substrate {
    /// Wire the substrate `config` asks for on engine shard `shard`;
    /// every part charges the engine's `clock` and `meter`. RBAC profiles
    /// grant roles to `model`'s fixed entities.
    pub(crate) fn new(
        config: &EngineConfig,
        model: &Model,
        shard: u16,
        clock: &SimClock,
        meter: &Arc<Meter>,
    ) -> Substrate {
        let enforcer: Box<dyn PolicyEnforcer> = match config.profile {
            ProfileKind::Stock | ProfileKind::PBase => {
                let mut rbac = RbacEnforcer::new(clock.clone(), meter.clone());
                install_roles(&mut rbac, model.controller, model.processor, model.auditor);
                Box::new(rbac)
            }
            ProfileKind::PGBench => Box::new(MetaTableEnforcer::new(clock.clone(), meter.clone())),
            ProfileKind::PSys => Box::new(FgacEnforcer::new(
                FgacConfig {
                    use_index: config.fgac_index,
                    ..FgacConfig::default()
                },
                clock.clone(),
                meter.clone(),
            )),
        };

        let vault = config.tuple_encryption.map(|size| {
            KeyVault::new(b"engine-master-secret", size)
                .with_backend(config.crypto_backend)
                .with_keystream_cache(config.keystream_cache)
        });

        let backend: Box<dyn StorageBackend> = match config.backend {
            BackendKind::Heap => {
                let mut heap = config.heap.clone();
                heap.crypto_backend = config.crypto_backend;
                heap.fault = config.fault.clone();
                Box::new(HeapDb::new(heap, clock.clone(), meter.clone()))
            }
            BackendKind::Lsm => {
                let mut lsm = config.lsm.clone();
                lsm.fault = config.fault.clone();
                Box::new(LsmBackend::new(lsm, clock.clone(), meter.clone()))
            }
        };

        Substrate {
            backend,
            vault,
            enforcer,
            shard,
        }
    }

    /// Encrypt a unit's payload for the backend, when tuple encryption is
    /// on.
    pub(crate) fn encrypt_payload(
        &mut self,
        unit: UnitId,
        payload: &[u8],
        clock: &SimClock,
        meter: &Meter,
    ) -> Vec<u8> {
        let mut buf = payload.to_vec();
        if let Some(vault) = &mut self.vault {
            vault.ensure_key(unit.0);
            apply_keystream(vault, unit, self.shard, &mut buf, clock, meter);
        }
        buf
    }

    /// Decrypt a stored payload. A crypto-erased unit reads back empty.
    pub(crate) fn decrypt_payload(
        &mut self,
        unit: UnitId,
        mut stored: Vec<u8>,
        clock: &SimClock,
        meter: &Meter,
    ) -> Vec<u8> {
        if let Some(vault) = &mut self.vault {
            if !vault.is_live(unit.0) {
                return Vec::new();
            }
            apply_keystream(vault, unit, self.shard, &mut stored, clock, meter);
        }
        stored
    }
}

/// The audit log `config`'s profile keeps on engine shard `shard`,
/// charging `clock` and `meter`. The [`Model`] owns it: the log records
/// what the engine did.
pub(crate) fn audit_log(
    config: &EngineConfig,
    shard: u16,
    clock: &SimClock,
    meter: &Arc<Meter>,
) -> AuditLog {
    const KEY: &[u8] = b"audit-key";
    let format = match config.profile {
        ProfileKind::Stock | ProfileKind::PBase => LogFormat::CsvRow,
        ProfileKind::PGBench => LogFormat::FullQuery,
        ProfileKind::PSys => LogFormat::Encrypted { shard },
    };
    AuditLog::new(format, KEY, clock.clone(), meter.clone())
        .with_crypto_backend(config.crypto_backend)
}

/// One CTR pass over `buf` under `unit`'s live key. Charged as a full
/// AES pass regardless of how the keystream is produced: the cache
/// changes host work, never the simulated cost.
/// The IV carries the shard in bytes 8–9, the top of the counter half,
/// as every shard numbers its units from 0: shards never share a
/// keystream while a payload stays under 2^48 blocks (4 PiB).
fn apply_keystream(
    vault: &mut KeyVault,
    unit: UnitId,
    shard: u16,
    buf: &mut [u8],
    clock: &SimClock,
    meter: &Meter,
) {
    clock.charge(clock.model().aes_cost(vault.key_size().bits(), buf.len()));
    Meter::bump(&meter.crypto_bytes, buf.len() as u64);
    let mut iv = AesCtr::iv_from_nonce(unit.0);
    iv[8..10].copy_from_slice(&shard.to_be_bytes());
    if !matches!(vault.keystream_apply(unit.0, iv, buf), Ok(true)) {
        vault.cipher(unit.0).expect("live key").apply(iv, buf);
    }
}

fn install_roles(
    rbac: &mut RbacEnforcer,
    controller: EntityId,
    processor: EntityId,
    auditor: EntityId,
) {
    use ActionKind::*;
    let service_purposes = [
        wk::billing(),
        wk::analytics(),
        wk::advertising(),
        wk::smart_space(),
        wk::retention(),
    ];
    let mut controller_grants: Vec<(PurposeId, Vec<ActionKind>)> = vec![
        (
            wk::contract(),
            vec![Create, UpdatePolicy, UpdateMeta, ReadMeta, Notify],
        ),
        (wk::compliance_erase(), vec![Erase, Sanitize, ReadMeta]),
    ];
    let mut processor_grants: Vec<(PurposeId, Vec<ActionKind>)> = Vec::new();
    for p in service_purposes {
        controller_grants.push((p, vec![Read, UpdateValue, ReadMeta, Derive]));
        processor_grants.push((p, vec![Read, UpdateValue, ReadMeta, Derive]));
    }
    let r_controller = rbac.define_role(Role::new("controller", controller_grants));
    let r_processor = rbac.define_role(Role::new("processor", processor_grants));
    let r_subject = rbac.define_role(Role::new(
        "data-subject",
        vec![
            (
                wk::subject_access(),
                vec![Read, ReadMeta, UpdateValue, UpdatePolicy, Erase, Restore],
            ),
            (wk::compliance_erase(), vec![Erase]),
            (wk::contract(), vec![UpdatePolicy, UpdateMeta, Notify]),
        ],
    ));
    let r_auditor = rbac.define_role(Role::new("auditor", vec![(wk::audit(), vec![ReadMeta])]));
    rbac.add_member(controller, r_controller);
    rbac.add_member(processor, r_processor);
    rbac.add_member(auditor, r_auditor);
    // Subjects join the subject role as they appear.
    rbac.set_subject_role(r_subject);
}
