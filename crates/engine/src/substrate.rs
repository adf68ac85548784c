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
use datacase_crypto::vault::KeyVault;
use datacase_policy::enforcer::PolicyEnforcer;
use datacase_policy::rbac::{RbacEnforcer, Role};
use datacase_policy::table::{Mechanism, PolicyTable};
use datacase_sim::{Meter, SimClock};
use datacase_storage::backend::{BackendKind, LsmBackend, StorageBackend};
use datacase_storage::error::StorageError;
use datacase_storage::heap::HeapDb;

use crate::model::Model;
use crate::profiles::{EngineConfig, ProfileKind};

/// Backend, vault and enforcer of one engine.
pub(crate) struct Substrate {
    pub(crate) backend: Box<dyn StorageBackend>,
    /// Present when tuple encryption is on.
    pub(crate) vault: Option<KeyVault>,
    pub(crate) enforcer: Box<dyn PolicyEnforcer>,
}

/// The CTR IV of every stored tuple version. Each version is encrypted
/// under a key of its own, so each key encrypts one plaintext and no IV
/// needs to vary.
const TUPLE_IV: [u8; 16] = [0; 16];

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
            ProfileKind::PGBench => Box::new(PolicyTable::new(
                Mechanism::MetaTable,
                clock.clone(),
                meter.clone(),
            )),
            ProfileKind::PSys => Box::new(PolicyTable::new(
                Mechanism::Sieve {
                    indexed: config.fgac_index,
                },
                clock.clone(),
                meter.clone(),
            )),
        };

        // Every shard numbers its units from 0, so each seeds its own
        // ratchet: shards never draw the same key.
        let vault = config.tuple_encryption.map(|size| {
            let seed = [&b"engine-master-secret"[..], &shard.to_be_bytes()].concat();
            KeyVault::new(&seed, size).with_backend(config.crypto_backend)
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
        }
    }

    /// Store a new version of `unit`'s payload through `write` (the
    /// backend's insert or update), encrypted under a fresh key of its own
    /// when tuple encryption is on. The key replaces the unit's previous
    /// one only once the backend accepts the write, so a refused write
    /// leaves the stored version readable.
    pub(crate) fn store_payload(
        &mut self,
        unit: UnitId,
        payload: &[u8],
        clock: &SimClock,
        meter: &Meter,
        write: impl FnOnce(&mut dyn StorageBackend, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let backend = self.backend.as_mut();
        let Some(vault) = &mut self.vault else {
            return write(backend, payload);
        };
        charge_aes(vault, payload.len(), clock, meter);
        vault.rekey(unit.0, |cipher| {
            let mut buf = payload.to_vec();
            cipher.apply(TUPLE_IV, &mut buf);
            write(backend, &buf)
        })
    }

    /// Decrypt a stored payload. A crypto-erased unit reads back empty.
    pub(crate) fn decrypt_payload(
        &self,
        unit: UnitId,
        mut stored: Vec<u8>,
        clock: &SimClock,
        meter: &Meter,
    ) -> Vec<u8> {
        if let Some(vault) = &self.vault {
            let Ok(cipher) = vault.cipher(unit.0) else {
                return Vec::new();
            };
            charge_aes(vault, stored.len(), clock, meter);
            cipher.apply(TUPLE_IV, &mut stored);
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

/// Charge one AES pass over `len` bytes of tuple payload under `vault`'s
/// key size.
fn charge_aes(vault: &KeyVault, len: usize, clock: &SimClock, meter: &Meter) {
    clock.charge(clock.model().aes_cost(vault.key_size().bits(), len));
    Meter::bump(&meter.crypto_bytes, len as u64);
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
