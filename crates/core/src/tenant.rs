//! Tenancy: partitioning one Data-CASE deployment among many controllers.
//!
//! A served engine hosts several *tenants* — independent controllers,
//! each with their own subjects, records, and audit obligations — on one
//! shared concurrent engine.
//! This module is the **single source of truth for the partition
//! scheme**: the gateway applies it when it rewrites tenant-local
//! requests into the shared keyspace, the engine enforces it through
//! session key-scopes, and the tenant-isolation invariant X
//! ([`tenant_isolation`]) checks it over the abstract model — all three
//! layers agree because they share these functions.
//!
//! The scheme is purely arithmetic, so it needs no shared mutable state:
//!
//! * **Keys** — the global `u64` keyspace is split into `2^32` contiguous
//!   blocks of `2^32` keys; tenant `t` owns `[t << 32, (t + 1) << 32)`.
//! * **Subjects** — the `u32` subject-id space is split into `2^16`
//!   blocks of `2^16` subjects; tenant `t` owns
//!   `[t << 16, (t + 1) << 16)`.
//!
//! Tenant `0` is the *default tenant*: an unserved, in-process engine
//! uses small keys and subject ids, so everything it produces lands in
//! tenant 0 and single-tenant deployments are a degenerate (and
//! automatically isolated) case of the same scheme.
//!
//! [`tenant_isolation`]: crate::invariants::catalog::tenant_isolation

use std::collections::BTreeMap;

use crate::ids::EntityId;

/// Bits of the global keyspace reserved for the tenant-local key.
pub const TENANT_KEY_BITS: u32 = 32;

/// Bits of the subject-id space reserved for the tenant-local subject.
pub const TENANT_SUBJECT_BITS: u32 = 16;

/// Largest key a tenant may use locally (inclusive).
pub const MAX_LOCAL_KEY: u64 = (1 << TENANT_KEY_BITS) - 1;

/// Largest subject id a tenant may use locally (inclusive).
pub const MAX_LOCAL_SUBJECT: u32 = (1 << TENANT_SUBJECT_BITS) - 1;

/// Largest tenant id that fits the subject partition (inclusive). The
/// key partition admits more, but a tenant needs both.
pub const MAX_TENANT: u32 = (1 << (32 - TENANT_SUBJECT_BITS)) - 1;

/// A tenant of the served engine. Tenant `0` is the default tenant any
/// un-namespaced (in-process, single-controller) deployment lives in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant that owns a global key.
    pub fn of_key(global: u64) -> TenantId {
        TenantId((global >> TENANT_KEY_BITS) as u32)
    }

    /// The tenant that owns a (namespaced) subject id.
    pub fn of_subject(subject: u32) -> TenantId {
        TenantId(subject >> TENANT_SUBJECT_BITS)
    }

    /// Map a tenant-local key into the shared keyspace. `None` when the
    /// local key does not fit the tenant's block.
    pub fn global_key(self, local: u64) -> Option<u64> {
        (local <= MAX_LOCAL_KEY && self.0 <= MAX_TENANT)
            .then_some(((self.0 as u64) << TENANT_KEY_BITS) | local)
    }

    /// Map a global key back into this tenant's local keyspace. `None`
    /// when the key belongs to a different tenant.
    pub fn local_key(self, global: u64) -> Option<u64> {
        (TenantId::of_key(global) == self).then_some(global & MAX_LOCAL_KEY)
    }

    /// Map a tenant-local subject id into the shared subject space.
    /// `None` when the local subject does not fit the tenant's block.
    pub fn global_subject(self, local: u32) -> Option<u32> {
        (local <= MAX_LOCAL_SUBJECT && self.0 <= MAX_TENANT)
            .then_some((self.0 << TENANT_SUBJECT_BITS) | local)
    }

    /// The half-open block of the global keyspace this tenant owns —
    /// what a tenant-scoped engine session is confined to.
    pub fn key_range(self) -> KeyRange {
        let start = (self.0 as u64) << TENANT_KEY_BITS;
        KeyRange {
            start,
            end: start + (1 << TENANT_KEY_BITS),
        }
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A half-open range `[start, end)` of the global keyspace. Sessions
/// carrying a key-scope are denied any key-addressed request outside it,
/// and metadata scans are filtered to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// First key inside the range.
    pub start: u64,
    /// First key past the range.
    pub end: u64,
}

impl KeyRange {
    /// Does the range contain `key`?
    pub fn contains(&self, key: u64) -> bool {
        self.start <= key && key < self.end
    }
}

impl std::fmt::Display for KeyRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// The authoritative entity → tenant assignment for one deployment,
/// supplied to the compliance checker by the layer that registered the
/// entities (the engine derives it from its subject registry via
/// [`TenantId::of_subject`]).
///
/// Entities absent from the directory are *infrastructure* — the shared
/// controller/processor/auditor principals the serving platform itself
/// acts through — and are exempt from the isolation partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantDirectory {
    entities: BTreeMap<EntityId, TenantId>,
}

impl TenantDirectory {
    /// An empty directory (no tenancy assignments).
    pub fn new() -> TenantDirectory {
        TenantDirectory::default()
    }

    /// Assign an entity to a tenant (later assignments win).
    pub fn assign(&mut self, entity: EntityId, tenant: TenantId) {
        self.entities.insert(entity, tenant);
    }

    /// The tenant an entity belongs to, if assigned.
    pub fn tenant_of(&self, entity: EntityId) -> Option<TenantId> {
        self.entities.get(&entity).copied()
    }

    /// Number of assigned entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Is the directory empty (single-tenant / unserved deployment)?
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Distinct tenants with at least one assigned entity, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ts: Vec<TenantId> = self.entities.values().copied().collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_namespacing_round_trips() {
        let t = TenantId(3);
        let g = t.global_key(41).unwrap();
        assert_eq!(g, (3u64 << 32) | 41);
        assert_eq!(TenantId::of_key(g), t);
        assert_eq!(t.local_key(g), Some(41));
        assert_eq!(TenantId(2).local_key(g), None);
        assert!(t.global_key(MAX_LOCAL_KEY + 1).is_none());
    }

    #[test]
    fn subject_namespacing_round_trips() {
        let t = TenantId(7);
        let s = t.global_subject(9).unwrap();
        assert_eq!(s, (7 << 16) | 9);
        assert_eq!(TenantId::of_subject(s), t);
        assert!(t.global_subject(MAX_LOCAL_SUBJECT + 1).is_none());
        assert!(TenantId(MAX_TENANT + 1).global_subject(0).is_none());
    }

    #[test]
    fn key_ranges_partition_the_keyspace() {
        let a = TenantId(0).key_range();
        let b = TenantId(1).key_range();
        assert_eq!(a.end, b.start);
        assert!(a.contains(0) && a.contains(MAX_LOCAL_KEY));
        assert!(!a.contains(b.start));
        assert!(b.contains(TenantId(1).global_key(0).unwrap()));
    }

    #[test]
    fn default_tenant_hosts_small_ids() {
        // Everything an unserved engine produces lands in tenant 0.
        assert_eq!(TenantId::of_key(123_456), TenantId(0));
        assert_eq!(TenantId::of_subject(4_200), TenantId(0));
    }

    #[test]
    fn directory_assigns_and_lists() {
        let mut dir = TenantDirectory::new();
        assert!(dir.is_empty());
        dir.assign(EntityId(5), TenantId(1));
        dir.assign(EntityId(6), TenantId(2));
        dir.assign(EntityId(7), TenantId(1));
        assert_eq!(dir.len(), 3);
        assert_eq!(dir.tenant_of(EntityId(5)), Some(TenantId(1)));
        assert_eq!(dir.tenant_of(EntityId(99)), None);
        assert_eq!(dir.tenants(), vec![TenantId(1), TenantId(2)]);
    }
}
