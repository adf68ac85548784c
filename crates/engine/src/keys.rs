//! The key index: which unit each record key is bound to, the two
//! metadata indexes a `ReadByMeta` scan reads, and the deadline index the
//! retention drain reads.
//!
//! Every entry follows from the creates (and planted derived copies) the
//! engine executed, and the policies it granted, so the index is derived
//! state: a restart can rebuild it instead of persisting it.

use std::collections::{BTreeSet, HashMap};

use datacase_core::ids::{UnitId, UnitMap};
use datacase_core::purpose::{well_known as wk, PurposeId};
use datacase_core::tenant::KeyRange;
use datacase_sim::time::Ts;
use datacase_workloads::MetaSelector;

/// Per-key bookkeeping the executor needs without touching the model.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyMeta {
    pub(crate) unit: UnitId,
    pub(crate) subject: u32,
    pub(crate) purpose: PurposeId,
    pub(crate) ttl: Ts,
}

/// Key ↔ unit bindings plus the purpose, subject and deadline indexes.
#[derive(Default)]
pub(crate) struct KeyIndex {
    meta: HashMap<u64, KeyMeta>,
    // A slot per dense unit id of the shard.
    unit_key: UnitMap<u64>,
    // Ordered, so a metadata scan reads the same keys in the same order
    // on every run (the simulated clock depends on which pages it hits).
    by_purpose: HashMap<PurposeId, BTreeSet<u64>>,
    by_subject: HashMap<u32, BTreeSet<u64>>,
    // Bound personal units not yet deleted, by (erase deadline, unit):
    // the retention drain reads the first entry.
    due: BTreeSet<(Ts, UnitId)>,
}

impl KeyIndex {
    /// The bookkeeping of `key`, if it was ever bound.
    pub(crate) fn get(&self, key: u64) -> Option<KeyMeta> {
        self.meta.get(&key).copied()
    }

    /// Number of bound keys.
    pub(crate) fn len(&self) -> usize {
        self.meta.len()
    }

    /// Unit id stored under a key.
    pub(crate) fn unit_of(&self, key: u64) -> Option<UnitId> {
        self.meta.get(&key).map(|m| m.unit)
    }

    /// Key a unit is stored under.
    pub(crate) fn key_of(&self, unit: UnitId) -> Option<u64> {
        self.unit_key.get(unit).copied()
    }

    /// Bind a record: its key, its unit, both scan indexes, and its
    /// retention `deadline` (`None` for a unit that is not personal). A
    /// create binds a fresh record; a restore re-binds a hidden one.
    pub(crate) fn insert(&mut self, key: u64, meta: KeyMeta, deadline: Option<Ts>) {
        self.meta.insert(key, meta);
        self.unit_key.insert(meta.unit, key);
        self.by_purpose.entry(meta.purpose).or_default().insert(key);
        self.by_subject.entry(meta.subject).or_default().insert(key);
        self.due.extend(deadline.map(|d| (d, meta.unit)));
    }

    /// Bind a heap key to a *derived* unit created through
    /// `DatabaseState::derive`, so erasure cascades can find its row. A
    /// derived copy belongs to no subject and no scan; an identifying one
    /// is personal and has a retention `deadline`.
    pub(crate) fn bind_derived(&mut self, unit: UnitId, key: u64, deadline: Option<Ts>) {
        self.meta.insert(
            key,
            KeyMeta {
                unit,
                subject: u32::MAX,
                purpose: wk::analytics(),
                ttl: Ts::MAX,
            },
        );
        self.unit_key.insert(unit, key);
        self.due.extend(deadline.map(|d| (d, unit)));
    }

    /// Re-key an indexed unit from deadline `from` to `to` after a grant.
    pub(crate) fn reschedule(&mut self, unit: UnitId, from: Option<Ts>, to: Option<Ts>) {
        if self.unschedule(unit, from) {
            self.due.extend(to.map(|d| (d, unit)));
        }
    }

    /// Take `unit`, filed under `deadline`, out of the deadline index;
    /// false if it was not there.
    pub(crate) fn unschedule(&mut self, unit: UnitId, deadline: Option<Ts>) -> bool {
        deadline.is_some_and(|d| self.due.remove(&(d, unit)))
    }

    /// The earliest deadline in the index.
    pub(crate) fn next_deadline(&self) -> Option<Ts> {
        self.due.first().map(|&(d, _)| d)
    }

    /// Take the unit with the earliest deadline out of the index, if that
    /// deadline is at or before `now`.
    pub(crate) fn pop_due(&mut self, now: Ts) -> Option<UnitId> {
        if self.next_deadline()? > now {
            return None;
        }
        self.due.pop_first().map(|(_, unit)| unit)
    }

    /// Move a key's displayed TTL.
    pub(crate) fn set_ttl(&mut self, key: u64, ttl: Ts) {
        if let Some(meta) = self.meta.get_mut(&key) {
            meta.ttl = ttl;
        }
    }

    /// A delete or an erasure: the metadata scans forget the key. The
    /// binding itself is deliberately kept — a real database does not know
    /// a key is gone until it probes the index and heap, so post-delete
    /// reads must pay that path (the Figure-4a mechanism).
    pub(crate) fn unscan(&mut self, key: u64) {
        let Some(meta) = self.meta.get(&key) else {
            return;
        };
        if let Some(s) = self.by_purpose.get_mut(&meta.purpose) {
            s.remove(&key);
        }
        if let Some(s) = self.by_subject.get_mut(&meta.subject) {
            s.remove(&key);
        }
    }

    /// The first `cap` keys matching `selector`, in key order, like an
    /// index range scan. A scoped session only ever sees its own block of
    /// the keyspace: candidates outside `scope` are filtered before the
    /// cap, so another tenant's records are invisible even to metadata
    /// probes.
    pub(crate) fn scan(
        &self,
        selector: MetaSelector,
        scope: Option<KeyRange>,
        cap: usize,
    ) -> Vec<u64> {
        let matching = match selector {
            MetaSelector::ByPurpose(p) => self.by_purpose.get(&p),
            MetaSelector::BySubject(s) => self.by_subject.get(&s),
        };
        matching
            .into_iter()
            .flatten()
            .copied()
            .filter(|&key| scope.is_none_or(|r| r.contains(key)))
            .take(cap)
            .collect()
    }
}
