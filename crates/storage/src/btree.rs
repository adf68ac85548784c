//! A B+tree index from record keys to tuple ids.
//!
//! Real structure, not a wrapper: arena-allocated nodes, leaf chaining for
//! range scans, splits on overflow, lazy deletion (no rebalancing — like
//! PostgreSQL, pages go half-empty until vacuum/reindex). MVCC keeps one
//! index entry per tuple *version*, so duplicate record keys are routine;
//! the tree therefore orders entries by the composite `(key, Tid)`, which
//! is unique, and internal separators carry the full composite (this is
//! how real B-trees avoid losing duplicates that straddle a split).
//! Readers filter by visibility, and VACUUM removes entries for reclaimed
//! versions — the "dead index probe" cost that figures 4a/4c exercise.

use datacase_sim::{Meter, SimClock};

use crate::tuple::Tid;

const ORDER: usize = 64; // max entries per node before split

type Composite = (u64, Tid);

const TID_MIN: Tid = Tid { page: 0, slot: 0 };

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        entries: Vec<Composite>,
        next: Option<u32>,
    },
    Internal {
        keys: Vec<Composite>,
        children: Vec<u32>,
    },
}

/// B+tree index over `(key, Tid)` pairs.
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: u32,
    len: usize,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("entries", &self.len)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl BTreeIndex {
    /// An empty index.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> BTreeIndex {
        BTreeIndex {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            clock,
            meter,
        }
    }

    fn probe(&self) {
        self.clock.charge_nanos(self.clock.model().index_probe);
        Meter::bump(&self.meter.index_probes, 1);
    }

    fn maintain(&self) {
        self.clock.charge_nanos(self.clock.model().index_maintain);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Estimated index size in bytes (entries + node overhead), used by
    /// Table 2's space accounting.
    pub fn size_bytes(&self) -> u64 {
        (self.len * 16 + self.nodes.len() * 32) as u64
    }

    /// Descend to the leaf that would contain composite `c`, recording the
    /// path of internal nodes.
    fn descend(&self, c: Composite, path: &mut Vec<u32>) -> u32 {
        let mut id = self.root;
        loop {
            self.probe();
            match &self.nodes[id as usize] {
                Node::Leaf { .. } => return id,
                Node::Internal { keys, children } => {
                    path.push(id);
                    let idx = keys.partition_point(|&k| k <= c);
                    id = children[idx];
                }
            }
        }
    }

    /// Insert an entry (duplicate record keys allowed; `(key, tid)` pairs
    /// must be unique, which the heap guarantees).
    pub fn insert(&mut self, key: u64, tid: Tid) {
        self.maintain();
        let c = (key, tid);
        let mut path = Vec::new();
        let leaf_id = self.descend(c, &mut path);
        let Node::Leaf { entries, .. } = &mut self.nodes[leaf_id as usize] else {
            unreachable!("descend returns a leaf")
        };
        let pos = entries.partition_point(|&e| e < c);
        entries.insert(pos, c);
        self.len += 1;
        if entries.len() > ORDER {
            self.split_leaf(leaf_id, path);
        }
    }

    fn split_leaf(&mut self, leaf_id: u32, path: Vec<u32>) {
        let new_id = self.nodes.len() as u32;
        let (sep, right) = {
            let Node::Leaf { entries, next } = &mut self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            let mid = entries.len() / 2;
            let right_entries: Vec<Composite> = entries.split_off(mid);
            let sep = right_entries[0];
            let right = Node::Leaf {
                entries: right_entries,
                next: *next,
            };
            *next = Some(new_id);
            (sep, right)
        };
        self.nodes.push(right);
        self.insert_into_parent(path, leaf_id, sep, new_id);
    }

    fn insert_into_parent(&mut self, mut path: Vec<u32>, left: u32, sep: Composite, right: u32) {
        match path.pop() {
            None => {
                // left was the root: grow a new root.
                let new_root = Node::Internal {
                    keys: vec![sep],
                    children: vec![left, right],
                };
                self.nodes.push(new_root);
                self.root = (self.nodes.len() - 1) as u32;
            }
            Some(parent_id) => {
                let needs_split = {
                    let Node::Internal { keys, children } = &mut self.nodes[parent_id as usize]
                    else {
                        unreachable!("path holds internals")
                    };
                    let idx = keys.partition_point(|&k| k <= sep);
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    keys.len() > ORDER
                };
                if needs_split {
                    self.split_internal(parent_id, path);
                }
            }
        }
    }

    fn split_internal(&mut self, node_id: u32, path: Vec<u32>) {
        let new_id = self.nodes.len() as u32;
        let (promoted, right) = {
            let Node::Internal { keys, children } = &mut self.nodes[node_id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let promoted = keys[mid];
            let right_keys: Vec<Composite> = keys.split_off(mid + 1);
            keys.pop(); // remove the promoted key from the left node
            let right_children: Vec<u32> = children.split_off(mid + 1);
            (
                promoted,
                Node::Internal {
                    keys: right_keys,
                    children: right_children,
                },
            )
        };
        self.nodes.push(right);
        self.insert_into_parent(path, node_id, promoted, new_id);
    }

    /// All tids indexed under `key` (across MVCC versions), in Tid order.
    pub fn get(&self, key: u64) -> Vec<Tid> {
        let mut path = Vec::new();
        let mut leaf_id = self.descend((key, TID_MIN), &mut path);
        let mut out = Vec::new();
        'outer: loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            for &(k, t) in entries {
                if k > key {
                    break 'outer;
                }
                if k == key {
                    out.push(t);
                }
            }
            match next {
                Some(n) => {
                    leaf_id = *n;
                    self.probe();
                }
                None => break,
            }
        }
        out
    }

    /// Remove one `(key, tid)` entry; returns whether it was present.
    pub fn remove(&mut self, key: u64, tid: Tid) -> bool {
        self.maintain();
        let c = (key, tid);
        let mut path = Vec::new();
        let leaf_id = self.descend(c, &mut path);
        let Node::Leaf { entries, .. } = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        match entries.binary_search(&c) {
            Ok(pos) => {
                entries.remove(pos);
                self.len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// All entries with `lo <= key <= hi`, in (key, tid) order.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Tid)> {
        let mut path = Vec::new();
        let mut leaf_id = self.descend((lo, TID_MIN), &mut path);
        let mut out = Vec::new();
        loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            for &(k, t) in entries {
                if k > hi {
                    return out;
                }
                if k >= lo {
                    out.push((k, t));
                }
            }
            match next {
                Some(n) => {
                    leaf_id = *n;
                    self.probe();
                }
                None => return out,
            }
        }
    }

    /// Drop all entries (rebuild support for VACUUM FULL).
    pub fn clear(&mut self) {
        self.nodes = vec![Node::Leaf {
            entries: Vec::new(),
            next: None,
        }];
        self.root = 0;
        self.len = 0;
    }

    /// Depth of the tree (1 = just a leaf). For tests and stats.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Leaf { .. } => return d,
                Node::Internal { children, .. } => {
                    d += 1;
                    id = children[0];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_sim::check::check;
    use std::sync::Arc;

    fn mk() -> BTreeIndex {
        BTreeIndex::new(SimClock::commodity(), Arc::new(Meter::new()))
    }

    fn tid(n: u32) -> Tid {
        Tid {
            page: n,
            slot: (n % 7) as u16,
        }
    }

    #[test]
    fn insert_get_small() {
        let mut ix = mk();
        ix.insert(5, tid(1));
        ix.insert(3, tid(2));
        ix.insert(9, tid(3));
        assert_eq!(ix.get(5), vec![tid(1)]);
        assert_eq!(ix.get(3), vec![tid(2)]);
        assert_eq!(ix.get(4), Vec::<Tid>::new());
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn many_inserts_cause_splits_and_stay_searchable() {
        let mut ix = mk();
        for i in 0..5000u64 {
            ix.insert(i, tid(i as u32));
        }
        assert!(ix.depth() >= 2, "splits must have happened");
        for i in (0..5000u64).step_by(97) {
            assert_eq!(ix.get(i), vec![tid(i as u32)], "key {i}");
        }
        assert_eq!(ix.len(), 5000);
    }

    #[test]
    fn reverse_and_random_order_inserts() {
        let mut ix = mk();
        for i in (0..2000u64).rev() {
            ix.insert(i, tid(i as u32));
        }
        for i in 0..2000u64 {
            assert_eq!(ix.get(i).len(), 1, "key {i}");
        }
    }

    #[test]
    fn duplicates_per_mvcc_version() {
        let mut ix = mk();
        ix.insert(7, tid(1));
        ix.insert(7, tid(2));
        ix.insert(7, tid(3));
        let got = ix.get(7);
        assert_eq!(got, vec![tid(1), tid(2), tid(3)], "tid order");
    }

    #[test]
    fn duplicates_survive_splits() {
        // Force many duplicates of one key across splits.
        let mut ix = mk();
        for i in 0..500u32 {
            ix.insert(42, Tid { page: i, slot: 0 });
        }
        for i in 0..500u64 {
            ix.insert(i * 2 + 1000, tid(i as u32));
        }
        assert_eq!(ix.get(42).len(), 500);
        assert!(ix.depth() >= 2);
    }

    #[test]
    fn remove_specific_version() {
        let mut ix = mk();
        ix.insert(7, tid(1));
        ix.insert(7, tid(2));
        assert!(ix.remove(7, tid(1)));
        assert_eq!(ix.get(7), vec![tid(2)]);
        assert!(!ix.remove(7, tid(1)), "already removed");
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn remove_duplicates_across_splits() {
        let mut ix = mk();
        for i in 0..300u32 {
            ix.insert(5, Tid { page: i, slot: 0 });
        }
        for i in 0..300u32 {
            assert!(ix.remove(5, Tid { page: i, slot: 0 }), "tid {i}");
        }
        assert!(ix.get(5).is_empty());
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn range_scan_in_order() {
        let mut ix = mk();
        for i in [5u64, 1, 9, 3, 7, 2, 8] {
            ix.insert(i, tid(i as u32));
        }
        let r = ix.range(3, 8);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 5, 7, 8]);
    }

    #[test]
    fn range_across_leaf_boundaries() {
        let mut ix = mk();
        for i in 0..1000u64 {
            ix.insert(i, tid(i as u32));
        }
        let r = ix.range(100, 899);
        assert_eq!(r.len(), 800);
        assert!(r.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn clear_resets() {
        let mut ix = mk();
        for i in 0..500u64 {
            ix.insert(i, tid(i as u32));
        }
        ix.clear();
        assert!(ix.is_empty());
        assert_eq!(ix.get(5), Vec::<Tid>::new());
        ix.insert(5, tid(9));
        assert_eq!(ix.get(5), vec![tid(9)]);
    }

    #[test]
    fn probes_charge_cost() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut ix = BTreeIndex::new(clock.clone(), meter.clone());
        for i in 0..100u64 {
            ix.insert(i, tid(i as u32));
        }
        let before = meter.snapshot().index_probes;
        let _ = ix.get(50);
        assert!(meter.snapshot().index_probes > before);
        assert!(clock.now().0 > 0);
    }

    #[test]
    fn behaves_like_reference_multimap() {
        check("behaves_like_reference_multimap", 64, |s| {
            let ops = s.vec(1..400, |s| {
                (s.range(0u64..200), s.range(0u32..50), s.bool())
            });
            let mut ix = mk();
            let mut model: std::collections::BTreeSet<(u64, Tid)> = Default::default();
            for (key, t, is_insert) in ops {
                let tv = tid(t);
                if is_insert {
                    // Avoid duplicate (key,tid) pairs — the heap never
                    // indexes the same version twice.
                    if model.insert((key, tv)) {
                        ix.insert(key, tv);
                    }
                } else {
                    let expected = model.remove(&(key, tv));
                    assert_eq!(ix.remove(key, tv), expected);
                }
            }
            assert_eq!(ix.len(), model.len());
            for key in 0u64..200 {
                let got = ix.get(key);
                let want: Vec<Tid> = model
                    .range(
                        (key, TID_MIN)
                            ..=(
                                key,
                                Tid {
                                    page: u32::MAX,
                                    slot: u16::MAX,
                                },
                            ),
                    )
                    .map(|&(_, t)| t)
                    .collect();
                assert_eq!(&got, &want, "key {}", key);
            }
        });
    }
}
