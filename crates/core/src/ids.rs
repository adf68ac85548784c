//! Identifier newtypes shared across the model, and [`UnitMap`], the
//! table every per-unit structure of a shard is kept in.

/// Identifies an entity (data-subject, controller, processor, auditor …).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct EntityId(pub u32);

/// Identifies a data unit — the finest granularity at which Data-CASE
/// refers to data (paper §2.1). What one unit *is* depends on the system:
/// a user's click-stream, a camera interval, a credit-card record.
///
/// Ids are dense indices: a [`DatabaseState`](crate::state::DatabaseState)
/// (one per engine shard) allocates them from 0 up, one at a time, so a
/// [`UnitMap`] can keep per-unit state in a vector slot per id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct UnitId(pub u64);

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for UnitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl UnitId {
    /// The next sequential unit id (allocation helper for registries).
    pub fn next(self) -> UnitId {
        UnitId(self.0 + 1)
    }
}

/// Per-unit state indexed by the dense [`UnitId`]: a `Vec<Option<T>>`
/// whose slot `i` holds unit `i`'s value, plus a count of present slots.
///
/// A shard allocates its ids from 0 without gaps, so the vector is about
/// as long as the shard has units; an id that was allocated and never
/// inserted (a create the backend refused) leaves one `None` slot. A
/// lookup of an absent or out-of-range id, `UnitId(u64::MAX)` included,
/// is `None` and allocates nothing; only [`insert`](UnitMap::insert) and
/// [`get_or_insert_default`](UnitMap::get_or_insert_default) grow the
/// vector, up to the id they are given.
#[derive(Clone, Debug)]
pub struct UnitMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for UnitMap<T> {
    fn default() -> Self {
        UnitMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> UnitMap<T> {
    /// An empty map.
    pub fn new() -> UnitMap<T> {
        UnitMap::default()
    }

    /// The index of `unit`'s slot, counted present from here on (the
    /// caller fills it), growing the vector to it if needed.
    ///
    /// # Panics
    /// Panics if the id is too large to be an index, e.g.
    /// `UnitId(u64::MAX)`: ids are dense indices, not arbitrary keys.
    fn occupy(&mut self, unit: UnitId) -> usize {
        let i = usize::try_from(unit.0)
            .ok()
            .filter(|&i| i < usize::MAX)
            .unwrap_or_else(|| panic!("unit id {unit} is not a dense index"));
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.len += 1;
        }
        i
    }

    /// Set `unit`'s value, returning the one it replaces.
    ///
    /// # Panics
    /// Panics if the id is too large to be an index (see [`UnitMap`]).
    pub fn insert(&mut self, unit: UnitId, value: T) -> Option<T> {
        let i = self.occupy(unit);
        self.slots[i].replace(value)
    }

    /// `unit`'s value, if present.
    pub fn get(&self, unit: UnitId) -> Option<&T> {
        let i = usize::try_from(unit.0).ok()?;
        self.slots.get(i)?.as_ref()
    }

    /// `unit`'s value, mutably, if present.
    pub fn get_mut(&mut self, unit: UnitId) -> Option<&mut T> {
        let i = usize::try_from(unit.0).ok()?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// `unit`'s value, inserting `T::default()` first if absent.
    ///
    /// # Panics
    /// Panics if the id is too large to be an index (see [`UnitMap`]).
    pub fn get_or_insert_default(&mut self, unit: UnitId) -> &mut T
    where
        T: Default,
    {
        let i = self.occupy(unit);
        self.slots[i].get_or_insert_with(T::default)
    }

    /// Present values, in ascending id.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Number of present entries (a burned id's empty slot is not one).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", EntityId(3)), "e3");
        assert_eq!(format!("{}", UnitId(9)), "x9");
    }

    #[test]
    fn next_increments() {
        assert_eq!(UnitId(0).next(), UnitId(1));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(UnitId(1) < UnitId(2));
        assert!(EntityId(1) < EntityId(2));
    }

    #[test]
    fn a_burned_id_leaves_a_hole_that_len_does_not_count() {
        let mut m = UnitMap::new();
        m.insert(UnitId(0), "a");
        // Id 1 was allocated to a create the backend refused.
        m.insert(UnitId(2), "c");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(UnitId(1)), None);
        assert_eq!(m.insert(UnitId(2), "c2"), Some("c"), "a replace");
        assert_eq!(m.len(), 2, "a replace is not a new entry");
        *m.get_or_insert_default(UnitId(1)) = "b";
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn iteration_is_in_ascending_id() {
        let mut m = UnitMap::new();
        for id in [5u64, 0, 3, 9, 1] {
            m.insert(UnitId(id), id * 10);
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [0, 10, 30, 50, 90]);
        *m.get_mut(UnitId(3)).unwrap() += 1;
        assert_eq!(m.values().nth(2), Some(&31));
    }

    #[test]
    fn an_absent_or_huge_id_reads_none_and_allocates_nothing() {
        let mut m: UnitMap<u64> = UnitMap::new();
        m.insert(UnitId(2), 7);
        for id in [UnitId(3), UnitId(1 << 40), UnitId(u64::MAX)] {
            assert_eq!(m.get(id), None, "{id}");
            assert_eq!(m.get_mut(id), None, "{id}");
        }
        assert_eq!(m.slots.len(), 3, "a lookup never grows the table");
        assert!(UnitMap::<u8>::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "not a dense index")]
    fn inserting_the_no_unit_sentinel_panics() {
        UnitMap::new().insert(UnitId(u64::MAX), ());
    }
}
