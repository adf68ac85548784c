//! Free-space map: tracks approximate free bytes per heap page so inserts
//! find a home without scanning the whole table.

/// Approximate per-page free space, PostgreSQL-FSM-style (coarse buckets).
#[derive(Clone, Debug, Default)]
pub struct FreeSpaceMap {
    free: Vec<u16>,
}

impl FreeSpaceMap {
    /// An empty map.
    pub fn new() -> FreeSpaceMap {
        FreeSpaceMap::default()
    }

    /// Register a newly allocated page with its free byte count.
    pub fn add_page(&mut self, free: usize) -> u32 {
        let id = self.free.len() as u32;
        self.free.push(free as u16);
        id
    }

    /// Update a page's free space.
    pub fn set(&mut self, page: u32, free: usize) {
        if let Some(slot) = self.free.get_mut(page as usize) {
            *slot = free as u16;
        }
    }

    /// Find a page with at least `need` free bytes, preferring earlier
    /// pages (keeps the table dense after vacuum).
    pub fn find(&self, need: usize) -> Option<u32> {
        self.free
            .iter()
            .position(|&f| f as usize >= need)
            .map(|p| p as u32)
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True if no page is tracked.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Truncate to `n` pages (VACUUM FULL shrinks the file).
    pub fn truncate(&mut self, n: usize) {
        self.free.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_find() {
        let mut f = FreeSpaceMap::new();
        let a = f.add_page(100);
        let b = f.add_page(5000);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(f.find(200), Some(1));
        assert_eq!(f.find(50), Some(0), "prefers earliest page that fits");
        assert_eq!(f.find(9000), None);
    }

    #[test]
    fn set_updates() {
        let mut f = FreeSpaceMap::new();
        f.add_page(1000);
        f.set(0, 10);
        assert_eq!(f.find(100), None);
        assert_eq!(f.find(10), Some(0));
    }

    #[test]
    fn truncate_forgets_tail() {
        let mut f = FreeSpaceMap::new();
        f.add_page(10);
        f.add_page(8000);
        f.truncate(1);
        assert_eq!(f.len(), 1);
        assert_eq!(f.find(1000), None);
    }
}
