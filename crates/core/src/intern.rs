//! A tiny global string interner.
//!
//! Purposes, role names, and dependency-function labels are short strings
//! compared and hashed constantly on the hot path (every policy check).
//! Interning turns them into `u32` symbols with `&'static str` resolution.
//! The interned set is small and append-only, so leaking the backing
//! strings is deliberate and bounded.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// An interned string handle; equality and hashing are integer operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// String → symbol: the write side, taken only by [`Symbol::intern`].
fn interner() -> &'static Mutex<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Symbol → string: append-only and read without a lock — resolving a
/// name is on every shard thread's audit path. Chunk `k` holds `2^k`
/// slots, so 32 chunks cover every `u32` and no slot ever moves.
static STRINGS: [OnceLock<Box<[OnceLock<&'static str>]>>; 32] = [const { OnceLock::new() }; 32];

/// Where symbol `id` lives in [`STRINGS`]: `(chunk, offset)`.
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let chunk = n.ilog2();
    (chunk as usize, (n - (1 << chunk)) as usize)
}

impl Symbol {
    /// Intern `s`, returning its symbol (idempotent per string).
    pub fn intern(s: &str) -> Symbol {
        let mut map = interner().lock().expect("interner poisoned");
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(map.len()).expect("interner full");
        let (chunk, at) = slot(id);
        let slots =
            STRINGS[chunk].get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
        slots[at].set(leaked).expect("a slot is written once");
        map.insert(leaked, id);
        Symbol(id)
    }

    /// Resolve back to the string. Lock-free: a `Symbol` exists only
    /// after its slot was written.
    pub fn as_str(self) -> &'static str {
        let (chunk, at) = slot(self.0);
        STRINGS[chunk]
            .get()
            .and_then(|slots| slots[at].get())
            .expect("a symbol's string is published before the symbol")
    }

    /// The raw symbol index (for compact serialization in logs).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("billing");
        let b = Symbol::intern("billing");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "billing");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("alpha-x");
        let b = Symbol::intern("beta-x");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha-x");
        assert_eq!(b.as_str(), "beta-x");
    }

    #[test]
    fn display_shows_string() {
        let s = Symbol::intern("retention");
        assert_eq!(format!("{s}"), "retention");
        assert!(format!("{s:?}").contains("retention"));
    }

    #[test]
    fn slots_tile_the_symbol_space() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(1), (1, 0));
        assert_eq!(slot(2), (1, 1));
        assert_eq!(slot(3), (2, 0));
        assert_eq!(slot(6), (2, 3));
        assert_eq!(slot(u32::MAX - 1), (31, (1 << 31) - 1));
    }

    #[test]
    fn symbols_resolve_across_chunk_boundaries() {
        // Enough fresh strings to cross several chunk boundaries whatever
        // the other tests of this process interned first.
        let syms: Vec<(Symbol, String)> = (0..300)
            .map(|i| {
                let s = format!("chunk-walk-{i}");
                (Symbol::intern(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(sym.as_str(), s);
            assert_eq!(Symbol::intern(s), *sym);
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent-key")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
