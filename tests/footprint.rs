//! Footprint guard: the heap bytes one loaded P_SYS unit costs.
//!
//! Every unit of a loaded engine carries its own state — its tuple key,
//! its policy rows in the model and in the policy table, its stored
//! version, its index entries and audit records — so every byte of it is
//! paid once per row of the table. This suite counts live heap bytes with
//! its own global allocator across a load of [`UNITS`] GDPRBench units
//! (100 B payloads) through `Frontend::submit`, on the heap and on the LSM
//! substrate, and bounds the bytes per unit about 5 % above what a load
//! reads today (it prints the value). A regression of a few hundred bytes per unit — an
//! expanded key schedule kept per unit, a wider policy row — fails it.
//!
//! It counts the bytes *requested* and not yet freed, so it cannot see
//! memory an allocator keeps resident after a free (the hole a grown and
//! reallocated table leaves behind); CI's peak-RSS leak tripwire can.
//!
//! The suite holds one test, so no other test's allocations land in the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::GdprBench;

/// The system allocator, keeping a running total of the bytes requested
/// and not yet freed.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Units loaded per substrate.
const UNITS: usize = 3_000;

/// Requests per submitted batch, as a loader sends them.
const CHUNK: usize = 250;

/// Live heap bytes per unit after loading [`UNITS`] units into a fresh
/// P_SYS engine over `backend`: the engine is built and the load
/// generated before the first count, and both stay alive to the second.
fn bytes_per_unit(backend: BackendKind) -> usize {
    let load = GdprBench::new(54, 1_000).load_phase(UNITS);
    let controller = Session::new(Actor::Controller);
    let mut fe = Frontend::new(EngineConfig::p_sys().with_backend(backend));
    let before = LIVE.load(Relaxed);
    for chunk in load.chunks(CHUNK) {
        for response in fe.submit(&controller, chunk) {
            assert!(response.outcome.is_ok(), "{backend:?}: {response:?}");
        }
    }
    let grown = LIVE.load(Relaxed).saturating_sub(before);
    drop(fe);
    grown / UNITS
}

#[test]
fn a_loaded_p_sys_unit_stays_within_its_heap_budget() {
    // (substrate, bound in bytes per unit): the loads read 1,673 and
    // 1,502 B; with Sieve's index kept as postings (a sorted unit list per
    // (entity, purpose) key) instead of its books they read 1,815 and
    // 1,644 B, with the per-unit tables of a shard in hash maps instead
    // of dense `UnitMap`s as well 1,951 and 1,780 B, and with an expanded
    // AES schedule per unit in the key vault and an `Option<Ts>` per
    // policy row as well, 2,359 and 2,188 B.
    for (backend, bound) in [(BackendKind::Heap, 1_755), (BackendKind::Lsm, 1_575)] {
        let per_unit = bytes_per_unit(backend);
        println!("{backend:?}: {per_unit} heap bytes per loaded P_SYS unit (bound {bound})");
        assert!(
            per_unit <= bound,
            "{backend:?}: a loaded P_SYS unit holds {per_unit} heap bytes, over its bound of {bound}"
        );
    }
}
