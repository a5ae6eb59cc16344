//! The f64 cell-list reference accumulates each pair as its traversal
//! reaches it: one `compute_forces` on a dense 6³-cell system (64 atoms a
//! cell, 13,824 atoms) allocates well under 1 MiB — its cell list — not a
//! buffer of every in-cutoff pair (tens of MiB at this size).
//!
//! One `#[test]` only: the counting allocator is process-global, and the
//! count is gated on the measuring thread.

use fasda_md::element::PairTable;
use fasda_md::engine::{CellListEngine, ForceEngine};
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps an atomic counter and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn one_reference_force_pass_allocates_less_than_a_mebibyte() {
    let mut sys = WorkloadSpec {
        per_cell: 64,
        ..WorkloadSpec::paper(SimulationSpace::cubic(6), 64205)
    }
    .generate();
    let mut engine = CellListEngine::new(PairTable::new(UnitSystem::PAPER));
    let before = BYTES.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let pe = engine.compute_forces(&mut sys);
    MEASURING.with(|m| m.set(false));
    let spent = BYTES.load(Ordering::Relaxed) - before;
    assert!(pe.is_finite() && pe != 0.0, "the pass evaluated pairs");
    assert!(spent < 1 << 20, "compute_forces allocated {spent} bytes");
}
