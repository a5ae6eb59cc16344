//! A count gate, not a clock gate: once a force phase is under way, the
//! chip tick allocates nothing. Scan plans, pair FIFOs, force pipelines,
//! stage-visit scratch and egress buffers all reach their steady capacity
//! during the warm-up, so 2,000 mid-phase cycles of a dense variant-A chip
//! and of a variant-C chip, and the body of a sparse variant-A chip's
//! short force phase (where ring delivery, not the PEs, is most of the
//! tick), must run with **zero** heap allocations — a regression
//! here (a per-cycle `collect()`, a buffer rebuilt per tick) costs host
//! time on every simulated cycle and no wall-clock assertion would catch
//! it reliably on a shared CI host.
//!
//! One `#[test]` only: the counting allocator is process-global, and the
//! count is gated on the measuring thread.

use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps an atomic counter and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations across `measured` force cycles of a force phase, after
/// `warm_steps` whole warm-up timesteps and `warm` cycles of this phase.
/// (A station's scan plan grows to the longest hit list it has held;
/// with six times the stations, variant C needs more steps for every
/// station to have seen a long one.)
fn allocations_mid_phase(variant: DesignVariant, per_cell: u32, warm_steps: u32, (warm, measured): (u64, u64)) -> u64 {
    let space = SimulationSpace::cubic(3);
    let sys = WorkloadSpec {
        space,
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 64205,
        element: Element::Na,
    }
    .generate();
    let geo = ChipGeometry::single_chip(space);
    let mut chip = TimedChip::new(ChipConfig::variant(variant), geo, UnitSystem::PAPER, 2.0);
    chip.load(&sys);
    chip.set_fast_path(true);
    chip.set_soa_scan(true);
    for _ in 0..warm_steps {
        chip.run_timestep();
    }

    chip.reset_stats();
    chip.begin_force_phase();
    for _ in 0..warm {
        chip.step_force_cycle();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    for _ in 0..measured {
        chip.step_force_cycle();
    }
    MEASURING.with(|m| m.set(false));
    assert!(
        !chip.force_phase_local_idle(),
        "the measured window must lie inside the force phase"
    );
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn mid_phase_force_cycles_do_not_allocate() {
    const DENSE: (u64, u64) = (300, 2_000);
    assert_eq!(
        allocations_mid_phase(DesignVariant::A, 64, 1, DENSE),
        0,
        "variant A, 64 per cell"
    );
    assert_eq!(
        allocations_mid_phase(DesignVariant::C, 64, 3, DENSE),
        0,
        "variant C, 64 per cell"
    );
    // A 4-per-cell phase is a few hundred cycles long.
    assert_eq!(
        allocations_mid_phase(DesignVariant::A, 4, 1, (40, 250)),
        0,
        "variant A, 4 per cell"
    );
}
