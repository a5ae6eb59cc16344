//! A count gate, not a clock gate: on the fast engine a planned pair
//! costs one PE event — its issue — and every station a few more (the
//! wake when its first pair arrives, its drain, its ejection). Over a
//! dense variant-A chip's timestep (the `golden_tick` system at 64 atoms
//! a cell) the force tick's PE visits must stay within
//! `issued pairs + 4 × dispatched stations`: 324,075 here, for 227,415
//! pairs and 24,165 stations. The tick now reads 240,321 (0.74 of the
//! bound). The tick before it, which visited a PE per filter hit, again
//! per issue and again per retire, read 683,384 (2.11 of the bound).

use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};

#[test]
fn a_planned_pair_costs_one_pe_visit() {
    let per_cell = 64;
    let sys = WorkloadSpec {
        space: SimulationSpace::cubic(3),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0x7_1C4 + u64::from(per_cell),
        element: Element::Na,
    }
    .generate();
    let geo = ChipGeometry::single_chip(sys.space);
    let mut chip = TimedChip::new(ChipConfig::variant(DesignVariant::A), geo, UnitSystem::PAPER, 2.0);
    chip.load(&sys);
    chip.set_fast_path(true);
    chip.set_soa_scan(true);
    let report = chip.run_timestep();
    let visits = chip.pe_visits();
    let issued = report.valid_pairs;
    let dispatched: u64 = chip.cbbs.iter().map(|c| c.dispatched).sum();
    let bound = issued + 4 * dispatched;
    println!(
        "PE visits {visits} over {} force cycles: {issued} pairs issued, {dispatched} stations dispatched, bound {bound} ({:.2} of it)",
        report.force_cycles,
        visits as f64 / bound as f64
    );
    assert!(issued > 100_000 && dispatched > 10_000, "a dense phase");
    assert!(visits <= bound, "{visits} PE visits exceed the budget of {bound}");
}
