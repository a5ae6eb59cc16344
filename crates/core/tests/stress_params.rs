//! Stress tests of the timed model's backpressure and EX-node paths
//! under extreme (but legal) hardware parameters: tiny FIFOs force
//! flits to spin on the rings and stations to stall, which must change
//! timing but never physics.

use fasda_arith::interp::TableConfig;
use fasda_core::config::ChipConfig;
use fasda_core::functional::FunctionalChip;
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};

fn workload(seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(3),
        per_cell: 12,
        placement: Placement::JitteredLattice { jitter: 0.06 },
        temperature_k: 200.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

fn run_single(sys: &ParticleSystem, cfg: ChipConfig) -> (ParticleSystem, u64) {
    let mut chip = TimedChip::new(
        cfg,
        ChipGeometry::single_chip(sys.space),
        UnitSystem::PAPER,
        2.0,
    );
    chip.load(sys);
    let r = chip.run_timestep();
    let mut out = sys.clone();
    chip.store_into(&mut out);
    (out, r.total_cycles())
}

fn oracle(sys: &ParticleSystem) -> ParticleSystem {
    let mut f = FunctionalChip::load(sys, TableConfig::PAPER, 2.0);
    f.step();
    f.snapshot()
}

fn assert_same_physics(a: &ParticleSystem, b: &ParticleSystem) {
    for i in 0..a.len() {
        let d = a.space.min_image(a.pos[i], b.pos[i]).max_abs();
        assert!(d < 1e-6, "particle {i} off by {d}");
    }
}

#[test]
fn single_slot_pos_fifo_still_correct() {
    let sys = workload(81);
    let want = oracle(&sys);
    let mut cfg = ChipConfig::baseline();
    cfg.hw.pos_in_fifo_depth = 1; // flits must spin and retry
    let (got, cycles_tiny) = run_single(&sys, cfg);
    assert_same_physics(&got, &want);
    // sanity: the stall costs cycles relative to the default depth
    let (_, cycles_default) = run_single(&sys, ChipConfig::baseline());
    assert!(
        cycles_tiny >= cycles_default,
        "tiny FIFO cannot be faster: {cycles_tiny} vs {cycles_default}"
    );
}

#[test]
fn single_slot_frc_and_pair_fifos_still_correct() {
    let sys = workload(82);
    let want = oracle(&sys);
    let mut cfg = ChipConfig::baseline();
    cfg.hw.frc_out_fifo_depth = 1;
    cfg.hw.pair_fifo_depth = 1; // filters stall on a full pair FIFO
    let (got, _) = run_single(&sys, cfg);
    assert_same_physics(&got, &want);
}

#[test]
fn extreme_pipeline_latency_still_correct() {
    let sys = workload(83);
    let want = oracle(&sys);
    let mut cfg = ChipConfig::baseline();
    cfg.hw.force_pipe_latency = 200;
    cfg.hw.mu_latency = 100;
    let (got, cycles) = run_single(&sys, cfg);
    assert_same_physics(&got, &want);
    assert!(cycles > 300, "latency must be visible in the cycle count");
}

#[test]
fn single_filter_station_still_correct() {
    let sys = workload(84);
    let want = oracle(&sys);
    let mut cfg = ChipConfig::baseline();
    cfg.hw.filters_per_pe = 1;
    let (got, cycles_one) = run_single(&sys, cfg);
    assert_same_physics(&got, &want);
    let (_, cycles_six) = run_single(&sys, ChipConfig::baseline());
    assert!(
        cycles_one > cycles_six * 3,
        "1 filter ({cycles_one}) must be far slower than 6 ({cycles_six})"
    );
}

/// Two chips exchanged by hand at the EX interfaces — the minimal
/// distributed system, without packetizers or a switch. Validates the
/// ingest/drain contracts directly.
#[test]
fn manual_two_chip_exchange_matches_functional() {
    let global = SimulationSpace::new(6, 3, 3);
    let sys = WorkloadSpec {
        space: global,
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.06 },
        temperature_k: 150.0,
        seed: 85,
        element: Element::Na,
    }
    .generate();

    let mk = |x: u32| {
        let geo = ChipGeometry::new(global, (3, 3, 3), ChipCoord::new(x, 0, 0));
        let mut chip = TimedChip::new(ChipConfig::baseline(), geo, UnitSystem::PAPER, 2.0);
        chip.load(&sys);
        chip
    };
    let mut chips = [mk(0), mk(1)];
    for c in &mut chips {
        c.begin_force_phase();
    }

    // force phase with zero-latency manual exchange
    let mut guard = 0;
    loop {
        let mut all_idle = true;
        for c in &mut chips {
            if !c.force_phase_local_idle() {
                c.step_force_cycle();
                all_idle = false;
            }
        }
        for i in 0..2 {
            let o = 1 - i;
            for (_, f) in chips[i].drain_pos_egress().collect::<Vec<_>>() {
                chips[o].ingest_remote_pos(f);
                all_idle = false;
            }
            for (_, f) in chips[i].drain_frc_egress().collect::<Vec<_>>() {
                chips[o].ingest_remote_frc(f);
                all_idle = false;
            }
        }
        if all_idle
            && chips.iter().all(|c| c.force_phase_local_idle())
            && chips
                .iter()
                .all(|c| c.outstanding_from(ChipCoord::new(0, 0, 0)) == 0)
            && chips
                .iter()
                .all(|c| c.outstanding_from(ChipCoord::new(1, 0, 0)) == 0)
        {
            break;
        }
        guard += 1;
        assert!(guard < 10_000_000, "manual exchange failed to converge");
    }

    // MU phase (migrants exchanged the same way)
    for c in &mut chips {
        c.begin_mu_phase();
    }
    let mut guard = 0;
    loop {
        let mut all_idle = true;
        for c in &mut chips {
            if !c.mu_phase_local_idle() {
                c.step_mu_cycle();
                all_idle = false;
            }
        }
        for i in 0..2 {
            let o = 1 - i;
            for (_, m) in chips[i].drain_mig_egress().collect::<Vec<_>>() {
                chips[o].ingest_remote_mig(m);
                all_idle = false;
            }
        }
        if all_idle && chips.iter().all(|c| c.mu_phase_local_idle()) {
            break;
        }
        guard += 1;
        assert!(guard < 1_000_000, "MU exchange failed to converge");
    }
    for c in &mut chips {
        c.end_mu_phase();
    }

    let mut got = sys.clone();
    for c in &chips {
        c.store_into(&mut got);
    }
    let want = oracle(&sys);
    assert_same_physics(&got, &want);
    assert_eq!(
        chips.iter().map(|c| c.num_particles()).sum::<usize>(),
        sys.len()
    );
}
