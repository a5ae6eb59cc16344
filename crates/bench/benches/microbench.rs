//! Micro-benchmarks for the hot components: datapath arithmetic,
//! reference engines, packet framing, and whole-chip / cluster
//! timesteps.
//!
//! Self-contained harness (no external bench framework): each case is
//! warmed up, then timed over enough iterations to exceed a minimum
//! measurement window, reporting ns/iter. Run with `cargo bench`.

use fasda_arith::fixed::FixVec3;
use fasda_arith::interp::{InterpTable, TableConfig};
use fasda_baseline::ThreadedCpuEngine;
use fasda_cluster::{Cluster, ClusterConfig};
use fasda_core::config::ChipConfig;
use fasda_core::datapath::ForceDatapath;
use fasda_core::functional::FunctionalChip;
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::{Element, PairTable};
use fasda_md::engine::{CellListEngine, DirectEngine, ForceEngine};
use fasda_md::integrator::Integrator;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_net::encap::Packetizer;
use fasda_net::packet::PacketKind;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` (which runs one iteration on a fresh input from `setup`)
/// and print ns/iter, criterion-style.
fn bench_with_setup<I, R>(group: &str, name: &str, min: Duration, mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> R) {
    // warmup + calibration
    let t = Instant::now();
    let mut iters = 0u64;
    while t.elapsed() < min / 4 {
        black_box(f(setup()));
        iters += 1;
    }
    let target = iters.max(1) * 4;
    let inputs: Vec<I> = (0..target).map(|_| setup()).collect();
    let t = Instant::now();
    for input in inputs {
        black_box(f(input));
    }
    let per = t.elapsed().as_nanos() as f64 / target as f64;
    println!("{group}/{name:<28} {per:>14.1} ns/iter ({target} iters)");
}

fn bench(group: &str, name: &str, min: Duration, mut f: impl FnMut()) {
    bench_with_setup(group, name, min, || (), |()| f());
}

fn workload(d: u32, per_cell: u32) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(d),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0xFA5DA,
        element: Element::Na,
    }
    .generate()
}

const FAST: Duration = Duration::from_millis(200);
const SLOW: Duration = Duration::from_millis(400);

fn bench_datapath() {
    let dp = ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER);
    let home = ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(0.21, 0.47, 0.63));
    let nbr = ForceDatapath::concat((1, 2, 3), FixVec3::from_f64(0.85, 0.52, 0.11));
    let pair = dp.filter(home, nbr).expect("in range");

    bench("datapath", "filter", FAST, || {
        black_box(dp.filter(black_box(home), black_box(nbr)));
    });
    bench("datapath", "force", FAST, || {
        black_box(dp.force(Element::Na, Element::Na, black_box(pair)));
    });
    let table = InterpTable::build_r_pow(TableConfig::PAPER, 14);
    bench("datapath", "interp_lookup", FAST, || {
        let _ = black_box(table.eval(black_box(0.517f32)));
    });
}

fn bench_engines() {
    let sys = workload(3, 16);
    let table = PairTable::new(UnitSystem::PAPER);
    let mut direct = DirectEngine::new(table.clone());
    bench_with_setup("reference-engines", "direct_o_n2", SLOW, || sys.clone(), |mut s| {
        direct.compute_forces(&mut s)
    });
    let mut cell = CellListEngine::new(table.clone());
    bench_with_setup("reference-engines", "celllist_halfshell", SLOW, || sys.clone(), |mut s| {
        cell.compute_forces(&mut s)
    });
    let cpu = ThreadedCpuEngine::new(table, 1);
    bench_with_setup("reference-engines", "threaded_cpu_1t", SLOW, || sys.clone(), |mut s| {
        cpu.compute_forces(&mut s)
    });
}

fn bench_packets() {
    bench_with_setup(
        "network",
        "packetizer_offer_tick",
        FAST,
        || Packetizer::<u8, u64>::new(PacketKind::Position, vec![0, 1, 2], 2),
        |mut pz| {
            for i in 0..64u64 {
                pz.offer(&((i % 3) as u8), i, 0);
            }
            let mut out = 0;
            for cyc in 0..128 {
                if pz.tick(cyc).is_some() {
                    out += 1;
                }
            }
            out
        },
    );
}

fn bench_chip() {
    let sys = workload(3, 16);
    bench_with_setup(
        "chip",
        "functional_step_3cube_16",
        SLOW,
        || FunctionalChip::load(&sys, TableConfig::PAPER, 2.0),
        |mut chip| {
            chip.step();
            chip.num_particles()
        },
    );
    bench_with_setup(
        "chip",
        "timed_step_3cube_16",
        SLOW,
        || {
            let mut chip = TimedChip::new(
                ChipConfig::baseline(),
                ChipGeometry::single_chip(sys.space),
                UnitSystem::PAPER,
                2.0,
            );
            chip.load(&sys);
            chip
        },
        |mut chip| chip.run_timestep().total_cycles(),
    );
}

fn bench_cluster() {
    let sys = workload(6, 4);
    bench_with_setup(
        "cluster",
        "8_chips_one_step",
        SLOW,
        || Cluster::new(ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3)), &sys),
        |mut cl| cl.run(1).total_cycles,
    );
}

fn bench_integrator() {
    let sys = workload(3, 64);
    bench_with_setup("integrator", "leapfrog_step", FAST, || sys.clone(), |mut s| {
        Integrator::PAPER.leapfrog_step(&mut s);
        s.pos[0]
    });
}

fn main() {
    println!("fasda microbench (hand-rolled harness, ns/iter)");
    bench_datapath();
    bench_engines();
    bench_packets();
    bench_chip();
    bench_cluster();
    bench_integrator();
}
