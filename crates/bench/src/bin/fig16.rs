//! Figure 16 — Scalability comparison: simulation rate in µs/day.
//!
//! Left of the figure: weak scaling over 3³ / 6·3·3 / 6·6·3 / 6³ cell
//! spaces (1/2/4/8 FPGAs) and strong scaling on 4³ (8 FPGAs, design
//! variants A/B/C) against CPU thread sweeps and GPU device counts.
//! Right of the figure: simulated FPGA results for 8³ (64 FPGAs) and 10³
//! (125 FPGAs) with GPU model curves.
//!
//! Usage: `fig16 [--steps N] [--cpu-steps N] [--skip-cpu] [--skip-large]
//!               [--serial]`

use fasda_bench::{engine_from_args, rule, Args};
use fasda_baseline::{GpuKind, GpuModel, ThreadedCpuEngine};
use fasda_cluster::{Cluster, ClusterConfig, EngineConfig};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::PairTable;
use fasda_md::integrator::Integrator;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;

const DT_FS: f64 = 2.0;

fn workload(space: SimulationSpace) -> ParticleSystem {
    WorkloadSpec::paper(space, 0xFA5DA).generate()
}

/// FPGA rate for a single chip covering the whole space.
fn fpga_single(space: SimulationSpace, variant: DesignVariant, steps: u64) -> f64 {
    let sys = workload(space);
    let cfg = ChipConfig::variant(variant);
    let mut chip = TimedChip::new(cfg, ChipGeometry::single_chip(space), UnitSystem::PAPER, DT_FS);
    chip.load(&sys);
    let mut total = 0u64;
    for _ in 0..steps {
        total += chip.run_timestep().total_cycles();
    }
    cfg.hw.us_per_day(total as f64 / steps as f64, DT_FS)
}

/// FPGA rate for a cluster partition.
fn fpga_cluster(
    space: SimulationSpace,
    block: (u32, u32, u32),
    variant: DesignVariant,
    steps: u64,
    engine: &EngineConfig,
) -> (f64, usize) {
    let sys = workload(space);
    let cfg = ClusterConfig::paper(ChipConfig::variant(variant), block);
    let mut cluster = Cluster::new(cfg, &sys);
    let nodes = cluster.num_nodes();
    let report = cluster.run_with(steps, engine);
    (report.us_per_day(), nodes)
}

/// Returns `(µs/day, seconds per step)` for the measured CPU engine.
fn cpu_rate(space: SimulationSpace, threads: usize, steps: usize) -> (f64, f64) {
    let mut sys = workload(space);
    let eng = ThreadedCpuEngine::new(PairTable::new(UnitSystem::PAPER), threads);
    let secs = eng.measure(&mut sys, &Integrator::PAPER, steps);
    (UnitSystem::us_per_day(DT_FS, secs), secs)
}

fn main() {
    let args = Args::parse();
    let steps: u64 = args.get("steps", 3);
    let cpu_steps: usize = args.get("cpu-steps", 3);
    let skip_cpu = args.flag("skip-cpu");
    let skip_large = args.flag("skip-large");
    let engine = engine_from_args(&args);

    println!("FASDA reproduction — Figure 16: scalability comparison (µs/day)");
    println!("FPGA results: cycle-level simulation at 200 MHz, dt = 2 fs, 64 Na/cell");

    // ---------------------------------------------------------------
    rule("FPGA weak scaling (variant A: 1 SPE, 1 PE per cell)");
    println!("{:<12}{:>8}{:>14}{:>16}", "space", "FPGAs", "µs/day", "paper ≈2");
    let r = fpga_single(SimulationSpace::cubic(3), DesignVariant::A, steps);
    println!("{:<12}{:>8}{:>14.2}{:>16}", "3x3x3", 1, r, "~2");
    for (label, space, block, fpgas) in [
        ("6x3x3", SimulationSpace::new(6, 3, 3), (3, 3, 3), 2),
        ("6x6x3", SimulationSpace::new(6, 6, 3), (3, 3, 3), 4),
        ("6x6x6", SimulationSpace::cubic(6), (3, 3, 3), 8),
    ] {
        let (r, nodes) = fpga_cluster(space, block, DesignVariant::A, steps, &engine);
        assert_eq!(nodes, fpgas);
        println!("{:<12}{:>8}{:>14.2}{:>16}", label, fpgas, r, "~2");
    }

    // ---------------------------------------------------------------
    rule("FPGA strong scaling on 4x4x4 (8 FPGAs, 2x2x2 cells each)");
    println!("{:<12}{:>16}{:>14}", "variant", "config", "µs/day");
    let mut rate_a = 0.0;
    let mut rate_c = 0.0;
    for v in [DesignVariant::A, DesignVariant::B, DesignVariant::C] {
        let (r, _) = fpga_cluster(SimulationSpace::cubic(4), (2, 2, 2), v, steps, &engine);
        println!("{:<12}{:>16}{:>14.2}", format!("4x4x4-{v:?}"), v.label(), r);
        if v == DesignVariant::A {
            rate_a = r;
        }
        if v == DesignVariant::C {
            rate_c = r;
        }
    }
    println!(
        "C/A strong-scaling speedup: {:.2}x   (paper: 5.26x)",
        rate_c / rate_a
    );

    // ---------------------------------------------------------------
    rule("GPU model (CALIBRATED — no GPU present; see DESIGN.md)");
    for kind in [GpuKind::A100, GpuKind::V100] {
        println!("{}", GpuModel::new(kind, 1).describe());
    }
    println!(
        "\n{:<12}{:>10}{:>12}{:>12}{:>12}{:>12}",
        "space", "N", "1xA100", "2xA100", "1xV100", "4xV100"
    );
    let mut best_gpu_4cube: f64 = 0.0;
    for (label, cells) in [
        ("3x3x3", 27),
        ("4x4x4", 64),
        ("6x6x6", 216),
        ("8x8x8", 512),
        ("10x10x10", 1000),
    ] {
        let n = cells * 64;
        let a1 = GpuModel::new(GpuKind::A100, 1).us_per_day(n, DT_FS);
        let a2 = GpuModel::new(GpuKind::A100, 2).us_per_day(n, DT_FS);
        let v1 = GpuModel::new(GpuKind::V100, 1).us_per_day(n, DT_FS);
        let v4 = GpuModel::new(GpuKind::V100, 4).us_per_day(n, DT_FS);
        println!(
            "{:<12}{:>10}{:>12.2}{:>12.2}{:>12.2}{:>12.2}",
            label, n, a1, a2, v1, v4
        );
        if label == "4x4x4" {
            best_gpu_4cube = a1.max(a2).max(v1).max(v4);
        }
    }
    println!(
        "\nHeadline: FPGA 4x4x4-C {rate_c:.2} µs/day vs best GPU {best_gpu_4cube:.2} µs/day \
         → {:.2}x   (paper: 4.67x)",
        rate_c / best_gpu_4cube
    );

    // ---------------------------------------------------------------
    if !skip_cpu {
        rule("CPU (measured: rayon LJ engine — OpenMM-CPU stand-in)");
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        println!("host has {cores} hardware thread(s); oversubscribed points are annotated");
        println!(
            "{:<12}{:>9}{:>14}{:>14}",
            "space", "threads", "µs/day", "ms/step"
        );
        for (label, space) in [
            ("3x3x3", SimulationSpace::cubic(3)),
            ("4x4x4", SimulationSpace::cubic(4)),
            ("6x6x6", SimulationSpace::cubic(6)),
        ] {
            for threads in [1usize, 2, 4, 8, 16, 32] {
                let (r, secs) = cpu_rate(space, threads, cpu_steps);
                let note = if threads > cores { " (oversub.)" } else { "" };
                println!(
                    "{:<12}{:>9}{:>14.4}{:>14.2}{note}",
                    label,
                    threads,
                    r,
                    secs * 1e3
                );
            }
        }
    }

    // ---------------------------------------------------------------
    if !skip_large {
        rule("FPGA simulated large clusters (right of Fig. 16)");
        println!("{:<12}{:>8}{:>14}", "space", "FPGAs", "µs/day");
        for (label, space, fpgas) in [
            ("8x8x8", SimulationSpace::cubic(8), 64),
            ("10x10x10", SimulationSpace::cubic(10), 125),
        ] {
            let (r, nodes) = fpga_cluster(space, (2, 2, 2), DesignVariant::C, steps.min(2), &engine);
            assert_eq!(nodes, fpgas);
            println!("{:<12}{:>8}{:>14.2}", label, fpgas, r);
        }
    }

    println!("\ndone.");
}
