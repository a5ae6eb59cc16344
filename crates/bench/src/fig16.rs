//! Figure 16 — scalability: simulation rate in µs/day.
//!
//! Left of the figure: weak scaling over 3³ / 6·3·3 / 6·6·3 / 6³ cell
//! spaces (1/2/4/8 FPGAs) and strong scaling on 4³ (8 FPGAs, design
//! variants A/B/C) against CPU thread sweeps and GPU device counts.
//! Right of the figure: simulated FPGA results for 8³ (64 FPGAs) and 10³
//! (125 FPGAs).

use crate::{workload, Design, DESIGNS, DT_FS};
use fasda_baseline::{GpuKind, GpuModel, ThreadedCpuEngine};
use fasda_cluster::EngineConfig;
use fasda_core::config::DesignVariant;
use fasda_md::element::PairTable;
use fasda_md::integrator::Integrator;
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;

row! {
    /// The simulated rate of one design.
    pub struct RateRow { pub design: &'static str, pub fpgas: usize, pub variant: DesignVariant, pub us_per_day: f64 }
    |r| "design": r.design, "FPGAs": r.fpgas, "config": r.variant.label(), "µs/day": format!("{:.2}", r.us_per_day)
}

fn rates(designs: &[Design], steps: u64, engine: &EngineConfig) -> Vec<RateRow> {
    designs
        .iter()
        .map(|d| {
            let run = d.run(steps, engine);
            RateRow { design: d.label, fpgas: run.fpgas, variant: d.variant, us_per_day: run.us_per_day }
        })
        .collect()
}

/// Weak scaling: variant A, 3×3×3 cells per FPGA on 1, 2, 4 and 8 FPGAs.
pub fn weak(steps: u64, engine: &EngineConfig) -> Vec<RateRow> {
    rates(&DESIGNS[..4], steps, engine)
}

/// Largest rate over smallest, less one: how far weak scaling is from
/// flat.
pub fn spread(rows: &[RateRow]) -> f64 {
    let rate = rows.iter().map(|r| r.us_per_day);
    rate.clone().fold(f64::MIN, f64::max) / rate.fold(f64::MAX, f64::min) - 1.0
}

pub(crate) fn weak_body(rows: &[RateRow]) -> String {
    format!(
        "{}\nspread over {} to {} FPGAs: {:.1} % (paper: flat, ≈ 2 µs/day)\n",
        crate::markdown(rows),
        rows[0].fpgas,
        rows[rows.len() - 1].fpgas,
        100.0 * spread(rows)
    )
}

/// Strong scaling on 4×4×4 over 8 FPGAs: variants A, B and C.
pub fn strong(steps: u64, engine: &EngineConfig) -> Vec<RateRow> {
    rates(&DESIGNS[4..], steps, engine)
}

/// Variant C's rate over variant A's (paper: 5.26×).
pub fn speedup_c_over_a(rows: &[RateRow]) -> f64 {
    let rate = |v| rows.iter().find(|r| r.variant == v).map_or(f64::NAN, |r| r.us_per_day);
    rate(DesignVariant::C) / rate(DesignVariant::A)
}

pub(crate) fn strong_body(rows: &[RateRow]) -> String {
    let rate_c = rows.iter().find(|r| r.variant == DesignVariant::C).map_or(f64::NAN, |r| r.us_per_day);
    let best_gpu = gpu().iter().find(|g| g.space == "4×4×4").map_or(f64::NAN, GpuRow::best);
    format!(
        "{}\nC/A strong-scaling speedup: {:.2}× (paper: 5.26×)\n\
         headline: FPGA 4×4×4-C {rate_c:.2} µs/day vs best GPU (model) {best_gpu:.2} µs/day \
         → {:.2}× (paper: 4.67×)\n",
        crate::markdown(rows),
        speedup_c_over_a(rows),
        rate_c / best_gpu
    )
}

/// Simulated large clusters, variant C with 2×2×2 cells per FPGA: 8×8×8
/// on 64 FPGAs and 10×10×10 on 125.
pub fn large(steps: u64, engine: &EngineConfig) -> Vec<RateRow> {
    const LARGE: [Design; 2] = [
        Design { label: "8×8×8", space: (8, 8, 8), block: (2, 2, 2), variant: DesignVariant::C },
        Design { label: "10×10×10", space: (10, 10, 10), block: (2, 2, 2), variant: DesignVariant::C },
    ];
    rates(&LARGE, steps, engine)
}

row! {
    /// The calibrated GPU model's rate for one space.
    pub struct GpuRow {
        pub space: &'static str,
        pub particles: usize,
        /// µs/day on 1×A100, 2×A100, 1×V100 and 4×V100.
        pub us_per_day: [f64; 4],
    }
    |r| "space": r.space, "N": r.particles, "1×A100": r.rate(0), "2×A100": r.rate(1), "1×V100": r.rate(2),
        "4×V100": r.rate(3)
}

impl GpuRow {
    fn rate(&self, gpus: usize) -> String {
        format!("{:.2}", self.us_per_day[gpus])
    }

    fn best(&self) -> f64 {
        self.us_per_day.into_iter().fold(0.0, f64::max)
    }
}

const GPUS: [(GpuKind, u32); 4] =
    [(GpuKind::A100, 1), (GpuKind::A100, 2), (GpuKind::V100, 1), (GpuKind::V100, 4)];

/// The GPU model (calibrated: no GPU is present) over five spaces.
pub fn gpu() -> Vec<GpuRow> {
    [("3×3×3", 27), ("4×4×4", 64), ("6×6×6", 216), ("8×8×8", 512), ("10×10×10", 1000)]
        .into_iter()
        .map(|(space, cells)| {
            let particles = cells * 64;
            let us_per_day = GPUS.map(|(kind, g)| GpuModel::new(kind, g).us_per_day(particles, DT_FS));
            GpuRow { space, particles, us_per_day }
        })
        .collect()
}

pub(crate) fn gpu_body(rows: &[GpuRow]) -> String {
    let models: Vec<String> =
        [GpuKind::A100, GpuKind::V100].map(|k| GpuModel::new(k, 1).describe()).into();
    format!("{}\n{}\n", crate::markdown(rows), models.join("\n"))
}

row! {
    /// The measured CPU engine at one thread count.
    pub struct CpuRow {
        pub space: &'static str,
        pub threads: usize,
        pub us_per_day: f64,
        pub ms_per_step: f64,
        /// More threads than the host has hardware threads.
        pub oversubscribed: bool,
    }
    |r| "space": r.space, "threads": format!("{}{}", r.threads, if r.oversubscribed { " (oversub.)" } else { "" }),
        "µs/day": format!("{:.4}", r.us_per_day), "ms/step": format!("{:.2}", r.ms_per_step)
}

/// The rayon LJ engine (the OpenMM-CPU stand-in), timed on this host
/// over `steps` steps at 1–32 threads.
pub fn cpu(steps: usize) -> Vec<CpuRow> {
    let cores = hardware_threads();
    let mut rows = Vec::new();
    for (space, d) in [("3×3×3", 3), ("4×4×4", 4), ("6×6×6", 6)] {
        for threads in [1usize, 2, 4, 8, 16, 32] {
            let mut sys = workload(SimulationSpace::cubic(d));
            let eng = ThreadedCpuEngine::new(PairTable::new(UnitSystem::PAPER), threads);
            let secs = eng.measure(&mut sys, &Integrator::PAPER, steps);
            let us_per_day = UnitSystem::us_per_day(DT_FS, secs);
            let oversubscribed = threads > cores;
            rows.push(CpuRow { space, threads, us_per_day, ms_per_step: secs * 1e3, oversubscribed });
        }
    }
    rows
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

pub(crate) fn cpu_body(rows: &[CpuRow]) -> String {
    let cores = hardware_threads();
    format!("{}\nhost has {cores} hardware thread(s)\n", crate::markdown(rows))
}
