//! # fasda-bench
//!
//! The FASDA paper's evaluation (§5) and the ablations, as functions that
//! return typed rows: one set of rows feeds the terminal (`fasda-cli
//! repro`), EXPERIMENTS.md (whose simulated tables are generated and
//! checked) and the claims tests (`tests/claims.rs`).
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig16`] | Fig. 16 — simulation rate (µs/day), weak + strong scaling, FPGA vs CPU vs GPU |
//! | [`fig17`] | Fig. 17 — hardware/time utilization of PR, FR, Filter, PE, MU |
//! | [`fig18`] | Fig. 18 — communication bandwidth demand and per-peer breakdown |
//! | [`table1`] | Table 1 — FPGA resource utilization (model vs paper) |
//! | [`fig19`] | Fig. 19 — energy relative error vs the f64 reference |
//! | [`ablate`] | §4.4 sync, §3.4 interpolation, §5.3 filters, §4.1 topology, Fig. 3 cell size |
//!
//! Nothing else lives here. Host-time numbers come from the frozen
//! `benchmark/` package (`BENCHMARK.json`), gates from `cargo test`, and
//! checkpoint costs from the run that pays them (the `host` object of
//! its heartbeat stream's `final` record); the hand-rolled
//! micro-benchmarks in `benches/` (`microbench`, `datapathbench`) are
//! for looking at one kernel at a time.

use fasda_cluster::{Cluster, ClusterConfig, ClusterRunReport, EngineConfig};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_sim::StatSet;

/// Timestep of every experiment (paper §5.1).
const DT_FS: f64 = 2.0;

/// A row of one of the tables: its cells, in the order of its header.
pub trait Row {
    const HEADER: &'static [&'static str];
    fn cells(&self) -> Vec<String>;
}

/// A row type and its [`Row`] impl in one declaration: after the struct,
/// `|r|` names the row, and each column is its heading and its cell.
macro_rules! row {
    ($(#[$doc:meta])* pub struct $name:ident { $($fields:tt)* } |$r:ident| $($head:literal: $cell:expr),+ $(,)?) => {
        $(#[$doc])*
        pub struct $name { $($fields)* }

        impl crate::Row for $name {
            const HEADER: &'static [&'static str] = &[$($head),+];
            fn cells(&self) -> Vec<String> {
                let $r = self;
                vec![$($cell.to_string()),+]
            }
        }
    };
}

pub mod ablate;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod table1;

/// `rows` as a Markdown table — the one format every table prints in.
pub fn markdown<R: Row>(rows: &[R]) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let header: Vec<String> = R::HEADER.iter().map(|h| h.to_string()).collect();
    let mut out = line(&header);
    out += &format!("|{}\n", "---|".repeat(header.len()));
    for row in rows {
        out += &line(&row.cells());
    }
    out
}

/// What a table reads from the command line; `None` is its default.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    pub steps: Option<u64>,
    /// The serial oracle engine instead of the fast one: the same rows,
    /// only wall-clock time differs.
    pub serial: bool,
    pub interval: Option<u64>,
    pub space: Option<u32>,
}

impl Spec {
    fn steps(&self, default: u64) -> u64 {
        self.steps.unwrap_or(default)
    }

    fn engine(&self) -> EngineConfig {
        if self.serial {
            EngineConfig::serial()
        } else {
            EngineConfig::auto()
        }
    }
}

/// One table `fasda-cli repro` prints.
pub struct Table {
    /// `figure` or `figure.table`, e.g. `fig16.weak`.
    pub id: &'static str,
    pub title: &'static str,
    /// The flags it reads, spelled as on the command line.
    pub flags: &'static str,
    /// Its rows as Markdown, then the lines derived from them.
    pub body: fn(&Spec) -> String,
}

impl Table {
    /// The table as printed: a heading naming it, then its body.
    pub fn render(&self, spec: &Spec) -> String {
        format!("### {} — {}\n\n{}", self.id, self.title, (self.body)(spec))
    }
}

/// Every table, in the order `repro` prints a figure's.
pub const TABLES: &[Table] = &[
    Table { id: "fig16.weak", flags: "--steps --serial", title: "FPGA weak scaling (variant A, 3×3×3 cells per FPGA)",
        body: |s| fig16::weak_body(&fig16::weak(s.steps(3), &s.engine())) },
    Table { id: "fig16.strong", flags: "--steps --serial", title: "FPGA strong scaling on 4×4×4 (8 FPGAs, 2×2×2 cells each)",
        body: |s| fig16::strong_body(&fig16::strong(s.steps(3), &s.engine())) },
    Table { id: "fig16.gpu", flags: "", title: "GPU model (CALIBRATED — no GPU present; see DESIGN.md)",
        body: |_| fig16::gpu_body(&fig16::gpu()) },
    Table { id: "fig16.cpu", flags: "--steps", title: "CPU (host-timed: rayon LJ engine, the OpenMM-CPU stand-in)",
        body: |s| fig16::cpu_body(&fig16::cpu(s.steps(3) as usize)) },
    Table { id: "fig16.large", flags: "--steps --serial", title: "FPGA simulated large clusters (right of Fig. 16; at most 2 steps)",
        body: |s| markdown(&fig16::large(s.steps(3).min(2), &s.engine())) },
    Table { id: "fig17", flags: "--steps --serial", title: "component utilization, hardware % / time %",
        body: |s| fig17::body(&fig17::utilisation(s.steps(2), &s.engine()), s.steps(2)) },
    Table { id: "fig18.bandwidth", flags: "--steps --serial", title: "(A) average per-FPGA bandwidth demand (paper: < 25 Gbps)",
        body: |s| markdown(&fig18::bandwidth(s.steps(2), &s.engine())) },
    Table { id: "fig18.peers", flags: "--steps --serial", title: "(B) traffic share of node (0,0,0) by peer",
        body: |s| markdown(&fig18::peers(s.steps(2), &s.engine())) },
    Table { id: "table1", flags: "", title: "per-FPGA resources, % of an Alveo U280 (model / paper)",
        body: |_| markdown(&table1::resources()) },
    Table { id: "fig19", flags: "--steps --interval --space",
        title: "energy relative error vs the f64 reference (paper: < 1e-3, mostly < 1e-4)",
        body: |s| {
            let steps = s.steps(1_000);
            let interval = s.interval.unwrap_or((steps / 20).max(1));
            fig19::body(&fig19::energy(steps, interval, s.space.unwrap_or(4)))
        } },
    Table { id: "ablate_sync", flags: "--steps --space --serial",
        title: "chained vs bulk synchronization, node 0 stalled per step (§4.4)",
        body: |s| markdown(&ablate::sync(s.steps(4), s.space.unwrap_or(6), &s.engine())) },
    Table { id: "ablate_interp.bins", flags: "--steps",
        title: "interpolation bins per section at 14 sections (§3.4; paper: 256)",
        body: |s| markdown(&ablate::interp_bins(s.steps(100))) },
    Table { id: "ablate_interp.sections", flags: "",
        title: "interpolation sections at 256 bins (domain floor = 2^-n_s)",
        body: |_| markdown(&ablate::interp_sections()) },
    Table { id: "ablate_filters", flags: "--steps", title: "filters per pipeline on 3×3×3, 1 PE per cell (§5.3; paper: 6)",
        body: |s| ablate::filters_body(&ablate::filters(s.steps(2))) },
    Table { id: "ablate_topology", flags: "--steps --serial", title: "inter-node topology, 6×6×6 on 8 FPGAs, variant A (§4.1)",
        body: |s| markdown(&ablate::topology(s.steps(2), &s.engine())) },
    Table { id: "ablate_cellsize", flags: "--steps", title: "cell edge vs cutoff on 3×3×3, 64 Na/cell (Fig. 3; paper: 1.0)",
        body: |s| markdown(&ablate::cellsize(s.steps(2))) },
];

/// The figures and ablations `repro` runs whole, in order.
pub fn figures() -> Vec<&'static str> {
    let mut figures: Vec<&str> = TABLES.iter().map(|t| t.id.split('.').next().unwrap_or(t.id)).collect();
    figures.dedup();
    figures
}

/// The tables `name` selects: every table of a figure, or one by its id.
pub fn select(name: &str) -> Vec<&'static Table> {
    TABLES.iter().filter(|t| t.id == name || t.id.split_once('.').is_some_and(|(fig, _)| fig == name)).collect()
}

/// One configuration of the paper's evaluation: a workload of 64 Na per
/// cell over `space` cells, `block` cells per FPGA, one design variant.
pub struct Design {
    pub label: &'static str,
    pub space: (u32, u32, u32),
    pub block: (u32, u32, u32),
    pub variant: DesignVariant,
}

/// The seven designs of Table 1, in its order: the weak-scaling series
/// (variant A, 3×3×3 cells per FPGA on 1, 2, 4 and 8 FPGAs), then strong
/// scaling on 4×4×4 with variants A, B and C.
pub const DESIGNS: [Design; 7] = [
    Design { label: "3×3×3", space: (3, 3, 3), block: (3, 3, 3), variant: DesignVariant::A },
    Design { label: "6×3×3", space: (6, 3, 3), block: (3, 3, 3), variant: DesignVariant::A },
    Design { label: "6×6×3", space: (6, 6, 3), block: (3, 3, 3), variant: DesignVariant::A },
    Design { label: "6×6×6", space: (6, 6, 6), block: (3, 3, 3), variant: DesignVariant::A },
    Design { label: "4×4×4-A", space: (4, 4, 4), block: (2, 2, 2), variant: DesignVariant::A },
    Design { label: "4×4×4-B", space: (4, 4, 4), block: (2, 2, 2), variant: DesignVariant::B },
    Design { label: "4×4×4-C", space: (4, 4, 4), block: (2, 2, 2), variant: DesignVariant::C },
];

/// What one run of a [`Design`] measured.
pub(crate) struct Run {
    pub fpgas: usize,
    pub us_per_day: f64,
    /// Component statistics over `window` cycles.
    pub stats: StatSet,
    pub window: u64,
    /// The cluster's report; `None` for a single FPGA, which runs as one
    /// chip with no network.
    pub report: Option<ClusterRunReport>,
}

impl Design {
    pub(crate) fn space(&self) -> SimulationSpace {
        let (x, y, z) = self.space;
        SimulationSpace::new(x, y, z)
    }

    /// Run `steps` timesteps. A single FPGA reports its last step's
    /// statistics over the mean step; a cluster reports all steps'
    /// statistics over the wall-clock window, inter-step sync gaps
    /// included, as on hardware.
    pub(crate) fn run(&self, steps: u64, engine: &EngineConfig) -> Run {
        let sys = workload(self.space());
        let chip = ChipConfig::variant(self.variant);
        if self.space == self.block {
            let geometry = ChipGeometry::single_chip(self.space());
            let mut timed = TimedChip::new(chip, geometry, UnitSystem::PAPER, DT_FS);
            timed.load(&sys);
            let (mut total, mut stats) = (0, StatSet::default());
            for _ in 0..steps {
                let r = timed.run_timestep();
                total += r.total_cycles();
                stats = r.stats;
            }
            let us_per_day = chip.hw.us_per_day(total as f64 / steps as f64, DT_FS);
            return Run { fpgas: 1, us_per_day, stats, window: total / steps, report: None };
        }
        let mut cluster = Cluster::new(ClusterConfig::paper(chip, self.block), &sys);
        let report = cluster.run_with(steps, engine);
        Run {
            fpgas: report.nodes,
            us_per_day: report.us_per_day(),
            stats: report.stats.clone(),
            window: report.total_cycles,
            report: Some(report),
        }
    }
}

/// The paper's workload over `space`: 64 neutral Na per cell, seed
/// `0xFA5DA`.
fn workload(space: SimulationSpace) -> ParticleSystem {
    WorkloadSpec::paper(space, 0xFA5DA).generate()
}
