//! Ablations beyond the paper's figures, each of one design choice the
//! paper states a reason for.

use crate::{workload, DT_FS};
use fasda_arith::interp::{InterpTable, TableConfig};
use fasda_cluster::{Cluster, ClusterConfig, ClusterRunReport, EngineConfig};
use fasda_core::config::ChipConfig;
use fasda_core::functional::FunctionalChip;
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::{TimedChip, TimestepReport};
use fasda_md::element::PairTable;
use fasda_md::engine::{CellListEngine, ForceEngine};
use fasda_md::integrator::Integrator;
use fasda_md::observables::{kinetic_energy, relative_error};
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;
use fasda_net::sync::SyncMode;
use fasda_net::topology::Topology;

/// `cfg` run over `steps` steps of the paper workload on `d`³ cells.
fn cluster(cfg: ClusterConfig, d: u32, steps: u64, engine: &EngineConfig) -> ClusterRunReport {
    Cluster::new(cfg, &workload(SimulationSpace::cubic(d))).run_with(steps, engine)
}

/// `cfg` on one chip over 3×3×3 cells: every step's report.
fn single_chip(cfg: ChipConfig, steps: u64) -> Vec<TimestepReport> {
    let space = SimulationSpace::cubic(3);
    let mut chip = TimedChip::new(cfg, ChipGeometry::single_chip(space), UnitSystem::PAPER, DT_FS);
    chip.load(&workload(space));
    (0..steps).map(|_| chip.run_timestep()).collect()
}

row! {
    /// One synchronization mode under one injected stall.
    pub struct SyncRow {
        pub mode: &'static str,
        /// Cycles node 0 is stalled at the start of every force phase.
        pub stall: u64,
        pub cycles_per_step: f64,
        /// Mean spread of the nodes' step completion cycles.
        pub spread: f64,
    }
    |r| "mode": r.mode, "stall": r.stall, "cyc/step": format!("{:.0}", r.cycles_per_step),
        "spread": format!("{:.0}", r.spread)
}

/// Chained vs bulk synchronization (§4.4) on `d`³ cells with 3×3×3 per
/// FPGA. Bulk makes every node pay the stall plus the barrier round
/// trip; chained lets nodes that do not depend on the straggler keep
/// going. The paper argues against host barriers ("milliseconds for a
/// single MD iteration"): a central-FPGA barrier is taken at 2k cycles
/// and a host barrier at 200k (1 ms at 200 MHz).
pub fn sync(steps: u64, d: u32, engine: &EngineConfig) -> Vec<SyncRow> {
    let modes: [(&str, SyncMode); 3] = [
        ("chained", SyncMode::Chained),
        ("bulk (central FPGA, 2k cyc)", SyncMode::Bulk { latency: 2_000 }),
        ("bulk (host, 200k cyc ≈ 1 ms)", SyncMode::Bulk { latency: 200_000 }),
    ];
    let mut rows = Vec::new();
    for (mode, sync) in modes {
        for stall in [0u64, 5_000, 20_000] {
            let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
            cfg.sync = sync;
            cfg.straggler = (stall > 0).then_some((0, stall));
            let r = cluster(cfg, d, steps, engine);
            rows.push(SyncRow {
                mode,
                stall,
                cycles_per_step: r.cycles_per_step(),
                spread: r.avg_completion_spread(),
            });
        }
    }
    rows
}

row! {
    /// One interpolation-table geometry at 14 sections.
    pub struct InterpBinsRow {
        pub bins: u32,
        /// Worst relative error of the r⁻¹⁴ and r⁻⁸ tables over their domain.
        pub r14_error: f64,
        pub r8_error: f64,
        /// Total-energy error against the f64 reference after the run.
        pub energy_error: f64,
        pub bram_kb: f64,
    }
    |r| "bins": r.bins, "r^-14 err": format!("{:.3e}", r.r14_error), "r^-8 err": format!("{:.3e}", r.r8_error),
        "E err": format!("{:.3e}", r.energy_error), "BRAM Kb": format!("{:.0}", r.bram_kb)
}

fn r14_error(cfg: TableConfig) -> f64 {
    InterpTable::build_r_pow(cfg, 14).max_rel_error(|x| x.powf(-7.0), 20_000)
}

/// The bins-per-section sweep (§3.4, Fig. 7): error falls as `n_b⁻²`
/// while storage grows as `n_b`. The energy error is taken after
/// `steps` steps on 3×3×3 cells.
pub fn interp_bins(steps: u64) -> Vec<InterpBinsRow> {
    [4u32, 6, 8, 10]
        .map(|log2_bins| {
            let cfg = TableConfig { n_sections: 14, log2_bins };
            InterpBinsRow {
                bins: cfg.bins(),
                r14_error: r14_error(cfg),
                r8_error: InterpTable::build_r_pow(cfg, 8).max_rel_error(|x| x.powf(-4.0), 20_000),
                energy_error: trajectory_energy_error(cfg, steps),
                // four tables on chip: r^-14, r^-8, r^-12, r^-6
                bram_kb: 4.0 * cfg.storage_bits() as f64 / 1024.0,
            }
        })
        .into()
}

fn trajectory_energy_error(cfg: TableConfig, steps: u64) -> f64 {
    let sys = workload(SimulationSpace::cubic(3));
    let table = PairTable::new(UnitSystem::PAPER);
    let mut chip = FunctionalChip::load(&sys, cfg, 2.0);
    let mut ref_sys = sys.clone();
    let mut ref_eng = CellListEngine::new(table.clone());
    let mut meas = CellListEngine::new(table);
    for _ in 0..steps {
        chip.step();
        ref_eng.step(&mut ref_sys, &Integrator::PAPER);
    }
    let mut snap = chip.snapshot();
    let e_f = meas.compute_forces(&mut snap) + kinetic_energy(&snap);
    let e_r = meas.compute_forces(&mut ref_sys.clone()) + kinetic_energy(&ref_sys);
    relative_error(e_f, e_r)
}

row! {
    /// One section count at 256 bins; `min_r` is the smallest r the table
    /// covers (cell units).
    pub struct InterpSectionsRow { pub sections: u32, pub min_r: f64, pub r14_error: f64 }
    |r| "sections": r.sections, "domain min r": format!("{:.4}", r.min_r), "r^-14 err": format!("{:.3e}", r.r14_error)
}

/// The section-count sweep: sections only extend the domain floor toward
/// r = 0. An `inf` error means the slope coefficient overflowed f32
/// (r⁻¹⁴ ≈ 2¹¹⁹ at r² = 2⁻¹⁷), the hardware reason Fig. 7 excludes the
/// small-r region.
pub fn interp_sections() -> Vec<InterpSectionsRow> {
    [8u32, 11, 14, 17]
        .map(|n_sections| {
            let cfg = TableConfig { n_sections, log2_bins: 8 };
            InterpSectionsRow { sections: n_sections, min_r: cfg.domain_min().sqrt(), r14_error: r14_error(cfg) }
        })
        .into()
}

row! {
    /// One filter count's single-chip rate and utilization.
    pub struct FilterRow {
        pub filters: u32,
        pub cycles_per_step: f64,
        pub us_per_day: f64,
        /// Hardware utilization of the PEs and filters in the last step.
        pub pe_util: f64,
        pub filter_util: f64,
    }
    |r| "filters": r.filters, "cycles/step": format!("{:.0}", r.cycles_per_step), "µs/day": format!("{:.2}", r.us_per_day),
        "PE hw util": format!("{:.1}%", 100.0 * r.pe_util), "filter util": format!("{:.1}%", 100.0 * r.filter_util)
}

/// Filters per force pipeline (§5.3): with Eq. 3's ~15.5 % pass rate, 6
/// filters feed ≈ 0.93 valid pairs a cycle to a pipeline that drains 1.
/// Fewer starve it; more saturate it and cost LUTs.
pub fn filters(steps: u64) -> Vec<FilterRow> {
    [1u32, 2, 4, 6, 8, 12]
        .map(|filters| {
            let mut cfg = ChipConfig::baseline();
            cfg.hw.filters_per_pe = filters;
            let reports = single_chip(cfg, steps);
            let cycles: u64 = reports.iter().map(|r| r.total_cycles()).sum();
            let last = reports.last().expect("at least one step");
            let cycles_per_step = cycles as f64 / steps as f64;
            FilterRow {
                filters,
                cycles_per_step,
                us_per_day: cfg.hw.us_per_day(cycles_per_step, DT_FS),
                pe_util: last.stats.hardware_util("PE", last.total_cycles()),
                filter_util: last.stats.hardware_util("Filter", last.total_cycles()),
            }
        })
        .into()
}

pub(crate) fn filters_body(rows: &[FilterRow]) -> String {
    let fastest = rows.iter().min_by(|a, b| a.cycles_per_step.total_cmp(&b.cycles_per_step));
    format!(
        "{}\nfastest at {} filters; the paper's 6 balances speed against the hundreds of filter \
         instances the design replicates (LUT cost).\n",
        crate::markdown(rows),
        fastest.map_or(0, |r| r.filters)
    )
}

row! {
    /// One inter-node topology's rate.
    pub struct TopologyRow { pub topology: &'static str, pub cycles_per_step: f64, pub us_per_day: f64 }
    |r| "topology": r.topology, "cyc/step": format!("{:.0}", r.cycles_per_step), "µs/day": format!("{:.2}", r.us_per_day)
}

/// Switch vs ring vs 2nd-order hyper-ring (§4.1, Fig. 8) for 6×6×6 cells
/// on 8 FPGAs: the paper's testbed uses a 100 GbE switch but argues for
/// direct hyper-ring wiring, trading switch latency for hop latency that
/// grows with ring distance.
pub fn topology(steps: u64, engine: &EngineConfig) -> Vec<TopologyRow> {
    let cases: [(&str, Topology); 5] = [
        ("switch, 1 µs (paper testbed)", Topology::Switch { latency: 200 }),
        ("switch, 5 µs (congested)", Topology::Switch { latency: 1000 }),
        ("hyper-ring (8 nodes, 50-cycle FMC hops)", Topology::HyperRing { nodes: 8, hop_latency: 50 }),
        ("hyper-ring (8 nodes, 200-cycle hops)", Topology::HyperRing { nodes: 8, hop_latency: 200 }),
        (
            "2nd-order hyper-ring (4x2, 50/100 cycles)",
            Topology::HyperRing2 { inner: 4, rings: 2, hop_latency: 50, bridge_latency: 100 },
        ),
    ];
    cases
        .map(|(topology, topo)| {
            let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
            cfg.topology = topo;
            let r = cluster(cfg, 6, steps, engine);
            TopologyRow { topology, cycles_per_step: r.cycles_per_step(), us_per_day: r.us_per_day() }
        })
        .into()
}

row! {
    /// One cutoff below the cell edge.
    pub struct CellRow {
        /// Cutoff radius in cell edges.
        pub cutoff: f64,
        /// Valid pairs per step.
        pub valid_pairs: u64,
        /// Valid pairs over filter comparisons.
        pub pass_rate: f64,
        pub us_per_day: f64,
        /// PE hardware utilization in the last step.
        pub pe_util: f64,
    }
    |r| "cell/Rc": format!("{:.2}", 1.0 / r.cutoff), "cutoff": format!("{:.2}", r.cutoff), "valid pairs": r.valid_pairs,
        "pass rate": format!("{:.1}%", 100.0 * r.pass_rate), "µs/day": format!("{:.2}", r.us_per_day),
        "PE hw util": format!("{:.1}%", 100.0 * r.pe_util)
}

/// Cell edge vs cutoff (Fig. 3): the cell edge equals `Rc` because it is
/// "the biggest value for efficient particle pair filtering". Shrinking
/// the cutoff below the edge leaves the candidate traffic unchanged
/// while the valid fraction collapses.
pub fn cellsize(steps: u64) -> Vec<CellRow> {
    [1.0f64, 0.9, 0.8, 0.7, 0.6, 0.5]
        .map(|cutoff| {
            let mut cfg = ChipConfig::baseline();
            cfg.cutoff_cells = cutoff;
            let reports = single_chip(cfg, steps);
            let cycles: u64 = reports.iter().map(|r| r.total_cycles()).sum();
            let valid: u64 = reports.iter().map(|r| r.valid_pairs).sum();
            let comparisons: u64 = reports.iter().map(|r| r.comparisons).sum();
            let last = reports.last().expect("at least one step");
            CellRow {
                cutoff,
                valid_pairs: valid / steps,
                pass_rate: valid as f64 / comparisons.max(1) as f64,
                us_per_day: cfg.hw.us_per_day(cycles as f64 / steps as f64, DT_FS),
                pe_util: last.stats.hardware_util("PE", last.total_cycles()),
            }
        })
        .into()
}
