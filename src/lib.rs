//! # FASDA — an FPGA-aided, scalable, distributed accelerator for
//! range-limited molecular dynamics
//!
//! A cycle-level, fully-distributed reproduction of the SC '23 FASDA
//! system in Rust. One umbrella crate re-exports the workspace:
//!
//! * [`arith`] — fixed-point positions and `r^-α` interpolation tables;
//! * [`md`] — MD physics: LJ forces, periodic cell space, integrators,
//!   double-precision reference engines, workload generation;
//! * [`sim`] — cycle-simulation substrate (FIFOs, pipelines, activity
//!   counters);
//! * [`core`] — the FASDA chip: CBB / SPE / SCBB architecture in both a
//!   functional (bit-faithful arithmetic) and a timed (cycle-level) model;
//! * [`net`] — 512-bit packets, encapsulation chains, topologies, the
//!   chained synchronization protocol;
//! * [`cluster`] — the multi-FPGA system gluing chips, packetizers, and
//!   synchronization into one driven simulation;
//! * [`baseline`] — the CPU (measured) and GPU (calibrated model)
//!   comparison systems of the paper's evaluation;
//! * [`trace`] — the cycle-level flight recorder: structured per-node
//!   events, stall attribution, Chrome-trace/metrics JSON export.
//!
//! ## Quickstart
//!
//! ```
//! use fasda::md::space::SimulationSpace;
//! use fasda::md::workload::WorkloadSpec;
//! use fasda::core::config::ChipConfig;
//! use fasda::core::geometry::ChipGeometry;
//! use fasda::core::timed::TimedChip;
//! use fasda::md::units::UnitSystem;
//!
//! // the paper's workload: 64 sodium atoms per cell, Rc = 8.5 Å cells
//! let space = SimulationSpace::cubic(3);
//! let mut sys = WorkloadSpec::paper(space, 42).generate();
//! sys.id.len();
//!
//! // one FASDA FPGA covering the space, cycle-level
//! let mut chip = TimedChip::new(
//!     ChipConfig::baseline(),
//!     ChipGeometry::single_chip(space),
//!     UnitSystem::PAPER,
//!     2.0,
//! );
//! chip.load(&sys);
//! let report = chip.run_timestep();
//! let rate = chip.config().hw.us_per_day(report.total_cycles() as f64, 2.0);
//! assert!(rate > 0.5, "simulation rate {rate} µs/day");
//! ```
//!
//! See `examples/` for runnable scenarios and `fasda-cli repro` (rows
//! from `crates/bench`) for every table and figure of the paper.

pub use fasda_arith as arith;
pub use fasda_baseline as baseline;
pub use fasda_cluster as cluster;
pub use fasda_core as core;
pub use fasda_md as md;
pub use fasda_net as net;
pub use fasda_sim as sim;
pub use fasda_trace as trace;
