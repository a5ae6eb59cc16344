//! # fasda-core
//!
//! The paper's primary contribution: the FASDA accelerator architecture
//! for range-limited molecular dynamics, modelled at cycle level.
//!
//! A FASDA chip (one FPGA) is a set of **Cell Building Blocks** (CBBs),
//! one per simulation cell mapped to the chip. Each CBB couples a
//! Processing Element (a bank of fixed-point pair filters feeding a
//! floating-point force pipeline), Position/Force/Velocity Caches, a
//! Motion-Update unit, and three ring nodes that splice the CBB into the
//! chip-wide position, force, and motion-update rings (paper Fig. 5).
//! Strong scaling replaces the single PE with a **Scalable PE** (several
//! PEs per cell, §4.5) and then a **Scalable CBB** (several SPEs per cell
//! with banked force caches and an adder tree, §4.6).
//!
//! Two execution models share one numerical datapath
//! ([`datapath::ForceDatapath`]):
//!
//! * [`functional::FunctionalChip`] — bit-faithful arithmetic (fixed-point
//!   positions, interpolated `r⁻¹⁴`/`r⁻⁸`, `f32` accumulation) with no
//!   timing. Used for trajectory validation and the Fig. 19 energy
//!   experiment.
//! * [`timed::TimedChip`] — the cycle-level microarchitecture model:
//!   slotted rings, filter stations with drain tracking, latency-43 force
//!   pipelines, FIFO backpressure, motion-update streaming. Produces the
//!   cycle counts behind Fig. 16 and the utilization counters behind
//!   Fig. 17, and exposes the EX-node interfaces `fasda-cluster` drives
//!   for multi-chip runs.
//!
//! [`resources`] implements the analytic LUT/FF/BRAM/URAM/DSP model that
//! regenerates Table 1.

pub mod config;
pub mod datapath;
pub mod functional;
pub mod geometry;
pub mod resources;
pub mod timed;

pub use config::{ChipConfig, DesignVariant, HwParams};
pub use datapath::ForceDatapath;
pub use functional::FunctionalChip;
pub use geometry::{ChipCoord, ChipGeometry, Dest};
pub use timed::{MuOverflow, PhaseReport, TimedChip, TimestepReport};
