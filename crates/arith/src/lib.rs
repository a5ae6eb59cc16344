//! # fasda-arith
//!
//! Bespoke arithmetic substrate for the FASDA accelerator model.
//!
//! FPGAs earn their MD performance partly through *flexible and bespoke
//! arithmetic* (paper §1): positions are stored as **fixed-point offsets
//! inside a cell** so that the hundreds of pair filters are cheap integer
//! subtract/multiply/compare circuits, while the expensive `r^-14` / `r^-8`
//! force terms are evaluated with a **section/bin linear interpolation
//! table** indexed directly by the exponent and mantissa bits of `r²`
//! (paper Eqs. 8–10, Fig. 7).
//!
//! This crate implements both, bit-faithfully enough that the functional
//! FASDA model reproduces the paper's energy-conservation behaviour
//! (Fig. 19) when compared against an `f64` reference:
//!
//! * [`fixed::Fix`] — a `Q5.26` signed fixed-point scalar. With the cutoff
//!   radius normalized to 1 cell (paper §3.4), concatenating the relative
//!   cell ID (RCID ∈ {1,2,3}) with the in-cell fraction yields coordinates
//!   in `[1,4)`, and filter distances in `(-3,3)`; squared distances stay
//!   below 27. All comfortably inside `Q5.26`.
//! * [`float_bits`] — section/bin index extraction from the raw bits of an
//!   `f32` (Eqs. 9–10).
//! * [`interp`] — construction and evaluation of the per-section,
//!   per-bin linear coefficient tables for arbitrary negative powers
//!   `r^-α` (α = 14, 8 for the LJ force terms).

pub mod fixed;
pub mod float_bits;
pub mod interp;

pub use fixed::{Fix, FixVec3};
pub use float_bits::{section_bin, SectionBin};
pub use interp::{InterpError, InterpTable, LjForceTable, TableConfig};
