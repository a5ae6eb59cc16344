//! # fasda-md
//!
//! Molecular-dynamics physics substrate for the FASDA reproduction.
//!
//! This crate is everything *below* the accelerator: the physics
//! (Lennard-Jones potential and force, paper Eqs. 1–2), the geometry
//! (periodic cell space with the paper's Eq. 7 cell indexing and the
//! half-shell neighbour mapping of Fig. 2), the integrators (Eqs. 4–6),
//! double-precision reference engines that serve as the ground truth for
//! every accelerator-correctness test and for the Fig. 19 energy-
//! conservation experiment, and the workload generator that reproduces the
//! paper's custom dataset (64 randomly-distributed sodium atoms per cell,
//! §5.1).
//!
//! Unit convention (see [`units`]): lengths in *cells* (1 cell = the cutoff
//! radius `Rc`, 8.5 Å in the paper's experiments), time in femtoseconds,
//! mass in amu, energy in kcal/mol. Velocities are cells/fs and forces
//! kcal/mol/cell.

pub mod celllist;
pub mod element;
pub mod engine;
pub mod ewald;
pub mod integrator;
pub mod observables;
pub mod pdb;
pub mod space;
pub mod system;
pub mod thermostat;
pub mod trajectory;
pub mod units;
pub mod vec3;
pub mod workload;

pub use celllist::{CellList, HALF_SHELL_OFFSETS, NEIGHBOR_OFFSETS};
pub use element::{Element, PairTable};
pub use engine::{CellListEngine, DirectEngine, ForceEngine};
pub use ewald::EwaldParams;
pub use integrator::{Integrator, IntegratorKind};
pub use space::{CellCoord, CellId, SimulationSpace};
pub use system::ParticleSystem;
pub use units::UnitSystem;
pub use vec3::Vec3;
pub use workload::{Placement, WorkloadSpec};
