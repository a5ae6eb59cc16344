//! Workload generation — the paper's custom dataset (§5.1, artifact
//! appendix).
//!
//! "We used a custom dataset that involves the initialization of 64
//! randomly distributed sodium particles in each cell, while ensuring that
//! none of the particles are too close to be excluded." The artifact
//! generates these as PDB files of neutral sodium in vacuum.
//!
//! Two placement strategies are offered:
//!
//! * [`Placement::JitteredLattice`] — a 4×4×4 sub-lattice per cell (for 64
//!   per cell) with bounded random jitter. Guarantees the minimum
//!   separation by construction and is O(N); the default.
//! * [`Placement::Rejection`] — uniform random placement with
//!   minimum-separation rejection, closer to the artifact's literal
//!   "randomly distributed" but O(N·m) and unable to reach high densities.

use crate::element::Element;
use crate::space::SimulationSpace;
use crate::system::ParticleSystem;
use crate::units::UnitSystem;
use crate::vec3::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How particles are placed inside each cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Per-cell sub-lattice with uniform jitter of ± `jitter` cells per
    /// axis. The sub-lattice pitch for `k³` particles per cell is `1/k`,
    /// so the worst-case pair separation is `1/k − 2·jitter`.
    JitteredLattice {
        /// Jitter half-width in cell units.
        jitter: f64,
    },
    /// Uniform random placement, rejecting candidates closer than
    /// `min_sep` (cell units) to any accepted particle in the same or
    /// adjacent cells.
    Rejection {
        /// Minimum pair separation in cell units.
        min_sep: f64,
    },
}

/// Specification of a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Simulation space in cells.
    pub space: SimulationSpace,
    /// Particles per cell (the paper uses 64).
    pub per_cell: u32,
    /// Placement strategy.
    pub placement: Placement,
    /// Maxwell–Boltzmann initial temperature (K); 0 for a cold start.
    pub temperature_k: f64,
    /// RNG seed — identical specs generate identical systems.
    pub seed: u64,
    /// Species (the paper uses sodium).
    pub element: Element,
}

impl WorkloadSpec {
    /// The paper's configuration over a given space: 64 Na per cell.
    pub fn paper(space: SimulationSpace, seed: u64) -> Self {
        WorkloadSpec {
            space,
            per_cell: 64,
            placement: Placement::JitteredLattice { jitter: 0.04 },
            temperature_k: 300.0,
            seed,
            element: Element::Na,
        }
    }

    /// Generate the particle system.
    pub fn generate(&self) -> ParticleSystem {
        let mut sys = ParticleSystem::new(self.space, UnitSystem::PAPER);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        match self.placement {
            Placement::JitteredLattice { jitter } => {
                self.place_lattice(&mut sys, &mut rng, jitter)
            }
            Placement::Rejection { min_sep } => self.place_rejection(&mut sys, &mut rng, min_sep),
        }
        if self.temperature_k > 0.0 {
            self.thermalize(&mut sys, &mut rng);
        }
        debug_assert!(sys.validate().is_ok());
        sys
    }

    /// Whether the placement can hold `per_cell` particles: a jittered
    /// lattice needs its pitch `1/⌈∛per_cell⌉` to exceed twice the jitter,
    /// or neighbouring sites could swap order (or coincide).
    /// [`WorkloadSpec::generate`] panics when this fails, so check a
    /// `per_cell` that came from outside the program here first.
    pub fn check(&self) -> Result<(), String> {
        if let Placement::JitteredLattice { jitter } = self.placement {
            // smallest k with k³ >= per_cell
            let pitch = 1.0 / (self.per_cell as f64).cbrt().ceil();
            if jitter * 2.0 >= pitch {
                return Err(format!("jitter {jitter} too large for lattice pitch {pitch}"));
            }
        }
        Ok(())
    }

    fn place_lattice(&self, sys: &mut ParticleSystem, rng: &mut SmallRng, jitter: f64) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        // smallest k with k³ >= per_cell
        let k = (self.per_cell as f64).cbrt().ceil() as u32;
        let pitch = 1.0 / k as f64;
        for cell in self.space.iter_cells().collect::<Vec<_>>() {
            let base = Vec3::new(cell.x as f64, cell.y as f64, cell.z as f64);
            let mut placed = 0;
            'sites: for ix in 0..k {
                for iy in 0..k {
                    for iz in 0..k {
                        if placed == self.per_cell {
                            break 'sites;
                        }
                        let site = Vec3::new(
                            (ix as f64 + 0.5) * pitch,
                            (iy as f64 + 0.5) * pitch,
                            (iz as f64 + 0.5) * pitch,
                        );
                        let j = Vec3::new(
                            rng.gen_range(-jitter..=jitter),
                            rng.gen_range(-jitter..=jitter),
                            rng.gen_range(-jitter..=jitter),
                        );
                        sys.push(self.element, base + site + j, Vec3::ZERO);
                        placed += 1;
                    }
                }
            }
        }
    }

    fn place_rejection(&self, sys: &mut ParticleSystem, rng: &mut SmallRng, min_sep: f64) {
        let min_sep_sq = min_sep * min_sep;
        const MAX_TRIES: u32 = 10_000;
        for cell in self.space.iter_cells().collect::<Vec<_>>() {
            let base = Vec3::new(cell.x as f64, cell.y as f64, cell.z as f64);
            for _ in 0..self.per_cell {
                let mut accepted = false;
                for _ in 0..MAX_TRIES {
                    let p = base
                        + Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
                    // check against all existing (small systems only; the
                    // lattice strategy covers production sizes)
                    let ok = sys
                        .pos
                        .iter()
                        .all(|q| sys.space.min_image(p, *q).norm_sq() >= min_sep_sq);
                    if ok {
                        sys.push(self.element, p, Vec3::ZERO);
                        accepted = true;
                        break;
                    }
                }
                assert!(
                    accepted,
                    "rejection sampling failed: density too high for min_sep {min_sep}"
                );
            }
        }
    }

    fn thermalize(&self, sys: &mut ParticleSystem, rng: &mut SmallRng) {
        // Box–Muller MB velocities, then remove the centre-of-mass drift.
        for i in 0..sys.len() {
            let sigma = sys.units.mb_sigma(self.temperature_k, sys.element[i].mass());
            let mut gauss = || {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            sys.vel[i] = Vec3::new(gauss() * sigma, gauss() * sigma, gauss() * sigma);
        }
        let total_mass: f64 = sys.element.iter().map(|e| e.mass()).sum();
        let vcm = sys.momentum() / total_mass;
        for v in &mut sys.vel {
            *v -= vcm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum pair separation present in a system (cell units). O(N²).
    fn min_separation(sys: &ParticleSystem) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..sys.len() {
            for j in (i + 1)..sys.len() {
                let d = sys.space.min_image(sys.pos[i], sys.pos[j]).norm_sq();
                best = best.min(d);
            }
        }
        best.sqrt()
    }

    #[test]
    fn paper_spec_counts() {
        let sys = WorkloadSpec::paper(SimulationSpace::cubic(3), 1).generate();
        assert_eq!(sys.len(), 27 * 64);
        assert!(sys.validate().is_ok());
    }

    #[test]
    fn lattice_respects_min_separation() {
        let spec = WorkloadSpec {
            space: SimulationSpace::cubic(3),
            per_cell: 27,
            placement: Placement::JitteredLattice { jitter: 0.05 },
            temperature_k: 0.0,
            seed: 2,
            element: Element::Na,
        };
        let sys = spec.generate();
        // pitch 1/3, worst case 1/3 - 0.1
        assert!(min_separation(&sys) >= 1.0 / 3.0 - 0.1 - 1e-9);
    }

    #[test]
    fn rejection_respects_min_separation() {
        let spec = WorkloadSpec {
            space: SimulationSpace::cubic(3),
            per_cell: 4,
            placement: Placement::Rejection { min_sep: 0.25 },
            temperature_k: 0.0,
            seed: 3,
            element: Element::Na,
        };
        let sys = spec.generate();
        assert_eq!(sys.len(), 27 * 4);
        assert!(min_separation(&sys) >= 0.25);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = WorkloadSpec::paper(SimulationSpace::cubic(3), 42).generate();
        let b = WorkloadSpec::paper(SimulationSpace::cubic(3), 42).generate();
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
        let c = WorkloadSpec::paper(SimulationSpace::cubic(3), 43).generate();
        assert_ne!(a.pos, c.pos);
    }

    #[test]
    fn thermalized_near_target_temperature() {
        let spec = WorkloadSpec::paper(SimulationSpace::cubic(4), 5);
        let sys = spec.generate();
        let t = crate::observables::temperature(&sys);
        // 4096 particles → few-% statistical spread
        assert!(
            (t - 300.0).abs() < 25.0,
            "temperature {t} K far from 300 K"
        );
        // COM momentum removed
        assert!(sys.momentum().max_abs() < 1e-9);
    }

    #[test]
    fn cold_start_zero_velocity() {
        let spec = WorkloadSpec {
            temperature_k: 0.0,
            ..WorkloadSpec::paper(SimulationSpace::cubic(3), 1)
        };
        let sys = spec.generate();
        assert!(sys.vel.iter().all(|v| *v == Vec3::ZERO));
    }
}
