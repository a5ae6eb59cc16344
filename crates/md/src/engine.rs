//! Double-precision reference engines — the "OpenMM 64-bit" stand-in.
//!
//! Two interchangeable force engines drive the same [`ParticleSystem`]:
//!
//! * [`DirectEngine`] — O(N²) minimum-image sweep. Slow but obviously
//!   correct; the ground truth for small-system tests.
//! * [`CellListEngine`] — O(N·m) half-shell cell-list sweep, the same
//!   pair enumeration the accelerator performs, in `f64`.
//!
//! Both apply the paper's plain truncated (unshifted) LJ cutoff at
//! `r = Rc = 1` cell and exclude nothing else. The Fig. 19 experiment runs
//! [`CellListEngine`] at `f64` against the FASDA functional model's
//! fixed-point/interpolated arithmetic.

use crate::celllist::CellList;
use crate::element::PairTable;
use crate::ewald::EwaldParams;
use crate::integrator::{Integrator, IntegratorKind};
use crate::system::ParticleSystem;
use crate::vec3::Vec3;

/// A force evaluator over a particle system.
pub trait ForceEngine {
    /// Recompute `sys.force` from `sys.pos`, returning the total truncated
    /// LJ potential energy (kcal/mol).
    fn compute_forces(&mut self, sys: &mut ParticleSystem) -> f64;

    /// Advance one timestep with `integ`, returning the potential energy
    /// measured during the (final) force evaluation of the step.
    fn step(&mut self, sys: &mut ParticleSystem, integ: &Integrator) -> f64 {
        match integ.kind {
            IntegratorKind::Leapfrog => {
                let pe = self.compute_forces(sys);
                integ.leapfrog_step(sys);
                pe
            }
            IntegratorKind::VelocityVerlet => {
                // forces assumed current from the previous step's tail eval
                integ.vv_first_half(sys);
                let pe = self.compute_forces(sys);
                integ.vv_second_half(sys);
                pe
            }
        }
    }
}

/// Accumulate one pair interaction (cutoff already checked) into the
/// force arrays, honouring Newton's third law. Returns the pair potential.
/// When `ewald` is set and both charges are nonzero, the real-space PME
/// term is added (paper §2.1: RL = LJ + short-range electrostatics).
#[inline]
fn accumulate_pair(
    sys: &mut ParticleSystem,
    table: &PairTable,
    ewald: Option<&EwaldParams>,
    i: usize,
    j: usize,
    dr: Vec3,
    r2: f64,
) -> f64 {
    let (ei, ej) = (sys.element[i], sys.element[j]);
    let mut s = table.force_scale(ei, ej, r2);
    let mut pe = table.potential(ei, ej, r2);
    if let Some(p) = ewald {
        let qq = ei.charge() * ej.charge();
        if qq != 0.0 {
            s += qq * p.force_scale_unit(r2);
            pe += qq * p.potential_unit(r2);
        }
    }
    let f = dr * s;
    sys.force[i] += f;
    sys.force[j] -= f;
    pe
}

/// O(N²) minimum-image reference engine.
pub struct DirectEngine {
    table: PairTable,
    ewald: Option<EwaldParams>,
    /// Squared cutoff (cell units); 1.0 for the paper's setup.
    pub cutoff_sq: f64,
}

impl DirectEngine {
    /// New engine with the paper's unit cutoff (LJ only).
    pub fn new(table: PairTable) -> Self {
        DirectEngine {
            table,
            ewald: None,
            cutoff_sq: 1.0,
        }
    }

    /// Enable the real-space PME electrostatic term.
    pub fn with_electrostatics(mut self, params: EwaldParams) -> Self {
        self.ewald = Some(params);
        self
    }

    /// Access the coefficient table.
    pub fn table(&self) -> &PairTable {
        &self.table
    }
}

impl ForceEngine for DirectEngine {
    fn compute_forces(&mut self, sys: &mut ParticleSystem) -> f64 {
        sys.clear_forces();
        let n = sys.len();
        let mut pe = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dr = sys.space.min_image(sys.pos[i], sys.pos[j]);
                let r2 = dr.norm_sq();
                if r2 < self.cutoff_sq {
                    pe += accumulate_pair(sys, &self.table, self.ewald.as_ref(), i, j, dr, r2);
                }
            }
        }
        pe
    }
}

/// O(N·m) half-shell cell-list engine — the same traversal order as the
/// accelerator, in double precision.
pub struct CellListEngine {
    table: PairTable,
    ewald: Option<EwaldParams>,
    cells: Option<CellList>,
    /// Squared cutoff (cell units).
    pub cutoff_sq: f64,
}

impl CellListEngine {
    /// New engine with the paper's unit cutoff (LJ only).
    pub fn new(table: PairTable) -> Self {
        CellListEngine {
            table,
            ewald: None,
            cells: None,
            cutoff_sq: 1.0,
        }
    }

    /// Enable the real-space PME electrostatic term.
    pub fn with_electrostatics(mut self, params: EwaldParams) -> Self {
        self.ewald = Some(params);
        self
    }

    /// Access the coefficient table.
    pub fn table(&self) -> &PairTable {
        &self.table
    }
}

impl ForceEngine for CellListEngine {
    fn compute_forces(&mut self, sys: &mut ParticleSystem) -> f64 {
        sys.clear_forces();
        let CellListEngine {
            table,
            ewald,
            cells,
            cutoff_sq,
        } = self;
        // Rebuild every step, matching the FPGA flow (§2.2: neighbour
        // lists are recomputed every timestep).
        let cl = match cells {
            Some(cl) => {
                cl.rebuild(sys);
                cl
            }
            none => none.insert(CellList::build(sys)),
        };

        // Each in-cutoff pair accumulates as the traversal reaches it: no
        // pair list, so memory stays at the particle arrays.
        let mut pe = 0.0;
        cl.for_each_halfshell_pair(|i, j| {
            let (i, j) = (i as usize, j as usize);
            let dr = sys.space.min_image(sys.pos[i], sys.pos[j]);
            let r2 = dr.norm_sq();
            if r2 < *cutoff_sq {
                pe += accumulate_pair(sys, table, ewald.as_ref(), i, j, dr, r2);
            }
        });
        pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::space::SimulationSpace;
    use crate::units::UnitSystem;
    use crate::workload::{Placement, WorkloadSpec};

    fn small_system() -> ParticleSystem {
        WorkloadSpec {
            space: SimulationSpace::cubic(3),
            per_cell: 8,
            placement: Placement::JitteredLattice { jitter: 0.08 },
            temperature_k: 100.0,
            seed: 7,
            element: Element::Na,
        }
        .generate()
    }

    #[test]
    fn direct_and_celllist_agree() {
        let mut sys1 = small_system();
        let mut sys2 = sys1.clone();
        let table = PairTable::new(UnitSystem::PAPER);
        let pe1 = DirectEngine::new(table.clone()).compute_forces(&mut sys1);
        let pe2 = CellListEngine::new(table).compute_forces(&mut sys2);
        assert!(
            (pe1 - pe2).abs() < 1e-9 * pe1.abs().max(1.0),
            "pe {pe1} vs {pe2}"
        );
        for i in 0..sys1.len() {
            assert!(
                (sys1.force[i] - sys2.force[i]).max_abs() < 1e-9,
                "force mismatch at {i}: {:?} vs {:?}",
                sys1.force[i],
                sys2.force[i]
            );
        }
    }

    #[test]
    fn newtons_third_law_net_zero() {
        let mut sys = small_system();
        let table = PairTable::new(UnitSystem::PAPER);
        DirectEngine::new(table).compute_forces(&mut sys);
        assert!(sys.net_force().max_abs() < 1e-9);
    }

    #[test]
    fn two_particle_force_direction() {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER);
        // closer than rmin → repulsive: force on i points away from j
        sys.push(Element::Na, Vec3::new(1.5, 1.5, 1.5), Vec3::ZERO);
        sys.push(Element::Na, Vec3::new(1.7, 1.5, 1.5), Vec3::ZERO);
        let table = PairTable::new(UnitSystem::PAPER);
        DirectEngine::new(table).compute_forces(&mut sys);
        assert!(sys.force[0].x < 0.0, "particle 0 pushed in -x");
        assert!(sys.force[1].x > 0.0, "particle 1 pushed in +x");
        assert!((sys.force[0] + sys.force[1]).max_abs() < 1e-12);
    }

    #[test]
    fn beyond_cutoff_no_interaction() {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(4), UnitSystem::PAPER);
        sys.push(Element::Na, Vec3::new(0.5, 0.5, 0.5), Vec3::ZERO);
        sys.push(Element::Na, Vec3::new(2.0, 0.5, 0.5), Vec3::ZERO);
        let table = PairTable::new(UnitSystem::PAPER);
        let pe = DirectEngine::new(table).compute_forces(&mut sys);
        assert_eq!(pe, 0.0);
        assert_eq!(sys.force[0], Vec3::ZERO);
    }

    #[test]
    fn leapfrog_energy_stable_short_run() {
        let mut sys = small_system();
        let table = PairTable::new(UnitSystem::PAPER);
        let mut eng = CellListEngine::new(table);
        let integ = Integrator::PAPER;
        let e0 = {
            let pe = eng.compute_forces(&mut sys);
            pe + crate::observables::kinetic_energy(&sys)
        };
        let mut e_last = e0;
        for _ in 0..200 {
            let pe = eng.step(&mut sys, &integ);
            e_last = pe + crate::observables::kinetic_energy(&sys);
        }
        // truncated LJ + leapfrog: energy bounded within a small fraction
        let scale = e0.abs().max(1.0);
        assert!(
            (e_last - e0).abs() / scale < 0.05,
            "energy drifted: {e0} → {e_last}"
        );
    }
}
