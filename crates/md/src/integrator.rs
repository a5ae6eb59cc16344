//! Motion-update integrators (paper Eqs. 4–6).
//!
//! The paper's Motion Update unit converts forces into velocity
//! differences and integrates "with Verlet integration" (Fig. 4, Eqs. 4–6).
//! Two discretizations are provided:
//!
//! * [`IntegratorKind::Leapfrog`] — the single-pass kick-then-drift form
//!   the hardware MU implements: it needs only the force just produced by
//!   the evaluation phase, current velocity, and current position, which
//!   is exactly the MU's input set (Fig. 5). This is the integrator used
//!   by both the FASDA functional model and the Fig. 19 reference so that
//!   the energy comparison isolates *arithmetic* differences.
//! * [`IntegratorKind::VelocityVerlet`] — the textbook two-half-kick form
//!   of Eqs. 4–6 for software use.

use crate::element::Element;
use crate::system::ParticleSystem;
use crate::units::UnitSystem;
use crate::vec3::Vec3;

/// Which Verlet discretization to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegratorKind {
    /// Kick-drift leapfrog: `v += a·dt; x += v·dt` (velocities live at
    /// half steps).
    Leapfrog,
    /// Velocity Verlet: half-kick, drift, (force), half-kick.
    VelocityVerlet,
}

/// Integrator state: timestep and scheme.
#[derive(Clone, Copy, Debug)]
pub struct Integrator {
    /// Timestep in femtoseconds (paper: 2 fs).
    pub dt_fs: f64,
    /// Discretization.
    pub kind: IntegratorKind,
}

impl Integrator {
    /// The paper's 2 fs leapfrog setup.
    pub const PAPER: Integrator = Integrator {
        dt_fs: 2.0,
        kind: IntegratorKind::Leapfrog,
    };

    /// Acceleration of one particle from its current force,
    /// cells/fs².
    #[inline]
    pub fn acceleration(units: &UnitSystem, force: Vec3, element: Element) -> Vec3 {
        force * (units.acc_factor() / element.mass())
    }

    /// Leapfrog full step (call after a force evaluation): kick velocities
    /// by `a·dt`, drift positions by `v·dt`, wrap into the box.
    pub fn leapfrog_step(&self, sys: &mut ParticleSystem) {
        let dt = self.dt_fs;
        for i in 0..sys.len() {
            let a = Self::acceleration(&sys.units, sys.force[i], sys.element[i]);
            sys.vel[i] += a * dt;
            sys.pos[i] = sys.space.wrap_pos(sys.pos[i] + sys.vel[i] * dt);
        }
    }

    /// Velocity-Verlet first half: half-kick with current forces, drift.
    pub fn vv_first_half(&self, sys: &mut ParticleSystem) {
        let dt = self.dt_fs;
        for i in 0..sys.len() {
            let a = Self::acceleration(&sys.units, sys.force[i], sys.element[i]);
            sys.vel[i] += a * (dt / 2.0);
            sys.pos[i] = sys.space.wrap_pos(sys.pos[i] + sys.vel[i] * dt);
        }
    }

    /// Velocity-Verlet second half: half-kick with the *new* forces.
    pub fn vv_second_half(&self, sys: &mut ParticleSystem) {
        let dt = self.dt_fs;
        for i in 0..sys.len() {
            let a = Self::acceleration(&sys.units, sys.force[i], sys.element[i]);
            sys.vel[i] += a * (dt / 2.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SimulationSpace;

    fn free_particle_system(v: Vec3) -> ParticleSystem {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER);
        sys.push(Element::Na, Vec3::splat(1.5), v);
        sys
    }

    #[test]
    fn free_particle_moves_linearly() {
        let mut sys = free_particle_system(Vec3::new(0.01, 0.0, 0.0));
        let integ = Integrator::PAPER;
        for _ in 0..10 {
            integ.leapfrog_step(&mut sys);
        }
        // 10 steps × 2 fs × 0.01 cells/fs = 0.2 cells
        assert!((sys.pos[0].x - 1.7).abs() < 1e-12);
        assert_eq!(sys.vel[0], Vec3::new(0.01, 0.0, 0.0));
    }

    #[test]
    fn drift_wraps_periodically() {
        let mut sys = free_particle_system(Vec3::new(0.5, 0.0, 0.0));
        Integrator::PAPER.leapfrog_step(&mut sys);
        // 1.5 + 1.0 = 2.5, in box
        assert!((sys.pos[0].x - 2.5).abs() < 1e-12);
        Integrator::PAPER.leapfrog_step(&mut sys);
        // 3.5 wraps to 0.5
        assert!((sys.pos[0].x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_force_kicks_velocity() {
        let mut sys = free_particle_system(Vec3::ZERO);
        sys.force[0] = Vec3::new(1.0, 0.0, 0.0); // kcal/mol/cell
        let integ = Integrator::PAPER;
        integ.leapfrog_step(&mut sys);
        let a = Integrator::acceleration(&sys.units, Vec3::new(1.0, 0.0, 0.0), Element::Na);
        assert!((sys.vel[0].x - a.x * 2.0).abs() < 1e-18);
    }

    #[test]
    fn vv_halves_compose_to_full_kick() {
        let mut sys = free_particle_system(Vec3::ZERO);
        sys.force[0] = Vec3::new(0.5, -0.25, 1.0);
        let integ = Integrator {
            dt_fs: 2.0,
            kind: IntegratorKind::VelocityVerlet,
        };
        integ.vv_first_half(&mut sys);
        // force unchanged between halves (no interactions here)
        integ.vv_second_half(&mut sys);
        let a = Integrator::acceleration(&sys.units, Vec3::new(0.5, -0.25, 1.0), Element::Na);
        assert!(((sys.vel[0] - a * 2.0).max_abs()) < 1e-18);
    }
}
