//! Particle state in structure-of-arrays layout.

use crate::element::Element;
use crate::space::SimulationSpace;
use crate::units::UnitSystem;
use crate::vec3::Vec3;

/// All particle state for a simulation, SoA for cache-friendly sweeps.
///
/// Positions are in cell units wrapped into `[0, D)`; velocities in
/// cells/fs; forces in kcal/mol/cell (see [`crate::units`]).
#[derive(Clone, Debug)]
pub struct ParticleSystem {
    /// Geometry of the periodic box.
    pub space: SimulationSpace,
    /// Physical unit conversions.
    pub units: UnitSystem,
    /// Stable external particle IDs (preserved across migrations/sorts).
    pub id: Vec<u32>,
    /// Element of each particle.
    pub element: Vec<Element>,
    /// Wrapped positions, cell units.
    pub pos: Vec<Vec3>,
    /// Velocities, cells/fs.
    pub vel: Vec<Vec3>,
    /// Forces from the most recent evaluation, kcal/mol/cell.
    pub force: Vec<Vec3>,
}

impl ParticleSystem {
    /// An empty system over `space`.
    pub fn new(space: SimulationSpace, units: UnitSystem) -> Self {
        ParticleSystem {
            space,
            units,
            id: Vec::new(),
            element: Vec::new(),
            pos: Vec::new(),
            vel: Vec::new(),
            force: Vec::new(),
        }
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no particles are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append a particle; position is wrapped into the box. Returns its
    /// index.
    pub fn push(&mut self, element: Element, pos: Vec3, vel: Vec3) -> usize {
        let idx = self.len();
        self.id.push(idx as u32);
        self.element.push(element);
        self.pos.push(self.space.wrap_pos(pos));
        self.vel.push(vel);
        self.force.push(Vec3::ZERO);
        idx
    }

    /// Zero the force accumulators.
    pub fn clear_forces(&mut self) {
        self.force.iter_mut().for_each(|f| *f = Vec3::ZERO);
    }

    /// Total mass-weighted momentum (amu·cells/fs).
    pub fn momentum(&self) -> Vec3 {
        self.vel
            .iter()
            .zip(&self.element)
            .map(|(v, e)| *v * e.mass())
            .sum()
    }

    /// Net force over all particles (should be ~0 by Newton's third law).
    /// Only tests call it, to check that law of the reference engine and
    /// the functional chip model.
    pub fn net_force(&self) -> Vec3 {
        self.force.iter().copied().sum()
    }

    /// Consistency check used by tests and debug assertions: every
    /// position inside the box, arrays same length.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.id.len() != n
            || self.element.len() != n
            || self.vel.len() != n
            || self.force.len() != n
        {
            return Err("array length mismatch".into());
        }
        let e = self.space.edges();
        for (i, p) in self.pos.iter().enumerate() {
            if !(0.0..e.x).contains(&p.x)
                || !(0.0..e.y).contains(&p.y)
                || !(0.0..e.z).contains(&p.z)
            {
                return Err(format!("particle {i} at {p:?} outside box"));
            }
        }
        let mut ids: Vec<u32> = self.id.clone();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != n {
            return Err("duplicate particle ids".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> ParticleSystem {
        ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER)
    }

    #[test]
    fn push_wraps_position() {
        let mut s = sys();
        s.push(Element::Na, Vec3::new(-0.25, 3.5, 1.0), Vec3::ZERO);
        assert!((s.pos[0].x - 2.75).abs() < 1e-12);
        assert!((s.pos[0].y - 0.5).abs() < 1e-12);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn momentum_mass_weighted() {
        let mut s = sys();
        s.push(Element::Na, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        s.push(Element::Ar, Vec3::splat(1.0), Vec3::new(-1.0, 0.0, 0.0));
        let p = s.momentum();
        assert!((p.x - (Element::Na.mass() - Element::Ar.mass())).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_duplicate_ids() {
        let mut s = sys();
        s.push(Element::Na, Vec3::ZERO, Vec3::ZERO);
        s.push(Element::Na, Vec3::splat(0.5), Vec3::ZERO);
        s.id[1] = 0;
        assert!(s.validate().is_err());
    }
}
