//! Cell lists and the half-shell neighbour mapping (paper §2.2, Fig. 2).
//!
//! Particles are binned into cubic cells of edge `Rc = 1`. With Newton's
//! third law applied, a home cell's particles need to be paired only with
//! the **13** neighbour cells in the positive direction (the *half-shell
//! method*, \[56\]) plus the home cell's own internal `i < j` pairs; the
//! other 13 neighbours will send *their* particles to the home cell.
//! Every pair inside the 27-cell neighbourhood is therefore evaluated
//! exactly once — an invariant property-tested in `tests/`.

use crate::space::{CellCoord, CellId, SimulationSpace};
use crate::system::ParticleSystem;

/// The 13 positive-direction ("half-shell") neighbour offsets: those
/// `(dx,dy,dz) ∈ {-1,0,1}³` that are lexicographically greater than
/// `(0,0,0)`.
pub const HALF_SHELL_OFFSETS: [(i32, i32, i32); 13] = [
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
];

/// All 26 neighbour offsets.
pub const NEIGHBOR_OFFSETS: [(i32, i32, i32); 26] = [
    (-1, -1, -1),
    (-1, -1, 0),
    (-1, -1, 1),
    (-1, 0, -1),
    (-1, 0, 0),
    (-1, 0, 1),
    (-1, 1, -1),
    (-1, 1, 0),
    (-1, 1, 1),
    (0, -1, -1),
    (0, -1, 0),
    (0, -1, 1),
    (0, 0, -1),
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
];

/// Particle indices binned by cell (the software analogue of the
/// per-cell "distinct memory domains" of §2.2).
#[derive(Clone, Debug)]
pub struct CellList {
    space: SimulationSpace,
    cells: Vec<Vec<u32>>,
}

impl CellList {
    /// Build an empty list for `space`.
    pub fn new(space: SimulationSpace) -> Self {
        CellList {
            space,
            cells: vec![Vec::new(); space.num_cells()],
        }
    }

    /// Build and populate from a system.
    pub fn build(system: &ParticleSystem) -> Self {
        let mut cl = CellList::new(system.space);
        cl.rebuild(system);
        cl
    }

    /// Re-bin all particles. In FPGA implementations of RL the lists are
    /// recomputed every timestep (§2.2); we do the same.
    pub fn rebuild(&mut self, system: &ParticleSystem) {
        for c in &mut self.cells {
            c.clear();
        }
        for (i, p) in system.pos.iter().enumerate() {
            let cid = self.space.cell_id(self.space.cell_of(*p));
            self.cells[cid as usize].push(i as u32);
        }
    }

    /// Particle indices in one cell.
    #[inline]
    pub fn cell(&self, id: CellId) -> &[u32] {
        &self.cells[id as usize]
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total particles across all cells.
    pub fn total(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Visit every candidate pair exactly once using the half-shell
    /// mapping: internal `i < j` pairs of each cell, plus all pairs
    /// between each cell and its 13 positive neighbours. No distance
    /// filtering is applied — that is the caller's (the filter's) job.
    pub fn for_each_halfshell_pair(&self, mut f: impl FnMut(u32, u32)) {
        for home in self.space.iter_cells() {
            let hid = self.space.cell_id(home);
            let hp = &self.cells[hid as usize];
            // home-cell internal pairs
            for (a, &i) in hp.iter().enumerate() {
                for &j in &hp[a + 1..] {
                    f(i, j);
                }
            }
            // half-shell neighbours
            for off in HALF_SHELL_OFFSETS {
                let nb = self.space.wrap_coord(home.offset(off));
                let nid = self.space.cell_id(nb);
                debug_assert_ne!(nid, hid, "D >= 3 guarantees distinct neighbours");
                for &i in hp {
                    for &j in &self.cells[nid as usize] {
                        f(i, j);
                    }
                }
            }
        }
    }

    /// The neighbour cell IDs a home cell's particles must be broadcast
    /// to (its half-shell destinations), in ring-travel order.
    pub fn halfshell_destinations(&self, home: CellCoord) -> Vec<CellId> {
        let mut out = [0 as CellId; 13];
        self.halfshell_destinations_into(home, &mut out);
        out.to_vec()
    }

    /// Allocation-free variant of [`CellList::halfshell_destinations`]:
    /// writes the 13 destination cell IDs into `out` in ring-travel
    /// order.
    pub fn halfshell_destinations_into(&self, home: CellCoord, out: &mut [CellId; 13]) {
        for (slot, &off) in out.iter_mut().zip(HALF_SHELL_OFFSETS.iter()) {
            *slot = self.space.cell_id(self.space.wrap_coord(home.offset(off)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::units::UnitSystem;
    use crate::vec3::Vec3;
    use std::collections::HashSet;

    #[test]
    fn half_shell_is_13_lexicographically_positive() {
        assert_eq!(HALF_SHELL_OFFSETS.len(), 13);
        for &(x, y, z) in &HALF_SHELL_OFFSETS {
            assert!((x, y, z) > (0, 0, 0), "offset ({x},{y},{z}) not positive");
        }
        // half-shell ∪ mirrored half-shell = all 26 neighbours
        let mut all: HashSet<(i32, i32, i32)> = HALF_SHELL_OFFSETS.iter().copied().collect();
        all.extend(HALF_SHELL_OFFSETS.iter().map(|&(x, y, z)| (-x, -y, -z)));
        let full: HashSet<_> = NEIGHBOR_OFFSETS.iter().copied().collect();
        assert_eq!(all, full);
    }

    fn three_cube_system(n_per_cell: usize) -> ParticleSystem {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER);
        let mut k = 0u32;
        for cell in sys.space.iter_cells().collect::<Vec<_>>() {
            for i in 0..n_per_cell {
                let frac = (i as f64 + 0.5) / n_per_cell as f64;
                let p = Vec3::new(
                    cell.x as f64 + frac,
                    cell.y as f64 + 0.3,
                    cell.z as f64 + 0.7,
                );
                sys.push(Element::Na, p, Vec3::ZERO);
                k += 1;
            }
        }
        assert_eq!(k as usize, sys.len());
        sys
    }

    #[test]
    fn rebuild_bins_every_particle() {
        let sys = three_cube_system(4);
        let cl = CellList::build(&sys);
        assert_eq!(cl.total(), sys.len());
        for id in 0..cl.num_cells() as u32 {
            assert_eq!(cl.cell(id).len(), 4);
        }
    }

    #[test]
    fn halfshell_pairs_unique_and_complete() {
        // In a 3³ box every cell pair is adjacent, so the half-shell sweep
        // must produce every particle pair exactly once.
        let sys = three_cube_system(2);
        let cl = CellList::build(&sys);
        let mut seen = HashSet::new();
        cl.for_each_halfshell_pair(|i, j| {
            let key = (i.min(j), i.max(j));
            assert!(seen.insert(key), "pair {key:?} visited twice");
        });
        let n = sys.len();
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn destinations_are_13_distinct_cells() {
        let sys = three_cube_system(1);
        let cl = CellList::build(&sys);
        for c in sys.space.iter_cells() {
            let d = cl.halfshell_destinations(c);
            assert_eq!(d.len(), 13);
            let mut fixed = [0; 13];
            cl.halfshell_destinations_into(c, &mut fixed);
            assert_eq!(d, fixed.to_vec(), "into-variant must agree");
            let set: HashSet<_> = d.iter().collect();
            assert_eq!(set.len(), 13, "duplicate destination for {c:?}");
            assert!(!set.contains(&sys.space.cell_id(c)));
        }
    }
}
