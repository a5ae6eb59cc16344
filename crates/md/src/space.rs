//! Periodic cell space and the paper's cell-ID indexing (Eq. 7, Fig. 2).
//!
//! The simulation space is a box of `Dx × Dy × Dz` cubic cells with edge
//! length `Rc = 1` (cell units) and periodic boundary conditions (§2.1).
//! Cells are identified by the paper's Eq. 7:
//!
//! ```text
//! CID = Dy·Dz·x + Dz·y + z
//! ```
//!
//! which orders cells so that data travelling in the positive x/y/z
//! direction reaches its destination sooner on the rings (§3.1).

use crate::vec3::Vec3;

/// Linear cell ID per Eq. 7.
pub type CellId = u32;

/// Integer cell coordinates `(x, y, z)` with `0 ≤ x < Dx` etc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellCoord {
    pub x: i32,
    pub y: i32,
    pub z: i32,
}

impl CellCoord {
    /// Construct from components.
    #[inline]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        CellCoord { x, y, z }
    }

    /// Componentwise addition (no wrapping — use
    /// [`SimulationSpace::wrap_coord`]).
    #[inline]
    pub fn offset(self, d: (i32, i32, i32)) -> CellCoord {
        CellCoord::new(self.x + d.0, self.y + d.1, self.z + d.2)
    }
}

fasda_ckpt::persist_struct!(CellCoord { x, y, z });

/// The periodic simulation box measured in cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulationSpace {
    /// Cells along x.
    pub dx: u32,
    /// Cells along y.
    pub dy: u32,
    /// Cells along z.
    pub dz: u32,
}

impl SimulationSpace {
    /// Create a `dx × dy × dz`-cell space.
    ///
    /// # Panics
    /// If any dimension is below 3: with fewer than 3 cells per axis a cell
    /// would see the same neighbour through two periodic images and the
    /// half-shell mapping (and the paper's cell-list method generally)
    /// breaks down.
    pub fn new(dx: u32, dy: u32, dz: u32) -> Self {
        assert!(
            dx >= 3 && dy >= 3 && dz >= 3,
            "simulation space must be at least 3 cells per axis (got {dx}x{dy}x{dz})"
        );
        SimulationSpace { dx, dy, dz }
    }

    /// Cubic space helper.
    pub fn cubic(d: u32) -> Self {
        SimulationSpace::new(d, d, d)
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        (self.dx * self.dy * self.dz) as usize
    }

    /// Box edge lengths in cell units.
    #[inline]
    pub fn edges(&self) -> Vec3 {
        Vec3::new(self.dx as f64, self.dy as f64, self.dz as f64)
    }

    /// Eq. 7: `CID = Dy·Dz·x + Dz·y + z`.
    #[inline]
    pub fn cell_id(&self, c: CellCoord) -> CellId {
        debug_assert!(self.contains(c), "coord {c:?} outside {self:?}");
        self.dy * self.dz * c.x as u32 + self.dz * c.y as u32 + c.z as u32
    }

    /// Inverse of Eq. 7.
    #[inline]
    pub fn cell_coord(&self, id: CellId) -> CellCoord {
        let z = id % self.dz;
        let y = (id / self.dz) % self.dy;
        let x = id / (self.dy * self.dz);
        CellCoord::new(x as i32, y as i32, z as i32)
    }

    /// Whether integer coordinates are in range (before wrapping).
    #[inline]
    pub fn contains(&self, c: CellCoord) -> bool {
        (0..self.dx as i32).contains(&c.x)
            && (0..self.dy as i32).contains(&c.y)
            && (0..self.dz as i32).contains(&c.z)
    }

    /// Wrap integer cell coordinates into the box (periodic boundary).
    #[inline]
    pub fn wrap_coord(&self, c: CellCoord) -> CellCoord {
        CellCoord::new(
            c.x.rem_euclid(self.dx as i32),
            c.y.rem_euclid(self.dy as i32),
            c.z.rem_euclid(self.dz as i32),
        )
    }

    /// Wrap a continuous position (cell units) into `[0, D)` per axis.
    ///
    /// A coordinate already in `[0, D)` is returned as is, which is what
    /// `rem_euclid` returns for it, bit for bit: almost every coordinate
    /// is in the box, and only the others pay for the `fmod` call.
    #[inline]
    pub fn wrap_pos(&self, p: Vec3) -> Vec3 {
        #[inline]
        fn wrap(x: f64, edge: f64) -> f64 {
            if (0.0..edge).contains(&x) {
                x
            } else {
                x.rem_euclid(edge)
            }
        }
        let e = self.edges();
        Vec3::new(wrap(p.x, e.x), wrap(p.y, e.y), wrap(p.z, e.z))
    }

    /// Cell containing a wrapped position.
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> CellCoord {
        self.cell_of_wrapped(self.wrap_pos(p))
    }

    /// [`SimulationSpace::cell_of`] for a position `wrap_pos` has already
    /// returned.
    #[inline]
    pub fn cell_of_wrapped(&self, q: Vec3) -> CellCoord {
        // wrap_pos guarantees q ∈ [0, D); floor then clamp against the
        // rare q == D from floating rounding at the upper edge.
        CellCoord::new(
            (q.x.floor() as i32).min(self.dx as i32 - 1),
            (q.y.floor() as i32).min(self.dy as i32 - 1),
            (q.z.floor() as i32).min(self.dz as i32 - 1),
        )
    }

    /// Minimum-image displacement `a − b` (cell units), each component
    /// wrapped into `[-D/2, D/2)`.
    ///
    /// Implemented with comparison folding rather than `rem_euclid`: this
    /// is the hottest function of the reference engines (three calls per
    /// candidate pair) and both operands are always box-wrapped, so at
    /// most one fold per axis runs.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let e = self.edges();
        #[inline]
        fn wrap(mut d: f64, edge: f64) -> f64 {
            let half = edge * 0.5;
            while d >= half {
                d -= edge;
            }
            while d < -half {
                d += edge;
            }
            d
        }
        let d = a - b;
        Vec3::new(wrap(d.x, e.x), wrap(d.y, e.y), wrap(d.z, e.z))
    }

    /// Iterate all cell coordinates in CID order.
    pub fn iter_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        (0..self.num_cells() as u32).map(|id| self.cell_coord(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq7_example_from_figure_5() {
        // Figure 5 labels 4 CBBs 0..3; for a Dy=Dz=2 slice the formula is
        // CID = 4x + 2y + z. Spot-check the ordering property instead on 3³.
        let s = SimulationSpace::cubic(3);
        assert_eq!(s.cell_id(CellCoord::new(0, 0, 0)), 0);
        assert_eq!(s.cell_id(CellCoord::new(0, 0, 1)), 1);
        assert_eq!(s.cell_id(CellCoord::new(0, 1, 0)), 3);
        assert_eq!(s.cell_id(CellCoord::new(1, 0, 0)), 9);
        assert_eq!(s.cell_id(CellCoord::new(2, 2, 2)), 26);
    }

    #[test]
    fn cid_roundtrip_all_cells() {
        let s = SimulationSpace::new(4, 6, 3);
        for id in 0..s.num_cells() as u32 {
            assert_eq!(s.cell_id(s.cell_coord(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 cells")]
    fn rejects_degenerate_space() {
        SimulationSpace::new(2, 3, 3);
    }

    #[test]
    fn wrap_coord_negative_and_overflow() {
        let s = SimulationSpace::cubic(3);
        assert_eq!(s.wrap_coord(CellCoord::new(-1, 3, 5)), CellCoord::new(2, 0, 2));
    }

    #[test]
    fn wrap_pos_into_box() {
        let s = SimulationSpace::cubic(4);
        let p = s.wrap_pos(Vec3::new(-0.5, 4.25, 8.0));
        assert!((p.x - 3.5).abs() < 1e-12);
        assert!((p.y - 0.25).abs() < 1e-12);
        assert!(p.z.abs() < 1e-12);
    }

    /// The in-box shortcut returns `rem_euclid`'s bits for every finite
    /// input, in the box, on its faces and just outside it. A non-finite
    /// input wraps to NaN on both paths; Rust does not specify the sign
    /// or payload of a NaN result, so only NaN-ness is compared there.
    #[test]
    fn wrap_pos_is_rem_euclid_bit_for_bit() {
        let s = SimulationSpace::new(3, 4, 6);
        let e = s.edges();
        let xs = [
            0.0, -0.0, 1e-300, 0.5, 2.999_999_999, 3.0, 4.0, 6.0 - 1e-15, 6.0, 6.0 + 1e-15,
            -1e-17, -1e-300, -0.25, -6.0, 12.5, f64::MAX, f64::MIN, f64::INFINITY, f64::NAN,
        ];
        for &x in &xs {
            let w = s.wrap_pos(Vec3::new(x, x, x));
            for (got, edge) in [(w.x, e.x), (w.y, e.y), (w.z, e.z)] {
                let want = x.rem_euclid(edge);
                if x.is_finite() {
                    assert_eq!(got.to_bits(), want.to_bits(), "x = {x:e}, edge {edge}");
                } else {
                    assert!(got.is_nan() && want.is_nan(), "x = {x:e}, edge {edge}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn cell_of_matches_floor() {
        let s = SimulationSpace::new(3, 4, 5);
        assert_eq!(s.cell_of(Vec3::new(0.5, 3.9, 4.999)), CellCoord::new(0, 3, 4));
        assert_eq!(s.cell_of(Vec3::new(2.999, 0.0, 5.0)), CellCoord::new(2, 0, 0));
    }

    #[test]
    fn min_image_is_nearest() {
        let s = SimulationSpace::cubic(4);
        let a = Vec3::new(0.1, 0.0, 0.0);
        let b = Vec3::new(3.9, 0.0, 0.0);
        let d = s.min_image(a, b);
        assert!((d.x - 0.2).abs() < 1e-12, "wrapped distance, got {}", d.x);
    }

    #[test]
    fn min_image_antisymmetric() {
        let s = SimulationSpace::new(3, 5, 4);
        let a = Vec3::new(0.3, 4.7, 1.2);
        let b = Vec3::new(2.8, 0.1, 3.9);
        let d1 = s.min_image(a, b);
        let d2 = s.min_image(b, a);
        assert!((d1 + d2).max_abs() < 1e-12);
    }

    #[test]
    fn iter_cells_covers_all_once() {
        let s = SimulationSpace::new(3, 4, 3);
        let ids: Vec<_> = s.iter_cells().map(|c| s.cell_id(c)).collect();
        assert_eq!(ids.len(), s.num_cells());
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.num_cells());
    }
}
