//! Cell↔CBB↔chip geometry and the two-level cell-ID conversion
//! (paper §3.1 Eq. 7, §4.2 Fig. 9).
//!
//! A simulation space of `Dx × Dy × Dz` cells is partitioned into equal
//! blocks of `Bx × By × Bz` cells, one block per FPGA; the FPGAs form a
//! logical 3-D torus (Fig. 8). On a chip, each local cell is served by one
//! CBB whose index is the *local* Eq. 7 ID over the block dimensions.
//!
//! To keep every node and every CBB identical ("homogeneous"), cell IDs
//! are converted in two steps on arrival (§4.2):
//!
//! 1. **GCID → LCID**: the global cell coordinate is re-expressed relative
//!    to the *destination node's origin*, modulo the global dimensions —
//!    as if the destination node were node (0,0,0). See
//!    [`ChipGeometry::gcid_to_lcid`] and the Fig. 9 examples in the tests.
//! 2. **LCID → RCID**: at the destination CBB the cell becomes a relative
//!    ID in `{1,2,3}` per axis (home = 2), which is concatenated with the
//!    fixed-point in-cell offset so the filter's distance computation is a
//!    direct subtraction.

use fasda_md::space::{CellCoord, SimulationSpace};

/// Coordinates of a chip (FPGA node) in the logical torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipCoord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl ChipCoord {
    /// Construct from components.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        ChipCoord { x, y, z }
    }
}

fasda_ckpt::persist_struct!(ChipCoord { x, y, z });

/// One half-shell destination of a local cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dest {
    /// Global coordinates of the destination cell.
    pub gcell: CellCoord,
    /// Chip that owns the destination cell.
    pub chip: ChipCoord,
    /// CBB index on that chip.
    pub cbb: u16,
}

/// Geometry of one chip's slice of the simulation space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChipGeometry {
    /// The whole periodic simulation space.
    pub global: SimulationSpace,
    /// Cells per chip along each axis.
    pub block: (u32, u32, u32),
    /// This chip's coordinates in the node grid.
    pub chip: ChipCoord,
}

impl ChipGeometry {
    /// Geometry for a single chip covering the entire space.
    pub fn single_chip(global: SimulationSpace) -> Self {
        ChipGeometry {
            global,
            block: (global.dx, global.dy, global.dz),
            chip: ChipCoord::new(0, 0, 0),
        }
    }

    /// Geometry of chip `chip` in a grid of blocks.
    ///
    /// # Panics
    /// If the block does not evenly divide the global space, the chip
    /// coordinate is out of range, or a chip would own more than 64 cells
    /// (the position-flit destination mask is a `u64`).
    pub fn new(global: SimulationSpace, block: (u32, u32, u32), chip: ChipCoord) -> Self {
        assert!(
            global.dx.is_multiple_of(block.0) && global.dy.is_multiple_of(block.1) && global.dz.is_multiple_of(block.2),
            "block {block:?} does not divide global {global:?}"
        );
        let g = ChipGeometry {
            global,
            block,
            chip,
        };
        let grid = g.grid();
        assert!(
            chip.x < grid.0 && chip.y < grid.1 && chip.z < grid.2,
            "chip {chip:?} outside grid {grid:?}"
        );
        assert!(
            g.num_cbbs() <= 64,
            "at most 64 cells per chip supported (destination masks are u64)"
        );
        g
    }

    /// Node-grid dimensions.
    pub fn grid(&self) -> (u32, u32, u32) {
        (
            self.global.dx / self.block.0,
            self.global.dy / self.block.1,
            self.global.dz / self.block.2,
        )
    }

    /// Total chips in the grid.
    pub fn num_chips(&self) -> u32 {
        let g = self.grid();
        g.0 * g.1 * g.2
    }

    /// Global coordinates of this chip's first (lowest-coordinate) cell.
    pub fn origin(&self) -> CellCoord {
        CellCoord::new(
            (self.chip.x * self.block.0) as i32,
            (self.chip.y * self.block.1) as i32,
            (self.chip.z * self.block.2) as i32,
        )
    }

    /// CBBs (= local cells) on this chip.
    pub fn num_cbbs(&self) -> usize {
        (self.block.0 * self.block.1 * self.block.2) as usize
    }

    /// Local CBB index of a local cell coordinate (Eq. 7 over the block).
    pub fn cbb_index(&self, local: CellCoord) -> u16 {
        debug_assert!(
            (0..self.block.0 as i32).contains(&local.x)
                && (0..self.block.1 as i32).contains(&local.y)
                && (0..self.block.2 as i32).contains(&local.z)
        );
        (self.block.1 * self.block.2 * local.x as u32
            + self.block.2 * local.y as u32
            + local.z as u32) as u16
    }

    /// Local cell coordinate of a CBB index.
    pub fn cbb_local(&self, cbb: u16) -> CellCoord {
        let id = cbb as u32;
        let z = id % self.block.2;
        let y = (id / self.block.2) % self.block.1;
        let x = id / (self.block.1 * self.block.2);
        CellCoord::new(x as i32, y as i32, z as i32)
    }

    /// Global cell coordinate served by a CBB.
    pub fn cbb_gcell(&self, cbb: u16) -> CellCoord {
        let o = self.origin();
        let l = self.cbb_local(cbb);
        CellCoord::new(o.x + l.x, o.y + l.y, o.z + l.z)
    }

    /// CBB index of a global cell if this chip owns it.
    pub fn cbb_of_gcell(&self, gcell: CellCoord) -> Option<u16> {
        let o = self.origin();
        let l = CellCoord::new(gcell.x - o.x, gcell.y - o.y, gcell.z - o.z);
        if (0..self.block.0 as i32).contains(&l.x)
            && (0..self.block.1 as i32).contains(&l.y)
            && (0..self.block.2 as i32).contains(&l.z)
        {
            Some(self.cbb_index(l))
        } else {
            None
        }
    }

    /// Chip that owns a (wrapped) global cell.
    pub fn chip_of_gcell(&self, gcell: CellCoord) -> ChipCoord {
        let w = self.global.wrap_coord(gcell);
        ChipCoord::new(
            w.x as u32 / self.block.0,
            w.y as u32 / self.block.1,
            w.z as u32 / self.block.2,
        )
    }

    /// The 13 half-shell destinations of a CBB's cell, across chips.
    pub fn halfshell_dests(&self, cbb: u16) -> Vec<Dest> {
        let gcell = self.cbb_gcell(cbb);
        fasda_md::celllist::HALF_SHELL_OFFSETS
            .iter()
            .map(|&off| {
                let gdest = self.global.wrap_coord(gcell.offset(off));
                let chip = self.chip_of_gcell(gdest);
                let peer = ChipGeometry {
                    chip,
                    ..*self
                };
                Dest {
                    gcell: gdest,
                    chip,
                    cbb: peer.cbb_of_gcell(gdest).expect("owner chip owns its cell"),
                }
            })
            .collect()
    }

    /// The distinct peer chips this chip sends positions to (half-shell
    /// direction), excluding itself. Order is deterministic.
    pub fn send_chips(&self) -> Vec<ChipCoord> {
        let mut out = Vec::new();
        for cbb in 0..self.num_cbbs() as u16 {
            for d in self.halfshell_dests(cbb) {
                if d.chip != self.chip && !out.contains(&d.chip) {
                    out.push(d.chip);
                }
            }
        }
        out
    }

    /// The distinct peer chips this chip *receives* positions from (the
    /// mirrored half-shell), excluding itself.
    pub fn recv_chips(&self) -> Vec<ChipCoord> {
        let mut out = Vec::new();
        for cbb in 0..self.num_cbbs() as u16 {
            let gcell = self.cbb_gcell(cbb);
            for &(x, y, z) in fasda_md::celllist::HALF_SHELL_OFFSETS.iter() {
                let gsrc = self.global.wrap_coord(gcell.offset((-x, -y, -z)));
                let chip = self.chip_of_gcell(gsrc);
                if chip != self.chip && !out.contains(&chip) {
                    out.push(chip);
                }
            }
        }
        out
    }

    /// First level of ID conversion (§4.2): express a global cell
    /// coordinate relative to *this* chip's origin, modulo the global
    /// dimensions — "as if [all cells] are from node (0,0)". The result
    /// is a coordinate in `[0, D)` per axis whose block-interior part
    /// `[0, B)` is this chip's own cells.
    pub fn gcid_to_lcid(&self, gcell: CellCoord) -> CellCoord {
        let o = self.origin();
        self.global
            .wrap_coord(CellCoord::new(gcell.x - o.x, gcell.y - o.y, gcell.z - o.z))
    }

    /// Second level of ID conversion (§4.2): the relative cell ID of a
    /// source cell as seen from a destination cell, in `{1,2,3}` per axis
    /// with the destination's own cell at `(2,2,2)`.
    ///
    /// # Panics
    /// If the cells are not within one cell of each other (they must be
    /// neighbours for a range-limited interaction).
    pub fn rcid(&self, src_gcell: CellCoord, dest_gcell: CellCoord) -> (u8, u8, u8) {
        let wrap_delta = |s: i32, d: i32, dim: u32| -> i32 {
            let mut delta = (s - d).rem_euclid(dim as i32);
            if delta > dim as i32 / 2 {
                delta -= dim as i32;
            }
            assert!(
                (-1..=1).contains(&delta),
                "cells {src_gcell:?} and {dest_gcell:?} are not neighbours"
            );
            delta
        };
        let dx = wrap_delta(src_gcell.x, dest_gcell.x, self.global.dx);
        let dy = wrap_delta(src_gcell.y, dest_gcell.y, self.global.dy);
        let dz = wrap_delta(src_gcell.z, dest_gcell.z, self.global.dz);
        ((dx + 2) as u8, (dy + 2) as u8, (dz + 2) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eight_chip_6cube(chip: ChipCoord) -> ChipGeometry {
        ChipGeometry::new(SimulationSpace::cubic(6), (3, 3, 3), chip)
    }

    #[test]
    fn single_chip_owns_everything() {
        let g = ChipGeometry::single_chip(SimulationSpace::cubic(3));
        assert_eq!(g.num_chips(), 1);
        assert_eq!(g.num_cbbs(), 27);
        for cbb in 0..27u16 {
            assert_eq!(g.cbb_of_gcell(g.cbb_gcell(cbb)), Some(cbb));
            for d in g.halfshell_dests(cbb) {
                assert_eq!(d.chip, g.chip);
            }
        }
        assert!(g.send_chips().is_empty());
    }

    #[test]
    fn grid_partition_8_chips() {
        let g = eight_chip_6cube(ChipCoord::new(1, 0, 1));
        assert_eq!(g.grid(), (2, 2, 2));
        assert_eq!(g.num_chips(), 8);
        assert_eq!(g.origin(), CellCoord::new(3, 0, 3));
        assert_eq!(g.num_cbbs(), 27);
        // cell (4,1,5) is local
        assert!(g.cbb_of_gcell(CellCoord::new(4, 1, 5)).is_some());
        // cell (4,4,5) belongs to chip (1,1,1)
        assert_eq!(g.cbb_of_gcell(CellCoord::new(4, 4, 5)), None);
        assert_eq!(
            g.chip_of_gcell(CellCoord::new(4, 4, 5)),
            ChipCoord::new(1, 1, 1)
        );
    }

    #[test]
    fn cbb_index_roundtrip() {
        let g = ChipGeometry::new(
            SimulationSpace::new(4, 4, 4),
            (2, 2, 2),
            ChipCoord::new(1, 1, 0),
        );
        for cbb in 0..g.num_cbbs() as u16 {
            assert_eq!(g.cbb_index(g.cbb_local(cbb)), cbb);
        }
    }

    #[test]
    fn halfshell_dests_cover_13_distinct() {
        let g = eight_chip_6cube(ChipCoord::new(0, 0, 0));
        for cbb in 0..g.num_cbbs() as u16 {
            let d = g.halfshell_dests(cbb);
            assert_eq!(d.len(), 13);
            let mut cells: Vec<_> = d.iter().map(|x| x.gcell).collect();
            cells.sort_by_key(|c| (c.x, c.y, c.z));
            cells.dedup();
            assert_eq!(cells.len(), 13);
            // each dest's owner chip really owns the cell
            for dest in &d {
                let peer = ChipGeometry {
                    chip: dest.chip,
                    ..g
                };
                assert_eq!(peer.cbb_of_gcell(dest.gcell), Some(dest.cbb));
            }
        }
    }

    #[test]
    fn eight_chip_torus_neighbours() {
        // In a 2×2×2 node grid every other chip is adjacent: 7 send peers.
        let g = eight_chip_6cube(ChipCoord::new(0, 0, 0));
        assert_eq!(g.send_chips().len(), 7);
        assert_eq!(g.recv_chips().len(), 7);
    }

    /// Fig. 9 left example, mapped to our 3-D API on a 6×3×3 space with
    /// 3×3×3 blocks (nodes (0,0,0) and (1,0,0)): a particle from GCID
    /// (5,2) in node (1,0) sent to node (0,0) keeps its LCID.
    #[test]
    fn fig9_left_lcid_unchanged_at_node_zero() {
        let global = SimulationSpace::new(6, 3, 3);
        let node00 = ChipGeometry::new(global, (3, 3, 3), ChipCoord::new(0, 0, 0));
        let src = CellCoord::new(5, 2, 0);
        assert_eq!(node00.gcid_to_lcid(src), src, "node (0,0) needs no conversion");
    }

    /// Fig. 9 right example: a particle from GCID (2,1) in node (0,0)
    /// sent to node (1,0) gets LCID (5,1); the destination cell GCID
    /// (3,0) appears as (0,0) locally.
    #[test]
    fn fig9_right_lcid_relative_to_destination() {
        let global = SimulationSpace::new(6, 3, 3);
        let node10 = ChipGeometry::new(global, (3, 3, 3), ChipCoord::new(1, 0, 0));
        assert_eq!(
            node10.gcid_to_lcid(CellCoord::new(2, 1, 0)),
            CellCoord::new(5, 1, 0)
        );
        assert_eq!(
            node10.gcid_to_lcid(CellCoord::new(3, 0, 0)),
            CellCoord::new(0, 0, 0),
            "destination cell appears as (0,0) in its local node"
        );
    }

    #[test]
    fn rcid_home_is_222() {
        let g = eight_chip_6cube(ChipCoord::new(0, 0, 0));
        let c = CellCoord::new(1, 1, 1);
        assert_eq!(g.rcid(c, c), (2, 2, 2));
    }

    #[test]
    fn rcid_neighbours_in_123() {
        let g = eight_chip_6cube(ChipCoord::new(0, 0, 0));
        let home = CellCoord::new(0, 0, 0);
        // wrapped neighbour at (5,5,5) is (-1,-1,-1) relative → RCID (1,1,1)
        assert_eq!(g.rcid(CellCoord::new(5, 5, 5), home), (1, 1, 1));
        assert_eq!(g.rcid(CellCoord::new(1, 0, 5), home), (3, 2, 1));
    }

    #[test]
    #[should_panic(expected = "not neighbours")]
    fn rcid_rejects_distant_cells() {
        let g = eight_chip_6cube(ChipCoord::new(0, 0, 0));
        g.rcid(CellCoord::new(0, 0, 0), CellCoord::new(3, 0, 0));
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn rejects_nondividing_block() {
        ChipGeometry::new(SimulationSpace::cubic(5), (2, 2, 2), ChipCoord::new(0, 0, 0));
    }
}
