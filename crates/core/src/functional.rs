//! Functional (untimed) FASDA model: the accelerator's exact arithmetic
//! without cycle accounting.
//!
//! This model executes a timestep with precisely the datapath numerics of
//! the hardware — fixed-point cell-relative positions, RCID concatenation,
//! fixed-point filtering, interpolated `r⁻¹⁴`/`r⁻⁸`, `f32` force and
//! velocity state — but evaluates pairs with plain loops instead of the
//! cycle-level machinery. It is the subject of the Fig. 19
//! energy-conservation experiment (FASDA arithmetic vs 64-bit OpenMM) and
//! the oracle the timed model is checked against (both must produce
//! *identical* forces, since they share the datapath).

// Componentwise `for k in 0..3` loops mirror the per-lane datapath.
#![allow(clippy::needless_range_loop)]
use crate::config::{ChipConfig, HwParams};
use crate::datapath::ForceDatapath;
use fasda_arith::fixed::{Fix, FixVec3};
use fasda_arith::interp::TableConfig;
use fasda_md::celllist::HALF_SHELL_OFFSETS;
use fasda_md::element::Element;
use fasda_md::space::{CellCoord, SimulationSpace};
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::vec3::Vec3;
use std::sync::Arc;

/// Per-cell particle storage: the PC/VC/FC contents of one CBB.
#[derive(Clone, Debug, Default)]
pub struct CellStore {
    /// Stable particle IDs.
    pub id: Vec<u32>,
    /// Element types (the `e` field of Fig. 6).
    pub elem: Vec<Element>,
    /// Position Cache: fixed-point offsets within the cell, `[0,1)`.
    pub offset: Vec<FixVec3>,
    /// Velocity Cache: `f32` velocities, cells/fs.
    pub vel: Vec<[f32; 3]>,
    /// Force Cache: `f32` force accumulators, kcal/mol/cell.
    pub force: Vec<[f32; 3]>,
}

impl CellStore {
    /// Particles in this cell.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True if the cell is empty.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    fn push(&mut self, id: u32, elem: Element, offset: FixVec3, vel: [f32; 3]) {
        self.id.push(id);
        self.elem.push(elem);
        self.offset.push(offset);
        self.vel.push(vel);
        self.force.push([0.0; 3]);
    }

    fn remove(&mut self, i: usize) -> (u32, Element, FixVec3, [f32; 3]) {
        self.force.swap_remove(i);
        (
            self.id.swap_remove(i),
            self.elem.swap_remove(i),
            self.offset.swap_remove(i),
            self.vel.swap_remove(i),
        )
    }
}

/// Statistics from one functional timestep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Pairs presented to filters.
    pub candidate_pairs: u64,
    /// Pairs that passed filtering (entered the force pipeline).
    pub valid_pairs: u64,
    /// Particles that migrated to a different cell during motion update.
    pub migrations: u64,
}

impl StepStats {
    /// Filter pass rate — Eq. 3 predicts ≈ 15.5% for neighbour-cell pairs
    /// (slightly higher overall because home-cell pairs pass more often).
    pub fn pass_rate(&self) -> f64 {
        if self.candidate_pairs == 0 {
            0.0
        } else {
            self.valid_pairs as f64 / self.candidate_pairs as f64
        }
    }
}

/// The functional accelerator covering an entire simulation space.
#[derive(Clone, Debug)]
pub struct FunctionalChip {
    dp: Arc<ForceDatapath>,
    space: SimulationSpace,
    cells: Vec<CellStore>,
    /// Timestep, fs.
    dt_fs: f64,
    /// Per-element `acc_factor / mass`, precomputed as `f32` (the MU's
    /// constant multiplier).
    acc_over_mass: [f32; Element::COUNT],
    units: UnitSystem,
}

impl FunctionalChip {
    /// Load a particle system into per-cell fixed-point storage.
    pub fn load(sys: &ParticleSystem, table: TableConfig, dt_fs: f64) -> Self {
        Self::load_with(sys, table, dt_fs, None)
    }

    /// Load with the real-space PME electrostatic term enabled.
    pub fn load_with(
        sys: &ParticleSystem,
        table: TableConfig,
        dt_fs: f64,
        electrostatics: Option<fasda_md::ewald::EwaldParams>,
    ) -> Self {
        let cfg = ChipConfig {
            hw: HwParams { table, ..HwParams::default() },
            electrostatics,
            ..ChipConfig::baseline()
        };
        let dp = ForceDatapath::for_chip(&cfg, sys.units);
        let mut cells = vec![CellStore::default(); sys.space.num_cells()];
        for i in 0..sys.len() {
            let (cc, offset) = bin_position(&sys.space, sys.pos[i]);
            let cid = sys.space.cell_id(cc) as usize;
            let v = sys.vel[i];
            cells[cid].push(
                sys.id[i],
                sys.element[i],
                offset,
                [v.x as f32, v.y as f32, v.z as f32],
            );
        }
        let mut acc_over_mass = [0.0f32; Element::COUNT];
        for e in Element::ALL {
            acc_over_mass[e.index()] = (sys.units.acc_factor() / e.mass()) as f32;
        }
        FunctionalChip {
            dp,
            space: sys.space,
            cells,
            dt_fs,
            acc_over_mass,
            units: sys.units,
        }
    }

    /// The simulation space.
    pub fn space(&self) -> SimulationSpace {
        self.space
    }

    /// Cell storage (read-only).
    pub fn cell(&self, cid: u32) -> &CellStore {
        &self.cells[cid as usize]
    }

    /// Total particles across cells.
    pub fn num_particles(&self) -> usize {
        self.cells.iter().map(CellStore::len).sum()
    }

    /// Shared datapath (for cross-checking the timed model).
    pub fn datapath(&self) -> &ForceDatapath {
        &self.dp
    }

    /// Run the force-evaluation phase: clears and repopulates every FC.
    pub fn evaluate_forces(&mut self) -> StepStats {
        let mut stats = StepStats::default();
        for cell in &mut self.cells {
            for f in &mut cell.force {
                *f = [0.0; 3];
            }
        }

        // Home-cell internal pairs (i < j), both particles at RCID (2,2,2).
        for cid in 0..self.cells.len() {
            let n = self.cells[cid].len();
            for i in 0..n {
                for j in (i + 1)..n {
                    stats.candidate_pairs += 1;
                    let (ci, cj) = {
                        let c = &self.cells[cid];
                        (
                            ForceDatapath::concat((2, 2, 2), c.offset[i]),
                            ForceDatapath::concat((2, 2, 2), c.offset[j]),
                        )
                    };
                    if let Some(p) = self.dp.filter(ci, cj) {
                        stats.valid_pairs += 1;
                        let c = &self.cells[cid];
                        let f = self.dp.force(c.elem[i], c.elem[j], p);
                        let c = &mut self.cells[cid];
                        for k in 0..3 {
                            c.force[i][k] += f[k];
                            c.force[j][k] -= f[k];
                        }
                    }
                }
            }
        }

        // Half-shell neighbour-cell pairs: source cell s broadcasts to
        // destination d = s + offset; at d the source particles appear at
        // RCID (2,2,2) - offset.
        for scid in 0..self.cells.len() as u32 {
            let scoord = self.space.cell_coord(scid);
            for off in HALF_SHELL_OFFSETS {
                let dcoord = self.space.wrap_coord(scoord.offset(off));
                let dcid = self.space.cell_id(dcoord);
                let rcid = (
                    (2 - off.0) as u8,
                    (2 - off.1) as u8,
                    (2 - off.2) as u8,
                );
                self.eval_cell_pair(scid, dcid, rcid, &mut stats);
            }
        }
        stats
    }

    /// Evaluate all pairs between source (neighbour) cell `scid` and home
    /// cell `dcid`, with the source particles seen at `rcid` from home.
    fn eval_cell_pair(&mut self, scid: u32, dcid: u32, rcid: (u8, u8, u8), stats: &mut StepStats) {
        debug_assert_ne!(scid, dcid);
        let (s_len, d_len) = (self.cells[scid as usize].len(), self.cells[dcid as usize].len());
        for ni in 0..s_len {
            let (n_elem, n_concat) = {
                let s = &self.cells[scid as usize];
                (s.elem[ni], ForceDatapath::concat(rcid, s.offset[ni]))
            };
            let mut n_force = [0.0f32; 3];
            for hi in 0..d_len {
                stats.candidate_pairs += 1;
                let (h_elem, h_concat) = {
                    let d = &self.cells[dcid as usize];
                    (d.elem[hi], ForceDatapath::concat((2, 2, 2), d.offset[hi]))
                };
                if let Some(p) = self.dp.filter(h_concat, n_concat) {
                    stats.valid_pairs += 1;
                    let f = self.dp.force(h_elem, n_elem, p);
                    let d = &mut self.cells[dcid as usize];
                    for k in 0..3 {
                        d.force[hi][k] += f[k];
                        // neighbour force accumulated locally, returned via FR
                        n_force[k] -= f[k];
                    }
                }
            }
            let s = &mut self.cells[scid as usize];
            for k in 0..3 {
                s.force[ni][k] += n_force[k];
            }
        }
    }

    /// Motion-update phase: leapfrog kick + drift in the MU's arithmetic
    /// (`f32` velocity update, fixed-point position update), then particle
    /// migration along the motion-update ring. Returns migration count.
    pub fn motion_update(&mut self) -> u64 {
        let dt = self.dt_fs;
        type Migrant = (u32, Element, FixVec3, [f32; 3]);
        let mut moves: Vec<(u32, Migrant)> = Vec::new();
        for cid in 0..self.cells.len() as u32 {
            let coord = self.space.cell_coord(cid);
            let cell = &mut self.cells[cid as usize];
            let mut i = 0;
            while i < cell.len() {
                let e = cell.elem[i];
                let aom = self.acc_over_mass[e.index()];
                let mut v = cell.vel[i];
                let f = cell.force[i];
                for k in 0..3 {
                    v[k] += f[k] * aom * dt as f32;
                }
                cell.vel[i] = v;
                // drift in fixed point: offset += quantize(v·dt)
                let d = FixVec3::new(
                    Fix::from_f64(v[0] as f64 * dt),
                    Fix::from_f64(v[1] as f64 * dt),
                    Fix::from_f64(v[2] as f64 * dt),
                );
                let nx = cell.offset[i].x + d.x;
                let ny = cell.offset[i].y + d.y;
                let nz = cell.offset[i].z + d.z;
                let (wx, mx) = nx.wrap_cell();
                let (wy, my) = ny.wrap_cell();
                let (wz, mz) = nz.wrap_cell();
                let new_off = FixVec3::new(wx, wy, wz);
                if (mx, my, mz) == (0, 0, 0) {
                    cell.offset[i] = new_off;
                    i += 1;
                } else {
                    let ncoord = self.space.wrap_coord(coord.offset((mx, my, mz)));
                    let ncid = self.space.cell_id(ncoord);
                    let (id, elem, _, vel) = cell.remove(i);
                    moves.push((ncid, (id, elem, new_off, vel)));
                }
            }
        }
        let migrations = moves.len() as u64;
        for (ncid, (id, elem, off, vel)) in moves {
            self.cells[ncid as usize].push(id, elem, off, vel);
        }
        migrations
    }

    /// One full timestep: force evaluation then motion update.
    pub fn step(&mut self) -> StepStats {
        let mut stats = self.evaluate_forces();
        stats.migrations = self.motion_update();
        stats
    }

    /// Export the accelerator state back into a [`ParticleSystem`]
    /// (positions/velocities/forces by stable particle ID) for
    /// double-precision analysis.
    pub fn store_into(&self, sys: &mut ParticleSystem) {
        assert_eq!(sys.len(), self.num_particles(), "system size mismatch");
        for cid in 0..self.cells.len() as u32 {
            let coord = self.space.cell_coord(cid);
            let base = Vec3::new(coord.x as f64, coord.y as f64, coord.z as f64);
            let cell = &self.cells[cid as usize];
            for i in 0..cell.len() {
                let idx = cell.id[i] as usize;
                let [ox, oy, oz] = cell.offset[i].to_f64();
                sys.id[idx] = cell.id[i];
                sys.element[idx] = cell.elem[i];
                sys.pos[idx] = base + Vec3::new(ox, oy, oz);
                sys.vel[idx] = Vec3::new(
                    cell.vel[i][0] as f64,
                    cell.vel[i][1] as f64,
                    cell.vel[i][2] as f64,
                );
                sys.force[idx] = Vec3::new(
                    cell.force[i][0] as f64,
                    cell.force[i][1] as f64,
                    cell.force[i][2] as f64,
                );
            }
        }
    }

    /// Clone the state into a fresh `ParticleSystem`.
    pub fn snapshot(&self) -> ParticleSystem {
        let mut sys = ParticleSystem::new(self.space, self.units);
        for _ in 0..self.num_particles() {
            sys.push(Element::Na, Vec3::ZERO, Vec3::ZERO);
        }
        self.store_into(&mut sys);
        sys
    }
}

/// The cell a position falls in (`cell_of`) and its quantized offset
/// inside that cell, both taken from the box-wrapped position — how both
/// models bin a particle on load.
pub(crate) fn bin_position(space: &SimulationSpace, p: Vec3) -> (CellCoord, FixVec3) {
    let q = space.wrap_pos(p);
    let cc = space.cell_of_wrapped(q);
    let off = q - Vec3::new(cc.x as f64, cc.y as f64, cc.z as f64);
    (cc, quantize_offset(off))
}

/// Quantize an in-cell offset to the fixed-point grid, keeping it inside
/// `[0, 1)` (rounding at the top edge would otherwise escape the cell).
fn quantize_offset(off: Vec3) -> FixVec3 {
    let q = |v: f64| -> Fix {
        debug_assert!((0.0..1.0 + 1e-9).contains(&v), "offset {v} not in cell");
        let f = Fix::from_f64(v.clamp(0.0, 1.0));
        if f.is_cell_offset() {
            f
        } else {
            Fix::ONE - Fix::EPSILON
        }
    };
    FixVec3::new(q(off.x), q(off.y), q(off.z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasda_md::element::PairTable;
    use fasda_md::engine::{CellListEngine, ForceEngine};
    use fasda_md::workload::{Placement, WorkloadSpec};

    fn workload(seed: u64) -> ParticleSystem {
        WorkloadSpec {
            space: SimulationSpace::cubic(3),
            per_cell: 8,
            placement: Placement::JitteredLattice { jitter: 0.06 },
            temperature_k: 100.0,
            seed,
            element: Element::Na,
        }
        .generate()
    }

    #[test]
    fn load_preserves_particles() {
        let sys = workload(1);
        let chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        assert_eq!(chip.num_particles(), sys.len());
        let snap = chip.snapshot();
        for i in 0..sys.len() {
            assert!(
                (snap.pos[i] - sys.pos[i]).max_abs() < 1e-7,
                "particle {i} moved on load"
            );
        }
    }

    #[test]
    fn forces_match_reference_engine() {
        let mut sys = workload(2);
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        chip.evaluate_forces();
        let snap = chip.snapshot();
        CellListEngine::new(PairTable::new(UnitSystem::PAPER)).compute_forces(&mut sys);
        for i in 0..sys.len() {
            let want = sys.force[i];
            let got = snap.force[i];
            let tol = want.max_abs().max(0.05) * 1e-2;
            assert!(
                (got - want).max_abs() < tol,
                "particle {i}: got {got:?}, want {want:?}"
            );
        }
    }

    #[test]
    fn newtons_third_law_in_f32() {
        let sys = workload(3);
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        chip.evaluate_forces();
        let snap = chip.snapshot();
        // f32 accumulation: net force small relative to force scale
        assert!(snap.net_force().max_abs() < 1e-3);
    }

    #[test]
    fn pass_rate_near_eq3_prediction() {
        // Dense uniform fill: neighbour-cell pass rate ≈ 15.5% (Eq. 3);
        // including home-cell pairs the overall rate is a bit higher.
        let sys = WorkloadSpec::paper(SimulationSpace::cubic(3), 4).generate();
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        let stats = chip.evaluate_forces();
        let rate = stats.pass_rate();
        assert!(
            (0.12..0.25).contains(&rate),
            "pass rate {rate} far from Eq. 3's 15.5%"
        );
    }

    #[test]
    fn particle_count_conserved_across_steps() {
        let sys = workload(5);
        let n = sys.len();
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        for _ in 0..20 {
            chip.step();
            assert_eq!(chip.num_particles(), n);
        }
        assert!(chip.snapshot().validate().is_ok());
    }

    #[test]
    fn migration_moves_particle_to_adjacent_cell() {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER);
        // fast particle near the +x face of cell (0,0,0)
        sys.push(
            Element::Na,
            Vec3::new(0.99, 0.5, 0.5),
            Vec3::new(0.02, 0.0, 0.0), // 0.04 cells in one 2fs step
        );
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        let stats = chip.step();
        assert_eq!(stats.migrations, 1);
        let cid_new = sys.space.cell_id(CellCoord::new(1, 0, 0));
        assert_eq!(chip.cell(cid_new).len(), 1);
    }

    #[test]
    fn short_trajectory_tracks_reference() {
        // 10 leapfrog steps: FASDA arithmetic vs f64 reference positions
        // should agree to ~1e-3 cells.
        let sys = workload(6);
        let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
        let mut ref_sys = sys.clone();
        let mut eng = CellListEngine::new(PairTable::new(UnitSystem::PAPER));
        let integ = fasda_md::integrator::Integrator::PAPER;
        for _ in 0..10 {
            chip.step();
            eng.step(&mut ref_sys, &integ);
        }
        let snap = chip.snapshot();
        let mut worst = 0.0f64;
        for i in 0..sys.len() {
            let d = ref_sys.space.min_image(snap.pos[i], ref_sys.pos[i]).max_abs();
            worst = worst.max(d);
        }
        assert!(worst < 1e-3, "trajectory diverged by {worst} cells in 10 steps");
    }
}
