//! The Cell Building Block and Scalable CBB (paper §3.1, §4.5–4.6,
//! Figs. 5, 14, 15).
//!
//! A CBB owns one cell: its Position/Velocity/Force caches, its Motion
//! Update unit, and one or more SPEs. Each **SPE** groups `n` PEs with a
//! position-ring node, a force-ring node, its own share of the cell's
//! broadcast traffic, and `n + 1` force caches (modelled as capacity in
//! the resource model; functionally the banks combine through an adder
//! tree at motion-update time, which we fold into a single accumulator
//! array since each bank has an exclusive writer per cycle).
//!
//! With two SPEs the cell's *outgoing* broadcast is split by particle-slot
//! parity (PC0 even / PC1 odd, §4.6) and each SPE rides its own pair of
//! rings; the home side of pairing always scans the full cell via the
//! HPC.

// Componentwise `for k in 0..3` loops mirror the per-lane datapath.
#![allow(clippy::needless_range_loop)]
use crate::config::ChipConfig;
use crate::datapath::{ForceDatapath, HomeSoa};
use fasda_arith::fixed::{Fix, FixAcc, FixVec3};
use fasda_md::element::Element;
use fasda_md::space::CellCoord;
use fasda_sim::{Activity, Cycle, Fifo, Pipeline};
use std::collections::VecDeque;

use super::pe::{NbrEntry, NbrKind, Pe};
use super::ring::{FrcFlit, MigFlit, PosFlit};

/// One SPE's ring-facing queues and dispatcher. Its PEs are the chip's
/// (`TimedChip` steps every PE of the chip one stage at a time); this
/// struct keeps what the SPE's dispatcher and FRN port read.
#[derive(Clone, Debug)]
pub struct Spe {
    /// Neighbour positions delivered by this SPE's PRN, awaiting a free
    /// filter station.
    pub pos_in: Fifo<NbrEntry>,
    /// Accumulated neighbour forces awaiting FRN injection.
    pub frc_out: Fifo<FrcFlit>,
    /// Home-particle broadcast flits not yet injected on this SPE's
    /// position ring.
    pub bcast: VecDeque<PosFlit>,
    /// Home-internal pair entries (slot index) not yet dispatched.
    pub home_src: VecDeque<u16>,
    /// Dispatcher round-robin start.
    pub(super) rr_pe: usize,
    /// PEs with a free filter station (dispatch candidates), by index
    /// within the SPE.
    pub(super) pe_free: u32,
}

impl Spe {
    fn new(cfg: &ChipConfig) -> Self {
        assert!(cfg.pes_per_spe <= 32, "PE state is tracked in u32 bitmasks");
        Spe {
            pos_in: Fifo::new(cfg.hw.pos_in_fifo_depth),
            frc_out: Fifo::new(cfg.hw.frc_out_fifo_depth),
            bcast: VecDeque::new(),
            home_src: VecDeque::new(),
            rr_pe: 0,
            pe_free: ((1u64 << cfg.pes_per_spe) - 1) as u32,
        }
    }

    /// True when the dispatcher has an entry to place.
    #[inline]
    pub(super) fn has_entries(&self) -> bool {
        !self.pos_in.is_empty() || !self.home_src.is_empty()
    }

    /// The next entry to dispatch: ring deliveries first (to relieve ring
    /// pressure), then home-internal entries.
    #[inline]
    pub(super) fn next_entry(&mut self, elem: &[Element], home_concat: &[FixVec3]) -> NbrEntry {
        self.pos_in.pop().unwrap_or_else(|| {
            let slot = self.home_src.pop_front().expect("has_entries checked");
            NbrEntry {
                concat: home_concat[slot as usize],
                elem: elem[slot as usize],
                scan_from: slot + 1,
                kind: NbrKind::Internal { slot },
            }
        })
    }

    /// Pick the PE to dispatch to: round-robin from `rr_pe` is the lowest
    /// free PE at or above it, else the lowest overall.
    #[inline]
    pub(super) fn pick_pe(&mut self, pes: usize) -> usize {
        debug_assert!(self.pe_free != 0);
        let ahead = self.pe_free >> self.rr_pe;
        let j = if ahead != 0 {
            self.rr_pe + ahead.trailing_zeros() as usize
        } else {
            self.pe_free.trailing_zeros() as usize
        };
        self.rr_pe = if j + 1 == pes { 0 } else { j + 1 };
        j
    }
}

/// A particle arriving by migration, staged until phase compaction.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    id: u32,
    elem: Element,
    offset: FixVec3,
    vel: [f32; 3],
}

/// One Cell Building Block in the timed model.
#[derive(Clone, Debug)]
pub struct TimedCbb {
    /// Global coordinates of the cell this CBB serves.
    pub gcell: CellCoord,
    /// Stable particle IDs.
    pub id: Vec<u32>,
    /// Element types.
    pub elem: Vec<Element>,
    /// Position Cache contents: in-cell fixed-point offsets.
    pub offset: Vec<FixVec3>,
    /// Velocity Cache contents.
    pub vel: Vec<[f32; 3]>,
    /// Combined force accumulators (FC banks + adder tree). Fixed-point
    /// (`Q35.28`, [`FixAcc`]): contributions quantize once on arrival
    /// and integer-add, so the accumulated total is bit-identical no
    /// matter what order ring traffic, local ejections, and PE returns
    /// land in — the property the cluster's chaos guarantees rest on.
    pub force: Vec<[FixAcc; 3]>,
    /// Home coordinates concatenated at RCID (2,2,2), snapshot for the
    /// current force phase.
    pub home_concat: Vec<FixVec3>,
    /// The SPEs of this (S)CBB.
    pub spes: Vec<Spe>,
    /// MU pipeline (slot indices in flight).
    mu_pipe: Pipeline<u16>,
    mu_cursor: u16,
    /// Tombstones for particles that migrated away this MU phase.
    alive: Vec<bool>,
    /// Migrants staged for arrival at compaction.
    arrivals: Vec<Arrival>,
    /// Migration flits awaiting MURN injection.
    pub mig_out: VecDeque<MigFlit>,
    /// Motion-update activity (capacity 1/cycle).
    pub mu_stats: Activity,
    /// Lifetime neighbour-entry dispatches to filter stations
    /// (monotonic; the trace layer diffs it per cycle).
    pub dispatched: u64,
    /// Lifetime station ejections — ring, local, or discard (monotonic).
    pub ejected: u64,
    /// SoA-scan execution (see [`TimedCbb::set_soa_scan`]).
    pub(super) soa_scan: bool,
    /// Home-cell snapshot as structure-of-arrays fixed-point banks,
    /// rebuilt each force phase; feeds the SoA batch kernels.
    pub(super) soa: HomeSoa,
}

impl TimedCbb {
    /// Empty CBB for a cell.
    pub fn new(cfg: &ChipConfig, gcell: CellCoord) -> Self {
        TimedCbb {
            gcell,
            id: Vec::new(),
            elem: Vec::new(),
            offset: Vec::new(),
            vel: Vec::new(),
            force: Vec::new(),
            home_concat: Vec::new(),
            spes: (0..cfg.spes_per_cbb).map(|_| Spe::new(cfg)).collect(),
            mu_pipe: Pipeline::new(cfg.hw.mu_latency as u64),
            mu_cursor: 0,
            alive: Vec::new(),
            arrivals: Vec::new(),
            mig_out: VecDeque::new(),
            mu_stats: Activity::with_capacity(1),
            dispatched: 0,
            ejected: 0,
            soa_scan: false,
            soa: HomeSoa::new(),
        }
    }

    /// Enable/disable the SoA scan path: neighbour entries are dispatched
    /// through [`super::pe::Pe::dispatch_planned`], evaluating the whole scan against
    /// the [`HomeSoa`] banks up front while the per-cycle state machine
    /// consumes one comparison per cycle as before. Bit-identical to the
    /// scalar path; off by default so the plain interpretation stays the
    /// reference.
    pub fn set_soa_scan(&mut self, on: bool) {
        self.soa_scan = on;
    }

    /// Empty the particle caches (loading).
    pub fn clear_particles(&mut self) {
        self.id.clear();
        self.elem.clear();
        self.offset.clear();
        self.vel.clear();
        self.force.clear();
        self.alive.clear();
    }

    /// Load one particle (initialization).
    pub fn push_particle(&mut self, id: u32, elem: Element, offset: FixVec3, vel: [f32; 3]) {
        self.id.push(id);
        self.elem.push(elem);
        self.offset.push(offset);
        self.vel.push(vel);
        self.force.push([FixAcc::ZERO; 3]);
        self.alive.push(true);
    }

    /// Particles currently stored.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the cell holds no particles.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Prepare the force phase: snapshot home concats, clear FCs, fill
    /// broadcast and home-internal queues. `local_mask`/`remote_mask` are
    /// the destination masks for this cell's broadcasts (identical for all
    /// its particles).
    pub fn begin_force_phase(&mut self, owner_chip: crate::geometry::ChipCoord, cbb_index: u16, local_mask: u64, remote_mask: u32) {
        let n = self.len();
        self.home_concat.clear();
        self.home_concat
            .extend(self.offset.iter().map(|&o| ForceDatapath::concat((2, 2, 2), o)));
        if self.soa_scan {
            self.soa.rebuild(&self.elem, &self.home_concat);
        }
        for f in &mut self.force {
            *f = [FixAcc::ZERO; 3];
        }
        let spes = self.spes.len();
        for spe in &mut self.spes {
            spe.bcast.clear();
            spe.home_src.clear();
        }
        for slot in 0..n {
            let k = slot % spes;
            if local_mask != 0 || remote_mask != 0 {
                self.spes[k].bcast.push_back(PosFlit {
                    owner_chip,
                    owner_cbb: cbb_index,
                    slot: slot as u16,
                    elem: self.elem[slot],
                    offset: self.offset[slot],
                    src_gcell: self.gcell,
                    local_mask,
                    remote_mask,
                });
            }
            // internal entries: slot i scans j > i; the last slot has none
            if slot + 1 < n {
                self.spes[k].home_src.push_back(slot as u16);
            }
        }
    }

    /// Accumulate a force into the FC at `slot` (the PE's write port, a
    /// local reaction, or an arriving ring force).
    #[inline(always)]
    pub(super) fn add_force(force: &mut [[FixAcc; 3]], slot: u16, f: [f32; 3]) {
        let fc = &mut force[slot as usize];
        for k in 0..3 {
            fc[k] += FixAcc::from_f32(f[k]);
        }
    }

    /// Accumulate an arriving neighbour force from the force ring into
    /// the FC (the "FC N" write port, one per cycle by ring construction).
    pub fn accumulate_ring_force(&mut self, flit: &FrcFlit) {
        Self::add_force(&mut self.force, flit.slot, flit.force);
    }

    /// Prepare the motion-update phase.
    pub fn begin_mu_phase(&mut self) {
        self.mu_cursor = 0;
        self.alive.clear();
        self.alive.resize(self.len(), true);
        debug_assert!(self.arrivals.is_empty());
    }

    /// One MU cycle: stream one slot into the MU pipeline; retire at most
    /// one slot, applying the leapfrog update in the MU's arithmetic.
    /// Migrating particles are tombstoned and queued on the MURN. Returns
    /// the id of a retired particle whose displacement would leave the
    /// `Q5.26` grid — it keeps its old position, and the run must fail.
    pub fn step_mu(
        &mut self,
        cycle: Cycle,
        dt_fs: f64,
        acc_over_mass: &[f32; Element::COUNT],
        global: &fasda_md::space::SimulationSpace,
    ) -> Option<u32> {
        let n = self.len() as u16;
        let mut active = false;
        // issue
        if self.mu_cursor < n && self.mu_pipe.can_issue(cycle) {
            self.mu_pipe
                .issue(cycle, self.mu_cursor).expect("can_issue checked");
            self.mu_cursor += 1;
            active = true;
        }
        // retire
        let mut work = 0;
        if let Some(slot) = self.mu_pipe.pop_ready(cycle) {
            let i = slot as usize;
            let aom = acc_over_mass[self.elem[i].index()];
            let mut v = self.vel[i];
            for k in 0..3 {
                v[k] += self.force[i][k].to_f32() * aom * dt_fs as f32;
            }
            self.vel[i] = v;
            // The new offset must stay on the Q5.26 grid: a displacement
            // that leaves it is reported, never saturated into a wrong
            // position.
            let off = self.offset[i];
            let moved = |o: Fix, vk: f32| Fix::try_from_f64(vk as f64 * dt_fs)?.checked_add(o);
            let (Some(x), Some(y), Some(z)) = (moved(off.x, v[0]), moved(off.y, v[1]), moved(off.z, v[2]))
            else {
                return Some(self.id[i]);
            };
            let (wx, mx) = x.wrap_cell();
            let (wy, my) = y.wrap_cell();
            let (wz, mz) = z.wrap_cell();
            let new_off = FixVec3::new(wx, wy, wz);
            if (mx, my, mz) == (0, 0, 0) {
                self.offset[i] = new_off;
            } else {
                self.alive[i] = false;
                let dest = global.wrap_coord(self.gcell.offset((mx, my, mz)));
                self.mig_out.push_back(MigFlit {
                    dest_gcell: dest,
                    id: self.id[i],
                    elem: self.elem[i],
                    offset: new_off,
                    vel: v,
                });
            }
            work = 1;
            active = true;
        }
        self.mu_stats
            .record(work, active || !self.mu_pipe.is_empty());
        None
    }

    /// Stage a migrant delivered by the motion-update ring.
    pub fn receive_migrant(&mut self, m: MigFlit) {
        debug_assert_eq!(m.dest_gcell, self.gcell);
        self.arrivals.push(Arrival {
            id: m.id,
            elem: m.elem,
            offset: m.offset,
            vel: m.vel,
        });
    }

    /// True when this CBB's own MU streaming is finished (migrants may
    /// still be in flight on the ring).
    pub fn mu_idle(&self) -> bool {
        self.mu_cursor as usize >= self.len() && self.mu_pipe.is_empty() && self.mig_out.is_empty()
    }

    /// End the MU phase: drop migrated-away particles and append
    /// arrivals.
    pub fn end_mu_phase(&mut self) {
        let mut w = 0;
        for r in 0..self.len() {
            if self.alive[r] {
                self.id.swap(w, r);
                self.elem.swap(w, r);
                self.offset.swap(w, r);
                self.vel.swap(w, r);
                w += 1;
            }
        }
        self.id.truncate(w);
        self.elem.truncate(w);
        self.offset.truncate(w);
        self.vel.truncate(w);
        for a in std::mem::take(&mut self.arrivals) {
            self.id.push(a.id);
            self.elem.push(a.elem);
            self.offset.push(a.offset);
            self.vel.push(a.vel);
        }
        let n = self.id.len();
        self.force.clear();
        self.force.resize(n, [FixAcc::ZERO; 3]);
        self.alive.clear();
        self.alive.resize(n, true);
    }
}

fasda_ckpt::persist_struct!(Arrival { id, elem, offset, vel });

impl Spe {
    /// Checkpointing: PE shapes and FIFO depths are configuration; the
    /// SPE's PEs (`pes`, from the chip), its queues and the round-robin
    /// cursor are state. `now` is the chip's clock (see
    /// [`Pe::snapshot_at`]).
    fn snapshot_with(&self, pes: &[Pe], now: Cycle, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::{Persist, Snapshot};
        w.put_usize(pes.len());
        for pe in pes {
            pe.snapshot_at(now, w);
        }
        self.pos_in.snapshot(w);
        self.frc_out.snapshot(w);
        self.bcast.save(w);
        self.home_src.save(w);
        w.put_usize(self.rr_pe);
    }
    fn restore_with(&mut self, pes: &mut [Pe], r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::{Persist, Snapshot};
        let n = r.get_usize()?;
        if n != pes.len() {
            return Err(r.malformed(format!(
                "slice length mismatch: snapshot has {n}, structure has {}",
                pes.len()
            )));
        }
        for pe in pes.iter_mut() {
            pe.restore(r)?;
        }
        self.pos_in.restore(r)?;
        self.frc_out.restore(r)?;
        self.bcast = Persist::load(r)?;
        self.home_src = Persist::load(r)?;
        self.rr_pe = r.get_usize()?;
        if self.rr_pe >= pes.len().max(1) {
            return Err(r.malformed("round-robin PE cursor out of range"));
        }
        self.pe_free = 0;
        for (j, pe) in pes.iter().enumerate() {
            self.pe_free |= u32::from(pe.has_free_station()) << j;
        }
        Ok(())
    }
}

/// Checkpointing: the cell assignment (`gcell`) and SPE/PE shapes are
/// configuration. Particle arrays, SPE queues and PEs (`pes`, this CBB's
/// share of the chip's, SPE by SPE), the MU pipeline and its cursor,
/// tombstones, staged arrivals, and the outbound migration queue are
/// state. Phase-local caches (`home_concat`, the SoA banks) are rebuilt by
/// [`TimedCbb::begin_force_phase`]; the activity counter is reset by the
/// driver at every measurement-window start. A PE adds a pair's force to
/// the FC as the pair leaves the kernel (or a scalar filter); the FC is
/// written as the retire port would have left it, without the pairs not
/// retired yet, and a restore adds them back.
impl TimedCbb {
    /// Add (`sign` 1) or take out (−1) the FC words of the `pes`' pairs
    /// not retired by `now`; false if one names a slot past the cell.
    fn shift_unretired(force: &mut [[FixAcc; 3]], pes: &[Pe], now: Cycle, sign: i64) -> bool {
        let mut inside = true;
        for pe in pes {
            pe.for_each_unretired(now, |slot, f| match force.get_mut(usize::from(slot)) {
                Some(fc) => fc.iter_mut().zip(f.map(FixAcc::from_f32)).for_each(|(a, f)| a.0 = a.0.wrapping_add(f.0.wrapping_mul(sign))),
                None => inside = false,
            });
        }
        inside
    }

    pub(super) fn snapshot_with(&self, pes: &[Pe], now: Cycle, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::{Persist, Snapshot};
        self.id.save(w);
        self.elem.save(w);
        self.offset.save(w);
        self.vel.save(w);
        let mut force = self.force.clone();
        Self::shift_unretired(&mut force, pes, now, -1);
        force.save(w);
        w.put_usize(self.spes.len());
        for (spe, pes) in self.spes.iter().zip(pes.chunks(pes.len() / self.spes.len())) {
            spe.snapshot_with(pes, now, w);
        }
        self.mu_pipe.snapshot(w);
        w.put_u16(self.mu_cursor);
        self.alive.save(w);
        self.arrivals.save(w);
        self.mig_out.save(w);
        w.put_u64(self.dispatched);
        w.put_u64(self.ejected);
    }
    pub(super) fn restore_with(&mut self, pes: &mut [Pe], r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::{Persist, Snapshot};
        self.id = Persist::load(r)?;
        self.elem = Persist::load(r)?;
        self.offset = Persist::load(r)?;
        self.vel = Persist::load(r)?;
        self.force = Persist::load(r)?;
        let n = self.id.len();
        if self.elem.len() != n
            || self.offset.len() != n
            || self.vel.len() != n
            || self.force.len() != n
        {
            return Err(r.malformed("particle array lengths disagree"));
        }
        let spes = r.get_usize()?;
        if spes != self.spes.len() {
            return Err(r.malformed(format!(
                "slice length mismatch: snapshot has {spes}, structure has {}",
                self.spes.len()
            )));
        }
        let per_spe = pes.len() / self.spes.len();
        for (spe, pes) in self.spes.iter_mut().zip(pes.chunks_mut(per_spe)) {
            spe.restore_with(pes, r)?;
        }
        self.mu_pipe.restore(r)?;
        self.mu_cursor = r.get_u16()?;
        self.alive = Persist::load(r)?;
        self.arrivals = Persist::load(r)?;
        self.mig_out = Persist::load(r)?;
        self.dispatched = r.get_u64()?;
        self.ejected = r.get_u64()?;
        if !Self::shift_unretired(&mut self.force, pes, 0, 1) {
            return Err(r.malformed("a station's pair names a slot past the cell"));
        }
        // Phase-local caches are stale until the next phase begins.
        self.home_concat.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::geometry::ChipCoord;
    use fasda_md::space::SimulationSpace;
    use fasda_md::units::UnitSystem;

    fn cbb_with(n: usize) -> TimedCbb {
        let cfg = ChipConfig::baseline();
        let mut cbb = TimedCbb::new(&cfg, CellCoord::new(1, 1, 1));
        fill(&mut cbb, n);
        cbb
    }

    fn fill(cbb: &mut TimedCbb, n: usize) {
        for i in 0..n {
            let t = (i as f64 + 0.5) / n as f64;
            cbb.push_particle(
                i as u32,
                Element::Na,
                FixVec3::from_f64(t, 0.5, 0.4),
                [0.0; 3],
            );
        }
    }

    #[test]
    fn internal_pairs_produce_symmetric_forces() {
        // One populated cell of a single-chip 3×3×3 block: its broadcasts
        // reach only empty cells, so every force comes from its internal
        // entries, on the serial oracle's exhaustive tick.
        let space = SimulationSpace::cubic(3);
        let mut chip = super::super::TimedChip::new(
            ChipConfig::baseline(),
            crate::geometry::ChipGeometry::single_chip(space),
            UnitSystem::PAPER,
            2.0,
        );
        fill(&mut chip.cbbs[13], 6);
        chip.begin_force_phase();
        let mut cycles = 0;
        while !chip.force_phase_local_idle() {
            chip.step_force_cycle();
            cycles += 1;
            assert!(cycles < 20_000, "internal evaluation must converge");
        }
        // The two directions of a pair are evaluated by different
        // stations with independent f32 rounding, so cancellation is
        // approximate even on the fixed-point accumulator grid.
        let cbb = &chip.cbbs[13];
        assert!(cbb.force.iter().any(|f| f[0] != FixAcc::ZERO), "some pair must pass");
        let net: [f64; 3] = cbb.force.iter().fold([0.0; 3], |mut a, f| {
            for k in 0..3 {
                a[k] += f[k].to_f64();
            }
            a
        });
        for k in 0..3 {
            assert!(net[k].abs() < 1e-3, "net force component {k} = {}", net[k]);
        }
    }

    #[test]
    fn broadcast_queue_split_by_parity() {
        let cfg = ChipConfig::variant(crate::config::DesignVariant::C);
        let mut cbb = TimedCbb::new(&cfg, CellCoord::new(0, 0, 0));
        for i in 0..8 {
            cbb.push_particle(i, Element::Na, FixVec3::from_f64(0.5, 0.5, 0.5), [0.0; 3]);
        }
        cbb.begin_force_phase(ChipCoord::new(0, 0, 0), 0, 0b10, 0);
        assert_eq!(cbb.spes.len(), 2);
        assert_eq!(cbb.spes[0].bcast.len(), 4, "even slots on SPE0");
        assert_eq!(cbb.spes[1].bcast.len(), 4, "odd slots on SPE1");
        assert!(cbb.spes[0].bcast.iter().all(|f| f.slot % 2 == 0));
        assert!(cbb.spes[1].bcast.iter().all(|f| f.slot % 2 == 1));
    }

    #[test]
    fn mu_updates_positions_and_velocities() {
        let mut cbb = cbb_with(4);
        let space = SimulationSpace::cubic(3);
        let aom = {
            let mut a = [0.0f32; Element::COUNT];
            for e in Element::ALL {
                a[e.index()] = (UnitSystem::PAPER.acc_factor() / e.mass()) as f32;
            }
            a
        };
        // constant force in +x
        cbb.begin_force_phase(ChipCoord::new(0, 0, 0), 0, 0, 0);
        for f in &mut cbb.force {
            *f = [FixAcc::from_f32(1.0), FixAcc::ZERO, FixAcc::ZERO];
        }
        let before = cbb.offset.clone();
        cbb.begin_mu_phase();
        for c in 0..200u64 {
            cbb.step_mu(c, 2.0, &aom, &space);
            if cbb.mu_idle() {
                break;
            }
        }
        cbb.end_mu_phase();
        for i in 0..cbb.len() {
            assert!(cbb.vel[i][0] > 0.0, "kicked in +x");
            assert!(cbb.offset[i].x > before[i].x, "drifted in +x");
        }
    }

    #[test]
    fn mu_migration_tombstones_and_flit() {
        let mut cbb = cbb_with(1);
        cbb.offset[0] = FixVec3::from_f64(0.999, 0.5, 0.5);
        cbb.vel[0] = [0.01, 0.0, 0.0]; // 0.02 cells per 2 fs step
        let space = SimulationSpace::cubic(3);
        let aom = [0.0f32; Element::COUNT];
        cbb.begin_force_phase(ChipCoord::new(0, 0, 0), 0, 0, 0);
        cbb.begin_mu_phase();
        for c in 0..200u64 {
            cbb.step_mu(c, 2.0, &aom, &space);
            if self_mu_done(&cbb) {
                break;
            }
        }
        assert_eq!(cbb.mig_out.len(), 1);
        let m = cbb.mig_out.pop_front().unwrap();
        assert_eq!(m.dest_gcell, CellCoord::new(2, 1, 1));
        assert_eq!(m.id, 0);
        cbb.end_mu_phase();
        assert_eq!(cbb.len(), 0, "migrant removed");
    }

    fn self_mu_done(cbb: &TimedCbb) -> bool {
        cbb.mu_cursor as usize >= cbb.len() && cbb.mu_pipe.is_empty()
    }

    #[test]
    fn end_mu_appends_arrivals() {
        let mut cbb = cbb_with(2);
        cbb.begin_mu_phase();
        cbb.receive_migrant(MigFlit {
            dest_gcell: cbb.gcell,
            id: 77,
            elem: Element::Ar,
            offset: FixVec3::from_f64(0.1, 0.2, 0.3),
            vel: [0.0; 3],
        });
        cbb.end_mu_phase();
        assert_eq!(cbb.len(), 3);
        assert_eq!(cbb.id[2], 77);
        assert_eq!(cbb.force.len(), 3);
    }
}
