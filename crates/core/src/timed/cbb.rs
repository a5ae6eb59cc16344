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

use super::pe::{Ejection, NbrEntry, NbrKind, Pe};
use super::ring::{FrcFlit, MigFlit, PosFlit};

/// One SPE: PEs plus its ring-facing queues.
#[derive(Clone, Debug)]
pub struct Spe {
    /// The PEs of this SPE (private to the chip model: `pe_busy` /
    /// `pe_free` below mirror them).
    pub(super) pes: Vec<Pe>,
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
    rr_pe: usize,
    /// PEs holding work — a station or a pipeline entry. Only these are
    /// stepped; an idle PE's cycle changes nothing.
    pe_busy: u32,
    /// PEs with a free filter station (dispatch candidates).
    pe_free: u32,
}

impl Spe {
    fn new(cfg: &ChipConfig) -> Self {
        assert!(cfg.pes_per_spe <= 32, "PE state is tracked in u32 bitmasks");
        Spe {
            pes: (0..cfg.pes_per_spe)
                .map(|_| {
                    Pe::new(
                        cfg.hw.filters_per_pe,
                        cfg.hw.force_pipe_latency,
                        cfg.hw.pair_fifo_depth,
                    )
                })
                .collect(),
            pos_in: Fifo::new(cfg.hw.pos_in_fifo_depth),
            frc_out: Fifo::new(cfg.hw.frc_out_fifo_depth),
            bcast: VecDeque::new(),
            home_src: VecDeque::new(),
            rr_pe: 0,
            pe_busy: 0,
            pe_free: ((1u64 << cfg.pes_per_spe) - 1) as u32,
        }
    }

    /// The PEs of this SPE.
    pub fn pes(&self) -> &[Pe] {
        &self.pes
    }

    /// True when a force cycle of this SPE's dispatcher and PEs would do
    /// something (`bcast` / `frc_out` are the chip's injection stage's).
    fn is_live(&self) -> bool {
        self.pe_busy != 0 || !self.pos_in.is_empty() || !self.home_src.is_empty()
    }

    /// Re-derive the PE masks from the PEs (after a restore).
    fn rebuild_masks(&mut self) {
        self.pe_busy = 0;
        self.pe_free = 0;
        for (i, pe) in self.pes.iter().enumerate() {
            self.pe_busy |= u32::from(!pe.is_idle()) << i;
            self.pe_free |= u32::from(pe.has_free_station()) << i;
        }
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
    soa_scan: bool,
    /// Home-cell snapshot as structure-of-arrays fixed-point banks,
    /// rebuilt each force phase; feeds the SoA batch kernels.
    soa: HomeSoa,
    /// Scratch buffer reused across force cycles (avoid per-cycle
    /// allocation on the hot path).
    scratch_ej: Vec<Ejection>,
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
            scratch_ej: Vec::new(),
        }
    }

    /// Enable/disable the SoA scan path: neighbour entries are dispatched
    /// through [`Pe::dispatch_planned`], evaluating the whole scan against
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

    /// One force-phase cycle of this CBB's dispatchers and PEs.
    ///
    /// Dispatch policy: one neighbour entry per SPE per cycle, preferring
    /// ring deliveries (to relieve ring pressure) over home-internal
    /// entries. Completed *remote-origin* neighbour evaluations are
    /// appended to `completed` as `(origin_chip, frc_issued)` records for
    /// the chained-synchronization bookkeeping — `frc_issued` says whether
    /// a force flit was actually emitted toward that origin (zero-force
    /// evaluations are discarded, §5.4).
    ///
    /// Only PEs that hold work are stepped: an idle PE's cycle retires,
    /// issues, compares and ejects nothing and records no activity, and a
    /// drained SPE has nothing to dispatch, so the force-phase tail — when
    /// most cells sit idle — costs a few mask tests per SPE. With
    /// `EXHAUSTIVE` (the serial oracle) every PE is stepped regardless and
    /// the idle ones are asserted to have been no-ops.
    pub fn step_force<const EXHAUSTIVE: bool>(
        &mut self,
        cycle: Cycle,
        dp: &ForceDatapath,
        completed: &mut Vec<(crate::geometry::ChipCoord, bool)>,
    ) {
        debug_assert_eq!(self.home_concat.len(), self.len());
        for spe in &mut self.spes {
            // Dispatch one entry to a free station: round-robin from
            // `rr_pe` is the lowest free PE at or above it, else the
            // lowest overall.
            let have_work = !spe.pos_in.is_empty() || !spe.home_src.is_empty();
            if have_work && spe.pe_free != 0 {
                let ahead = spe.pe_free >> spe.rr_pe;
                let pe_idx = if ahead != 0 {
                    spe.rr_pe + ahead.trailing_zeros() as usize
                } else {
                    spe.pe_free.trailing_zeros() as usize
                };
                let entry = spe.pos_in.pop().unwrap_or_else(|| {
                    let slot = spe.home_src.pop_front().expect("have_work checked");
                    NbrEntry {
                        concat: self.home_concat[slot as usize],
                        elem: self.elem[slot as usize],
                        scan_from: slot + 1,
                        kind: NbrKind::Internal { slot },
                    }
                });
                let pe = &mut spe.pes[pe_idx];
                if self.soa_scan {
                    pe.dispatch_planned(entry, dp, &self.soa);
                } else {
                    pe.dispatch(entry);
                }
                let bit = 1u32 << pe_idx;
                spe.pe_busy |= bit;
                if !pe.has_free_station() {
                    spe.pe_free &= !bit;
                }
                spe.rr_pe = if pe_idx + 1 == spe.pes.len() { 0 } else { pe_idx + 1 };
                self.dispatched += 1;
            }

            // PE cycles
            let mut budget = if spe.frc_out.is_full() { 0 } else { 1u32 };
            self.scratch_ej.clear();
            let visit = if EXHAUSTIVE { (1u64 << spe.pes.len()) - 1 } else { u64::from(spe.pe_busy) };
            for i in super::set_bits(visit) {
                let bit = 1u32 << i;
                let pe = &mut spe.pes[i];
                let expect_noop = EXHAUSTIVE && spe.pe_busy & bit == 0;
                let ejected_before = self.scratch_ej.len();
                let retired = pe.step(
                    cycle,
                    dp,
                    &self.elem,
                    &self.home_concat,
                    &mut self.scratch_ej,
                    &mut budget,
                );
                if let Some((slot, f)) = retired {
                    let fc = &mut self.force[slot as usize];
                    for k in 0..3 {
                        fc[k] += FixAcc::from_f32(f[k]);
                    }
                }
                if expect_noop {
                    // (Idle before and after with nothing retired or
                    // ejected: its stations and pipeline were empty, so
                    // both activity counters recorded `(0, false)`.)
                    assert!(
                        retired.is_none() && ejected_before == self.scratch_ej.len() && pe.is_idle(),
                        "a PE the busy mask calls idle did work"
                    );
                }
                if self.scratch_ej.len() != ejected_before {
                    spe.pe_free |= bit;
                    if pe.is_idle() {
                        spe.pe_busy &= !bit;
                    }
                }
            }
            for ej in &self.scratch_ej {
                match *ej {
                    Ejection::Ring(flit, remote) => {
                        spe.frc_out
                            .push(flit).expect("budget guaranteed frc_out space");
                        if remote {
                            completed.push((flit.owner_chip, true));
                        }
                    }
                    Ejection::Local { slot, force } => {
                        let fc = &mut self.force[slot as usize];
                        for k in 0..3 {
                            fc[k] += FixAcc::from_f32(force[k]);
                        }
                    }
                    Ejection::Discard { origin, remote } => {
                        if remote {
                            completed.push((origin, false));
                        }
                    }
                }
            }
            self.ejected += self.scratch_ej.len() as u64;
        }
    }

    /// Accumulate an arriving neighbour force from the force ring into
    /// the FC (the "FC N" write port, one per cycle by ring construction).
    pub fn accumulate_ring_force(&mut self, flit: &FrcFlit) {
        let fc = &mut self.force[flit.slot as usize];
        for k in 0..3 {
            fc[k] += FixAcc::from_f32(flit.force[k]);
        }
    }

    /// True when [`TimedCbb::step_force`] would do something: an entry
    /// awaits dispatch or a PE holds work.
    pub fn force_live(&self) -> bool {
        self.spes.iter().any(Spe::is_live)
    }

    /// True when some PE of this CBB holds work.
    pub fn pe_busy(&self) -> bool {
        self.spes.iter().any(|s| s.pe_busy != 0)
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
    /// Migrating particles are tombstoned and queued on the MURN.
    pub fn step_mu(
        &mut self,
        cycle: Cycle,
        dt_fs: f64,
        acc_over_mass: &[f32; Element::COUNT],
        global: &fasda_md::space::SimulationSpace,
    ) {
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
            let d = FixVec3::new(
                Fix::from_f64(v[0] as f64 * dt_fs),
                Fix::from_f64(v[1] as f64 * dt_fs),
                Fix::from_f64(v[2] as f64 * dt_fs),
            );
            let (wx, mx) = (self.offset[i].x + d.x).wrap_cell();
            let (wy, my) = (self.offset[i].y + d.y).wrap_cell();
            let (wz, mz) = (self.offset[i].z + d.z).wrap_cell();
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

/// Checkpointing: PE shapes and FIFO depths are configuration; the queues
/// and the round-robin cursor are state.
impl fasda_ckpt::Snapshot for Spe {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        fasda_ckpt::snapshot_slice(&self.pes, w);
        self.pos_in.snapshot(w);
        self.frc_out.snapshot(w);
        self.bcast.save(w);
        self.home_src.save(w);
        w.put_usize(self.rr_pe);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        fasda_ckpt::restore_slice(&mut self.pes, r)?;
        self.pos_in.restore(r)?;
        self.frc_out.restore(r)?;
        self.bcast = Persist::load(r)?;
        self.home_src = Persist::load(r)?;
        self.rr_pe = r.get_usize()?;
        if self.rr_pe >= self.pes.len().max(1) {
            return Err(r.malformed("round-robin PE cursor out of range"));
        }
        self.rebuild_masks();
        Ok(())
    }
}

/// Checkpointing: the cell assignment (`gcell`) and SPE/PE shapes are
/// configuration. Particle arrays, SPE queues, the MU pipeline and its
/// cursor, tombstones, staged arrivals, and the outbound migration queue
/// are state. Phase-local caches (`home_concat`, the SoA banks) are
/// rebuilt by [`TimedCbb::begin_force_phase`]; the activity counter is
/// reset by the driver at every measurement-window start; scratch buffers
/// carry no state across cycles.
impl fasda_ckpt::Snapshot for TimedCbb {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        self.id.save(w);
        self.elem.save(w);
        self.offset.save(w);
        self.vel.save(w);
        self.force.save(w);
        fasda_ckpt::snapshot_slice(&self.spes, w);
        self.mu_pipe.snapshot(w);
        w.put_u16(self.mu_cursor);
        self.alive.save(w);
        self.arrivals.save(w);
        self.mig_out.save(w);
        w.put_u64(self.dispatched);
        w.put_u64(self.ejected);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
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
        fasda_ckpt::restore_slice(&mut self.spes, r)?;
        self.mu_pipe.restore(r)?;
        self.mu_cursor = r.get_u16()?;
        self.alive = Persist::load(r)?;
        self.arrivals = Persist::load(r)?;
        self.mig_out = Persist::load(r)?;
        self.dispatched = r.get_u64()?;
        self.ejected = r.get_u64()?;
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
    use fasda_arith::interp::TableConfig;
    use fasda_md::element::PairTable;
    use fasda_md::space::SimulationSpace;
    use fasda_md::units::UnitSystem;

    fn dp() -> ForceDatapath {
        ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER)
    }

    /// True when no SPE of `cbb` holds outstanding force-phase work.
    fn force_idle(cbb: &TimedCbb) -> bool {
        cbb.spes
            .iter()
            .all(|s| !s.is_live() && s.frc_out.is_empty() && s.bcast.is_empty())
    }

    fn cbb_with(n: usize) -> TimedCbb {
        let cfg = ChipConfig::baseline();
        let mut cbb = TimedCbb::new(&cfg, CellCoord::new(1, 1, 1));
        for i in 0..n {
            let t = (i as f64 + 0.5) / n as f64;
            cbb.push_particle(
                i as u32,
                Element::Na,
                FixVec3::from_f64(t, 0.5, 0.4),
                [0.0; 3],
            );
        }
        cbb
    }

    #[test]
    fn internal_pairs_produce_symmetric_forces() {
        let dp = dp();
        let mut cbb = cbb_with(6);
        cbb.begin_force_phase(ChipCoord::new(0, 0, 0), 0, 0, 0);
        // no broadcasts (masks 0) — only internal entries
        let mut completed = Vec::new();
        for c in 0..2_000u64 {
            cbb.step_force::<true>(c, &dp, &mut completed);
            if force_idle(&cbb) {
                break;
            }
        }
        assert!(completed.is_empty(), "no remote origins in this test");
        assert!(force_idle(&cbb), "internal evaluation must converge");
        // The two directions of a pair are evaluated by different
        // stations with independent f32 rounding, so cancellation is
        // approximate even on the fixed-point accumulator grid.
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
