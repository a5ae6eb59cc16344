//! The Processing Element: filter stations, pair arbiter, force pipeline
//! (paper §3.3, Fig. 6).
//!
//! A neighbour position arriving from the PRN is "dispatched to one of the
//! registers to pair with the positions from local PC being traversed
//! repeatedly". Each of the PE's filter stations holds one neighbour
//! position and streams the home cell's particles past it, one comparison
//! per cycle. Passing pairs are buffered per-station and arbitrated into
//! the force pipeline (one issue per cycle). Retired forces split two
//! ways: the home component accumulates into the local FC, the neighbour
//! component is negated and accumulated in the station register; when the
//! station's scan is complete **and** its pairs have drained from the
//! pipeline, the accumulated neighbour force is ejected toward the FRN —
//! or discarded if no pair passed ("zero force is simply discarded rather
//! than returned", §5.4).

// Componentwise `for k in 0..3` loops mirror the per-lane datapath.
#![allow(clippy::needless_range_loop)]
use crate::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_arith::fixed::FixVec3;
use fasda_md::element::Element;
use fasda_sim::{Activity, Cycle, Fifo, Pipeline};

use super::ring::FrcFlit;
use super::set_bits;
use crate::geometry::ChipCoord;

/// Where an ejected neighbour force must go.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NbrKind {
    /// The neighbour came from another cell (possibly another chip): the
    /// force returns via the force ring.
    Ring {
        owner_chip: ChipCoord,
        owner_cbb: u16,
        slot: u16,
        /// Whether the owner is a remote chip (for per-origin sync
        /// accounting).
        remote: bool,
    },
    /// A home-internal entry (the half-shell's own-cell `i < j` pairs):
    /// the reaction force lands directly in the local FC at `slot`.
    Internal { slot: u16 },
}

/// A neighbour position occupying a filter station.
#[derive(Clone, Copy, Debug)]
pub struct NbrEntry {
    /// RCID-concatenated coordinates of the neighbour.
    pub concat: FixVec3,
    /// Element type.
    pub elem: Element,
    /// First home slot to scan (0 for ring neighbours; `slot + 1` for
    /// home-internal entries, giving the `i < j` rule).
    pub scan_from: u16,
    /// Force-return routing.
    pub kind: NbrKind,
}

/// A filtered pair in flight toward / inside the force pipeline. The
/// force-pipeline arithmetic is a pure function of the pair, so the model
/// evaluates it when the pair passes the filter and lets the job carry
/// the finished words through the latency pipe — retiring is then a pure
/// accumulation, on both the scalar and the batch-kernel path.
#[derive(Clone, Copy, Debug)]
pub struct PipeJob {
    /// Station that produced the pair (for neighbour-force accumulation).
    pub station: u8,
    /// Home slot of the pair.
    pub home_slot: u16,
    /// Force on the home particle (the neighbour gets the negation).
    pub force: [f32; 3],
}

/// One filter station — the wide, *cold* half of its state, touched on
/// events only (a passing pair, a retire, an ejection, a dispatch). What
/// the every-cycle stage reads lives in the [`Pe`]'s packed lanes and
/// masks.
#[derive(Clone, Debug)]
struct Station {
    entry: Option<NbrEntry>,
    in_flight: u32,
    had_pairs: bool,
    acc: [f32; 3],
    pair_fifo: Fifo<PipeJob>,
    /// Precomputed scan results (ascending slot) when the entry was
    /// dispatched through the fused SoA kernel; the scalar per-cycle
    /// filter path leaves it empty.
    plan: Vec<ScanHit>,
    plan_next: usize,
}

impl Station {
    fn new(fifo_depth: usize) -> Self {
        Station {
            entry: None,
            in_flight: 0,
            had_pairs: false,
            acc: [0.0; 3],
            pair_fifo: Fifo::new(fifo_depth),
            plan: Vec::new(),
            plan_next: 0,
        }
    }
}

/// The result of ejecting a completed neighbour entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ejection {
    /// Send this flit along the force ring.
    Ring(FrcFlit, /*remote origin:*/ bool),
    /// Accumulate directly into the local FC (home-internal reaction).
    Local { slot: u16, force: [f32; 3] },
    /// Neighbour passed no filter: zero force, discarded (§5.4). The
    /// origin and `remote` flag still matter for per-origin sync
    /// accounting.
    Discard { origin: ChipCoord, remote: bool },
}

/// Station lanes per PE (the width of the station masks).
const LANES: usize = 32;

/// A Processing Element: `filters_per_pe` stations + one force pipeline.
///
/// **Event-timed stations.** A station compares one home slot per cycle,
/// so once its scan is running the slot it is on is a function of the
/// clock: `cursor = now − base`. The scan plan fixes every hit slot at
/// dispatch, hence the *cycle* of the station's next event — its next
/// hit, or the last comparison of its scan — is known in advance and is
/// kept in the `ev_at` lane, and the earliest of them in `next_due`. The
/// every-cycle filter stage is then one compare of `next_due` against the
/// clock plus a `count_ones` for the activity counter; cursors are
/// implicit and only the stations whose event is due touch their
/// [`Station`], plan and FIFO. (A scalar station, whose pairs are
/// filtered one comparison at a time, is simply due every cycle.)
///
/// The clock is the `cycle` argument of [`Pe::step`] truncated to 16
/// bits. That is sound because lanes are only compared for equality, only
/// while the station is running, and a running station's event lies at
/// most one scan (`home_len ≤ u16::MAX` comparisons) ahead — it is
/// recomputed whenever the station (re)starts. It requires a PE with a
/// running station to be stepped on consecutive cycles, which the CBB
/// guarantees: a non-idle PE is stepped on every tick of its chip.
///
/// A station that is not running — free, freshly dispatched, stalled on a
/// full pair FIFO, scan finished, or just restored from a snapshot — is
/// *parked*: its `base` lane holds the literal cursor. The filter stage
/// (re)starts a parked station that is occupied, unfinished and not
/// stalled by rebasing it on the current clock, so a FIFO stall is a
/// shift of the station's stamps, and the arbiter's pop in stage 2
/// resumes the station in stage 3 of the same cycle.
#[derive(Clone, Debug)]
pub struct Pe {
    stations: Vec<Station>,
    pipe: Pipeline<PipeJob>,
    /// Cycle the pipeline's oldest job retires (`Cycle::MAX` when it is
    /// empty): a cycle without a retire does not touch the pipeline.
    retire_at: Cycle,
    rr: usize,
    /// Running: `clock − cursor` at (re)start. Parked: the cursor itself.
    base: [u16; LANES],
    /// Running planned stations: clock value of the next hit, or of the
    /// scan's last comparison when no hit is left.
    ev_at: [u16; LANES],
    /// Earliest `ev_at` among the running planned stations (stale, and
    /// then harmless, when there are none: a spurious match finds no
    /// lane due).
    next_due: u16,
    /// Clock value the next [`Pe::step`] is expected at (materialises
    /// cursors on save).
    now: u16,
    /// Stations holding a neighbour entry.
    occupied: u32,
    /// Stations dispatched through the SoA batch kernels.
    planned: u32,
    /// Occupied stations whose scan has finished.
    done: u32,
    /// Stations whose pair FIFO is full (their scan is stalled).
    fifo_full: u32,
    /// Stations whose pair FIFO holds at least one job (arbiter input).
    fifo_nonempty: u32,
    /// Stations whose scan is advancing one slot per cycle.
    running: u32,
    /// Finished stations with nothing left in flight: ejection candidates.
    drained: u32,
    /// Filter activity (capacity = stations).
    pub filter_stats: Activity,
    /// Force-pipeline activity (capacity = 1/cycle).
    pub pe_stats: Activity,
}

impl Pe {
    /// Build a PE.
    pub fn new(filters: u32, pipe_latency: u32, pair_fifo_depth: usize) -> Self {
        assert!(filters as usize <= LANES, "station state is tracked in u32 bitmasks");
        Pe {
            stations: (0..filters).map(|_| Station::new(pair_fifo_depth)).collect(),
            pipe: Pipeline::new(pipe_latency as u64),
            retire_at: Cycle::MAX,
            rr: 0,
            base: [0; LANES],
            ev_at: [0; LANES],
            next_due: 0,
            now: 0,
            occupied: 0,
            planned: 0,
            done: 0,
            fifo_full: 0,
            fifo_nonempty: 0,
            running: 0,
            drained: 0,
            filter_stats: Activity::with_capacity(filters as u64),
            pe_stats: Activity::with_capacity(1),
        }
    }

    /// True if some station is free to accept a neighbour entry.
    pub fn has_free_station(&self) -> bool {
        (self.occupied.count_ones() as usize) < self.stations.len()
    }

    /// Stations stalled on a full pair FIFO. Only tests call it:
    /// `golden_tick` pins the per-step census of the production tick.
    pub fn stalled_mask(&self) -> u32 {
        self.fifo_full
    }

    /// Stations whose scan and pairs are finished but which have not
    /// been ejected yet. Only tests call it, as [`Self::stalled_mask`].
    pub fn drained_mask(&self) -> u32 {
        self.drained
    }

    /// Reset the lowest free station around a fresh entry, parked on its
    /// first slot; the next [`Pe::step`] starts its scan.
    fn load_station(&mut self, entry: NbrEntry) -> usize {
        let free = !self.occupied & ((1u64 << self.stations.len()) - 1) as u32;
        assert!(free != 0, "dispatch requires a free station");
        let si = free.trailing_zeros() as usize;
        let st = &mut self.stations[si];
        debug_assert!(
            st.entry.is_none() && st.in_flight == 0 && st.pair_fifo.is_empty(),
            "station must be drained before reload"
        );
        st.entry = Some(entry);
        st.had_pairs = false;
        st.acc = [0.0; 3];
        st.plan.clear();
        st.plan_next = 0;
        self.base[si] = entry.scan_from;
        self.occupied |= 1u32 << si;
        si
    }

    /// Load a neighbour entry into a free station. Panics if none free —
    /// guard with [`Pe::has_free_station`].
    pub fn dispatch(&mut self, entry: NbrEntry) {
        self.load_station(entry);
    }

    /// [`Pe::dispatch`] through the fused SoA kernel: run the station's
    /// whole scan against the home banks now
    /// ([`ForceDatapath::fused_scan_into`]) and store the finished
    /// [`ScanHit`]s — written *directly* into the station's plan, no
    /// intermediate `FilteredPair` buffer — as the plan that times the
    /// station's events. Cycle-for-cycle and bit-for-bit identical to the
    /// scalar path: the station still advances one home slot per cycle,
    /// stalls on a full pair FIFO, and pushes the same jobs on the same
    /// cycles — only the arithmetic is hoisted out of the cycle loop.
    pub fn dispatch_planned(&mut self, entry: NbrEntry, dp: &ForceDatapath, home: &HomeSoa) {
        let si = self.load_station(entry);
        dp.fused_scan_into(home, entry.concat, entry.elem, entry.scan_from, &mut self.stations[si].plan);
        self.planned |= 1u32 << si;
    }

    /// True when the PE holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.retire_at == Cycle::MAX && self.occupied == 0
    }

    /// Clock value of a running planned station's next event.
    #[inline]
    fn next_event(&self, si: usize, home_len: u16) -> u16 {
        let st = &self.stations[si];
        let slot = st.plan.get(st.plan_next).map_or(home_len - 1, |h| h.slot);
        self.base[si].wrapping_add(slot)
    }

    /// Recompute `next_due` after the running planned set or its stamps
    /// changed. Every stamp lies at most one scan ahead of `now`, so the
    /// wrapped distance orders them.
    fn retime(&mut self, now: u16) {
        let ahead = set_bits(u64::from(self.running & self.planned))
            .map(|si| self.ev_at[si].wrapping_sub(now))
            .min()
            .unwrap_or(u16::MAX);
        self.next_due = now.wrapping_add(ahead);
    }

    /// (Re)start a parked station's scan at clock `now`: rebase its
    /// cursor on the clock and stamp its next event. A station parked at
    /// or past the end of the home cell finishes without a comparison.
    fn start_scan(&mut self, si: usize, now: u16, home_len: u16) {
        let bit = 1u32 << si;
        let cursor = self.base[si];
        if cursor >= home_len {
            self.done |= bit;
            if self.stations[si].in_flight == 0 {
                self.drained |= bit;
            }
            return;
        }
        self.base[si] = now.wrapping_sub(cursor);
        self.running |= bit;
        if self.planned & bit != 0 {
            self.ev_at[si] = self.next_event(si, home_len);
        }
    }

    /// One due comparison of running station `si`: a planned hit, the
    /// last comparison of a planned scan, or any comparison of a scalar
    /// station.
    #[inline]
    fn compare(
        &mut self,
        si: usize,
        now: u16,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
    ) {
        let bit = 1u32 << si;
        let cur = now.wrapping_sub(self.base[si]);
        let st = &mut self.stations[si];
        let hit = if self.planned & bit != 0 {
            match st.plan.get(st.plan_next) {
                Some(h) if h.slot == cur => {
                    st.plan_next += 1;
                    Some(h.force)
                }
                _ => None,
            }
        } else {
            let entry = st.entry.expect("occupied bit tracks entries");
            let hi = cur as usize;
            dp.filter(home_concat[hi], entry.concat)
                .map(|pair| dp.force(home_elem[hi], entry.elem, pair))
        };
        let mut stalled = false;
        if let Some(force) = hit {
            let job = PipeJob {
                station: si as u8,
                home_slot: cur,
                force,
            };
            st.pair_fifo.push(job).expect("a stalled station is not running");
            st.in_flight += 1;
            st.had_pairs = true;
            self.fifo_nonempty |= bit;
            if st.pair_fifo.is_full() {
                self.fifo_full |= bit;
                stalled = true;
            }
        }
        let next = cur + 1;
        let home_len = home_elem.len() as u16;
        let ended = next >= home_len;
        if ended || stalled {
            // Park on the next slot; a stalled station restarts when the
            // arbiter makes room.
            self.running &= !bit;
            self.base[si] = next;
            if ended {
                self.done |= bit;
                if st.in_flight == 0 {
                    self.drained |= bit;
                }
            }
        } else if self.planned & bit != 0 {
            self.ev_at[si] = self.next_event(si, home_len);
        }
    }

    /// One cycle of PE operation against the home cell's snapshot.
    ///
    /// `home` is (elements, concatenated home coordinates). Returns
    /// `(retired_force, ejections)`: at most one retired pipeline result
    /// `(home_slot, force_on_home)` this cycle, and any station ejections.
    ///
    /// `ring_eject_budget` models the SPE's single arbitrated injection
    /// path into the FRN (§4.5): a station whose force must travel the
    /// force ring can only eject while the budget is positive; local
    /// reactions and zero-force discards are port-free.
    #[allow(clippy::type_complexity)]
    pub fn step(
        &mut self,
        cycle: Cycle,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
        ejections: &mut Vec<Ejection>,
        ring_eject_budget: &mut u32,
    ) -> Option<(u16, [f32; 3])> {
        let home_len = home_elem.len() as u16;
        let now = cycle as u16;
        debug_assert!(
            self.running == 0 || now == self.now,
            "a PE with running stations is stepped on consecutive cycles"
        );

        // 1. Retire a pipeline result: home force to FC, reaction into
        //    the producing station's accumulator.
        let mut retired = None;
        if cycle >= self.retire_at {
            let job = self.pipe.pop_ready(cycle).expect("retire_at tracks the oldest job");
            self.retire_at = self.pipe.next_ready().unwrap_or(Cycle::MAX);
            let f = job.force;
            let st = &mut self.stations[job.station as usize];
            for k in 0..3 {
                st.acc[k] -= f[k];
            }
            st.in_flight -= 1;
            if st.in_flight == 0 {
                self.drained |= self.done & (1u32 << job.station);
            }
            retired = Some((job.home_slot, f));
        }

        // 2. Arbitrate one buffered pair into the pipeline: round-robin
        //    from `rr` is the lowest non-empty FIFO at or above it, else
        //    the lowest overall.
        if self.fifo_nonempty != 0 && self.pipe.can_issue(cycle) {
            let ahead = self.fifo_nonempty >> self.rr;
            let idx = if ahead != 0 {
                self.rr + ahead.trailing_zeros() as usize
            } else {
                self.fifo_nonempty.trailing_zeros() as usize
            };
            let bit = 1u32 << idx;
            let st = &mut self.stations[idx];
            let job = st.pair_fifo.pop().expect("mask tracks non-empty FIFOs");
            self.fifo_nonempty &= !(u32::from(st.pair_fifo.is_empty()) << idx);
            self.fifo_full &= !bit;
            self.pipe.issue(cycle, job).expect("can_issue checked");
            if self.retire_at == Cycle::MAX {
                self.retire_at = cycle + self.pipe.latency();
            }
            self.rr = if idx + 1 == self.stations.len() { 0 } else { idx + 1 };
        }

        // 3. Filters: every running station compares one home slot this
        //    cycle. (Re)start what is parked but free to scan — fresh
        //    dispatches, and stations the arbiter just unstalled — then
        //    visit only the stations whose event is due.
        let wake = self.occupied & !self.done & !self.fifo_full & !self.running;
        if wake != 0 {
            for si in set_bits(u64::from(wake)) {
                self.start_scan(si, now, home_len);
            }
            self.retime(now);
        }
        let comparisons = self.running.count_ones() as u64;
        let mut due = !self.planned & self.running;
        if now == self.next_due {
            for si in set_bits(u64::from(self.planned & self.running)) {
                due |= u32::from(self.ev_at[si] == now) << si;
            }
        }
        let restamped = due & self.planned != 0;
        for si in set_bits(u64::from(due)) {
            self.compare(si, now, dp, home_elem, home_concat);
        }
        if restamped {
            self.retime(now);
        }
        let any_station_active = self.occupied != 0;

        // 4. Eject at most one drained station per cycle, lowest index
        //    first. Ring ejections additionally need the SPE's FRN
        //    injection budget.
        for si in set_bits(u64::from(self.drained)) {
            let bit = 1u32 << si;
            let st = &mut self.stations[si];
            debug_assert!(st.in_flight == 0 && st.pair_fifo.is_empty(), "in_flight counts FIFO jobs");
            let entry = st.entry.expect("done implies occupied");
            let needs_ring = matches!(entry.kind, NbrKind::Ring { .. }) && st.had_pairs;
            if needs_ring && *ring_eject_budget == 0 {
                continue; // retry next cycle
            }
            st.entry = None;
            self.occupied &= !bit;
            self.done &= !bit;
            self.planned &= !bit;
            self.drained &= !bit;
            let ej = match entry.kind {
                NbrKind::Internal { slot } => {
                    if st.had_pairs {
                        Ejection::Local {
                            slot,
                            force: st.acc,
                        }
                    } else {
                        Ejection::Discard {
                            origin: ChipCoord::new(0, 0, 0),
                            remote: false,
                        }
                    }
                }
                NbrKind::Ring {
                    owner_chip,
                    owner_cbb,
                    slot,
                    remote,
                } => {
                    if st.had_pairs {
                        *ring_eject_budget -= 1;
                        Ejection::Ring(
                            FrcFlit {
                                owner_chip,
                                owner_cbb,
                                slot,
                                force: st.acc,
                            },
                            remote,
                        )
                    } else {
                        Ejection::Discard {
                            origin: owner_chip,
                            remote,
                        }
                    }
                }
            };
            ejections.push(ej);
            break;
        }

        // 5. Stats.
        self.filter_stats.record(comparisons, any_station_active);
        self.pe_stats
            .record(u64::from(retired.is_some()), self.retire_at != Cycle::MAX || retired.is_some());

        self.now = now.wrapping_add(1);
        retired
    }
}

fasda_ckpt::persist_enum!(NbrKind {
    0 => Ring { owner_chip, owner_cbb, slot, remote },
    1 => Internal { slot },
});

fasda_ckpt::persist_struct!(NbrEntry { concat, elem, scan_from, kind });

fasda_ckpt::persist_struct!(PipeJob { station, home_slot, force });

fasda_ckpt::persist_struct!(ScanHit { slot, force });

impl fasda_ckpt::Snapshot for Station {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        self.entry.save(w);
        w.put_u32(self.in_flight);
        w.put_bool(self.had_pairs);
        self.acc.save(w);
        self.pair_fifo.snapshot(w);
        self.plan.save(w);
        w.put_usize(self.plan_next);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        self.entry = Persist::load(r)?;
        self.in_flight = r.get_u32()?;
        self.had_pairs = r.get_bool()?;
        self.acc = Persist::load(r)?;
        self.pair_fifo.restore(r)?;
        self.plan = Persist::load(r)?;
        self.plan_next = r.get_usize()?;
        if self.plan_next > self.plan.len() {
            return Err(r.malformed("plan cursor past the end of the plan"));
        }
        Ok(())
    }
}

/// Checkpointing: station count, pipeline latency, and FIFO depths are
/// configuration; the station/pipeline contents, scan cursors and masks
/// are state. The byte layout predates the event-timed lanes and is kept:
/// per-station cursors are materialised from the clock on save (and every
/// station restarts parked on its cursor after a restore), the "slot of
/// the next planned hit" array is derived from the plans, and the
/// `running` / `drained` masks are functions of the rest. The activity
/// counters ([`Pe::filter_stats`], [`Pe::pe_stats`]) are *not* captured —
/// the driver resets every utilization counter at the start of a
/// measurement window, which is where checkpoints are cut.
impl fasda_ckpt::Snapshot for Pe {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        fasda_ckpt::snapshot_slice(&self.stations, w);
        self.pipe.snapshot(w);
        w.put_usize(self.rr);
        let n = self.stations.len();
        let cursors: Vec<u16> = (0..n)
            .map(|si| {
                if self.running & (1 << si) != 0 {
                    self.now.wrapping_sub(self.base[si])
                } else {
                    self.base[si]
                }
            })
            .collect();
        cursors.save(w);
        let next_hit: Vec<u16> = (0..n)
            .map(|si| {
                let st = &self.stations[si];
                let live = self.occupied & self.planned & (1 << si) != 0;
                st.plan.get(st.plan_next).filter(|_| live).map_or(u16::MAX, |h| h.slot)
            })
            .collect();
        next_hit.save(w);
        w.put_u32(self.occupied);
        w.put_u32(self.planned);
        w.put_u32(self.done);
        w.put_u32(self.fifo_full);
        w.put_u32(self.fifo_nonempty);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        fasda_ckpt::restore_slice(&mut self.stations, r)?;
        self.pipe.restore(r)?;
        self.retire_at = self.pipe.next_ready().unwrap_or(Cycle::MAX);
        self.rr = r.get_usize()?;
        let n = self.stations.len();
        let cursors: Vec<u16> = Persist::load(r)?;
        let next_hit: Vec<u16> = Persist::load(r)?;
        if cursors.len() != n || next_hit.len() != n {
            return Err(r.malformed("scan-control array length disagrees with station count"));
        }
        if self.rr >= n.max(1) {
            return Err(r.malformed("round-robin station cursor out of range"));
        }
        self.base[..n].copy_from_slice(&cursors);
        self.occupied = r.get_u32()?;
        self.planned = r.get_u32()?;
        self.done = r.get_u32()?;
        self.fifo_full = r.get_u32()?;
        self.fifo_nonempty = r.get_u32()?;
        let all = ((1u64 << n) - 1) as u32;
        let masks = self.occupied | self.planned | self.done | self.fifo_full | self.fifo_nonempty;
        if masks & !all != 0 || (self.planned | self.done) & !self.occupied != 0 {
            return Err(r.malformed("station masks are inconsistent with the station count"));
        }
        for (si, st) in self.stations.iter().enumerate() {
            let bit = 1u32 << si;
            if (self.occupied & bit != 0) != st.entry.is_some()
                || (self.fifo_nonempty & bit != 0) == st.pair_fifo.is_empty()
                || (self.fifo_full & bit != 0) != st.pair_fifo.is_full()
            {
                return Err(r.malformed("station mask disagrees with station contents"));
            }
        }
        self.running = 0;
        self.drained = 0;
        for (si, st) in self.stations.iter().enumerate() {
            if st.in_flight == 0 {
                self.drained |= self.done & (1 << si);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasda_arith::interp::TableConfig;
    use fasda_md::element::PairTable;
    use fasda_md::units::UnitSystem;

    fn dp() -> ForceDatapath {
        ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER)
    }

    fn home(n: usize) -> (Vec<Element>, Vec<FixVec3>) {
        // n home particles along x in the home cell (RCID 2)
        let elems = vec![Element::Na; n];
        let concat = (0..n)
            .map(|i| {
                ForceDatapath::concat(
                    (2, 2, 2),
                    FixVec3::from_f64(0.1 + 0.8 * i as f64 / n.max(1) as f64, 0.5, 0.5),
                )
            })
            .collect();
        (elems, concat)
    }

    fn nbr_at(x: f64) -> NbrEntry {
        NbrEntry {
            concat: ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(x, 0.5, 0.5)),
            elem: Element::Na,
            scan_from: 0,
            kind: NbrKind::Ring {
                owner_chip: ChipCoord::new(0, 0, 0),
                owner_cbb: 3,
                slot: 9,
                remote: false,
            },
        }
    }

    #[test]
    fn scan_filter_retire_eject_cycle() {
        let dp = dp();
        let (he, hc) = home(4);
        let mut pe = Pe::new(2, 5, 8);
        pe.dispatch(nbr_at(0.45));
        let mut ej = Vec::new();
        let mut retired = Vec::new();
        for c in 0..60u64 {
            // The SPE refreshes the FRN injection budget each cycle
            // (mirrors the per-cycle recreation in `TimedCbb`); keep it a
            // named binding so the &mut actually refers to this cycle's
            // budget rather than a fresh temporary per call site.
            let mut budget = 1u32;
            if let Some(r) = pe.step(c, &dp, &he, &hc, &mut ej, &mut budget) {
                retired.push(r);
            }
            if pe.is_idle() {
                break;
            }
        }
        assert!(!retired.is_empty(), "some pairs must pass");
        assert_eq!(ej.len(), 1);
        match ej[0] {
            Ejection::Ring(f, remote) => {
                assert!(!remote);
                assert_eq!((f.owner_cbb, f.slot), (3, 9));
                // reaction = -(sum of home forces), up to f32 rounding
                let sum: f64 = retired.iter().map(|(_, f)| f[0] as f64).sum();
                let tol = retired
                    .iter()
                    .map(|(_, f)| f[0].abs() as f64)
                    .sum::<f64>()
                    .max(1.0)
                    * 1e-5;
                assert!(
                    (f.force[0] as f64 + sum).abs() < tol,
                    "{} vs {sum}",
                    f.force[0]
                );
            }
            ref other => panic!("expected ring ejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_force_discarded() {
        let dp = dp();
        // home particles clustered at x≈0.1; neighbour at RCID 3 far side
        let (he, hc) = home(3);
        let mut pe = Pe::new(1, 3, 4);
        pe.dispatch(NbrEntry {
            concat: ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.99, 0.5, 0.5)),
            elem: Element::Na,
            scan_from: 0,
            kind: NbrKind::Ring {
                owner_chip: ChipCoord::new(1, 0, 0),
                owner_cbb: 0,
                slot: 0,
                remote: true,
            },
        });
        let mut ej = Vec::new();
        for c in 0..40u64 {
            let mut budget = 1u32;
            pe.step(c, &dp, &he, &hc, &mut ej, &mut budget);
            if pe.is_idle() {
                break;
            }
        }
        assert_eq!(
            ej,
            vec![Ejection::Discard {
                origin: ChipCoord::new(1, 0, 0),
                remote: true
            }]
        );
    }

    #[test]
    fn internal_entry_scans_only_upper_slots() {
        let dp = dp();
        let (he, hc) = home(5);
        let mut pe = Pe::new(1, 3, 4);
        pe.dispatch(NbrEntry {
            concat: hc[2],
            elem: Element::Na,
            scan_from: 3, // i = 2, scan j in 3..5
            kind: NbrKind::Internal { slot: 2 },
        });
        let mut ej = Vec::new();
        let mut retired = Vec::new();
        for c in 0..40u64 {
            let mut budget = 1u32;
            if let Some(r) = pe.step(c, &dp, &he, &hc, &mut ej, &mut budget) {
                retired.push(r.0);
            }
            if pe.is_idle() {
                break;
            }
        }
        assert!(retired.iter().all(|&s| s >= 3), "scanned slots {retired:?}");
        // comparisons = 2 (slots 3 and 4)
        assert_eq!(pe.filter_stats.work, 2);
    }

    #[test]
    fn initiation_interval_limits_throughput() {
        let dp = dp();
        // 6 stations all loaded with close neighbours → filters produce up
        // to 6 valid pairs/cycle but the pipeline retires at most 1/cycle.
        let (he, hc) = home(16);
        let mut pe = Pe::new(6, 10, 8);
        for _ in 0..6 {
            pe.dispatch(nbr_at(0.48));
        }
        let mut ej = Vec::new();
        let mut retired = 0;
        for c in 0..400u64 {
            let mut budget = 1u32;
            let r = pe.step(c, &dp, &he, &hc, &mut ej, &mut budget);
            retired += u64::from(r.is_some());
            if pe.is_idle() {
                break;
            }
        }
        assert!(retired > 0);
        assert_eq!(pe.pe_stats.work, retired);
        assert_eq!(ej.len(), 6);
    }

    #[test]
    fn zero_budget_stalls_ring_ejection() {
        let dp = dp();
        let (he, hc) = home(4);
        let mut pe = Pe::new(1, 3, 8);
        pe.dispatch(nbr_at(0.45));
        let mut ej = Vec::new();
        // With a zero FRN budget every cycle, the drained station must
        // retry forever and never eject its ring-bound force.
        for c in 0..80u64 {
            let mut budget = 0u32;
            pe.step(c, &dp, &he, &hc, &mut ej, &mut budget);
        }
        assert!(ej.is_empty(), "ring ejection must stall at budget 0");
        assert!(!pe.is_idle(), "station stays occupied while stalled");
        // Restoring a budget of 1 releases it on the next cycle.
        let mut budget = 1u32;
        pe.step(80, &dp, &he, &hc, &mut ej, &mut budget);
        assert_eq!(ej.len(), 1);
        assert_eq!(budget, 0, "ring ejection consumes the budget");
        assert!(matches!(ej[0], Ejection::Ring(..)));
    }

    #[test]
    fn planned_dispatch_matches_scalar_bitwise() {
        let dp = dp();
        let (he, hc) = home(12);
        let mut soa = HomeSoa::new();
        soa.rebuild(&he, &hc);

        let entries = [nbr_at(0.45), nbr_at(0.12), nbr_at(0.93)];
        let mut scalar = Pe::new(3, 7, 4);
        let mut planned = Pe::new(3, 7, 4);
        for e in entries {
            scalar.dispatch(e);
            planned.dispatch_planned(e, &dp, &soa);
        }
        let (mut ej_s, mut ej_p) = (Vec::new(), Vec::new());
        for c in 0..200u64 {
            let mut bs = 1u32;
            let mut bp = 1u32;
            let rs = scalar.step(c, &dp, &he, &hc, &mut ej_s, &mut bs);
            let rp = planned.step(c, &dp, &he, &hc, &mut ej_p, &mut bp);
            assert_eq!(
                rs.map(|(s, f)| (s, f.map(f32::to_bits))),
                rp.map(|(s, f)| (s, f.map(f32::to_bits))),
                "cycle {c}: retire mismatch"
            );
            assert_eq!(bs, bp, "cycle {c}: budget mismatch");
            if scalar.is_idle() && planned.is_idle() {
                break;
            }
        }
        assert!(scalar.is_idle() && planned.is_idle());
        assert_eq!(ej_s.len(), ej_p.len());
        for (a, b) in ej_s.iter().zip(&ej_p) {
            assert_eq!(a, b);
        }
        assert_eq!(scalar.filter_stats.work, planned.filter_stats.work);
        assert_eq!(scalar.filter_stats.busy_cycles, planned.filter_stats.busy_cycles);
        assert_eq!(scalar.pe_stats.work, planned.pe_stats.work);
    }

    #[test]
    fn dispatch_requires_free_station() {
        let mut pe = Pe::new(1, 3, 4);
        assert!(pe.has_free_station());
        pe.dispatch(nbr_at(0.5));
        assert!(!pe.has_free_station());
    }
}
