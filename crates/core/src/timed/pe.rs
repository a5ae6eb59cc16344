//! The Processing Element: filter stations, pair arbiter, force pipeline
//! (paper §3.3, Fig. 6).
//!
//! A neighbour position arriving from the PRN is "dispatched to one of the
//! registers to pair with the positions from local PC being traversed
//! repeatedly". Each of the PE's filter stations holds one neighbour
//! position and streams the home cell's particles past it, one comparison
//! per cycle. Passing pairs are buffered per-station and arbitrated into
//! the force pipeline (one issue per cycle). A pair's force splits two
//! ways: the home component accumulates into the local FC, the neighbour
//! component is negated and accumulated in the station register; when the
//! station's scan is complete **and** its pairs have drained from the
//! pipeline, the accumulated neighbour force is ejected toward the FRN —
//! or discarded if no pair passed ("zero force is simply discarded rather
//! than returned", §5.4).

use crate::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_arith::fixed::FixVec3;
use fasda_md::element::Element;
use fasda_sim::{Activity, Cycle};

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

/// A filtered pair in flight toward / inside the force pipeline, as the
/// checkpoint writes it. The force-pipeline arithmetic is a pure function
/// of the pair, so the model evaluates it when the pair passes the filter
/// and the job carries the finished words through the latency pipe. In
/// the [`Pe`] a job is a reference to its station's scan-plan entry; this
/// struct is its serialized form.
#[derive(Clone, Copy, Debug)]
pub struct PipeJob {
    /// Station that produced the pair (for neighbour-force accumulation).
    pub station: u8,
    /// Home slot of the pair.
    pub home_slot: u16,
    /// Force on the home particle (the neighbour gets the negation).
    pub force: [f32; 3],
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

/// Stations per PE at most (the width of the station masks).
const LANES: usize = 32;

/// A station accumulator after one more pair: the neighbour takes the
/// negation of the home force.
#[inline(always)]
fn less(acc: [f32; 3], force: [f32; 3]) -> [f32; 3] {
    [acc[0] - force[0], acc[1] - force[1], acc[2] - force[2]]
}

/// One station's lane: the current run of its scan, its scan plan with
/// the issue cursor, the cycles its pending events fall on, and the
/// neighbour-force accumulator.
///
/// A run compares slot `cursor0` at cycle `from`, the next slot the next
/// cycle, and so on until the hit that fills the pair FIFO or the last
/// slot of the home cell. So the cycle every plan entry passes the filter
/// is a function of the run and the entry's slot ([`Lane::issuable`]),
/// and the FIFO is whatever has passed and is not yet issued.
#[derive(Clone, Debug, Default)]
#[repr(C)] // the run and cursors an issue reads, first
struct Lane {
    /// First cycle of the current run.
    from: Cycle,
    /// Retire cycle of the station's newest issued pair (0: none).
    last_ready: Cycle,
    /// Slot compared at `from`; the cursor itself while the station is
    /// parked or free.
    cursor0: u16,
    /// `plan[..head]` have been issued.
    head: u16,
    /// Pair-FIFO high-water mark (checkpointed) as of the last issue.
    high_water: u16,
    /// `acc0` is the accumulator before `plan[acc_from..]` (a restored
    /// station's plan need not hold its older pairs).
    acc_from: u16,
    /// The cycle of the station's next event: while it waits for its next
    /// pair, the first the arbiter can issue it (`Cycle::MAX`: no pair
    /// known yet); while it drains, the cycle its last pair retires.
    at: Cycle,
    acc0: [f32; 3],
    /// Neighbour force over the station's pairs: `acc0` minus their
    /// forces, in plan order.
    acc: [f32; 3],
    /// The scan plan (see [`Pe`]).
    plan: Vec<ScanHit>,
}

impl Lane {
    /// The slot of plan entry `i`.
    #[inline(always)]
    fn slot(&self, i: usize) -> Option<u16> {
        self.plan.get(i).map(|h| h.slot)
    }

    /// First cycle the arbiter can issue a pair at `slot`: the cycle after
    /// the run's filter passes it, or the run's first cycle for one that
    /// passed before the run.
    #[inline(always)]
    fn issuable(&self, slot: u16) -> Cycle {
        if slot < self.cursor0 {
            self.from
        } else {
            self.from + u64::from(slot - self.cursor0) + 1
        }
    }

    /// The slot of the pair that fills the FIFO of `depth` pairs under
    /// the current head, if it has passed the filter before `now`.
    #[inline(always)]
    fn filled(&self, depth: u16, now: Cycle) -> Option<u16> {
        let fill = self.slot(usize::from(self.head) + usize::from(depth) - 1)?;
        (self.issuable(fill) <= now).then_some(fill)
    }

    /// First cycle the run compares nothing: after the hit that fills the
    /// FIFO, or after the last slot of a `home_len`-slot cell (`from` when
    /// the run compares nothing).
    #[inline]
    fn stop(&self, depth: u16, home_len: u16) -> Cycle {
        let fill = usize::from(self.head) + usize::from(depth) - 1;
        let end = self.slot(fill).map_or(home_len, |s| (s + 1).min(home_len));
        self.from + u64::from(end.saturating_sub(self.cursor0))
    }

    /// Comparisons of the current run before cycle `now`.
    #[inline]
    fn compared(&self, now: Cycle, depth: u16, home_len: u16) -> u64 {
        self.stop(depth, home_len).min(now).saturating_sub(self.from)
    }

    /// The cycle of the scan's last comparison (the run's first cycle if
    /// it compares nothing), once no pair is left to fill the FIFO.
    #[inline]
    fn end(&self, depth: u16, home_len: u16) -> Cycle {
        self.stop(depth, home_len).max(self.from + 1) - 1
    }
}

/// A Processing Element: `filters_per_pe` stations + one force pipeline.
///
/// **Pairs by reference.** A station's pair FIFO is a range of its scan
/// plan, and the pipeline a ring of station numbers with retire cycles,
/// whose pairs are the plan entries just below the station's issue
/// cursor. A planned station's plan is the fused kernel's whole scan; a
/// scalar station appends each pair as it passes the filter.
///
/// **A planned pair costs one event: its issue.** A running planned
/// station's scan is a function of the clock ([`Lane`]): the arbiter reads
/// off the plan whether the FIFO front has passed the filter, whether the
/// FIFO filled (the scan stalled there; the pop restarts it) and how full
/// it got. Each pair's force is applied when it leaves the kernel (or the
/// scalar filter): the home force to the FC — `FixAcc` adds are
/// order-free, so the FC holds the same bits wherever a step ends — and
/// its negation to the station accumulator, in plan order as a retire
/// port would. The ring keeps only retire cycles, from which the retire
/// stream, the busy intervals and each station's drain follow. So the PE
/// is visited ([`Pe::advance`]) only on a cycle its arbiter issues, a
/// waiting station's next pair arrives or a station drains, and — a
/// scalar station filters one comparison at a time — every cycle one
/// scans. [`Pe::hot`] says the PE has work next cycle; otherwise
/// [`Pe::next_event`] names the cycle.
///
/// A station not running yet — a scalar dispatch until the PE's next
/// visit, a restored station until its first — is *parked* on its
/// literal cursor (`cursor0`); the visit starts it.
///
/// **Activity by derivation.** A run's comparisons are its length up to
/// the clock; the pipeline's busy cycles the union of its pairs'
/// issue-to-retire intervals ([`Pe::filter_stats`], [`Pe::pe_stats`]).
#[derive(Clone, Debug, Default)]
#[repr(C)] // what a visit reads first, in the first two cache lines
pub struct Pe {
    /// Stations whose FIFO front the arbiter can issue at its next visit.
    ready: u32,
    /// Stations dispatched through the SoA batch kernels.
    planned: u32,
    /// Scalar stations comparing one home slot per cycle.
    scanning: u32,
    /// Occupied stations not started yet.
    parked: u32,
    /// Stations holding a neighbour entry.
    occupied: u32,
    /// Stations that drain at their lane's `at`.
    draining: u32,
    /// Finished stations with nothing left in flight: ejection candidates.
    drained: u32,
    stations: u8,
    /// Arbiter round-robin start.
    rr: u8,
    /// Pair-FIFO depth.
    depth: u16,
    latency: u16,
    /// Slots of the home cell the stations scan this force phase.
    home_len: u16,
    /// Earliest `at` of a waiting or draining station.
    next_at: Cycle,
    /// Lifetime issue count (checkpointed); the ring slot of the next.
    issued_total: u64,
    lanes: Box<[Lane]>,
    /// Ring of the last `pipe_mask + 1` issues, issue `i` at `i &
    /// pipe_mask`: `retire_cycle << 24 | plan index << 8 | station` (0:
    /// none), so retire cycles stay below 2^40. It holds the at most
    /// `latency` pairs in flight.
    pipe: Box<[u64]>,
    pipe_mask: u16,
    /// Issue cycle of the newest pair (checkpointed).
    last_issue: Option<Cycle>,
    /// Length of the union of the issued pairs' busy intervals, which
    /// ends the cycle after the newest pair retires.
    pipe_cycles: u64,
    /// Parked stations whose scan had finished when they were saved.
    parked_done: u32,
    /// Stations a restored snapshot says some pair has passed.
    had_pairs: u32,
    /// Closed occupied intervals; the open one starts at `occ_from`.
    occ_closed: u64,
    occ_from: Cycle,
    /// Comparisons of finished runs.
    compared: u64,
    /// Comparisons, busy cycles and retired pairs at [`Pe::reset_stats`].
    base_compared: u64,
    base_busy: u64,
    base_retired: u64,
    /// Neighbour entries, per station.
    entries: Vec<Option<NbrEntry>>,
}

impl Pe {
    /// Build a PE.
    pub fn new(filters: u32, pipe_latency: u32, pair_fifo_depth: usize) -> Self {
        assert!(filters >= 1, "need at least one filter station");
        assert!(filters as usize <= LANES, "station state is tracked in u32 bitmasks");
        assert!(pipe_latency >= 1, "pipeline latency must be at least 1 cycle");
        assert!(pipe_latency < 1 << 15, "pipeline ring cursors are 16 bits");
        assert!(pair_fifo_depth >= 1, "FIFO capacity must be positive");
        assert!(pair_fifo_depth < 1 << 15, "FIFO cursors are 16 bits");
        // At most `latency` pairs are in flight: one issue per cycle.
        let ring = (pipe_latency as usize).next_power_of_two();
        Pe {
            stations: filters as u8,
            depth: pair_fifo_depth as u16,
            latency: pipe_latency as u16,
            next_at: Cycle::MAX,
            pipe_mask: (ring - 1) as u16,
            pipe: vec![0; ring].into_boxed_slice(),
            lanes: (0..filters).map(|_| Lane::default()).collect(),
            entries: vec![None; filters as usize],
            ..Pe::default()
        }
    }

    /// Mask of all stations.
    #[inline]
    fn all(&self) -> u32 {
        (u64::MAX >> (64 - u32::from(self.stations))) as u32
    }

    /// True if some station is free to accept a neighbour entry.
    #[inline]
    pub fn has_free_station(&self) -> bool {
        self.occupied != self.all()
    }

    /// True when the PE holds no work at all. (A station is ejected only
    /// after its last pair retired, so no pair is in flight either.)
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.occupied == 0
    }

    /// Stations stalled on a full pair FIFO at clock `now`. Only tests
    /// call it: `golden_tick` pins the per-step census of the production
    /// tick.
    pub fn stalled_mask(&self, now: Cycle) -> u32 {
        (0..usize::from(self.stations))
            .filter(|&si| {
                let lane = &self.lanes[si];
                self.occupied & 1 << si != 0
                    && self.hit_at(si, now) - usize::from(lane.head) == usize::from(self.depth)
            })
            .fold(0, |m, si| m | 1 << si)
    }

    /// Stations whose scan and pairs are finished but which have not
    /// been ejected yet. Only tests call it, as [`Self::stalled_mask`].
    pub fn drained_mask(&self) -> u32 {
        self.drained
    }

    /// Filter activity (capacity = stations) through cycle `now − 1`.
    pub fn filter_stats(&self, now: Cycle) -> Activity {
        let mut a = Activity::with_capacity(u64::from(self.stations));
        a.work = self.comparisons(now) - self.base_compared;
        a.busy_cycles = self.occ_closed + u64::from(self.occupied != 0) * now.saturating_sub(self.occ_from);
        a
    }

    /// Force-pipeline activity (capacity = 1/cycle) through cycle
    /// `now − 1`.
    pub fn pe_stats(&self, now: Cycle) -> Activity {
        let mut a = Activity::with_capacity(1);
        a.work = self.retired(now) - self.base_retired;
        a.busy_cycles = self.busy(now) - self.base_busy;
        a
    }

    /// Zero both activity counters; cycle `now` is the first the next
    /// window counts. A restored PE counts from here too.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.occ_closed = 0;
        self.occ_from = now;
        self.base_compared = self.comparisons(now);
        self.base_busy = self.busy(now);
        self.base_retired = self.retired(now);
    }

    /// Comparisons before cycle `now`, lifetime.
    fn comparisons(&self, now: Cycle) -> u64 {
        let started = self.occupied & !self.parked;
        let open: u64 = set_bits(u64::from(started))
            .map(|si| self.lanes[si].compared(now, self.depth, self.home_len))
            .sum();
        self.compared + open
    }

    /// Pipeline busy cycles before cycle `now`, lifetime.
    fn busy(&self, now: Cycle) -> u64 {
        self.pipe_cycles - self.pipe_end().saturating_sub(now)
    }

    /// The cycle after the newest pair retires (0 before any issue).
    #[inline]
    fn pipe_end(&self) -> Cycle {
        self.last_issue.map_or(0, |c| c + u64::from(self.latency) + 1)
    }

    /// Pairs retired before cycle `now`, lifetime.
    fn retired(&self, now: Cycle) -> u64 {
        let mut in_flight = 0;
        self.for_each_in_flight(now, |_, _, _| in_flight += 1);
        self.issued_total - in_flight
    }

    /// Close the open occupied interval at `upto` (exclusive): called
    /// before the occupied set changes, with the first cycle the change
    /// applies to.
    #[inline]
    fn close_occupancy(&mut self, upto: Cycle) {
        debug_assert!(upto >= self.occ_from, "occupied intervals run forward");
        self.occ_closed += u64::from(self.occupied != 0) * (upto - self.occ_from);
        self.occ_from = upto;
    }

    /// Reset the lowest free station around a fresh entry, parked on its
    /// first slot.
    fn load_station(&mut self, cycle: Cycle, entry: NbrEntry) -> usize {
        let free = !self.occupied & self.all();
        assert!(free != 0, "dispatch requires a free station");
        let si = free.trailing_zeros() as usize;
        debug_assert!(
            self.entries[si].is_none() && self.lanes[si].plan.is_empty(),
            "station must be drained before reload"
        );
        self.close_occupancy(cycle);
        self.entries[si] = Some(entry);
        let lane = &mut self.lanes[si];
        lane.cursor0 = entry.scan_from;
        (lane.head, lane.acc_from, lane.last_ready) = (0, 0, 0);
        lane.at = Cycle::MAX;
        (lane.acc, lane.acc0) = ([0.0; 3], [0.0; 3]);
        let bit = 1u32 << si;
        self.had_pairs &= !bit;
        self.occupied |= bit;
        si
    }

    /// Load a neighbour entry into a free station at `cycle`; the PE's
    /// visit on this cycle starts its scan. Panics if none free — guard
    /// with [`Pe::has_free_station`].
    pub fn dispatch(&mut self, cycle: Cycle, entry: NbrEntry) {
        let si = self.load_station(cycle, entry);
        self.parked |= 1 << si;
    }

    /// [`Pe::dispatch`] through the fused SoA kernel: run the station's
    /// whole scan now ([`ForceDatapath::fused_scan_into`]) into its plan,
    /// hand each pair's home force to `into(home_slot, force)`, the FC
    /// write port, and take its reaction into the station's accumulator,
    /// in plan order, and start the scan on this cycle. Cycle-for-cycle and
    /// bit-for-bit the scalar path: the station still passes one home
    /// slot per cycle, stalls on a full FIFO and offers the same pairs on
    /// the same cycles; only the arithmetic is hoisted out of the loop.
    pub fn dispatch_planned(
        &mut self,
        cycle: Cycle,
        entry: NbrEntry,
        dp: &ForceDatapath,
        home: &HomeSoa,
        mut into: impl FnMut(u16, [f32; 3]),
    ) {
        let si = self.load_station(cycle, entry);
        let lane = &mut self.lanes[si];
        dp.fused_scan_into(home, entry.concat, entry.elem, entry.scan_from, &mut lane.plan);
        for h in &lane.plan {
            into(h.slot, h.force);
            lane.acc = less(lane.acc, h.force);
        }
        self.planned |= 1u32 << si;
        self.home_len = home.len() as u16;
        self.start(si, cycle);
    }

    /// Start station `si`'s run at `cycle` from its parked cursor: a
    /// restored station may already be stalled or finished, and hold
    /// pairs or be left with only in-flight ones.
    fn start(&mut self, si: usize, cycle: Cycle) {
        let bit = 1u32 << si;
        self.parked &= !bit;
        self.parked_done &= !bit;
        let (depth, home_len) = (self.depth, self.home_len);
        let lane = &mut self.lanes[si];
        lane.from = cycle;
        let done = lane.cursor0 >= home_len;
        if self.planned & bit == 0 && !done && lane.filled(depth, cycle).is_none() {
            self.scanning |= bit;
        }
        match lane.slot(usize::from(lane.head)) {
            Some(slot) => {
                let at = lane.issuable(slot);
                if at <= cycle {
                    self.ready |= bit;
                } else {
                    lane.at = at;
                    self.next_at = self.next_at.min(at);
                }
            }
            None if self.planned & bit != 0 || done => {
                let at = lane.end(depth, home_len).max(lane.last_ready);
                self.settle(si, at, cycle);
            }
            None => {}
        }
    }

    /// Station `si` drains at cycle `at`; the PE is at `cycle`.
    #[inline]
    fn settle(&mut self, si: usize, at: Cycle, cycle: Cycle) {
        let bit = 1u32 << si;
        if at <= cycle {
            self.drained |= bit;
        } else {
            self.draining |= bit;
            self.lanes[si].at = at;
            self.next_at = self.next_at.min(at);
        }
    }

    /// True when the PE has work on the next cycle: a pair to issue, a
    /// scalar station scanning, or a station to start.
    #[inline]
    pub fn hot(&self) -> bool {
        self.ready | self.scanning | self.parked != 0
    }

    /// The next cycle a PE that is not [`Pe::hot`] has an event on — a
    /// waiting station's pair arrives, or a station drains —
    /// `Cycle::MAX` if none.
    #[inline]
    pub fn next_event(&self) -> Cycle {
        self.next_at
    }

    /// One visit at `cycle`, in the hardware's stage order, against a
    /// home cell of `home_len` slots: start parked stations, mark the
    /// stations that drain on this cycle, take in the pairs that arrived
    /// since the last visit and issue one. A PE with a scalar station
    /// scanning then compares ([`Pe::scan`]).
    #[inline]
    pub fn advance(&mut self, cycle: Cycle, home_len: u16) {
        self.home_len = home_len;
        if self.parked != 0 {
            for si in set_bits(u64::from(self.parked)) {
                self.start(si, cycle);
            }
        }
        if self.next_at <= cycle {
            self.next_at = Cycle::MAX;
            let waiting = self.occupied & self.planned & !self.ready & !self.drained;
            for si in set_bits(u64::from(self.draining | waiting)) {
                let (bit, lane) = (1 << si, &mut self.lanes[si]);
                if lane.at > cycle {
                    self.next_at = self.next_at.min(lane.at);
                } else if self.draining & bit != 0 {
                    (self.draining, self.drained, lane.at) = (self.draining & !bit, self.drained | bit, Cycle::MAX);
                } else {
                    self.ready |= bit;
                }
            }
        }
        if self.ready != 0 {
            self.issue(cycle);
        }
    }

    /// True while a scalar station compares one slot per cycle.
    #[inline]
    pub fn scans(&self) -> bool {
        self.scanning != 0
    }

    /// The scalar stations' comparisons at `cycle`, after
    /// [`Pe::advance`], against the home cell's snapshot (elements,
    /// concatenated home coordinates): a pair that passes has its home
    /// force handed to `into(home_slot, force)`, the FC write port, as a
    /// planned station's pairs were at dispatch.
    pub fn scan(
        &mut self,
        cycle: Cycle,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
        mut into: impl FnMut(u16, [f32; 3]),
    ) {
        for si in set_bits(u64::from(self.scanning)) {
            self.compare(si, cycle, dp, home_elem, home_concat, &mut into);
        }
    }

    /// Issue one pair into the pipeline at `cycle`: round-robin from `rr`
    /// is the lowest ready station at or above it, else the lowest
    /// overall. A station the pop unstalls restarts its scan on this
    /// cycle. Only the plan's slots are read: the pair's force is in the
    /// FC and the station's accumulator already.
    #[inline(always)]
    fn issue(&mut self, cycle: Cycle) {
        debug_assert!(self.last_issue.is_none_or(|l| l < cycle), "one issue per cycle");
        let ahead = self.ready >> self.rr;
        let si = if ahead != 0 {
            self.rr as usize + ahead.trailing_zeros() as usize
        } else {
            self.ready.trailing_zeros() as usize
        };
        let bit = 1u32 << si;
        let (depth, home_len) = (self.depth, self.home_len);
        let ready = cycle + u64::from(self.latency);
        let lane = &mut self.lanes[si];
        let head = usize::from(lane.head);
        // The FIFO only grows between pops: its high-water mark is its
        // length just before one.
        while lane.high_water < depth
            && lane
                .slot(head + usize::from(lane.high_water))
                .is_some_and(|s| lane.issuable(s) <= cycle)
        {
            lane.high_water += 1;
        }
        let stalled = lane.filled(depth, cycle);
        lane.head += 1;
        lane.last_ready = ready;
        if let Some(slot) = stalled {
            let cursor = slot + 1;
            if cursor < home_len {
                self.compared += u64::from(cursor.saturating_sub(lane.cursor0));
                (lane.from, lane.cursor0) = (cycle, cursor);
                self.scanning |= bit & !self.planned;
            }
        }
        match lane.slot(head + 1) {
            Some(slot) => {
                let at = lane.issuable(slot);
                if at > cycle + 1 {
                    self.ready &= !bit;
                    lane.at = at;
                    self.next_at = self.next_at.min(at);
                }
            }
            None => {
                self.ready &= !bit;
                lane.at = Cycle::MAX;
                if self.scanning & bit == 0 {
                    let at = lane.end(depth, home_len).max(ready);
                    self.settle(si, at, cycle);
                }
            }
        }
        debug_assert!(ready >> 40 == 0, "retire cycles are 40 bits");
        self.pipe[(self.issued_total & u64::from(self.pipe_mask)) as usize] = ready << 24 | (head as u64) << 8 | si as u64;
        self.pipe_cycles += ready + 1 - cycle.max(self.pipe_end());
        self.last_issue = Some(cycle);
        self.issued_total += 1;
        self.rr = if si + 1 == self.stations as usize { 0 } else { si as u8 + 1 };
    }

    /// One comparison of scanning scalar station `si` at `cycle`.
    #[inline]
    fn compare(
        &mut self,
        si: usize,
        cycle: Cycle,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
        into: &mut impl FnMut(u16, [f32; 3]),
    ) {
        let bit = 1u32 << si;
        let lane = &mut self.lanes[si];
        let cur = lane.cursor0 + (cycle - lane.from) as u16;
        let entry = self.entries[si].expect("occupied bit tracks entries");
        let hi = usize::from(cur);
        if let Some(pair) = dp.filter(home_concat[hi], entry.concat) {
            let force = dp.force(home_elem[hi], entry.elem, pair);
            into(cur, force);
            lane.acc = less(lane.acc, force);
            lane.plan.push(ScanHit { slot: cur, force });
            self.ready |= bit;
            if lane.plan.len() - usize::from(lane.head) == usize::from(self.depth) {
                self.scanning &= !bit; // stalled until the arbiter pops
            }
        }
        if usize::from(cur) + 1 >= home_elem.len() {
            self.scanning &= !bit;
            if usize::from(lane.head) == lane.plan.len() {
                let at = cycle.max(lane.last_ready);
                self.settle(si, at, cycle);
            }
        }
    }

    /// True when some station is finished with nothing in flight.
    #[inline]
    pub fn has_drained(&self) -> bool {
        self.drained != 0
    }

    /// Eject at most one drained station at `cycle`, lowest index first.
    /// `ring_eject_budget` models the SPE's single arbitrated injection
    /// path into the FRN (§4.5): a station whose force must travel the
    /// force ring can only eject while the budget is positive (and uses
    /// it up); local reactions and zero-force discards are port-free.
    pub fn eject(&mut self, cycle: Cycle, ring_eject_budget: &mut u32) -> Option<Ejection> {
        for si in set_bits(u64::from(self.drained)) {
            let bit = 1u32 << si;
            let entry = self.entries[si].expect("drained implies occupied");
            let lane = &self.lanes[si];
            let had_pairs = self.had_pairs & bit != 0 || !lane.plan.is_empty();
            let needs_ring = matches!(entry.kind, NbrKind::Ring { .. }) && had_pairs;
            if needs_ring && *ring_eject_budget == 0 {
                continue; // retry next cycle
            }
            debug_assert!(lane.last_ready <= cycle, "in-flight pairs outlive the station");
            self.close_occupancy(cycle + 1);
            let (depth, home_len) = (self.depth, self.home_len);
            let lane = &mut self.lanes[si];
            let ran = lane.compared(cycle + 1, depth, home_len);
            self.compared += ran;
            // A free station keeps the cursor it finished on.
            lane.cursor0 += ran as u16;
            // The plan dies with the entry, so a checkpoint of a free
            // station carries none (it is empty on either engine).
            lane.plan.clear();
            lane.head = 0;
            // ... and its accumulator and pair flag, as the register does.
            let acc = lane.acc;
            (lane.acc0, lane.acc_from) = (acc, 0);
            self.had_pairs |= u32::from(had_pairs) << si;
            self.entries[si] = None;
            self.occupied &= !bit;
            self.planned &= !bit;
            self.drained &= !bit;
            return Some(match entry.kind {
                NbrKind::Internal { slot } if had_pairs => Ejection::Local { slot, force: acc },
                NbrKind::Internal { .. } => Ejection::Discard {
                    origin: ChipCoord::new(0, 0, 0),
                    remote: false,
                },
                NbrKind::Ring {
                    owner_chip,
                    owner_cbb,
                    slot,
                    remote,
                } if had_pairs => {
                    *ring_eject_budget -= 1;
                    Ejection::Ring(
                        FrcFlit {
                            owner_chip,
                            owner_cbb,
                            slot,
                            force: acc,
                        },
                        remote,
                    )
                }
                NbrKind::Ring { owner_chip, remote, .. } => Ejection::Discard {
                    origin: owner_chip,
                    remote,
                },
            });
        }
        None
    }

    /// The pairs in the pipeline at clock `now`, oldest first: `f(station,
    /// retire cycle, pair)`.
    fn for_each_in_flight(&self, now: Cycle, mut f: impl FnMut(usize, Cycle, &ScanHit)) {
        for i in 0..=u64::from(self.pipe_mask) {
            let e = self.pipe[((self.issued_total + i) & u64::from(self.pipe_mask)) as usize];
            if e != 0 && e >> 24 >= now {
                let si = (e & 0xff) as usize;
                f(si, e >> 24, &self.lanes[si].plan[(e >> 8 & 0xffff) as usize]);
            }
        }
    }

    /// The pairs not retired by clock `now` — in the pipeline, buffered,
    /// or still to pass the filter — whose forces the FC already holds:
    /// `f(home_slot, force)`.
    pub(super) fn for_each_unretired(&self, now: Cycle, mut f: impl FnMut(u16, [f32; 3])) {
        let mut piped = [0u16; LANES];
        self.for_each_in_flight(now, |si, _, _| piped[si] += 1);
        for si in set_bits(u64::from(self.occupied)) {
            let lane = &self.lanes[si];
            for h in &lane.plan[usize::from(lane.head - piped[si])..] {
                f(h.slot, h.force);
            }
        }
    }

    /// One whole cycle of a lone PE: its visit, then its eject stage.
    /// Returns the pair whose force retires this cycle `(home_slot,
    /// force_on_home)`, if any, and appends any ejection. The chip visits
    /// its PEs the same way (tests, reference comparisons).
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
        let mut retired = None;
        self.for_each_in_flight(cycle, |_, ready, h| retired = retired.or((ready == cycle).then_some((h.slot, h.force))));
        self.advance(cycle, home_elem.len() as u16);
        self.scan(cycle, dp, home_elem, home_concat, |_, _| {});
        if self.has_drained() {
            ejections.extend(self.eject(cycle, ring_eject_budget));
        }
        retired
    }

    /// Plan entries of station `si` that have passed the filter before
    /// `now` (a parked or free station's: those below its cursor).
    fn hit_at(&self, si: usize, now: Cycle) -> usize {
        let lane = &self.lanes[si];
        if (self.occupied & !self.parked) & 1 << si == 0 {
            return lane.plan.partition_point(|h| h.slot < lane.cursor0);
        }
        let passed = lane.plan.partition_point(|h| lane.issuable(h.slot) <= now);
        passed.min(usize::from(lane.head) + usize::from(self.depth))
    }

    /// Checkpointing: station count, pipeline latency, and FIFO depths are
    /// configuration; the station/pipeline contents, scan cursors and
    /// masks are state. The byte layout predates the derived lanes and is
    /// kept, materialised at clock `now` (the next cycle the PE is visited
    /// at): each station writes its entry, in-flight count, pair flag,
    /// accumulator over its *retired* pairs (recomputed in plan order),
    /// pair FIFO (the passed, unissued pairs, then the high-water mark)
    /// and — planned stations only — its plan and plan cursor; the
    /// pipeline writes each in-flight pair with its retire cycle; then the
    /// cursors, the "slot of the next planned hit" array and the masks.
    /// The activity counters are *not* captured — the driver resets every
    /// utilization counter at the start of a measurement window, which is
    /// where checkpoints are cut.
    pub fn snapshot_at(&self, now: Cycle, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        let n = usize::from(self.stations);
        let job = |si: usize, h: &ScanHit| PipeJob {
            station: si as u8,
            home_slot: h.slot,
            force: h.force,
        };
        let mut piped = [0u16; LANES];
        self.for_each_in_flight(now, |si, _, _| piped[si] += 1);
        let mut hits = [0usize; LANES];
        w.put_usize(n);
        for si in 0..n {
            let lane = &self.lanes[si];
            let plan = &lane.plan;
            let (head, hit) = (usize::from(lane.head), self.hit_at(si, now));
            let tail = head - usize::from(piped[si]);
            hits[si] = hit;
            self.entries[si].save(w);
            w.put_u32((hit - tail) as u32);
            w.put_bool(self.had_pairs & 1 << si != 0 || hit > 0);
            plan[usize::from(lane.acc_from)..tail].iter().fold(lane.acc0, |a, h| less(a, h.force)).save(w);
            w.put_usize(hit - head);
            for h in &plan[head..hit] {
                job(si, h).save(w);
            }
            w.put_usize(usize::from(lane.high_water).max(hit - head));
            if self.planned & 1 << si != 0 {
                plan.save(w);
                w.put_usize(hit);
            } else {
                w.put_usize(0);
                w.put_usize(0);
            }
        }
        w.put_usize(usize::from(piped.iter().sum::<u16>()));
        self.for_each_in_flight(now, |si, ready, h| {
            w.put_u64(ready);
            job(si, h).save(w);
        });
        self.last_issue.save(w);
        w.put_u64(self.issued_total);
        w.put_usize(usize::from(self.rr));
        let started = self.occupied & !self.parked;
        let lanes = self.lanes.iter().enumerate();
        let ran = |si: usize, l: &Lane| (started & 1 << si != 0).then(|| l.compared(now, self.depth, self.home_len));
        let cursors: Vec<u16> = lanes.clone().map(|(si, l)| l.cursor0 + ran(si, l).unwrap_or(0) as u16).collect();
        cursors.save(w);
        let live = |si: usize| self.occupied & self.planned & 1 << si != 0;
        let next_hit: Vec<u16> = lanes.map(|(si, l)| l.plan.get(hits[si]).filter(|_| live(si)).map_or(u16::MAX, |h| h.slot)).collect();
        next_hit.save(w);
        let mask = |f: &dyn Fn(usize) -> bool| (0..n).filter(|&si| f(si)).fold(0u32, |m, si| m | 1 << si);
        let done = mask(&|si| match started & 1 << si != 0 {
            true => cursors[si] >= self.home_len,
            false => self.parked_done & 1 << si != 0,
        });
        let buffered = |si: usize| hits[si] - usize::from(self.lanes[si].head);
        w.put_u32(self.occupied);
        w.put_u32(self.planned);
        w.put_u32(done);
        w.put_u32(mask(&|si| buffered(si) == usize::from(self.depth)));
        w.put_u32(mask(&|si| buffered(si) > 0));
    }

    /// Restore what [`Pe::snapshot_at`] wrote. Every occupied station
    /// comes back parked on its cursor, its accumulator holding all its
    /// pairs; a scalar station's plan is rebuilt from its in-flight and
    /// buffered pairs. The caller adds the unretired pairs' forces to the
    /// FC ([`Pe::for_each_unretired`]), whose snapshot left them out.
    /// Follow with [`Pe::reset_stats`].
    pub fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        struct Saved {
            entry: Option<NbrEntry>,
            in_flight: u32,
            had_pairs: bool,
            acc: [f32; 3],
            fifo: Vec<PipeJob>,
            high_water: usize,
            plan: Vec<ScanHit>,
            plan_next: usize,
        }
        let n = usize::from(self.stations);
        let count = r.get_usize()?;
        if count != n {
            return Err(r.malformed(format!(
                "slice length mismatch: snapshot has {count}, structure has {n}"
            )));
        }
        let mut saved = Vec::with_capacity(n);
        for _ in 0..n {
            let s = Saved {
                entry: Persist::load(r)?,
                in_flight: r.get_u32()?,
                had_pairs: r.get_bool()?,
                acc: Persist::load(r)?,
                fifo: Persist::load(r)?,
                high_water: r.get_usize()?,
                plan: Persist::load(r)?,
                plan_next: r.get_usize()?,
            };
            if s.fifo.len() > usize::from(self.depth) {
                return Err(r.malformed(format!(
                    "FIFO occupancy {} exceeds capacity {}",
                    s.fifo.len(),
                    self.depth
                )));
            }
            if s.plan_next > s.plan.len() {
                return Err(r.malformed("plan cursor past the end of the plan"));
            }
            if s.high_water > usize::from(u16::MAX) {
                return Err(r.malformed("FIFO high-water mark out of range"));
            }
            saved.push(s);
        }
        let pipe: Vec<(Cycle, PipeJob)> = Persist::load(r)?;
        let last_issue: Option<Cycle> = Persist::load(r)?;
        let issued_total = r.get_u64()?;
        let rr = r.get_usize()?;
        let cursors: Vec<u16> = Persist::load(r)?;
        let next_hit: Vec<u16> = Persist::load(r)?;
        if cursors.len() != n || next_hit.len() != n {
            return Err(r.malformed("scan-control array length disagrees with station count"));
        }
        if rr >= n.max(1) {
            return Err(r.malformed("round-robin station cursor out of range"));
        }
        let occupied = r.get_u32()?;
        let planned = r.get_u32()?;
        let done = r.get_u32()?;
        let fifo_full = r.get_u32()?;
        let fifo_nonempty = r.get_u32()?;
        let all = self.all();
        let masks = occupied | planned | done | fifo_full | fifo_nonempty;
        if masks & !all != 0 || (planned | done) & !occupied != 0 {
            return Err(r.malformed("station masks are inconsistent with the station count"));
        }
        if pipe.len() > usize::from(self.latency)
            || pipe.windows(2).any(|p| p[0].0 >= p[1].0)
            || pipe.last().is_some_and(|p| p.0 - pipe[0].0 >= u64::from(self.latency))
            || pipe.last().is_some_and(|p| p.0 >> 40 != 0)
        {
            return Err(r.malformed("force pipeline holds more than its latency of pairs"));
        }
        let mut piped = [0u16; LANES];
        for (_, job) in &pipe {
            match piped.get_mut(usize::from(job.station)).filter(|_| usize::from(job.station) < n) {
                Some(c) => *c += 1,
                None => return Err(r.malformed("pipeline pair from a station out of range")),
            }
        }
        for (si, s) in saved.iter().enumerate() {
            let bit = 1u32 << si;
            if (occupied & bit != 0) != s.entry.is_some()
                || (fifo_nonempty & bit != 0) == s.fifo.is_empty()
                || (fifo_full & bit != 0) != (s.fifo.len() == usize::from(self.depth))
            {
                return Err(r.malformed("station mask disagrees with station contents"));
            }
            if s.in_flight as usize != s.fifo.len() + usize::from(piped[si]) {
                return Err(r.malformed("station in-flight count disagrees with its pairs"));
            }
        }

        // Rebuild each plan and its cursors: a planned station keeps its
        // plan, and its pairs must be the entries just below the cursor;
        // a scalar station's plan is its pairs, oldest first.
        for (si, s) in saved.into_iter().enumerate() {
            let bit = 1u32 << si;
            let ours = pipe.iter().filter(|(_, j)| usize::from(j.station) == si).map(|(_, j)| j);
            let pairs: Vec<ScanHit> = ours
                .chain(&s.fifo)
                .map(|j| ScanHit {
                    slot: j.home_slot,
                    force: j.force,
                })
                .collect();
            let lane = &mut self.lanes[si];
            let plan = &mut lane.plan;
            plan.clear();
            let hit = if planned & bit != 0 {
                let start = s.plan_next.checked_sub(pairs.len());
                let agrees = start.is_some_and(|a| {
                    s.plan[a..s.plan_next].iter().zip(&pairs).all(|(p, q)| {
                        p.slot == q.slot && p.force.map(f32::to_bits) == q.force.map(f32::to_bits)
                    })
                });
                if !agrees {
                    return Err(r.malformed("planned station's pairs disagree with its plan"));
                }
                plan.extend_from_slice(&s.plan);
                s.plan_next
            } else if s.entry.is_some() {
                plan.extend_from_slice(&pairs);
                pairs.len()
            } else {
                // A free station may carry a stale plan from an older
                // writer; its pairs are none.
                0
            };
            let hit = u16::try_from(hit).map_err(|_| r.malformed("scan plan longer than a cell"))?;
            let buffered = s.fifo.len() as u16;
            let tail = (hit.checked_sub(buffered + piped[si])).ok_or_else(|| r.malformed("a free station holds pairs"))?;
            lane.cursor0 = cursors[si];
            // The pairs that passed are the plan below the cursor.
            if lane.plan.windows(2).any(|p| p[0].slot >= p[1].slot) || lane.plan.partition_point(|h| h.slot < lane.cursor0) != usize::from(hit) {
                return Err(r.malformed("station's pairs disagree with its scan cursor"));
            }
            lane.head = hit - buffered;
            lane.high_water = s.high_water as u16;
            (lane.acc0, lane.acc_from) = (s.acc, tail);
            lane.acc = lane.plan[usize::from(tail)..].iter().fold(s.acc, |a, h| less(a, h.force));
            (lane.at, lane.last_ready) = (Cycle::MAX, 0);
            self.entries[si] = s.entry;
            self.had_pairs = self.had_pairs & !bit | u32::from(s.had_pairs) << si;
        }
        if pipe.len() as u64 > issued_total || pipe.last().is_some_and(|p| Some(p.0) != last_issue.map(|c| c + u64::from(self.latency))) {
            return Err(r.malformed("force pipeline disagrees with its last issue"));
        }
        self.pipe.fill(0);
        let first = issued_total - pipe.len() as u64;
        let mut next: Vec<u64> = self.lanes.iter().zip(piped).map(|(l, n)| u64::from(l.head - n)).collect();
        for (i, (ready, job)) in pipe.iter().enumerate() {
            let si = usize::from(job.station);
            self.pipe[((first + i as u64) & u64::from(self.pipe_mask)) as usize] = ready << 24 | next[si] << 8 | si as u64;
            (self.lanes[si].last_ready, next[si]) = (*ready, next[si] + 1);
        }
        self.last_issue = last_issue;
        self.issued_total = issued_total;
        self.pipe_cycles = self.pipe_end();
        self.rr = rr as u8;
        self.occupied = occupied;
        self.planned = planned;
        self.parked = occupied;
        self.parked_done = done;
        (self.ready, self.scanning, self.draining, self.drained) = (0, 0, 0, 0);
        self.next_at = Cycle::MAX;
        Ok(())
    }
}

fasda_ckpt::persist_enum!(NbrKind {
    0 => Ring { owner_chip, owner_cbb, slot, remote },
    1 => Internal { slot },
});

fasda_ckpt::persist_struct!(NbrEntry { concat, elem, scan_from, kind });

fasda_ckpt::persist_struct!(PipeJob { station, home_slot, force });

fasda_ckpt::persist_struct!(ScanHit { slot, force });

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
        pe.dispatch(0, nbr_at(0.45));
        let mut ej = Vec::new();
        let mut retired = Vec::new();
        for c in 0..60u64 {
            // The SPE refreshes the FRN injection budget each cycle
            // (mirrors the per-cycle recreation in the chip's eject
            // stage); keep it a named binding so the &mut actually refers
            // to this cycle's budget rather than a fresh temporary per
            // call site.
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
        pe.dispatch(
            0,
            NbrEntry {
                concat: ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.99, 0.5, 0.5)),
                elem: Element::Na,
                scan_from: 0,
                kind: NbrKind::Ring {
                    owner_chip: ChipCoord::new(1, 0, 0),
                    owner_cbb: 0,
                    slot: 0,
                    remote: true,
                },
            },
        );
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
        pe.dispatch(
            0,
            NbrEntry {
                concat: hc[2],
                elem: Element::Na,
                scan_from: 3, // i = 2, scan j in 3..5
                kind: NbrKind::Internal { slot: 2 },
            },
        );
        let mut ej = Vec::new();
        let mut retired = Vec::new();
        let mut end = 0;
        for c in 0..40u64 {
            let mut budget = 1u32;
            if let Some(r) = pe.step(c, &dp, &he, &hc, &mut ej, &mut budget) {
                retired.push(r.0);
            }
            end = c + 1;
            if pe.is_idle() {
                break;
            }
        }
        assert!(retired.iter().all(|&s| s >= 3), "scanned slots {retired:?}");
        // comparisons = 2 (slots 3 and 4)
        assert_eq!(pe.filter_stats(end).work, 2);
    }

    #[test]
    fn initiation_interval_limits_throughput() {
        let dp = dp();
        // 6 stations all loaded with close neighbours → filters produce up
        // to 6 valid pairs/cycle but the pipeline retires at most 1/cycle.
        let (he, hc) = home(16);
        let mut pe = Pe::new(6, 10, 8);
        for _ in 0..6 {
            pe.dispatch(0, nbr_at(0.48));
        }
        let mut ej = Vec::new();
        let mut retired = 0;
        let mut end = 0;
        for c in 0..400u64 {
            let mut budget = 1u32;
            let r = pe.step(c, &dp, &he, &hc, &mut ej, &mut budget);
            retired += u64::from(r.is_some());
            end = c + 1;
            if pe.is_idle() {
                break;
            }
        }
        assert!(retired > 0);
        assert_eq!(pe.pe_stats(end).work, retired);
        assert_eq!(ej.len(), 6);
    }

    #[test]
    fn zero_budget_stalls_ring_ejection() {
        let dp = dp();
        let (he, hc) = home(4);
        let mut pe = Pe::new(1, 3, 8);
        pe.dispatch(0, nbr_at(0.45));
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
            scalar.dispatch(0, e);
            planned.dispatch_planned(0, e, &dp, &soa, |_, _| {});
        }
        let (mut ej_s, mut ej_p) = (Vec::new(), Vec::new());
        let mut end = 0;
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
            end = c + 1;
            if scalar.is_idle() && planned.is_idle() {
                break;
            }
        }
        assert!(scalar.is_idle() && planned.is_idle());
        assert_eq!(ej_s.len(), ej_p.len());
        for (a, b) in ej_s.iter().zip(&ej_p) {
            assert_eq!(a, b);
        }
        assert_eq!(scalar.filter_stats(end), planned.filter_stats(end));
        assert_eq!(scalar.pe_stats(end), planned.pe_stats(end));
    }

    #[test]
    fn dispatch_requires_free_station() {
        let mut pe = Pe::new(1, 3, 4);
        assert!(pe.has_free_station());
        pe.dispatch(0, nbr_at(0.5));
        assert!(!pe.has_free_station());
    }
}
