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
/// and the job carries the finished words through the latency pipe —
/// retiring is then a pure accumulation. In the [`Pe`] a job is a
/// reference to its station's scan-plan entry; this struct is its
/// serialized form.
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

/// Station lanes per PE (the width of the station masks).
const LANES: usize = 32;

/// The farthest ahead a filter event is reported ([`Pe::filter`],
/// [`Pe::arbitrate`]): one farther off is reported at this distance, and
/// again from there until it is within reach.
pub const FILTER_REACH: u16 = 127;

/// The stations' event stamps, one cache line: the due compare is one
/// vector load.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
struct Stamps([u16; LANES]);

/// One station's lane: its scan clock, its scan plan and the three
/// cursors that cut it into retired / in-pipeline / buffered / pending
/// pairs, and the neighbour-force accumulator the retire stage subtracts
/// into.
#[derive(Clone, Debug, Default)]
struct Lane {
    /// Running: `clock − cursor` at (re)start. Parked: the cursor itself.
    base: u16,
    /// `plan[..hit]` have passed the filter.
    hit: u16,
    /// `plan[head..hit]` is the pair FIFO (`head` issues next).
    head: u16,
    /// `plan[tail..head]` is in the force pipeline (`tail` retires next).
    tail: u16,
    /// Pair-FIFO high-water mark (checkpointed).
    high_water: u16,
    /// Accumulated neighbour force (the negated home forces).
    acc: [f32; 3],
    /// The scan plan (see [`Pe`]).
    plan: Vec<ScanHit>,
}

/// A Processing Element: `filters_per_pe` stations + one force pipeline,
/// stepped by the chip one **stage** at a time: retire, arbitrate,
/// filter, eject (see [`Pe::step`] for their order within a cycle). Each
/// stage has a predicate ([`Pe::retire_due`], [`Pe::has_buffered_pairs`],
/// [`Pe::filter_live`], [`Pe::has_drained`]) the chip keeps a set of PEs
/// by, so a stage visits only the PEs with an event in it.
///
/// **Pairs by reference.** A station's pair FIFO is not a queue of
/// copies: it is the range `plan[head..hit]` of the station's scan plan,
/// and the pipeline is a ring of station numbers (with their retire
/// clock) whose pairs are `plan[tail..head]`. A planned station's plan is
/// the fused kernel's whole scan; a scalar station appends each pair to
/// its plan as it passes the filter. Retiring touches the ring, the
/// station's [`Lane`], one plan entry and the FC.
///
/// **Event-timed stations.** A station compares one home slot per cycle,
/// so once its scan is running the slot it is on is a function of the
/// clock: `cursor = now − base`. The scan plan fixes every hit slot at
/// dispatch, hence the *cycle* of the station's next event — its next
/// hit, or the last comparison of its scan — is known in advance and is
/// kept in the station's `ev_at` stamp; one vector compare of the stamps
/// against the clock finds the stations whose event is due, and only
/// those are touched. (A scalar station, whose pairs are filtered one
/// comparison at a time, is due every cycle.)
///
/// The clock is the cycle truncated to 16 bits. That is sound because
/// stamps are only compared for equality, only while the station is
/// running, and a running station's event lies at most one scan
/// (`home_len ≤ u16::MAX` comparisons) ahead — it is recomputed whenever
/// the station (re)starts. It requires the filter stage to visit a PE on
/// the cycle of every event the PE reported ([`Pe::filter`]), which the
/// chip's filter wheel guarantees.
///
/// A station that is not running — free, freshly dispatched, stalled on a
/// full pair FIFO, scan finished, or just restored from a snapshot — is
/// *parked*: its `base` holds the literal cursor. Starting a station
/// rebases it on the current clock: the filter stage starts fresh
/// dispatches and restored stations, and the arbiter restarts a station
/// its pop unstalls, on that same cycle's clock — so a FIFO stall is a
/// shift of the station's stamps.
///
/// **Activity by interval.** The filter and pipeline counters change
/// only at events, so they are accounted per interval between events
/// (the running-station count and the occupied / pipeline-busy flags are
/// constant in between) rather than once per cycle; [`Pe::filter_stats`]
/// and [`Pe::pe_stats`] add the open interval.
#[derive(Clone, Debug)]
#[repr(C)] // what a stage visit reads first, in the first cache line
pub struct Pe {
    /// Cycle the pipeline's oldest pair retires (`Cycle::MAX` when empty).
    retire_at: Cycle,
    /// Stations holding a neighbour entry.
    occupied: u32,
    /// Stations dispatched through the SoA batch kernels.
    planned: u32,
    /// Occupied stations whose scan has finished.
    done: u32,
    /// Stations whose pair FIFO is full (their scan is stalled).
    fifo_full: u32,
    /// Stations whose pair FIFO holds at least one pair (arbiter input).
    fifo_nonempty: u32,
    /// Stations whose scan is advancing one slot per cycle.
    running: u32,
    /// Finished stations with nothing left in flight: ejection candidates.
    drained: u32,
    /// Stations some pair has passed since their entry was loaded.
    had_pairs: u32,
    /// Running planned stations whose event was beyond [`FILTER_REACH`]
    /// when last reported.
    far: u32,
    /// Stations.
    stations: u8,
    /// Arbiter round-robin start.
    rr: u8,
    /// Pair-FIFO depth.
    depth: u16,
    /// Pipeline ring: `ready_clock << 16 | station`, oldest at `pipe_head`.
    pipe_head: u16,
    pipe_len: u16,
    pipe_mask: u16,
    latency: u16,
    /// Per station, running planned: clock value of the next hit, or of
    /// the scan's last comparison when no hit is left.
    ev_at: Stamps,
    // What events write besides the header and a lane, next to it:
    /// Issue cycle of the newest pair, and the lifetime issue count
    /// (checkpointed pipeline state).
    last_issue: Option<Cycle>,
    issued_total: u64,
    /// Closed filter intervals; the open one starts at `filter_from`.
    filter_closed: Activity,
    filter_from: Cycle,
    /// Closed pipeline intervals; the open one (while a pair is in
    /// flight) starts at `pipe_from`. `pipe_to` ends the last closed one.
    pipe_closed: Activity,
    pipe_from: Cycle,
    pipe_to: Cycle,
    pipe: Box<[u32]>,
    lanes: [Lane; LANES],
    /// Neighbour entries, per station.
    entries: Vec<Option<NbrEntry>>,
}

impl Pe {
    /// Build a PE.
    pub fn new(filters: u32, pipe_latency: u32, pair_fifo_depth: usize) -> Self {
        assert!(filters >= 1, "need at least one filter station");
        assert!(filters as usize <= LANES, "station state is tracked in u32 bitmasks");
        assert!(pipe_latency >= 1, "pipeline latency must be at least 1 cycle");
        assert!(pipe_latency < 1 << 15, "retire clocks are 16 bits");
        assert!(pair_fifo_depth >= 1, "FIFO capacity must be positive");
        assert!(pair_fifo_depth < 1 << 15, "FIFO cursors are 16 bits");
        // At most `latency` pairs are in flight: one issue per cycle, and
        // a cycle's retire precedes its issue.
        let ring = (pipe_latency as usize).next_power_of_two();
        Pe {
            retire_at: Cycle::MAX,
            occupied: 0,
            planned: 0,
            done: 0,
            fifo_full: 0,
            fifo_nonempty: 0,
            running: 0,
            drained: 0,
            had_pairs: 0,
            far: 0,
            stations: filters as u8,
            rr: 0,
            depth: pair_fifo_depth as u16,
            pipe_head: 0,
            pipe_len: 0,
            pipe_mask: (ring - 1) as u16,
            latency: pipe_latency as u16,
            ev_at: Stamps([0; LANES]),
            pipe: vec![0; ring].into_boxed_slice(),
            lanes: std::array::from_fn(|_| Lane::default()),
            entries: vec![None; filters as usize],
            last_issue: None,
            issued_total: 0,
            filter_closed: Activity::with_capacity(filters as u64),
            filter_from: 0,
            pipe_closed: Activity::with_capacity(1),
            pipe_from: 0,
            pipe_to: 0,
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

    /// True when the PE holds no work at all.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pipe_len == 0 && self.occupied == 0
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

    /// Filter activity (capacity = stations) through cycle `now − 1`.
    pub fn filter_stats(&self, now: Cycle) -> Activity {
        let d = now.saturating_sub(self.filter_from);
        let mut a = self.filter_closed;
        a.work += u64::from(self.running.count_ones()) * d;
        a.busy_cycles += u64::from(self.occupied != 0) * d;
        a
    }

    /// Force-pipeline activity (capacity = 1/cycle) through cycle
    /// `now − 1`.
    pub fn pe_stats(&self, now: Cycle) -> Activity {
        let mut a = self.pipe_closed;
        if self.pipe_len != 0 {
            a.busy_cycles += now.saturating_sub(self.pipe_from);
        }
        a
    }

    /// Zero both activity counters; cycle `now` is the first the next
    /// window counts. A restored PE counts from here too.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.filter_closed = Activity::with_capacity(u64::from(self.stations));
        self.pipe_closed = Activity::with_capacity(1);
        self.filter_from = now;
        self.pipe_from = now;
        self.pipe_to = now;
    }

    /// Close the open filter interval at `upto` (exclusive): called before
    /// the running set or the occupied flag changes, with the first cycle
    /// the change applies to.
    #[inline(always)]
    fn close_filter(&mut self, upto: Cycle) {
        debug_assert!(upto >= self.filter_from, "filter intervals run forward");
        self.filter_closed = self.filter_stats(upto);
        self.filter_from = upto;
    }

    /// Reset the lowest free station around a fresh entry, parked on its
    /// first slot; the next filter stage starts its scan.
    fn load_station(&mut self, cycle: Cycle, entry: NbrEntry) -> usize {
        let free = !self.occupied & self.all();
        assert!(free != 0, "dispatch requires a free station");
        let si = free.trailing_zeros() as usize;
        debug_assert!(
            self.entries[si].is_none() && self.lanes[si].tail == self.lanes[si].hit,
            "station must be drained before reload"
        );
        self.close_filter(cycle);
        self.entries[si] = Some(entry);
        let lane = &mut self.lanes[si];
        (lane.base, lane.hit, lane.head, lane.tail) = (entry.scan_from, 0, 0, 0);
        lane.acc = [0.0; 3];
        lane.plan.clear();
        let bit = 1u32 << si;
        self.had_pairs &= !bit;
        self.occupied |= bit;
        si
    }

    /// Load a neighbour entry into a free station at `cycle`. Panics if
    /// none free — guard with [`Pe::has_free_station`].
    pub fn dispatch(&mut self, cycle: Cycle, entry: NbrEntry) {
        self.load_station(cycle, entry);
    }

    /// [`Pe::dispatch`] through the fused SoA kernel: run the station's
    /// whole scan against the home banks now
    /// ([`ForceDatapath::fused_scan_into`]) and store the finished
    /// [`ScanHit`]s — written *directly* into the station's plan, no
    /// intermediate `FilteredPair` buffer — as the plan that times the
    /// station's events. Cycle-for-cycle and bit-for-bit identical to the
    /// scalar path: the station still advances one home slot per cycle,
    /// stalls on a full pair FIFO, and buffers the same pairs on the same
    /// cycles — only the arithmetic is hoisted out of the cycle loop.
    pub fn dispatch_planned(&mut self, cycle: Cycle, entry: NbrEntry, dp: &ForceDatapath, home: &HomeSoa) {
        let si = self.load_station(cycle, entry);
        dp.fused_scan_into(home, entry.concat, entry.elem, entry.scan_from, &mut self.lanes[si].plan);
        self.planned |= 1u32 << si;
    }

    /// Clock value of a running planned station's next event.
    #[inline(always)]
    fn next_event(&self, si: usize, home_len: u16) -> u16 {
        let lane = &self.lanes[si];
        let slot = lane.plan.get(lane.hit as usize).map_or(home_len - 1, |h| h.slot);
        lane.base.wrapping_add(slot)
    }

    /// Running planned stations whose event is due at clock `now`: one
    /// compare across the stamp lanes.
    #[inline(always)]
    fn due_planned(&self, now: u16) -> u32 {
        if self.running & self.planned == 0 {
            return 0; // the oracle's stations are all scalar
        }
        let mut due = 0u32;
        for (si, &at) in self.ev_at.0.iter().enumerate() {
            due |= u32::from(at == now) << si;
        }
        due & self.running & self.planned
    }

    /// Mark finished station `si` drained if nothing of it is in flight.
    #[inline]
    fn settle(&mut self, si: usize) {
        let lane = &self.lanes[si];
        self.drained |= (self.done & (1u32 << si)) * u32::from(lane.tail == lane.hit);
    }

    // ------------------------------------------------------------------
    // Stage 1: retire.
    // ------------------------------------------------------------------

    /// True when the pipeline's oldest pair retires at `cycle`.
    #[inline]
    pub fn retire_due(&self, cycle: Cycle) -> bool {
        cycle >= self.retire_at
    }

    /// True while a pair is in the force pipeline.
    #[inline]
    pub fn pipe_busy(&self) -> bool {
        self.pipe_len != 0
    }

    /// Cycle the pipeline's oldest pair retires, while one is in flight.
    #[inline]
    pub fn retire_at(&self) -> Option<Cycle> {
        (self.pipe_len != 0).then_some(self.retire_at)
    }

    /// Retire the pipeline's oldest pair (due at `cycle`, see
    /// [`Pe::retire_due`]): its home force goes to `into(home_slot,
    /// force)` — the FC write port — and its reaction into the producing
    /// station's accumulator.
    #[inline(always)]
    pub fn retire(&mut self, cycle: Cycle, into: impl FnOnce(u16, [f32; 3])) {
        debug_assert!(self.retire_due(cycle) && self.pipe_len != 0);
        let si = (self.pipe[self.pipe_head as usize] & 0xff) as usize;
        self.pipe_head = (self.pipe_head + 1) & self.pipe_mask;
        self.pipe_len -= 1;
        self.pipe_closed.work += 1;
        if self.pipe_len == 0 {
            self.retire_at = Cycle::MAX;
            self.pipe_closed.busy_cycles += cycle + 1 - self.pipe_from;
            self.pipe_to = cycle + 1;
        } else {
            let ready = (self.pipe[self.pipe_head as usize] >> 16) as u16;
            self.retire_at = cycle + u64::from(ready.wrapping_sub(cycle as u16));
        }
        let lane = &mut self.lanes[si];
        let h = lane.plan[lane.tail as usize];
        lane.tail += 1;
        for k in 0..3 {
            lane.acc[k] -= h.force[k];
        }
        self.settle(si);
        into(h.slot, h.force);
    }

    // ------------------------------------------------------------------
    // Stage 2: arbitrate.
    // ------------------------------------------------------------------

    /// True when some station has a buffered pair for the arbiter.
    #[inline]
    pub fn has_buffered_pairs(&self) -> bool {
        self.fifo_nonempty != 0
    }

    /// Arbitrate one buffered pair into the pipeline at `cycle`:
    /// round-robin from `rr` is the lowest non-empty FIFO at or above it,
    /// else the lowest overall. (One issue per cycle: the arbiter is the
    /// pipeline's only writer and runs once a cycle.) A station the pop
    /// unstalls restarts its scan here, on this cycle's clock, against a
    /// home cell of `home_len` slots — as the filter stage would have in
    /// this same cycle; the return is then how many cycles ahead its next
    /// filter event lies (0: this cycle's filter stage; at most
    /// [`FILTER_REACH`]).
    #[inline(always)]
    pub fn arbitrate(&mut self, cycle: Cycle, home_len: u16) -> Option<u16> {
        debug_assert!(self.fifo_nonempty != 0);
        debug_assert!(self.last_issue.is_none_or(|l| l < cycle), "one issue per cycle");
        let ahead = self.fifo_nonempty >> self.rr;
        let si = if ahead != 0 {
            self.rr as usize + ahead.trailing_zeros() as usize
        } else {
            self.fifo_nonempty.trailing_zeros() as usize
        };
        let bit = 1u32 << si;
        let lane = &mut self.lanes[si];
        lane.head += 1;
        self.fifo_nonempty &= !(u32::from(lane.head == lane.hit) << si);
        self.fifo_full &= !bit;
        debug_assert!(self.pipe_len <= self.pipe_mask, "at most `latency` pairs in flight");
        let ready = cycle + u64::from(self.latency);
        let at = (self.pipe_head + self.pipe_len) & self.pipe_mask;
        self.pipe[at as usize] = u32::from(ready as u16) << 16 | si as u32;
        if self.pipe_len == 0 {
            self.retire_at = ready;
            self.pipe_from = cycle.max(self.pipe_to);
        }
        self.pipe_len += 1;
        self.last_issue = Some(cycle);
        self.issued_total += 1;
        self.rr = if si + 1 == self.stations as usize { 0 } else { si as u8 + 1 };
        if self.wake() & bit == 0 {
            return None;
        }
        let now = cycle as u16;
        self.close_filter(cycle);
        self.start_scan(si, now, home_len);
        if self.running & bit == 0 {
            return None;
        }
        Some(if self.planned & bit != 0 { self.reach(si, now) } else { 0 })
    }

    /// How far ahead of clock `now` running planned station `si`'s event
    /// lies, capped at [`FILTER_REACH`] (remembering the station in `far`
    /// when it is capped).
    #[inline]
    fn reach(&mut self, si: usize, now: u16) -> u16 {
        let ahead = self.ev_at.0[si].wrapping_sub(now);
        self.far |= u32::from(ahead > FILTER_REACH) << si;
        ahead.min(FILTER_REACH)
    }

    // ------------------------------------------------------------------
    // Stage 3: filter.
    // ------------------------------------------------------------------

    /// Parked stations that are occupied, unfinished and not stalled.
    #[inline]
    fn wake(&self) -> u32 {
        self.occupied & !self.done & !self.fifo_full & !self.running
    }

    /// True when the filter stage has work: a running station, or a
    /// parked one it will (re)start.
    #[inline]
    pub fn filter_live(&self) -> bool {
        self.running != 0 || self.wake() != 0
    }

    /// True when the filter stage has work at clock `now`: a station to
    /// start, a scalar station, or a planned one whose event is due.
    #[inline]
    pub fn filter_due(&self, now: u16) -> bool {
        self.wake() != 0 || self.running & !self.planned != 0 || self.due_planned(now) != 0
    }

    /// (Re)start a parked station's scan at clock `now`: rebase its
    /// cursor on the clock and stamp its next event. A station parked at
    /// or past the end of the home cell finishes without a comparison.
    fn start_scan(&mut self, si: usize, now: u16, home_len: u16) {
        let bit = 1u32 << si;
        let cursor = self.lanes[si].base;
        if cursor >= home_len {
            self.done |= bit;
            self.settle(si);
            return;
        }
        self.lanes[si].base = now.wrapping_sub(cursor);
        self.running |= bit;
        if self.planned & bit != 0 {
            self.ev_at.0[si] = self.next_event(si, home_len);
        }
    }

    /// One due comparison of running station `si` at `cycle`: a planned
    /// hit, the last comparison of a planned scan, or any comparison of a
    /// scalar station.
    #[inline(always)]
    fn compare(
        &mut self,
        si: usize,
        cycle: Cycle,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
    ) {
        let bit = 1u32 << si;
        let now = cycle as u16;
        let cur = now.wrapping_sub(self.lanes[si].base);
        let lane = &mut self.lanes[si];
        let hit = if self.planned & bit != 0 {
            lane.plan.get(lane.hit as usize).is_some_and(|h| h.slot == cur)
        } else {
            let entry = self.entries[si].expect("occupied bit tracks entries");
            let hi = cur as usize;
            match dp.filter(home_concat[hi], entry.concat) {
                Some(pair) => {
                    let force = dp.force(home_elem[hi], entry.elem, pair);
                    lane.plan.push(ScanHit { slot: cur, force });
                    true
                }
                None => false,
            }
        };
        let mut stalled = false;
        if hit {
            lane.hit += 1;
            let len = lane.hit - lane.head;
            lane.high_water = lane.high_water.max(len);
            self.had_pairs |= bit;
            self.fifo_nonempty |= bit;
            if len == self.depth {
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
            self.close_filter(cycle + 1);
            self.running &= !bit;
            self.lanes[si].base = next;
            if ended {
                self.done |= bit;
                self.settle(si);
            }
        } else if self.planned & bit != 0 {
            self.ev_at.0[si] = self.next_event(si, home_len);
        }
    }

    /// The filter stage at `cycle` against the home cell's snapshot
    /// (elements, concatenated home coordinates): (re)start what is
    /// parked but free to scan — fresh dispatches, and restored stations
    /// — then compare for the stations whose event is due. Every event
    /// this stamps for a later cycle is reported as `next(cycles_ahead)`
    /// (a scalar station's next comparison as 1; at most
    /// [`FILTER_REACH`], an event beyond it being reported again at each
    /// visit until it is within reach), so the caller can file the PE
    /// under each.
    #[inline]
    pub fn filter(
        &mut self,
        cycle: Cycle,
        dp: &ForceDatapath,
        home_elem: &[Element],
        home_concat: &[FixVec3],
        mut next: impl FnMut(u16),
    ) {
        let home_len = home_elem.len() as u16;
        let now = cycle as u16;
        let wake = self.wake();
        if wake != 0 {
            self.close_filter(cycle);
            for si in set_bits(u64::from(wake)) {
                self.start_scan(si, now, home_len);
            }
        }
        let due = !self.planned & self.running | self.due_planned(now);
        for si in set_bits(u64::from(due)) {
            self.compare(si, cycle, dp, home_elem, home_concat);
        }
        if self.running & !self.planned != 0 {
            next(1);
        }
        let report = (wake | due | self.far) & self.running & self.planned;
        self.far = 0;
        for si in set_bits(u64::from(report)) {
            next(self.reach(si, now));
        }
    }

    // ------------------------------------------------------------------
    // Stage 4: eject.
    // ------------------------------------------------------------------

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
            let entry = self.entries[si].expect("done implies occupied");
            let had_pairs = self.had_pairs & bit != 0;
            let needs_ring = matches!(entry.kind, NbrKind::Ring { .. }) && had_pairs;
            if needs_ring && *ring_eject_budget == 0 {
                continue; // retry next cycle
            }
            self.close_filter(cycle + 1);
            self.entries[si] = None;
            self.occupied &= !bit;
            self.done &= !bit;
            self.planned &= !bit;
            self.drained &= !bit;
            // The plan dies with the entry, so a checkpoint of a free
            // station carries none (it is empty on either engine).
            let lane = &mut self.lanes[si];
            lane.plan.clear();
            debug_assert!(lane.tail == lane.hit, "in-flight pairs outlive the station");
            (lane.hit, lane.head, lane.tail) = (0, 0, 0);
            let acc = lane.acc;
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

    /// One whole cycle of a lone PE: its four stages in order. Returns
    /// the retired `(home_slot, force_on_home)`, if any, and appends any
    /// ejection. The chip runs the same stages as loops over its PEs;
    /// this drives one PE the same way (tests, reference comparisons).
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
        if self.retire_due(cycle) {
            self.retire(cycle, |slot, force| retired = Some((slot, force)));
        }
        if self.has_buffered_pairs() {
            self.arbitrate(cycle, home_elem.len() as u16);
        }
        if self.filter_live() {
            self.filter(cycle, dp, home_elem, home_concat, |_| {});
        }
        if self.has_drained() {
            ejections.extend(self.eject(cycle, ring_eject_budget));
        }
        retired
    }

    /// Checkpointing: station count, pipeline latency, and FIFO depths are
    /// configuration; the station/pipeline contents, scan cursors and
    /// masks are state. The byte layout predates both the event-timed
    /// lanes and the by-reference pairs and is kept: each station writes
    /// its entry, in-flight count, pair flag, accumulator, pair FIFO (the
    /// `plan[head..hit]` pairs, then the high-water mark) and — planned
    /// stations only — its plan and plan cursor; the pipeline writes each
    /// in-flight pair with its retire cycle; per-station cursors are
    /// materialised from clock `now` (the next cycle the PE is stepped
    /// at), and the "slot of the next planned hit" array is derived from
    /// the plans. The activity counters are *not* captured — the driver
    /// resets every utilization counter at the start of a measurement
    /// window, which is where checkpoints are cut.
    pub fn snapshot_at(&self, now: Cycle, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        let n = usize::from(self.stations);
        let job = |si: usize, h: &ScanHit| PipeJob {
            station: si as u8,
            home_slot: h.slot,
            force: h.force,
        };
        w.put_usize(n);
        for si in 0..n {
            let lane = &self.lanes[si];
            let plan = &lane.plan;
            self.entries[si].save(w);
            w.put_u32(u32::from(lane.hit - lane.tail));
            w.put_bool(self.had_pairs & 1 << si != 0);
            lane.acc.save(w);
            w.put_usize(usize::from(lane.hit - lane.head));
            for h in &plan[lane.head as usize..lane.hit as usize] {
                job(si, h).save(w);
            }
            w.put_usize(usize::from(lane.high_water));
            if self.planned & 1 << si != 0 {
                plan.save(w);
                w.put_usize(usize::from(lane.hit));
            } else {
                w.put_usize(0);
                w.put_usize(0);
            }
        }
        let mut next = [0u16; LANES];
        for (si, lane) in self.lanes.iter().enumerate().take(n) {
            next[si] = lane.tail;
        }
        w.put_usize(usize::from(self.pipe_len));
        for i in 0..self.pipe_len {
            let e = self.pipe[((self.pipe_head + i) & self.pipe_mask) as usize];
            let si = (e & 0xff) as usize;
            let ready = self.retire_at + u64::from(((e >> 16) as u16).wrapping_sub(self.retire_at as u16));
            w.put_u64(ready);
            job(si, &self.lanes[si].plan[next[si] as usize]).save(w);
            next[si] += 1;
        }
        self.last_issue.save(w);
        w.put_u64(self.issued_total);
        w.put_usize(usize::from(self.rr));
        let clock = now as u16;
        let cursors: Vec<u16> = (0..n)
            .map(|si| {
                let base = self.lanes[si].base;
                if self.running & (1 << si) != 0 {
                    clock.wrapping_sub(base)
                } else {
                    base
                }
            })
            .collect();
        cursors.save(w);
        let next_hit: Vec<u16> = (0..n)
            .map(|si| {
                let live = self.occupied & self.planned & (1 << si) != 0;
                let lane = &self.lanes[si];
                lane.plan.get(lane.hit as usize).filter(|_| live).map_or(u16::MAX, |h| h.slot)
            })
            .collect();
        next_hit.save(w);
        w.put_u32(self.occupied);
        w.put_u32(self.planned);
        w.put_u32(self.done);
        w.put_u32(self.fifo_full);
        w.put_u32(self.fifo_nonempty);
    }

    /// Restore what [`Pe::snapshot_at`] wrote. Every station comes back
    /// parked on its cursor; a scalar station's plan is rebuilt from its
    /// in-flight and buffered pairs. Follow with [`Pe::reset_stats`].
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
            } else {
                // A free station may carry a stale plan from an older
                // writer; a scalar station's is empty.
                plan.extend_from_slice(&pairs);
                pairs.len()
            };
            let hit = u16::try_from(hit).map_err(|_| r.malformed("scan plan longer than a cell"))?;
            let buffered = s.fifo.len() as u16;
            lane.base = cursors[si];
            (lane.hit, lane.head, lane.tail) = (hit, hit - buffered, hit - buffered - piped[si]);
            lane.high_water = s.high_water as u16;
            lane.acc = s.acc;
            self.entries[si] = s.entry;
            self.had_pairs = self.had_pairs & !bit | u32::from(s.had_pairs) << si;
        }
        self.pipe_head = 0;
        self.pipe_len = pipe.len() as u16;
        for (i, (ready, job)) in pipe.iter().enumerate() {
            self.pipe[i] = u32::from(*ready as u16) << 16 | u32::from(job.station);
        }
        self.retire_at = pipe.first().map_or(Cycle::MAX, |p| p.0);
        self.last_issue = last_issue;
        self.issued_total = issued_total;
        self.rr = rr as u8;
        self.occupied = occupied;
        self.planned = planned;
        self.done = done;
        self.fifo_full = fifo_full;
        self.fifo_nonempty = fifo_nonempty;
        self.running = 0;
        self.far = 0;
        self.drained = 0;
        for si in 0..n {
            self.settle(si);
        }
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
            planned.dispatch_planned(0, e, &dp, &soa);
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
