//! Test-only reference model of the Processing Element: the per-station
//! walk `Pe::step` was before its filter stage became event-timed (commit
//! 764d4da, `crates/core/src/timed/pe.rs`), kept verbatim — state layout,
//! per-cycle mask walk, `planned`-bit branch, modulo arbiter and snapshot
//! codec included — so `pe_differential.rs` can drive it cycle by cycle
//! against the production PE. It is deliberately *not* tidied: its value
//! is that it is the code the golden fixtures were cut from. Two edits:
//! the free-station mask, whose `1u32 << 32` overflowed at exactly 32
//! stations (no configuration in the tree reached it), and an ejection
//! clears the station's scan plan, as the production PE's does, so a
//! checkpoint of a free station carries no stale plan.

// Componentwise `for k in 0..3` loops mirror the per-lane datapath.
#![allow(clippy::needless_range_loop)]
use fasda_arith::fixed::FixVec3;
use fasda_core::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_core::geometry::ChipCoord;
use fasda_core::timed::pe::{Ejection, NbrEntry, NbrKind, PipeJob};
use fasda_core::timed::ring::FrcFlit;
use fasda_md::element::Element;
use fasda_sim::{Activity, Cycle, Fifo, Pipeline};

/// One filter station — the wide, *cold* half of its state.
///
/// The scan-control fields the per-cycle loops touch every cycle
/// (cursor, occupancy, FIFO fullness, next planned hit) live in the
/// [`RefPe`]'s packed parallel arrays and bitmasks instead; this struct is
/// only loaded on the rarer events: a passing pair, a retire, an
/// ejection, a dispatch.
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

/// A Processing Element: `filters_per_pe` stations + one force pipeline.
///
/// The per-cycle scan control lives in packed parallel arrays and `u32`
/// occupancy bitmasks rather than inside the [`Station`] structs: the
/// cycle loop is memory-bound when it chases six wide station structs per
/// PE per cycle, so the every-cycle state (cursors, next planned hit,
/// occupied / scan-done / FIFO masks) is kept inside a couple of cache
/// lines and the wide structs are touched only on hits, retires and
/// ejections.
#[derive(Clone, Debug)]
pub struct RefPe {
    stations: Vec<Station>,
    pipe: Pipeline<PipeJob>,
    rr: usize,
    /// Per-station scan cursor: next home slot to compare.
    cursors: Vec<u16>,
    /// Per-station slot of the next planned hit (`u16::MAX`: none
    /// pending, or the station was dispatched on the scalar path).
    next_hit: Vec<u16>,
    /// Stations holding a neighbour entry.
    occupied: u32,
    /// Stations dispatched through the SoA batch kernels.
    planned: u32,
    /// Occupied stations whose scan has finished (maintained lazily by
    /// the filter stage, which is the only place `home_len` is known).
    done: u32,
    /// Stations whose pair FIFO is full (filter stage stalls on these).
    fifo_full: u32,
    /// Stations whose pair FIFO holds at least one job (arbiter input).
    fifo_nonempty: u32,
    /// Filter activity (capacity = stations).
    pub filter_stats: Activity,
    /// Force-pipeline activity (capacity = 1/cycle).
    pub pe_stats: Activity,
}

impl RefPe {
    /// Build a PE.
    pub fn new(filters: u32, pipe_latency: u32, pair_fifo_depth: usize) -> Self {
        assert!(filters <= 32, "station state is tracked in u32 bitmasks");
        RefPe {
            stations: (0..filters)
                .map(|_| Station::new(pair_fifo_depth))
                .collect(),
            pipe: Pipeline::new(pipe_latency as u64),
            rr: 0,
            cursors: vec![0; filters as usize],
            next_hit: vec![u16::MAX; filters as usize],
            occupied: 0,
            planned: 0,
            done: 0,
            fifo_full: 0,
            fifo_nonempty: 0,
            filter_stats: Activity::with_capacity(filters as u64),
            pe_stats: Activity::with_capacity(1),
        }
    }

    /// True if some station is free to accept a neighbour entry.
    pub fn has_free_station(&self) -> bool {
        (self.occupied.count_ones() as usize) < self.stations.len()
    }

    /// Index of the lowest free station, mirroring the original
    /// first-free linear scan.
    fn free_station(&self) -> Option<usize> {
        let free = !self.occupied & (u32::MAX >> (32 - self.stations.len()));
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Reset station `si` around a fresh entry and raise its mask bits.
    fn load_station(&mut self, si: usize, entry: NbrEntry) {
        let bit = 1u32 << si;
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
        self.cursors[si] = entry.scan_from;
        self.next_hit[si] = u16::MAX;
        self.occupied |= bit;
        self.planned &= !bit;
        self.done &= !bit;
        self.fifo_full &= !bit;
        self.fifo_nonempty &= !bit;
    }

    /// Load a neighbour entry into a free station. Panics if none free —
    /// guard with [`RefPe::has_free_station`].
    pub fn dispatch(&mut self, entry: NbrEntry) {
        let si = self
            .free_station()
            .expect("dispatch requires a free station");
        self.load_station(si, entry);
    }

    /// [`RefPe::dispatch`] through the fused SoA kernel: run the station's
    /// whole scan against the home banks now
    /// ([`ForceDatapath::fused_scan_into`]) and store the finished
    /// [`ScanHit`]s — written *directly* into the station's plan, no
    /// intermediate `FilteredPair` buffer — as a plan the per-cycle state
    /// machine consumes one comparison at a time. Cycle-for-cycle and
    /// bit-for-bit identical to the scalar path: the station still
    /// advances one home slot per cycle, stalls on a full pair FIFO, and
    /// pushes the same jobs on the same cycles — only the arithmetic is
    /// hoisted out of the cycle loop.
    pub fn dispatch_planned(&mut self, entry: NbrEntry, dp: &ForceDatapath, home: &HomeSoa) {
        let si = self
            .free_station()
            .expect("dispatch requires a free station");
        self.load_station(si, entry);
        let st = &mut self.stations[si];
        dp.fused_scan_into(
            home,
            entry.concat,
            entry.elem,
            entry.scan_from,
            &mut st.plan,
        );
        self.next_hit[si] = st.plan.first().map_or(u16::MAX, |h| h.slot);
        self.planned |= 1u32 << si;
    }

    /// True when the PE holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.pipe.is_empty() && self.occupied == 0
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

        // 1. Retire a pipeline result: home force to FC, reaction into
        //    the producing station's accumulator.
        let mut retired = None;
        if let Some(job) = self.pipe.pop_ready(cycle) {
            let f = job.force;
            let st = &mut self.stations[job.station as usize];
            for k in 0..3 {
                st.acc[k] -= f[k];
            }
            st.in_flight -= 1;
            retired = Some((job.home_slot, f));
        }

        // 2. Arbitrate one buffered pair into the pipeline (round-robin).
        //    The non-empty mask makes the losing probes register tests
        //    instead of FIFO loads.
        if self.fifo_nonempty != 0 && self.pipe.can_issue(cycle) {
            let n = self.stations.len();
            for k in 0..n {
                let idx = (self.rr + k) % n;
                let bit = 1u32 << idx;
                if self.fifo_nonempty & bit == 0 {
                    continue;
                }
                let st = &mut self.stations[idx];
                let job = st.pair_fifo.pop().expect("mask tracks non-empty FIFOs");
                if st.pair_fifo.is_empty() {
                    self.fifo_nonempty &= !bit;
                }
                self.fifo_full &= !bit;
                self.pipe.issue(cycle, job).expect("can_issue checked");
                self.rr = (idx + 1) % n;
                break;
            }
        }

        // 3. Filters: each occupied, unfinished station compares one home
        //    particle per cycle (stalling only on a full pair FIFO). The
        //    mask walk touches only the packed cursor / next-hit arrays on
        //    a miss; the wide station struct is loaded on hits alone.
        let mut comparisons = 0u64;
        let mut m = self.occupied & !self.done & !self.fifo_full;
        while m != 0 {
            let si = m.trailing_zeros() as usize;
            let bit = m & m.wrapping_neg();
            m &= m - 1;
            let cur = self.cursors[si];
            if cur >= home_len {
                // Scan finished (or dispatched past the end): record it
                // and stop probing this station.
                self.done |= bit;
                continue;
            }
            comparisons += 1;
            let hit = if self.planned & bit != 0 {
                // SoA fast path: the scan was evaluated at dispatch; the
                // comparison this cycle hits iff the next planned slot is
                // the cursor.
                if self.next_hit[si] == cur {
                    let st = &self.stations[si];
                    Some(st.plan[st.plan_next].force)
                } else {
                    None
                }
            } else {
                let entry = self.stations[si]
                    .entry
                    .expect("occupied bit tracks entries");
                let hi = cur as usize;
                dp.filter(home_concat[hi], entry.concat)
                    .map(|pair| dp.force(home_elem[hi], entry.elem, pair))
            };
            if let Some(force) = hit {
                let st = &mut self.stations[si];
                if self.planned & bit != 0 {
                    st.plan_next += 1;
                    self.next_hit[si] = st.plan.get(st.plan_next).map_or(u16::MAX, |h| h.slot);
                }
                let job = PipeJob {
                    station: si as u8,
                    home_slot: cur,
                    force,
                };
                st.pair_fifo.push(job).expect("fullness checked");
                st.in_flight += 1;
                st.had_pairs = true;
                self.fifo_nonempty |= bit;
                if st.pair_fifo.is_full() {
                    self.fifo_full |= bit;
                }
            }
            let next = cur + 1;
            self.cursors[si] = next;
            if next >= home_len {
                self.done |= bit;
            }
        }
        let any_station_active = self.occupied != 0;

        // 4. Eject at most one drained station per cycle. Ring ejections
        //    additionally need the SPE's FRN injection budget. Only
        //    scan-done stations (the `done` mask) can be drained; the
        //    walk preserves the original ascending-index order.
        let mut dm = self.done;
        while dm != 0 {
            let si = dm.trailing_zeros() as usize;
            let bit = dm & dm.wrapping_neg();
            dm &= dm - 1;
            let st = &mut self.stations[si];
            if st.in_flight != 0 {
                continue;
            }
            debug_assert!(st.pair_fifo.is_empty(), "in_flight counts FIFO jobs");
            let entry = st.entry.expect("done implies occupied");
            let needs_ring = matches!(entry.kind, NbrKind::Ring { .. }) && st.had_pairs;
            if needs_ring && *ring_eject_budget == 0 {
                continue; // retry next cycle
            }
            st.entry = None;
            // The plan dies with the entry (mirrors the production PE,
            // whose checkpoint of a free station carries no plan).
            st.plan.clear();
            st.plan_next = 0;
            self.occupied &= !bit;
            self.done &= !bit;
            self.planned &= !bit;
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
        self.pe_stats.record(
            u64::from(retired.is_some()),
            !self.pipe.is_empty() || retired.is_some(),
        );

        retired
    }
}

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
/// configuration; the scan-control arrays, bitmasks, and station/pipeline
/// contents are state. The activity counters ([`RefPe::filter_stats`],
/// [`RefPe::pe_stats`]) are *not* captured — the driver resets every
/// utilization counter at the start of a measurement window, which is
/// where checkpoints are cut.
impl fasda_ckpt::Snapshot for RefPe {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        fasda_ckpt::snapshot_slice(&self.stations, w);
        self.pipe.snapshot(w);
        w.put_usize(self.rr);
        self.cursors.save(w);
        self.next_hit.save(w);
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
        self.rr = r.get_usize()?;
        let cursors: Vec<u16> = Persist::load(r)?;
        let next_hit: Vec<u16> = Persist::load(r)?;
        if cursors.len() != self.stations.len() || next_hit.len() != self.stations.len() {
            return Err(r.malformed("scan-control array length disagrees with station count"));
        }
        self.cursors = cursors;
        self.next_hit = next_hit;
        self.occupied = r.get_u32()?;
        self.planned = r.get_u32()?;
        self.done = r.get_u32()?;
        self.fifo_full = r.get_u32()?;
        self.fifo_nonempty = r.get_u32()?;
        Ok(())
    }
}
