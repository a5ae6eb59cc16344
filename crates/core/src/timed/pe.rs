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

/// One filter station — the wide, *cold* half of its state.
///
/// The scan-control fields the per-cycle loops touch every cycle
/// (cursor, occupancy, FIFO fullness, next planned hit) live in the
/// [`Pe`]'s packed parallel arrays and bitmasks instead; this struct is
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
pub struct Pe {
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

impl Pe {
    /// Build a PE.
    pub fn new(filters: u32, pipe_latency: u32, pair_fifo_depth: usize) -> Self {
        assert!(filters <= 32, "station state is tracked in u32 bitmasks");
        Pe {
            stations: (0..filters).map(|_| Station::new(pair_fifo_depth)).collect(),
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
        let free = !self.occupied & ((1u32 << self.stations.len()) - 1);
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
    /// guard with [`Pe::has_free_station`].
    pub fn dispatch(&mut self, entry: NbrEntry) {
        let si = self.free_station().expect("dispatch requires a free station");
        self.load_station(si, entry);
    }

    /// [`Pe::dispatch`] through the fused SoA kernel: run the station's
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
        let si = self.free_station().expect("dispatch requires a free station");
        self.load_station(si, entry);
        let st = &mut self.stations[si];
        dp.fused_scan_into(home, entry.concat, entry.elem, entry.scan_from, &mut st.plan);
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
                let entry = self.stations[si].entry.expect("occupied bit tracks entries");
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
        self.pe_stats
            .record(u64::from(retired.is_some()), !self.pipe.is_empty() || retired.is_some());

        retired
    }
}

impl fasda_ckpt::Persist for NbrKind {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        match *self {
            NbrKind::Ring {
                owner_chip,
                owner_cbb,
                slot,
                remote,
            } => {
                w.put_u8(0);
                owner_chip.save(w);
                w.put_u16(owner_cbb);
                w.put_u16(slot);
                w.put_bool(remote);
            }
            NbrKind::Internal { slot } => {
                w.put_u8(1);
                w.put_u16(slot);
            }
        }
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        match r.get_u8()? {
            0 => Ok(NbrKind::Ring {
                owner_chip: fasda_ckpt::Persist::load(r)?,
                owner_cbb: r.get_u16()?,
                slot: r.get_u16()?,
                remote: r.get_bool()?,
            }),
            1 => Ok(NbrKind::Internal { slot: r.get_u16()? }),
            t => Err(r.malformed(format!("invalid neighbour kind tag {t}"))),
        }
    }
}

impl fasda_ckpt::Persist for NbrEntry {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        self.concat.save(w);
        self.elem.save(w);
        w.put_u16(self.scan_from);
        self.kind.save(w);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(NbrEntry {
            concat: fasda_ckpt::Persist::load(r)?,
            elem: fasda_ckpt::Persist::load(r)?,
            scan_from: r.get_u16()?,
            kind: fasda_ckpt::Persist::load(r)?,
        })
    }
}

impl fasda_ckpt::Persist for PipeJob {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u8(self.station);
        w.put_u16(self.home_slot);
        self.force.save(w);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(PipeJob {
            station: r.get_u8()?,
            home_slot: r.get_u16()?,
            force: fasda_ckpt::Persist::load(r)?,
        })
    }
}

impl fasda_ckpt::Persist for ScanHit {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u16(self.slot);
        self.force.save(w);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(ScanHit {
            slot: r.get_u16()?,
            force: fasda_ckpt::Persist::load(r)?,
        })
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
/// contents are state. The activity counters ([`Pe::filter_stats`],
/// [`Pe::pe_stats`]) are *not* captured — the driver resets every
/// utilization counter at the start of a measurement window, which is
/// where checkpoints are cut.
impl fasda_ckpt::Snapshot for Pe {
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
