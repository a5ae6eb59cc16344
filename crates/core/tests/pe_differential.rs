//! Differential test of the event-timed PE against the per-station walk
//! it replaced (`pe_reference`, the parent commit's `Pe::step` kept as a
//! test-only model).
//!
//! Both PEs are driven through the same random schedule — dispatch times,
//! planned and scalar stations mixed in one PE, neighbours that hit almost
//! every slot (so pair FIFOs fill and stall) or almost none, `scan_from`
//! anywhere up to past the end of the home cell, a ring-ejection budget
//! of 0 or 1 per cycle — and must agree after **every** cycle on the
//! retired force, the ejection stream, the budget left, idleness, both
//! activity counters and the `Snapshot` bytes (which carry every cursor
//! and mask). A third PE restored mid-run from the production PE's
//! snapshot must then track it cycle for cycle to the end.

mod pe_reference;

use fasda_arith::fixed::FixVec3;
use fasda_arith::interp::TableConfig;
use fasda_ckpt::{Reader, Snapshot, Writer};
use fasda_sim::Cycle;
use fasda_core::datapath::{ForceDatapath, HomeSoa};
use fasda_core::geometry::ChipCoord;
use fasda_core::timed::pe::{Ejection, NbrEntry, NbrKind, Pe};
use fasda_md::element::{Element, PairTable};
use fasda_md::units::UnitSystem;
use pe_reference::RefPe;
use proptest::prelude::*;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn offset(&mut self) -> FixVec3 {
        FixVec3::from_f64(self.unit(), self.unit(), self.unit())
    }
}

fn snapshot_of(pe: &impl Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    pe.snapshot(&mut w);
    w.into_bytes()
}

/// The production PE's snapshot with its cursors materialised at clock
/// `now`, the next cycle it steps.
fn snapshot_at(pe: &Pe, now: Cycle) -> Vec<u8> {
    let mut w = Writer::new();
    pe.snapshot_at(now, &mut w);
    w.into_bytes()
}

type Retired = Option<(u16, [u32; 3])>;

fn bits(r: Option<(u16, [f32; 3])>) -> Retired {
    r.map(|(slot, f)| (slot, f.map(f32::to_bits)))
}

fn random_entry(rng: &mut Rng, home_len: usize) -> NbrEntry {
    // Same-cell neighbours pass the filter on most slots (FIFOs fill);
    // neighbour-cell ones on few.
    let rcid = if rng.below(2) == 0 {
        (2, 2, 2)
    } else {
        (
            1 + rng.below(3) as u8,
            1 + rng.below(3) as u8,
            1 + rng.below(3) as u8,
        )
    };
    let scan_from = match rng.below(4) {
        0 => rng.below(home_len as u64 + 12) as u16, // anywhere, also past the end
        _ => 0,
    };
    let kind = if rng.below(3) == 0 {
        NbrKind::Internal {
            slot: rng.below(home_len.max(1) as u64) as u16,
        }
    } else {
        let remote = rng.below(2) == 0;
        NbrKind::Ring {
            owner_chip: ChipCoord::new(u32::from(remote), 0, 0),
            owner_cbb: rng.below(27) as u16,
            slot: rng.below(200) as u16,
            remote,
        }
    };
    NbrEntry {
        concat: ForceDatapath::concat(rcid, rng.offset()),
        elem: Element::ALL[rng.below(Element::ALL.len() as u64) as usize],
        scan_from,
        kind,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_timed_pe_matches_the_per_station_walk(
        seed in 1u64..u64::MAX,
        stations in 1u32..33,
        latency in 1u32..201,
        depth in 1usize..9,
        home_len in 0usize..131,
        first_cycle in 0u64..200_000,
    ) {
        let mut rng = Rng(seed);
        let dp = ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER);
        let home_elem: Vec<Element> =
            (0..home_len).map(|_| Element::ALL[rng.below(Element::ALL.len() as u64) as usize]).collect();
        let home_concat: Vec<FixVec3> =
            (0..home_len).map(|_| ForceDatapath::concat((2, 2, 2), rng.offset())).collect();
        let mut soa = HomeSoa::new();
        soa.rebuild(&home_elem, &home_concat);

        let mut reference = RefPe::new(stations, latency, depth);
        let mut pe = Pe::new(stations, latency, depth);
        let mut resumed: Option<Pe> = None;
        let (mut ej_ref, mut ej_pe, mut ej_resumed) = (Vec::new(), Vec::new(), Vec::<Ejection>::new());
        // How eagerly the schedule dispatches: from a trickle to
        // back-to-back, so PEs run both nearly empty and saturated.
        let dispatch_one_in = 1 + rng.below(12);
        let busy_cycles = 300 + rng.below(500);
        let restore_at = rng.below(busy_cycles);

        let mut t = 0u64;
        loop {
            let cycle = first_cycle + t;
            let feeding = t < busy_cycles;
            if !feeding && reference.is_idle() && pe.is_idle() {
                break;
            }
            prop_assert!(t < busy_cycles + 200_000, "PEs failed to drain");

            if feeding && rng.below(dispatch_one_in) == 0 && reference.has_free_station() {
                prop_assert!(pe.has_free_station());
                let entry = random_entry(&mut rng, home_len);
                if rng.below(2) == 0 {
                    reference.dispatch_planned(entry, &dp, &soa);
                    pe.dispatch_planned(cycle, entry, &dp, &soa);
                    if let Some(r) = resumed.as_mut() {
                        r.dispatch_planned(cycle, entry, &dp, &soa);
                    }
                } else {
                    reference.dispatch(entry);
                    pe.dispatch(cycle, entry);
                    if let Some(r) = resumed.as_mut() {
                        r.dispatch(cycle, entry);
                    }
                }
            }

            // While feeding the FRN port is contended at random; the
            // drain tail gets it every cycle.
            let budget = if feeding { rng.below(2) as u32 } else { 1 };
            let (mut b_ref, mut b_pe) = (budget, budget);
            let r_ref = reference.step(cycle, &dp, &home_elem, &home_concat, &mut ej_ref, &mut b_ref);
            let r_pe = pe.step(cycle, &dp, &home_elem, &home_concat, &mut ej_pe, &mut b_pe);
            prop_assert_eq!(bits(r_pe), bits(r_ref), "cycle {}: retire", t);
            prop_assert_eq!(&ej_pe, &ej_ref, "cycle {}: ejections", t);
            prop_assert_eq!(b_pe, b_ref, "cycle {}: budget", t);
            prop_assert_eq!(pe.is_idle(), reference.is_idle(), "cycle {}: idle", t);
            prop_assert_eq!(pe.has_free_station(), reference.has_free_station(), "cycle {}: free", t);
            prop_assert_eq!(pe.filter_stats(cycle + 1), reference.filter_stats, "cycle {}: filter_stats", t);
            prop_assert_eq!(pe.pe_stats(cycle + 1), reference.pe_stats, "cycle {}: pe_stats", t);
            let bytes = snapshot_at(&pe, cycle + 1);
            prop_assert!(bytes == snapshot_of(&reference), "cycle {}: snapshot bytes", t);

            if let Some(r) = resumed.as_mut() {
                let mut b = budget;
                let r_res = r.step(cycle, &dp, &home_elem, &home_concat, &mut ej_resumed, &mut b);
                prop_assert_eq!(bits(r_res), bits(r_pe), "cycle {}: resumed retire", t);
                prop_assert_eq!(b, b_pe, "cycle {}: resumed budget", t);
                prop_assert!(snapshot_at(r, cycle + 1) == bytes, "cycle {}: resumed snapshot bytes", t);
            } else if t == restore_at {
                let mut fresh = Pe::new(stations, latency, depth);
                let mut reader = Reader::new(&bytes, "pe");
                fresh.restore(&mut reader).expect("restore own snapshot");
                fresh.reset_stats(cycle + 1);
                prop_assert!(reader.is_exhausted());
                prop_assert!(snapshot_at(&fresh, cycle + 1) == bytes, "restore → snapshot round trip");
                ej_resumed = ej_pe.clone();
                resumed = Some(fresh);
            }
            t += 1;
        }
        prop_assert!(resumed.is_some_and(|r| r.is_idle()));
        prop_assert_eq!(&ej_resumed, &ej_pe, "resumed ejection stream");
    }
}
