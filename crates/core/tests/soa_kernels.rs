//! The fused SoA scan kernel vs the scalar reference datapath.
//!
//! `ForceDatapath::fused_scan_into` must reproduce the scalar
//! `filter()`/`force()` walk **exactly** — same hit slots, bit-equal
//! `f32` force words — over randomized RCID-concatenated positions and
//! element pairs. Tolerance comparisons
//! would hide exactly the class of bug (a reordered fixed-point
//! truncation, an f32 contraction) that breaks the engine's
//! bit-identity guarantee.

use fasda_arith::fixed::{Fix, FixVec3};
use fasda_arith::interp::TableConfig;
use fasda_core::datapath::{ForceDatapath, HomeSoa};
use fasda_md::element::{Element, PairTable};
use fasda_md::units::UnitSystem;
use proptest::prelude::*;

fn dp() -> ForceDatapath {
    ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER)
}

fn elem(i: u8) -> Element {
    Element::ALL[i as usize % Element::ALL.len()]
}

/// Scalar filter()+force() walk over `home`: the (slot, force) pairs
/// the fused kernel must reproduce bit-for-bit.
fn scalar_walk(
    dp: &ForceDatapath,
    elems: &[Element],
    concat: &[FixVec3],
    nbr: FixVec3,
    nbr_elem: Element,
    scan_from: u16,
) -> Vec<(u16, [f32; 3])> {
    let mut out = Vec::new();
    for i in scan_from as usize..concat.len() {
        if let Some(pair) = dp.filter(concat[i], nbr) {
            out.push((i as u16, dp.force(elems[i], nbr_elem, pair)));
        }
    }
    out
}

/// Assert the fused scan reproduces the scalar walk exactly.
fn assert_fused_matches(
    dp: &ForceDatapath,
    elems: &[Element],
    concat: &[FixVec3],
    nbr: FixVec3,
    nbr_elem: Element,
    scan_from: u16,
) {
    let want = scalar_walk(dp, elems, concat, nbr, nbr_elem, scan_from);
    let mut soa = HomeSoa::new();
    soa.rebuild(elems, concat);
    let mut hits = Vec::new();
    let compared = dp.fused_scan_into(&soa, nbr, nbr_elem, scan_from, &mut hits);
    assert_eq!(
        compared,
        (concat.len() - (scan_from as usize).min(concat.len())) as u64,
        "fused scan must report the scalar comparison count"
    );
    assert_eq!(hits.len(), want.len(), "hit count differs from scalar walk");
    for (hit, (want_slot, want_force)) in hits.iter().zip(&want) {
        assert_eq!(hit.slot, *want_slot);
        #[allow(clippy::needless_range_loop)] // k names the component in the assert message
        for k in 0..3 {
            assert_eq!(
                hit.force[k].to_bits(),
                want_force[k].to_bits(),
                "force component {k} differs at slot {}: {} vs {}",
                hit.slot,
                hit.force[k],
                want_force[k]
            );
        }
    }
}

proptest! {
    /// The fused filter→force kernel reproduces the scalar
    /// filter()+force() walk bit-for-bit: same hit slots, bit-equal
    /// force words, scalar comparison count.
    #[test]
    fn fused_scan_matches_scalar(
        home in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..8), 0..40),
        nbr in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        rcid in (1u8..4, 1u8..4, 1u8..4),
        nbr_elem_idx in 0u8..8,
        scan_seed in 0usize..64,
    ) {
        let dp = dp();
        let elems: Vec<Element> = home.iter().map(|&(_, _, _, e)| elem(e)).collect();
        let concat: Vec<FixVec3> = home
            .iter()
            .map(|&(x, y, z, _)| {
                ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(x, y, z))
            })
            .collect();
        let nbr_concat =
            ForceDatapath::concat(rcid, FixVec3::from_f64(nbr.0, nbr.1, nbr.2));
        let scan_from = (scan_seed % (home.len() + 1)) as u16;
        assert_fused_matches(&dp, &elems, &concat, nbr_concat, elem(nbr_elem_idx), scan_from);
    }

    /// Rebuilding the SoA banks is a faithful transposition.
    #[test]
    fn soa_rebuild_roundtrips(
        home in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..8), 0..40),
    ) {
        let elems: Vec<Element> = home.iter().map(|&(_, _, _, e)| elem(e)).collect();
        let concat: Vec<FixVec3> = home
            .iter()
            .map(|&(x, y, z, _)| {
                ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(x, y, z))
            })
            .collect();
        let mut soa = HomeSoa::new();
        // Rebuild twice: the second build must fully overwrite the first.
        soa.rebuild(&[], &[]);
        soa.rebuild(&elems, &concat);
        prop_assert_eq!(soa.len(), concat.len());
        prop_assert_eq!(soa.is_empty(), concat.is_empty());
        for i in 0..concat.len() {
            prop_assert_eq!(soa.x[i], concat[i].x.to_bits());
            prop_assert_eq!(soa.y[i], concat[i].y.to_bits());
            prop_assert_eq!(soa.z[i], concat[i].z.to_bits());
            prop_assert_eq!(soa.elem[i], elems[i]);
        }
    }
}

/// Smallest non-negative delta whose DSP-truncating square
/// `(d² >> FRAC_BITS)` lands exactly on `target`, if one exists.
fn delta_for_sq(target: i32) -> Option<i32> {
    let t = i64::from(target);
    let mut d = ((t << 26) as f64).sqrt() as i64;
    while d > 0 && (d * d) >> 26 >= t {
        d -= 1;
    }
    while (d * d) >> 26 < t {
        d += 1;
    }
    ((d * d) >> 26 == t).then_some(d as i32)
}

/// Split a target r² into two per-axis deltas whose truncating squares
/// sum to it exactly. Near the cutoff a single axis cannot always land
/// on the target (consecutive squares step by 2 ulps there), so spill
/// up to 4 ulps onto the second axis.
fn deltas_for_r2(target: i32) -> (i32, i32) {
    for spill in 0..=4 {
        if let (Some(dx), Some(dy)) = (delta_for_sq(target - spill), delta_for_sq(spill)) {
            return (dx, dy);
        }
    }
    panic!("no delta decomposition for r2 bits {target}");
}

/// Boundary pairs: the filter keeps `min_r2 ≤ r² < cutoff_r2`, so the
/// fused kernel must agree with the scalar walk at `r² == min_r2`
/// (kept), one bit below it (rejected), one bit below `cutoff_r2`
/// (kept — this lands in the table's last bin and exercises the
/// below-1.0 f32 clamp), and at `cutoff_r2` exactly (rejected).
#[test]
fn fused_scan_boundary_pairs() {
    let dp = dp();
    let min_bits = Fix::from_f64(TableConfig::PAPER.domain_min()).to_bits();
    let cutoff_bits = Fix::ONE.to_bits();
    let cases = [
        (min_bits, true),
        (min_bits - 1, false),
        (cutoff_bits - 1, true),
        (cutoff_bits, false),
    ];
    let nbr = FixVec3 { x: Fix::from_bits(0), y: Fix::from_bits(0), z: Fix::from_bits(0) };
    for (r2_bits, keep) in cases {
        let (dx, dy) = deltas_for_r2(r2_bits);
        let home = vec![FixVec3 {
            x: Fix::from_bits(dx),
            y: Fix::from_bits(dy),
            z: Fix::from_bits(0),
        }];
        let elems = vec![Element::ALL[0]];

        // The construction itself must land on the boundary bit pattern.
        let pair = dp.filter(home[0], nbr);
        assert_eq!(pair.is_some(), keep, "scalar filter at r2 bits {r2_bits}");
        if let Some(p) = pair {
            assert_eq!(p.r2.to_bits(), r2_bits, "constructed r2 missed its target");
        }
        assert_fused_matches(&dp, &elems, &home, nbr, Element::ALL[1], 0);
    }
}

/// Chunk-tail lengths: the fused kernel walks home in 64-wide chunks,
/// so an empty scan, a one-short chunk, an exact chunk, and a
/// one-element tail must all reproduce the scalar walk.
#[test]
fn fused_scan_chunk_tails() {
    let dp = dp();
    for n in [0usize, 1, 63, 64, 65, 129] {
        let mut state = 0x5DA_F00Du64;
        let mut rng = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let concat: Vec<FixVec3> = (0..n)
            .map(|_| ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(rng(), rng(), rng())))
            .collect();
        let elems: Vec<Element> = (0..n).map(|i| elem(i as u8)).collect();
        let nbr = ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.12, 0.43, 0.77));
        for scan_from in [0, n / 2, n] {
            assert_fused_matches(&dp, &elems, &concat, nbr, Element::ALL[2], scan_from as u16);
        }
    }
}
