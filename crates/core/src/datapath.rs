//! The shared numerical datapath: filter + force pipeline arithmetic
//! (paper §3.3–3.4, Fig. 6–7).
//!
//! Both execution models (functional and timed) evaluate pairs with
//! exactly this arithmetic:
//!
//! 1. **Filter** — fixed-point: subtract the RCID-concatenated positions,
//!    square and sum in `Q5.26`, compare against `Rc² = 1` and against the
//!    excluded-region threshold `2^-n_sections`. Pass ⇒ the pair enters
//!    the force pipeline.
//! 2. **Force pipeline** — floating point: convert `r²` to `f32`, look up
//!    `r⁻¹⁴` and `r⁻⁸` by linear interpolation (Eq. 8), combine with the
//!    element-pair coefficients (Eq. 2) and scale the fixed-point
//!    displacement converted to `f32`.
//!
//! Forces accumulate in `f32` (the Force Cache stores "32-bit floating
//! point forces", §3.1).

use crate::config::ChipConfig;
use fasda_arith::fixed::{Fix, FixVec3, FRAC_BITS};
use fasda_arith::float_bits::{fused_index, section_bin, SectionBin};
use fasda_arith::interp::{InterpTable, LjForceTable, TableConfig};
use fasda_md::element::{Element, PairTable};
use fasda_md::ewald::EwaldParams;
use fasda_md::units::UnitSystem;
use std::sync::Arc;

/// A filtered pair ready for force evaluation: fixed-point displacement
/// and squared distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilteredPair {
    /// `r_home − r_neighbour` in concatenated fixed point.
    pub delta: FixVec3,
    /// `|delta|²` in fixed point, guaranteed inside the table domain.
    pub r2: Fix,
}

/// One survivor of a fused filter→force scan: the home slot the
/// comparison landed on and the finished force words, ready to retire.
/// This is the *only* per-hit state the fused kernel
/// ([`ForceDatapath::fused_scan_into`]) materializes — no intermediate
/// [`FilteredPair`] vector exists on that path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanHit {
    /// Home slot of the passing pair.
    pub slot: u16,
    /// Force on the home particle (neighbour gets the negation),
    /// bit-identical to the scalar [`ForceDatapath::force`] result.
    pub force: [f32; 3],
}

/// Structure-of-arrays snapshot of one cell's home particles: the
/// RCID-concatenated coordinates split into per-axis `Q5.26` bit banks
/// plus a dense element array. This is the memory layout the fused scan
/// kernel ([`ForceDatapath::fused_scan_into`]) streams through — three
/// contiguous `i32` lanes instead of an array of `FixVec3` structs — so
/// one station's whole scan runs as a tight, auto-vectorizable loop.
#[derive(Clone, Debug, Default)]
pub struct HomeSoa {
    /// `x` coordinates as raw `Q5.26` bits.
    pub x: Vec<i32>,
    /// `y` coordinates as raw `Q5.26` bits.
    pub y: Vec<i32>,
    /// `z` coordinates as raw `Q5.26` bits.
    pub z: Vec<i32>,
    /// Element of each slot (coefficient-BRAM index source).
    pub elem: Vec<Element>,
}

impl HomeSoa {
    /// Empty banks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the banks from a cell's concatenated snapshot (reuses the
    /// existing allocations; called once per force phase).
    pub fn rebuild(&mut self, elems: &[Element], concat: &[FixVec3]) {
        debug_assert_eq!(elems.len(), concat.len());
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.elem.clear();
        self.x.extend(concat.iter().map(|c| c.x.to_bits()));
        self.y.extend(concat.iter().map(|c| c.y.to_bits()));
        self.z.extend(concat.iter().map(|c| c.z.to_bits()));
        self.elem.extend_from_slice(elems);
    }

    /// Slots stored.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no slots are stored.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// The electrostatic extension of the datapath: the real-space PME
/// kernel tabulated through the same section/bin mechanism as the LJ
/// terms ("the RL force pipelines are nearly identical", §2.1), plus the
/// per-element charge ROM.
#[derive(Clone, Debug)]
struct CoulombPath {
    force_table: InterpTable,
    charge: [f32; Element::COUNT],
}

/// Largest `f32` below `1.0`: the clamp target for filtered `r²` that
/// the 24-bit mantissa rounds up to exactly `Rc² = 1` (see
/// [`ForceDatapath::r2_to_f32`]).
const BELOW_ONE: f32 = 0.999_999_94;

/// The bit-faithful filter + force-pipeline arithmetic.
#[derive(Clone, Debug)]
pub struct ForceDatapath {
    force_table: LjForceTable,
    /// The `r⁻¹⁴` and `r⁻⁸` coefficient words of `force_table`
    /// interleaved as `[a14, b14, a8, b8]` per `(section, bin)`: both
    /// terms share one index, so the hot path fetches one 16-byte record
    /// instead of touching two separate tables. Same words, same
    /// arithmetic — a pure memory-layout change.
    fused_force: Vec<[f32; 4]>,
    coulomb: Option<CoulombPath>,
    /// `[a][b] → (c14, c8)` force coefficients as the `f32` words the
    /// element-indexed coefficient BRAM holds (§3.4).
    force_coeff: [[(f32, f32); Element::COUNT]; Element::COUNT],
    /// Inclusive lower bound of the covered `r²` domain in fixed point.
    min_r2: Fix,
    /// Exclusive upper bound: `Rc² = 1`.
    cutoff_r2: Fix,
}

impl ForceDatapath {
    /// Build the datapath from the physical pair table and a table
    /// geometry.
    pub fn new(pairs: &PairTable, table: TableConfig) -> Self {
        let mut force_coeff = [[(0.0f32, 0.0f32); Element::COUNT]; Element::COUNT];
        for a in Element::ALL {
            for b in Element::ALL {
                let c = pairs.get(a, b);
                force_coeff[a.index()][b.index()] = (c.c14 as f32, c.c8 as f32);
            }
        }
        let force_table = LjForceTable::new(table);
        let fused_force = force_table
            .r14
            .coeffs()
            .iter()
            .zip(force_table.r8.coeffs())
            .map(|(&(a14, b14), &(a8, b8))| [a14, b14, a8, b8])
            .collect();
        ForceDatapath {
            force_table,
            fused_force,
            coulomb: None,
            force_coeff,
            min_r2: Fix::from_f64(table.domain_min()),
            cutoff_r2: Fix::ONE,
        }
    }

    /// The datapath every force pipeline of a chip configuration reads:
    /// the paper tables for `cfg.hw.table`, the electrostatic path if
    /// configured, and the cutoff. Tables are configuration, not state,
    /// so a cluster builds this once and shares it among all its chips
    /// (snapshots never carry it). Both execution models build through
    /// here.
    ///
    /// # Panics
    /// If `cfg` fails [`ChipConfig::validate`].
    pub fn for_chip(cfg: &ChipConfig, units: UnitSystem) -> Arc<Self> {
        cfg.validate().expect("invalid chip config");
        let mut dp = ForceDatapath::new(&PairTable::new(units), cfg.hw.table);
        if let Some(params) = cfg.electrostatics {
            dp = dp.with_electrostatics(params);
        }
        if cfg.cutoff_cells < 1.0 {
            dp = dp.with_cutoff(cfg.cutoff_cells);
        }
        Arc::new(dp)
    }

    /// Whether this datapath has the table geometry, electrostatic path
    /// and cutoff that [`ForceDatapath::for_chip`] builds for `cfg` (the
    /// unit system leaves no trace it could be checked by).
    pub(crate) fn built_for(&self, cfg: &ChipConfig) -> bool {
        let cutoff = if cfg.cutoff_cells < 1.0 {
            Fix::from_f64(cfg.cutoff_cells * cfg.cutoff_cells)
        } else {
            Fix::ONE
        };
        self.force_table.r14.config() == cfg.hw.table
            && self.has_electrostatics() == cfg.electrostatics.is_some()
            && self.cutoff_r2 == cutoff
    }

    /// Extend the pipeline with the real-space PME electrostatic term
    /// (§2.1). The Ewald kernel is tabulated with the *same* section/bin
    /// interpolation as the LJ terms — the "trivial modification" that
    /// retargets the force pipeline to a different model (§3.4).
    pub fn with_electrostatics(mut self, params: EwaldParams) -> Self {
        let cfg = self.force_table.config();
        let mut charge = [0.0f32; Element::COUNT];
        for e in Element::ALL {
            charge[e.index()] = e.charge() as f32;
        }
        self.coulomb = Some(CoulombPath {
            force_table: InterpTable::build_fn(cfg, params.force_kernel()),
            charge,
        });
        self
    }

    /// True when the electrostatic path is configured.
    pub fn has_electrostatics(&self) -> bool {
        self.coulomb.is_some()
    }

    /// Set the filter's cutoff radius in cell units (`0 < c ≤ 1`).
    /// The paper fixes `Rc = cell edge` (Fig. 3: the largest value that
    /// keeps only 26 neighbour cells); smaller values model a cell edge
    /// *larger* than the cutoff, where "unnecessary margins" make the
    /// filters reject more candidates.
    pub fn with_cutoff(mut self, cells: f64) -> Self {
        assert!(
            cells > 0.0 && cells <= 1.0,
            "cutoff must be in (0, 1] cell units"
        );
        self.cutoff_r2 = Fix::from_f64(cells * cells);
        self
    }

    /// The active squared cutoff in cell units.
    pub fn cutoff_sq(&self) -> f64 {
        self.cutoff_r2.to_f64()
    }

    /// The fixed-point pair filter: pass iff
    /// `min_r2 ≤ |a−b|² < Rc²`. `a` and `b` are RCID-concatenated
    /// coordinates. Returns the filtered pair on pass.
    #[inline]
    pub fn filter(&self, home: FixVec3, neighbour: FixVec3) -> Option<FilteredPair> {
        let delta = home.delta(neighbour);
        let r2 = delta.norm_sq();
        if r2 < self.cutoff_r2 && r2 >= self.min_r2 {
            Some(FilteredPair { delta, r2 })
        } else {
            None
        }
    }

    /// The fused filter→force kernel: scan home slots `scan_from..` of
    /// the SoA banks against one neighbour and append a finished
    /// [`ScanHit`] — slot *and* force words — for every passing pair.
    /// Returns the number of comparisons performed (`len − scan_from`).
    ///
    /// This is the streaming-pipeline shape of the paper's hardware
    /// (filter bank feeding the force pipeline with no buffered
    /// intermediate): the `r²` reduction runs branchless over fixed-point
    /// lanes in chunks of 64 (LLVM vectorizes the `i64` squares 8 wide),
    /// the pass predicate is compressed into one `u64` mask per chunk,
    /// and survivors — extracted by bit-iteration, so the dense lane loop
    /// never branches — flow straight into the interpolation: branchless
    /// section/bin decode ([`fused_index`]) into the `[a14, b14, a8, b8]`
    /// fused coefficient record, two interpolation FMAs, element
    /// coefficients, delta scaling. Nothing is materialized between the
    /// stages: no [`FilteredPair`] vector, no second pass over hits.
    ///
    /// Bit-identical to the scalar `filter()` + `force()` composition:
    /// the same wrapping subtracts, DSP-truncating squares and wrapping
    /// sums on the raw `Q5.26` bits, the same threshold compares, and the
    /// same `f32` operations in the same order as [`ForceDatapath::force`]
    /// (pinned by the `soa_kernels` property tests).
    pub fn fused_scan_into(
        &self,
        home: &HomeSoa,
        nbr: FixVec3,
        nbr_elem: Element,
        scan_from: u16,
        hits: &mut Vec<ScanHit>,
    ) -> u64 {
        const CHUNK: usize = 64;
        let n = home.len();
        let from = (scan_from as usize).min(n);
        let (nx, ny, nz) = (nbr.x.to_bits(), nbr.y.to_bits(), nbr.z.to_bits());
        let lo = self.min_r2.to_bits();
        let hi = self.cutoff_r2.to_bits();
        let cfg = self.force_table.config();
        let (n_sections, log2_bins) = (cfg.n_sections, cfg.log2_bins);
        let sq = |d: i32| (((d as i64) * (d as i64)) >> FRAC_BITS) as i32;
        let mut r2s = [0i32; CHUNK];
        let mut base = from;
        while base < n {
            let len = (n - base).min(CHUNK);
            let xs = &home.x[base..base + len];
            let ys = &home.y[base..base + len];
            let zs = &home.z[base..base + len];
            // Stage 1: branchless r² lanes + compressed pass mask. The
            // predicate is folded into the mask instead of a conditional
            // push, so the loop has no data-dependent control flow.
            let mut mask = 0u64;
            for i in 0..len {
                let r2 = sq(xs[i].wrapping_sub(nx))
                    .wrapping_add(sq(ys[i].wrapping_sub(ny)))
                    .wrapping_add(sq(zs[i].wrapping_sub(nz)));
                r2s[i] = r2;
                mask |= u64::from(r2 >= lo && r2 < hi) << i;
            }
            if mask == 0 {
                base += len;
                continue;
            }
            // Stage 2a, dense chunks on the LJ-only pipeline: evaluate
            // the force on **every** lane unconditionally — clamp,
            // branchless section/bin decode, coefficient gather, the two
            // interpolation FMAs, element coefficients, delta scaling —
            // then compress through the pass mask. The lane loop has no
            // data-dependent control flow at all, so it vectorizes like
            // the r² pass; discarded lanes compute garbage that the mask
            // walk never reads (their table index is clamped into range
            // purely for memory safety). Surviving lanes execute exactly
            // the scalar op sequence of [`ForceDatapath::force`], so the
            // words pushed are bit-identical to the survivor walk below.
            //
            // Below ~1/4 occupancy the unconditional evaluation wastes
            // more than the mask walk's serial chain costs, so sparse
            // chunks (and the electrostatic pipeline, whose `eval_filtered`
            // call does not flatten into lanes) keep the survivor walk.
            // Both paths produce identical bits; the choice is pure
            // throughput and depends only on deterministic state.
            if self.coulomb.is_none() && mask.count_ones() as usize * 4 >= len {
                let mut rfs = [0.0f32; CHUNK];
                let mut idxs = [0u32; CHUNK];
                let mut scales = [0.0f32; CHUNK];
                let bin_mask = (1u32 << log2_bins) - 1;
                let top = (self.fused_force.len() - 1) as u32;
                let nbr_col = nbr_elem.index();
                let elems = &home.elem[base..base + len];
                // Clamp + branchless section/bin decode, pure int/float
                // lane ops (no loads beyond the lane arrays).
                for i in 0..len {
                    let v = Fix::from_bits(r2s[i]).to_f32();
                    let rf = if v >= 1.0 { BELOW_ONE } else { v };
                    let bits = rf.to_bits();
                    // Inline [`fused_index`]: identical bit-slicing for
                    // in-domain lanes, wrapping + clamped for the
                    // discarded ones (whose r² can be anything).
                    let section = (((bits >> 23) & 0xff) as i32)
                        .wrapping_sub(127)
                        .wrapping_add(n_sections as i32) as u32;
                    let bin = (bits >> (23 - log2_bins)) & bin_mask;
                    rfs[i] = rf;
                    idxs[i] = ((section << log2_bins) | bin).min(top);
                }
                // The two table gathers + interpolation FMAs, isolated so
                // the indexed loads don't stop the other loops from
                // vectorizing.
                for i in 0..len {
                    let c = self.fused_force[idxs[i] as usize];
                    let (r14, r8) = (c[0] * rfs[i] + c[1], c[2] * rfs[i] + c[3]);
                    let (c14, c8) = self.force_coeff[elems[i].index()][nbr_col];
                    scales[i] = c14 * r14 - c8 * r8;
                }
                // Delta scaling: subtract/convert/multiply lanes.
                let (fx, fy, fz) = (&mut rfs, &mut [0.0f32; CHUNK], &mut [0.0f32; CHUNK]);
                for i in 0..len {
                    fx[i] = scales[i] * Fix::from_bits(xs[i].wrapping_sub(nx)).to_f32();
                    fy[i] = scales[i] * Fix::from_bits(ys[i].wrapping_sub(ny)).to_f32();
                    fz[i] = scales[i] * Fix::from_bits(zs[i].wrapping_sub(nz)).to_f32();
                }
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    hits.push(ScanHit {
                        slot: (base + i) as u16,
                        force: [fx[i], fy[i], fz[i]],
                    });
                }
                base += len;
                continue;
            }
            // Stage 2b: survivors only, straight into the interpolation.
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let slot = base + i;
                let r2 = self.r2_to_f32(Fix::from_bits(r2s[i]));
                let c = self.fused_force[fused_index(r2, n_sections, log2_bins) as usize];
                let (r14, r8) = (c[0] * r2 + c[1], c[2] * r2 + c[3]);
                let (c14, c8) = self.force_coeff[home.elem[slot].index()][nbr_elem.index()];
                let mut scale = c14 * r14 - c8 * r8;
                if let Some(cl) = &self.coulomb {
                    let qq = cl.charge[home.elem[slot].index()] * cl.charge[nbr_elem.index()];
                    if qq != 0.0 {
                        scale += qq * cl.force_table.eval_filtered(r2);
                    }
                }
                let dx = Fix::from_bits(xs[i].wrapping_sub(nx)).to_f32();
                let dy = Fix::from_bits(ys[i].wrapping_sub(ny)).to_f32();
                let dz = Fix::from_bits(zs[i].wrapping_sub(nz)).to_f32();
                hits.push(ScanHit {
                    slot: slot as u16,
                    force: [scale * dx, scale * dy, scale * dz],
                });
            }
            base += len;
        }
        (n - from) as u64
    }

    /// Convert a filtered fixed-point `r²` to the force pipeline's `f32`.
    /// The filter guarantees `r² < Rc²` on the `Q5.26` grid, but `f32` has
    /// only a 24-bit mantissa, so a passing value within `2⁻²⁶` of the
    /// cutoff can round *up* to exactly `Rc²` — outside the table domain.
    /// Clamp such pairs into the last interpolation bin, as the hardware's
    /// table addressing does.
    #[inline]
    fn r2_to_f32(&self, r2: Fix) -> f32 {
        let v = r2.to_f32();
        if v >= 1.0 {
            BELOW_ONE
        } else {
            v
        }
    }

    /// Force-pipeline body: force **on the home particle** of the pair,
    /// in kcal/mol/cell as `f32`. The neighbour receives the negation
    /// (Newton's third law, applied by the caller).
    #[inline]
    pub fn force(&self, home_elem: Element, nbr_elem: Element, pair: FilteredPair) -> [f32; 3] {
        let r2 = self.r2_to_f32(pair.r2);
        let cfg = self.force_table.config();
        let (r14, r8) = match section_bin(r2, cfg.n_sections, cfg.log2_bins) {
            SectionBin::In { section, bin } => {
                let c = self.fused_force[(section << cfg.log2_bins | bin) as usize];
                (c[0] * r2 + c[1], c[2] * r2 + c[3])
            }
            out => {
                debug_assert!(false, "unfiltered r²={r2} reached force pipeline: {out:?}");
                (0.0, 0.0)
            }
        };
        let (c14, c8) = self.force_coeff[home_elem.index()][nbr_elem.index()];
        let mut scale = c14 * r14 - c8 * r8;
        if let Some(c) = &self.coulomb {
            let qq = c.charge[home_elem.index()] * c.charge[nbr_elem.index()];
            if qq != 0.0 {
                scale += qq * c.force_table.eval_filtered(r2);
            }
        }
        let [dx, dy, dz] = pair.delta.to_f32();
        [scale * dx, scale * dy, scale * dz]
    }

    /// Concatenate an RCID with an in-cell offset (§4.2): coordinate
    /// value `rcid + offset`, RCID ∈ {1,2,3}.
    #[inline]
    pub fn concat(rcid: (u8, u8, u8), offset: FixVec3) -> FixVec3 {
        debug_assert!(offset.x.is_cell_offset() && offset.y.is_cell_offset() && offset.z.is_cell_offset());
        let f = |r: u8, o: Fix| -> Fix {
            debug_assert!((1..=3).contains(&r), "RCID component {r} out of range");
            Fix::from_bits((r as i32) << fasda_arith::fixed::FRAC_BITS) + o
        };
        FixVec3::new(
            f(rcid.0, offset.x),
            f(rcid.1, offset.y),
            f(rcid.2, offset.z),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasda_md::units::UnitSystem;

    fn dp() -> ForceDatapath {
        ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER)
    }

    fn concat_home(off: [f64; 3]) -> FixVec3 {
        ForceDatapath::concat(
            (2, 2, 2),
            FixVec3::from_f64(off[0], off[1], off[2]),
        )
    }

    #[test]
    fn filter_passes_within_cutoff() {
        let d = dp();
        let a = concat_home([0.5, 0.5, 0.5]);
        let b = concat_home([0.9, 0.5, 0.5]);
        let p = d.filter(a, b).expect("r=0.4 passes");
        assert!((p.r2.to_f64() - 0.16).abs() < 1e-6);
        assert!((p.delta.x.to_f64() + 0.4).abs() < 1e-6);
    }

    #[test]
    fn filter_rejects_at_and_beyond_cutoff() {
        let d = dp();
        let a = concat_home([0.0, 0.0, 0.0]);
        // neighbour cell at +x: rcid (3,2,2), offset 0 → distance exactly 1
        let b = ForceDatapath::concat((3, 2, 2), FixVec3::ZERO);
        assert!(d.filter(a, b).is_none(), "r = Rc must be rejected");
        let c = ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.5, 0.0, 0.0));
        assert!(d.filter(a, c).is_none(), "r = 1.5 rejected");
    }

    #[test]
    fn filter_rejects_excluded_region() {
        let d = dp();
        let a = concat_home([0.5, 0.5, 0.5]);
        let b = concat_home([0.5 + 1e-4, 0.5, 0.5]);
        assert!(d.filter(a, b).is_none(), "r=1e-4 is in the excluded region");
        // self-pair distance 0 is also excluded
        assert!(d.filter(a, a).is_none());
    }

    #[test]
    fn force_matches_exact_lj_within_table_error() {
        let d = dp();
        let pairs = PairTable::new(UnitSystem::PAPER);
        for r in [0.3f64, 0.35, 0.45, 0.6, 0.8, 0.95] {
            let a = concat_home([0.0, 0.2, 0.2]);
            let off_b = [r, 0.2, 0.2];
            let b = concat_home(off_b);
            let p = d.filter(a, b).unwrap();
            let f = d.force(Element::Na, Element::Na, p);
            // exact: force on home = s·(r_home − r_nbr); home at x=0, nbr at x=r
            let s = pairs.force_scale(Element::Na, Element::Na, r * r);
            let want = s * (0.0 - r);
            let got = f[0] as f64;
            let tol = want.abs().max(1e-6) * 5e-3;
            assert!(
                (got - want).abs() < tol,
                "r={r}: got {got}, want {want}"
            );
            assert!(f[1].abs() < 1e-9 && f[2].abs() < 1e-9);
        }
    }

    #[test]
    fn force_antisymmetric_under_swap() {
        let d = dp();
        let a = concat_home([0.1, 0.6, 0.3]);
        let b = concat_home([0.5, 0.4, 0.8]);
        let pab = d.filter(a, b).unwrap();
        let pba = d.filter(b, a).unwrap();
        let fab = d.force(Element::Na, Element::Na, pab);
        let fba = d.force(Element::Na, Element::Na, pba);
        for k in 0..3 {
            assert_eq!(fab[k], -fba[k], "component {k}");
        }
    }

    #[test]
    fn concat_rejects_bad_rcid_in_debug() {
        // Valid construction with all three RCID extremes.
        let v = ForceDatapath::concat((1, 2, 3), FixVec3::from_f64(0.25, 0.5, 0.75));
        assert_eq!(v.to_f64(), [1.25, 2.5, 3.75]);
    }

    #[test]
    fn electrostatic_path_adds_coulomb_force() {
        use fasda_md::ewald::EwaldParams;
        use fasda_md::units::UnitSystem;
        let params = EwaldParams::standard(UnitSystem::PAPER);
        let d = ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER)
            .with_electrostatics(params);
        assert!(d.has_electrostatics());
        let a = concat_home([0.0, 0.0, 0.0]);
        let b = concat_home([0.4, 0.0, 0.0]);
        let p = d.filter(a, b).unwrap();
        // like charges add repulsion relative to neutral LJ
        let f_neutral = d.force(Element::Na, Element::Na, p)[0];
        let f_like = d.force(Element::NaPlus, Element::NaPlus, p)[0];
        let f_unlike = d.force(Element::NaPlus, Element::ClMinus, p)[0];
        // home at x=0, neighbour at x=0.4 → repulsion pushes home in -x
        assert!(f_like < f_neutral, "like charges more repulsive");
        assert!(f_unlike > f_neutral - 1.0 && f_unlike > f_like, "opposite charges attract");
        // magnitude matches the exact Ewald term within table error
        let exact = params.force_scale_unit(p.r2.to_f64()) * (0.0 - 0.4);
        let got = f_like as f64 - f_neutral as f64;
        assert!(
            ((got - exact) / exact).abs() < 5e-3,
            "coulomb term {got} vs exact {exact}"
        );
    }

    #[test]
    fn cross_element_uses_mixed_coefficients() {
        let d = dp();
        let a = concat_home([0.0, 0.0, 0.0]);
        let b = concat_home([0.45, 0.0, 0.0]);
        let p = d.filter(a, b).unwrap();
        let f_na_na = d.force(Element::Na, Element::Na, p)[0];
        let f_na_ar = d.force(Element::Na, Element::Ar, p)[0];
        assert_ne!(f_na_na, f_na_ar, "element lookup must differentiate pairs");
    }

    /// `InterpTable::build_fn` evaluates `f` once per bin edge; every
    /// coefficient word equals the per-bin formula that evaluates both
    /// edges of every bin, for both LJ force tables and the Ewald force
    /// kernel, at the paper geometry and one other.
    #[test]
    fn table_builder_matches_the_two_evaluation_formula() {
        use fasda_arith::float_bits::{bin_lower_edge, bin_upper_edge};
        use fasda_arith::interp::LjForceTable;
        use fasda_md::ewald::EwaldParams;
        use fasda_md::units::UnitSystem;
        fn two_evaluations(cfg: TableConfig, f: &dyn Fn(f64) -> f64) -> Vec<(u32, u32)> {
            let mut words = Vec::new();
            for s in 0..cfg.n_sections {
                for b in 0..cfg.bins() {
                    let x0 = bin_lower_edge(s, b, cfg.n_sections, cfg.log2_bins);
                    let x1 = bin_upper_edge(s, b, cfg.n_sections, cfg.log2_bins);
                    let (y0, y1) = (f(x0), f(x1));
                    let a = (y1 - y0) / (x1 - x0);
                    let c = y0 - a * x0;
                    words.push(((a as f32).to_bits(), (c as f32).to_bits()));
                }
            }
            words
        }
        let bits = |t: &InterpTable| -> Vec<(u32, u32)> {
            t.coeffs().iter().map(|&(a, c)| (a.to_bits(), c.to_bits())).collect()
        };
        let ewald = EwaldParams::standard(UnitSystem::PAPER);
        let force = ewald.force_kernel();
        let r_pow = |alpha: u32| move |x: f64| x.powf(-(alpha as f64) / 2.0);
        for cfg in [TableConfig::PAPER, TableConfig { n_sections: 9, log2_bins: 5 }] {
            let lj_f = LjForceTable::new(cfg);
            let check = |name: &str, table: &InterpTable, f: &dyn Fn(f64) -> f64| {
                assert_eq!(table.coeffs().len(), cfg.entries(), "{name} {cfg:?}");
                assert!(bits(table) == two_evaluations(cfg, f), "{name} {cfg:?}: a word moved");
            };
            check("r14", &lj_f.r14, &r_pow(14));
            check("r8", &lj_f.r8, &r_pow(8));
            check("ewald force", &InterpTable::build_fn(cfg, &force), &force);
        }
    }
}
