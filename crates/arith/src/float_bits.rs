//! Section/bin index extraction from `f32` bit fields (paper Eqs. 9–10).
//!
//! The interpolation scheme divides the domain of `r²` into `n_s` sections
//! "based on the exponent bits of `r²`", each split into `n_b` regular bins
//! "based on the mantissa bits of `r²`":
//!
//! ```text
//! s = ⌊log₂(r²)⌋ + n_s                        (Eq. 9)
//! b = ⌊(2^(n_s − s) · r² − 1) · n_b⌋           (Eq. 10)
//! ```
//!
//! With the cutoff radius normalized to 1 (§3.4), valid pair distances give
//! `r² ∈ (0, 1)`, so `⌊log₂ r²⌋ ∈ {-1, -2, …}` and sections `s = n_s - 1,
//! n_s - 2, …` count down toward the excluded small-`r` region (Fig. 7).
//! On hardware both indices are raw bit slices of the IEEE-754 word; we do
//! exactly that here.

/// A decoded `(section, bin)` pair, or the two out-of-range conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionBin {
    /// `r²` falls inside the covered domain: use `table[section][bin]`.
    In { section: u32, bin: u32 },
    /// `r²` is below the smallest covered section — the non-physical
    /// high-energy region excluded in Fig. 7.
    BelowRange,
    /// `r²` is at or above the cutoff (`r² ≥ Rc² = 1`): pair contributes
    /// no force (it should have been dropped by the filter).
    AboveRange,
}

/// Extract the section and bin indices of `r2` for a table with
/// `n_sections` sections and `2^log2_bins` bins per section.
///
/// `r2` must be a positive, finite, normal `f32`; the force datapath
/// guarantees this because the filter excludes `r² = 0` (a particle is
/// never paired with itself) and the fixed-point grid cannot produce
/// subnormals above the excluded region.
#[inline]
pub fn section_bin(r2: f32, n_sections: u32, log2_bins: u32) -> SectionBin {
    debug_assert!(r2 > 0.0 && r2.is_finite(), "r2 must be positive finite");
    let bits = r2.to_bits();
    let exp = ((bits >> 23) & 0xff) as i32 - 127; // unbiased exponent = ⌊log₂ r²⌋
    let section = exp + n_sections as i32; // Eq. 9
    if section < 0 {
        return SectionBin::BelowRange;
    }
    if section >= n_sections as i32 {
        return SectionBin::AboveRange;
    }
    // Eq. 10: the top `log2_bins` mantissa bits are ⌊(m − 1)·n_b⌋ for
    // mantissa m ∈ [1, 2).
    let bin = (bits >> (23 - log2_bins)) & ((1u32 << log2_bins) - 1);
    SectionBin::In {
        section: section as u32,
        bin,
    }
}

/// Branchless flattened `(section << log2_bins) | bin` index for an `r²`
/// already proven inside the covered domain `[2^-n_sections, 1)` — the
/// guarantee the fixed-point filter provides. Pure bit-slicing of the
/// IEEE-754 word, no range branches: the hot fused filter→force kernel
/// uses this so the table fetch never mispredicts, while the scalar
/// [`section_bin`] keeps the checked decode as the oracle.
///
/// Produces exactly `section << log2_bins | bin` of the
/// [`SectionBin::In`] arm of [`section_bin`] for every in-domain value
/// (debug-asserted).
#[inline]
pub fn fused_index(r2: f32, n_sections: u32, log2_bins: u32) -> u32 {
    let bits = r2.to_bits();
    // Unbiased exponent + n_sections = Eq. 9's section, guaranteed in
    // [0, n_sections) by the filter; wrapping arithmetic on the raw
    // field is safe because the guarantee makes it non-negative.
    let section = (((bits >> 23) & 0xff) as i32 - 127 + n_sections as i32) as u32;
    let bin = (bits >> (23 - log2_bins)) & ((1u32 << log2_bins) - 1);
    let idx = (section << log2_bins) | bin;
    debug_assert_eq!(
        match section_bin(r2, n_sections, log2_bins) {
            SectionBin::In { section, bin } => Some((section << log2_bins) | bin),
            _ => None,
        },
        Some(idx),
        "fused_index called with out-of-domain r2={r2}"
    );
    idx
}

/// Lower edge of a `(section, bin)` cell in `r²` space.
#[inline]
pub fn bin_lower_edge(section: u32, bin: u32, n_sections: u32, log2_bins: u32) -> f64 {
    let exp = section as i32 - n_sections as i32;
    let base = (exp as f64).exp2();
    let n_b = (1u64 << log2_bins) as f64;
    base * (1.0 + bin as f64 / n_b)
}

/// Upper edge of a `(section, bin)` cell in `r²` space. Only tests call
/// it: `section_bin_brackets` and the datapath's table-builder test check
/// production binning and coefficients against it.
#[inline]
pub fn bin_upper_edge(section: u32, bin: u32, n_sections: u32, log2_bins: u32) -> f64 {
    bin_lower_edge(section, bin + 1, n_sections, log2_bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u32 = 14;
    const LB: u32 = 8; // 256 bins

    #[test]
    fn last_section_covers_half_to_one() {
        // r² ∈ [0.5, 1) is the top section, s = n_s - 1
        for r2 in [0.5f32, 0.6, 0.75, 0.999_999] {
            match section_bin(r2, NS, LB) {
                SectionBin::In { section, .. } => assert_eq!(section, NS - 1, "r2={r2}"),
                other => panic!("r2={r2}: {other:?}"),
            }
        }
    }

    #[test]
    fn at_cutoff_is_above_range() {
        assert_eq!(section_bin(1.0, NS, LB), SectionBin::AboveRange);
        assert_eq!(section_bin(2.5, NS, LB), SectionBin::AboveRange);
    }

    #[test]
    fn below_smallest_section_is_below_range() {
        let tiny = (2.0f32).powi(-(NS as i32) - 1);
        assert_eq!(section_bin(tiny, NS, LB), SectionBin::BelowRange);
        // Exactly at the lower domain edge is in range (section 0).
        let edge = (2.0f32).powi(-(NS as i32));
        assert_eq!(
            section_bin(edge, NS, LB),
            SectionBin::In { section: 0, bin: 0 }
        );
    }

    #[test]
    fn bin_index_matches_formula() {
        // pick r² = 0.5 * (1 + 37.5/256) → section NS-1, bin 37
        let m = 1.0 + 37.5 / 256.0;
        let r2 = 0.5f32 * m as f32;
        match section_bin(r2, NS, LB) {
            SectionBin::In { section, bin } => {
                assert_eq!(section, NS - 1);
                assert_eq!(bin, 37);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn edges_bracket_value() {
        for &r2 in &[0.013f32, 0.11, 0.51, 0.97, 0.25001] {
            if let SectionBin::In { section, bin } = section_bin(r2, NS, LB) {
                let lo = bin_lower_edge(section, bin, NS, LB);
                let hi = bin_upper_edge(section, bin, NS, LB);
                assert!(
                    lo <= r2 as f64 && (r2 as f64) < hi,
                    "r2={r2} not in [{lo},{hi})"
                );
            } else {
                panic!("expected in-range");
            }
        }
    }

    #[test]
    fn fused_index_matches_checked_decode() {
        // Sweep the whole covered domain [2^-NS, 1): every in-range value
        // must produce the identical flattened index by both decoders.
        let mut r2 = (2.0f32).powi(-(NS as i32));
        while r2 < 1.0 {
            match section_bin(r2, NS, LB) {
                SectionBin::In { section, bin } => {
                    assert_eq!(fused_index(r2, NS, LB), (section << LB) | bin, "r2={r2}");
                }
                other => panic!("r2={r2} should be in range: {other:?}"),
            }
            // Step by ~1/3 bin so every section/bin cell is visited.
            r2 *= 1.0 + 1.0 / (3.0 * (1u32 << LB) as f32);
        }
        // Both domain edges exactly.
        let lo = (2.0f32).powi(-(NS as i32));
        assert_eq!(fused_index(lo, NS, LB), 0);
        let below_one = f32::from_bits(1.0f32.to_bits() - 1);
        assert_eq!(
            fused_index(below_one, NS, LB),
            ((NS - 1) << LB) | ((1 << LB) - 1)
        );
    }

    #[test]
    fn section_matches_floor_log2() {
        for &r2 in &[0.9f32, 0.5, 0.49999, 0.26, 0.25, 0.1, 1.0e-3, 7.0e-5] {
            if let SectionBin::In { section, .. } = section_bin(r2, NS, LB) {
                let expect = (r2 as f64).log2().floor() as i32 + NS as i32;
                assert_eq!(section as i32, expect, "r2={r2}");
            }
        }
    }
}
