//! Linear interpolation tables for `r^-α` (paper §3.4, Eq. 8, Fig. 7).
//!
//! Instead of computing the `r⁻¹⁴` and `r⁻⁸` force terms directly, FASDA
//! evaluates
//!
//! ```text
//! r^-α = a_α(s, b) · r² + b_α(s, b)            (Eq. 8)
//! ```
//!
//! where `(s, b)` are the section/bin indices extracted from the bits of
//! `r²` (see [`crate::float_bits`]). The coefficients make the interpolant
//! exact at every bin edge, so the error inside a bin is the classic
//! second-derivative bound and shrinks quadratically with the bin count —
//! the knob exposed to users as [`TableConfig`] and swept by the
//! `ablate_interp` harness.
//!
//! A further benefit noted by the paper is generality: "different force
//! models \[can\] be implemented with trivial modification" — any smooth
//! `f(r²)` can be tabulated via [`InterpTable::build_fn`].

use crate::float_bits::{bin_lower_edge, section_bin, SectionBin};

/// Table geometry: how the `r² ∈ [2^-n_sections, 1)` domain is cut up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableConfig {
    /// Number of exponent sections (`n_s` in Eq. 9). The covered domain is
    /// `r² ∈ [2^-n_sections, 1)`; smaller `r²` is the excluded non-physical
    /// region of Fig. 7.
    pub n_sections: u32,
    /// Log₂ of the bins per section (`n_b = 2^log2_bins`, Eq. 10).
    pub log2_bins: u32,
}

impl TableConfig {
    /// The configuration used throughout the paper-scale experiments:
    /// 14 sections × 256 bins. 14 sections put the excluded region at
    /// `r² < 2⁻¹⁴` (`r < 0.0078` cells ≈ 0.066 Å at 8.5 Å cells), safely
    /// below any physical pair distance, while 256 bins keep the worst
    /// relative force error near 1e-4 (the second-derivative bound
    /// `(α/2)(α/2+1)/8 · n_b⁻²` for `α = 14`).
    pub const PAPER: TableConfig = TableConfig {
        n_sections: 14,
        log2_bins: 8,
    };

    /// Bins per section.
    #[inline]
    pub fn bins(&self) -> u32 {
        1 << self.log2_bins
    }

    /// Total number of `(a, b)` coefficient pairs.
    #[inline]
    pub fn entries(&self) -> usize {
        (self.n_sections * self.bins()) as usize
    }

    /// Lower edge of the covered `r²` domain.
    #[inline]
    pub fn domain_min(&self) -> f64 {
        (-(self.n_sections as f64)).exp2()
    }

    /// BRAM footprint of one table in bits (two `f32` words per entry),
    /// used by the resource model.
    #[inline]
    pub fn storage_bits(&self) -> u64 {
        self.entries() as u64 * 64
    }
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig::PAPER
    }
}

/// Evaluation failures — only reachable when the caller bypasses the
/// pair filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// `r²` in the excluded non-physical region (`r² < 2^-n_sections`).
    BelowRange,
    /// `r²` at or beyond the cutoff (`r² ≥ 1`).
    AboveRange,
}

impl core::fmt::Display for InterpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InterpError::BelowRange => write!(f, "r² below interpolation domain (excluded region)"),
            InterpError::AboveRange => write!(f, "r² at or beyond cutoff"),
        }
    }
}

impl std::error::Error for InterpError {}

/// One interpolation table: `(a, b)` coefficient pairs per `(section, bin)`.
///
/// Note on domain depth: the coefficients are stored as `f32`, so tables
/// for steep kernels overflow once sections reach into the region where
/// `f(r²)` exceeds `f32::MAX` (for `r⁻¹⁴` that happens around
/// `r² = 2⁻¹⁷`). This is the hardware-level motivation for the excluded
/// small-`r` region of Fig. 7.
#[derive(Clone, Debug)]
pub struct InterpTable {
    cfg: TableConfig,
    /// Flat `[section * bins + bin] → (a, b)`, stored as the `f32` words a
    /// BRAM would hold.
    coeffs: Vec<(f32, f32)>,
}

impl InterpTable {
    /// Build a table for `f(r²)` with coefficients exact at bin edges.
    /// Coefficient arithmetic is done in `f64` then rounded to the `f32`
    /// words the hardware stores. A bin's upper edge is the next bin's
    /// lower edge, bit for bit, so `f` runs once per edge: `bins + 1`
    /// calls per section.
    pub fn build_fn(cfg: TableConfig, f: impl Fn(f64) -> f64) -> Self {
        let bins = cfg.bins();
        let mut coeffs = Vec::with_capacity(cfg.entries());
        for s in 0..cfg.n_sections {
            let edge = |b| bin_lower_edge(s, b, cfg.n_sections, cfg.log2_bins);
            let mut x0 = edge(0);
            let mut y0 = f(x0);
            for b in 0..bins {
                let x1 = edge(b + 1);
                let y1 = f(x1);
                let a = (y1 - y0) / (x1 - x0);
                let c = y0 - a * x0;
                coeffs.push((a as f32, c as f32));
                (x0, y0) = (x1, y1);
            }
        }
        InterpTable { cfg, coeffs }
    }

    /// Build a table for `r^-alpha` as a function of `r²`
    /// (i.e. `f(x) = x^(-alpha/2)`).
    pub fn build_r_pow(cfg: TableConfig, alpha: u32) -> Self {
        let half = alpha as f64 / 2.0;
        Self::build_fn(cfg, move |x| x.powf(-half))
    }

    /// Table geometry.
    #[inline]
    pub fn config(&self) -> TableConfig {
        self.cfg
    }

    /// The raw `(a, b)` coefficient words, flat `[section * bins + bin]`
    /// order — the exact BRAM contents. Exposed so downstream models can
    /// re-pack tables that share one index (e.g. interleave the `r⁻¹⁴`
    /// and `r⁻⁸` words into a single fetch) without changing a bit of
    /// the arithmetic.
    #[inline]
    pub fn coeffs(&self) -> &[(f32, f32)] {
        &self.coeffs
    }

    /// Evaluate at `r²`, reporting out-of-domain inputs.
    #[inline]
    pub fn eval(&self, r2: f32) -> Result<f32, InterpError> {
        match section_bin(r2, self.cfg.n_sections, self.cfg.log2_bins) {
            SectionBin::In { section, bin } => {
                let (a, b) = self.coeffs[(section * self.cfg.bins() + bin) as usize];
                Ok(a * r2 + b)
            }
            SectionBin::BelowRange => Err(InterpError::BelowRange),
            SectionBin::AboveRange => Err(InterpError::AboveRange),
        }
    }

    /// Hot-path evaluation: the upstream filter guarantees
    /// `r² ∈ [2^-n_s, 1)`, so out-of-range is a datapath bug. Returns 0 for
    /// out-of-range in release (a dropped pair, matching the hardware's
    /// discard of unfiltered flits) and panics in debug.
    #[inline]
    pub fn eval_filtered(&self, r2: f32) -> f32 {
        match self.eval(r2) {
            Ok(v) => v,
            Err(e) => {
                debug_assert!(false, "unfiltered r²={r2} reached force pipeline: {e}");
                0.0
            }
        }
    }

    /// Maximum relative error against `exact` over `samples` log-uniform
    /// points of the covered domain. Used by tests and the interpolation
    /// ablation harness.
    pub fn max_rel_error(&self, exact: impl Fn(f64) -> f64, samples: usize) -> f64 {
        let lo = self.cfg.domain_min().ln();
        let hi = 0.0f64; // ln(1.0)
        let mut worst: f64 = 0.0;
        for i in 0..samples {
            // stay strictly inside the domain
            let t = (i as f64 + 0.5) / samples as f64;
            let x = (lo + t * (hi - lo)).exp();
            let approx = self.eval(x as f32).expect("in-domain sample") as f64;
            let truth = exact(x);
            worst = worst.max(((approx - truth) / truth).abs());
        }
        worst
    }
}

/// The force-pipeline pair of tables: `r⁻¹⁴` and `r⁻⁸` (Eq. 2 terms).
#[derive(Clone, Debug)]
pub struct LjForceTable {
    /// `r⁻¹⁴` table (the repulsive `48(σ/r)¹⁴` term).
    pub r14: InterpTable,
    /// `r⁻⁸` table (the attractive `24(σ/r)⁸` term).
    pub r8: InterpTable,
}

impl LjForceTable {
    /// Build both force tables with one geometry.
    pub fn new(cfg: TableConfig) -> Self {
        LjForceTable {
            r14: InterpTable::build_r_pow(cfg, 14),
            r8: InterpTable::build_r_pow(cfg, 8),
        }
    }

    /// Evaluate `(r⁻¹⁴, r⁻⁸)` for a filtered pair.
    #[inline]
    pub fn eval(&self, r2: f32) -> (f32, f32) {
        (self.r14.eval_filtered(r2), self.r8.eval_filtered(r2))
    }

    /// Table geometry.
    #[inline]
    pub fn config(&self) -> TableConfig {
        self.r14.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_bin_edges() {
        let cfg = TableConfig {
            n_sections: 6,
            log2_bins: 4,
        };
        let t = InterpTable::build_r_pow(cfg, 8);
        for s in 0..cfg.n_sections {
            for b in 0..cfg.bins() {
                let x0 = bin_lower_edge(s, b, cfg.n_sections, cfg.log2_bins);
                let got = t.eval(x0 as f32).unwrap() as f64;
                let want = x0.powf(-4.0);
                assert!(
                    ((got - want) / want).abs() < 1e-5,
                    "s={s} b={b}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn paper_config_accuracy() {
        let t = InterpTable::build_r_pow(TableConfig::PAPER, 14);
        let err = t.max_rel_error(|x| x.powf(-7.0), 20_000);
        assert!(err < 2e-4, "r^-14 worst rel error {err}");
        let t8 = InterpTable::build_r_pow(TableConfig::PAPER, 8);
        let err8 = t8.max_rel_error(|x| x.powf(-4.0), 20_000);
        assert!(err8 < 1e-4, "r^-8 worst rel error {err8}");
    }

    #[test]
    fn error_shrinks_quadratically_with_bins() {
        let exact = |x: f64| x.powf(-7.0);
        let coarse = InterpTable::build_r_pow(
            TableConfig {
                n_sections: 10,
                log2_bins: 4,
            },
            14,
        )
        .max_rel_error(exact, 10_000);
        let fine = InterpTable::build_r_pow(
            TableConfig {
                n_sections: 10,
                log2_bins: 6,
            },
            14,
        )
        .max_rel_error(exact, 10_000);
        // 4x more bins → ~16x less error; allow slack for f32 rounding.
        assert!(
            fine < coarse / 8.0,
            "coarse={coarse:.3e} fine={fine:.3e}: error not shrinking quadratically"
        );
    }

    #[test]
    fn out_of_range_reported() {
        let t = InterpTable::build_r_pow(TableConfig::PAPER, 8);
        assert_eq!(t.eval(1.0), Err(InterpError::AboveRange));
        assert_eq!(t.eval(1.0e-7), Err(InterpError::BelowRange));
    }

    #[test]
    fn force_table_pair() {
        let ft = LjForceTable::new(TableConfig::PAPER);
        let r2 = 0.51f32;
        let (r14, r8) = ft.eval(r2);
        let want14 = (r2 as f64).powf(-7.0);
        let want8 = (r2 as f64).powf(-4.0);
        assert!(((r14 as f64 - want14) / want14).abs() < 1e-4);
        assert!(((r8 as f64 - want8) / want8).abs() < 1e-4);
    }

    #[test]
    fn generic_force_model_builds() {
        // "different force models with trivial modification": tabulate a
        // screened-coulomb-like kernel and verify accuracy.
        let cfg = TableConfig::PAPER;
        let f = |x: f64| (-x.sqrt()).exp() / x;
        let t = InterpTable::build_fn(cfg, f);
        let err = t.max_rel_error(f, 10_000);
        assert!(err < 1e-4, "screened kernel error {err}");
    }
}
