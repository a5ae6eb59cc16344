//! Property-based tests for the arithmetic substrate.

use fasda_arith::fixed::{Fix, FixAcc, FixVec3, ACC_SCALE, FRAC_BITS, SCALE};
use fasda_arith::float_bits::{bin_lower_edge, bin_upper_edge, section_bin, SectionBin};
use fasda_arith::interp::{InterpTable, TableConfig};
use proptest::prelude::*;

/// The float-domain definition `FixAcc::from_f32` must keep matching.
fn acc_reference(v: f32) -> i64 {
    (v as f64 * ACC_SCALE as f64).round() as i64
}

proptest! {
    /// The integer-domain quantiser equals the float one on every
    /// exponent (subnormals, the rounding window around one accumulator
    /// ulp, the saturating top, infinities, NaNs) and both signs, for
    /// random and for edge significands.
    #[test]
    fn acc_from_f32_matches_float_reference(frac in 0u32..(1 << 23), neg in 0u32..2) {
        for exp in 0u32..=255 {
            for f in [frac, 0, 1, (1 << 23) - 1, 1 << 22, (1 << 22) - 1, (1 << 22) + 1] {
                let v = f32::from_bits(neg << 31 | exp << 23 | f);
                prop_assert_eq!(FixAcc::from_f32(v).0, acc_reference(v), "v = {:e} ({:#010x})", v, v.to_bits());
            }
        }
    }

    /// Every on-grid f64 round-trips exactly through Fix.
    #[test]
    fn fix_roundtrip_on_grid(bits in -(1i32 << 30)..(1i32 << 30)) {
        let f = Fix::from_bits(bits);
        prop_assert_eq!(Fix::from_f64(f.to_f64()), f);
    }

    /// Quantization error is at most half an LSB.
    #[test]
    fn fix_quantization_error_bounded(v in -31.9f64..31.9) {
        let f = Fix::from_f64(v);
        prop_assert!((f.to_f64() - v).abs() <= 0.5 / SCALE as f64 + 1e-15);
    }

    /// Addition matches f64 addition exactly for on-grid operands in range.
    #[test]
    fn fix_add_exact(a in -1_000_000_000i32..1_000_000_000, b in -1_000_000_000i32..1_000_000_000) {
        let fa = Fix::from_bits(a);
        let fb = Fix::from_bits(b);
        prop_assert_eq!((fa + fb).to_f64(), fa.to_f64() + fb.to_f64());
    }

    /// Fixed multiply is within one LSB of the real product (truncation).
    #[test]
    fn fix_mul_truncation_bound(a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let fa = Fix::from_f64(a);
        let fb = Fix::from_f64(b);
        let got = fa.mul(fb).to_f64();
        let want = fa.to_f64() * fb.to_f64();
        prop_assert!((got - want).abs() <= 1.0 / SCALE as f64,
            "{got} vs {want}");
    }

    /// wrap_cell always lands in [0,1) and preserves the value modulo 1.
    #[test]
    fn wrap_cell_invariants(v in -7.9f64..7.9) {
        let f = Fix::from_f64(v);
        let (w, moved) = f.wrap_cell();
        prop_assert!(w.is_cell_offset());
        let reconstructed = w.to_f64() + moved as f64;
        prop_assert!((reconstructed - f.to_f64()).abs() < 1e-12);
    }

    /// Squared norm of a delta is non-negative and matches f64 within
    /// a few LSBs (3 truncated squares).
    #[test]
    fn norm_sq_close_to_f64(
        ax in 1.0f64..3.999, ay in 1.0f64..3.999, az in 1.0f64..3.999,
        bx in 1.0f64..3.999, by in 1.0f64..3.999, bz in 1.0f64..3.999,
    ) {
        let a = FixVec3::from_f64(ax, ay, az);
        let b = FixVec3::from_f64(bx, by, bz);
        let d = a.delta(b);
        let r2 = d.norm_sq();
        prop_assert!(r2.to_bits() >= 0);
        let [dx, dy, dz] = d.to_f64();
        let want = dx * dx + dy * dy + dz * dz;
        prop_assert!((r2.to_f64() - want).abs() <= 3.0 / SCALE as f64);
    }

    /// section_bin always brackets its input between the bin edges.
    #[test]
    fn section_bin_brackets(r2 in 1.0e-4f32..0.999_999) {
        const NS: u32 = 14;
        const LB: u32 = 8;
        match section_bin(r2, NS, LB) {
            SectionBin::In { section, bin } => {
                let lo = bin_lower_edge(section, bin, NS, LB);
                let hi = bin_upper_edge(section, bin, NS, LB);
                prop_assert!(lo <= r2 as f64 && (r2 as f64) < hi);
            }
            SectionBin::BelowRange => {
                prop_assert!((r2 as f64) < (2.0f64).powi(-(NS as i32)));
            }
            SectionBin::AboveRange => prop_assert!(false, "r2 < 1 cannot be above range"),
        }
    }

    /// Interpolated r^-8 is within the theoretical error bound everywhere.
    #[test]
    fn interp_r8_error_bound(r2 in 0.01f32..0.999) {
        let t = InterpTable::build_r_pow(TableConfig::PAPER, 8);
        let got = t.eval(r2).unwrap() as f64;
        let want = (r2 as f64).powf(-4.0);
        // bound: f''(x) x² / (8 n_b²) relative = 4*5/8/256² ≈ 3.8e-5, plus f32 slack
        prop_assert!(((got - want) / want).abs() < 1.0e-4);
    }

    /// The interpolant of a decreasing function never undershoots the true
    /// value by more than the bound (chords of convex functions lie above).
    #[test]
    fn interp_convex_overestimates(r2 in 0.01f32..0.999) {
        let t = InterpTable::build_r_pow(TableConfig::PAPER, 14);
        let got = t.eval(r2).unwrap() as f64;
        let want = (r2 as f64).powf(-7.0);
        // chord above curve: got >= want (modulo f32 rounding of coefficients)
        prop_assert!(got >= want * (1.0 - 2.0e-6), "{got} < {want}");
    }
}

#[test]
fn frac_bits_documented() {
    assert_eq!(FRAC_BITS, 26);
}
