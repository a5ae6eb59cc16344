//! `Q5.26` signed fixed-point arithmetic.
//!
//! The paper stores raw particle positions as fixed-point offsets inside a
//! cell (§3.1: the Position Cache "stores fixed-point positions representing
//! position offsets in a cell") and concatenates the relative cell ID with
//! the fraction so that inter-cell distances are obtained *by direct
//! subtraction* (§4.2). The motivation is hardware cost: filters "can number
//! in the hundreds in this design", and integer subtract/multiply/compare is
//! far cheaper than floating point on FPGA fabric.
//!
//! We model that representation with [`Fix`], an `i32` holding a `Q5.26`
//! value: 1 sign bit, 5 integer bits, 26 fraction bits. The numeric ranges
//! involved are:
//!
//! * in-cell offsets: `[0, 1)`
//! * RCID-concatenated coordinates: `[1, 4)` (RCID ∈ {1,2,3}, §4.2)
//! * coordinate differences: `(-3, 3)`
//! * squared distances `dx²+dy²+dz²`: `[0, 27)`
//!
//! `Q5.26` covers `[-32, 32)` with a resolution of `2⁻²⁶ ≈ 1.5e-8` cells
//! (≈ 1.3e-7 Å at the paper's 8.5 Å cell edge), matching the precision class
//! of the RTL design.

/// Number of fraction bits in the fixed-point representation.
pub const FRAC_BITS: u32 = 26;
/// Scale factor `2^FRAC_BITS`.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// A `Q5.26` signed fixed-point scalar stored in an `i32`.
///
/// Construction from floats truncates toward negative infinity (as a raw
/// bit-slice register would); arithmetic wraps on overflow in release mode
/// exactly like the RTL would, but the documented operating ranges above
/// never overflow and debug builds assert on it.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fix(pub i32);

impl Fix {
    /// Zero.
    pub const ZERO: Fix = Fix(0);
    /// One cell edge (= the cutoff radius, paper §3.4 sets `Rc = 1`).
    pub const ONE: Fix = Fix(1 << FRAC_BITS);

    /// Smallest positive increment (`2⁻²⁶` cells).
    pub const EPSILON: Fix = Fix(1);

    /// Construct from raw `Q5.26` bits.
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Fix(bits)
    }

    /// Raw `Q5.26` bits.
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Convert from `f64`, truncating to the fixed-point grid
    /// (round-to-nearest, matching a quantizing register load).
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        debug_assert!(
            (-32.0..32.0).contains(&v),
            "fixed-point overflow: {v} outside Q5.26 range"
        );
        Fix((v * SCALE as f64).round() as i32)
    }

    /// [`Fix::from_f64`] when `v` rounds onto the `Q5.26` grid; `None`
    /// where the conversion would overflow (or `v` is not a number).
    #[inline]
    pub fn try_from_f64(v: f64) -> Option<Self> {
        let bits = (v * SCALE as f64).round();
        (i32::MIN as f64..=i32::MAX as f64).contains(&bits).then_some(Fix(bits as i32))
    }

    /// `self + rhs`, or `None` where the sum leaves the `Q5.26` range.
    #[inline]
    pub fn checked_add(self, rhs: Fix) -> Option<Self> {
        self.0.checked_add(rhs.0).map(Fix)
    }

    /// Convert from `f32`.
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        Self::from_f64(v as f64)
    }

    /// Convert to `f64` (exact — every `Q5.26` value is representable).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Convert to `f32`. This is the "fixed-to-float conversion" the RCID
    /// scheme simplifies (§4.2: starting RCIDs at 1 keeps the leading one
    /// easy to locate); with ≤ 5 integer bits the nearest-`f32` rounding
    /// here loses at most 2 ulp relative to the fixed value.
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE as f32
    }

    /// Fixed-point multiplication through a 64-bit intermediate, truncating
    /// the low fraction bits exactly as a DSP-slice multiplier with an
    /// output shift would. (Deliberately a named method, not `impl Mul`:
    /// truncation makes it non-associative with the scale, and the
    /// explicit name marks every DSP multiply in the datapath.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Fix) -> Fix {
        let wide = (self.0 as i64) * (rhs.0 as i64);
        Fix((wide >> FRAC_BITS) as i32)
    }

    /// Square of the value (`self·self`).
    #[inline]
    pub fn sq(self) -> Fix {
        self.mul(self)
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Fix {
        Fix(self.0.abs())
    }

    /// Saturating addition (used only by defensive paths; the modelled
    /// datapath ranges never saturate).
    #[inline]
    pub fn saturating_add(self, rhs: Fix) -> Fix {
        Fix(self.0.saturating_add(rhs.0))
    }

    /// True if the value lies in `[0, 1)` — a valid in-cell offset.
    #[inline]
    pub fn is_cell_offset(self) -> bool {
        self.0 >= 0 && self.0 < SCALE as i32
    }

    /// Wrap into `[0, 1)` by adding/subtracting whole cells. Used by the
    /// motion-update path when a particle steps across a cell boundary.
    /// Returns `(wrapped, cells_moved)` with `cells_moved ∈ {-2..2}` for
    /// any physical timestep.
    #[inline]
    pub fn wrap_cell(self) -> (Fix, i32) {
        let mut bits = self.0;
        let mut moved = 0;
        while bits < 0 {
            bits += SCALE as i32;
            moved -= 1;
        }
        while bits >= SCALE as i32 {
            bits -= SCALE as i32;
            moved += 1;
        }
        (Fix(bits), moved)
    }
}

impl core::ops::Add for Fix {
    type Output = Fix;
    #[inline]
    fn add(self, rhs: Fix) -> Fix {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "fixed-point add overflow"
        );
        Fix(self.0.wrapping_add(rhs.0))
    }
}

impl core::ops::Sub for Fix {
    type Output = Fix;
    #[inline]
    fn sub(self, rhs: Fix) -> Fix {
        debug_assert!(
            self.0.checked_sub(rhs.0).is_some(),
            "fixed-point sub overflow"
        );
        Fix(self.0.wrapping_sub(rhs.0))
    }
}

impl core::ops::Neg for Fix {
    type Output = Fix;
    #[inline]
    fn neg(self) -> Fix {
        Fix(-self.0)
    }
}

impl core::ops::AddAssign for Fix {
    #[inline]
    fn add_assign(&mut self, rhs: Fix) {
        *self = *self + rhs;
    }
}

impl core::ops::SubAssign for Fix {
    #[inline]
    fn sub_assign(&mut self, rhs: Fix) {
        *self = *self - rhs;
    }
}

impl core::fmt::Debug for Fix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fix({:.8})", self.to_f64())
    }
}

impl core::fmt::Display for Fix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.8}", self.to_f64())
    }
}

/// A 3-vector of fixed-point scalars: the register format flowing through
/// position rings, filters, and the front of the force pipeline.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Hash)]
pub struct FixVec3 {
    pub x: Fix,
    pub y: Fix,
    pub z: Fix,
}

impl FixVec3 {
    /// Zero vector.
    pub const ZERO: FixVec3 = FixVec3 {
        x: Fix::ZERO,
        y: Fix::ZERO,
        z: Fix::ZERO,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(x: Fix, y: Fix, z: Fix) -> Self {
        FixVec3 { x, y, z }
    }

    /// Construct by quantizing an `f64` triple.
    #[inline]
    pub fn from_f64(x: f64, y: f64, z: f64) -> Self {
        FixVec3::new(Fix::from_f64(x), Fix::from_f64(y), Fix::from_f64(z))
    }

    /// Componentwise difference — the filter's "direct subtraction" (§4.2).
    #[inline]
    pub fn delta(self, rhs: FixVec3) -> FixVec3 {
        FixVec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }

    /// Squared Euclidean norm in fixed point (`Q5.26`; max 27 < 32).
    #[inline]
    pub fn norm_sq(self) -> Fix {
        self.x.sq() + self.y.sq() + self.z.sq()
    }

    /// Convert to an `f64` triple.
    #[inline]
    pub fn to_f64(self) -> [f64; 3] {
        [self.x.to_f64(), self.y.to_f64(), self.z.to_f64()]
    }

    /// Convert to an `f32` triple (the fixed-to-float stage feeding the
    /// floating-point force pipeline).
    #[inline]
    pub fn to_f32(self) -> [f32; 3] {
        [self.x.to_f32(), self.y.to_f32(), self.z.to_f32()]
    }
}

/// Number of fraction bits in the force-accumulator representation.
pub const ACC_FRAC_BITS: u32 = 28;
/// Scale factor `2^ACC_FRAC_BITS`.
pub const ACC_SCALE: i64 = 1 << ACC_FRAC_BITS;

/// A `Q35.28` signed fixed-point force accumulator stored in an `i64`
/// — the FC-bank register format.
///
/// The force pipeline computes each pair contribution in floating
/// point, but the *accumulation* into the Force Caches is fixed-point,
/// as in Anton-class MD machines: integer addition is associative, so
/// the accumulated total is bit-identical no matter what order
/// contributions arrive in. That is what lets the cluster guarantee
/// bit-identical results even when retransmissions, fabric back
/// pressure, or fault-induced delays reorder packet arrivals between
/// nodes. Quantization is symmetric in sign (`quantize(-f) ==
/// -quantize(f)`), so a third-law pair whose two halves arrive as exact
/// negations cancels to literal zero.
///
/// `2⁻²⁸` resolution is finer than an f32 mantissa for any contribution
/// of magnitude ≥ `2⁻⁴`; the `±2³⁵` range is far beyond any physical
/// per-particle force total in this workload class. Overflow wraps in
/// release mode exactly like the RTL adder would; debug builds assert.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FixAcc(pub i64);

impl FixAcc {
    /// Zero.
    pub const ZERO: FixAcc = FixAcc(0);

    /// Quantize one floating-point force contribution onto the
    /// accumulator grid (round-to-nearest; symmetric in sign, so a
    /// third-law pair quantizes to an exact cancellation).
    ///
    /// Evaluated on the `f32` bits: `v · 2²⁸` is exact, so rounding half
    /// away from zero is a shift, an add and a sign fix on the 24-bit
    /// significand — the same `i64` as
    /// `(v as f64 * ACC_SCALE as f64).round() as i64`, including that
    /// cast's saturation at ±2⁶³ and NaN → 0 (pinned over every exponent
    /// by `tests/properties.rs`). This sits on the force-retire path of
    /// every simulated pair; the float detour cost three conversions and
    /// a libm call per component, and the in-range path here is
    /// branch-free (force magnitudes straddle 1.0, so a branch on the
    /// shift direction would not predict).
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        const MANT_BITS: u32 = 23;
        // The significand, pre-shifted to the top of a u63, is
        // |v| · 2^(TOP_EXP − exp): one rounding right shift lands on the
        // accumulator grid for every exponent that neither underflows to
        // zero nor saturates.
        const TOP_SHIFT: u32 = 63 - (MANT_BITS + 1);
        const TOP_EXP: i32 = 127 + MANT_BITS as i32 - ACC_FRAC_BITS as i32 + TOP_SHIFT as i32;
        let bits = v.to_bits();
        let exp = ((bits >> MANT_BITS) & 0xff) as i32;
        let frac = bits & ((1 << MANT_BITS) - 1);
        let top = ((frac | (1 << MANT_BITS)) as u64) << TOP_SHIFT;
        let sign = (bits as i32 >> 31) as i64; // 0 or −1
        let shift = TOP_EXP - exp;
        if (0..64).contains(&shift) {
            let half = (1u64 << shift) >> 1;
            let mag = ((top + half) >> shift) as i64;
            // Two's-complement negate when the sign bit is set.
            return FixAcc((mag ^ sign) - sign);
        }
        if shift >= 64 {
            // Below half an accumulator ulp (every subnormal is).
            FixAcc(0)
        } else if exp == 0xff && frac != 0 {
            FixAcc(0) // NaN
        } else if sign == 0 {
            FixAcc(i64::MAX) // ≥ 2⁶³, +∞
        } else {
            FixAcc(i64::MIN)
        }
    }

    /// Accumulated value as `f32` (the fixed-to-float stage feeding the
    /// motion-update pipeline).
    #[inline]
    pub fn to_f32(self) -> f32 {
        (self.0 as f64 / ACC_SCALE as f64) as f32
    }

    /// Accumulated value as `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ACC_SCALE as f64
    }
}

impl core::ops::Add for FixAcc {
    type Output = FixAcc;
    #[inline]
    fn add(self, rhs: FixAcc) -> FixAcc {
        FixAcc(self.0.wrapping_add(rhs.0))
    }
}

impl core::ops::AddAssign for FixAcc {
    #[inline]
    fn add_assign(&mut self, rhs: FixAcc) {
        debug_assert!(self.0.checked_add(rhs.0).is_some(), "FC accumulator overflow");
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

fasda_ckpt::persist_struct!(Fix { 0 });

fasda_ckpt::persist_struct!(FixVec3 { x, y, z });

fasda_ckpt::persist_struct!(FixAcc { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_has_expected_bits() {
        assert_eq!(Fix::ONE.to_bits(), 1 << FRAC_BITS);
        assert_eq!(Fix::ONE.to_f64(), 1.0);
    }

    #[test]
    fn roundtrip_exact_on_grid() {
        for bits in [0i32, 1, -1, 12345, -99999, (1 << 30) - 1] {
            let f = Fix::from_bits(bits);
            assert_eq!(Fix::from_f64(f.to_f64()), f);
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        let v = 0.1;
        let f = Fix::from_f64(v);
        assert!((f.to_f64() - v).abs() <= 0.5 / SCALE as f64);
    }

    #[test]
    fn add_sub_neg() {
        let a = Fix::from_f64(1.25);
        let b = Fix::from_f64(0.75);
        assert_eq!((a + b).to_f64(), 2.0);
        assert_eq!((a - b).to_f64(), 0.5);
        assert_eq!((-a).to_f64(), -1.25);
    }

    #[test]
    fn mul_truncates_toward_zero_positive() {
        let a = Fix::from_f64(1.5);
        let b = Fix::from_f64(2.0);
        assert_eq!(a.mul(b).to_f64(), 3.0);
        // smallest values: eps * eps truncates to zero
        assert_eq!(Fix::EPSILON.mul(Fix::EPSILON), Fix::ZERO);
    }

    #[test]
    fn square_distance_range() {
        // worst case concat-coordinate difference is just under 3 per axis
        let d = Fix::from_f64(2.999_999);
        let r2 = d.sq() + d.sq() + d.sq();
        assert!(r2.to_f64() < 27.0);
        assert!(r2.to_f64() > 26.9);
    }

    #[test]
    fn wrap_cell_positive_and_negative() {
        let (w, m) = Fix::from_f64(1.25).wrap_cell();
        assert_eq!(m, 1);
        assert!((w.to_f64() - 0.25).abs() < 1e-7);
        let (w, m) = Fix::from_f64(-0.25).wrap_cell();
        assert_eq!(m, -1);
        assert!((w.to_f64() - 0.75).abs() < 1e-7);
        let (w, m) = Fix::from_f64(0.5).wrap_cell();
        assert_eq!(m, 0);
        assert_eq!(w.to_f64(), 0.5);
    }

    #[test]
    fn is_cell_offset() {
        assert!(Fix::from_f64(0.0).is_cell_offset());
        assert!(Fix::from_f64(0.999).is_cell_offset());
        assert!(!Fix::ONE.is_cell_offset());
        assert!(!Fix::from_f64(-0.001).is_cell_offset());
    }

    #[test]
    fn vec3_delta_and_norm() {
        let a = FixVec3::from_f64(2.0, 2.0, 2.0);
        let b = FixVec3::from_f64(1.0, 1.5, 2.5);
        let d = a.delta(b);
        assert_eq!(d.to_f64(), [1.0, 0.5, -0.5]);
        assert!((d.norm_sq().to_f64() - 1.5).abs() < 1e-7);
    }

    #[test]
    fn to_f32_matches_f64_within_ulp() {
        let f = Fix::from_f64(std::f64::consts::PI);
        assert!((f.to_f32() as f64 - f.to_f64()).abs() < 1e-6);
    }

    #[test]
    fn acc_sum_is_order_independent() {
        let contributions = [1.5f32, -0.25, 3.0e-4, -7.125, 0.6180339, 42.0, -1e-6];
        let forward = contributions
            .iter()
            .fold(FixAcc::ZERO, |a, &c| a + FixAcc::from_f32(c));
        let reverse = contributions
            .iter()
            .rev()
            .fold(FixAcc::ZERO, |a, &c| a + FixAcc::from_f32(c));
        assert_eq!(forward, reverse);
        assert!((forward.to_f64() - contributions.iter().map(|&c| c as f64).sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn acc_third_law_pairs_cancel_exactly() {
        for v in [0.1f32, 1.0e-7, 123.456, 3.0e5] {
            assert_eq!(FixAcc::from_f32(v) + FixAcc::from_f32(-v), FixAcc::ZERO);
        }
    }

    #[test]
    fn acc_resolution_beats_f32_mantissa_above_sixteenth() {
        let v = 0.0625f32 + f32::EPSILON;
        let q = FixAcc::from_f32(v);
        assert!((q.to_f64() - v as f64).abs() <= 0.5 / ACC_SCALE as f64);
    }
}
