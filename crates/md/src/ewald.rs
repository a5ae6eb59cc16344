//! Real-space Ewald (PME short-range) electrostatics.
//!
//! The paper's range-limited force has *two* components: "the short range
//! term of the electrostatic force obtained using the Particle Mesh Ewald
//! (PME) method, and the force deduced from the Lennard-Jones potential
//! ... in any case the RL force pipelines are nearly identical" (§2.1).
//! This module supplies the physics of that first component so the
//! accelerator's generic interpolation pipeline can evaluate it with the
//! same machinery it uses for LJ (§3.4: "different force models \[can\] be
//! implemented with trivial modification").
//!
//! Real-space Ewald pair terms for charges `q_i`, `q_j` at distance `r`
//! with splitting parameter `β`:
//!
//! ```text
//! V(r) = C·q_i·q_j · erfc(βr) / r
//! F(r) = C·q_i·q_j · [erfc(βr)/r² + (2β/√π)·exp(−β²r²)/r] · r̂
//! ```
//!
//! `C` is Coulomb's constant, 332.0637 kcal·Å/(mol·e²), converted to cell
//! units. The long-range (reciprocal/mesh) part is out of scope here —
//! exactly as it is for FASDA, which delegates LR to the companion
//! 3D-FFT systems cited in §1.

use crate::units::UnitSystem;

/// Coulomb constant in kcal·Å/(mol·e²).
const COULOMB_KCAL_A: f64 = 332.063_71;

/// Complementary error function via the Abramowitz & Stegun 7.1.26
/// rational approximation (|ε| ≤ 1.5e-7), adequate against the ~1e-4
/// table-interpolation error of the accelerator datapath.
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

/// Real-space Ewald parameters in cell units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EwaldParams {
    /// Splitting parameter β in 1/cell. Choosing `β·Rc ≈ 3` makes the
    /// real-space term negligible at the cutoff (erfc(3) ≈ 2.2e-5), the
    /// standard PME setting for a one-cell cutoff.
    pub beta: f64,
    /// Coulomb constant in kcal·cell/(mol·e²) for the active units.
    pub coulomb: f64,
}

impl EwaldParams {
    /// Standard parameters for a unit system: `β = 3/Rc`.
    pub fn standard(units: UnitSystem) -> Self {
        EwaldParams {
            beta: 3.0,
            coulomb: COULOMB_KCAL_A / units.cell_angstrom,
        }
    }

    /// Pair potential (kcal/mol) for unit charges at squared distance
    /// `r2` (cell units); multiply by `q_i·q_j`.
    #[inline]
    pub fn potential_unit(&self, r2: f64) -> f64 {
        let r = r2.sqrt();
        self.coulomb * erfc(self.beta * r) / r
    }

    /// Force scale `s` for unit charges such that `F = q_i·q_j·s·Δr`
    /// (Δr pointing from j to i). Positive s = repulsive for like
    /// charges.
    #[inline]
    pub fn force_scale_unit(&self, r2: f64) -> f64 {
        let r = r2.sqrt();
        let br = self.beta * r;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        self.coulomb * (erfc(br) / r + two_over_sqrt_pi * self.beta * (-br * br).exp()) / r2
    }

    /// The kernel `g(r²) = force_scale_unit(r²)` as a closure suitable
    /// for [`fasda_arith::interp::InterpTable::build_fn`] — this is the
    /// "trivial modification" that retargets the FASDA force pipeline to
    /// electrostatics.
    pub fn force_kernel(&self) -> impl Fn(f64) -> f64 + '_ {
        move |r2| self.force_scale_unit(r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // reference values (A&S tables)
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 0.479_500),
            (1.0, 0.157_299),
            (2.0, 0.004_678),
            (3.0, 2.209e-5),
        ] {
            let got = erfc(x);
            assert!(
                (got - want).abs() < 3e-6,
                "erfc({x}) = {got}, want {want}"
            );
        }
        // symmetry erfc(-x) = 2 - erfc(x)
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-12);
    }

    #[test]
    fn force_is_negative_gradient() {
        let p = EwaldParams::standard(UnitSystem::PAPER);
        for r in [0.2f64, 0.4, 0.6, 0.9] {
            let h = 1e-6;
            let dv =
                (p.potential_unit((r + h) * (r + h)) - p.potential_unit((r - h) * (r - h)))
                    / (2.0 * h);
            let s = p.force_scale_unit(r * r);
            let want = -dv / r;
            // tolerance limited by the A&S erfc approximation (1.5e-7
            // absolute, which is ~1e-3 relative where erfc is tiny)
            assert!(
                ((s - want) / want).abs() < 5e-4,
                "r={r}: {s} vs {want}"
            );
        }
    }

    #[test]
    fn negligible_at_cutoff() {
        let p = EwaldParams::standard(UnitSystem::PAPER);
        // at r = Rc = 1, erfc(3) makes the term ~1e-5 of the bare Coulomb
        let bare = p.coulomb; // 1/r at r=1
        let screened = p.potential_unit(1.0);
        assert!(screened / bare < 1e-4, "screening too weak: {screened}");
    }

    #[test]
    fn like_charges_repel() {
        let p = EwaldParams::standard(UnitSystem::PAPER);
        assert!(p.force_scale_unit(0.25) > 0.0);
    }

    #[test]
    fn kernel_tabulates_accurately() {
        use fasda_arith::interp::{InterpTable, TableConfig};
        let p = EwaldParams::standard(UnitSystem::PAPER);
        let t = InterpTable::build_fn(TableConfig::PAPER, p.force_kernel());
        let err = t.max_rel_error(p.force_kernel(), 10_000);
        assert!(err < 5e-4, "ewald kernel table error {err}");
    }
}
