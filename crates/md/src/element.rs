//! Element types and Lennard-Jones parameter tables.
//!
//! The paper's force pipeline carries an element type `e` with every
//! position and uses it to index "a table-lookup to retrieve pre-calculated
//! coefficients for ε and σ" (§3.4). [`PairTable`] is that table: for each
//! ordered element pair it stores the four combined coefficients needed by
//! the force (Eq. 2) and potential (Eq. 1) kernels, with lengths already
//! converted to cell units:
//!
//! ```text
//! F(r)·r̂·r = (c14·r⁻¹⁴ − c8·r⁻⁸)·Δr   with c14 = 48·ε·σ¹²,  c8 = 24·ε·σ⁶
//! V(r)      =  c12·r⁻¹² − c6·r⁻⁶       with c12 =  4·ε·σ¹²,  c6 =  4·ε·σ⁶
//! ```

use crate::units::UnitSystem;

/// Chemical element of a particle.
///
/// The paper's dataset is neutral sodium in vacuum (§5.1 / artifact
/// appendix); the remaining entries exercise the generality of the
/// element-indexed coefficient lookup and are used by the mixed-species
/// example.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Element {
    /// Neutral sodium — the paper's benchmark species.
    Na = 0,
    /// Argon — the classic LJ fluid.
    Ar = 1,
    /// United-atom methane-like carbon.
    C = 2,
    /// Water-like oxygen (LJ part of TIP3P).
    O = 3,
    /// Sodium cation (+1 e) — exercises the PME short-range path.
    NaPlus = 4,
    /// Chloride anion (−1 e).
    ClMinus = 5,
}

impl Element {
    /// All supported elements, in table order.
    pub const ALL: [Element; 6] = [
        Element::Na,
        Element::Ar,
        Element::C,
        Element::O,
        Element::NaPlus,
        Element::ClMinus,
    ];

    /// Number of element kinds (table dimension).
    pub const COUNT: usize = 6;

    /// Atomic mass in amu.
    #[inline]
    pub fn mass(self) -> f64 {
        match self {
            Element::Na => 22.989_769,
            Element::Ar => 39.948,
            Element::C => 12.011,
            Element::O => 15.999,
            Element::NaPlus => 22.989_769,
            Element::ClMinus => 35.45,
        }
    }

    /// Partial charge in elementary charges (for the real-space PME
    /// term; zero for the paper's neutral-sodium dataset).
    #[inline]
    pub fn charge(self) -> f64 {
        match self {
            Element::NaPlus => 1.0,
            Element::ClMinus => -1.0,
            _ => 0.0,
        }
    }

    /// LJ well depth ε in kcal/mol.
    ///
    /// Sodium uses the CHARMM neutral-Na parameters (ε = 0.0469 kcal/mol);
    /// argon the classic Rahman values; C/O generic force-field values.
    #[inline]
    pub fn epsilon(self) -> f64 {
        match self {
            Element::Na => 0.0469,
            Element::Ar => 0.2379,
            Element::C => 0.1094,
            Element::O => 0.1521,
            Element::NaPlus => 0.0469,
            Element::ClMinus => 0.15,
        }
    }

    /// LJ diameter σ in Å (`σ = 2·R_min/2 / 2^(1/6)`).
    #[inline]
    pub fn sigma_angstrom(self) -> f64 {
        match self {
            Element::Na => 2.429_9,
            Element::Ar => 3.405,
            Element::C => 3.399_7,
            Element::O => 3.150_6,
            Element::NaPlus => 2.429_9,
            Element::ClMinus => 4.044_7,
        }
    }

    /// Table index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// From table index.
    #[inline]
    pub fn from_index(i: usize) -> Option<Element> {
        Element::ALL.get(i).copied()
    }

    /// One-letter-ish PDB element symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::Na => "NA",
            Element::Ar => "AR",
            Element::C => "C",
            Element::O => "O",
            Element::NaPlus => "NA", // charge carried separately (PDB cols 79-80)
            Element::ClMinus => "CL",
        }
    }

    /// PDB charge field (columns 79-80), e.g. `1+`.
    pub fn pdb_charge(self) -> &'static str {
        match self {
            Element::NaPlus => "1+",
            Element::ClMinus => "1-",
            _ => "  ",
        }
    }

    /// Resolve a PDB element symbol plus charge field.
    pub fn from_symbol_charge(sym: &str, charge: &str) -> Option<Element> {
        match (sym.trim().to_ascii_uppercase().as_str(), charge.trim()) {
            ("NA", "1+") => Some(Element::NaPlus),
            ("CL", "1-") | ("CL", "") => Some(Element::ClMinus),
            (s, _) => Element::from_symbol(s),
        }
    }

    /// Parse a PDB element symbol.
    pub fn from_symbol(s: &str) -> Option<Element> {
        match s.trim().to_ascii_uppercase().as_str() {
            "NA" => Some(Element::Na),
            "AR" => Some(Element::Ar),
            "C" => Some(Element::C),
            "O" => Some(Element::O),
            _ => None,
        }
    }
}

impl fasda_ckpt::Persist for Element {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u8(self.index() as u8);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let i = r.get_u8()?;
        Element::from_index(i as usize)
            .ok_or_else(|| r.malformed(format!("invalid element index {i}")))
    }
}

/// Per-element-pair combined LJ coefficients in cell units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PairCoeffs {
    /// `48·ε·σ¹²` — repulsive force coefficient (multiplies `r⁻¹⁴`).
    pub c14: f64,
    /// `24·ε·σ⁶` — attractive force coefficient (multiplies `r⁻⁸`).
    pub c8: f64,
    /// `4·ε·σ¹²` — repulsive potential coefficient (multiplies `r⁻¹²`).
    pub c12: f64,
    /// `4·ε·σ⁶` — attractive potential coefficient (multiplies `r⁻⁶`).
    pub c6: f64,
}

/// The element-pair coefficient lookup table (paper §3.4).
///
/// Cross-species parameters follow Lorentz–Berthelot mixing:
/// `σ_ij = (σ_i + σ_j)/2`, `ε_ij = √(ε_i ε_j)`.
#[derive(Clone, Debug)]
pub struct PairTable {
    units: UnitSystem,
    coeffs: [[PairCoeffs; Element::COUNT]; Element::COUNT],
}

impl PairTable {
    /// Build the table for a given unit system (σ is converted from Å to
    /// cells here, so all downstream force math is in cell units).
    pub fn new(units: UnitSystem) -> Self {
        let mut coeffs = [[PairCoeffs::default(); Element::COUNT]; Element::COUNT];
        for ei in Element::ALL {
            for ej in Element::ALL {
                let sigma = units.len_to_cells((ei.sigma_angstrom() + ej.sigma_angstrom()) / 2.0);
                let eps = (ei.epsilon() * ej.epsilon()).sqrt();
                let s6 = sigma.powi(6);
                let s12 = s6 * s6;
                coeffs[ei.index()][ej.index()] = PairCoeffs {
                    c14: 48.0 * eps * s12,
                    c8: 24.0 * eps * s6,
                    c12: 4.0 * eps * s12,
                    c6: 4.0 * eps * s6,
                };
            }
        }
        PairTable { units, coeffs }
    }

    /// The unit system the table was built for.
    #[inline]
    pub fn units(&self) -> UnitSystem {
        self.units
    }

    /// Combined coefficients for an element pair.
    #[inline]
    pub fn get(&self, a: Element, b: Element) -> PairCoeffs {
        self.coeffs[a.index()][b.index()]
    }

    /// Exact LJ potential (Eq. 1) for a pair at squared distance `r2`
    /// (cell units), kcal/mol. No cutoff applied.
    #[inline]
    pub fn potential(&self, a: Element, b: Element, r2: f64) -> f64 {
        let c = self.get(a, b);
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        c.c12 * inv6 * inv6 - c.c6 * inv6
    }

    /// Exact LJ force scale (Eq. 2): the scalar `s` such that the force on
    /// particle *i* from *j* is `s · (r_i − r_j)`. Positive = repulsive.
    #[inline]
    pub fn force_scale(&self, a: Element, b: Element, r2: f64) -> f64 {
        let c = self.get(a, b);
        let inv2 = 1.0 / r2;
        let inv4 = inv2 * inv2;
        let inv8 = inv4 * inv4;
        let inv14 = inv8 * inv4 * inv2;
        c.c14 * inv14 - c.c8 * inv8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PairTable {
        PairTable::new(UnitSystem::PAPER)
    }

    #[test]
    fn symmetric_coefficients() {
        let t = table();
        for a in Element::ALL {
            for b in Element::ALL {
                assert_eq!(t.get(a, b), t.get(b, a));
            }
        }
    }

    #[test]
    fn potential_zero_at_sigma() {
        let t = table();
        let sigma = UnitSystem::PAPER.len_to_cells(Element::Na.sigma_angstrom());
        let v = t.potential(Element::Na, Element::Na, sigma * sigma);
        assert!(v.abs() < 1e-12, "V(σ) = {v}");
    }

    #[test]
    fn potential_minimum_at_rmin() {
        // minimum at r = 2^(1/6) σ with depth -ε
        let t = table();
        let sigma = UnitSystem::PAPER.len_to_cells(Element::Na.sigma_angstrom());
        let rmin = sigma * 2.0f64.powf(1.0 / 6.0);
        let v = t.potential(Element::Na, Element::Na, rmin * rmin);
        assert!((v + Element::Na.epsilon()).abs() < 1e-12, "V(rmin) = {v}");
        // force is zero at the minimum
        let f = t.force_scale(Element::Na, Element::Na, rmin * rmin);
        assert!(f.abs() < 1e-9, "F(rmin) = {f}");
    }

    #[test]
    fn force_is_negative_gradient_of_potential() {
        let t = table();
        let (a, b) = (Element::Na, Element::Ar);
        for r in [0.3f64, 0.4, 0.5, 0.8, 0.95] {
            let h = 1e-6;
            let dv = (t.potential(a, b, (r + h) * (r + h)) - t.potential(a, b, (r - h) * (r - h)))
                / (2.0 * h);
            // F(r) along r̂ = -dV/dr; force_scale s satisfies F_vec = s·Δr so
            // |F| = s·r  →  s = -dV/dr / r
            let s = t.force_scale(a, b, r * r);
            let want = -dv / r;
            assert!(
                ((s - want) / want).abs() < 1e-5,
                "r={r}: s={s} want={want}"
            );
        }
    }

    #[test]
    fn mixing_rule_midpoint_sigma() {
        let t = table();
        let c_na_ar = t.get(Element::Na, Element::Ar);
        let sigma = UnitSystem::PAPER
            .len_to_cells((Element::Na.sigma_angstrom() + Element::Ar.sigma_angstrom()) / 2.0);
        let eps = (Element::Na.epsilon() * Element::Ar.epsilon()).sqrt();
        assert!((c_na_ar.c6 - 4.0 * eps * sigma.powi(6)).abs() < 1e-12);
    }

    #[test]
    fn element_symbols_roundtrip() {
        for e in Element::ALL {
            assert_eq!(Element::from_symbol_charge(e.symbol(), e.pdb_charge()), Some(e));
            assert_eq!(Element::from_index(e.index()), Some(e));
        }
        assert_eq!(Element::from_symbol("XX"), None);
        assert_eq!(Element::from_index(99), None);
    }

    #[test]
    fn charges() {
        assert_eq!(Element::Na.charge(), 0.0);
        assert_eq!(Element::NaPlus.charge(), 1.0);
        assert_eq!(Element::ClMinus.charge(), -1.0);
        // neutral pair: charge product zero everywhere in the paper's dataset
        let q: f64 = Element::ALL.iter().take(4).map(|e| e.charge().abs()).sum();
        assert_eq!(q, 0.0);
    }
}
