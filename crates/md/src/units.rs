//! Unit system: cells / femtoseconds / amu / kcal·mol⁻¹.
//!
//! The paper normalizes the cutoff radius to one cell edge (§3.4) so that
//! positions, filter thresholds, and the interpolation-table domain are all
//! expressed in cell units. Physical inputs (the 8.5 Å cutoff, sodium's LJ
//! parameters in Å and kcal/mol, the 2 fs timestep) are converted at the
//! boundary by [`UnitSystem`].

/// `(kcal/mol) / (amu·Å)` expressed in `Å/fs²`: the standard MD conversion
/// factor from force to acceleration in the Å/fs/amu/kcal·mol⁻¹ system.
pub const KCALMOL_PER_AMU_ANGSTROM: f64 = 4.184e-4;

/// Boltzmann constant in kcal/mol/K.
pub const BOLTZMANN_KCALMOL: f64 = 1.987204259e-3;

/// Conversion hub between physical units and internal cell units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitSystem {
    /// Physical edge length of one cell (= the cutoff radius `Rc`) in Å.
    /// The paper's experiments use 8.5 Å (§5.1).
    pub cell_angstrom: f64,
}

impl UnitSystem {
    /// The paper's experimental setup: `Rc` = 8.5 Å.
    pub const PAPER: UnitSystem = UnitSystem { cell_angstrom: 8.5 };

    /// Convert a length from Å to cells.
    #[inline]
    pub fn len_to_cells(&self, angstrom: f64) -> f64 {
        angstrom / self.cell_angstrom
    }

    /// Convert a length from cells to Å.
    #[inline]
    pub fn len_to_angstrom(&self, cells: f64) -> f64 {
        cells * self.cell_angstrom
    }

    /// Acceleration factor: `a [cells/fs²] = acc_factor() · F [kcal/mol/cell] / m [amu]`.
    ///
    /// Derivation: `a[Å/fs²] = 4.184e-4 · F[kcal/mol/Å] / m`; with
    /// `F[kcal/mol/Å] = F[kcal/mol/cell] / L` and `a[cells/fs²] = a[Å/fs²]/L`
    /// this is `4.184e-4 / L²`.
    #[inline]
    pub fn acc_factor(&self) -> f64 {
        KCALMOL_PER_AMU_ANGSTROM / (self.cell_angstrom * self.cell_angstrom)
    }

    /// Kinetic energy: `KE [kcal/mol] = ke_factor() · m [amu] · v² [cells²/fs²]`.
    ///
    /// `KE = ½ m v[Å/fs]² / 4.184e-4`, and `v[Å/fs] = v[cells/fs]·L`.
    #[inline]
    pub fn ke_factor(&self) -> f64 {
        0.5 * self.cell_angstrom * self.cell_angstrom / KCALMOL_PER_AMU_ANGSTROM
    }

    /// Standard deviation of one Maxwell–Boltzmann velocity component at
    /// temperature `t_kelvin` for mass `m_amu`, in cells/fs.
    #[inline]
    pub fn mb_sigma(&self, t_kelvin: f64, m_amu: f64) -> f64 {
        (BOLTZMANN_KCALMOL * t_kelvin / m_amu * KCALMOL_PER_AMU_ANGSTROM).sqrt()
            / self.cell_angstrom
    }

    /// The paper's headline metric: µs of simulated time per wall-clock day,
    /// given the femtosecond timestep and the wall-clock seconds one
    /// timestep takes.
    #[inline]
    pub fn us_per_day(dt_fs: f64, seconds_per_step: f64) -> f64 {
        // fs/day of simulation ÷ 1e9 → µs/day
        dt_fs / seconds_per_step * 86_400.0 / 1.0e9
    }
}

impl Default for UnitSystem {
    fn default() -> Self {
        UnitSystem::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_roundtrip() {
        let u = UnitSystem::PAPER;
        assert!((u.len_to_angstrom(u.len_to_cells(3.7)) - 3.7).abs() < 1e-12);
        assert_eq!(u.len_to_cells(8.5), 1.0);
    }

    #[test]
    fn acc_factor_consistent_with_angstrom_form() {
        let u = UnitSystem { cell_angstrom: 1.0 };
        assert!((u.acc_factor() - KCALMOL_PER_AMU_ANGSTROM).abs() < 1e-18);
    }

    #[test]
    fn ke_of_thermal_particle_matches_equipartition() {
        // <KE> per particle = (3/2) kB T when components are MB-distributed.
        // Check the factor identity: ke_factor * m * (3 * mb_sigma²) = 1.5 kB T.
        let u = UnitSystem::PAPER;
        let (t, m) = (300.0, 22.989769);
        let sigma = u.mb_sigma(t, m);
        let ke = u.ke_factor() * m * 3.0 * sigma * sigma;
        assert!((ke - 1.5 * BOLTZMANN_KCALMOL * t).abs() < 1e-12);
    }

    #[test]
    fn us_per_day_paper_scale() {
        // 2 fs steps at 10 µs wall each → 2e-9 µs_sim / 1e-5 s = 17.28 µs/day
        let rate = UnitSystem::us_per_day(2.0, 1.0e-5);
        assert!((rate - 17.28).abs() < 1e-9, "{rate}");
    }
}
