//! Chip configuration: hardware parameters and the paper's design
//! variants.
//!
//! FASDA "is built with a series of easily plugable components that can be
//! adjusted based on user requirements" (§1). [`HwParams`] exposes the
//! microarchitectural knobs (filter count, pipeline latencies, FIFO
//! depths, table geometry); [`ChipConfig`] adds the two strong-scaling
//! knobs of §4.5–4.6 — PEs per SPE and SPEs per CBB. The evaluation's
//! named variants (Table 1, Fig. 17) are provided as
//! [`DesignVariant`] constructors:
//!
//! | variant   | SPEs/CBB | PEs/SPE |
//! |-----------|----------|---------|
//! | `A`       | 1        | 1       |
//! | `B`       | 1        | 3       |
//! | `C`       | 2        | 3       |

use fasda_arith::interp::TableConfig;
use fasda_md::ewald::EwaldParams;

/// Microarchitectural parameters of one FASDA chip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HwParams {
    /// Clock frequency in Hz. The paper's Alveo U280 builds run at
    /// 200 MHz (§5.1).
    pub clock_hz: f64,
    /// Pair filters per force pipeline. The paper uses 6, chosen so the
    /// filter bank's valid-pair rate (~15.5% × 6 ≈ 0.93/cycle, Eq. 3)
    /// matches the pipeline's one-force-per-cycle throughput (§5.3).
    pub filters_per_pe: u32,
    /// Force pipeline latency in cycles (fixed→float conversion, table
    /// lookup, FP multiply/add tree).
    pub force_pipe_latency: u32,
    /// Depth of the per-filter valid-pair FIFO feeding the arbiter.
    pub pair_fifo_depth: usize,
    /// Depth of the neighbour-position input FIFO behind each PRN.
    pub pos_in_fifo_depth: usize,
    /// Depth of the neighbour-force output FIFO feeding each FRN.
    pub frc_out_fifo_depth: usize,
    /// Motion-update pipeline latency in cycles.
    pub mu_latency: u32,
    /// Minimum cycles between successive position broadcasts from one
    /// cell (per SPE). The PC meters its broadcast to the consumption
    /// rate — "each position still requires over 100 cycles of
    /// processing before the next one can be processed, granting the
    /// position ring ample routing time" (§4.5) — which keeps the
    /// position ring underused (Fig. 17). `0` (the default) derives the
    /// interval from the configuration at phase start:
    /// `13·(home_len + pipeline latency) / filters_per_spe`, the rate at
    /// which the 13 receiving cells retire a broadcast position.
    pub bcast_cooldown: u32,
    /// Interpolation table geometry (§3.4).
    pub table: TableConfig,
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams {
            clock_hz: 200.0e6,
            filters_per_pe: 6,
            force_pipe_latency: 43,
            pair_fifo_depth: 8,
            pos_in_fifo_depth: 8,
            frc_out_fifo_depth: 8,
            mu_latency: 24,
            bcast_cooldown: 0,
            table: TableConfig::PAPER,
        }
    }
}

impl HwParams {
    /// Seconds per clock cycle.
    #[inline]
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Convert a cycles-per-timestep measurement into the paper's
    /// µs/day simulation-rate metric for a `dt_fs`-femtosecond timestep.
    pub fn us_per_day(&self, cycles_per_step: f64, dt_fs: f64) -> f64 {
        let seconds_per_step = cycles_per_step * self.cycle_seconds();
        fasda_md::units::UnitSystem::us_per_day(dt_fs, seconds_per_step)
    }
}

/// The named strong-scaling variants of the evaluation (§5.2, Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesignVariant {
    /// 1 SPE per CBB, 1 PE per SPE — the baseline CBB.
    A,
    /// 1 SPE per CBB, 3 PEs per SPE — PE scaling (§4.5).
    B,
    /// 2 SPEs per CBB, 3 PEs per SPE — CBB scaling (§4.6).
    C,
}

impl DesignVariant {
    /// `(spes_per_cbb, pes_per_spe)` for this variant.
    pub fn shape(self) -> (u32, u32) {
        match self {
            DesignVariant::A => (1, 1),
            DesignVariant::B => (1, 3),
            DesignVariant::C => (2, 3),
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DesignVariant::A => "1-SPE,1-PE",
            DesignVariant::B => "1-SPE,3-PE",
            DesignVariant::C => "2-SPE,3-PE",
        }
    }
}

/// Full configuration of one chip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipConfig {
    /// Microarchitecture parameters.
    pub hw: HwParams,
    /// SPEs per CBB (§4.6 CBB scaling). 1 = plain CBB.
    pub spes_per_cbb: u32,
    /// PEs per SPE (§4.5 PE scaling). 1 = plain PE.
    pub pes_per_spe: u32,
    /// Optional real-space PME electrostatics through the same pipeline
    /// (§2.1); `None` = LJ-only, the paper's benchmark configuration.
    pub electrostatics: Option<EwaldParams>,
    /// Filter cutoff radius in cell units; 1.0 (the paper's design point,
    /// Fig. 3) means `Rc` equals the cell edge. Values below 1 model a
    /// cell edge larger than the cutoff.
    pub cutoff_cells: f64,
}

impl ChipConfig {
    /// Baseline configuration (variant A geometry, default parameters).
    pub fn baseline() -> Self {
        ChipConfig::variant(DesignVariant::A)
    }

    /// A named evaluation variant with default hardware parameters.
    pub fn variant(v: DesignVariant) -> Self {
        let (spes, pes) = v.shape();
        ChipConfig {
            hw: HwParams::default(),
            spes_per_cbb: spes,
            pes_per_spe: pes,
            electrostatics: None,
            cutoff_cells: 1.0,
        }
    }

    /// Total PEs (force pipelines) per CBB.
    #[inline]
    pub fn pes_per_cbb(&self) -> u32 {
        self.spes_per_cbb * self.pes_per_spe
    }

    /// Total filters per CBB.
    #[inline]
    pub fn filters_per_cbb(&self) -> u32 {
        self.pes_per_cbb() * self.hw.filters_per_pe
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.spes_per_cbb == 0 || self.pes_per_spe == 0 {
            return Err("spes_per_cbb and pes_per_spe must be positive".into());
        }
        if self.spes_per_cbb > 8 {
            return Err("more than 8 SPEs per CBB is not a supported design point".into());
        }
        if self.hw.filters_per_pe == 0 {
            return Err("need at least one filter per PE".into());
        }
        if !(self.cutoff_cells > 0.0 && self.cutoff_cells <= 1.0) {
            return Err("cutoff_cells must be in (0, 1]".into());
        }
        Ok(())
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_shapes_match_paper() {
        assert_eq!(DesignVariant::A.shape(), (1, 1));
        assert_eq!(DesignVariant::B.shape(), (1, 3));
        assert_eq!(DesignVariant::C.shape(), (2, 3));
        assert_eq!(ChipConfig::variant(DesignVariant::C).pes_per_cbb(), 6);
        assert_eq!(ChipConfig::variant(DesignVariant::C).filters_per_cbb(), 36);
    }

    #[test]
    fn us_per_day_conversion() {
        let hw = HwParams::default();
        // 15_000 cycles @ 200 MHz = 75 µs per 2 fs step
        let rate = hw.us_per_day(15_000.0, 2.0);
        let want = 2.0 / (15_000.0 / 200.0e6 * 1e6) * 86_400.0 / 1.0e9 * 1e6;
        // direct: 2 fs per 75 µs → 2e-9 µs sim per 7.5e-5 s → × 86400 s/day
        let direct = 2e-9 / 7.5e-5 * 86_400.0;
        assert!((rate - direct).abs() < 1e-9, "{rate} vs {direct} ({want})");
    }

    #[test]
    fn validate_rejects_zeroes() {
        let mut c = ChipConfig::baseline();
        assert!(c.validate().is_ok());
        c.pes_per_spe = 0;
        assert!(c.validate().is_err());
        c.pes_per_spe = 1;
        c.spes_per_cbb = 99;
        assert!(c.validate().is_err());
    }
}
