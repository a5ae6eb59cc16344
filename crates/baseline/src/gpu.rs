//! Analytic GPU performance model (A100 / V100 OpenMM stand-in).
//!
//! **No GPU exists in this reproduction environment.** This model
//! replaces the measured OpenMM-CUDA runs of Fig. 16 with an affine
//! per-step cost plus a multi-GPU synchronization term:
//!
//! ```text
//! t_step(N, g) = T0 + (g − 1)·T_SYNC + N / (R · g)
//! ```
//!
//! * `T0` — fixed per-step cost (kernel launches, host synchronization,
//!   neighbour-list bookkeeping). Dominates at small N, producing the
//!   paper's observation that GPU efficiency *grows* with workload and
//!   that small-molecule systems cannot saturate a GPU.
//! * `T_SYNC` — added cost per extra GPU (NVLink synchronization every
//!   timestep). Produces the paper's **negative strong scaling**: −26%
//!   for 2 GPUs and −49% for 4 GPUs on the 4×4×4 space.
//! * `R` — saturated particle throughput.
//!
//! The constants below were **calibrated once against the ratios the
//! paper reports** (not measured): 2-GPU/1-GPU = 0.74, 4-GPU/1-GPU =
//! 0.51, the 4³→8³ rate drop of ~60%, the 8³→10³ halving, and the
//! 4.67× FPGA-vs-best-GPU headline. Every harness that consumes this
//! model prints the constants alongside its results.

/// GPU device classes of the paper's testbed (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuKind {
    /// Nvidia A100-40GB (up to 2, NVLink).
    A100,
    /// Nvidia V100-16GB (up to 4, all-to-all NVLink).
    V100,
}

impl GpuKind {
    /// Saturated LJ throughput, particles per second (calibrated).
    pub fn particles_per_second(self) -> f64 {
        match self {
            GpuKind::A100 => 2.4e8,
            GpuKind::V100 => 1.45e8,
        }
    }

    /// Fixed per-step overhead, seconds (calibrated).
    pub fn step_overhead(self) -> f64 {
        match self {
            GpuKind::A100 => 58.0e-6,
            GpuKind::V100 => 62.0e-6,
        }
    }

    /// Per-extra-GPU synchronization cost, seconds (calibrated).
    pub fn sync_per_gpu(self) -> f64 {
        match self {
            GpuKind::A100 => 30.0e-6,
            GpuKind::V100 => 35.0e-6,
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            GpuKind::A100 => "A100",
            GpuKind::V100 => "V100",
        }
    }
}

/// The analytic model for `gpus` devices of one kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// Device class.
    pub kind: GpuKind,
    /// Device count.
    pub gpus: u32,
}

impl GpuModel {
    /// Build a model; the paper uses up to 2×A100 or 4×V100.
    pub fn new(kind: GpuKind, gpus: u32) -> Self {
        assert!(gpus >= 1);
        let max = match kind {
            GpuKind::A100 => 2,
            GpuKind::V100 => 4,
        };
        assert!(gpus <= max, "{} supports up to {max} devices", kind.label());
        GpuModel { kind, gpus }
    }

    /// Modeled seconds per timestep for `n` particles.
    pub fn seconds_per_step(&self, n: usize) -> f64 {
        let k = self.kind;
        k.step_overhead()
            + (self.gpus - 1) as f64 * k.sync_per_gpu()
            + n as f64 / (k.particles_per_second() * self.gpus as f64)
    }

    /// Modeled simulation rate in µs/day for a `dt_fs` timestep.
    pub fn us_per_day(&self, n: usize, dt_fs: f64) -> f64 {
        fasda_md::units::UnitSystem::us_per_day(dt_fs, self.seconds_per_step(n))
    }

    /// One-line disclosure of the calibrated constants, for harness
    /// output.
    pub fn describe(&self) -> String {
        let k = self.kind;
        format!(
            "{}x{} model (CALIBRATED, not measured): T0={:.0}us, Tsync={:.0}us/extra-GPU, R={:.2e} particles/s",
            self.gpus,
            k.label(),
            k.step_overhead() * 1e6,
            k.sync_per_gpu() * 1e6,
            k.particles_per_second()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N_4CUBE: usize = 64 * 64; // 4³ cells × 64

    #[test]
    fn negative_strong_scaling_matches_paper_ratios() {
        // paper §5.2: "2 GPUs and 4 GPUs result in 26% and 49%
        // performance loss respectively compared to 1 GPU"
        let r1 = GpuModel::new(GpuKind::V100, 1).us_per_day(N_4CUBE, 2.0);
        let r2 = GpuModel::new(GpuKind::V100, 2).us_per_day(N_4CUBE, 2.0);
        let r4 = GpuModel::new(GpuKind::V100, 4).us_per_day(N_4CUBE, 2.0);
        let loss2 = 1.0 - r2 / r1;
        let loss4 = 1.0 - r4 / r1;
        assert!((loss2 - 0.26).abs() < 0.10, "2-GPU loss {loss2:.2}");
        assert!((loss4 - 0.49).abs() < 0.12, "4-GPU loss {loss4:.2}");
    }

    #[test]
    fn efficiency_grows_with_workload() {
        // paper §5.2: 4³ → 8³ (8× particles) costs only ~60% of the rate
        let m = GpuModel::new(GpuKind::A100, 1);
        let r4 = m.us_per_day(4096, 2.0);
        let r8 = m.us_per_day(32768, 2.0);
        let drop = 1.0 - r8 / r4;
        assert!(
            (0.45..0.80).contains(&drop),
            "4³→8³ rate drop {drop:.2} out of band"
        );
        // 8³ → 10³ is near-proportional (GPU saturated)
        let r10 = m.us_per_day(64000, 2.0);
        let ratio = r8 / r10;
        let workload_ratio = 64000.0 / 32768.0;
        assert!(
            (ratio / workload_ratio - 1.0).abs() < 0.35,
            "saturated scaling ratio {ratio:.2} vs workload {workload_ratio:.2}"
        );
    }

    #[test]
    fn single_gpu_rate_in_papers_regime() {
        // best GPU on 4³ should land in the low single-digit µs/day so
        // the FPGA's ~12 µs/day gives the ~4.67× headline.
        let r = GpuModel::new(GpuKind::A100, 1).us_per_day(N_4CUBE, 2.0);
        assert!((1.0..5.0).contains(&r), "A100 4³ rate {r:.2} µs/day");
    }

    #[test]
    #[should_panic(expected = "supports up to 2")]
    fn a100_limited_to_two() {
        GpuModel::new(GpuKind::A100, 3);
    }

    #[test]
    fn describe_discloses_calibration() {
        let d = GpuModel::new(GpuKind::A100, 2).describe();
        assert!(d.contains("CALIBRATED"));
    }
}
