//! Thermostats for equilibration runs.
//!
//! The paper's benchmark runs are NVE (no thermostat — energy
//! conservation is the validation metric, Fig. 19), but preparing an
//! equilibrated system to benchmark *on* requires temperature control.
//! Two standard weak-coupling schemes are provided.

use crate::observables::temperature;
use crate::system::ParticleSystem;

/// A velocity-rescaling thermostat.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Thermostat {
    /// Hard rescale to the target temperature every invocation.
    Rescale {
        /// Target temperature, K.
        target_k: f64,
    },
    /// Berendsen weak coupling: `λ² = 1 + (dt/τ)(T₀/T − 1)`.
    Berendsen {
        /// Target temperature, K.
        target_k: f64,
        /// Coupling time constant, fs.
        tau_fs: f64,
    },
}

impl Thermostat {
    /// Apply one thermostat action after a timestep of `dt_fs`.
    /// Returns the scaling factor used.
    pub fn apply(&self, sys: &mut ParticleSystem, dt_fs: f64) -> f64 {
        let t = temperature(sys);
        if t <= 0.0 {
            return 1.0;
        }
        let lambda = match *self {
            Thermostat::Rescale { target_k } => (target_k / t).sqrt(),
            Thermostat::Berendsen { target_k, tau_fs } => {
                (1.0 + dt_fs / tau_fs * (target_k / t - 1.0)).max(0.0).sqrt()
            }
        };
        for v in &mut sys.vel {
            *v = *v * lambda;
        }
        lambda
    }

    /// Target temperature.
    pub fn target(&self) -> f64 {
        match *self {
            Thermostat::Rescale { target_k } => target_k,
            Thermostat::Berendsen { target_k, .. } => target_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::space::SimulationSpace;
    use crate::units::UnitSystem;
    use crate::vec3::Vec3;
    use crate::workload::WorkloadSpec;

    fn hot_system() -> ParticleSystem {
        WorkloadSpec {
            temperature_k: 900.0,
            ..WorkloadSpec::paper(SimulationSpace::cubic(3), 5)
        }
        .generate()
    }

    #[test]
    fn rescale_hits_target_exactly() {
        let mut sys = hot_system();
        Thermostat::Rescale { target_k: 300.0 }.apply(&mut sys, 2.0);
        let t = temperature(&sys);
        assert!((t - 300.0).abs() < 1e-9, "T = {t}");
    }

    #[test]
    fn berendsen_moves_toward_target() {
        let mut sys = hot_system();
        let t0 = temperature(&sys);
        let th = Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 100.0,
        };
        th.apply(&mut sys, 2.0);
        let t1 = temperature(&sys);
        assert!(t1 < t0, "cooling expected: {t0} → {t1}");
        assert!(t1 > 300.0, "must not overshoot in one step");
        // repeated application converges
        for _ in 0..2_000 {
            th.apply(&mut sys, 2.0);
        }
        let t = temperature(&sys);
        assert!((t - 300.0).abs() < 1.0, "converged T = {t}");
    }

    #[test]
    fn zero_velocity_system_untouched() {
        let mut sys = ParticleSystem::new(SimulationSpace::cubic(3), UnitSystem::PAPER);
        sys.push(Element::Na, Vec3::splat(0.5), Vec3::ZERO);
        let lambda = Thermostat::Rescale { target_k: 300.0 }.apply(&mut sys, 2.0);
        assert_eq!(lambda, 1.0);
        assert_eq!(sys.vel[0], Vec3::ZERO);
    }
}
