//! Figure 19 — energy relative error with respect to the
//! double-precision reference (OpenMM stand-in).
//!
//! The FASDA functional model (fixed-point positions, interpolated
//! forces, f32 state) and the f64 cell-list reference engine integrate
//! the same initial condition with the same leapfrog discretization; at
//! regular intervals both trajectories' total energies (KE + truncated-LJ
//! PE, both evaluated in f64) are compared. The paper runs 100 000
//! iterations on the 4×4×4 space and finds the relative error always
//! below 1e-3 and generally below 1e-4.

use crate::workload;
use fasda_arith::interp::TableConfig;
use fasda_core::functional::FunctionalChip;
use fasda_md::element::PairTable;
use fasda_md::engine::{CellListEngine, ForceEngine};
use fasda_md::integrator::Integrator;
use fasda_md::observables::{kinetic_energy_onstep, relative_error};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;

row! {
    /// Both trajectories' total energy at one step (kcal/mol).
    pub struct EnergyRow { pub step: u64, pub reference: f64, pub fasda: f64 }
    |r| "step": r.step, "E_ref": format!("{:.4}", r.reference), "E_fasda": format!("{:.4}", r.fasda),
        "relative error": format!("{:.3e}", r.error())
}

impl EnergyRow {
    fn error(&self) -> f64 {
        relative_error(self.fasda, self.reference)
    }
}

/// Total energy with leapfrog-synchronized kinetic energy: PE at the
/// current positions plus KE from velocities advanced to the same time
/// point. Without this synchronization, comparing two decorrelated
/// leapfrog trajectories is dominated by their (independent) half-step
/// KE oscillations rather than by arithmetic differences.
fn total_energy(sys: &mut ParticleSystem, eng: &mut CellListEngine) -> f64 {
    let pe = eng.compute_forces(sys);
    pe + kinetic_energy_onstep(sys, 2.0)
}

/// `steps` steps on a `d`³ space: the initial energies, then both
/// trajectories' energies every `interval` steps and at the last step.
/// The two trajectories are independent, so each integrates — and
/// measures its own energy at the sample steps — on a thread of its own.
pub fn energy(steps: u64, interval: u64, d: u32) -> Vec<EnergyRow> {
    let sys = workload(SimulationSpace::cubic(d));
    let table = PairTable::new(UnitSystem::PAPER);
    let sampled = |step: u64| step.is_multiple_of(interval) || step == steps;
    let (fasda, reference) = std::thread::scope(|s| {
        let fasda = s.spawn(|| {
            let mut chip = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
            let mut meas = CellListEngine::new(table.clone());
            let mut energies = vec![total_energy(&mut chip.snapshot(), &mut meas)];
            for step in 1..=steps {
                chip.step();
                if sampled(step) {
                    energies.push(total_energy(&mut chip.snapshot(), &mut meas));
                }
            }
            energies
        });
        let mut ref_sys = sys.clone();
        let mut ref_eng = CellListEngine::new(table.clone());
        let mut meas = CellListEngine::new(table.clone());
        let mut energies = vec![(0, total_energy(&mut ref_sys.clone(), &mut meas))];
        for step in 1..=steps {
            ref_eng.step(&mut ref_sys, &Integrator::PAPER);
            if sampled(step) {
                energies.push((step, total_energy(&mut ref_sys.clone(), &mut meas)));
            }
        }
        (fasda.join().expect("FASDA trajectory thread"), energies)
    });
    reference
        .into_iter()
        .zip(fasda)
        .map(|((step, reference), fasda)| EnergyRow { step, reference, fasda })
        .collect()
}

/// The largest relative error of `rows` (step 0 included).
fn worst(rows: &[EnergyRow]) -> f64 {
    rows.iter().map(EnergyRow::error).fold(0.0, f64::max)
}

pub(crate) fn body(rows: &[EnergyRow]) -> String {
    let worst_row = rows.iter().fold(&rows[0], |w, r| if r.error() > w.error() { r } else { w });
    let samples = &rows[1..];
    let above = samples.iter().filter(|r| r.error() > 1e-4).count();
    let met = if worst(rows) < 1e-3 { "MET" } else { "NOT MET" };
    format!(
        "{}\nworst relative error: {:.3e} at step {}\nsamples above 1e-4: {above}/{} ({:.0}%)\n\
         paper criterion (always < 1e-3): {met}\n",
        crate::markdown(rows),
        worst_row.error(),
        worst_row.step,
        samples.len(),
        100.0 * above as f64 / samples.len().max(1) as f64
    )
}
