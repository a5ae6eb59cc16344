//! Figure 17 — hardware and time utilization of the key components (PR,
//! FR, Filter, PE, MU) for the seven designs.

use crate::DESIGNS;
use fasda_cluster::EngineConfig;

pub const COMPONENTS: [&str; 5] = ["PR", "FR", "Filter", "PE", "MU"];

row! {
    /// One design's utilization of each of [`COMPONENTS`].
    pub struct UtilRow {
        pub design: &'static str,
        pub fpgas: usize,
        /// `(hardware, time)` utilization, as fractions.
        pub util: [(f64, f64); 5],
    }
    |r| "design": r.design, "FPGAs": r.fpgas, "PR": r.cell("PR"), "FR": r.cell("FR"), "Filter": r.cell("Filter"),
        "PE": r.cell("PE"), "MU": r.cell("MU")
}

impl UtilRow {
    /// `(hardware, time)` utilization of `component`.
    pub fn of(&self, component: &str) -> (f64, f64) {
        let i = COMPONENTS.iter().position(|c| *c == component).expect("a Fig. 17 component");
        self.util[i]
    }

    fn cell(&self, component: &str) -> String {
        let (hw, time) = self.of(component);
        format!("{:.1}/{:.1}", 100.0 * hw, 100.0 * time)
    }
}

/// Utilization of every design in Table 1's order.
pub fn utilisation(steps: u64, engine: &EngineConfig) -> Vec<UtilRow> {
    DESIGNS
        .iter()
        .map(|d| {
            let run = d.run(steps, engine);
            let util = COMPONENTS.map(|c| (run.stats.hardware_util(c, run.window), run.stats.time_util(c, run.window)));
            UtilRow { design: d.label, fpgas: run.fpgas, util }
        })
        .collect()
}

pub(crate) fn body(rows: &[UtilRow], steps: u64) -> String {
    format!(
        "{}\npaper: PE hw 50–60 %, PE time ≈ 80 %, MU < 5 %, PR underused. Cluster windows are \
         wall-clock cycles over {steps} step(s), so inter-step sync gaps dilute them, as on \
         hardware.\n",
        crate::markdown(rows)
    )
}
