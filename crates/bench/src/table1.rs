//! Table 1 — hardware (resource) utilization of all design variations:
//! the analytic composition model vs the paper's synthesis results.

use crate::DESIGNS;
use fasda_core::config::ChipConfig;
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::resources::{estimate, ResourcePercent, ALVEO_U280, PAPER_TABLE1};

row! {
    /// One design's per-FPGA resources, % of an Alveo U280.
    pub struct ResourceRow {
        pub design: &'static str,
        pub fpgas: u32,
        pub model: ResourcePercent,
        /// LUT, FF, BRAM, URAM and DSP from the paper's synthesis.
        pub paper: [f64; 5],
    }
    |r| "design": r.design, "FPGAs": r.fpgas, "LUT": r.cell(0), "FF": r.cell(1), "BRAM": r.cell(2), "URAM": r.cell(3),
        "DSP": r.cell(4)
}

impl ResourceRow {
    /// The model's LUT, FF, BRAM, URAM and DSP.
    pub fn modelled(&self) -> [f64; 5] {
        let m = &self.model;
        [m.lut, m.ff, m.bram, m.uram, m.dsp]
    }

    fn cell(&self, i: usize) -> String {
        format!("{:.0} / {:.0}", self.modelled()[i], self.paper[i])
    }
}

/// The model against the paper for every design of Table 1.
pub fn resources() -> Vec<ResourceRow> {
    DESIGNS
        .iter()
        .zip(PAPER_TABLE1)
        .map(|(d, (_, fpgas, lut, ff, bram, uram, dsp))| {
            let geometry = ChipGeometry::new(d.space(), d.block, ChipCoord::new(0, 0, 0));
            let model = estimate(&ChipConfig::variant(d.variant), &geometry).percent_of(ALVEO_U280);
            ResourceRow { design: d.label, fpgas, model, paper: [lut, ff, bram, uram, dsp] }
        })
        .collect()
}
