//! The paper's claims (§5) as assertions on the rows `fasda-cli repro`
//! prints, at CI size: one simulated step, where EXPERIMENTS.md shows the
//! same rows at two or three. Simulated cycles are deterministic, so a
//! claim that does not hold is pinned at its value here instead.

use fasda_bench::{fig16, fig17, fig18, table1, DESIGNS};
use fasda_cluster::EngineConfig;
use fasda_core::config::DesignVariant;

/// Fig. 16: the simulation rate does not depend on the node count when
/// each node keeps 3×3×3 cells.
#[test]
fn weak_scaling_is_flat_within_5_percent_over_1_to_8_fpgas() {
    let rows = fig16::weak(1, &EngineConfig::auto());
    let fpgas: Vec<usize> = rows.iter().map(|r| r.fpgas).collect();
    assert_eq!(fpgas, [1, 2, 4, 8]);
    assert!(fig16::spread(&rows) < 0.05, "weak-scaling spread {:.4}", fig16::spread(&rows));
}

/// Fig. 17: PE hardware utilization is 50–60 % on every variant-A design
/// and the motion update unit is busy under 5 % of the time anywhere.
#[test]
fn pe_utilisation_is_in_band_on_variant_a_and_mu_is_idle() {
    let rows = fig17::utilisation(1, &EngineConfig::auto());
    for (row, design) in rows.iter().zip(&DESIGNS) {
        let (pe, _) = row.of("PE");
        if design.variant == DesignVariant::A {
            assert!((0.50..=0.60).contains(&pe), "{}: PE hw {pe:.3}", row.design);
        }
        let (mu_hw, mu_time) = row.of("MU");
        assert!(mu_hw < 0.05 && mu_time < 0.05, "{}: MU {mu_hw:.3}/{mu_time:.3}", row.design);
    }
    // Deviation (ROADMAP item 9): the paper holds variant C's PEs in the
    // 50–60 % band too; this model reads 41 % (41.4 over EXPERIMENTS.md's
    // two steps). Pinned, so that closing it is a deliberate edit.
    let c = rows.iter().zip(&DESIGNS).find(|(_, d)| d.variant == DesignVariant::C);
    let (pe_c, _) = c.expect("a variant-C design").0.of("PE");
    assert_eq!(format!("{:.1}", 100.0 * pe_c), "41.2");
}

/// Fig. 16: variant C's strong-scaling speed-up over variant A.
#[test]
fn strong_scaling_c_over_a_is_pinned() {
    let rows = fig16::strong(1, &EngineConfig::auto());
    // Deviation (ROADMAP item 9): the paper measures 5.26×; this model
    // reads 4.63× here and 4.65× over EXPERIMENTS.md's three steps.
    assert_eq!(format!("{:.2}", fig16::speedup_c_over_a(&rows)), "4.63");
}

/// Fig. 18: each node's position and force ports each need under 25 Gbps,
/// even on the 2-SPE/3-PE design.
#[test]
fn per_node_bandwidth_is_under_25_gbps() {
    for row in fig18::bandwidth(1, &EngineConfig::auto()) {
        assert!(row.pos_gbps < 25.0 && row.frc_gbps < 25.0, "{}: {} / {}", row.design, row.pos_gbps, row.frc_gbps);
    }
}

/// Table 1: every design fits one Alveo U280.
#[test]
fn every_table1_design_fits_a_u280() {
    for row in table1::resources() {
        assert!(row.modelled().iter().all(|&p| p < 100.0), "{}: {:?}", row.design, row.modelled());
    }
}
