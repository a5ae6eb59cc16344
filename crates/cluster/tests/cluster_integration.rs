//! Cluster integration: a multi-FPGA run must compute exactly the same
//! physics as the single-chip functional model, while the chained
//! synchronization protocol terminates and lets fast nodes race ahead.

use fasda_arith::interp::TableConfig;
use fasda_cluster::{Cluster, ClusterConfig, FaultPlan};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::functional::FunctionalChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_net::sync::SyncMode;

fn workload(d: u32, per_cell: u32, seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(d),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

#[test]
fn eight_chip_run_matches_functional() {
    let sys = workload(6, 3, 21);
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let mut cluster = Cluster::new(cfg, &sys);
    assert_eq!(cluster.num_nodes(), 8);
    assert_eq!(cluster.num_particles(), sys.len());

    let mut func = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
    let steps = 3;
    for _ in 0..steps {
        func.step();
    }
    let want = func.snapshot();

    let report = cluster.run(steps);
    assert_eq!(report.steps, steps);
    let mut got = sys.clone();
    cluster.store_into(&mut got);

    assert_eq!(cluster.num_particles(), sys.len(), "no particle lost");
    let mut worst = 0.0f64;
    for i in 0..sys.len() {
        let d = sys.space.min_image(got.pos[i], want.pos[i]).max_abs();
        worst = worst.max(d);
    }
    assert!(
        worst < 1e-5,
        "cluster diverged from functional by {worst} cells over {steps} steps"
    );
}

#[test]
fn cluster_reports_sane_timing_and_traffic() {
    let sys = workload(6, 4, 22);
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let mut cluster = Cluster::new(cfg, &sys);
    let report = cluster.run(2);
    assert!(report.total_cycles > 0);
    assert!(report.cycles_per_step() > 100.0);
    assert!(report.us_per_day() > 0.0);
    // remote traffic must exist: positions and forces both ports
    assert!(report.pos_packets > 0, "no position packets?");
    assert!(report.frc_packets > 0, "no force packets?");
    // bandwidth demand far below 100 Gbps line rate (Fig. 18 A)
    assert!(report.pos_gbps_per_node() < 100.0);
    assert!(report.frc_gbps_per_node() < report.pos_gbps_per_node() * 2.0 + 100.0);
    // per-node records: one per node per step
    assert_eq!(report.records.len(), 8 * 2);
}

#[test]
fn two_chip_partition_works() {
    // the paper's 2-FPGA configuration: 6x3x3 cells, 3x3x3 per chip
    let sys = WorkloadSpec {
        space: SimulationSpace::new(6, 3, 3),
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 23,
        element: Element::Na,
    }
    .generate();
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let mut cluster = Cluster::new(cfg, &sys);
    assert_eq!(cluster.num_nodes(), 2);
    let mut func = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
    func.step();
    let want = func.snapshot();
    cluster.run(1);
    let mut got = sys.clone();
    cluster.store_into(&mut got);
    let mut worst = 0.0f64;
    for i in 0..sys.len() {
        worst = worst.max(sys.space.min_image(got.pos[i], want.pos[i]).max_abs());
    }
    assert!(worst < 1e-5, "2-chip divergence {worst}");
}

#[test]
fn bulk_sync_is_slower_than_chained() {
    let sys = workload(6, 3, 24);
    let chained = {
        let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
        Cluster::new(cfg, &sys).run(2)
    };
    let bulk = {
        let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
        cfg.sync = SyncMode::Bulk { latency: 2_000 };
        Cluster::new(cfg, &sys).run(2)
    };
    assert!(
        bulk.total_cycles > chained.total_cycles,
        "bulk {} should exceed chained {}",
        bulk.total_cycles,
        chained.total_cycles
    );
}

#[test]
fn straggler_lets_other_nodes_race_ahead() {
    let sys = workload(6, 3, 25);
    let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    cfg.straggler = Some((0, 3_000));
    let report = Cluster::new(cfg, &sys).run(2);
    // chained sync: completion times within a step spread out
    assert!(
        report.avg_completion_spread() > 0.0,
        "expected nonzero completion spread under a straggler"
    );
}

#[test]
fn strong_scaling_variant_c_beats_a_on_cluster() {
    let sys = workload(4, 16, 26);
    let a = Cluster::new(
        ClusterConfig::paper(ChipConfig::variant(DesignVariant::A), (2, 2, 2)),
        &sys,
    )
    .run(1);
    let c = Cluster::new(
        ClusterConfig::paper(ChipConfig::variant(DesignVariant::C), (2, 2, 2)),
        &sys,
    )
    .run(1);
    assert!(
        c.total_cycles < a.total_cycles,
        "variant C ({}) should beat A ({})",
        c.total_cycles,
        a.total_cycles
    );
}

#[test]
fn migration_across_chips_preserves_particles() {
    // hot system → guaranteed migrations, including across chip borders
    let sys = WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell: 4,
        placement: Placement::JitteredLattice { jitter: 0.1 },
        temperature_k: 600.0,
        seed: 27,
        element: Element::Na,
    }
    .generate();
    let n = sys.len();
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let mut cluster = Cluster::new(cfg, &sys);
    cluster.run(5);
    assert_eq!(cluster.num_particles(), n, "particles conserved");
    let mut got = sys.clone();
    cluster.store_into(&mut got);
    assert!(got.validate().is_ok());
}

#[test]
fn packet_loss_stalls_chained_sync() {
    // UDP has no retransmission: a lost data or marker packet starves
    // the chained synchronization. try_run reports the stall instead of
    // hanging — the failure mode the paper's cooldown counters prevent.
    let sys = workload(6, 3, 28);
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3))
        .with_faults(FaultPlan::drop_only(0.2, 7));
    let mut cluster = Cluster::new(cfg, &sys);
    match cluster.try_run(3, 300_000) {
        Err(stall) => {
            assert!(stall.packets_lost() > 0, "loss must have occurred");
        }
        Ok(r) => panic!(
            "20% packet loss should stall the cluster, but it finished in {} cycles",
            r.total_cycles
        ),
    }
}

#[test]
fn zero_loss_try_run_equals_run() {
    let sys = workload(6, 3, 29);
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let a = Cluster::new(cfg.clone(), &sys).run(2);
    let b = Cluster::new(cfg, &sys)
        .try_run(2, u64::MAX / 2)
        .expect("lossless run converges");
    assert_eq!(a.total_cycles, b.total_cycles);
}
