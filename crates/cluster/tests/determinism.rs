//! Engine determinism regression: the fast engine (`auto()` — idle
//! fast-forward, quiescence cache, mask-driven chip tick, fused SoA scan) must
//! produce reports and particle state bit-identical to the serial oracle
//! under both synchronization modes, plain, with a straggler, and into a
//! lossy deadlock. (The chip-level switches are isolated one by one in
//! `fasda-core`'s `timed_vs_functional` suite.)

use fasda_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterRunReport, EngineConfig, FaultPlan,
};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_net::sync::SyncMode;

fn workload(seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

/// 2×2×2 nodes: a 6³-cell space split into 3×3×3-cell blocks.
fn cfg(sync: SyncMode) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    cfg.sync = sync;
    cfg
}

/// Run 3 steps on a fresh 2×2×2-node cluster under `engine`, returning
/// the report and the gathered particle state.
fn run(sync: SyncMode, engine: &EngineConfig) -> (ClusterRunReport, ParticleSystem) {
    let sys = workload(31);
    let mut cluster = Cluster::new(cfg(sync), &sys);
    assert_eq!(cluster.num_nodes(), 8);
    let report = cluster
        .try_run_with(3, 2_000_000_000, engine)
        .expect("run converges");
    let mut out = sys.clone();
    cluster.store_into(&mut out);
    (report, out)
}

const SYNCS: [SyncMode; 2] = [SyncMode::Chained, SyncMode::Bulk { latency: 2_000 }];

#[test]
fn auto_bit_identical_to_serial() {
    for sync in SYNCS {
        let (want_report, want_sys) = run(sync, &EngineConfig::serial());
        let (report, sys) = run(sync, &EngineConfig::auto());
        assert_eq!(report, want_report, "auto engine report drifted ({sync:?})");
        assert_eq!(sys.pos, want_sys.pos, "auto engine positions drifted ({sync:?})");
        assert_eq!(sys.vel, want_sys.vel, "auto engine velocities drifted ({sync:?})");
    }
}

#[test]
fn fast_forward_preserves_straggler_stalls() {
    // Stall injection exercises the stall-expiry event path.
    for sync in SYNCS {
        let sys = workload(33);
        let mut c = cfg(sync);
        c.straggler = Some((3, 400));

        let mut reference = Cluster::new(c.clone(), &sys);
        let want = reference.try_run(2, 2_000_000_000).expect("reference");

        let mut fast = Cluster::new(c, &sys);
        let got = fast
            .try_run_with(2, 2_000_000_000, &EngineConfig::auto())
            .expect("auto run");
        assert_eq!(got, want, "auto engine drifted under a straggler ({sync:?})");
        assert!(fast.skipped_cycles > 0, "straggler span was never fast-forwarded ({sync:?})");
    }
}

#[test]
fn both_engines_report_packet_loss_deadlock() {
    // A lossy fabric starves synchronization forever. The fast engine's
    // fast-forward scan proves no event can ever arrive; the oracle gets
    // there through its idle-streak scan. Either way the run reports the
    // deadlock instead of spinning to the cycle budget.
    for sync in SYNCS {
        for (name, engine) in [("serial", EngineConfig::serial()), ("auto", EngineConfig::auto())] {
            let sys = workload(34);
            let c = cfg(sync).with_faults(FaultPlan::drop_only(0.2, 7));
            let mut cluster = Cluster::new(c, &sys);
            let err = cluster
                .try_run_with(3, 300_000, &engine)
                .expect_err("loss must stall the cluster");
            assert!(err.packets_lost() > 0, "{name}: stall without loss? ({sync:?})");
            assert!(
                matches!(err, ClusterError::Deadlock(_)),
                "{name} should prove the deadlock ({sync:?}): {err}"
            );
            assert!(err.at_cycle() <= 300_000, "{name}: detected within the budget ({sync:?})");
        }
    }
}
