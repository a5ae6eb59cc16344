//! The unified recovery matrix (the tentpole acceptance gate): across
//! {serial, auto, 2-shard} × {Gilbert–Elliott burst loss, link flap,
//! partition-with-heal, two staggered crashes with rolling resume},
//! the final positions, velocities, and raw force-accumulator bank
//! bits must be **bit-identical** to the fault-free reference run.
//!
//! Two recovery regimes are proven:
//!
//! * **healing** — with the reliability layer on, burst/flap/partition
//!   windows only delay traffic: retransmission timers outlive every
//!   window, so the run completes without intervention;
//! * **rolling resume** — crashes (and, with reliability off,
//!   partition-induced deadlocks) abort the run; [`run_with_recovery`]
//!   (or the equivalent manual loop around [`run_sharded`]) restarts
//!   from the newest consistent checkpoint with the fired directive
//!   stripped and replays to completion.

mod harness;

use fasda_cluster::ckpt::{newest_consistent, CheckpointConfig, RecoveryPolicy};
use fasda_cluster::{
    run_sharded, run_with_recovery, Cluster, ClusterError, EngineConfig, FaultChannel, FaultPlan,
    LinkFlap, ShardError, ShardOpts,
};
use harness::{assert_state_eq, config, final_state, workload, BUDGET};
use std::path::PathBuf;

const STEPS: u64 = 6;
const EVERY: u64 = 2;

/// Suite-namespaced scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    harness::tmpdir(&format!("recovery-{tag}"))
}

/// Fault-free serial reference state every matrix cell must reproduce.
fn reference() -> (fasda_md::system::ParticleSystem, harness::ForceBits) {
    let sys = workload();
    let mut cluster = Cluster::new(config(None, false), &sys);
    cluster
        .try_run_with(STEPS, BUDGET, &EngineConfig::serial())
        .expect("fault-free reference completes");
    final_state(&cluster, &sys)
}

/// The correlated-failure window scenarios the reliability layer must
/// absorb without a restart.
fn healing_scenarios() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "burst",
            FaultPlan::none().with_seed(0xB0257).with_burst(0.05, 0.3, 0.9),
        ),
        (
            "flap",
            FaultPlan::none().with_seed(0xF1A9).with_flap(LinkFlap {
                channel: FaultChannel::Pos,
                src: 0,
                dst: 1,
                step: 1,
                duration: 4_000,
            }),
        ),
        (
            "partition-heal",
            FaultPlan::none()
                .with_seed(0x9A27)
                .with_partition(vec![0, 1, 2, 3], vec![4, 5, 6, 7], 1, 6_000),
        ),
    ]
}

// -------------------------------------------------------------------------
// Healing regime: burst / flap / partition+heal × engine × shards
// -------------------------------------------------------------------------

#[test]
fn correlated_windows_heal_bit_identical_across_engines_and_shards() {
    let sys = workload();
    let want = reference();
    for (name, plan) in healing_scenarios() {
        let cfg = config(Some(plan), true);

        let mut serial = Cluster::new(cfg.clone(), &sys);
        let report = serial
            .try_run_with(STEPS, BUDGET, &EngineConfig::serial())
            .unwrap_or_else(|e| panic!("{name} serial: healing run failed: {e}"));
        assert!(report.faults_injected > 0, "{name}: plan injected nothing");
        assert!(
            report.reliability.expect("reliability on").retransmits > 0,
            "{name}: faults but no retransmissions?"
        );
        assert_state_eq(&final_state(&serial, &sys), &want, &format!("{name} serial"));

        let mut fast = Cluster::new(cfg.clone(), &sys);
        fast.try_run_with(STEPS, BUDGET, &EngineConfig::auto())
            .unwrap_or_else(|e| panic!("{name} auto: healing run failed: {e}"));
        assert_state_eq(&final_state(&fast, &sys), &want, &format!("{name} auto"));

        let run = run_sharded(
            &cfg,
            &sys,
            STEPS,
            &EngineConfig::serial(),
            2,
            ShardOpts { budget: BUDGET, ckpt: None, resume: None, obs: None, ..Default::default() },
        )
        .unwrap_or_else(|e| panic!("{name} x2: sharded healing run failed: {e}"));
        assert_state_eq(&final_state(&run.replica, &sys), &want, &format!("{name} x2"));
    }
}

// -------------------------------------------------------------------------
// Rolling resume: two staggered crashes, serial and auto
// -------------------------------------------------------------------------

#[test]
fn staggered_crashes_roll_forward_bit_identical() {
    let sys = workload();
    let want = reference();
    let plan = FaultPlan::none().with_crash(2, 3).with_crash(5, 5);
    for (ename, engine) in [
        ("serial", EngineConfig::serial()),
        ("auto", EngineConfig::auto()),
    ] {
        let dir = tmpdir(&format!("stagger-{ename}"));
        let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
        let rec = run_with_recovery(
            &sys,
            &config(Some(plan.clone()), false),
            STEPS,
            BUDGET,
            &engine,
            &ck,
            &RecoveryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("{ename}: rolling recovery failed: {e}"));

        // Each staggered crash takes exactly one restart, in fire order.
        assert_eq!(rec.restarts.len(), 2, "{ename}: restarts: {:?}", rec.restarts);
        assert!(
            rec.restarts[0].contains("node 2") && rec.restarts[0].contains("step 3"),
            "{ename}: first restart line: {}",
            rec.restarts[0]
        );
        assert!(
            rec.restarts[1].contains("node 5") && rec.restarts[1].contains("step 5"),
            "{ename}: second restart line: {}",
            rec.restarts[1]
        );
        assert_eq!(rec.run.report.steps, STEPS, "{ename}: run did not reach the end");
        assert_state_eq(
            &final_state(&rec.cluster, &sys),
            &want,
            &format!("staggered crashes {ename}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// -------------------------------------------------------------------------
// Rolling resume: unreliable partition deadlock, diagnosed and lifted
// -------------------------------------------------------------------------

#[test]
fn unreliable_partition_deadlock_is_diagnosed_and_recovered() {
    // With the reliability layer *off*, a partition starves cross-half
    // traffic permanently (nothing retransmits after the heal). The
    // driver must diagnose the deadlock *as the partition* — naming it
    // in grammar spelling — and recovery must lift the windows and
    // replay from the pre-onset checkpoint to the bit-exact answer.
    let sys = workload();
    let want = reference();
    let plan = FaultPlan::none()
        .with_seed(0x9A27)
        .with_partition(vec![0, 1, 2, 3], vec![4, 5, 6, 7], 1, 9_000);
    let dir = tmpdir("partition-unreliable");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let rec = run_with_recovery(
        &sys,
        &config(Some(plan), false),
        STEPS,
        BUDGET,
        &EngineConfig::serial(),
        &ck,
        &RecoveryPolicy::default(),
    )
    .expect("partition deadlock must be recoverable");
    assert_eq!(rec.restarts.len(), 1, "restarts: {:?}", rec.restarts);
    assert!(
        rec.restarts[0].contains("partition 0/1/2/3|4/5/6/7"),
        "diagnosis must name the partition: {}",
        rec.restarts[0]
    );
    assert_state_eq(&final_state(&rec.cluster, &sys), &want, "partition deadlock recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Rolling resume: staggered crashes on the 2-shard engine
// -------------------------------------------------------------------------

#[test]
fn sharded_staggered_crashes_roll_forward_from_newest_consistent() {
    // The shard leg of the crash column: `run_sharded` surfaces the
    // injected crash, the driver loop strips the fired directive and
    // resumes from the newest *consistent* checkpoint (the shard
    // coordinator writes one merged stream, so consistency is over the
    // single directory — the API still proves the restore point
    // predates the damage).
    let sys = workload();
    let want = reference();
    let dir = tmpdir("shard-roll");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let engine = EngineConfig::serial();

    let mut plan = Some(FaultPlan::none().with_crash(1, 3).with_crash(6, 5));
    let mut resume: Option<PathBuf> = None;
    let mut restarts = 0u32;
    let run = loop {
        let cfg = config(
            plan.clone().filter(|p| !p.is_none() || !p.crashes.is_empty()),
            false,
        );
        match run_sharded(
            &cfg,
            &sys,
            STEPS,
            &engine,
            2,
            ShardOpts {
                budget: BUDGET,
                ckpt: Some(ck.clone()),
                resume: resume.clone(),
                obs: None,
                ..Default::default()
            },
        ) {
            Ok(run) => break run,
            Err(ShardError::Cluster(ClusterError::Crashed(c))) => {
                restarts += 1;
                assert!(restarts <= 4, "rolling resume did not converge");
                plan = plan.map(|p| p.without_crash_at(c.node as u32, c.step));
                let (step, paths) = newest_consistent(std::slice::from_ref(&dir))
                    .expect("list checkpoints")
                    .expect("a checkpoint survives the crash");
                assert!(step < c.step, "restore point (step {step}) must predate the crash");
                resume = Some(paths[0].clone());
            }
            Err(other) => panic!("expected an injected crash, got: {other}"),
        }
    };
    assert_eq!(restarts, 2, "each staggered crash takes its own restart");
    assert_eq!(run.report.steps, STEPS);
    assert_state_eq(&final_state(&run.replica, &sys), &want, "sharded rolling resume");
    let _ = std::fs::remove_dir_all(&dir);
}
