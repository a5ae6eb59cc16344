//! Deterministic chaos harness (the headline test of the fault-injected
//! hyper-ring): under any seeded finite fault schedule — drops, corrupt
//! frames, duplicates, delays, targeted marker kills — a cluster with
//! the reliable-delivery layer enabled must
//!
//! 1. complete the run (retransmission converges),
//! 2. produce final positions, velocities, and per-particle force
//!    accumulators **bit-identical** to the fault-free run, and
//! 3. emit **byte-identical** per-node traces and stall ledgers on the
//!    serial oracle and the fast engine, with the stall
//!    ledger still accounting every force cycle exactly.
//!
//! Without the reliability layer, a killed `last` marker must be
//! reported as a detected deadlock, not an infinite spin (§4.4's
//! failure mode).

mod harness;

use fasda_cluster::{
    Cluster, ClusterError, EngineConfig, FaultChannel, FaultPlan, MarkerKill, StallCause, Trace,
    TraceConfig,
};
use fasda_md::system::ParticleSystem;
use harness::{config, workload, ForceBits};

const STEPS: u64 = 3;

/// The seeded plans the acceptance gate names: pure loss, loss plus
/// reordering hazards (delay/duplicate/corrupt), targeted marker kills
/// on two different channels, and pure loss again at 20 %.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop-only", FaultPlan::drop_only(0.05, 0xC0FFEE)),
        (
            "drop+reorder",
            FaultPlan::none().with_seed(0xBEEF).with_rate(|r| {
                r.drop = 0.03;
                r.corrupt = 0.02;
                r.duplicate = 0.03;
                r.delay = 0.05;
                r.delay_max = 700;
            }),
        ),
        (
            "marker-kill",
            FaultPlan::none()
                .with_seed(0xFA5DA)
                .with_kill(MarkerKill {
                    channel: FaultChannel::Pos,
                    src: 0,
                    dst: 1,
                    nth: 1,
                })
                .with_kill(MarkerKill {
                    channel: FaultChannel::Frc,
                    src: 3,
                    dst: 2,
                    nth: 1,
                }),
        ),
        ("drop-heavy", FaultPlan::drop_only(0.2, 0xC4A05)),
    ]
}

struct RunOut {
    report: fasda_cluster::ClusterRunReport,
    sys: ParticleSystem,
    forces: ForceBits,
    trace: Option<Trace>,
}

fn run(plan: Option<FaultPlan>, reliable: bool, engine: &EngineConfig) -> RunOut {
    let sys = workload();
    let mut cluster = Cluster::new(config(plan, reliable), &sys);
    assert_eq!(cluster.num_nodes(), 8);
    let report = cluster
        .try_run_with(STEPS, harness::BUDGET, engine)
        .expect("chaos run converges");
    let (out, forces) = harness::final_state(&cluster, &sys);
    RunOut {
        report,
        sys: out,
        forces,
        trace: cluster.take_trace(),
    }
}

#[test]
fn chaos_runs_bit_identical_to_fault_free() {
    let baseline = run(None, false, &EngineConfig::serial());
    // The rate-0 row — reliability on, nothing injected — isolates the
    // layer's own acks and bookkeeping.
    let rows = std::iter::once(("no-faults", None))
        .chain(plans().into_iter().map(|(name, plan)| (name, Some(plan))));
    for (name, plan) in rows {
        let faulted = plan.is_some();
        let chaotic = run(plan, true, &EngineConfig::serial());
        let rel = chaotic.report.reliability.expect("reliability layer on");
        if faulted {
            assert!(
                chaotic.report.faults_injected > 0,
                "{name}: plan injected nothing"
            );
            assert!(
                rel.retransmits > 0,
                "{name}: faults but no retransmissions?"
            );
        }
        assert_eq!(
            chaotic.sys.pos, baseline.sys.pos,
            "{name}: final positions drifted under faults"
        );
        assert_eq!(
            chaotic.sys.vel, baseline.sys.vel,
            "{name}: final velocities drifted under faults"
        );
        assert_eq!(
            chaotic.forces, baseline.forces,
            "{name}: final force accumulators drifted under faults"
        );
        assert_eq!(
            chaotic.report.steps, STEPS,
            "{name}: run did not complete every step"
        );
    }
}

#[test]
fn chaos_traces_engine_invariant() {
    // Same plan, serial oracle vs the fast engine: reports equal, event
    // streams and stall ledgers byte-identical. Faults are decided in
    // the network phase, so the schedule itself is engine-invariant.
    let full = TraceConfig::full();
    for (name, plan) in plans() {
        let serial = run(
            Some(plan.clone()),
            true,
            &EngineConfig::serial().with_trace(full),
        );
        let opt = run(
            Some(plan),
            true,
            &EngineConfig::auto().with_trace(full),
        );
        assert_eq!(opt.report, serial.report, "{name}: report drifted");
        let (want, got) = (
            serial.trace.expect("tracing on"),
            opt.trace.expect("tracing on"),
        );
        assert_eq!(got.nodes.len(), want.nodes.len());
        for (node, (g, w)) in got.nodes.iter().zip(want.nodes.iter()).enumerate() {
            assert_eq!(g.dropped, 0, "{name} node {node} dropped events");
            assert_eq!(
                g.events, w.events,
                "{name} node {node}: event stream drifted across engines"
            );
        }
        assert_eq!(
            got.stalls, want.stalls,
            "{name}: stall ledger drifted across engines"
        );
    }
}

#[test]
fn chaos_ledger_accounts_every_force_cycle() {
    // productive + Σ stalls == force_cycles must hold *exactly* with
    // faults injected and the reliability layer retransmitting, and the
    // new retransmit / wait-ack stall classes must actually show up.
    let (_, plan) = plans().remove(1); // drop+reorder: the richest plan
    let out = run(
        Some(plan),
        true,
        &EngineConfig::auto().with_trace(TraceConfig::full()),
    );
    let trace = out.trace.expect("tracing on");
    assert!(!out.report.records.is_empty());
    for r in &out.report.records {
        let s = trace
            .stalls
            .step(r.node, r.step)
            .unwrap_or_else(|| panic!("no ledger entry for node {} step {}", r.node, r.step));
        assert_eq!(
            s.total(),
            r.force_cycles,
            "node {} step {}: ledger {:?} vs force_cycles {}",
            r.node,
            r.step,
            s,
            r.force_cycles
        );
    }
    let attributed: u64 = (0..trace.stalls.num_nodes())
        .map(|n| {
            let t = trace.stalls.node_total(n);
            t.of(StallCause::Retransmit) + t.of(StallCause::WaitAck)
        })
        .sum();
    assert!(
        attributed > 0,
        "faulted run attributed no retransmit/wait-ack stall cycles"
    );
}

#[test]
fn lost_marker_without_reliability_deadlocks() {
    // Satellite: with the reliability layer *off*, one killed last-force
    // marker starves chained sync forever. The driver must detect the
    // quiescent no-progress state and return a deadlock error naming the
    // starving nodes — on the oracle's idle-streak scan and the fast
    // engine's fast-forward prover alike.
    let plan = FaultPlan::none().with_seed(5).with_kill(MarkerKill {
        channel: FaultChannel::Frc,
        src: 0,
        dst: 1,
        nth: 1,
    });
    for engine in [
        EngineConfig::serial(),
        EngineConfig::auto(),
    ] {
        let sys = workload();
        let mut cluster = Cluster::new(config(Some(plan.clone()), false), &sys);
        let err = cluster
            .try_run_with(STEPS, harness::BUDGET, &engine)
            .expect_err("killed marker must deadlock without reliability");
        match &err {
            ClusterError::Deadlock(d) => {
                assert!(!d.starving.is_empty(), "no starving node recorded");
                assert!(d.packets_lost > 0, "kill not accounted as a lost packet");
                let msg = err.to_string();
                assert!(msg.contains("deadlock"), "message: {msg}");
                assert!(msg.contains("node"), "message names no node: {msg}");
                assert!(msg.contains("step"), "message names no step: {msg}");
            }
            other => panic!("expected a deadlock, got: {other}"),
        }
        assert!(
            err.at_cycle() < 2_000_000_000,
            "deadlock not detected before the budget"
        );
    }
}
