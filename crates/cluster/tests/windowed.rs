//! The fast engine's in-process window protocol: `EngineConfig::auto()`
//! runs the lookahead-window loop on scoped threads, moving each worker's
//! nodes into it and back out, and must leave exactly what the one-thread
//! loop leaves.
//!
//! Windows are forced with `with_threads(S)`, so every host runs these —
//! a 1-core machine included — at S = 2, 3 (uneven 3/3/2 ranges) and 4.
//! Against `with_threads(1)` everything must match: the report, the
//! state dump, every trace stream (engine stream included), checkpoint
//! files byte for byte and the AXI-Lite registers. Against the serial
//! oracle, what the two engines always shared: the report, the state
//! dump, the per-node trace streams and the stall ledger.

mod harness;

use fasda_cluster::ckpt::{latest_checkpoint, load_checkpoint, run_with_checkpoints, CheckpointConfig};
use fasda_cluster::{
    run_sharded, run_with_recovery, state_dump, Cluster, ClusterConfig, ClusterRunReport,
    EngineConfig, FaultPlan, HostController, RecoveryPolicy, ShardOpts, Trace, TraceConfig,
};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_trace::EventKind;
use harness::{config, workload, workload_of, BUDGET};
use std::path::{Path, PathBuf};

const STEPS: u64 = 4;
const WORKERS: [usize; 3] = [2, 3, 4];

fn tmpdir(tag: &str) -> PathBuf {
    harness::tmpdir(&format!("windowed-{tag}"))
}

fn traced(engine: EngineConfig) -> EngineConfig {
    engine.with_trace(TraceConfig::full())
}

fn one_thread() -> EngineConfig {
    traced(EngineConfig::auto().with_threads(1))
}

fn windowed(workers: usize) -> EngineConfig {
    traced(EngineConfig::auto().with_threads(workers))
}

/// Checkpoint files, oldest step first.
fn checkpoint_bytes(dir: &Path) -> Vec<(Option<u64>, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .map(|p| (fasda_ckpt::checkpoint_step(&p), std::fs::read(&p).expect("read checkpoint")))
        .collect();
    out.sort_by_key(|(s, _)| *s);
    out
}

/// Everything one run leaves behind.
struct Outcome {
    report: ClusterRunReport,
    dump: String,
    traces: Vec<Trace>,
    ckpts: Vec<(Option<u64>, Vec<u8>)>,
}

/// `steps` steps checkpointed every step under `engine`.
fn run(cfg: &ClusterConfig, sys: &ParticleSystem, engine: &EngineConfig, tag: &str) -> Outcome {
    let dir = tmpdir(tag);
    let ck = CheckpointConfig::new(1, &dir).with_keep(0);
    let mut cl = Cluster::new(cfg.clone(), sys);
    let run = run_with_checkpoints(&mut cl, STEPS, BUDGET, engine, Some(&ck), ClusterRunReport::new())
        .unwrap_or_else(|e| panic!("{tag}: run failed: {e}"));
    let out = Outcome {
        report: run.report,
        dump: state_dump(&cl, sys),
        traces: run.traces,
        ckpts: checkpoint_bytes(&dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Everything the same engine must reproduce.
fn assert_identical(got: &Outcome, want: &Outcome, ctx: &str) {
    assert_eq!(got.report, want.report, "{ctx}: report");
    assert!(got.dump == want.dump, "{ctx}: state dump drifted");
    assert_eq!(got.traces.len(), want.traces.len(), "{ctx}: segment count");
    for (i, (g, w)) in got.traces.iter().zip(&want.traces).enumerate() {
        assert_eq!(g.level, w.level, "{ctx}: segment {i} capture level");
        assert_eq!(g.nodes, w.nodes, "{ctx}: segment {i} per-node streams");
        assert_eq!(g.engine, w.engine, "{ctx}: segment {i} engine stream");
        assert_eq!(g.stalls, w.stalls, "{ctx}: segment {i} stall ledger");
    }
    assert!(got.ckpts == want.ckpts, "{ctx}: checkpoint files not byte-identical");
}

/// What the fast engine shares with the oracle.
fn assert_oracle_shared(got: &Outcome, oracle: &Outcome, ctx: &str) {
    assert_eq!(got.report, oracle.report, "{ctx}: report vs oracle");
    assert!(got.dump == oracle.dump, "{ctx}: state dump vs oracle");
    for (i, (g, w)) in got.traces.iter().zip(&oracle.traces).enumerate() {
        assert_eq!(g.nodes, w.nodes, "{ctx}: segment {i} per-node streams vs oracle");
        assert_eq!(g.stalls, w.stalls, "{ctx}: segment {i} stall ledger vs oracle");
    }
}

fn scenarios() -> Vec<(&'static str, ClusterConfig)> {
    let mut straggler = config(None, false);
    straggler.straggler = Some((3, 400));
    vec![
        ("clean", config(None, false)),
        ("lossy", config(Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true)),
        ("straggler", straggler),
    ]
}

#[test]
fn windowed_runs_equal_the_one_thread_loop_and_the_oracle() {
    let sys = workload();
    for (name, cfg) in scenarios() {
        let want = run(&cfg, &sys, &one_thread(), &format!("{name}-t1"));
        let oracle = run(&cfg, &sys, &traced(EngineConfig::serial()), &format!("{name}-serial"));
        assert_oracle_shared(&want, &oracle, &format!("{name} one thread"));
        for workers in WORKERS {
            let ctx = format!("{name} x{workers}");
            let got = run(&cfg, &sys, &windowed(workers), &ctx.replace(' ', "-"));
            assert_identical(&got, &want, &ctx);
            assert_oracle_shared(&got, &oracle, &ctx);
        }
    }
}

#[test]
fn windowed_host_registers_equal_the_one_thread_loops() {
    let sys = workload();
    for (name, cfg) in scenarios() {
        let regs = |engine: &EngineConfig| {
            let mut host = HostController::new(Cluster::new(cfg.clone(), &sys));
            host.run_iterations_with(STEPS, engine).expect("host run completes")
        };
        let want = regs(&one_thread());
        for workers in WORKERS {
            let got = regs(&windowed(workers));
            assert_eq!(got.report, want.report, "{name} x{workers}: report");
            assert_eq!(got.regs, want.regs, "{name} x{workers}: AXI-Lite registers");
        }
    }
}

#[test]
fn windowed_crash_recovery_equals_the_one_thread_loops() {
    let sys = workload();
    let plan = FaultPlan::drop_only(0.05, 0xC0FFEE).with_crash(1, 2);
    let cfg = config(Some(plan), true);
    let recover = |engine: &EngineConfig, tag: &str| {
        let dir = tmpdir(tag);
        let ck = CheckpointConfig::new(1, &dir).with_keep(0);
        let rec = run_with_recovery(&sys, &cfg, STEPS, BUDGET, engine, &ck, &RecoveryPolicy::new(2))
            .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
        let out = Outcome {
            report: rec.run.report,
            dump: state_dump(&rec.cluster, &sys),
            traces: rec.run.traces,
            ckpts: checkpoint_bytes(&dir),
        };
        let _ = std::fs::remove_dir_all(&dir);
        (out, rec.restarts)
    };
    let (want, restarts) = recover(&one_thread(), "crash-t1");
    assert_eq!(restarts.len(), 1, "the crash fires once: {restarts:?}");
    let (oracle, _) = recover(&traced(EngineConfig::serial()), "crash-serial");
    assert_oracle_shared(&want, &oracle, "crash one thread");
    for workers in WORKERS {
        let ctx = format!("crash x{workers}");
        let (got, got_restarts) = recover(&windowed(workers), &ctx.replace(' ', "-"));
        assert_eq!(got_restarts, restarts, "{ctx}: restart log");
        assert_identical(&got, &want, &ctx);
        assert_oracle_shared(&got, &oracle, &ctx);
    }
}

#[test]
fn windowed_resume_equals_the_one_thread_loops() {
    let sys = workload();
    let cfg = config(Some(FaultPlan::drop_only(0.05, 7)), true);
    // The checkpoint every resume starts from: step 2 of a one-thread run.
    let dir = tmpdir("resume-source");
    let ck = CheckpointConfig::new(1, &dir).with_keep(0);
    let mut source = Cluster::new(cfg.clone(), &sys);
    run_with_checkpoints(&mut source, 2, BUDGET, &one_thread(), Some(&ck), ClusterRunReport::new())
        .expect("source run completes");
    let from = latest_checkpoint(&dir).expect("checkpoint dir").expect("a checkpoint was written");
    let resume = |engine: &EngineConfig, tag: &str| {
        let out_dir = tmpdir(tag);
        let ck = CheckpointConfig::new(1, &out_dir).with_keep(0);
        let mut cl = Cluster::new(cfg.clone(), &sys);
        let acc = load_checkpoint(&mut cl, &from).expect("checkpoint loads");
        let run = run_with_checkpoints(&mut cl, STEPS, BUDGET, engine, Some(&ck), acc)
            .unwrap_or_else(|e| panic!("{tag}: resumed run failed: {e}"));
        let out = Outcome {
            report: run.report,
            dump: state_dump(&cl, &sys),
            traces: run.traces,
            ckpts: checkpoint_bytes(&out_dir),
        };
        let _ = std::fs::remove_dir_all(&out_dir);
        out
    };
    let want = resume(&one_thread(), "resume-t1");
    let oracle = resume(&traced(EngineConfig::serial()), "resume-serial");
    assert_oracle_shared(&want, &oracle, "resume one thread");
    for workers in WORKERS {
        let ctx = format!("resume x{workers}");
        let got = resume(&windowed(workers), &ctx.replace(' ', "-"));
        assert_identical(&got, &want, &ctx);
        assert_oracle_shared(&got, &oracle, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's `dense8` at full size (64 a cell, 3 steps) at S = 2
/// and 4. Minutes in a debug build: CI's release step runs it.
#[test]
#[ignore = "dense8-sized; run in release: cargo test --release --test windowed -- --ignored"]
fn windowed_dense8_equals_the_one_thread_loop() {
    let sys = workload_of(64, 1);
    let run = |engine: &EngineConfig| {
        let mut host = HostController::new(Cluster::new(config(None, false), &sys));
        let out = host.run_iterations_with(3, engine).expect("dense run completes");
        let trace = host.take_trace().expect("traced");
        (out, state_dump(host.cluster(), &sys), trace)
    };
    let (want, want_dump, want_trace) = run(&one_thread());
    for workers in [2, 4] {
        let (got, dump, trace) = run(&windowed(workers));
        assert_eq!(got.report, want.report, "x{workers}: report");
        assert_eq!(got.regs, want.regs, "x{workers}: AXI-Lite registers");
        assert!(dump == want_dump, "x{workers}: state dump drifted");
        assert_eq!(trace.nodes, want_trace.nodes, "x{workers}: per-node streams");
        assert_eq!(trace.engine, want_trace.engine, "x{workers}: engine stream");
        assert_eq!(trace.stalls, want_trace.stalls, "x{workers}: stall ledger");
    }
}

/// Horizon rounds: a round runs to the earliest event horizon plus the
/// lookahead, so a span every worker skips costs a round, not one per
/// lookahead. On a straggler whose stall dwarfs the run's busy cycles
/// the rounds are bounded by the busy cycles' windows plus two per
/// fast-forward jump the one-thread loop makes (the round that reaches
/// a quiet span and the one that jumps it): 38 rounds against a bound of
/// 121. Rounds that advance only to the slowest clock plus the lookahead
/// read 999 here, one per 204 skipped cycles.
#[test]
fn a_span_every_worker_skips_costs_one_round_not_one_per_lookahead() {
    let sys = workload();
    let mut cfg = config(None, false);
    cfg.straggler = Some((3, 50_000));
    let engine = EngineConfig::auto().with_threads(1).with_trace(TraceConfig::sync());
    let mut cl = Cluster::new(cfg.clone(), &sys);
    let report = cl.try_run_with(STEPS, BUDGET, &engine).expect("one-thread run");
    let jumps = cl
        .take_trace()
        .expect("traced")
        .engine
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FastForward { .. }))
        .count() as u64;
    let busy = report.total_cycles - cl.skipped_cycles;
    assert!(cl.skipped_cycles > 4 * busy, "a straggler-dominated run: {busy} busy cycles");

    let sharded = run_sharded(&cfg, &sys, STEPS, &engine, 2, ShardOpts::default())
        .expect("sharded run completes");
    assert_eq!(sharded.report, report);
    let lookahead = sharded.replica.pos_fabric.lookahead();
    let bound = busy.div_ceil(lookahead) + 2 * jumps;
    for (w, g) in sharded.gauges.iter().enumerate() {
        assert!(
            g.windows <= bound,
            "worker {w}: {} rounds for {busy} busy cycles and {jumps} jumps (bound {bound})",
            g.windows
        );
    }
}

/// A motion update that moves an atom past the fixed-point offset range
/// fails the run with one typed error — node, step, particle, cycle and
/// packets lost — on every engine, windowed or sharded, in debug and in
/// release builds alike.
#[test]
fn a_motion_overflow_fails_every_engine_with_the_same_typed_error() {
    // Four nodes of 3³ cells at 130 atoms a cell.
    let sys = WorkloadSpec { per_cell: 130, ..WorkloadSpec::paper(SimulationSpace::new(6, 6, 3), 17) }
        .generate();
    let cfg = config(None, false);
    let fail = |engine: &EngineConfig| {
        let mut cl = Cluster::new(cfg.clone(), &sys);
        match cl.try_run_with(2, BUDGET, engine) {
            Err(fasda_cluster::ClusterError::Overflow(o)) => format!("{o:?}"),
            other => panic!("{engine:?}: expected a motion overflow, got {other:?}"),
        }
    };
    let want = fail(&EngineConfig::serial());
    assert!(want.contains("step: 0"), "{want}");
    let mut engines = vec![EngineConfig::auto().with_threads(1)];
    engines.extend(WORKERS.map(|w| EngineConfig::auto().with_threads(w)));
    for engine in engines {
        assert_eq!(fail(&engine), want, "{engine:?}");
    }
    let sharded = run_sharded(&cfg, &sys, 2, &EngineConfig::auto(), 2, ShardOpts::default());
    match sharded {
        Err(fasda_cluster::ShardError::Cluster(fasda_cluster::ClusterError::Overflow(o))) => {
            assert_eq!(format!("{o:?}"), want, "sharded")
        }
        other => panic!("sharded: expected a motion overflow, got {other:?}"),
    }
}
