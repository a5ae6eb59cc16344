//! Sharded-engine acceptance: the multi-worker socket protocol must be
//! bit-identical to the in-process oracle.
//!
//! The contract under test (DESIGN.md §11): partitioning the cluster's
//! nodes across S workers — each running the existing engine over its
//! own shard and exchanging one frame of boundary flits, markers, acks
//! and progress notes per lookahead window over real Unix-domain sockets — produces final positions,
//! velocities, raw force-accumulator bank bits, the folded whole-run
//! report, the merged per-segment traces, *and the checkpoint files
//! themselves* byte-for-byte equal to a single-process run. This must
//! hold for 2 and 4 shards, serial and multi-threaded local engines,
//! under a 5% packet-drop fault schedule with the reliability layer,
//! with an injected straggler driving fast-forward horizon agreement,
//! and across a crash + `--resume` on a *different* shard count.

mod harness;

use fasda_cluster::ckpt::{run_with_checkpoints, CheckpointConfig};
use fasda_cluster::{
    run_sharded, shard_ranges, validate_sharding, Cluster, ClusterConfig, ClusterError, ClusterRunReport,
    EngineConfig, FaultPlan, ShardError, ShardOpts, ShardedRun, Trace, TraceConfig,
};
use fasda_net::sync::SyncMode;
use fasda_net::topology::Topology;
use fasda_trace::EventKind;
use harness::{config, final_state, workload, BUDGET};
use std::path::PathBuf;

const STEPS: u64 = 6;
const EVERY: u64 = 2;

/// Suite-namespaced scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    harness::tmpdir(&format!("shard-{tag}"))
}

/// `Trace` doesn't derive `PartialEq` (the engine stream is normally
/// engine-specific), but each sharded run here is compared to an
/// in-process reference under the same engine — so every field,
/// fast-forward jumps included, must match.
fn assert_traces_equal(got: &[Trace], want: &[Trace], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: segment count");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.level, w.level, "{ctx}: segment {i} capture level");
        assert_eq!(g.nodes, w.nodes, "{ctx}: segment {i} per-node streams");
        assert_eq!(g.engine, w.engine, "{ctx}: segment {i} engine stream");
        assert_eq!(g.stalls, w.stalls, "{ctx}: segment {i} stall ledger");
    }
}

fn checkpoint_bytes(paths: &[PathBuf]) -> Vec<(Option<u64>, Vec<u8>)> {
    let mut out: Vec<_> = paths
        .iter()
        .map(|p| (fasda_ckpt::checkpoint_step(p), std::fs::read(p).expect("read checkpoint")))
        .collect();
    out.sort_by_key(|(s, _)| *s);
    out
}

// -------------------------------------------------------------------------
// Partitioning and unsupported-mode rejection
// -------------------------------------------------------------------------

#[test]
fn shard_ranges_cover_all_nodes_contiguously() {
    for (nodes, shards) in [(8, 1), (8, 2), (8, 4), (8, 8), (7, 3), (9, 4)] {
        let ranges = shard_ranges(nodes, shards);
        assert_eq!(ranges.len(), shards, "{nodes}/{shards}");
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[shards - 1].end, nodes);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "near-even split, got {sizes:?}");
    }
}

#[test]
fn validate_rejects_unsupported_configs() {
    let ok = config(None, false);
    assert!(validate_sharding(&ok, 2, 8).is_ok());
    assert!(matches!(validate_sharding(&ok, 0, 8), Err(ShardError::Unsupported(_))));
    assert!(matches!(validate_sharding(&ok, 9, 8), Err(ShardError::Unsupported(_))));

    let mut bulk = config(None, false);
    bulk.sync = SyncMode::Bulk { latency: 2_000 };
    assert!(matches!(validate_sharding(&bulk, 2, 8), Err(ShardError::Unsupported(_))));
}

// -------------------------------------------------------------------------
// Bit-identity vs the in-process oracle
// -------------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    faults: Option<FaultPlan>,
    reliable: bool,
    straggler: Option<(usize, u64)>,
    engine: EngineConfig,
}

/// Every fault outcome at once — drop, corrupt, duplicate, delay and one
/// marker kill on each port — healed by the reliability layer: data and
/// acks both reach all arms of the driver's one `put_on_wire` match.
const MIXED_PLAN: &str =
    "drop=0.03,corrupt=0.02,dup=0.03,delay=0.05:700,seed=9,kill=frc:0->1:1,kill=pos:3->2:1";

/// Both engines, clean, lossy and under [`MIXED_PLAN`]; reference and
/// sharded run share the engine, so even the engine trace stream is
/// comparable.
fn scenarios() -> Vec<Scenario> {
    let full = TraceConfig::full();
    let mixed = FaultPlan::parse(MIXED_PLAN).expect("mixed plan parses");
    vec![
        Scenario {
            name: "clean-serial",
            faults: None,
            reliable: false,
            straggler: None,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "clean-auto",
            faults: None,
            reliable: false,
            straggler: None,
            engine: EngineConfig::auto().with_trace(full),
        },
        Scenario {
            name: "lossy-serial",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            straggler: None,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "lossy-auto",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            straggler: None,
            engine: EngineConfig::auto().with_trace(full),
        },
        Scenario {
            name: "mixed-serial",
            faults: Some(mixed.clone()),
            reliable: true,
            straggler: None,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "mixed-auto",
            faults: Some(mixed),
            reliable: true,
            straggler: None,
            engine: EngineConfig::auto().with_trace(full),
        },
        // Fig. 16 straggler ablation: node 3 stalls 400 cycles per force
        // phase, the others fast-forward — the workers' local skips must
        // fold back into exactly the jumps the in-process engine takes.
        Scenario {
            name: "straggler-auto",
            faults: None,
            reliable: false,
            straggler: Some((3, 400)),
            engine: EngineConfig::auto().with_trace(full),
        },
    ]
}

/// The in-process reference for one configuration and engine, with the
/// suite's checkpoint segmentation.
struct Reference {
    run: fasda_cluster::ckpt::CheckpointedRun,
    state: (fasda_md::system::ParticleSystem, harness::ForceBits),
    ckpts: Vec<(Option<u64>, Vec<u8>)>,
}

fn reference(
    cfg: &ClusterConfig,
    sys: &fasda_md::system::ParticleSystem,
    steps: u64,
    engine: &EngineConfig,
    tag: &str,
) -> Reference {
    let dir = tmpdir(&format!("{tag}-oracle"));
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let mut oracle = Cluster::new(cfg.clone(), sys);
    let run = run_with_checkpoints(&mut oracle, steps, BUDGET, engine, Some(&ck), ClusterRunReport::new())
        .expect("oracle completes");
    let state = final_state(&oracle, sys);
    let ckpts = checkpoint_bytes(&run.checkpoints);
    let _ = std::fs::remove_dir_all(&dir);
    Reference { run, state, ckpts }
}

/// Run the same configuration sharded and hold it to the reference:
/// report, positions/velocities, FC-bank bits, per-node traces, engine
/// stream, stall ledger and checkpoint bytes.
#[allow(clippy::too_many_arguments)]
fn assert_sharded_matches(
    cfg: &ClusterConfig,
    sys: &fasda_md::system::ParticleSystem,
    steps: u64,
    engine: &EngineConfig,
    shards: usize,
    tcp: bool,
    want: &Reference,
    ctx: &str,
) -> ShardedRun {
    let dir = tmpdir(&format!("{}-run", ctx.replace(' ', "-")));
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let run = run_sharded(
        cfg,
        sys,
        steps,
        engine,
        shards,
        ShardOpts { budget: BUDGET, ckpt: Some(ck), resume: None, obs: None, tcp },
    )
    .unwrap_or_else(|e| panic!("{ctx}: sharded run failed: {e}"));

    assert_eq!(run.report, want.run.report, "{ctx}: folded report drifted");
    let state = final_state(&run.replica, sys);
    assert_eq!(state.0.pos, want.state.0.pos, "{ctx}: positions drifted");
    assert_eq!(state.0.vel, want.state.0.vel, "{ctx}: velocities drifted");
    assert_eq!(state.1, want.state.1, "{ctx}: force-bank bits drifted");
    assert_traces_equal(&run.traces, &want.run.traces, ctx);
    assert_eq!(
        checkpoint_bytes(&run.checkpoints),
        want.ckpts,
        "{ctx}: checkpoint files not byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// The reference run drew every one of the five fault outcomes (one
/// trace event per injection) and its receivers discarded both kinds of
/// bad frame — otherwise a scenario could match the oracle by never
/// reaching the arm under test.
fn assert_every_outcome_injected(want: &Reference, ctx: &str) {
    let mut tally = [0u64; 5];
    let events = want.run.traces.iter().flat_map(|t| &t.nodes).flat_map(|n| &n.events);
    for e in events {
        match e.kind {
            EventKind::FaultDrop { kill: false, .. } => tally[0] += 1,
            EventKind::FaultDrop { kill: true, .. } => tally[1] += 1,
            EventKind::FaultCorrupt { .. } => tally[2] += 1,
            EventKind::FaultDuplicate { .. } => tally[3] += 1,
            EventKind::FaultDelay { .. } => tally[4] += 1,
            _ => {}
        }
    }
    for (name, n) in ["drop", "kill", "corrupt", "duplicate", "delay"].iter().zip(tally) {
        assert!(n > 0, "{ctx}: the plan injected no {name}");
    }
    assert_eq!(tally.iter().sum::<u64>(), want.run.report.faults_injected, "{ctx}: tally");
    let rel = want.run.report.reliability.as_ref().expect("reliability on");
    assert!(rel.duplicates_dropped > 0, "{ctx}: no duplicate reached a receiver");
    assert!(rel.corrupt_dropped > 0, "{ctx}: no corrupt frame reached a receiver");
}

#[test]
fn sharded_runs_match_oracle_bit_for_bit() {
    let sys = workload();
    for sc in scenarios() {
        let mut cfg = config(sc.faults.clone(), sc.reliable);
        cfg.straggler = sc.straggler;
        let want = reference(&cfg, &sys, STEPS, &sc.engine, sc.name);
        if sc.name.starts_with("mixed") {
            assert_every_outcome_injected(&want, sc.name);
        }
        // One shard is the protocol with no mesh peers.
        for shards in [1usize, 2, 4] {
            let ctx = format!("{} x{shards}", sc.name);
            assert_sharded_matches(&cfg, &sys, STEPS, &sc.engine, shards, false, &want, &ctx);
        }
    }
}

/// Satellite gate: the same protocol over loopback TCP ([`TcpLink`]
/// carries every control and mesh frame) is byte-identical to the
/// Unix-socket and in-process paths — the carrier cannot leak into the
/// simulation. One clean and one lossy scenario keep the matrix cheap;
/// the full scenario sweep above already covers the protocol itself.
#[test]
fn sharded_over_loopback_tcp_matches_oracle_bit_for_bit() {
    let sys = workload();
    for (name, faults, reliable) in [
        ("tcp-clean", None, false),
        ("tcp-lossy", Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true),
    ] {
        let cfg = config(faults, reliable);
        let engine = EngineConfig::serial().with_trace(TraceConfig::full());
        let want = reference(&cfg, &sys, STEPS, &engine, name);
        assert_sharded_matches(&cfg, &sys, STEPS, &engine, 2, true, &want, name);
    }
}

// -------------------------------------------------------------------------
// Failures are the oracle's own errors
// -------------------------------------------------------------------------

/// A sharded run that fails returns the in-process run's error field for
/// field — a lost-marker deadlock, a drop-starved run, a budget stall, an
/// injected crash and a partition diagnosed as an outage, under both
/// engines, at 2 and 4 shards. Each worker reports its share of the
/// error; the coordinator's merge must rebuild the whole of it.
#[test]
fn sharded_failures_equal_the_oracles_errors() {
    const STEPS: u64 = 3;
    let sys = workload();
    let plan = |s: &str| Some(FaultPlan::parse(s).expect("plan parses"));
    let cases = [
        ("lost-marker", plan("kill=frc:0->1:1"), BUDGET),
        ("drop", plan("drop=0.2"), BUDGET),
        ("stall", None, 3_000),
        ("crash", plan("crash=1@1"), BUDGET),
        ("partition", plan("partition=0..4|4..8:@1+100000000"), BUDGET),
    ];
    for (name, faults, budget) in cases {
        let cfg = config(faults, false);
        for (engine_name, engine) in [("serial", EngineConfig::serial()), ("auto", EngineConfig::auto())] {
            let want = Cluster::new(cfg.clone(), &sys)
                .try_run_with(STEPS, budget, &engine)
                .expect_err("the in-process run fails");
            let expected = match (name, &want) {
                ("lost-marker" | "drop", ClusterError::Deadlock(_)) => true,
                ("partition", ClusterError::Deadlock(d)) => !d.outages.is_empty(),
                ("stall", ClusterError::Stalled(_)) | ("crash", ClusterError::Crashed(_)) => true,
                _ => false,
            };
            assert!(expected, "{name}: unexpected in-process failure {want}");
            for shards in [2usize, 4] {
                let ctx = format!("{name} {engine_name} x{shards}");
                let opts = ShardOpts { budget, ..Default::default() };
                match run_sharded(&cfg, &sys, STEPS, &engine, shards, opts) {
                    Err(ShardError::Cluster(got)) => {
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}")
                    }
                    Err(other) => panic!("{ctx}: untyped failure {other}"),
                    Ok(_) => panic!("{ctx}: the sharded run completed"),
                }
            }
        }
    }
}

// -------------------------------------------------------------------------
// Window boundaries and degenerate lookahead
// -------------------------------------------------------------------------

/// The window protocol over every lookahead it can be handed: the
/// paper's switch (L = 204), a one-cycle-hop ring at the paper link rate
/// (L = 5, where a window is barely longer than the old per-cycle
/// cadence) and a second-order ring (L = 9, unequal pair latencies) —
/// each at 2 and 4 shards, under both engines, clean, lossy with
/// reliability, with delay faults and with a straggler. Every run is
/// held to the in-process run of the same engine by the same
/// assertions as the suite above.
#[test]
fn window_protocol_matches_oracle_across_topologies_and_faults() {
    const STEPS: u64 = 4;
    let topologies = [
        ("switch", Topology::PAPER_SWITCH),
        ("ring", Topology::HyperRing { nodes: 8, hop_latency: 1 }),
        ("ring2", Topology::HyperRing2 { inner: 4, rings: 2, hop_latency: 5, bridge_latency: 20 }),
    ];
    let delay = FaultPlan::parse("delay=0.1:400,seed=7").expect("delay plan parses");
    let faults = [
        ("clean", None, false, None),
        ("lossy", Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true, None),
        ("delay", Some(delay), false, None),
        ("straggler", None, false, Some((3, 400))),
    ];
    let engines = [("serial", EngineConfig::serial()), ("auto", EngineConfig::auto())];
    let sys = workload();
    for (topo_name, topology) in topologies {
        for (fault_name, plan, reliable, straggler) in &faults {
            let mut cfg = config(plan.clone(), *reliable);
            cfg.topology = topology;
            cfg.straggler = *straggler;
            for (engine_name, engine) in engines {
                let engine = engine.with_trace(TraceConfig::full());
                let tag = format!("{topo_name}-{fault_name}-{engine_name}");
                let want = reference(&cfg, &sys, STEPS, &engine, &tag);
                for shards in [2usize, 4] {
                    let ctx = format!("{tag} x{shards}");
                    assert_sharded_matches(&cfg, &sys, STEPS, &engine, shards, false, &want, &ctx);
                }
            }
        }
    }
}

/// One blocking mesh receive per peer per window — not two to three per
/// simulated cycle. A worker meets its peers once per `L` cycles while
/// everybody runs, at twice that rate while a finished worker follows
/// the rest to the end of a segment, and a bounded number of extra
/// rounds per step boundary.
#[test]
fn a_worker_blocks_on_its_peers_once_per_window_not_per_cycle() {
    const STEPS: u64 = 2;
    let sys = workload();
    let cfg = config(None, false);
    for engine in [EngineConfig::serial(), EngineConfig::auto()] {
        let run = run_sharded(&cfg, &sys, STEPS, &engine, 2, ShardOpts::default())
            .expect("sharded run completes");
        let lookahead = run.replica.pos_fabric.lookahead();
        assert_eq!(lookahead, 204, "the paper switch at the paper link rate");
        let cycles = run.report.total_cycles;
        let bound = 2 * cycles.div_ceil(lookahead) + 4 * STEPS;
        assert_eq!(run.gauges.len(), 2);
        for (w, g) in run.gauges.iter().enumerate() {
            // Two shards: one peer, so one receive per window.
            assert!(g.windows > 0, "worker {w} never exchanged a frame");
            assert!(
                g.windows <= bound,
                "worker {w}: {} blocking receives over {cycles} cycles (bound {bound})",
                g.windows
            );
        }
    }
}

// -------------------------------------------------------------------------
// Crash + resume on a different shard count
// -------------------------------------------------------------------------

#[test]
fn crash_then_resume_on_different_shard_count_matches_oracle() {
    const CRASH_NODE: u32 = 1;
    const CRASH_STEP: u64 = 5;
    let sys = workload();
    let engine = EngineConfig::serial().with_trace(TraceConfig::full());

    // Uninterrupted oracle with the same segmentation.
    let dir_oracle = tmpdir("resume-oracle");
    let ck_oracle = CheckpointConfig::new(EVERY, &dir_oracle).with_keep(0);
    let mut oracle = Cluster::new(config(None, false), &sys);
    let oracle_run = run_with_checkpoints(
        &mut oracle,
        STEPS,
        BUDGET,
        &engine,
        Some(&ck_oracle),
        ClusterRunReport::new(),
    )
    .expect("oracle completes");
    let oracle_state = final_state(&oracle, &sys);

    // Crashing sharded run on 2 workers: node 1 dies in step 5, past
    // the step-4 checkpoint.
    let crash_plan = FaultPlan::none().with_crash(CRASH_NODE, CRASH_STEP);
    let dir = tmpdir("resume-crash");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let err = run_sharded(
        &config(Some(crash_plan.clone()), false),
        &sys,
        STEPS,
        &engine,
        2,
        ShardOpts { budget: BUDGET, ckpt: Some(ck.clone()), resume: None, obs: None, ..Default::default() },
    )
    .expect_err("crash directive must abort the sharded run");
    match err {
        ShardError::Cluster(ClusterError::Crashed(c)) => {
            assert_eq!(c.node, CRASH_NODE as usize, "wrong crash node");
            assert_eq!(c.step, CRASH_STEP, "wrong crash step");
        }
        other => panic!("expected injected crash, got {other}"),
    }

    // Resume from the newest checkpoint on a *different* shard count (4
    // workers), with the crash directive stripped.
    let latest = fasda_ckpt::latest_checkpoint(&dir)
        .expect("list checkpoints")
        .expect("a checkpoint exists");
    assert_eq!(fasda_ckpt::checkpoint_step(&latest), Some(4));
    // The coordinator applies the in-process resume rule: a checkpoint
    // past the requested steps is refused, naming the field.
    let past = run_sharded(
        &config(Some(crash_plan.without_crash()), false),
        &sys,
        3,
        &engine,
        2,
        ShardOpts { budget: BUDGET, resume: Some(latest.clone()), ..Default::default() },
    )
    .expect_err("a step-4 checkpoint cannot resume a 3-step run");
    match past {
        ShardError::Spec(e) => assert_eq!(e.field, "resume", "{e}"),
        other => panic!("expected a resume spec error, got {other}"),
    }
    let resumed = run_sharded(
        &config(Some(crash_plan.without_crash()), false),
        &sys,
        STEPS,
        &engine,
        4,
        ShardOpts { budget: BUDGET, ckpt: Some(ck), resume: Some(latest), obs: None, ..Default::default() },
    )
    .expect("resumed sharded run completes");

    assert_eq!(resumed.report, oracle_run.report, "whole-run report drifted after resume");
    let state = final_state(&resumed.replica, &sys);
    assert_eq!(state.0.pos, oracle_state.0.pos, "positions drifted after resume");
    assert_eq!(state.0.vel, oracle_state.0.vel, "velocities drifted after resume");
    assert_eq!(state.1, oracle_state.1, "force accumulators drifted after resume");

    // The re-run final segment's merged trace equals the oracle's last
    // segment trace.
    let last = resumed.traces.last().expect("tracing was on");
    let want_last = oracle_run.traces.last().expect("oracle traced");
    assert_eq!(last.nodes, want_last.nodes, "resumed final-segment trace drifted");
    assert_eq!(last.stalls, want_last.stalls, "resumed final-segment stalls drifted");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_oracle);
}
