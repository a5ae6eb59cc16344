//! Checkpoint/restore and crash-recovery acceptance tests.
//!
//! The contract under test (DESIGN.md §9): restoring a checkpoint into a
//! freshly built cluster reproduces the snapshotted state *exactly* —
//! re-snapshotting yields the same bytes — and a run killed mid-step by
//! a `crash=NODE@STEP` directive, recovered from its latest checkpoint,
//! reaches final positions, velocities, force accumulators, per-step
//! records, and per-node trace streams bit-identical to the
//! uninterrupted oracle with the same segmentation. This must hold on
//! the serial reference and the optimized parallel engine, with and
//! without a lossy fault schedule under the reliability layer. Corrupt
//! or truncated checkpoint files must fail with a typed error naming the
//! bad section — never a panic, never a silent partial restore.

mod harness;

use fasda_cluster::ckpt::{
    latest_checkpoint, load_checkpoint, run_with_checkpoints, CheckpointConfig, CheckpointedRun,
    CkptRunError,
};
use fasda_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterRunReport, EngineConfig, FaultPlan, RelConfig, TraceConfig,
};
use fasda_ckpt::{CkptError, Container, ContainerWriter};
use fasda_md::system::ParticleSystem;
use fasda_sim::rng::XorShift64Star;
use harness::{assert_state_eq, config, final_state, workload, BUDGET};

const STEPS: u64 = 6;
const EVERY: u64 = 2;

/// Suite-namespaced scratch directory.
fn tmpdir(tag: &str) -> std::path::PathBuf {
    harness::tmpdir(&format!("ckpt-{tag}"))
}

/// Per-node event streams of every segment trace, flattened in segment
/// order (the engine stream and stall ledger are compared separately by
/// the chaos tests; the per-node record is the deterministic artifact).
fn node_streams(run: &CheckpointedRun) -> Vec<Vec<fasda_trace::TraceEvent>> {
    run.traces
        .iter()
        .map(|t| t.nodes.iter().flat_map(|n| n.events.clone()).collect())
        .collect()
}

// -------------------------------------------------------------------------
// Snapshot identity
// -------------------------------------------------------------------------

#[test]
fn restore_then_resnapshot_is_byte_identical() {
    let sys = workload();
    let cfg = config(None, false);
    let mut a = Cluster::new(cfg.clone(), &sys);
    a.try_run_with(STEPS, BUDGET, &EngineConfig::serial()).expect("run");

    let mut cw = ContainerWriter::new();
    a.snapshot_into(&mut cw);
    let bytes = cw.finish();

    let mut b = Cluster::new(cfg, &sys);
    let container = Container::parse(&bytes).expect("parse own snapshot");
    b.restore_from(&container).expect("restore into fresh cluster");

    let mut cw2 = ContainerWriter::new();
    b.snapshot_into(&mut cw2);
    assert_eq!(
        bytes,
        cw2.finish(),
        "snapshot -> restore -> snapshot must be the identity on bytes"
    );
}

/// Both engines leave the same machine at a step boundary: the `chips`
/// section — every CBB, PE, ring and EX queue — is byte-equal between
/// the serial oracle and the fast engine (an ejected station carries no
/// scan plan on either). The `driver` section still differs, by the
/// engine's own `skipped_cycles` counter.
#[test]
fn chips_section_is_engine_independent_at_a_step_boundary() {
    let sys = workload();
    let cfg = config(None, false);
    let chips = |engine: &EngineConfig| {
        let mut cluster = Cluster::new(cfg.clone(), &sys);
        cluster.try_run_with(2, BUDGET, engine).expect("run");
        let mut cw = ContainerWriter::new();
        cluster.snapshot_into(&mut cw);
        let bytes = cw.finish();
        let container = Container::parse(&bytes).expect("parse own snapshot");
        container.payload("chips").expect("chips section").to_vec()
    };
    let (serial, auto) = (chips(&EngineConfig::serial()), chips(&EngineConfig::auto()));
    assert!(
        serial == auto,
        "chips section: serial {} bytes, auto {} bytes",
        serial.len(),
        auto.len()
    );
}

/// The fact that lets every run, checkpointed or not, take one path: an
/// unsegmented `run_with_checkpoints` *is* `try_run_with` — same report,
/// same trace, same final state — on both engines.
#[test]
fn uncheckpointed_run_is_the_plain_run() {
    let sys = workload();
    for engine in [EngineConfig::serial(), EngineConfig::auto()] {
        let engine = engine.with_trace(TraceConfig::full());
        let mut plain = Cluster::new(config(None, false), &sys);
        let want = plain.try_run_with(STEPS, BUDGET, &engine).expect("plain run");
        let want_trace = plain.take_trace().expect("plain trace");

        let mut cluster = Cluster::new(config(None, false), &sys);
        let run = run_with_checkpoints(&mut cluster, STEPS, BUDGET, &engine, None, ClusterRunReport::new())
            .expect("unsegmented run");
        assert_eq!(run.report, want);
        assert!(run.checkpoints.is_empty());
        assert_eq!(run.traces.len(), 1);
        assert_eq!(run.traces[0].nodes, want_trace.nodes);
        assert_eq!(run.traces[0].stalls, want_trace.stalls);
        assert_state_eq(&final_state(&cluster, &sys), &final_state(&plain, &sys), "unsegmented");
    }
}

#[test]
fn restored_cluster_continues_bit_identical() {
    // Run 2 segments, snapshot, run 1 more on the original; separately
    // restore the snapshot into a fresh cluster and run the same final
    // segment: both must land on identical particle state.
    let sys = workload();
    let cfg = config(None, false);
    let engine = EngineConfig::serial();

    let mut a = Cluster::new(cfg.clone(), &sys);
    a.try_run_with(2 * EVERY, BUDGET, &engine).expect("prefix");
    let mut cw = ContainerWriter::new();
    a.snapshot_into(&mut cw);
    let bytes = cw.finish();
    a.try_run_with(STEPS, BUDGET, &engine).expect("suffix on original");
    let want = final_state(&a, &sys);

    let mut b = Cluster::new(cfg, &sys);
    b.restore_from(&Container::parse(&bytes).expect("parse")).expect("restore");
    assert_eq!(b.current_step(), 2 * EVERY);
    b.try_run_with(STEPS, BUDGET, &engine).expect("suffix on restored");
    let got = final_state(&b, &sys);

    assert_eq!(got.0.pos, want.0.pos, "positions diverged after restore");
    assert_eq!(got.0.vel, want.0.vel, "velocities diverged after restore");
    assert_eq!(got.1, want.1, "force accumulators diverged after restore");
}

// -------------------------------------------------------------------------
// Crash + recovery vs the uninterrupted oracle
// -------------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    faults: Option<FaultPlan>,
    reliable: bool,
    engine: EngineConfig,
}

fn scenarios() -> Vec<Scenario> {
    let full = TraceConfig::full();
    vec![
        Scenario {
            name: "clean-serial",
            faults: None,
            reliable: false,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "clean-auto",
            faults: None,
            reliable: false,
            engine: EngineConfig::auto().with_trace(full),
        },
        Scenario {
            name: "lossy-serial",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "lossy-auto",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            engine: EngineConfig::auto().with_trace(full),
        },
    ]
}

#[test]
fn crash_recovery_matches_uninterrupted_oracle() {
    // Crash node 1 while it is executing step 5 (the final segment);
    // recovery restores the step-4 checkpoint and re-runs to the end.
    const CRASH_NODE: u32 = 1;
    const CRASH_STEP: u64 = 5;
    let sys = workload();

    for sc in scenarios() {
        // Uninterrupted oracle with the same segmentation.
        let dir_oracle = tmpdir(&format!("{}-oracle", sc.name));
        let ck_oracle = CheckpointConfig::new(EVERY, &dir_oracle).with_keep(0);
        let mut oracle = Cluster::new(config(sc.faults.clone(), sc.reliable), &sys);
        let oracle_run = run_with_checkpoints(
            &mut oracle,
            STEPS,
            BUDGET,
            &sc.engine,
            Some(&ck_oracle),
            ClusterRunReport::new(),
        )
        .expect("oracle run completes");
        let oracle_state = final_state(&oracle, &sys);
        assert_eq!(oracle_run.traces.len() as u64, STEPS / EVERY);

        // Crashing run: same plan plus the crash directive.
        let crash_plan = sc
            .faults
            .clone()
            .unwrap_or_else(FaultPlan::none)
            .with_crash(CRASH_NODE, CRASH_STEP);
        let dir = tmpdir(sc.name);
        let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
        let mut crashy = Cluster::new(config(Some(crash_plan.clone()), sc.reliable), &sys);
        let err = run_with_checkpoints(
            &mut crashy,
            STEPS,
            BUDGET,
            &sc.engine,
            Some(&ck),
            ClusterRunReport::new(),
        )
        .expect_err("crash directive must abort the run");
        match err {
            CkptRunError::Run(ClusterError::Crashed(c)) => {
                assert_eq!(c.node, CRASH_NODE as usize, "{}: wrong crash node", sc.name);
                assert_eq!(c.step, CRASH_STEP, "{}: wrong crash step", sc.name);
                assert!(
                    c.to_string().contains("crashed"),
                    "{}: crash error should say so",
                    sc.name
                );
            }
            other => panic!("{}: expected injected crash, got {other}", sc.name),
        }

        // Recovery: rebuild from config *without* the crash directive,
        // restore the newest checkpoint, run the remaining segments.
        let mut recovered = Cluster::new(
            config(Some(crash_plan.without_crash()), sc.reliable),
            &sys,
        );
        let latest = latest_checkpoint(&dir).expect("list checkpoints").expect("a checkpoint exists");
        let acc = load_checkpoint(&mut recovered, &latest).expect("resume parses");
        assert_eq!(acc.steps, 4, "{}: crash fired past the step-4 checkpoint", sc.name);
        let resumed = run_with_checkpoints(
            &mut recovered,
            STEPS,
            BUDGET,
            &sc.engine,
            Some(&ck),
            acc,
        )
        .expect("recovered run completes");
        let recovered_state = final_state(&recovered, &sys);

        assert_eq!(
            resumed.report, oracle_run.report,
            "{}: whole-run report drifted after recovery",
            sc.name
        );
        assert_eq!(
            recovered_state.0.pos, oracle_state.0.pos,
            "{}: final positions drifted after recovery",
            sc.name
        );
        assert_eq!(
            recovered_state.0.vel, oracle_state.0.vel,
            "{}: final velocities drifted after recovery",
            sc.name
        );
        assert_eq!(
            recovered_state.1, oracle_state.1,
            "{}: final force accumulators drifted after recovery",
            sc.name
        );

        // Suffix-aligned traces: the resumed process re-ran only the
        // final segment; its per-node streams must equal the oracle's
        // last segment streams byte for byte.
        let oracle_streams = node_streams(&oracle_run);
        let resumed_streams = node_streams(&resumed);
        assert!(!resumed_streams.is_empty(), "{}: tracing was on", sc.name);
        let skip = oracle_streams.len() - resumed_streams.len();
        assert_eq!(
            resumed_streams,
            oracle_streams[skip..].to_vec(),
            "{}: resumed trace streams not suffix-aligned with oracle",
            sc.name
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_oracle);
    }
}

// -------------------------------------------------------------------------
// Retention, atomicity, and file discovery
// -------------------------------------------------------------------------

#[test]
fn retention_keeps_only_newest_checkpoints() {
    let sys = workload();
    let dir = tmpdir("retention");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(2);
    let mut cluster = Cluster::new(config(None, false), &sys);
    run_with_checkpoints(
        &mut cluster,
        STEPS,
        BUDGET,
        &EngineConfig::serial(),
        Some(&ck),
        ClusterRunReport::new(),
    )
    .expect("run completes");

    let kept = fasda_ckpt::list_checkpoints(&dir).expect("list");
    assert_eq!(
        kept.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![4, 6],
        "retention must keep the two newest boundaries"
    );
    // Atomic writes leave no temp droppings behind.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name.ends_with(".fckp"),
            "unexpected non-checkpoint file {name:?} (non-atomic write?)"
        );
    }
    let latest = fasda_ckpt::latest_checkpoint(&dir).expect("latest").expect("some");
    assert_eq!(fasda_ckpt::checkpoint_step(&latest), Some(6));
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Corruption: typed errors, never panics, never partial silent restores
// -------------------------------------------------------------------------

fn snapshot_bytes() -> (Vec<u8>, ParticleSystem, ClusterConfig) {
    let sys = workload();
    let cfg = config(None, false);
    let mut cluster = Cluster::new(cfg.clone(), &sys);
    cluster
        .try_run_with(EVERY, BUDGET, &EngineConfig::serial())
        .expect("run");
    let mut cw = ContainerWriter::new();
    cluster.snapshot_into(&mut cw);
    (cw.finish(), sys, cfg)
}

#[test]
fn corrupted_section_fails_with_named_crc_mismatch() {
    let (mut bytes, _sys, _cfg) = snapshot_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match Container::parse(&bytes) {
        Err(CkptError::CrcMismatch { section, .. }) => {
            assert!(!section.is_empty(), "CRC error must name the section");
        }
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_fails_cleanly() {
    let (bytes, _sys, _cfg) = snapshot_bytes();
    for cut in [3, 7, bytes.len() / 3, bytes.len() - 5] {
        match Container::parse(&bytes[..cut]) {
            Err(CkptError::Truncated { .. }) | Err(CkptError::BadMagic) => {}
            other => panic!("truncation at {cut} must fail cleanly, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let (mut bytes, _sys, _cfg) = snapshot_bytes();
    let mut nonsense = bytes.clone();
    nonsense[..4].copy_from_slice(b"NOPE");
    assert!(matches!(Container::parse(&nonsense), Err(CkptError::BadMagic)));

    // 999 never existed; 1 and 2 are the retired formats, which have no
    // read path and get the same typed error.
    for found in [999u32, 1, 2] {
        bytes[4..8].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            Container::parse(&bytes).unwrap_err(),
            CkptError::BadVersion { found, expected: 3 }
        );
    }
}

#[test]
fn config_mismatch_names_the_field() {
    let (bytes, sys, cfg) = snapshot_bytes();
    let container = Container::parse(&bytes).expect("parse");

    let mut straggler = Cluster::new(
        ClusterConfig {
            straggler: Some((0, 50)),
            ..cfg.clone()
        },
        &sys,
    );
    match straggler.restore_from(&container) {
        Err(CkptError::ConfigMismatch { field }) => assert_eq!(field, "straggler"),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    let mut rel = Cluster::new(
        ClusterConfig {
            reliability: Some(RelConfig::new(2_048, 16_384)),
            ..cfg
        },
        &sys,
    );
    match rel.restore_from(&container) {
        Err(CkptError::ConfigMismatch { field }) => assert_eq!(field, "reliability"),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn bitflip_fuzz_never_panics() {
    // Seeded xorshift64* fuzz (shared PRNG from fasda-sim): random bit
    // flips anywhere in the container must yield either a clean parse
    // (flip landed in dead padding — impossible here, but allowed) or a
    // typed error; restore of any surviving parse must never panic.
    let (bytes, sys, cfg) = snapshot_bytes();
    let mut rng = XorShift64Star::new(0x000F_A5DA_C4A5);
    for _ in 0..128 {
        let mut mutated = bytes.clone();
        let flips = 1 + rng.next_below(4) as usize;
        for _ in 0..flips {
            let at = rng.next_below(mutated.len() as u64) as usize;
            mutated[at] ^= 1 << rng.next_below(8);
        }
        if let Ok(container) = Container::parse(&mutated) {
            let mut cluster = Cluster::new(cfg.clone(), &sys);
            let _ = cluster.restore_from(&container);
        }
    }
}
