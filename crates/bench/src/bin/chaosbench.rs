//! `chaosbench` — cost of surviving a lossy hyper-ring.
//!
//! Runs the fig16-style 8-FPGA workload through a sweep of seeded
//! drop-only fault plans with the reliable-delivery layer on, and
//! records what reliability costs as loss grows:
//!
//! * `goodput` — fraction of fabric packets that are first-copy payload
//!   (baseline packet count / faulted packet count; the rest is
//!   retransmissions, acks, and duplicate copies);
//! * `retransmit_overhead` — retransmitted frames per baseline payload
//!   frame;
//! * `cycle_inflation` — simulated cycles relative to the fault-free
//!   run (retransmission round-trips stretch chained sync).
//!
//! Every faulted run is asserted **bit-identical** in final particle
//! state to the fault-free run — the sweep measures the price of
//! reliability, never a different answer. The rate-0 row isolates the
//! pure ack/bookkeeping overhead of the layer itself.
//!
//! Results merge into the `chaos` section of `BENCH_engine.json`
//! (created if absent), preserving the engine benchmark's sections.
//!
//! `--recovery` instead measures what *crash recovery* costs: for each
//! checkpoint interval and drop rate ∈ {0, 5 %}, a run is killed via a
//! `crash=NODE@STEP` fault at its last step and resumed from the latest
//! snapshot; the `recovery` section records snapshot size, serialize and
//! restore wall time, and the replay overhead (fraction of the run
//! re-simulated because progress past the last checkpoint was lost).
//! Every resumed run is asserted bit-identical to the uninterrupted
//! oracle.
//!
//! Usage: `chaosbench [--steps N] [--per-cell N] [--seed S]
//!                    [--out FILE] [--smoke] [--recovery]`

use fasda_bench::{rule, Args};
use fasda_cluster::{
    resume_latest, run_with_checkpoints, save_checkpoint, CheckpointConfig, Cluster,
    ClusterConfig, ClusterError, CkptRunError, EngineConfig, FaultPlan, ObsLive, ObsSinkConfig,
    RelConfig, RunAccumulator, MAX_RUN_CYCLES,
};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_trace::Json;
use std::time::Instant;

/// One row of the sweep.
struct Row {
    rate: f64,
    cycles: u64,
    packets: u64,
    faults: u64,
    retransmits: u64,
    acks: u64,
    duplicates: u64,
}

struct RunOut {
    cycles: u64,
    packets: u64,
    faults: u64,
    retransmits: u64,
    acks: u64,
    duplicates: u64,
    sys: ParticleSystem,
}

fn run(sys: &ParticleSystem, cfg: ClusterConfig, steps: u64, engine: &EngineConfig) -> RunOut {
    let mut cluster = Cluster::new(cfg, sys);
    let report = cluster
        .try_run_with(steps, MAX_RUN_CYCLES, engine)
        .expect("chaos sweep run converges");
    let mut out = sys.clone();
    cluster.store_into(&mut out);
    let rel = report.reliability.unwrap_or_default();
    RunOut {
        cycles: report.total_cycles,
        packets: report.pos_packets + report.frc_packets,
        faults: report.faults_injected,
        retransmits: rel.retransmits,
        acks: rel.acks_sent,
        duplicates: rel.duplicates_dropped,
        sys: out,
    }
}

/// The fig16-style 8-FPGA workload shared by both benchmark modes.
fn workload(per_cell: u32) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0xFA5DA,
        element: Element::Na,
    }
    .generate()
}

/// Merge `section` into the JSON document at `out` under `key`,
/// preserving every other section (created if absent).
fn merge_section(out: &str, key: &str, section: Json) {
    let mut doc = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or_else(|| Json::obj().build());
    match &mut doc {
        Json::Obj(fields) => {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = section;
            } else {
                fields.push((key.to_string(), section));
            }
        }
        other => *other = Json::Obj(vec![(key.to_string(), section)]),
    }
    std::fs::write(out, doc.pretty()).expect("write benchmark result");
    println!("merged {key} section into {out}");
}

fn main() {
    let args = Args::parse();
    if args.flag("recovery") {
        return recovery(&args);
    }
    let smoke = args.flag("smoke");
    let steps: u64 = args.get("steps", if smoke { 1 } else { 3 });
    let per_cell: u32 = args.get("per-cell", if smoke { 4 } else { 16 });
    let seed: u64 = args.get("seed", 0xC4A05);
    let out: String = args.get("out", "BENCH_engine.json".to_string());
    let rates: &[f64] = &[0.0, 0.01, 0.05, 0.2];

    println!("FASDA — chaos benchmark (reliable delivery under a lossy hyper-ring)");
    println!(
        "6x6x6 cells, {per_cell} Na/cell, 8 nodes (3x3x3 cells each), {steps} steps{}",
        if smoke { " [smoke]" } else { "" }
    );

    let sys = workload(per_cell);
    let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let engine = EngineConfig::auto();

    rule("fault-free baseline (reliability off)");
    let base = run(&sys, cfg.clone(), steps, &engine);
    println!(
        "{:>10} cycles, {:>8} fabric packets",
        base.cycles, base.packets
    );

    rule("drop-rate sweep (reliability on, seeded plans)");
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>12} {:>10} {:>9} {:>9}",
        "drop", "cycles", "packets", "faults", "retransmits", "acks", "goodput", "inflate"
    );
    let mut rows = Vec::new();
    for &rate in rates {
        let mut c = cfg.clone().with_reliability(RelConfig::new(2_048, 16_384));
        if rate > 0.0 {
            c = c.with_faults(FaultPlan::drop_only(rate, seed));
        }
        let o = run(&sys, c, steps, &engine);
        assert_eq!(
            o.sys.pos, base.sys.pos,
            "drop {rate}: final positions drifted from fault-free run"
        );
        assert_eq!(
            o.sys.vel, base.sys.vel,
            "drop {rate}: final velocities drifted from fault-free run"
        );
        assert_eq!(
            o.sys.force, base.sys.force,
            "drop {rate}: final forces drifted from fault-free run"
        );
        if rate > 0.0 {
            assert!(o.faults > 0, "drop {rate}: plan injected nothing");
        }
        let goodput = base.packets as f64 / o.packets.max(1) as f64;
        let inflate = o.cycles as f64 / base.cycles.max(1) as f64;
        println!(
            "{:>6} {:>12} {:>10} {:>8} {:>12} {:>10} {:>9.3} {:>9.3}",
            rate, o.cycles, o.packets, o.faults, o.retransmits, o.acks, goodput, inflate
        );
        rows.push(Row {
            rate,
            cycles: o.cycles,
            packets: o.packets,
            faults: o.faults,
            retransmits: o.retransmits,
            acks: o.acks,
            duplicates: o.duplicates,
        });
    }
    println!("\nall sweep runs bit-identical to the fault-free baseline");

    // Merge the chaos section into the engine benchmark document rather
    // than clobbering it; create a fresh document when absent.
    let mut sweep = Vec::new();
    for r in &rows {
        sweep.push(
            Json::obj()
                .field("drop_rate", Json::fixed(r.rate, 3))
                .field("simulated_cycles", Json::uint(r.cycles))
                .field("fabric_packets", Json::uint(r.packets))
                .field("faults_injected", Json::uint(r.faults))
                .field("retransmits", Json::uint(r.retransmits))
                .field("acks", Json::uint(r.acks))
                .field("duplicates_dropped", Json::uint(r.duplicates))
                .field(
                    "goodput",
                    Json::fixed(base.packets as f64 / r.packets.max(1) as f64, 4),
                )
                .field(
                    "retransmit_overhead",
                    Json::fixed(r.retransmits as f64 / base.packets.max(1) as f64, 4),
                )
                .field(
                    "cycle_inflation",
                    Json::fixed(r.cycles as f64 / base.cycles.max(1) as f64, 4),
                )
                .build(),
        );
    }
    let chaos = Json::obj()
        .field("workload", "fig16-6x6x6-8fpga")
        .field("smoke", smoke)
        .field("per_cell", per_cell as i64)
        .field("steps", Json::uint(steps))
        .field("fault_seed", Json::uint(seed))
        .field("baseline_cycles", Json::uint(base.cycles))
        .field("baseline_packets", Json::uint(base.packets))
        .field("bit_identical", true)
        .field("sweep", Json::Arr(sweep))
        .build();

    merge_section(&out, "chaos", chaos);

    rule("heartbeat continuity under loss");
    // The in-run sampler beats on step boundaries, so a retransmission
    // storm stretches *cycles* but must never open a gap in the beat
    // stream: with cadence 1 no two consecutive beats (or the run's
    // end) may be more than 2 steps apart.
    let every = 1u64;
    let limit = 2 * every;
    let scratch = std::env::temp_dir().join(format!("fasda-chaos-obs-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    println!(
        "{:>6} {:>7} {:>9} {:>10}",
        "drop", "beats", "max-gap", "gap-limit"
    );
    let mut cont = Vec::new();
    for &rate in &[0.0, 0.05] {
        let mut c = cfg.clone().with_reliability(RelConfig::new(2_048, 16_384));
        if rate > 0.0 {
            c = c.with_faults(FaultPlan::drop_only(rate, seed));
        }
        let beats_path = scratch.join(format!("beats-{}.jsonl", (rate * 100.0) as u32));
        let sinks = ObsSinkConfig { heartbeat_out: Some(beats_path.clone()), prom_out: None };
        let mut cluster = Cluster::new(c, &sys);
        cluster.attach_obs(Box::new(ObsLive::new(every, &sinks).expect("beat sink opens")));
        cluster
            .try_run_with(steps, MAX_RUN_CYCLES, &engine)
            .expect("lossy heartbeat run converges");
        let text = std::fs::read_to_string(&beats_path).expect("beat stream");
        let seen: Vec<u64> = text
            .lines()
            .map(|l| {
                let rec = Json::parse(l).expect("beat record parses");
                rec.get("step").unwrap().as_i64().expect("step field") as u64
            })
            .collect();
        assert!(!seen.is_empty(), "drop {rate}: no heartbeats emitted");
        let mut max_gap = seen[0]; // start-of-run to first beat
        for w in seen.windows(2) {
            max_gap = max_gap.max(w[1] - w[0]);
        }
        max_gap = max_gap.max(steps - seen.last().unwrap()); // last beat to end
        assert!(
            max_gap <= limit,
            "drop {rate}: heartbeat gap of {max_gap} steps exceeds {limit} (2x cadence)"
        );
        println!("{:>6} {:>7} {:>9} {:>10}", rate, seen.len(), max_gap, limit);
        cont.push(
            Json::obj()
                .field("drop_rate", Json::fixed(rate, 3))
                .field("beats", Json::uint(seen.len() as u64))
                .field("max_gap_steps", Json::uint(max_gap))
                .build(),
        );
    }
    println!("\nno heartbeat gap exceeded 2x the cadence");
    let _ = std::fs::remove_dir_all(&scratch);
    merge_section(
        &out,
        "heartbeat_continuity",
        Json::obj()
            .field("workload", "fig16-6x6x6-8fpga")
            .field("smoke", smoke)
            .field("steps", Json::uint(steps))
            .field("cadence_steps", Json::uint(every))
            .field("gap_limit_steps", Json::uint(limit))
            .field("rows", Json::Arr(cont))
            .build(),
    );
}

/// `--recovery`: the cost of checkpointing and of coming back from the
/// dead, as a function of checkpoint interval and link loss.
fn recovery(args: &Args) {
    let smoke = args.flag("smoke");
    let steps: u64 = args.get("steps", if smoke { 4 } else { 6 });
    let per_cell: u32 = args.get("per-cell", if smoke { 4 } else { 16 });
    let seed: u64 = args.get("seed", 0xC4A05);
    let out: String = args.get("out", "BENCH_engine.json".to_string());
    let intervals: &[u64] = if smoke { &[1, 2] } else { &[1, 2, 3] };
    let rates: &[f64] = &[0.0, 0.05];
    let crash_step = steps - 1;

    println!("FASDA — recovery benchmark (checkpoint + crash-recovery cost)");
    println!(
        "6x6x6 cells, {per_cell} Na/cell, 8 nodes, {steps} steps, crash=1@{crash_step}{}",
        if smoke { " [smoke]" } else { "" }
    );

    let sys = workload(per_cell);
    let base = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let engine = EngineConfig::auto();
    let scratch = std::env::temp_dir().join(format!("fasda-recovery-{}", std::process::id()));

    println!(
        "{:>6} {:>5} {:>12} {:>10} {:>10} {:>8} {:>12} {:>9}",
        "drop", "every", "snap-bytes", "ser-ms", "restore-ms", "replayed", "replay-cyc", "overhead"
    );
    let mut sweep = Vec::new();
    for &rate in rates {
        let faulted = |crash: bool| {
            let mut plan = if rate > 0.0 {
                FaultPlan::drop_only(rate, seed)
            } else {
                FaultPlan::none()
            };
            if crash {
                plan = plan.with_crash(1, crash_step);
            }
            let mut c = base.clone();
            if rate > 0.0 {
                c = c.with_reliability(RelConfig::new(2_048, 16_384));
            }
            if !plan.is_none() || !plan.crashes.is_empty() {
                c = c.with_faults(plan);
            }
            c
        };
        for &every in intervals {
            let tag = format!("r{}-k{every}", (rate * 100.0) as u32);
            // Separate oracle and victim checkpoint dirs: resume must
            // only ever see snapshots the *crashed* run got to write.
            let ckpt = CheckpointConfig::new(every, scratch.join(format!("{tag}-oracle")));
            let dir = scratch.join(format!("{tag}-crash"));
            let ckpt_crash = CheckpointConfig::new(every, &dir);

            // Uninterrupted oracle with the same segmentation: the
            // bit-identity reference and the denominator for overhead.
            let mut oracle = Cluster::new(faulted(false), &sys);
            let oracle_run = run_with_checkpoints(
                &mut oracle,
                steps,
                MAX_RUN_CYCLES,
                &engine,
                Some(&ckpt),
                RunAccumulator::new(),
            )
            .expect("oracle run completes");
            let mut oracle_sys = sys.clone();
            oracle.store_into(&mut oracle_sys);

            // Serialize cost on the final (densest) machine state.
            let mut final_acc = RunAccumulator::new();
            final_acc.fold(&oracle_run.report);
            let t = Instant::now();
            let snap_path = save_checkpoint(&oracle, &final_acc, &ckpt).expect("serialize");
            let serialize_ms = t.elapsed().as_secs_f64() * 1e3;
            let snapshot_bytes = std::fs::metadata(&snap_path).expect("stat").len();

            // Crash at the last step, losing everything past the most
            // recent checkpoint boundary.
            let mut victim = Cluster::new(faulted(true), &sys);
            let crashed = run_with_checkpoints(
                &mut victim,
                steps,
                MAX_RUN_CYCLES,
                &engine,
                Some(&ckpt_crash),
                RunAccumulator::new(),
            );
            match crashed {
                Err(CkptRunError::Run(ClusterError::Crashed(_))) => {}
                other => panic!("expected injected crash, got {:?}", other.map(|r| r.report)),
            }

            // Recover: restore the latest snapshot and replay to the end.
            let mut revived = Cluster::new(faulted(false), &sys);
            let t = Instant::now();
            let (_, acc) = resume_latest(&mut revived, &dir)
                .expect("restore")
                .expect("a checkpoint exists");
            let restore_ms = t.elapsed().as_secs_f64() * 1e3;
            let steps_replayed = crash_step + 1 - acc.steps_done.min(crash_step + 1);
            let resume_cycle = revived.cycle;
            let run =
                run_with_checkpoints(&mut revived, steps, MAX_RUN_CYCLES, &engine, Some(&ckpt_crash), acc)
                    .expect("resumed run completes");
            let replay_cycles = revived.cycle - resume_cycle;
            let overhead = replay_cycles as f64 / run.report.total_cycles.max(1) as f64;

            let mut recovered_sys = sys.clone();
            revived.store_into(&mut recovered_sys);
            assert_eq!(recovered_sys.pos, oracle_sys.pos, "recovery drifted (pos)");
            assert_eq!(recovered_sys.vel, oracle_sys.vel, "recovery drifted (vel)");
            assert_eq!(recovered_sys.force, oracle_sys.force, "recovery drifted (force)");
            assert_eq!(
                run.report.total_cycles, oracle_run.report.total_cycles,
                "recovery cycle count drifted"
            );

            println!(
                "{:>6} {:>5} {:>12} {:>10.2} {:>10.2} {:>8} {:>12} {:>9.3}",
                rate, every, snapshot_bytes, serialize_ms, restore_ms, steps_replayed,
                replay_cycles, overhead
            );
            sweep.push(
                Json::obj()
                    .field("drop_rate", Json::fixed(rate, 3))
                    .field("checkpoint_every", Json::uint(every))
                    .field("snapshot_bytes", Json::uint(snapshot_bytes))
                    .field("serialize_ms", Json::fixed(serialize_ms, 3))
                    .field("restore_ms", Json::fixed(restore_ms, 3))
                    .field("steps_replayed", Json::uint(steps_replayed))
                    .field("replay_cycles", Json::uint(replay_cycles))
                    .field("replay_overhead", Json::fixed(overhead, 4))
                    .field("total_cycles", Json::uint(run.report.total_cycles))
                    .build(),
            );
        }
    }
    println!("\nall recovered runs bit-identical to their uninterrupted oracles");
    let _ = std::fs::remove_dir_all(&scratch);

    let recovery = Json::obj()
        .field("workload", "fig16-6x6x6-8fpga")
        .field("smoke", smoke)
        .field("per_cell", per_cell as i64)
        .field("steps", Json::uint(steps))
        .field("crash_step", Json::uint(crash_step))
        .field("fault_seed", Json::uint(seed))
        .field("bit_identical", true)
        .field("sweep", Json::Arr(sweep))
        .build();
    merge_section(&out, "recovery", recovery);
}
