//! `chaosbench` — what crash recovery costs, as rows a program reads.
//!
//! On the fig16-style 8-FPGA workload, for each checkpoint interval and
//! drop rate ∈ {0, 5 %}, a run is killed via a `crash=NODE@STEP` fault at
//! its last step and resumed from the latest snapshot. Each row records
//! snapshot size, serialize and restore wall time, and the replay
//! overhead (fraction of the run re-simulated because progress past the
//! last checkpoint was lost). Every resumed run is asserted
//! bit-identical to the uninterrupted oracle.
//!
//! The rows are written to `--out` as `recovery.sweep`; `fasda ckpt
//! policy --bench FILE` and `fasda serve --policy-bench FILE` average
//! their `serialize_ms` / `restore_ms`.
//!
//! Usage: `chaosbench --out FILE [--steps N] [--per-cell N] [--seed S]
//!                    [--smoke]`

use fasda_bench::Args;
use fasda_cluster::{
    resume_latest, run_with_checkpoints, save_checkpoint, CheckpointConfig, Cluster,
    ClusterConfig, ClusterError, CkptRunError, EngineConfig, FaultPlan, RelConfig,
    RunAccumulator, MAX_RUN_CYCLES,
};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_trace::Json;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let steps: u64 = args.get("steps", if smoke { 4 } else { 6 });
    let per_cell: u32 = args.get("per-cell", if smoke { 4 } else { 16 });
    let seed: u64 = args.get("seed", 0xC4A05);
    let out: String = args.get("out", String::new());
    if out.is_empty() {
        eprintln!("error: --out FILE required");
        std::process::exit(1);
    }
    let intervals: &[u64] = if smoke { &[1, 2] } else { &[1, 2, 3] };
    let rates: &[f64] = &[0.0, 0.05];
    let crash_step = steps - 1;

    println!("FASDA — recovery benchmark (checkpoint + crash-recovery cost)");
    println!(
        "6x6x6 cells, {per_cell} Na/cell, 8 nodes, {steps} steps, crash=1@{crash_step}{}",
        if smoke { " [smoke]" } else { "" }
    );

    let sys = WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0xFA5DA,
        element: Element::Na,
    }
    .generate();
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
    let doc = Json::obj().field("recovery", recovery).build();
    std::fs::write(&out, doc.pretty()).expect("write recovery rows");
    println!("wrote {out}");
}
