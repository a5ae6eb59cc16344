//! Engine benchmark — cost of simulating fig16-style 8-FPGA workloads
//! under the two cycle engines:
//!
//! * `serial` — `EngineConfig::serial()`, the plain per-cycle oracle.
//! * `fast` — `EngineConfig::auto()`: idle fast-forward, quiescence
//!   cache, mask-driven chip tick, fused SoA filter→force scan.
//!
//! Two scenarios, both on the fig16 particle workload (6x6x6 cells,
//! 64 Na/cell, 8 nodes of 3x3x3 cells):
//!
//! * `dense` — every node computes flat out. Almost no cycle is globally
//!   quiescent, so fast-forward has nothing to skip; this scenario
//!   measures the raw per-cycle datapath cost.
//! * `straggler` — node 0 stalls for `--stall` cycles at the start of
//!   each force phase (OS jitter / checkpoint pause on one host). Once
//!   the other seven nodes drain, the whole cluster is quiescent and the
//!   fast engine jumps straight to the stall expiry.
//!
//! Every run is asserted bit-identical to the serial oracle
//! (`ClusterRunReport ==`); the engines only change how fast host
//! time passes. Both wall-clock and user-CPU seconds are recorded: the
//! reference host is a 1-core VM whose wall clock absorbs hypervisor
//! steal, so CPU seconds are the stabler basis for ratios. Results are
//! written to `BENCH_engine.json` in the current directory.
//!
//! Usage: `enginebench [--steps N] [--reps N] [--stall N] [--shards N]
//!                     [--out FILE] [--smoke]`
//!
//! `--smoke` runs a single rep of one step on a tiny workload — a CI
//! gate for the bit-identity asserts, not a measurement.
//!
//! Every run also sweeps the sharded engine over {1, 2, 4} worker
//! shards (or just `--shards N` when given) on the dense scenario:
//! per-shard compute with real socket frame exchange, asserted
//! bit-identical to the serial oracle. Wall clock is the speedup signal
//! on multi-core hosts; CPU seconds are recorded alongside so a 1-core
//! host can still gate on identity and protocol overhead (sharding
//! cannot beat one process on one core). Then: the live-telemetry
//! overhead gate (`obs_overhead`), the §5 analytic-model gate
//! (`modelcheck`) and the per-kernel datapath throughput
//! (`datapath_kernels`).

use fasda_bench::{rule, Args};
use fasda_cluster::{
    measured_from, model_input, run_sharded, Cluster, ClusterConfig, ClusterRunReport,
    EngineConfig, ObsLive, ObsSinkConfig, ShardOpts, TraceConfig, TraceLevel,
};
use fasda_obs::model::{modelcheck_json, predict, Divergence, Gate};
use fasda_trace::Json;
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use std::time::Instant;

struct Scenario {
    name: &'static str,
    cfg: ClusterConfig,
}

/// User CPU seconds consumed by this process so far (`/proc/self/stat`
/// field 14). Unlike wall clock, this is not inflated when the
/// hypervisor steals the core mid-run. Falls back to NaN off-Linux.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // utime is the 14th field overall; skip past the parenthesised comm,
    // which may itself contain spaces.
    stat.split(')')
        .nth(1)
        .and_then(|rest| rest.split_whitespace().nth(11))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// One shard count of the shards sweep.
struct ShardPoint {
    shards: usize,
    timing: Timing,
    wall_speedup: f64,
    cpu_overhead: f64,
    /// Exchange window in simulated cycles (a function of the config).
    lookahead: u64,
    /// Exchange rounds of the busiest worker.
    windows: u64,
    /// Largest share of compute + wait time a worker spent blocked.
    wait_share: f64,
}

/// Wall + CPU seconds of one engine's best rep.
#[derive(Clone, Copy)]
struct Timing {
    wall: f64,
    cpu: f64,
}

impl Timing {
    const WORST: Timing = Timing {
        wall: f64::INFINITY,
        cpu: f64::INFINITY,
    };

    fn fold_best(&mut self, other: Timing) {
        self.wall = self.wall.min(other.wall);
        self.cpu = self.cpu.min(other.cpu);
    }

    /// CPU-seconds ratio when both sides have one, wall otherwise.
    fn ratio_over(&self, num: Timing) -> f64 {
        if self.cpu.is_finite() && num.cpu.is_finite() {
            num.cpu / self.cpu
        } else {
            num.wall / self.wall
        }
    }
}

struct Outcome {
    name: &'static str,
    serial: Timing,
    fast: Timing,
    cycles: u64,
    skipped: u64,
}

impl Outcome {
    /// Fast engine vs serial oracle.
    fn speedup(&self) -> f64 {
        self.fast.ratio_over(self.serial)
    }
}

/// One fresh run under `engine`: timing, fast-forwarded cycles, report.
fn run_once(
    sys: &ParticleSystem,
    cfg: ClusterConfig,
    steps: u64,
    engine: &EngineConfig,
) -> (Timing, u64, ClusterRunReport) {
    let mut cluster = Cluster::new(cfg, sys);
    let t0 = Instant::now();
    let c0 = cpu_seconds();
    let r = cluster.run_with(steps, engine);
    let timing = Timing {
        wall: t0.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - c0,
    };
    (timing, cluster.skipped_cycles, r)
}

/// Best-of-`reps` for both engines, reps interleaved (serial, fast,
/// serial, ...) so slow host-load windows hit both sides alike. Asserts
/// the fast engine's report equal to the serial oracle's, and returns
/// that oracle report so the later sections can reuse it.
fn measure(
    sys: &ParticleSystem,
    cfg: ClusterConfig,
    steps: u64,
    reps: u32,
    name: &'static str,
) -> (Outcome, ClusterRunReport) {
    let mut o = Outcome {
        name,
        serial: Timing::WORST,
        fast: Timing::WORST,
        cycles: 0,
        skipped: 0,
    };
    let mut oracle = None;
    for _ in 0..reps {
        let (ts, _, rs) = run_once(sys, cfg.clone(), steps, &EngineConfig::serial());
        let (tf, skipped, rf) = run_once(sys, cfg.clone(), steps, &EngineConfig::auto());
        assert_eq!(rf, rs, "{name}: fast engine must stay bit-identical");
        o.serial.fold_best(ts);
        o.fast.fold_best(tf);
        o.cycles = rs.total_cycles;
        o.skipped = skipped;
        oracle = Some(rs);
    }
    (o, oracle.expect("reps >= 1"))
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let steps: u64 = args.get("steps", if smoke { 1 } else { 3 });
    let reps: u32 = args.get("reps", if smoke { 1 } else { 2 });
    let stall: u64 = args.get("stall", if smoke { 5_000 } else { 200_000 });
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out: String = args.get("out", "BENCH_engine.json".to_string());

    println!("FASDA — cycle-engine benchmark (fig16 8-FPGA workload)");
    let per_cell = if smoke { 4 } else { 64 };
    println!(
        "6x6x6 cells, {per_cell} Na/cell, 8 nodes (3x3x3 cells each), {steps} steps, \
         best of {reps}, {host_cores}-core host{}",
        if smoke { " [smoke]" } else { "" }
    );

    let sys = if smoke {
        WorkloadSpec {
            space: SimulationSpace::cubic(6),
            per_cell,
            placement: Placement::JitteredLattice { jitter: 0.05 },
            temperature_k: 150.0,
            seed: 0xFA5DA,
            element: Element::Na,
        }
        .generate()
    } else {
        WorkloadSpec::paper(SimulationSpace::cubic(6), 0xFA5DA).generate()
    };
    let dense = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    let mut straggler = dense.clone();
    straggler.straggler = Some((0, stall));
    let scenarios = [
        Scenario { name: "dense", cfg: dense },
        Scenario { name: "straggler", cfg: straggler },
    ];

    let mut outcomes = Vec::new();
    let mut dense_oracle = None;
    for sc in &scenarios {
        rule(sc.name);
        let (o, oracle) = measure(&sys, sc.cfg.clone(), steps, reps, sc.name);
        if sc.name == "dense" {
            dense_oracle = Some(oracle);
        }
        println!(
            "{:<22}{:>10.3} s wall {:>8.2} s cpu",
            "serial oracle", o.serial.wall, o.serial.cpu
        );
        println!(
            "{:<22}{:>10.3} s wall {:>8.2} s cpu   (fast-forward + masked tick + fused SoA scan)",
            "fast engine", o.fast.wall, o.fast.cpu
        );
        println!(
            "{:<22}{:>9.2}x   vs serial ({} cycles, {} fast-forwarded)",
            "speedup",
            o.speedup(),
            o.cycles,
            o.skipped
        );
        outcomes.push(o);
    }

    // Headline: the fast engine vs the serial oracle on the dense run
    // (no idle cycles to fast-forward — the per-cycle datapath cost
    // itself). The straggler run documents the fast-forward lever.
    let headline = outcomes[0].speedup();
    println!("\nheadline: dense fast-engine speedup vs serial: {headline:.2}x");
    println!(
        "          straggler fast-engine speedup vs serial: {:.2}x",
        outcomes[1].speedup()
    );

    // Shards sweep over the dense scenario: the full sharded protocol —
    // per-shard local engines plus one CRC-framed window frame per peer
    // every lookahead window — at 1, 2 and 4 worker shards, each folded
    // run asserted bit-identical to the serial oracle and held to the
    // window budget: a worker meets its peers at most ⌈cycles/L⌉ +
    // 4·steps times (a count, so the gate cannot flake on a busy host).
    // The 1-shard point isolates pure protocol overhead (one worker, no
    // mesh peers).
    let mut shards_sweep = Vec::new();
    {
        rule("shards sweep (dense)");
        let only: usize = args.get("shards", 0);
        let shard_counts: Vec<usize> = if only == 0 { vec![1, 2, 4] } else { vec![only] };
        let oracle = dense_oracle.as_ref().expect("dense scenario measured");
        let one_process = outcomes[0].fast;
        let engine = EngineConfig::auto();
        for s in shard_counts {
            let t0 = Instant::now();
            let c0 = cpu_seconds();
            let run = run_sharded(&scenarios[0].cfg, &sys, steps, &engine, s, ShardOpts::default())
                .expect("sharded run completes");
            let timing = Timing {
                wall: t0.elapsed().as_secs_f64(),
                cpu: cpu_seconds() - c0,
            };
            assert_eq!(
                &run.report, oracle,
                "shards={s}: sharded run must stay bit-identical"
            );
            let fabrics = (&run.replica.pos_fabric, &run.replica.frc_fabric);
            let lookahead = fabrics.0.lookahead().min(fabrics.1.lookahead());
            let windows = run.gauges.iter().map(|g| g.windows).max().unwrap_or(0);
            let window_budget = oracle.total_cycles.div_ceil(lookahead) + 4 * steps;
            assert!(
                windows <= window_budget,
                "shards={s}: {windows} exchange windows over {} cycles at lookahead \
                 {lookahead} (budget {window_budget})",
                oracle.total_cycles
            );
            let wait_share = run.gauges.iter().map(|g| g.wait_share()).fold(0.0, f64::max);
            let wall_speedup = one_process.wall / timing.wall;
            let cpu_overhead = timing.cpu / one_process.cpu;
            println!(
                "shards={s:<3}{:>10.3} s wall {:>8.2} s cpu {:>8.2}x wall vs 1-process \
                 (cpu overhead {:.2}x) {windows:>5} windows of {lookahead}, wait share {:.2}",
                timing.wall, timing.cpu, wall_speedup, cpu_overhead, wait_share
            );
            shards_sweep.push(ShardPoint {
                shards: s,
                timing,
                wall_speedup,
                cpu_overhead,
                lookahead,
                windows,
                wait_share,
            });
        }
    }

    // Live-telemetry overhead (fasda-obs): the fast engine with an
    // armed in-run sampler but no sinks — the per-cycle cost is one
    // inlined `Option<Box<ObsLive>>` check plus a per-beat registry
    // refresh, and the report must stay bit-identical. Full runs gate
    // the CPU overhead at <1% of the dense run; smoke runs record it
    // (sub-tick timings) and gate identity only.
    rule("obs overhead (dense)");
    let (obs_timing, obs_overhead) = {
        let oracle = dense_oracle.as_ref().expect("dense scenario measured");
        let mut with_obs = Timing::WORST;
        for _ in 0..reps {
            let mut cluster = Cluster::new(scenarios[0].cfg.clone(), &sys);
            let live = ObsLive::new(1, &ObsSinkConfig::default()).expect("sinkless sampler");
            cluster.attach_obs(Box::new(live));
            let t0 = Instant::now();
            let c0 = cpu_seconds();
            let r = cluster.run_with(steps, &EngineConfig::auto());
            with_obs.fold_best(Timing {
                wall: t0.elapsed().as_secs_f64(),
                cpu: cpu_seconds() - c0,
            });
            assert_eq!(&r, oracle, "obs sampler must not perturb the run");
        }
        let ratio = outcomes[0].fast.ratio_over(with_obs);
        // Smoke runs finish inside one 10 ms CPU tick; fall back to wall.
        let overhead = if ratio.is_finite() {
            ratio - 1.0
        } else {
            with_obs.wall / outcomes[0].fast.wall - 1.0
        };
        println!(
            "fast engine          {:>10.3} s wall {:>8.2} s cpu\n\
             + armed obs, no sink {:>10.3} s wall {:>8.2} s cpu   ({:+.2}% overhead)",
            outcomes[0].fast.wall,
            outcomes[0].fast.cpu,
            with_obs.wall,
            with_obs.cpu,
            overhead * 100.0
        );
        if !smoke {
            assert!(
                overhead < 0.01,
                "obs overhead {overhead:.4} exceeds 1% of the dense run"
            );
        }
        (with_obs, overhead)
    };

    // §5 performance-model check (fasda-obs::model): predict cycles,
    // occupancy, packet counts, and the stall mix from the configuration
    // alone, measure the same quantities from one traced run, and gate
    // the divergence at the documented thresholds (`Gate::default`).
    // The traced run is separate from the timed ones so ledger cost
    // never skews the timings above.
    rule("modelcheck (dense, §5 model)");
    let modelcheck = {
        let engine = EngineConfig::serial().with_trace(TraceConfig {
            level: TraceLevel::Sync,
            ..TraceConfig::full()
        });
        let mut cluster = Cluster::new(scenarios[0].cfg.clone(), &sys);
        let report = cluster.run_with(steps, &engine);
        let trace = cluster.take_trace().expect("tracing on");
        let mean_per_cell = sys.len() as f64 / 216.0;
        let input = model_input(&scenarios[0].cfg, (6, 6, 6), mean_per_cell);
        let pred = predict(&input);
        let meas = measured_from(&report, Some(&trace.stalls));
        let gate = Gate::default();
        let div = Divergence::compare(&pred, &meas);
        let violations = div.violations(&gate, &meas);
        println!(
            "cycles/step {:>8.0} predicted {:>8.0} measured ({:+.1}%)\n\
             occupancy   {:>8.3} predicted {:>8.3} measured ({:+.3} abs)\n\
             pos pkts/st {:>8.0} predicted {:>8.0} measured ({:+.1}%)\n\
             frc pkts/st {:>8.0} predicted {:>8.0} measured ({:+.1}%)\n\
             sync tail   {:>8.0} predicted {:>8.0} measured\n\
             force cyc   {:>8.0} predicted {:>8.0} measured\n\
             worst stall-share abs error {:.3}",
            pred.cycles_per_step,
            meas.cycles_per_step,
            div.cycles_rel * 100.0,
            pred.occupancy,
            meas.occupancy,
            div.occupancy_abs,
            pred.pos_packets_per_step,
            meas.pos_packets_per_step,
            div.pos_packets_rel * 100.0,
            pred.frc_packets_per_step,
            meas.frc_packets_per_step,
            div.frc_packets_rel * 100.0,
            pred.sync_tail,
            meas.sync_tail,
            pred.force_cycles,
            meas.force_cycles,
            div.max_stall_share_abs()
        );
        let doc = modelcheck_json(&pred, &meas, &gate);
        if std::env::var_os("FASDA_MODELCHECK_DEBUG").is_some() {
            eprintln!("{input:#?}");
            eprintln!("{}", doc.pretty());
        }
        assert!(
            violations.is_empty(),
            "§5 model diverged beyond gate: {violations:?}"
        );
        println!("gate: pass");
        doc
    };

    // Per-kernel datapath throughput (shared with datapathbench): the
    // raw cost of the scalar walk vs the fused filter→force kernel the
    // fast engine dispatches through.
    let kmin = std::time::Duration::from_millis(if smoke { 60 } else { 300 });
    let kernels = fasda_bench::kernels::measure_kernels(kmin);
    rule("datapath kernels");
    println!(
        "scalar {:>10.1} Mpairs/s   fused {:>10.1} Mpairs/s   ratio {:.2}x \
         ({} hits per {}-particle scan)",
        kernels.scalar_pairs_per_sec / 1e6,
        kernels.fused_pairs_per_sec / 1e6,
        kernels.fused_vs_scalar(),
        kernels.hits_per_scan,
        kernels.home_len
    );

    // JSON via the shared fasda-trace writer — the workspace
    // deliberately has no serde_json. Same keys as the hand-rolled
    // emitter this replaced.
    let mut doc = Json::obj().field("workload", "fig16-6x6x6-8fpga");
    if smoke {
        doc = doc.field("smoke", true);
    }
    let mut scenarios = Json::obj();
    for o in &outcomes {
        scenarios = scenarios.field(
            o.name,
            Json::obj()
                .field("serial_seconds", Json::fixed(o.serial.wall, 6))
                .field("engine_seconds", Json::fixed(o.fast.wall, 6))
                .field("speedup", Json::fixed(o.speedup(), 3))
                .field("simulated_cycles", Json::uint(o.cycles))
                .field("skipped_cycles", Json::uint(o.skipped))
                .build(),
        );
    }
    let doc = doc
        .field("per_cell", per_cell as i64)
        .field("steps", Json::uint(steps))
        .field("reps", reps as i64)
        .field("host_cores", host_cores)
        .field("straggler_stall", Json::uint(stall))
        .field("speedup", Json::fixed(headline, 3))
        .field(
            "metric",
            "user-cpu seconds (wall clock absorbs hypervisor steal on the 1-core reference host)",
        )
        .field("bit_identical", true)
        .field("scenarios", scenarios.build());
    let mut doc = doc;
    if !shards_sweep.is_empty() {
        // The sweep's wall-clock columns mean nothing without the core
        // count they were taken on.
        let mut sw = Json::obj().field("host_cores", host_cores);
        for p in &shards_sweep {
            sw = sw.field(
                &p.shards.to_string(),
                Json::obj()
                    .field("wall_seconds", Json::fixed(p.timing.wall, 6))
                    .field("cpu_seconds", Json::fixed(p.timing.cpu, 6))
                    .field("wall_speedup_vs_one_process", Json::fixed(p.wall_speedup, 3))
                    .field("cpu_overhead_vs_one_process", Json::fixed(p.cpu_overhead, 3))
                    .field("lookahead_cycles", Json::uint(p.lookahead))
                    .field("windows", Json::uint(p.windows))
                    .field("wait_share", Json::fixed(p.wait_share, 3))
                    .build(),
            );
        }
        doc = doc.field("shards_sweep", sw.build());
    }
    doc = doc.field(
        "obs_overhead",
        Json::obj()
            .field("wall_seconds", Json::fixed(obs_timing.wall, 6))
            .field("cpu_seconds", Json::fixed(obs_timing.cpu, 6))
            .field("overhead_vs_default", Json::fixed(obs_overhead, 6))
            .field("gated", !smoke)
            .field("limit", 0.01)
            .build(),
    );
    doc = doc.field("modelcheck", modelcheck);
    let doc = doc
        .field(
            "datapath_kernels",
            Json::obj()
                .field("home_len", kernels.home_len as i64)
                .field("hits_per_scan", kernels.hits_per_scan as i64)
                .field("scalar_pairs_per_sec", Json::fixed(kernels.scalar_pairs_per_sec, 0))
                .field("fused_pairs_per_sec", Json::fixed(kernels.fused_pairs_per_sec, 0))
                .field("scalar_forces_per_sec", Json::fixed(kernels.scalar_forces_per_sec, 0))
                .field("fused_forces_per_sec", Json::fixed(kernels.fused_forces_per_sec, 0))
                .field("fused_vs_scalar", Json::fixed(kernels.fused_vs_scalar(), 3))
                .build(),
        )
        .build();
    std::fs::write(&out, doc.pretty()).expect("write benchmark result");
    println!("wrote {out}");
}
