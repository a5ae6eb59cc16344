//! The five `fasda run` workloads: the fig16 weak-scaling geometry —
//! 6×6×6 cells on 8 nodes of 3×3×3, variant A, chained sync — driven
//! through the calls `cmd_run` makes.
//!
//! An operation is one rep. Untraced, the default engine is run for the
//! measuring window after one discarded warm-up rep and the end-to-end
//! metrics are medians over those reps. Traced, reps alternate between
//! a spanned + `TraceLevel::Sync` run and a plain one (their ratio is the
//! tracing overhead), interleaved with the single-threaded and serial
//! engines where those are the layer comparison, and the layer probes
//! run afterwards. Either way the serial oracle runs after the timed
//! reps and every rep must equal it: report `==`, state dump byte for
//! byte, energy error under the paper's 1e-3.

use super::probes;
use super::{Ctx, BUDGET};
use crate::host::{cpu_seconds, peak_rss_mb, TempDir};
use crate::manifest::Outcome;
use crate::span::Tracer;
use crate::stats::{median, quantile, tail_quantile};
use fasda_cluster::{
    run_sharded, run_with_checkpoints, run_with_recovery, state_dump, CheckpointConfig, Cluster,
    ClusterConfig, ClusterRunReport, EngineConfig, FaultPlan, HostController, RecoveryPolicy,
    RelConfig, RunAccumulator, ShardOpts, StallCause, StallLedger, Trace, TraceConfig,
};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_md::element::PairTable;
use fasda_md::engine::{CellListEngine, ForceEngine};
use fasda_md::integrator::Integrator;
use fasda_md::observables::{kinetic_energy_onstep, relative_error};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use std::time::Instant;

/// The paper's Fig. 19 criterion.
pub(super) const ENERGY_LIMIT: f64 = 1e-3;
/// The step `chaos-recover8` crashes node 3 in.
const CRASH_STEP: u64 = 5;
/// Reps the untraced window runs to however long they take, so `dense8`
/// and `shard2`, whose reps take 3–5 s, measure for longer than
/// `--seconds`. On the shared host a disturbance lasts seconds and only
/// ever slows a rep down; the median of five shrugs off two such reps,
/// the median of three only one.
const TIMED_REPS: usize = 5;
/// No window has fewer reps than this. The traced pass, whose reps
/// alternate with plain ones and the other engines, asks for no more;
/// the untraced pass falls back to it once [`TIMED_REPS`] would take over
/// twice `--seconds` (a host running at half speed), so that a slow host
/// cannot push the whole benchmark past its time limit.
const MIN_REPS: usize = 3;
/// Discarded warm-up before anything is timed: at least one rep and at
/// least this long. One rep covers page faults, allocator growth and
/// thread-pool start-up; the seconds cover the host. On a virtualised
/// host a wake-up between two threads costs several times less in the
/// first ~2 s of activity after an idle spell than in the steady state
/// every longer run is in (measured here: 5 µs against 36 µs per condvar
/// round trip), and every hand-off-bound number would otherwise depend
/// on what ran before the benchmark.
pub(super) const WARMUP_S: f64 = 3.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Plain,
    /// Node 0 stalls 200k cycles each force phase; the engine skips them.
    Straggler,
    /// 5 % drops, a crash in step 5, checkpoint every step, recovery.
    ChaosRecover,
    /// `dense8` through two shard workers with one engine thread each.
    Shard2,
}

#[derive(Clone, Copy, Debug)]
pub struct RunWorkload {
    pub name: &'static str,
    per_cell: u32,
    steps: u64,
    kind: Kind,
}

/// Which engine a run uses. `Default` is what `fasda run` picks; the
/// other two are the layer comparison and the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Default,
    OneThread,
    Serial,
}

impl Engine {
    fn config(self) -> EngineConfig {
        match self {
            Engine::Default => EngineConfig::auto(),
            Engine::OneThread => EngineConfig::auto().with_threads(1),
            Engine::Serial => EngineConfig::serial(),
        }
    }
}

/// One finished run and what it cost.
struct Executed {
    sys: ParticleSystem,
    setup_s: f64,
    generate_s: f64,
    /// `Cluster::new`, where the workload calls it itself.
    new_s: Option<f64>,
    run_s: f64,
    cpu_s: f64,
    report: ClusterRunReport,
    machine: Machine,
    traces: Vec<Trace>,
    restarts: usize,
    /// Step of the first checkpoint the final attempt wrote.
    first_ckpt_step: Option<u64>,
}

/// The machine a run leaves behind. `HostController` only lends its
/// cluster; the recovery and shard drivers hand theirs over.
enum Machine {
    Host(HostController),
    Cluster(Cluster),
}

impl Executed {
    fn cluster(&self) -> &Cluster {
        match &self.machine {
            Machine::Host(h) => h.cluster(),
            Machine::Cluster(c) => c,
        }
    }

    fn ns_per_cycle(&self) -> f64 {
        self.run_s * 1e9 / self.report.total_cycles as f64
    }
}

impl RunWorkload {
    pub fn by_name(name: &str) -> Option<RunWorkload> {
        let w = |name, per_cell, steps, kind| RunWorkload {
            name,
            per_cell,
            steps,
            kind,
        };
        Some(match name {
            "dense8" => w("dense8", 64, 3, Kind::Plain),
            "sparse8" => w("sparse8", 4, 40, Kind::Plain),
            "straggler8" => w("straggler8", 16, 5, Kind::Straggler),
            "chaos-recover8" => w("chaos-recover8", 16, 8, Kind::ChaosRecover),
            "shard2" => w("shard2", 64, 3, Kind::Shard2),
            _ => return None,
        })
    }

    fn system(&self, seed: u64) -> ParticleSystem {
        WorkloadSpec {
            per_cell: self.per_cell,
            ..WorkloadSpec::paper(SimulationSpace::cubic(6), seed)
        }
        .generate()
    }

    fn config(&self, seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper(ChipConfig::variant(DesignVariant::A), (3, 3, 3));
        match self.kind {
            Kind::Straggler => cfg.straggler = Some((0, 200_000)),
            Kind::ChaosRecover => {
                let plan = FaultPlan::parse(&format!("drop=0.05,seed={seed},crash=3@{CRASH_STEP}"))
                    .expect("fault plan grammar");
                cfg = cfg.with_faults(plan).with_reliability(RelConfig::DEFAULT);
            }
            Kind::Plain | Kind::Shard2 => {}
        }
        cfg
    }

    /// One run as the workload defines it, under `engine`. `Shard2`
    /// shards only its default engine: its other engines are the
    /// in-process run the replica is compared with.
    fn execute(
        &self,
        seed: u64,
        engine: Engine,
        trace: TraceConfig,
        scratch: &TempDir,
        tr: &mut Tracer,
    ) -> Result<Executed, String> {
        let eng = engine.config().with_trace(trace);
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let sys = tr.span("md.generate", || self.system(seed));
        let generate_s = t0.elapsed().as_secs_f64();
        let cfg = self.config(seed);
        let e = |err: &dyn std::fmt::Display| format!("{}: {err}", self.name);
        let timed = |sys, setup_s, new_s, run_s, report, machine, traces| Executed {
            sys,
            setup_s,
            generate_s,
            new_s,
            run_s,
            cpu_s: 0.0,
            report,
            machine,
            traces,
            restarts: 0,
            first_ckpt_step: None,
        };
        let mut done = match (self.kind, engine) {
            (Kind::ChaosRecover, _) => {
                let setup_s = t0.elapsed().as_secs_f64();
                let ckpt = CheckpointConfig::new(1, scratch.sub("ckpt")).with_keep(3);
                let t1 = Instant::now();
                let rec = tr
                    .span("cluster.run_with_recovery", || {
                        run_with_recovery(
                            &sys,
                            &cfg,
                            self.steps,
                            BUDGET,
                            &eng,
                            &ckpt,
                            &RecoveryPolicy::new(2),
                        )
                    })
                    .map_err(|err| e(&err))?;
                let run_s = t1.elapsed().as_secs_f64();
                let _ = std::fs::remove_dir_all(&ckpt.dir);
                Executed {
                    first_ckpt_step: rec
                        .run
                        .checkpoints
                        .first()
                        .and_then(|p| fasda_ckpt::checkpoint_step(p)),
                    restarts: rec.restarts.len(),
                    ..timed(
                        sys,
                        setup_s,
                        None,
                        run_s,
                        rec.run.report,
                        Machine::Cluster(rec.cluster),
                        rec.run.traces,
                    )
                }
            }
            (Kind::Shard2, Engine::Default) => {
                let setup_s = t0.elapsed().as_secs_f64();
                let worker = EngineConfig::auto().with_threads(1).with_trace(trace);
                let t1 = Instant::now();
                let run = tr
                    .span("shard.run_sharded", || {
                        run_sharded(&cfg, &sys, self.steps, &worker, 2, ShardOpts::default())
                    })
                    .map_err(|err| e(&err))?;
                let run_s = t1.elapsed().as_secs_f64();
                timed(
                    sys,
                    setup_s,
                    None,
                    run_s,
                    run.report,
                    Machine::Cluster(run.replica),
                    run.traces,
                )
            }
            _ => {
                let t_new = Instant::now();
                let cluster = tr.span("cluster.new", || Cluster::new(cfg, &sys));
                let new_s = t_new.elapsed().as_secs_f64();
                let setup_s = t0.elapsed().as_secs_f64();
                let mut host = HostController::new(cluster);
                let t1 = Instant::now();
                let run = tr
                    .span("cluster.run", || host.run_iterations_with(self.steps, &eng))
                    .map_err(|err| e(&err))?;
                let run_s = t1.elapsed().as_secs_f64();
                let traces = host.take_trace().into_iter().collect();
                timed(
                    sys,
                    setup_s,
                    Some(new_s),
                    run_s,
                    run.report,
                    Machine::Host(host),
                    traces,
                )
            }
        };
        done.cpu_s = cpu_seconds() - cpu0;
        Ok(done)
    }
}

/// Per-rep timings of one engine variant.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    new_s: Vec<f64>,
    run_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ns_per_cycle: Vec<f64>,
    dump_s: Vec<f64>,
    /// Set-up + run: what a caller of this rep waited.
    latency_s: Vec<f64>,
}

impl Samples {
    fn push(&mut self, x: &Executed, dump_s: f64) {
        self.setup_s.push(x.setup_s);
        self.generate_s.push(x.generate_s);
        self.new_s.extend(x.new_s);
        self.run_s.push(x.run_s);
        self.cpu_s.push(x.cpu_s);
        self.ns_per_cycle.push(x.ns_per_cycle());
        self.dump_s.push(dump_s);
        self.latency_s.push(x.setup_s + x.run_s);
    }

    fn len(&self) -> usize {
        self.run_s.len()
    }
}

/// The correctness gate. Reps are compared with the first rep as they
/// finish (so no more than two state dumps are alive at once, whatever
/// the rep count), and the first rep with the oracle at the end.
#[derive(Default)]
struct Gate {
    first: Option<(ClusterRunReport, String)>,
    attempted: u64,
    deviants: u64,
    whole_run_failures: Vec<String>,
}

impl Gate {
    /// Count one rep; returns the seconds its state dump took.
    fn rep(&mut self, x: &Executed, tr: &mut Tracer) -> f64 {
        self.attempted += 1;
        let t = Instant::now();
        let dump = tr.span("cluster.state_dump", || state_dump(x.cluster(), &x.sys));
        let dump_s = t.elapsed().as_secs_f64();
        match &self.first {
            None => self.first = Some((x.report.clone(), dump)),
            Some((report, first_dump)) => {
                if *report != x.report || *first_dump != dump {
                    self.deviants += 1;
                    eprintln!("FAIL rep {}: differs from the first rep", self.attempted);
                }
            }
        }
        dump_s
    }

    /// A defect that condemns every rep (they are all the same run).
    fn fail_all(&mut self, why: String) {
        eprintln!("FAIL {why}");
        self.whole_run_failures.push(why);
    }

    fn oracle(&mut self, report: &ClusterRunReport, dump: &str, what: &str) {
        let (first_report, first_dump) = self.first.as_ref().expect("oracle follows the reps");
        let (same_report, same_dump) = (first_report == report, first_dump == dump);
        if !same_report {
            self.fail_all(format!("report differs from {what}"));
        }
        if !same_dump {
            self.fail_all(format!("state dump differs from {what}"));
        }
    }

    /// Hold a finished run to the paper's Fig. 19 criterion; returns the
    /// error and the reference engine's seconds per step.
    fn energy(&mut self, x: &Executed, steps: u64) -> (f64, f64) {
        let (energy, ref_step_s) = energy_rel_err(x.cluster(), &x.sys, steps);
        if energy >= ENERGY_LIMIT {
            self.fail_all(format!(
                "energy_rel_err {energy:e} is not below {ENERGY_LIMIT:e}"
            ));
        }
        (energy, ref_step_s)
    }

    fn failed(&self) -> u64 {
        if self.whole_run_failures.is_empty() {
            self.deviants
        } else {
            self.attempted
        }
    }
}

/// Total energy the way `fig19` takes it: f64 cell-list PE at the stored
/// positions plus leapfrog-synchronised KE.
fn total_energy(sys: &mut ParticleSystem, eng: &mut CellListEngine) -> f64 {
    let pe = eng.compute_forces(sys);
    pe + kinetic_energy_onstep(sys, Integrator::PAPER.dt_fs)
}

/// Relative error of the machine's final total energy against the f64
/// reference engine stepped the same number of steps from the same
/// initial state. Also returns the reference's seconds per step.
pub(super) fn energy_rel_err(
    cluster: &Cluster,
    initial: &ParticleSystem,
    steps: u64,
) -> (f64, f64) {
    let table = PairTable::new(UnitSystem::PAPER);
    let mut measure = CellListEngine::new(table.clone());
    let mut machine = initial.clone();
    cluster.store_into(&mut machine);
    let e_machine = total_energy(&mut machine, &mut measure);
    let mut reference = initial.clone();
    let mut eng = CellListEngine::new(table);
    let t = Instant::now();
    for _ in 0..steps {
        eng.step(&mut reference, &Integrator::PAPER);
    }
    let step_s = t.elapsed().as_secs_f64() / steps as f64;
    let e_reference = total_energy(&mut reference, &mut measure);
    (relative_error(e_machine, e_reference), step_s)
}

pub fn run(w: &RunWorkload, ctx: &mut Ctx) -> Result<Outcome, String> {
    let scratch = TempDir::new(w.name).map_err(|e| format!("scratch dir: {e}"))?;
    w.warm_up(ctx, &scratch)?;
    let root = ctx.tracer.begin("workload");
    let out = if ctx.traced {
        w.traced_pass(ctx, &scratch)
    } else {
        w.timed_pass(ctx, &scratch)
    };
    ctx.tracer.end(root);
    out
}

impl RunWorkload {
    /// True once the window has had `wanted` reps and has no room for
    /// another like them, or has run to twice its length.
    fn window_full(window: (bool, f64), wanted: usize, started: Instant, reps: usize) -> bool {
        let (smoke, seconds) = window;
        let elapsed = started.elapsed().as_secs_f64();
        let no_room = elapsed + 0.5 * elapsed / reps as f64 >= seconds;
        smoke || (reps >= wanted && no_room) || (reps >= MIN_REPS && elapsed >= 2.0 * seconds)
    }

    fn warm_up(&self, ctx: &mut Ctx, scratch: &TempDir) -> Result<(), String> {
        let started = Instant::now();
        ctx.tracer.set_enabled(false);
        while !ctx.smoke && started.elapsed().as_secs_f64() < WARMUP_S {
            self.execute(
                ctx.seed,
                Engine::Default,
                TraceConfig::OFF,
                scratch,
                &mut ctx.tracer,
            )?;
        }
        ctx.tracer.set_enabled(ctx.traced);
        Ok(())
    }

    /// Run the serial oracle (reusing `serial` when the traced pass
    /// already has one) and hold the reps against it. Returns the
    /// simulated cycles of `chaos-recover8`'s fault-free reference.
    fn check_oracle(
        &self,
        ctx: &mut Ctx,
        scratch: &TempDir,
        gate: &mut Gate,
        serial: Option<Executed>,
    ) -> Result<Option<u64>, String> {
        let tr = &mut ctx.tracer;
        let open = tr.begin("check.oracle");
        let serial = match serial {
            Some(s) => s,
            None => self.execute(ctx.seed, Engine::Serial, TraceConfig::OFF, scratch, tr)?,
        };
        let serial_dump = state_dump(serial.cluster(), &serial.sys);
        let mut fault_free_cycles = None;
        if self.kind == Kind::ChaosRecover {
            // Same segmentation, no faults, no crash: what recovery must
            // reproduce bit for bit.
            let mut cfg = self.config(ctx.seed);
            cfg.faults = None;
            cfg.reliability = None;
            let mut cluster = Cluster::new(cfg, &serial.sys);
            let ckpt = CheckpointConfig::new(1, scratch.sub("ckpt-ref")).with_keep(3);
            let run = run_with_checkpoints(
                &mut cluster,
                self.steps,
                BUDGET,
                &EngineConfig::serial(),
                Some(&ckpt),
                RunAccumulator::new(),
            )
            .map_err(|e| format!("fault-free reference: {e}"))?;
            let _ = std::fs::remove_dir_all(&ckpt.dir);
            fault_free_cycles = Some(run.report.total_cycles);
            let clean_dump = state_dump(&cluster, &serial.sys);
            if serial_dump != clean_dump {
                gate.fail_all("serial recovery differs from the fault-free reference".into());
            }
            gate.oracle(
                &serial.report,
                &clean_dump,
                "the serial oracle / fault-free reference",
            );
            if serial.restarts == 0 {
                gate.fail_all("the crash directive never fired".into());
            }
        } else {
            gate.oracle(&serial.report, &serial_dump, "the serial oracle");
        }
        tr.end(open);
        Ok(fault_free_cycles)
    }

    /// The untraced pass: the end-to-end metrics.
    fn timed_pass(&self, ctx: &mut Ctx, scratch: &TempDir) -> Result<Outcome, String> {
        let mut s = Samples::default();
        let mut gate = Gate::default();
        let started = Instant::now();
        let last = loop {
            let x = self.execute(
                ctx.seed,
                Engine::Default,
                TraceConfig::OFF,
                scratch,
                &mut ctx.tracer,
            )?;
            let dump_s = gate.rep(&x, &mut ctx.tracer);
            s.push(&x, dump_s);
            let window = (ctx.smoke, ctx.seconds);
            if Self::window_full(window, TIMED_REPS, started, s.len()) {
                break x;
            }
        };
        self.check_oracle(ctx, scratch, &mut gate, None)?;
        gate.energy(&last, self.steps);

        let n = s.len();
        let per_rep: Vec<String> = s.ns_per_cycle.iter().map(|v| format!("{v:.0}")).collect();
        println!("# host_ns_per_sim_cycle per rep: {}", per_rep.join(" "));
        let mut out = Outcome {
            attempted: gate.attempted,
            failed: gate.failed(),
            ..Default::default()
        };
        let latency_ms: Vec<f64> = s.latency_s.iter().map(|l| l * 1e3).collect();
        out.set("setup_s", median(&s.setup_s), n);
        out.set("host_ns_per_sim_cycle", median(&s.ns_per_cycle), n);
        out.set("run_cpu_s", median(&s.cpu_s), n);
        out.set("peak_rss_mb", peak_rss_mb(), 1);
        out.set("sim_us_per_day", last.report.us_per_day(), 1);
        out.set("job_latency_p50_ms", median(&latency_ms), n);
        out.set(
            "job_latency_p95_ms",
            quantile(&latency_ms, tail_quantile(n)),
            n,
        );
        // At the median rep, not reps ÷ total wall: one descheduled rep
        // would otherwise move the rate of a handful of reps.
        out.set("jobs_per_s", 1.0 / median(&s.latency_s), n);
        Ok(out)
    }

    /// The traced pass: spans, the simulator's `Sync` recorder, the
    /// engine comparison and the layer probes.
    fn traced_pass(&self, ctx: &mut Ctx, scratch: &TempDir) -> Result<Outcome, String> {
        let compare_engines = matches!(self.kind, Kind::Plain | Kind::Straggler);
        let (mut traced, mut plain, mut one_thread, mut serial) = (
            Samples::default(),
            Samples::default(),
            Samples::default(),
            Samples::default(),
        );
        // Whole-rep walls (set-up + run + state dump), traced and plain.
        let (mut traced_rep_s, mut plain_rep_s) = (Vec::new(), Vec::new());
        let mut gate = Gate::default();
        let mut last_serial = None;
        let window = (ctx.smoke, ctx.seconds);
        let started = Instant::now();
        let last_traced = loop {
            let tr = &mut ctx.tracer;
            tr.set_enabled(true);
            tr.set_trace_id(traced.len() as u64);
            let t = Instant::now();
            let rep = tr.begin("rep");
            let x = self.execute(ctx.seed, Engine::Default, TraceConfig::sync(), scratch, tr)?;
            let dump_s = gate.rep(&x, tr);
            tr.end(rep);
            traced_rep_s.push(t.elapsed().as_secs_f64());
            traced.push(&x, dump_s);
            if Self::window_full(window, MIN_REPS, started, traced.len()) {
                break x;
            }
            tr.set_enabled(false);
            let t = Instant::now();
            let p = self.execute(ctx.seed, Engine::Default, TraceConfig::OFF, scratch, tr)?;
            let dump_s = gate.rep(&p, tr);
            plain_rep_s.push(t.elapsed().as_secs_f64());
            plain.push(&p, dump_s);
            if compare_engines {
                for (engine, samples) in [
                    (Engine::OneThread, &mut one_thread),
                    (Engine::Serial, &mut serial),
                ] {
                    let e = self.execute(ctx.seed, engine, TraceConfig::OFF, scratch, tr)?;
                    let dump_s = gate.rep(&e, tr);
                    samples.push(&e, dump_s);
                    if engine == Engine::Serial {
                        last_serial = Some(e);
                    }
                }
            }
        };
        ctx.tracer.set_enabled(true);
        let fault_free_cycles = self.check_oracle(ctx, scratch, &mut gate, last_serial)?;
        let open = ctx.tracer.begin("md.ref_energy");
        let (energy, ref_step_s) = gate.energy(&last_traced, self.steps);
        ctx.tracer.end(open);

        let mut out = Outcome::default();
        let report = &last_traced.report;
        let cycles = report.total_cycles as f64;
        let skipped = last_traced.cluster().skipped_cycles;
        out.set("cluster.sim_cycles", cycles, 1);
        out.set("cluster.skipped_cycles", skipped as f64, 1);
        out.set("cluster.skipped_share", skipped as f64 / cycles, 1);
        out.set("core.filter_pairs", report.stats.work("Filter") as f64, 1);
        out.set("core.pe_forces", report.stats.work("PE") as f64, 1);
        out.set(
            "core.filter_time_util",
            report.stats.time_util("Filter", report.total_cycles),
            1,
        );
        out.set(
            "core.pe_time_util",
            report.stats.time_util("PE", report.total_cycles),
            1,
        );
        out.set("net.pos_packets", report.pos_packets as f64, 1);
        out.set("net.frc_packets", report.frc_packets as f64, 1);
        out.set("net.pos_gbps_per_node", report.pos_gbps_per_node(), 1);
        out.set("net.frc_gbps_per_node", report.frc_gbps_per_node(), 1);
        let rel = report.reliability.unwrap_or_default();
        out.set("md.energy_rel_err", energy, 1);
        out.set("net.faults_injected", report.faults_injected as f64, 1);
        out.set("net.retransmits", rel.retransmits as f64, 1);
        out.set("net.acks_sent", rel.acks_sent as f64, 1);
        out.set("net.duplicates_dropped", rel.duplicates_dropped as f64, 1);
        if let Err(why) = stall_shares(&last_traced, &mut out) {
            gate.fail_all(why);
        }

        let nt = traced.len();
        out.set("md.generate_ms", median(&traced.generate_s) * 1e3, nt);
        out.set("cluster.state_dump_ms", median(&traced.dump_s) * 1e3, nt);
        if !traced.new_s.is_empty() {
            out.set("cluster.new_ms", median(&traced.new_s) * 1e3, nt);
        }
        if !plain.run_s.is_empty() {
            let np = plain.len().min(nt);
            out.set(
                "trace.sync_overhead_ratio",
                median(&traced.run_s) / median(&plain.run_s),
                np,
            );
            out.set(
                "bench.span_overhead_ratio",
                median(&traced_rep_s) / median(&plain_rep_s),
                np,
            );
        }
        if !serial.run_s.is_empty() {
            let default = median(&plain.ns_per_cycle);
            let (t1, ser) = (
                median(&one_thread.ns_per_cycle),
                median(&serial.ns_per_cycle),
            );
            let n = serial.len();
            out.set("cluster.serial_ns_per_sim_cycle", ser, n);
            out.set("cluster.t1_ns_per_sim_cycle", t1, n);
            out.set("cluster.default_vs_serial", default / ser, n);
            out.set("cluster.default_vs_t1", default / t1, n);
        }
        if let Some(clean) = fault_free_cycles {
            out.set("net.cycle_inflation", cycles / clean as f64, 1);
            out.set("ckpt.restarts", last_traced.restarts as f64, 1);
            // Whole steps run twice: from the checkpoint the final
            // attempt resumed at up to the step the crash fired in.
            let resumed_at = last_traced
                .first_ckpt_step
                .map_or(0, |s| s.saturating_sub(1));
            out.set(
                "ckpt.steps_replayed",
                CRASH_STEP.saturating_sub(resumed_at) as f64,
                1,
            );
        }
        if !ctx.smoke {
            let one_thread_run_s =
                (!one_thread.run_s.is_empty()).then(|| median(&one_thread.run_s));
            let plain_run_s = (!plain.run_s.is_empty()).then(|| median(&plain.run_s));
            match self.name {
                "dense8" => {
                    probes::kernel(&mut out);
                    let chip_step_s = probes::chip_dense(&mut out, ctx.seed);
                    probes::dense_run_layers(
                        &mut out,
                        report,
                        plain_run_s,
                        one_thread_run_s,
                        chip_step_s,
                        self.steps,
                    );
                    probes::trace_and_obs(
                        &mut out,
                        scratch,
                        &last_traced.sys,
                        &self.config(ctx.seed),
                    );
                    out.set("md.ref_step_ms", ref_step_s * 1e3, self.steps as usize);
                    probes::baseline_cpu(&mut out, &last_traced.sys);
                }
                "sparse8" => probes::chip_sparse(&mut out, ctx.seed, self.steps, one_thread_run_s),
                "chaos-recover8" => {
                    probes::net(&mut out);
                    probes::ckpt(
                        &mut out,
                        scratch,
                        &last_traced.sys,
                        &self.config(ctx.seed),
                        self.steps,
                    )?;
                }
                "shard2" => {
                    probes::socketlink(&mut out)?;
                    probes::shard(
                        &mut out,
                        &last_traced.sys,
                        &self.config(ctx.seed),
                        self.steps,
                        plain_run_s,
                        median(&plain.cpu_s),
                    )?;
                }
                _ => {}
            }
        }
        out.attempted = gate.attempted;
        out.failed = gate.failed();
        Ok(out)
    }
}

/// Cluster-wide shares of force cycles per stall cause, from the `Sync`
/// ledger of a traced run, after checking the ledger's identity
/// `productive + Σ stalls == force_cycles` on every (node, step) it
/// covers. (`chaos-recover8`'s ledger covers the segments run after the
/// restart; the others the whole run.)
fn stall_shares(x: &Executed, out: &mut Outcome) -> Result<(), String> {
    let nodes = x.report.nodes;
    let mut ledger = StallLedger::new(nodes);
    for t in &x.traces {
        ledger.absorb(&t.stalls);
    }
    if ledger.is_empty() {
        return Err("traced run produced no stall ledger".into());
    }
    for r in &x.report.records {
        if let Some(s) = ledger.step(r.node, r.step) {
            if s.total() != r.force_cycles {
                return Err(format!(
                    "stall ledger node {} step {}: productive + stalls = {} but force_cycles = {}",
                    r.node,
                    r.step,
                    s.total(),
                    r.force_cycles
                ));
            }
        }
    }
    let mut total = fasda_trace::StepStalls::default();
    for node in 0..nodes {
        total.merge(&ledger.node_total(node));
    }
    let all = total.total() as f64;
    out.set("trace.stall.productive", total.productive as f64 / all, 1);
    for cause in StallCause::ALL {
        out.set(
            &format!("trace.stall.{}", cause.label()),
            total.of(cause) as f64 / all,
            1,
        );
    }
    Ok(())
}
