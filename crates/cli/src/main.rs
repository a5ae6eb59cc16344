//! `fasda` — command-line driver mirroring the paper artifact's flow.
//!
//! The artifact configures a build with `./compile.sh 222 444` (2×2×2
//! cells per FPGA, 4×4×4 total) and runs it with
//! `python run.py <scheduler> <dump_group> <num_iterations>`. This CLI
//! reproduces both steps against the cycle-level simulator:
//!
//! ```text
//! fasda run --per-fpga 222 --total 444 --steps 10 [--variant A|B|C]
//!           [--sync chained|bulk] [--dump-group N] [--per-cell 64]
//! fasda generate --total 444 --out system.pdb [--per-cell 64]
//! fasda info --per-fpga 222 --total 444 [--variant C]
//! ```

use fasda_cluster::ckpt::{CheckpointConfig, SegmentControl};
use fasda_cluster::{
    chrome_trace, coordinator_main_net, state_dump, worker_main_net, EngineConfig, FaultPlan, Json,
    ObsSinkConfig, Resume, RunOutput, RunSpec, ShardOpts, TraceConfig, TraceLevel,
};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::resources::{estimate, ALVEO_U280};
use fasda_core::timed::axi::AxiLiteRegs;
use fasda_md::pdb::to_pdb;
use fasda_net::sync::SyncMode;
use fasda_net::transport::Endpoint;
use fasda_svc::server::{measured_costs, policy_interval, FINISHED_KEPT};
use fasda_svc::{Client, JobSpec, Server, ServerConfig};
use std::process::ExitCode;

/// The flags one subcommand takes, declared once, getopt-style: `--steps=`
/// is followed by a value, `--serial` stands alone. Anything else on its
/// command line is refused.
struct Grammar {
    /// Whether a verb comes first (`job submit`, `ckpt policy`).
    verb: bool,
    flags: &'static str,
}

impl Grammar {
    /// Whether `arg` is a flag that takes a value; `None` if no flag.
    fn takes_value(&self, arg: &str) -> Option<bool> {
        self.flags.split_whitespace().find_map(|f| {
            let name = f.trim_end_matches('=');
            (name == arg).then_some(name.len() < f.len())
        })
    }
}

/// `fasda run`, including the `--worker I --shard-connect ENDPOINT` a
/// shard coordinator appends when it re-invokes its own argv.
const RUN: Grammar = Grammar {
    verb: false,
    flags: "--per-fpga= --total= --steps= --variant= --sync= --dump-group= --per-cell= --seed= \
            --serial --shards= --shard-listen= --fault-plan= --unreliable --checkpoint-every= \
            --checkpoint-dir= --checkpoint-keep= --resume= --recover= --dump-state= --trace-out= \
            --metrics-out= --trace-level= --heartbeat-every= --heartbeat-out= --prom-out= \
            --worker= --shard-connect=",
};
const GENERATE: Grammar = Grammar { verb: false, flags: "--total= --out= --per-cell= --seed=" };
const INFO: Grammar = Grammar { verb: false, flags: "--per-fpga= --total= --variant=" };
const CKPT: Grammar = Grammar {
    verb: true,
    flags: "--failure-rate= --bench= --step-ms= --save-ms= --restore-ms= --interval=",
};
const SERVE: Grammar = Grammar {
    verb: false,
    flags: "--dir= --listen= --workers= --default-ckpt-every= --policy-bench= --failure-rate= \
            --step-ms= --tenant= --max-restarts=",
};
/// `fasda repro FIGURE|TABLE`; each table reads a subset of these.
const REPRO: Grammar = Grammar { verb: true, flags: "--steps= --serial --interval= --space=" };
const JOB: Grammar = Grammar {
    verb: true,
    flags: "--connect= --spec= --name= --tenant= --priority= --total= --per-fpga= --per-cell= \
            --seed= --steps= --fault-plan= --unreliable --ckpt-every= --dump-state= --wait \
            --timeout= --id=",
};

struct Opts {
    /// The arguments after the subcommand, as given: a shard coordinator
    /// replays them.
    args: Vec<String>,
    verb: Option<String>,
    /// Each flag given, in order, with its value when it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    /// `args` read by `grammar`: an unknown flag, or a value flag
    /// followed by nothing or by another flag, is refused naming it.
    fn parse(grammar: &Grammar, args: Vec<String>) -> Result<Opts, String> {
        let mut rest = args.iter().peekable();
        let verb = rest.next_if(|a| grammar.verb && !a.starts_with("--")).cloned();
        let mut flags = Vec::new();
        while let Some(flag) = rest.next() {
            let value = match grammar.takes_value(flag) {
                None => return Err(format!("unknown option '{flag}'")),
                Some(false) => None,
                Some(true) => {
                    let value = rest.next_if(|v| grammar.takes_value(v).is_none());
                    Some(value.ok_or_else(|| format!("{flag} needs a value"))?.clone())
                }
            };
            flags.push((flag.clone(), value));
        }
        Ok(Opts { args, verb, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.get_all(key).into_iter().next()
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag == key)
    }

    /// The flag's value parsed, or `default` when the flag is absent.
    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad {key}")))
    }

    /// A required `222`-style dims flag.
    fn dims(&self, key: &'static str) -> Result<(u32, u32, u32), String> {
        let v = self.get(key).ok_or(format!("{key} required"))?;
        RunSpec::parse_dims(key, v).map_err(|e| e.to_string())
    }

    /// Every value of a repeatable flag, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.flags.iter().filter(|(flag, _)| flag == key).filter_map(|(_, v)| v.as_deref()).collect()
    }
}

/// `--serial` → the oracle engine; the default is the fast engine
/// ([`EngineConfig::auto`]). Both yield a bit-identical run, only
/// wall-clock time differs.
fn engine(opts: &Opts) -> Result<EngineConfig, String> {
    let e = if opts.has("--serial") {
        EngineConfig::serial()
    } else {
        EngineConfig::auto()
    };
    Ok(e
        .with_trace(trace_config(opts)?)
        .with_heartbeat_every(obs_opts(opts)?.every))
}

/// Live-telemetry options (see DESIGN.md §12). `--heartbeat-out` /
/// `--prom-out` without an explicit `--heartbeat-every` default to a
/// beat per step.
struct ObsOpts {
    /// Heartbeat cadence in completed steps (0 = off).
    every: u64,
    sinks: ObsSinkConfig,
}

fn obs_opts(opts: &Opts) -> Result<ObsOpts, String> {
    let sinks = ObsSinkConfig {
        heartbeat_out: opts.get("--heartbeat-out").map(std::path::PathBuf::from),
        prom_out: opts.get("--prom-out").map(std::path::PathBuf::from),
    };
    let every = match opts.get("--heartbeat-every") {
        Some(n) => {
            let n: u64 = n.parse().map_err(|_| "bad --heartbeat-every")?;
            if n == 0 {
                return Err("--heartbeat-every must be >= 1 (omit the flag to disable)".into());
            }
            n
        }
        None if sinks.any() => 1,
        None => 0,
    };
    Ok(ObsOpts { every, sinks })
}

/// Whether any obs flag is present — used before [`ObsOpts`] parsing to
/// pick the implied trace level (heartbeat stall breakdowns and the
/// final totals need the live ledger, i.e. at least `sync` tracing).
fn obs_flags_present(opts: &Opts) -> bool {
    ["--heartbeat-every", "--heartbeat-out", "--prom-out"]
        .iter()
        .any(|f| opts.has(f))
}

/// `--trace-level off|sync|full` → flight-recorder configuration. When
/// the level is not given explicitly, asking for a trace output file
/// implies the `sync` tier (phases, handshakes, stall attribution);
/// `--metrics-out` alone keeps the recorder off — the `run` and `obs`
/// sections of the metrics document need no events.
fn trace_config(opts: &Opts) -> Result<TraceConfig, String> {
    let level = match opts.get("--trace-level") {
        Some("off") => TraceLevel::Off,
        Some("sync") => TraceLevel::Sync,
        Some("full") => TraceLevel::Full,
        Some(other) => return Err(format!("unknown trace level '{other}'")),
        None if opts.get("--trace-out").is_some() => TraceLevel::Sync,
        None if obs_flags_present(opts) => TraceLevel::Sync,
        None => TraceLevel::Off,
    };
    Ok(TraceConfig {
        level,
        ..TraceConfig::full()
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fasda run --per-fpga 222 --total 444 [--steps N] [--variant A|B|C]\n\
         \x20           [--sync chained|bulk] [--dump-group N] [--per-cell 64] [--seed S]\n\
         \x20           [--serial] [--shards S] [--shard-listen ENDPOINT]\n\
         \x20           [--fault-plan SPEC] [--unreliable]\n\
         \x20           [--checkpoint-every N --checkpoint-dir DIR] [--checkpoint-keep K]\n\
         \x20           [--resume FILE|latest] [--recover N] [--dump-state FILE]\n\
         \x20           [--trace-out run.trace.json] [--metrics-out run.metrics.json]\n\
         \x20           [--trace-level off|sync|full]\n\
         \x20           [--heartbeat-every N] [--heartbeat-out beats.jsonl]\n\
         \x20           [--prom-out scrape.prom]\n\
         \x20 fasda generate --total 444 --out system.pdb [--per-cell 64] [--seed S]\n\
         \x20 fasda info --per-fpga 222 --total 444 [--variant A|B|C]\n\
         \x20 fasda ckpt policy --failure-rate L [--bench beats.jsonl]\n\
         \x20           [--step-ms T] [--save-ms S] [--restore-ms R] [--interval K]\n\
         \x20 fasda serve [--dir DIR] [--listen ENDPOINT] [--workers N]\n\
         \x20           [--default-ckpt-every N | --policy-bench beats.jsonl\n\
         \x20            --failure-rate L [--step-ms T]]\n\
         \x20           [--tenant NAME:WEIGHT[:MAX]]... [--max-restarts N]\n\
         \x20 fasda job submit --connect ENDPOINT [--spec FILE.json | --name S --tenant T\n\
         \x20           --priority P --total 633 --per-fpga 333 --per-cell 64 --seed S\n\
         \x20           --steps N --fault-plan SPEC --unreliable --ckpt-every N\n\
         \x20           --dump-state FILE] [--wait [--timeout SECS]]\n\
         \x20 fasda job status --connect ENDPOINT [--id N]   (no --id: live jobs + the last\n\
         \x20           {FINISHED_KEPT} finished; older ids answer from the queue journal)\n\
         \x20 fasda job cancel|logs|migrate|wait --connect ENDPOINT --id N\n\
         \x20 fasda job metrics|shutdown --connect ENDPOINT\n\
         \x20 fasda repro FIGURE|TABLE [--steps N] [--serial] [--interval K] [--space D]\n\
         \n\
         fault-plan grammar: drop=P,corrupt=P,dup=P,delay=P:MAX,seed=N,\n\
         \x20                   kill=CHAN:SRC->DST:N,crash=NODE@STEP (repeatable),\n\
         \x20                   burst=P_ENTER:P_EXIT:P_DROP,\n\
         \x20                   flap=CHAN:SRC->DST:@STEP+DURATION,\n\
         \x20                   partition=NODESET|NODESET:@STEP+DURATION\n\
         (NODESET is '/'-separated nodes or half-open ranges, e.g. 0/2..5;\n\
         \x20faults enable the reliable-delivery layer unless --unreliable is given;\n\
         \x20a crash aborts the run — recover with --resume latest, which strips the\n\
         \x20crash directives, or let --recover N restart automatically up to N times,\n\
         \x20stripping exactly the directive that fired each time)\n\
         \n\
         endpoints (--listen, --connect, --shard-listen): tcp:HOST:PORT, unix:PATH\n\
         or a bare PATH (Unix); a listening tcp port 0 picks a free port.\n\
         \n\
         --shards S partitions the nodes across S worker processes that dial the\n\
         coordinator at --shard-listen (default: a Unix socket in a temporary\n\
         directory) and mesh beside it; the run is bit-identical to a single\n\
         process. --worker I --shard-connect ENDPOINT is the internal\n\
         re-invocation the coordinator spawns — not for direct use.\n\
         \n\
         live telemetry: --heartbeat-out streams one JSONL progress record every\n\
         --heartbeat-every N steps (default 1 when a sink is given) and ends on a\n\
         final record of the run's totals; --prom-out keeps a Prometheus\n\
         text-format scrape file current. Sharded runs emit fleet heartbeats\n\
         naming the lagging shard. Any obs flag implies --trace-level sync (the\n\
         stall breakdown reads the live ledger).\n\
         \n\
         metrics document (--metrics-out): run and obs (the engine- and\n\
         shard-invariant totals) always; stalls and trace when the flight\n\
         recorder ran; restarts with --recover.\n\
         \n\
         checkpoint policy: the heartbeat stream's final record carries what the\n\
         run cost the host (ms per step, per checkpoint save, per restore);\n\
         --bench / --policy-bench read those costs, and a flag supplies any cost\n\
         the run did not measure."
    );
    ExitCode::from(2)
}

fn variant(opts: &Opts) -> Result<DesignVariant, String> {
    match opts.get_or("--variant", "A") {
        "A" | "a" => Ok(DesignVariant::A),
        "B" | "b" => Ok(DesignVariant::B),
        "C" | "c" => Ok(DesignVariant::C),
        other => Err(format!("unknown variant '{other}'")),
    }
}

/// `--checkpoint-every` / `--checkpoint-dir` / `--checkpoint-keep` → the
/// periodic snapshot schedule. Both of the first two are required to
/// turn checkpointing on.
fn checkpoint_config(opts: &Opts) -> Result<Option<CheckpointConfig>, String> {
    match (opts.get("--checkpoint-every"), opts.get("--checkpoint-dir")) {
        (Some(n), Some(dir)) => {
            let every: u64 = n.parse().map_err(|_| "bad --checkpoint-every")?;
            if every == 0 {
                return Err("--checkpoint-every must be >= 1".into());
            }
            let cfg = CheckpointConfig::new(every, dir);
            let keep = opts.parse_or("--checkpoint-keep", cfg.keep)?;
            Ok(Some(cfg.with_keep(keep)))
        }
        (None, None) => Ok(None),
        _ => Err("--checkpoint-every and --checkpoint-dir must be given together".into()),
    }
}

/// Every `fasda run` flag that describes the run, as a validated
/// [`RunSpec`] — `fasda job submit` builds the same value from the same
/// flags ([`job_spec`]), so the two commands simulate the same machine.
fn run_spec(opts: &Opts) -> Result<RunSpec, String> {
    let mut spec = RunSpec::new(opts.dims("--total")?, opts.dims("--per-fpga")?);
    spec.per_cell = opts.parse_or("--per-cell", spec.per_cell)?;
    spec.seed = opts.parse_or("--seed", spec.seed)?;
    spec.steps = opts.parse_or("--steps", spec.steps)?;
    spec.variant = variant(opts)?;
    spec.sync = match opts.get_or("--sync", "chained") {
        "chained" => SyncMode::Chained,
        "bulk" => SyncMode::Bulk { latency: 2_000 },
        other => return Err(format!("unknown sync mode '{other}'")),
    };
    // The seeded link-fault schedule injected at the switch boundary. Any
    // faults turn the reliable-delivery layer (acks + retransmission) on,
    // because chained sync deadlocks on a lost marker otherwise;
    // `--unreliable` opts back out to study that failure mode.
    spec.faults = opts.get("--fault-plan").map(FaultPlan::parse).transpose()?;
    spec.unreliable = opts.has("--unreliable");
    spec.engine = engine(opts)?;
    spec.ckpt = checkpoint_config(opts)?;
    spec.resume = match opts.get("--resume") {
        None => Resume::Fresh,
        Some("latest") => Resume::Latest,
        Some(path) => Resume::File(path.into()),
    };
    spec.recover = opts.get("--recover").map(|n| n.parse().map_err(|_| "bad --recover")).transpose()?;
    // A run resumed by hand replays the dead process's argv: which crash
    // directive killed it is not recorded, so none may re-fire.
    if spec.resume != Resume::Fresh {
        spec.faults = spec.faults.map(|plan| plan.without_crash());
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// The `--shards S` run: spawn S worker processes (re-invoking our own
/// argv with `--worker I --shard-connect ENDPOINT` appended) and drive
/// them as the coordinator. Process spawning by argv replay is the one
/// part of a run only the CLI can do; the spec, its construction and the
/// reporting of the output are the same as in-process.
fn spawn_shards(
    opts: &Opts,
    spec: &RunSpec,
    shards: usize,
    obs: Option<ObsSinkConfig>,
) -> Result<RunOutput, String> {
    let (cfg, sys) = spec.build().map_err(|e| e.to_string())?;
    // Where the coordinator listens and the workers dial: by default a
    // Unix socket in a directory of our own that goes again with the run.
    let own_dir = std::env::temp_dir().join(format!("fasda-shard-{}", std::process::id()));
    let listen = match opts.get("--shard-listen") {
        Some(spec) => spec.parse()?,
        None => Endpoint::Unix(own_dir.join("ctl.sock")),
    };
    // Workers rebuild the spec by replaying this exact argv.
    let mut worker_argv = vec!["run".to_string()];
    worker_argv.extend(opts.args.iter().cloned());

    println!("sharding across {shards} worker process(es); listening on {listen}");
    // The coordinator resumes by the in-process rule and says so the same way.
    let mut note = |line| println!("{line}");
    let resume = spec.resume_file(&mut note).map_err(|e| e.to_string())?;
    let shard_opts = ShardOpts { ckpt: spec.ckpt.clone(), resume, obs, ..ShardOpts::default() };
    let (steps, argv) = (spec.steps, &worker_argv);
    let run = coordinator_main_net(&cfg, &sys, steps, shards, shard_opts, &listen, argv, &mut note);
    if !opts.has("--shard-listen") {
        let _ = std::fs::remove_dir_all(&own_dir);
    }
    Ok(RunOutput::from_sharded(run.map_err(|e| e.to_string())?, sys))
}

/// Everything a finished run prints and writes, whichever way it ran:
/// AXI-Lite registers, rate and bandwidth lines, checkpoints, faults,
/// reliability, then the heartbeat `final` record and scrape, and the
/// `--trace-out` / `--metrics-out` / `--dump-group` / `--dump-state`
/// artifacts.
fn report_run(
    opts: &Opts,
    spec: &RunSpec,
    sinks: &ObsSinkConfig,
    shards: Option<usize>,
    out: &RunOutput,
) -> Result<(), String> {
    let report = &out.report;
    if let Some(restarts) = &out.restarts {
        for line in restarts {
            println!("recovered: {line}");
        }
        if restarts.is_empty() {
            println!("no failure fired; the run completed on the first attempt");
        }
    }
    // The registers count since the chips were last armed. They describe
    // this run only when that window is the whole of it: not after the
    // last segment of a checkpointed or resumed run, and not on a shard
    // coordinator's replica, whose chips are spliced from snapshots and
    // never executed (a snapshot carries no utilisation counters).
    let chips = &out.cluster.chips;
    if chips.iter().zip(&report.per_node_traffic).all(|(chip, t)| chip.traffic() == *t) {
        println!("\nAXI-Lite result registers (per node):");
        println!(
            "{:<6}{:>16}{:>14}{:>12}{:>12}{:>12}{:>12}",
            "node",
            "operation_cyc",
            "PE_cyc",
            "out_pos",
            "out_frc",
            "in_pos",
            "in_frc"
        );
        for (n, chip) in chips.iter().enumerate() {
            let regs = AxiLiteRegs::read(chip, report.total_cycles);
            println!(
                "{:<6}{:>16}{:>14}{:>12}{:>12}{:>12}{:>12}",
                n,
                regs.operation_cycle_cnt,
                regs.PE_cycle_cnt,
                regs.out_traffic_packets_pos,
                regs.out_traffic_packets_frc,
                regs.in_traffic_packets_pos,
                regs.in_traffic_packets_frc
            );
        }
    }
    println!(
        "\nsimulation rate: {:.2} µs/day ({:.0} cycles/step at 200 MHz)",
        report.us_per_day(),
        report.cycles_per_step()
    );
    println!(
        "bandwidth demand: pos {:.2} Gbps, frc {:.2} Gbps per node",
        report.pos_gbps_per_node(),
        report.frc_gbps_per_node()
    );
    if let Some(latest) = out.checkpoints.last() {
        println!("wrote {} checkpoint(s), latest {}", out.checkpoints.len(), latest.display());
    }
    if report.faults_injected > 0 {
        println!("faults injected: {}", report.faults_injected);
    }
    if let Some(rel) = &report.reliability {
        println!(
            "reliable delivery: {} retransmits, {} acks, {} duplicates dropped, {} corrupt dropped",
            rel.retransmits, rel.acks_sent, rel.duplicates_dropped, rel.corrupt_dropped
        );
    }

    let record = out.record(shards.unwrap_or(1));
    record.emit_final(sinks).map_err(|e| e.to_string())?;
    if let Some(path) = opts.get("--trace-out") {
        let trace = out
            .traces
            .last()
            .ok_or("--trace-out needs tracing on (drop --trace-level off)")?;
        std::fs::write(path, chrome_trace(trace)).map_err(|e| e.to_string())?;
        // Without checkpoints or a resume the run is one segment and its
        // trace the whole run.
        if spec.ckpt.is_none() && spec.resume == Resume::Fresh {
            let events: u64 = trace.nodes.iter().map(|n| n.events.len() as u64).sum();
            println!("wrote {events} trace events to {path} (load at https://ui.perfetto.dev)");
        } else {
            println!("wrote final-segment trace to {path} (earlier segments are not retained)");
        }
    }
    if let Some(path) = opts.get("--metrics-out") {
        std::fs::write(path, record.metrics().pretty()).map_err(|e| e.to_string())?;
        println!("wrote metrics to {path}");
    }

    let nodes = out.cluster.num_nodes();
    if let Some(g) = opts.get("--dump-group") {
        let node: usize = g.parse().map_err(|_| "bad --dump-group")?;
        if node >= nodes {
            return Err(format!("--dump-group {node}: the run has {nodes} nodes"));
        }
        let dump = out.cluster.dump_group(node);
        println!("\ndump of node {node} ({} particles):", dump.len());
        for (id, elem, pos, vel) in dump.iter().take(16) {
            println!(
                "  id {id:>6} {:<3} pos [{:+.4} {:+.4} {:+.4}] vel [{:+.2e} {:+.2e} {:+.2e}]",
                elem.symbol(),
                pos[0],
                pos[1],
                pos[2],
                vel[0],
                vel[1],
                vel[2]
            );
        }
        if dump.len() > 16 {
            println!("  ... {} more", dump.len() - 16);
        }
    }
    // Deterministic final-state dump: shared with the job service so a
    // migrated job's dump and a direct run's dump are the same byte
    // stream. See `fasda_cluster::state_dump`.
    if let Some(path) = opts.get("--dump-state") {
        std::fs::write(path, state_dump(&out.cluster, &out.sys)).map_err(|e| e.to_string())?;
        println!("wrote state dump to {path}");
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let spec = run_spec(opts)?;
    let shards: Option<usize> =
        opts.get("--shards").map(|s| s.parse().map_err(|_| "bad --shards")).transpose()?;

    // Shard-worker mode: this process was spawned by a `--shards`
    // coordinator re-invoking its own argv. Rendezvous and serve — all
    // output belongs to the coordinator.
    if let Some(w) = opts.get("--worker") {
        let index: usize = w.parse().map_err(|_| "bad --worker")?;
        let shards = shards.ok_or("--worker needs --shards")?;
        let coordinator: Endpoint =
            opts.get("--shard-connect").ok_or("--worker needs --shard-connect")?.parse()?;
        let (cfg, sys) = spec.build().map_err(|e| e.to_string())?;
        return worker_main_net(&cfg, &sys, &spec.engine, index, shards, &coordinator)
            .map_err(|e| e.to_string());
    }
    if spec.recover.is_some() && shards.is_some() {
        return Err("--recover drives a single-process run (each restart rebuilds the cluster in-process)".into());
    }

    let ((tx, ty, tz), (px, py, pz)) = (spec.total, spec.per_fpga);
    println!(
        "FASDA: {tx}x{ty}x{tz} cells ({} atoms) on {px}x{py}x{pz} cells/FPGA, variant {:?} ({}), {} steps",
        u64::from(tx * ty * tz) * u64::from(spec.per_cell),
        spec.variant,
        spec.variant.label(),
        spec.steps
    );

    let obs = obs_opts(opts)?;
    let started = std::time::Instant::now();
    let mut out = if let Some(shards) = shards {
        spawn_shards(opts, &spec, shards, obs.sinks.any().then(|| obs.sinks.clone()))?
    } else {
        match spec.recover {
            Some(n) => println!("recovery armed: up to {n} automatic restart(s)"),
            None => println!("{} FPGA node(s) configured; running...", spec.nodes()),
        }
        let (mut note, mut ctl) = (|line| println!("{line}"), |_: &_| SegmentControl::Continue);
        spec.run(Some(&obs.sinks), &mut note, &mut ctl).map_err(|e| e.to_string())?
    };
    out.host.wall_s = started.elapsed().as_secs_f64();
    report_run(opts, &spec, &obs.sinks, shards, &out)
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    // The workload `fasda run` would simulate over the same flags.
    let run = RunSpec::new(opts.dims("--total")?, (1, 1, 1));
    let per_cell = opts.parse_or("--per-cell", run.per_cell)?;
    let seed = opts.parse_or("--seed", run.seed)?;
    let sys = RunSpec::workload(run.total, per_cell, seed).map_err(|e| e.to_string())?.generate();
    let out = opts.get("--out").ok_or("--out required")?;
    std::fs::write(out, to_pdb(&sys)).map_err(|e| e.to_string())?;
    println!("wrote {} atoms to {out}", sys.len());
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let per_fpga = opts.dims("--per-fpga")?;
    let total = opts.dims("--total")?;
    let space = RunSpec::geometry(total, per_fpga).map_err(|e| e.to_string())?;
    let v = variant(opts)?;
    let geo = ChipGeometry::new(space, per_fpga, ChipCoord::new(0, 0, 0));
    let cfg = ChipConfig::variant(v);
    println!(
        "configuration: {} FPGAs, {} CBBs each, {} PEs/CBB ({} filters), {} peers/node",
        geo.num_chips(),
        geo.num_cbbs(),
        cfg.pes_per_cbb(),
        cfg.filters_per_cbb(),
        geo.send_chips().len(),
    );
    let pct = estimate(&cfg, &geo).percent_of(ALVEO_U280);
    println!(
        "estimated per-FPGA resources (Alveo U280): LUT {:.0}%  FF {:.0}%  BRAM {:.0}%  URAM {:.0}%  DSP {:.0}%",
        pct.lut, pct.ff, pct.bram, pct.uram, pct.dsp
    );
    Ok(())
}

/// The costs the run behind heartbeat stream `path` measured
/// ([`measured_costs`]), announced as they are read.
fn measured(path: &str) -> Result<Json, String> {
    let host = measured_costs(path)?;
    let show = |key| match host.get(key).and_then(Json::as_f64) {
        Some(ms) => format!("{ms:.3} ms"),
        None => "not measured".to_string(),
    };
    println!(
        "measured costs: step {}, save {}, restore {} (final record of {path})",
        show("step_ms"),
        show("save_ms"),
        show("restore_ms")
    );
    Ok(host)
}

/// One policy input: the run's measurement `key` when `host` has it,
/// else the value of `flag`.
fn policy_cost(opts: &Opts, host: Option<&Json>, key: &str, flag: &str) -> Result<f64, String> {
    if let Some(ms) = host.and_then(|h| h.get(key)).and_then(Json::as_f64) {
        return Ok(ms);
    }
    let what = if host.is_some() { "the run did not measure it" } else { "or --bench" };
    let v = opts.get(flag).ok_or_else(|| format!("{flag} required ({what})"))?;
    v.parse().map_err(|_| format!("bad {flag}"))
}

/// The `--failure-rate` every policy needs (failures per simulated step).
fn failure_rate(opts: &Opts) -> Result<f64, String> {
    let rate =
        opts.get("--failure-rate").ok_or("--failure-rate required (failures per simulated step)")?;
    rate.parse().map_err(|_| "bad --failure-rate".into())
}

/// `fasda ckpt policy` — the data-loss / availability calculator:
/// Young–Daly checkpoint-interval optimization over measured costs. Each
/// cost comes from the run whose heartbeat stream `--bench` names, or
/// from its flag when that run did not measure it.
fn cmd_ckpt_policy(opts: &Opts) -> Result<(), String> {
    use fasda_cluster::ckpt::policy::PolicyInput;
    let host = opts.get("--bench").map(measured).transpose()?;
    let step_cost = policy_cost(opts, host.as_ref(), "step_ms", "--step-ms")?;
    let failure_rate = failure_rate(opts)?;
    let save_cost = policy_cost(opts, host.as_ref(), "save_ms", "--save-ms")?;
    let restore_cost = policy_cost(opts, host.as_ref(), "restore_ms", "--restore-ms")?;
    let input = PolicyInput { save_cost, restore_cost, step_cost, failure_rate };
    input.check()?;

    println!(
        "inputs: save {save_cost:.3} ms, restore {restore_cost:.3} ms, step {step_cost:.3} ms, \
         failure rate {failure_rate:e}/step"
    );
    let ystar = input.young_daly_interval();
    if ystar.is_infinite() {
        println!("failure rate 0: never checkpoint (any interval only adds save overhead)");
        return Ok(());
    }
    println!("Young-Daly optimum: sqrt(2*save/(rate*step)) = {ystar:.1} steps\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>13}",
        "interval", "save-ovhd", "loss/fail", "rework-ovhd", "availability"
    );
    let best = input.optimize();
    let mut ks = vec![
        (best.interval_steps / 4).max(1),
        (best.interval_steps / 2).max(1),
        best.interval_steps,
        best.interval_steps * 2,
        best.interval_steps * 4,
    ];
    if let Some(k) = opts.get("--interval") {
        ks.push(k.parse().map_err(|_| "bad --interval")?);
    }
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        let f = input.forecast(k);
        let mark = if f.interval_steps == best.interval_steps { "  <- optimal" } else { "" };
        println!(
            "{:>10} {:>11.2}% {:>10.1} st {:>11.2}% {:>12.4}{mark}",
            f.interval_steps,
            f.save_overhead * 100.0,
            f.expected_loss_steps,
            f.rework_overhead * 100.0,
            f.availability
        );
    }
    Ok(())
}

/// `fasda serve` — the multi-tenant job daemon (see DESIGN.md §14).
/// Runs until a client sends `shutdown`; running jobs drain at their
/// next segment boundary and are journaled as requeued, so a restarted
/// server resumes them from their newest on-disk checkpoints.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let dir = std::path::PathBuf::from(opts.get_or("--dir", "fasda-svc"));
    let mut cfg = ServerConfig::at(&dir);
    if let Some(l) = opts.get("--listen") {
        cfg.listen = l.parse()?;
    }
    cfg.workers = opts.parse_or("--workers", cfg.workers)?;
    cfg.max_restarts = opts.parse_or("--max-restarts", cfg.max_restarts)?;
    for clause in opts.get_all("--tenant") {
        cfg.tenants.parse_clause(clause)?;
    }
    // The default checkpoint cadence: explicit flag, or the Young–Daly
    // optimum over the costs a real run measured (`fasda ckpt policy
    // --bench`, folded into the server).
    cfg.default_ckpt_every = match (opts.get("--default-ckpt-every"), opts.get("--policy-bench")) {
        (Some(n), None) => {
            let n: u64 = n.parse().map_err(|_| "bad --default-ckpt-every")?;
            if n == 0 {
                return Err("--default-ckpt-every must be >= 1".into());
            }
            n
        }
        (None, Some(bench)) => {
            let host = measured(bench)?;
            let step_ms = policy_cost(opts, Some(&host), "step_ms", "--step-ms")?;
            let failure_rate = failure_rate(opts)?;
            let cost = |key| {
                host.get(key).and_then(Json::as_f64).ok_or_else(|| {
                    format!("{bench} measured no {key} (measure a checkpointed, recovered run)")
                })
            };
            let (save, restore) = (cost("save_ms")?, cost("restore_ms")?);
            let every = policy_interval(step_ms, failure_rate, save, restore)?;
            println!("policy cadence: checkpoint every {every} step(s) (Young-Daly)");
            every
        }
        (None, None) => cfg.default_ckpt_every,
        (Some(_), Some(_)) => {
            return Err("--default-ckpt-every and --policy-bench are exclusive".into())
        }
    };
    let workers = cfg.workers;
    let handle = Server::start(cfg).map_err(|e| e.to_string())?;
    println!("fasda-svc: {workers} worker(s), listening on {}", handle.addr());
    println!("serving until a client sends shutdown (fasda job shutdown --connect ...)");
    handle.join();
    println!("fasda-svc: shut down cleanly");
    Ok(())
}

/// Build a [`JobSpec`] from `fasda job submit` flags (or `--spec FILE`
/// with a JSON document, with flags layered on top is NOT supported —
/// the file is the spec).
fn job_spec(opts: &Opts) -> Result<JobSpec, String> {
    if let Some(path) = opts.get("--spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        return JobSpec::from_json(&doc);
    }
    let d = JobSpec::default();
    let spec = JobSpec {
        name: opts.get_or("--name", "").to_string(),
        tenant: opts.get_or("--tenant", &d.tenant).to_string(),
        priority: opts.parse_or("--priority", 0)?,
        total: opts.get_or("--total", &d.total).to_string(),
        per_fpga: opts.get_or("--per-fpga", &d.per_fpga).to_string(),
        per_cell: opts.parse_or("--per-cell", d.per_cell)?,
        seed: opts.parse_or("--seed", d.seed)?,
        steps: opts.parse_or("--steps", d.steps)?,
        fault_plan: opts.get("--fault-plan").map(String::from),
        unreliable: opts.has("--unreliable"),
        ckpt_every: opts.parse_or("--ckpt-every", 0)?,
        dump_state: opts.get("--dump-state").map(String::from),
    };
    // Round-trip through JSON so flag-built specs hit exactly the
    // validation a submitted document does.
    JobSpec::from_json(&spec.to_json())
}

fn job_id(opts: &Opts) -> Result<u64, String> {
    opts.get("--id")
        .ok_or("--id required")?
        .parse()
        .map_err(|_| "bad --id".into())
}

/// `fasda job <verb>` — the service client.
fn cmd_job(opts: &Opts) -> Result<(), String> {
    let verb = opts
        .verb
        .as_deref()
        .ok_or("job needs a verb: submit|status|cancel|logs|migrate|wait|metrics|shutdown")?;
    let addr: Endpoint = opts.get("--connect").ok_or("--connect required")?.parse()?;
    let mut client = Client::connect(&addr)?;
    match verb {
        "submit" => {
            let spec = job_spec(opts)?;
            let id = client.submit(&spec).map_err(|e| e.to_string())?;
            println!("submitted job {id}");
            if opts.has("--wait") {
                let status = client
                    .wait(id, wait_timeout(opts)?)
                    .map_err(|e| e.to_string())?;
                println!("{}", status.pretty());
            }
        }
        "status" => match opts.get("--id") {
            Some(_) => {
                let doc = client.status(job_id(opts)?).map_err(|e| e.to_string())?;
                println!("{}", doc.pretty());
            }
            None => {
                for doc in client.status_all().map_err(|e| e.to_string())? {
                    println!("{}", doc.compact());
                }
            }
        },
        "cancel" => {
            client.cancel(job_id(opts)?).map_err(|e| e.to_string())?;
            println!("cancel requested");
        }
        "logs" => {
            for line in client.logs(job_id(opts)?).map_err(|e| e.to_string())? {
                println!("{line}");
            }
        }
        "migrate" => {
            client.migrate(job_id(opts)?).map_err(|e| e.to_string())?;
            println!("migration requested (drains at the next segment boundary)");
        }
        "wait" => {
            let status = client
                .wait(job_id(opts)?, wait_timeout(opts)?)
                .map_err(|e| e.to_string())?;
            println!("{}", status.pretty());
        }
        "metrics" => {
            let doc = client.metrics().map_err(|e| e.to_string())?;
            println!("{}", doc.pretty());
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutdown requested (running jobs drain and journal as requeued)");
        }
        other => return Err(format!("unknown job verb '{other}'")),
    }
    Ok(())
}

fn wait_timeout(opts: &Opts) -> Result<std::time::Duration, String> {
    Ok(std::time::Duration::from_secs(opts.parse_or("--timeout", 3600)?))
}

/// `fasda repro` — print a figure's or one table's rows of the paper's
/// evaluation (`fasda_bench::TABLES`) as Markdown.
fn cmd_repro(opts: &Opts) -> Result<(), String> {
    let names = || {
        let tables = fasda_bench::TABLES.iter().map(|t| t.id).filter(|id| id.contains('.'));
        fasda_bench::figures().into_iter().chain(tables).collect::<Vec<_>>().join(", ")
    };
    let name = opts.verb.as_deref().ok_or_else(|| format!("repro needs a figure or table: {}", names()))?;
    let tables = fasda_bench::select(name);
    if tables.is_empty() {
        return Err(format!("unknown figure or table '{name}' (one of: {})", names()));
    }
    for (flag, _) in &opts.flags {
        if !tables.iter().any(|t| t.flags.split(' ').any(|f| f == flag)) {
            return Err(format!("repro {name} does not read {flag}"));
        }
    }
    let positive = |key| match opts.get(key).map(str::parse::<u32>) {
        None => Ok(None),
        Some(Ok(n)) if n >= 1 => Ok(Some(n)),
        Some(_) => Err(format!("{key} must be a whole number >= 1")),
    };
    let space = positive("--space")?;
    if let Some(d) = space {
        // Bounded as `fasda run --total` is (one digit an axis), with room for a 12³ sync ablation.
        if d > 12 {
            return Err("--space must be at most 12".into());
        }
        // ablate_sync puts 3×3×3 cells on each chip; fig19 has no chips.
        let block = if name == "ablate_sync" { 3 } else { 1 };
        RunSpec::geometry((d, d, d), (block, block, block)).map_err(|e| e.to_string())?;
    }
    let spec = fasda_bench::Spec {
        steps: positive("--steps")?.map(u64::from),
        serial: opts.has("--serial"),
        interval: positive("--interval")?.map(u64::from),
        space,
    };
    for (i, table) in tables.iter().enumerate() {
        print!("{}{}", if i > 0 { "\n" } else { "" }, table.render(&spec));
    }
    Ok(())
}

fn cmd_ckpt(opts: &Opts) -> Result<(), String> {
    match opts.verb.as_deref() {
        Some("policy") => cmd_ckpt_policy(opts),
        Some(other) => Err(format!("unknown ckpt subcommand '{other}' (try 'policy')")),
        None => Err("ckpt needs a subcommand (try 'policy')".into()),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    type Command = fn(&Opts) -> Result<(), String>;
    let (grammar, command): (&Grammar, Command) = match cmd.as_str() {
        "run" => (&RUN, cmd_run),
        "generate" => (&GENERATE, cmd_generate),
        "info" => (&INFO, cmd_info),
        "ckpt" => (&CKPT, cmd_ckpt),
        "serve" => (&SERVE, cmd_serve),
        "job" => (&JOB, cmd_job),
        "repro" => (&REPRO, cmd_repro),
        _ => return usage(),
    };
    match Opts::parse(grammar, args).and_then(|opts| command(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasda_cluster::{drain_to_container, Cluster, ClusterRunReport};
    use proptest::prelude::*;

    proptest! {
        /// `fasda run` flags and a `fasda job submit` document of the same
        /// values describe the same machine, byte for byte: the two parsers
        /// meet in one `RunSpec`.
        #[test]
        fn run_flags_and_job_document_build_the_same_machine(
            geometry in 0usize..3,
            per_cell in 0u32..6,
            seed in any::<u64>(),
            plan in 0usize..4,
            unreliable in any::<bool>(),
        ) {
            let (total, per_fpga) = [("633", "333"), ("444", "222"), ("336", "331")][geometry];
            let plans = ["drop=0.05,seed=9", "seed=4", "dup=0.02,partition=0|1:@1+500,crash=0@1"];
            let plan = plans.get(plan).map(|p| p.to_string());
            let mut args: Vec<String> = ["--total", total, "--per-fpga", per_fpga].map(String::from).into();
            args.extend(["--per-cell".into(), per_cell.to_string(), "--seed".into(), seed.to_string()]);
            args.extend(plan.iter().flat_map(|p| ["--fault-plan".to_string(), p.clone()]));
            args.extend(unreliable.then(|| "--unreliable".to_string()));
            let flags = run_spec(&Opts::parse(&RUN, args).expect("flags parse")).expect("flags build");
            let (total, per_fpga) = (total.to_string(), per_fpga.to_string());
            let job = JobSpec { total, per_fpga, per_cell, seed, fault_plan: plan, unreliable, ..JobSpec::default() };
            let machine = |spec: RunSpec| {
                let (cfg, sys) = spec.build().expect("valid spec");
                drain_to_container(&Cluster::new(cfg, &sys), &ClusterRunReport::new())
            };
            prop_assert!(machine(flags) == machine(job.run_spec().expect("job parses")));
        }
    }
}
