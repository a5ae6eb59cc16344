//! `svc-burst`: the job service under a burst of tiny jobs.
//!
//! An in-process `Server::start` (Unix socket, 2 workers, tenants
//! `alice:2,bob:1,carol:1`) is driven by 2 client connections in a
//! **closed loop, each keeping 4 jobs outstanding** — callers of
//! `fasda job submit` + `wait` each wait for a reply — round-robin over
//! tenants and priorities 0–2. Every job is `633`/`333`, 4 Na/cell, 2
//! steps, a checkpoint per step: small enough that queue, journal,
//! dispatch and cluster build are most of the latency, and about six
//! jobs stay queued so `queue::pick` and fair share do real work. The
//! client polls `Client::status` every 2 ms; `Client::wait`'s 20 ms sleep
//! would otherwise be the measurement.
//!
//! An operation is one job. A job fails if it does not reach
//! `completed`; every 50th job also asks for a state dump, which must
//! match a direct in-process run of the same spec byte for byte.

use super::run::{energy_rel_err, ENERGY_LIMIT, WARMUP_S};
use super::{Ctx, BUDGET};
use crate::host::{cpu_seconds, peak_rss_mb, TempDir};
use crate::manifest::Outcome;
use crate::span::Tracer;
use crate::stats::{median, quantile, tail_quantile};
use fasda_cluster::{
    run_with_checkpoints, state_dump, CheckpointConfig, Cluster, ClusterRunReport, EngineConfig,
    RunAccumulator,
};
use fasda_md::system::ParticleSystem;
use fasda_net::transport::MemLink;
use fasda_svc::queue::{self, QueueJournal};
use fasda_svc::{
    proto, Client, JobSpec, SchedJob, Server, ServerConfig, ServerHandle, TenantTable,
};
use fasda_trace::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TENANTS: [(&str, &str); 3] = [("alice", "2"), ("bob", "1"), ("carol", "1")];
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 4;
const POLL: Duration = Duration::from_millis(2);
/// Every this-many-th job's final state is compared with a direct run.
const DUMP_EVERY: u64 = 50;
/// Times the server is brought up to take `setup_s`: a set-up is under
/// a millisecond of mostly thread spawning, so single ones are noisy.
const SETUPS: usize = 15;

fn job_spec(n: u64, seed: u64, steps: u64, dump: Option<&Path>) -> JobSpec {
    JobSpec {
        name: format!("burst-{n}"),
        tenant: TENANTS[n as usize % TENANTS.len()].0.to_string(),
        priority: (n % 3) as i64,
        total: "633".to_string(),
        per_fpga: "333".to_string(),
        per_cell: 4,
        seed,
        steps,
        ckpt_every: 1,
        dump_state: dump.map(|p| p.to_string_lossy().into_owned()),
        ..JobSpec::default()
    }
}

struct Service {
    handle: ServerHandle,
    clients: Vec<Client>,
    start_s: f64,
}

/// Temp dir contents + `Server::start` + the client connections: what
/// `setup_s` times.
fn start_service(dir: &Path, tr: &mut Tracer) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ServerConfig::at(dir);
    cfg.workers = 2;
    for (tenant, weight) in TENANTS {
        cfg.tenants.parse_clause(&format!("{tenant}:{weight}"))?;
    }
    let t = Instant::now();
    let handle = tr.span("svc.server_start", || Server::start(cfg))?;
    let start_s = t.elapsed().as_secs_f64();
    let clients = tr.span("svc.connect", || {
        (0..CLIENTS)
            .map(|_| Client::connect(handle.addr()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(Service {
        handle,
        clients,
        start_s,
    })
}

fn stop_service(svc: Service) {
    svc.handle.shutdown();
    drop(svc.clients);
    svc.handle.join();
}

/// What the client saw of one job.
struct JobSample {
    n: u64,
    completed: bool,
    latency_ms: f64,
    submit_rtt_ms: f64,
    queued_ms: f64,
    running_ms: f64,
    dump: Option<PathBuf>,
}

struct InFlight {
    n: u64,
    id: u64,
    submit_start: Instant,
    submit_end: Instant,
    first_running: Option<Instant>,
    dump: Option<PathBuf>,
    migrate: bool,
}

/// Knobs of one load phase.
#[derive(Clone, Copy)]
struct Phase<'a> {
    seed: u64,
    steps: u64,
    outstanding: usize,
    /// Stop submitting after this long (at least `min_jobs` are sent).
    window: Duration,
    min_jobs: u64,
    /// Hard cap on jobs (the fixed-size phases).
    max_jobs: u64,
    dump_dir: Option<&'a Path>,
    /// Ask for a migration when a job is first seen running.
    migrate: bool,
}

/// One client connection's closed loop: keep `outstanding` jobs in
/// flight, poll each every 2 ms, until the phase says stop.
fn client_loop(
    client: &mut Client,
    phase: Phase<'_>,
    counter: &AtomicU64,
    stop: &AtomicBool,
    tr: &mut Tracer,
    status_rtt_us: &mut Vec<f64>,
) -> Result<Vec<JobSample>, String> {
    let started = Instant::now();
    let mut flying: Vec<InFlight> = Vec::new();
    let mut done = Vec::new();
    loop {
        while flying.len() < phase.outstanding && !stop.load(Ordering::Relaxed) {
            let n = counter.fetch_add(1, Ordering::Relaxed);
            if n >= phase.max_jobs || (n >= phase.min_jobs && started.elapsed() >= phase.window) {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            let dump = phase
                .dump_dir
                .filter(|_| n.is_multiple_of(DUMP_EVERY))
                .map(|d| d.join(format!("dump-{n}.txt")));
            let spec = job_spec(n, phase.seed, phase.steps, dump.as_deref());
            let submit_start = Instant::now();
            let id = client
                .submit(&spec)
                .map_err(|e| format!("submit job {n}: {e}"))?;
            flying.push(InFlight {
                n,
                id,
                submit_start,
                submit_end: Instant::now(),
                first_running: None,
                dump,
                migrate: phase.migrate,
            });
        }
        if flying.is_empty() {
            return Ok(done);
        }
        let mut i = 0;
        while i < flying.len() {
            let job = &mut flying[i];
            let t = Instant::now();
            let doc = client
                .status(job.id)
                .map_err(|e| format!("status job {}: {e}", job.n))?;
            let now = Instant::now();
            status_rtt_us.push((now - t).as_secs_f64() * 1e6);
            let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
            if state == "running" && job.first_running.is_none() {
                job.first_running = Some(now);
                if job.migrate {
                    // A job that finished in the meantime just rejects it.
                    let _ = client.migrate(job.id);
                    job.migrate = false;
                }
            }
            if matches!(state, "completed" | "cancelled" | "failed") {
                let job = flying.swap_remove(i);
                // Never seen running: it ran between two polls.
                let running_from = job.first_running.unwrap_or(now);
                let root = tr.record("job", job.submit_start, now, None, job.n);
                tr.record("svc.submit", job.submit_start, job.submit_end, root, job.n);
                tr.record("svc.queued", job.submit_end, running_from, root, job.n);
                tr.record("svc.running", running_from, now, root, job.n);
                if state != "completed" {
                    eprintln!("FAIL job {} ended {state}: {}", job.n, doc.compact());
                }
                done.push(JobSample {
                    n: job.n,
                    completed: state == "completed",
                    latency_ms: (now - job.submit_start).as_secs_f64() * 1e3,
                    submit_rtt_ms: (job.submit_end - job.submit_start).as_secs_f64() * 1e3,
                    queued_ms: (running_from - job.submit_end).as_secs_f64() * 1e3,
                    running_ms: (now - running_from).as_secs_f64() * 1e3,
                    dump: job.dump,
                });
            } else {
                i += 1;
            }
        }
        std::thread::sleep(POLL);
    }
}

struct Load {
    jobs: Vec<JobSample>,
    wall_s: f64,
    cpu_s: f64,
    status_rtt_us: Vec<f64>,
}

/// Drive one phase from `clients` connections, one thread each.
fn load(clients: &mut [Client], phase: Phase<'_>, tr: &mut Tracer) -> Result<Load, String> {
    let counter = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (epoch, enabled) = (tr.epoch(), tr.enabled());
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (counter, stop) = (&counter, &stop);
                s.spawn(move || {
                    let mut local = Tracer::with_epoch(enabled, epoch);
                    let mut rtts = Vec::new();
                    let jobs = client_loop(client, phase, counter, stop, &mut local, &mut rtts);
                    // A failed connection must not leave its peer
                    // submitting for the rest of the window.
                    stop.store(true, Ordering::Relaxed);
                    (jobs, local, rtts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    let mut out = Load {
        jobs: Vec::new(),
        wall_s,
        cpu_s,
        status_rtt_us: Vec::new(),
    };
    for r in results {
        let (jobs, local, rtts) = r.map_err(|_| "client thread panicked")?;
        out.jobs.extend(jobs?);
        out.status_rtt_us.extend(rtts);
        tr.absorb(local);
    }
    Ok(out)
}

/// The same spec run directly, the way a worker runs it: what every
/// job's result must equal, and the cost the service adds to.
struct Direct {
    report: ClusterRunReport,
    dump: String,
    cluster: Cluster,
    sys: ParticleSystem,
    build_ms: f64,
    run_ms: f64,
}

fn direct_run(seed: u64, steps: u64, scratch: &TempDir) -> Result<Direct, String> {
    let spec = job_spec(0, seed, steps, None);
    let t = Instant::now();
    let (cfg, sys) = spec.build()?;
    let mut cluster = Cluster::new(cfg, &sys);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let ckpt = CheckpointConfig::new(1, scratch.sub("direct-ckpt"));
    let t = Instant::now();
    let run = run_with_checkpoints(
        &mut cluster,
        steps,
        BUDGET,
        &EngineConfig::serial(),
        Some(&ckpt),
        RunAccumulator::new(),
    )
    .map_err(|e| format!("direct run: {e}"))?;
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&ckpt.dir);
    Ok(Direct {
        report: run.report,
        dump: state_dump(&cluster, &sys),
        cluster,
        sys,
        build_ms,
        run_ms,
    })
}

/// Count failed jobs: not completed, or a sampled dump that differs from
/// the direct run's (only the two-step burst jobs ask for dumps, and
/// `direct` is that two-step run).
fn failed_jobs(jobs: &[JobSample], direct: &Direct) -> u64 {
    jobs.iter()
        .filter(|j| {
            if !j.completed {
                return true;
            }
            let Some(path) = &j.dump else { return false };
            let same = std::fs::read_to_string(path).is_ok_and(|d| d == direct.dump);
            if !same {
                eprintln!("FAIL job {}: state dump differs from the direct run", j.n);
            }
            !same
        })
        .count() as u64
}

/// Hold the job's run to the paper's Fig. 19 criterion; every job is that
/// run, so a miss fails them all.
fn energy_gate(out: &mut Outcome, direct: &Direct) -> f64 {
    let (energy, _) = energy_rel_err(&direct.cluster, &direct.sys, direct.report.steps);
    if energy >= ENERGY_LIMIT {
        eprintln!("FAIL energy_rel_err {energy:e} of the job's run");
        out.failed = out.attempted;
    }
    energy
}

fn column(jobs: &[JobSample], f: impl Fn(&JobSample) -> f64) -> Vec<f64> {
    jobs.iter().map(f).collect()
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let scratch = TempDir::new("svc-burst").map_err(|e| format!("scratch dir: {e}"))?;
    let root = ctx.tracer.begin("workload");
    let out = if ctx.traced {
        traced_pass(ctx, &scratch)
    } else {
        timed_pass(ctx, &scratch)
    };
    ctx.tracer.end(root);
    out
}

/// Bring the service up [`SETUPS`] times (once when smoking), keeping
/// the last; returns it with every set-up's seconds and server-start
/// seconds.
fn set_up(ctx: &mut Ctx, scratch: &TempDir) -> Result<(Service, Vec<f64>, Vec<f64>), String> {
    let (mut setup_s, mut start_s) = (Vec::new(), Vec::new());
    let rounds = if ctx.smoke { 1 } else { SETUPS };
    let mut kept = None;
    for _ in 0..rounds {
        if let Some(previous) = kept.take() {
            stop_service(previous);
        }
        let t = Instant::now();
        let svc = start_service(&scratch.sub("svc"), &mut ctx.tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        start_s.push(svc.start_s);
        kept = Some(svc);
    }
    Ok((kept.expect("at least one set-up"), setup_s, start_s))
}

/// A discarded burst that brings server, workers and host to the steady
/// state (see [`WARMUP_S`]).
fn warm_up(svc: &mut Service, ctx: &mut Ctx, dumps: &Path) -> Result<(), String> {
    if !ctx.smoke {
        load(
            &mut svc.clients,
            burst_phase(ctx.seed, false, WARMUP_S, dumps),
            &mut ctx.tracer,
        )?;
    }
    Ok(())
}

/// The untraced pass: the end-to-end metrics.
fn timed_pass(ctx: &mut Ctx, scratch: &TempDir) -> Result<Outcome, String> {
    let (mut svc, setup_s, _) = set_up(ctx, scratch)?;
    let dumps = scratch.sub("dumps");
    std::fs::create_dir_all(&dumps).map_err(|e| format!("dump dir: {e}"))?;
    let loaded = warm_up(&mut svc, ctx, &dumps).and_then(|()| {
        load(
            &mut svc.clients,
            burst_phase(ctx.seed, ctx.smoke, ctx.seconds, &dumps),
            &mut ctx.tracer,
        )
    });
    stop_service(svc);
    let loaded = loaded?;
    let direct = direct_run(ctx.seed, 2, scratch)?;

    let n = loaded.jobs.len();
    let mut out = Outcome {
        attempted: n as u64,
        failed: failed_jobs(&loaded.jobs, &direct),
        ..Default::default()
    };
    energy_gate(&mut out, &direct);
    let completed = loaded.jobs.iter().filter(|j| j.completed).count();
    let latency = column(&loaded.jobs, |j| j.latency_ms);
    let sim_cycles = completed as f64 * direct.report.total_cycles as f64;
    out.set("setup_s", median(&setup_s), setup_s.len());
    out.set(
        "host_ns_per_sim_cycle",
        loaded.wall_s * 1e9 / sim_cycles,
        completed,
    );
    out.set("run_cpu_s", loaded.cpu_s / completed as f64, completed);
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out.set("sim_us_per_day", direct.report.us_per_day(), 1);
    out.set("job_latency_p50_ms", median(&latency), n);
    out.set(
        "job_latency_p95_ms",
        quantile(&latency, tail_quantile(n)),
        n,
    );
    out.set("jobs_per_s", completed as f64 / loaded.wall_s, completed);
    Ok(out)
}

/// The traced pass: per-job spans, the service's own probes, and the
/// plain/traced pair of load phases that prices the span recorder.
fn traced_pass(ctx: &mut Ctx, scratch: &TempDir) -> Result<Outcome, String> {
    let (mut svc, _, start_s) = set_up(ctx, scratch)?;
    let dumps = scratch.sub("dumps");
    std::fs::create_dir_all(&dumps).map_err(|e| format!("dump dir: {e}"))?;
    let direct = direct_run(ctx.seed, 2, scratch)?;
    let tr = &mut ctx.tracer;
    let third = ctx.seconds / 3.0;

    // The Result is unwrapped only after the server is down again.
    let mut phases = || -> Result<_, String> {
        if !ctx.smoke {
            tr.set_enabled(false);
            load(
                &mut svc.clients,
                burst_phase(ctx.seed, false, WARMUP_S, &dumps),
                tr,
            )?;
            tr.set_enabled(true);
        }
        let open = tr.begin("svc.load");
        let burst = load(
            &mut svc.clients,
            burst_phase(ctx.seed, ctx.smoke, third, &dumps),
            tr,
        );
        tr.end(open);
        let burst = burst?;
        tr.set_enabled(false);
        let plain = load(
            &mut svc.clients,
            burst_phase(ctx.seed, ctx.smoke, third, &dumps),
            tr,
        );
        tr.set_enabled(true);
        let plain = plain?;
        let fixed = |jobs, steps, migrate| Phase {
            seed: ctx.seed,
            steps,
            outstanding: 1,
            window: Duration::MAX,
            min_jobs: 0,
            max_jobs: if ctx.smoke { 3 } else { jobs },
            dump_dir: None,
            migrate,
        };
        let open = tr.begin("svc.unloaded");
        let unloaded = load(&mut svc.clients[..1], fixed(50, 2, false), tr);
        tr.end(open);
        let open = tr.begin("svc.migrate");
        let stay = load(&mut svc.clients[..1], fixed(20, 6, false), tr);
        let moved = load(&mut svc.clients[..1], fixed(20, 6, true), tr);
        tr.end(open);
        let metrics = svc.clients[0]
            .metrics()
            .map_err(|e| format!("metrics: {e}"))?;
        Ok((burst, plain, unloaded?, stay?, moved?, metrics))
    };
    let phases = phases();
    stop_service(svc);
    let (burst, plain, unloaded, stay, moved, metrics) = phases?;

    let all: Vec<&Load> = vec![&burst, &plain, &unloaded, &stay, &moved];
    let mut out = Outcome {
        attempted: all.iter().map(|l| l.jobs.len() as u64).sum(),
        failed: all.iter().map(|l| failed_jobs(&l.jobs, &direct)).sum(),
        ..Default::default()
    };
    let energy = energy_gate(&mut out, &direct);
    out.set("md.energy_rel_err", energy, 1);

    let n = burst.jobs.len();
    out.set(
        "svc.submit_rtt_ms",
        median(&column(&burst.jobs, |j| j.submit_rtt_ms)),
        n,
    );
    out.set(
        "svc.status_rtt_us",
        median(&burst.status_rtt_us),
        burst.status_rtt_us.len(),
    );
    out.set(
        "svc.queued_ms",
        median(&column(&burst.jobs, |j| j.queued_ms)),
        n,
    );
    out.set(
        "svc.running_ms",
        median(&column(&burst.jobs, |j| j.running_ms)),
        n,
    );
    let p50 = |l: &Load| median(&column(&l.jobs, |j| j.latency_ms));
    out.set(
        "bench.span_overhead_ratio",
        p50(&burst) / p50(&plain),
        n.min(plain.jobs.len()),
    );
    let unloaded_ms = p50(&unloaded);
    out.set("svc.unloaded_latency_ms", unloaded_ms, unloaded.jobs.len());
    out.set("svc.direct_build_ms", direct.build_ms, 1);
    out.set("svc.direct_run_ms", direct.run_ms, 1);
    out.set(
        "svc.overhead_ms",
        unloaded_ms - direct.build_ms - direct.run_ms,
        unloaded.jobs.len(),
    );
    out.set(
        "svc.migrate_extra_ms",
        p50(&moved) - p50(&stay),
        moved.jobs.len(),
    );
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.set("svc.jobs_migrated", counter("jobs_migrated"), 1);
    out.set("svc.queue_depth_peak", counter("queue_depth_peak"), 1);
    out.set(
        "svc.server_hist_p50_ms",
        hist_p50(&metrics, "job_latency_ms"),
        1,
    );
    out.set("svc.server_start_ms", median(&start_s) * 1e3, start_s.len());
    if !ctx.smoke {
        probes(&mut out, ctx.seed, scratch)?;
    }
    Ok(out)
}

fn burst_phase<'a>(seed: u64, smoke: bool, window_s: f64, dump_dir: &'a Path) -> Phase<'a> {
    Phase {
        seed,
        steps: 2,
        outstanding: OUTSTANDING,
        window: Duration::from_secs_f64(if smoke { 0.0 } else { window_s }),
        min_jobs: 20,
        max_jobs: u64::MAX,
        dump_dir: Some(dump_dir),
        migrate: false,
    }
}

/// Median of a server-side histogram by the upper-bound-of-bucket rule
/// of `fasda_obs::Hist::quantile`.
fn hist_p50(metrics: &Json, name: &str) -> f64 {
    let Some(hist) = metrics.get("hists").and_then(|h| h.get(name)) else {
        return 0.0;
    };
    let nums = |key: &str| -> Vec<f64> {
        hist.get(key)
            .map(|a| a.items().iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let (bounds, counts) = (nums("bounds"), nums("counts"));
    let total: f64 = counts.iter().sum();
    let mut seen = 0.0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= (total / 2.0).ceil().max(1.0) {
            return bounds.get(i).or(bounds.last()).copied().unwrap_or(0.0);
        }
    }
    0.0
}

/// The service's building blocks, timed alone.
fn probes(out: &mut Outcome, seed: u64, scratch: &TempDir) -> Result<(), String> {
    let dir = scratch.sub("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("probe dir: {e}"))?;
    let qe = |e: queue::QueueError| format!("journal probe: {e}");
    let spec = job_spec(0, seed, 2, None);

    // The three fsynced appends every job costs the server.
    let mut journal = QueueJournal::open(&dir.join("append.journal")).map_err(qe)?;
    const APPENDS: u64 = 100;
    let mut per_job = Vec::new();
    for id in 0..APPENDS {
        let t = Instant::now();
        journal.submit(id, &spec).map_err(qe)?;
        journal.start(id, 0).map_err(qe)?;
        journal.done(id).map_err(qe)?;
        per_job.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("svc.journal_append_us", median(&per_job), APPENDS as usize);

    // The read side of the same file: replaying 5,000 queued jobs.
    let path = dir.join("replay.journal");
    let live: Vec<(u64, &JobSpec)> = (0..5_000).map(|id| (id, &spec)).collect();
    QueueJournal::open(&path)
        .and_then(|mut j| j.compact_to(&live))
        .map_err(qe)?;
    let replays: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let jobs = queue::replay(&path).map(|q| q.jobs.len());
            (t.elapsed().as_secs_f64() * 1e3, jobs)
        })
        .map(|(ms, jobs)| {
            if jobs.is_ok_and(|n| n == live.len()) {
                Ok(ms)
            } else {
                Err("journal replay lost jobs")
            }
        })
        .collect::<Result<_, _>>()?;
    out.set("svc.journal_replay_ms", median(&replays), replays.len());

    // The scheduler at a depth the burst never reaches.
    let mut table = TenantTable::new();
    for (tenant, weight) in TENANTS {
        table.parse_clause(&format!("{tenant}:{weight}"))?;
    }
    let queued: Vec<SchedJob> = (0..1_000u64)
        .map(|id| SchedJob {
            id,
            tenant: TENANTS[id as usize % TENANTS.len()].0.to_string(),
            priority: (id % 3) as i64,
            avoid: None,
        })
        .collect();
    let running: HashMap<String, usize> = [("alice".to_string(), 1), ("bob".to_string(), 1)].into();
    let picks: Vec<f64> = (0..200)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(queue::pick(&queued, &running, &table, i % 2));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("svc.pick_us", median(&picks), picks.len());

    // One control message through the CRC framing, no socket.
    let (mut a, mut b) = MemLink::pair();
    let msg = proto::msg()
        .field("op", "submit")
        .field("spec", spec.to_json())
        .build();
    let frames: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            let ok = proto::write_msg(&mut a, &msg).is_ok() && proto::read_msg(&mut b).is_ok();
            (t.elapsed().as_secs_f64() * 1e6, ok)
        })
        .map(|(us, ok)| {
            if ok {
                Ok(us)
            } else {
                Err("proto frame probe failed")
            }
        })
        .collect::<Result<_, _>>()?;
    out.set("svc.proto_frame_us", median(&frames), frames.len());
    Ok(())
}
