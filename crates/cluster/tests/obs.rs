//! Live-telemetry acceptance (DESIGN.md §12): a run record's totals are
//! an *identity artifact* — a pure function of the engine- and
//! shard-invariant run report and stall ledger, so serial, fast, and
//! sharded runs must render byte-identical `obs` sections, clean or
//! under a 5% drop schedule. Heartbeat streams are well-formed JSONL
//! with monotonic steps and non-decreasing counters, ending on a `final`
//! record and a scrape file that hold the record's totals. A beat's
//! counters are a function of the run: equal at every boundary whatever
//! the engine, the worker count or the carrier. Beats from two or more
//! workers carry one progress row per worker.

mod harness;

use fasda_cluster::{
    load_checkpoint, measured_from, model_input, run_sharded, run_with_checkpoints,
    CheckpointConfig, CheckpointedRun, Cluster, ClusterConfig, ClusterRunReport, EngineConfig,
    FaultPlan, HostCosts, ObsLive, ObsSinkConfig, RunOutput, ShardOpts, Trace, TraceConfig,
    TraceLevel,
};
use fasda_md::system::ParticleSystem;
use fasda_trace::Json;
use harness::{config, parse_jsonl, workload, workload_of, BUDGET};
use std::path::PathBuf;

const STEPS: u64 = 4;

/// Suite-namespaced scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    harness::tmpdir(&format!("obs-{tag}"))
}

/// A finished in-process run over `sys`, as the run path hands it over.
fn output(
    cluster: Cluster,
    sys: &ParticleSystem,
    report: ClusterRunReport,
    traces: Vec<Trace>,
) -> RunOutput {
    let (checkpoints, restarts, host) = (Vec::new(), None, HostCosts::default());
    RunOutput { report, traces, checkpoints, cluster, sys: sys.clone(), restarts, host }
}

/// The `obs` section of `out`'s record, its trace naming `shards` owners.
fn obs_section(out: &RunOutput, shards: usize) -> Json {
    out.record(shards).metrics().get("obs").expect("obs section").clone()
}

// -------------------------------------------------------------------------
// Final totals: bit-identical across engines and shard counts
// -------------------------------------------------------------------------

#[test]
fn final_totals_identical_across_engines_and_shards() {
    let sys = workload();
    let full = TraceConfig::full();
    for (name, faults, reliable) in [
        ("clean", None, false),
        ("lossy", Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true),
    ] {
        let cfg = config(faults, reliable);

        // Serial oracle defines the expected `obs` section.
        let mut oracle = Cluster::new(cfg.clone(), &sys);
        let report = oracle
            .try_run_with(STEPS, BUDGET, &EngineConfig::serial().with_trace(full))
            .expect("oracle completes");
        let trace = oracle.take_trace().expect("tracing was on");
        let want = obs_section(&output(oracle, &sys, report, vec![trace]), 1).pretty();

        // Fast engine: totals must still match — the report and the
        // ledger are engine-invariant even though the engine trace
        // stream is not.
        let mut fast = Cluster::new(cfg.clone(), &sys);
        let r = fast
            .try_run_with(STEPS, BUDGET, &EngineConfig::auto().with_trace(full))
            .expect("fast run completes");
        let t = fast.take_trace().expect("tracing was on");
        assert_eq!(
            obs_section(&output(fast, &sys, r, vec![t]), 1).pretty(),
            want,
            "{name}: fast-engine totals drifted from serial oracle"
        );

        // Two socket-connected shard workers.
        let run = run_sharded(
            &cfg,
            &sys,
            STEPS,
            &EngineConfig::serial().with_trace(full),
            2,
            ShardOpts { budget: BUDGET, ckpt: None, resume: None, obs: None, ..Default::default() },
        )
        .expect("sharded run completes");
        assert_eq!(
            obs_section(&RunOutput::from_sharded(run, sys.clone()), 2).pretty(),
            want,
            "{name}: sharded totals drifted from serial oracle"
        );
    }
}

// -------------------------------------------------------------------------
// Heartbeat stream: JSONL shape, monotonicity, prom scrape, final record
// -------------------------------------------------------------------------

/// The oracle and the fast engine on one, two and three window workers:
/// every engine a heartbeat must look the same on.
fn engines() -> [(&'static str, EngineConfig); 4] {
    let auto = EngineConfig::auto();
    [
        ("serial", EngineConfig::serial()),
        ("1 thread", auto.with_threads(1)),
        ("2 threads", auto.with_threads(2)),
        ("3 threads", auto.with_threads(3)),
    ]
}

/// Integer field `key` of a heartbeat record or counters object.
fn int(doc: &Json, key: &str) -> i64 {
    doc.get(key).and_then(Json::as_i64).unwrap_or_else(|| panic!("no integer {key}"))
}

/// The counters of a heartbeat record that may never decrease: cycles,
/// productive cycles and every stall cause.
fn monotone_counters(counters: &Json) -> Vec<(String, i64)> {
    let mut out = vec![
        ("cycles".to_string(), int(counters, "cycles")),
        ("productive_cycles".to_string(), int(counters, "productive_cycles")),
    ];
    let Some(Json::Obj(causes)) = counters.get("stall_cycles") else {
        panic!("no stall_cycles counters");
    };
    for (cause, cycles) in causes {
        out.push((format!("stall_cycles.{cause}"), cycles.as_i64().expect("integer stall count")));
    }
    out
}

/// The contract of a heartbeat stream, whatever ran it, checkpointed or
/// not: every record is a `beat` reporting the run's step target and
/// `progress = step / steps`, no counter ever decreases, and the beat at
/// the last step carries the run's final cycle, productive and stall
/// totals (`totals`, a record's `obs` section).
fn assert_beats_track_totals(beats: &[Json], totals: &Json, ctx: &str) {
    assert!(!beats.is_empty(), "{ctx}: no beat records");
    let mut last_step = 0;
    let mut last: Option<Vec<(String, i64)>> = None;
    for rec in beats {
        assert_eq!(rec.get("type").and_then(Json::as_str), Some("beat"), "{ctx}");
        let step = int(rec, "step");
        assert!(step >= last_step, "{ctx}: steps must be monotonic");
        last_step = step;
        assert_eq!(int(rec, "steps"), STEPS as i64, "{ctx}: step {step} reports another target");
        let progress = rec.get("gauges").and_then(|g| g.get("progress")).and_then(Json::as_f64);
        assert_eq!(progress, Some(step as f64 / STEPS as f64), "{ctx}: progress at step {step}");
        let now = monotone_counters(rec.get("counters").expect("counters"));
        if let Some(last) = &last {
            for ((name, n), (_, was)) in now.iter().zip(last) {
                assert!(n >= was, "{ctx}: {name} ran backwards at step {step}: {was} -> {n}");
            }
        }
        last = Some(now);
    }
    let end = beats.last().expect("records");
    assert_eq!(int(end, "step"), STEPS as i64, "{ctx}: no beat at the last step");
    let (got, want) = (end.get("counters").unwrap(), totals.get("counters").unwrap());
    for key in ["cycles", "productive_cycles", "stall_cycles"] {
        assert_eq!(got.get(key), want.get(key), "{ctx}: last beat's {key} is not the final total");
    }
}

#[test]
fn heartbeat_stream_is_wellformed_and_final_matches_totals() {
    let sys = workload();
    let dir = tmpdir("beats");
    let sinks = ObsSinkConfig {
        heartbeat_out: Some(dir.join("beats.jsonl")),
        prom_out: Some(dir.join("scrape.prom")),
    };

    // One segment at cadence 1, then a checkpoint every step at cadence
    // 2: the writer banks each segment's stall ledger, so the beats
    // still count the whole run.
    for (name, engine) in engines() {
        let engine = engine.with_trace(TraceConfig::full());
        for (every, ckpt) in [(1, None), (2, Some(CheckpointConfig::new(1, dir.join("ck"))))] {
            let ctx = format!("{name}, cadence {every}, checkpointed: {}", ckpt.is_some());
            let mut cluster = Cluster::new(config(None, false), &sys);
            cluster.attach_obs(Box::new(ObsLive::new(every, &sinks).expect("sinks open")));
            let CheckpointedRun { report, traces, .. } = run_with_checkpoints(
                &mut cluster,
                STEPS,
                BUDGET,
                &engine,
                ckpt.as_ref(),
                ClusterRunReport::new(),
            )
            .expect("run completes");
            if ckpt.is_none() {
                // An armed sampler only watches: the same run without one
                // reports the same thing.
                let unarmed_report = Cluster::new(config(None, false), &sys)
                    .try_run_with(STEPS, BUDGET, &engine)
                    .expect("unarmed run completes");
                assert_eq!(report, unarmed_report);
            }
            let obs = cluster.take_obs().expect("sampler still attached");
            assert_eq!(obs.beats(), STEPS / every, "{ctx}: one beat per boundary");
            let record = output(cluster, &sys, report, traces).record(1);
            record.emit_final(&sinks).expect("final record");

            let records = parse_jsonl(&sinks.heartbeat_out.clone().unwrap());
            let (fin, beats) = records.split_last().expect("beats + final expected");
            // The trailing record renders the run record's totals: its
            // counters and hists are the metrics document's `obs` section.
            assert_eq!(fin.get("type").unwrap().as_str(), Some("final"));
            let want = record.metrics().get("obs").expect("obs section");
            assert_eq!(fin.get("counters"), want.get("counters"), "{ctx}: final record drifted");
            assert_eq!(fin.get("hists"), want.get("hists"));
            assert_beats_track_totals(beats, want, &ctx);
            // The progress gauges ride along on every beat.
            for rec in beats {
                let gauges = rec.get("gauges").unwrap();
                for g in ["wall_s", "steps_per_s", "eta_s", "progress"] {
                    assert!(gauges.get(g).is_some(), "{ctx}: missing gauge {g}");
                }
            }

            // Prometheus text format: every line is a comment or `name
            // value`, names carry the fasda prefix, values parse as
            // floats. The scrape written with the final record holds its
            // totals: each `fasda_<name>_total` sample, labeled or not, is
            // the final record's counter of that name, and every counter
            // has one.
            let prom =
                std::fs::read_to_string(sinks.prom_out.clone().unwrap()).expect("scrape file");
            let counters = fin.get("counters").expect("final counters");
            let (mut samples, mut totals) = (0, 0);
            for line in prom.lines().filter(|l| !l.is_empty()) {
                if line.starts_with("# TYPE ") || line.starts_with("# HELP ") {
                    continue;
                }
                let (name, value) = line.rsplit_once(' ').expect("sample line");
                assert!(name.starts_with("fasda_"), "unprefixed metric {name}");
                value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
                samples += 1;
                let Some((family, label)) = name["fasda_".len()..].split_once("_total") else {
                    continue;
                };
                let want = match label.split('"').nth(1) {
                    Some(value) => counters.get(family).and_then(|f| f.get(value)),
                    None => counters.get(family),
                };
                assert_eq!(want.and_then(Json::as_i64), value.parse().ok(), "{ctx}: scrape {name}");
                totals += 1;
            }
            assert!(samples > 0, "scrape file has no samples");
            let Json::Obj(families) = counters else { panic!("final counters are not an object") };
            let want: usize = families
                .iter()
                .map(|(_, v)| if let Json::Obj(series) = v { series.len() } else { 1 })
                .sum();
            assert_eq!(totals, want, "{ctx}: the scrape lacks a final counter");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// One heartbeat path: the same beats from every engine and carrier
// -------------------------------------------------------------------------

/// A heartbeat run's stream: its `beat` records, then its `final` one.
type Stream = (Vec<Json>, Json);

/// Run `cfg` in-process under `engine` with a writer beating every
/// `every` steps, optionally checkpointed into `ckpt`, from the
/// checkpoint `resume` if given; returns the stream and the beat count.
#[allow(clippy::too_many_arguments)]
fn in_process_beats(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    engine: EngineConfig,
    every: u64,
    ckpt: Option<&CheckpointConfig>,
    resume: Option<&std::path::Path>,
    sinks: &ObsSinkConfig,
) -> (Stream, u64) {
    let mut cluster = Cluster::new(cfg.clone(), sys);
    let acc = resume.map_or_else(ClusterRunReport::new, |path| {
        load_checkpoint(&mut cluster, path).expect("checkpoint restores")
    });
    cluster.attach_obs(Box::new(ObsLive::new(every, sinks).expect("sinks open")));
    let engine = engine.with_trace(TraceConfig::sync());
    let CheckpointedRun { report, traces, .. } =
        run_with_checkpoints(&mut cluster, steps, BUDGET, &engine, ckpt, acc)
            .expect("run completes");
    let beats = cluster.take_obs().expect("writer still attached").beats();
    output(cluster, sys, report, traces).record(1).emit_final(sinks).expect("final record");
    (split_stream(sinks), beats)
}

/// [`in_process_beats`] on two shard workers behind a coordinator.
fn sharded_beats(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    every: u64,
    ckpt: Option<CheckpointConfig>,
    resume: Option<std::path::PathBuf>,
    sinks: &ObsSinkConfig,
) -> (Stream, u64) {
    let engine = EngineConfig::auto().with_trace(TraceConfig::sync()).with_heartbeat_every(every);
    let obs = Some(sinks.clone());
    let opts = ShardOpts { budget: BUDGET, ckpt, resume, obs, ..Default::default() };
    let mut run = run_sharded(cfg, sys, steps, &engine, 2, opts).expect("sharded run completes");
    let beats = run.replica.take_obs().map_or(0, |obs| obs.beats());
    let out = RunOutput::from_sharded(run, sys.clone());
    out.record(2).emit_final(sinks).expect("final record");
    (split_stream(sinks), beats)
}

fn split_stream(sinks: &ObsSinkConfig) -> Stream {
    let mut records = parse_jsonl(sinks.heartbeat_out.as_ref().expect("a stream"));
    let fin = records.pop().expect("a final record");
    assert_eq!(fin.get("type").and_then(Json::as_str), Some("final"));
    (records, fin)
}

/// What a beat says about the run: its step and its counters (steps
/// done, cycles, productive and stall cycles).
fn beat_facts(beats: &[Json]) -> Vec<String> {
    let facts = |r: &Json| format!("{} {}", int(r, "step"), r.get("counters").unwrap().compact());
    beats.iter().map(facts).collect()
}

#[test]
fn beats_are_a_function_of_the_run() {
    let sys = workload();
    let dir = tmpdir("paths");
    let sinks = ObsSinkConfig { heartbeat_out: Some(dir.join("beats.jsonl")), prom_out: None };
    let mut straggler = config(None, false);
    straggler.straggler = Some((3, 400));
    let lossy = config(Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true);
    let cases = [
        ("clean", config(None, false), 1, false),
        ("drop 5%", lossy, 1, false),
        ("straggler", straggler, 1, false),
        ("checkpointed", config(None, false), 2, true),
    ];
    for (name, cfg, every, checkpointed) in cases {
        let ckpt = |tag: &str| checkpointed.then(|| CheckpointConfig::new(1, dir.join(tag)));
        let oracle = EngineConfig::serial();
        let ((want, _), _) =
            in_process_beats(&cfg, &sys, STEPS, oracle, every, ckpt("oracle").as_ref(), None, &sinks);
        assert_eq!(want.len() as u64, STEPS / every, "{name}: one beat per boundary");
        let check = |tag: &str, (beats, fin): Stream| {
            assert_eq!(beat_facts(&beats), beat_facts(&want), "{tag}: beats differ from the oracle's");
            let totals = Json::obj().field("counters", fin.get("counters").unwrap().clone()).build();
            assert_beats_track_totals(&beats, &totals, tag);
        };
        for threads in 1..=4 {
            let tag = format!("{name}, {threads} threads");
            let engine = EngineConfig::auto().with_threads(threads);
            let (stream, _) =
                in_process_beats(&cfg, &sys, STEPS, engine, every, ckpt(&tag).as_ref(), None, &sinks);
            check(&tag, stream);
        }
        let (stream, _) = sharded_beats(&cfg, &sys, STEPS, every, ckpt("sharded"), None, &sinks);
        check(&format!("{name}, 2 shards"), stream);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_run_beats_only_the_boundaries_it_runs() {
    const RESUMED_STEPS: u64 = 6;
    let sys = workload();
    let cfg = config(None, false);
    let dir = tmpdir("resume");
    let sinks = ObsSinkConfig { heartbeat_out: Some(dir.join("beats.jsonl")), prom_out: None };
    let ck = CheckpointConfig::new(1, dir.join("ck"));
    let mut cluster = Cluster::new(cfg.clone(), &sys);
    let run = run_with_checkpoints(&mut cluster, 3, BUDGET, &EngineConfig::auto(), Some(&ck), ClusterRunReport::new())
        .expect("first leg completes");
    let at_3 = run.checkpoints.last().expect("a checkpoint at step 3").clone();

    let check = |tag: &str, ((beats, _), count): (Stream, u64)| {
        let steps: Vec<i64> = beats.iter().map(|r| int(r, "step")).collect();
        assert_eq!(steps, [4, 5, 6], "{tag}: a run resumed at step 3 beats steps 4..6 only");
        assert_eq!(count, RESUMED_STEPS - 3, "{tag}: one beat per boundary run");
    };
    for threads in [1, 2] {
        let engine = EngineConfig::auto().with_threads(threads);
        let run = in_process_beats(&cfg, &sys, RESUMED_STEPS, engine, 1, None, Some(&at_3), &sinks);
        check(&format!("{threads} threads"), run);
    }
    check("2 shards", sharded_beats(&cfg, &sys, RESUMED_STEPS, 1, None, Some(at_3), &sinks));
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Per-worker rows
// -------------------------------------------------------------------------

#[test]
fn beats_from_two_workers_carry_a_row_per_worker() {
    let sys = workload();
    let dir = tmpdir("rows");
    let sinks = ObsSinkConfig {
        heartbeat_out: Some(dir.join("beats.jsonl")),
        prom_out: Some(dir.join("beats.prom")),
    };
    let cfg = config(None, false);

    for carrier in ["in-process", "sharded"] {
        for (every, ckpt) in [(1, None), (2, Some(CheckpointConfig::new(1, dir.join("ck"))))] {
            let ctx = format!("{carrier}, cadence {every}, checkpointed: {}", ckpt.is_some());
            let engine = EngineConfig::auto().with_trace(TraceConfig::full());
            let out = if carrier == "sharded" {
                let obs = Some(sinks.clone());
                let opts = ShardOpts { budget: BUDGET, ckpt, obs, ..Default::default() };
                let engine = engine.with_heartbeat_every(every);
                let run = run_sharded(&cfg, &sys, STEPS, &engine, 2, opts).expect("sharded run");
                RunOutput::from_sharded(run, sys.clone())
            } else {
                let mut cluster = Cluster::new(cfg.clone(), &sys);
                cluster.attach_obs(Box::new(ObsLive::new(every, &sinks).expect("sinks open")));
                let engine = engine.with_threads(2);
                let CheckpointedRun { report, traces, .. } = run_with_checkpoints(
                    &mut cluster,
                    STEPS,
                    BUDGET,
                    &engine,
                    ckpt.as_ref(),
                    ClusterRunReport::new(),
                )
                .expect("windowed run completes");
                output(cluster, &sys, report, traces)
            };
            assert_eq!(out.report.steps, STEPS);

            let records = parse_jsonl(&sinks.heartbeat_out.clone().unwrap());
            assert_beats_track_totals(&records, &obs_section(&out, 2), &ctx);
            let mut last_beat = 0;
            const GAUGES: [&str; 5] =
                ["windows", "events_sent", "frame_bytes", "compute_ns", "wait_ns"];
            let mut last_gauges = [[0i64; GAUGES.len()]; 2];
            for rec in &records {
                let beat = rec.get("beat").unwrap().as_i64().unwrap();
                assert!(beat > last_beat, "beat counter must increase");
                last_beat = beat;
                let rows = rec.get("workers").expect("a row per worker").items();
                assert_eq!(rows.len(), 2, "one row per worker");
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(row.get("worker").unwrap().as_i64(), Some(i as i64));
                    assert!(row.get("nodes").unwrap().as_str().unwrap().contains(".."));
                    assert!(row.get("retransmits").and_then(Json::as_i64).is_some());
                    // Where the worker's wall time goes: exchange gauges
                    // banked across segments, so none of them ever runs
                    // backwards.
                    let now = GAUGES.map(|name| row.get(name).and_then(Json::as_i64).unwrap_or(-1));
                    for (name, (n, last)) in GAUGES.iter().zip(now.iter().zip(&last_gauges[i])) {
                        assert!(n >= last && *n >= 0, "{name} gauge ran backwards on worker {i}: {now:?}");
                    }
                    last_gauges[i] = now;
                    let [windows, _, frame_bytes, compute_ns, wait_ns] = now;
                    assert!(windows >= 1, "a beat without an exchange window on worker {i}");
                    // Socket workers always have a frame to send; threads
                    // hand theirs over as values and put no bytes anywhere.
                    if carrier == "sharded" {
                        assert!(frame_bytes > 0, "two shards always have a frame to send");
                    } else {
                        assert_eq!(frame_bytes, 0, "a thread handoff puts no bytes on a carrier");
                    }
                    // wait_share is the blocked share of compute + wait time.
                    let share = row.get("wait_share").and_then(Json::as_f64).expect("wait_share");
                    let want = wait_ns as f64 / (compute_ns + wait_ns).max(1) as f64;
                    assert!((share - want).abs() < 1e-9, "wait_share {share} != {want} on worker {i}");
                }
                // Progress gauges never leak into the compared sections.
                for section in ["counters", "gauges"] {
                    let text = rec.get(section).map(Json::compact).unwrap_or_default();
                    for name in ["windows", "events_sent", "frame_bytes", "compute_ns", "wait_ns", "wait_share"] {
                        assert!(!text.contains(name), "{name} leaked into {section}: {text}");
                    }
                }
            }

            // The scrape file holds the last beat's counters.
            let prom = std::fs::read_to_string(sinks.prom_out.clone().unwrap()).expect("scrape file");
            assert!(prom.contains(&format!("fasda_steps_done_total {STEPS}\n")), "{ctx}: {prom}");
        }
    }
    // One worker's beats have no rows: the counters are the whole story.
    let mut cluster = Cluster::new(cfg, &sys);
    cluster.attach_obs(Box::new(ObsLive::new(1, &sinks).expect("sinks open")));
    cluster.try_run_with(STEPS, BUDGET, &EngineConfig::auto().with_threads(1)).expect("run completes");
    let records = parse_jsonl(&sinks.heartbeat_out.clone().unwrap());
    assert!(records.iter().all(|r| r.get("workers").is_none()), "rows on a one-worker beat");
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Heartbeat continuity across a partition-with-heal window
// -------------------------------------------------------------------------

#[test]
fn heartbeats_stay_continuous_across_partition_heal() {
    // Beats fire on step boundaries, so a partition window stretches
    // *cycles* (retransmission storms on the severed links) but must
    // never open a gap in the beat stream: with cadence 1 no two
    // consecutive beats — nor start-of-run to first beat, nor last beat
    // to end-of-run — may be more than 2× the cadence apart.
    let every = 1u64;
    let limit = 2 * every;
    let sys = workload();
    let dir = tmpdir("continuity");
    let sinks = ObsSinkConfig {
        heartbeat_out: Some(dir.join("beats.jsonl")),
        prom_out: None,
    };

    // Halves sever at step 1 and heal mid-run; reliability on, so the
    // retransmit timers outlive the window and the run completes. The
    // second plan stretches every step instead: 5 % uniform loss.
    let partition = FaultPlan::none()
        .with_seed(0x0B5)
        .with_partition(vec![0, 1, 2, 3], vec![4, 5, 6, 7], 1, 6_000);
    for (engine_name, engine) in engines() {
        let plans = [("partition", partition.clone()), ("drop 5%", FaultPlan::drop_only(0.05, 0xC4A05))];
        for (plan_name, plan) in plans {
            let name = format!("{engine_name}, {plan_name}");
            let mut cluster = Cluster::new(config(Some(plan), true), &sys);
            cluster.attach_obs(Box::new(ObsLive::new(every, &sinks).expect("sinks open")));
            let report = cluster
                .try_run_with(STEPS, BUDGET, &engine)
                .expect("faulted run heals and completes");
            assert!(report.faults_injected > 0, "{name}: plan injected nothing");

            let seen: Vec<u64> = parse_jsonl(&sinks.heartbeat_out.clone().unwrap())
                .iter()
                .filter(|rec| rec.get("type").unwrap().as_str() == Some("beat"))
                .map(|rec| rec.get("step").unwrap().as_i64().unwrap() as u64)
                .collect();
            assert!(!seen.is_empty(), "{name}: no heartbeats emitted");
            let mut max_gap = seen[0]; // start-of-run to first beat
            for w in seen.windows(2) {
                max_gap = max_gap.max(w[1] - w[0]);
            }
            max_gap = max_gap.max(STEPS - seen.last().unwrap()); // last beat to end
            assert!(
                max_gap <= limit,
                "{name}: heartbeat gap of {max_gap} steps exceeds {limit} (2x cadence)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// §5 model end to end: plumbing and the divergence gate
// -------------------------------------------------------------------------

#[test]
fn model_divergence_computes_from_a_real_run() {
    // Not the shared harness workload: `Gate::default()`'s thresholds were
    // calibrated on this one (4 Na/cell, one serial step at sync-level
    // tracing), and the sparser 3/cell workload sits just outside two of
    // them (occupancy 0.157 vs 0.15, frc packets 0.111 vs 0.10).
    let sys = workload_of(4, 0xFA5DA);
    let cfg = config(None, false);
    let engine = EngineConfig::serial()
        .with_trace(TraceConfig { level: TraceLevel::Sync, ..TraceConfig::full() });
    let mut cluster = Cluster::new(cfg.clone(), &sys);
    let report = cluster.try_run_with(1, BUDGET, &engine).expect("run completes");
    let trace = cluster.take_trace().expect("tracing was on");

    let input = model_input(&cfg, (6, 6, 6), sys.len() as f64 / 216.0);
    let pred = fasda_obs::model::predict(&input);
    let meas = measured_from(&report, Some(&trace.stalls));
    let div = fasda_obs::model::Divergence::compare(&pred, &meas);
    assert!(div.cycles_rel.is_finite());
    assert!(div.occupancy_abs.is_finite());
    assert!(meas.occupancy > 0.0 && meas.occupancy <= 1.0);
    let gate = fasda_obs::model::Gate::default();
    let violations = div.violations(&gate, &meas);
    assert!(violations.is_empty(), "§5 model diverged beyond gate: {violations:?}");
}
