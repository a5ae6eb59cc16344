//! Live-telemetry acceptance (DESIGN.md §12): a run record's totals are
//! an *identity artifact* — a pure function of the engine- and
//! shard-invariant run report and stall ledger, so serial, fast, and
//! sharded runs must render byte-identical `obs` sections, clean or
//! under a 5% drop schedule. Heartbeat streams are a progress view:
//! well-formed JSONL with monotonic steps and non-decreasing counters,
//! ending on a `final` record and a scrape file that hold the record's
//! totals, and — in sharded runs — fleet records naming the lagging
//! shard.

mod harness;

use fasda_cluster::{
    measured_from, model_input, run_sharded, run_with_checkpoints, CheckpointConfig,
    CheckpointedRun, Cluster, ClusterRunReport, EngineConfig, FaultPlan, HostCosts, ObsLive,
    ObsSinkConfig, RunOutput, ShardOpts, Trace, TraceConfig, TraceLevel,
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

/// The contract of a heartbeat stream — in-process `beat` and sharded
/// `fleet` records alike, checkpointed or not: every record reports the
/// run's step target and `progress = step / steps`, no counter ever
/// decreases, and the beat at the last step carries the run's final
/// productive and stall totals (`totals`, a record's `obs` section).
fn assert_beats_track_totals(beats: &[Json], kind: &str, totals: &Json, ctx: &str) {
    assert!(!beats.is_empty(), "{ctx}: no {kind} records");
    let mut last_step = 0;
    let mut last: Option<Vec<(String, i64)>> = None;
    for rec in beats {
        assert_eq!(rec.get("type").and_then(Json::as_str), Some(kind), "{ctx}");
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
    for key in ["productive_cycles", "stall_cycles"] {
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
    let engine = EngineConfig::serial().with_trace(TraceConfig::full());

    // One segment at cadence 1, then a checkpoint every step at cadence
    // 2: the cluster banks each segment's stall ledger, so the beats
    // still count the whole run.
    for (every, ckpt) in [(1, None), (2, Some(CheckpointConfig::new(1, dir.join("ck"))))] {
        let ctx = format!("cadence {every}, checkpointed: {}", ckpt.is_some());
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
        assert_beats_track_totals(beats, "beat", want, &ctx);
        // The progress gauges ride along on every beat.
        for rec in beats {
            let gauges = rec.get("gauges").unwrap();
            for g in ["wall_s", "steps_per_s", "eta_s", "progress"] {
                assert!(gauges.get(g).is_some(), "{ctx}: missing gauge {g}");
            }
        }

        // Prometheus text format: every line is a comment or `name
        // value`, names carry the fasda prefix, values parse as floats.
        // The scrape written with the final record holds its totals: each
        // `fasda_<name>_total` sample, labeled or not, is the final
        // record's counter of that name, and every counter has one.
        let prom = std::fs::read_to_string(sinks.prom_out.clone().unwrap()).expect("scrape file");
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
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Fleet heartbeats from a sharded run
// -------------------------------------------------------------------------

#[test]
fn sharded_run_emits_fleet_beats_naming_lagging_shard() {
    let sys = workload();
    let dir = tmpdir("fleet");
    let sinks = ObsSinkConfig {
        heartbeat_out: Some(dir.join("fleet.jsonl")),
        prom_out: Some(dir.join("fleet.prom")),
    };

    for (every, ckpt) in [(1, None), (2, Some(CheckpointConfig::new(1, dir.join("ck"))))] {
        let ctx = format!("cadence {every}, checkpointed: {}", ckpt.is_some());
        let run = run_sharded(
            &config(None, false),
            &sys,
            STEPS,
            &EngineConfig::serial()
                .with_trace(TraceConfig::full())
                .with_heartbeat_every(every),
            2,
            ShardOpts { budget: BUDGET, ckpt, resume: None, obs: Some(sinks.clone()), ..Default::default() },
        )
        .expect("sharded run completes");
        assert_eq!(run.report.steps, STEPS);

        let records = parse_jsonl(&sinks.heartbeat_out.clone().unwrap());
        let totals = obs_section(&RunOutput::from_sharded(run, sys.clone()), 2);
        assert_beats_track_totals(&records, "fleet", &totals, &ctx);
        let mut last_beat = 0;
        const GAUGES: [&str; 5] = ["windows", "events_sent", "frame_bytes", "compute_ns", "wait_ns"];
        let mut last_gauges = [[0i64; GAUGES.len()]; 2];
        for rec in &records {
            let beat = rec.get("beat").unwrap().as_i64().unwrap();
            assert!(beat > last_beat, "beat counter must increase");
            last_beat = beat;
            assert!(rec.get("lag_steps").unwrap().as_i64().unwrap() >= 0);
            let lagging = rec.get("lagging_shard").unwrap().as_i64().unwrap();
            assert!((0..2).contains(&lagging), "lagging shard out of range");
            let shards = rec.get("shards").unwrap().items();
            assert_eq!(shards.len(), 2, "one sample per shard");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.get("shard").unwrap().as_i64(), Some(i as i64));
                assert!(s.get("nodes").unwrap().as_str().unwrap().contains(".."));
                assert!(s.get("min_step").unwrap().as_i64().is_some());
                // Where the shard's wall time goes: cumulative exchange
                // gauges, so none of them ever runs backwards.
                let now = GAUGES.map(|name| s.get(name).and_then(Json::as_i64).unwrap_or(-1));
                for (name, (n, last)) in GAUGES.iter().zip(now.iter().zip(&last_gauges[i])) {
                    assert!(n >= last && *n >= 0, "{name} gauge ran backwards on shard {i}: {now:?}");
                }
                last_gauges[i] = now;
                let [windows, _, frame_bytes, compute_ns, wait_ns] = now;
                assert!(windows >= 1, "a beat without an exchange window on shard {i}");
                assert!(frame_bytes > 0, "two shards always have a frame to send");
                // wait_share is the blocked share of compute + wait time.
                let share = s.get("wait_share").and_then(Json::as_f64).expect("wait_share");
                let want = wait_ns as f64 / (compute_ns + wait_ns).max(1) as f64;
                assert!((share - want).abs() < 1e-9, "wait_share {share} != {want} on shard {i}");
            }
            // Progress gauges never leak into the byte-compared sections.
            for section in ["counters", "gauges"] {
                let text = rec.get(section).map(Json::compact).unwrap_or_default();
                for name in ["windows", "events_sent", "frame_bytes", "compute_ns", "wait_ns", "wait_share"] {
                    assert!(!text.contains(name), "{name} leaked into {section}: {text}");
                }
            }
        }

        // The fleet scrape file exists and exposes per-shard progress.
        let prom = std::fs::read_to_string(sinks.prom_out.clone().unwrap()).expect("scrape file");
        assert!(prom.contains("fasda_fleet_shard_min_step_total{shard=\"0\"}"));
        assert!(prom.contains("fasda_fleet_shard_min_step_total{shard=\"1\"}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------
// Heartbeat continuity across a partition-with-heal window
// -------------------------------------------------------------------------

#[test]
fn heartbeats_stay_continuous_across_partition_heal() {
    // The in-run sampler beats on step boundaries, so a partition window
    // stretches *cycles* (retransmission storms on the severed links)
    // but must never open a gap in the beat stream: with cadence 1 no
    // two consecutive beats — nor start-of-run to first beat, nor last
    // beat to end-of-run — may be more than 2× the cadence apart.
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
    for (name, plan) in [("partition", partition), ("drop 5%", FaultPlan::drop_only(0.05, 0xC4A05))] {
        let mut cluster = Cluster::new(config(Some(plan), true), &sys);
        cluster.attach_obs(Box::new(ObsLive::new(every, &sinks).expect("sinks open")));
        let report = cluster
            .try_run_with(STEPS, BUDGET, &EngineConfig::serial())
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
