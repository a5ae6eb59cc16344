//! `fasda run` and `fasda serve` end to end, through the built binary.
//!
//! Every way of running — plain, checkpointed, resumed, `--recover`,
//! `--shards` over either carrier, `--serial`, a daemon's job — goes
//! through one `RunSpec` → `run()` path. Equality of those paths with each other cannot see an error made
//! in all of them, so the first test compares against bytes written by the
//! **parent commit's** binary (`tests/golden/`: `plain.*` / `ckpt.*` cut
//! before the four hand-copied run/report paths were merged, `chaos.*`
//! before the driver's four fault-outcome matches were); the rest prove
//! the paths equal, faults and crashes healed, and the invalid inputs
//! typed.

use fasda_cluster::Json;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The workload most tests run: 8 nodes, 648 atoms.
const RUN: &[&str] = &["run", "--per-fpga", "333", "--total", "666", "--per-cell", "3"];

/// 8 nodes at the paper's density, 64 atoms a cell: 4,096 atoms.
const DENSE: &[&str] = &["run", "--per-fpga", "222", "--total", "444"];

/// Every fault outcome at once, healed by the reliability layer the plan
/// switches on: frames of this run reach every arm of the driver's fault
/// match, data and acks alike.
const CHAOS: [&str; 4] = [
    "--steps",
    "2",
    "--fault-plan",
    "drop=0.03,corrupt=0.02,dup=0.03,delay=0.05:700,seed=9,kill=frc:0->1:1,kill=pos:3->2:1",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fasda-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Run `fasda-cli args..` in `dir`, which is also its temp dir.
fn cli(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fasda-cli"))
        .args(args)
        .current_dir(dir)
        .env("TMPDIR", dir)
        .output()
        .expect("spawn fasda-cli")
}

/// Run `fasda-cli RUN.. args..` in `dir`.
fn fasda(dir: &Path, args: &[&str]) -> Output {
    cli(dir, &[RUN, args].concat())
}

/// Run to success with the artifact flags and the flight recorder at
/// `sync` unless `args` name a level; returns (dump, metrics document).
fn artifacts(dir: &Path, tag: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let (state, metrics, _) = artifacts_said(dir, tag, args);
    (state, metrics)
}

/// [`artifacts`], plus what the run printed.
fn artifacts_said(dir: &Path, tag: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>, String) {
    artifacts_at(dir, RUN, tag, args)
}

/// [`artifacts_said`] on the workload `geometry` names.
fn artifacts_at(dir: &Path, geometry: &[&str], tag: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>, String) {
    let (state, metrics) = (format!("{tag}.state"), format!("{tag}.metrics.json"));
    let out = cli(
        dir,
        &[geometry, args, &["--dump-state", &state, "--metrics-out", &metrics, "--trace-level", "sync"]]
            .concat(),
    );
    assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
    let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
    (read(&state), read(&metrics), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn parse(bytes: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(bytes).expect("utf-8")).expect("json document")
}

fn run_section(metrics: &[u8]) -> Json {
    parse(metrics).get("run").expect("run section").clone()
}

/// The metrics document's `obs` section: the run's totals, rendered.
fn obs_section(metrics: &[u8]) -> String {
    parse(metrics).get("obs").expect("obs section").pretty()
}

/// A metrics document without its `trace.engine_*` counters: the fast
/// engine's private event stream (fast-forward jumps) is the one thing
/// the serial oracle legitimately lacks.
fn engine_invariant(metrics: &[u8]) -> Json {
    let mut doc = parse(metrics);
    let Json::Obj(sections) = &mut doc else { panic!("metrics document is not an object") };
    let Some((_, Json::Obj(trace))) = sections.iter_mut().find(|(k, _)| k == "trace") else {
        panic!("no trace section")
    };
    let before = trace.len();
    trace.retain(|(k, _)| k != "engine_events" && k != "engine_dropped");
    assert_eq!(trace.len(), before - 2, "trace section lacks its engine counters");
    doc
}

fn int(doc: &Json, key: &str) -> i64 {
    doc.get(key).and_then(Json::as_i64).unwrap_or_else(|| panic!("no integer {key}"))
}

/// The metrics document's `stalls` node totals add up to its `obs`
/// counters: both cover every segment of the run.
fn assert_stalls_are_the_obs_totals(metrics: &[u8], tag: &str) {
    let doc = parse(metrics);
    let counters = doc.get("obs").and_then(|o| o.get("counters")).expect("obs counters");
    let totals: Vec<Json> = doc
        .get("stalls")
        .expect("stalls section")
        .get("nodes")
        .expect("stall nodes")
        .items()
        .iter()
        .map(|n| n.get("total").expect("node total").clone())
        .collect();
    let sum = |key: &str| totals.iter().map(|t| int(t, key)).sum::<i64>();
    assert_eq!(sum("productive"), int(counters, "productive_cycles"), "{tag}: productive");
    let Some(Json::Obj(causes)) = counters.get("stall_cycles") else {
        panic!("{tag}: no stall_cycles counters");
    };
    for (cause, cycles) in causes {
        assert_eq!(Some(sum(cause)), cycles.as_i64(), "{tag}: {cause} stalls");
    }
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name))
        .expect(name)
}

#[test]
fn artifacts_match_the_parent_commit() {
    let dir = tmpdir("golden");
    let (state, metrics) = artifacts(&dir, "plain", &["--steps", "2"]);
    assert!(state == golden("run.state"), "plain dump moved");
    assert!(metrics == golden("plain.metrics.json"), "plain metrics document moved");
    assert_stalls_are_the_obs_totals(&metrics, "plain");

    let ckpt = ["--steps", "2", "--checkpoint-every", "1", "--checkpoint-dir", "ck"];
    let (state, metrics) = artifacts(&dir, "ckpt", &ckpt);
    // Segmentation moves the cycle accounting, never the physics.
    assert!(state == golden("run.state"), "checkpointed dump moved");
    assert!(metrics == golden("ckpt.metrics.json"), "checkpointed metrics document moved");
    assert_stalls_are_the_obs_totals(&metrics, "ckpt");

    let (state, metrics) = artifacts(&dir, "chaos", &CHAOS);
    // Faults under reliable delivery move the cycle accounting too, and
    // still never the physics.
    assert!(state == golden("run.state"), "faulted dump moved");
    assert!(metrics == golden("chaos.metrics.json"), "faulted metrics document moved");
    assert_stalls_are_the_obs_totals(&metrics, "chaos");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_run_path_agrees() {
    let dir = tmpdir("paths");
    let (plain, plain_m) = artifacts(&dir, "plain", &["--steps", "2"]);
    let (serial, serial_m) = artifacts(&dir, "serial", &["--steps", "2", "--serial"]);
    let sharded = ["--steps", "2", "--shards", "2", "--shard-listen", "unix:rdv/ctl.sock"];
    let (shard, shard_m, said) =
        artifacts_said(&dir, "shard", &[&sharded[..], &["--heartbeat-out", "fleet.jsonl"]].concat());
    assert!(said.contains("listening on unix:rdv/ctl.sock"), "not the Unix carrier: {said}");
    // The same two workers meshed over loopback TCP, the carrier that
    // can cross hosts; port 0 lets the coordinator pick a free port.
    let tcp = ["--steps", "2", "--shards", "2", "--shard-listen", "tcp:127.0.0.1:0"];
    let (tcp, tcp_m, said) = artifacts_said(&dir, "tcp", &tcp);
    assert!(said.contains("listening on tcp:127.0.0.1:"), "not the TCP carrier: {said}");
    let ckpt_args = ["--steps", "2", "--checkpoint-every", "1", "--checkpoint-dir"];
    let (ckpt, ckpt_m) = artifacts(&dir, "ckpt", &[&ckpt_args[..], &["ck"]].concat());
    let (rec, rec_m) =
        artifacts(&dir, "rec", &[&ckpt_args[..], &["ck-rec", "--recover", "2"]].concat());

    let dumps = [("serial", &serial), ("shard", &shard), ("tcp", &tcp), ("ckpt", &ckpt), ("rec", &rec)];
    for (name, dump) in dumps {
        assert!(*dump == plain, "{name} dump differs from the plain run's");
    }
    // One segment: engine, shard count and carrier are invisible in the
    // report ...
    for metrics in [&serial_m, &shard_m, &tcp_m] {
        assert_eq!(run_section(metrics), run_section(&plain_m));
    }
    // ... and in the rendered totals, byte for byte.
    let plain_o = obs_section(&plain_m);
    assert_eq!(obs_section(&serial_m), plain_o, "obs section differs across engines");
    assert_eq!(obs_section(&shard_m), plain_o, "obs section differs across shard counts");
    assert_eq!(obs_section(&tcp_m), plain_o, "obs section differs across shard carriers");
    // The sharded stream is fleet beats; the last one carries the totals.
    let beats = std::fs::read_to_string(dir.join("fleet.jsonl")).expect("fleet stream");
    let fleet: Vec<Json> = beats
        .lines()
        .map(|l| Json::parse(l).expect("heartbeat json"))
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("fleet"))
        .collect();
    let last = fleet.last().and_then(|r| r.get("counters")).expect("fleet beats");
    let totals = parse(&shard_m);
    for key in ["productive_cycles", "stall_cycles"] {
        let want = totals.get("obs").and_then(|o| o.get("counters")).and_then(|c| c.get(key));
        assert_eq!(last.get(key), want, "last fleet beat's {key}");
    }
    // Two segments re-arm the nodes once more; recovery with nothing to
    // recover from is that same run.
    assert_eq!(run_section(&rec_m), run_section(&ckpt_m));

    // The same holds with every fault outcome in play, where the shard
    // workers split each crossing between its two owners. Without
    // --shard-listen the control socket's directory is the run's own, in
    // the temp dir, and goes with it.
    // The oracle agrees under faults too, with the full flight recorder
    // on: its metrics document is the default engine's but for the
    // engine-private trace counters.
    let full = |out: &'static str| ["--trace-level", "full", "--trace-out", out];
    let (chaos, chaos_m) =
        artifacts(&dir, "chaos", &[&CHAOS[..], &full("chaos.trace.json")].concat());
    let serial = [&CHAOS[..], &["--serial"], &full("chaos-serial.trace.json")].concat();
    let (chaos_s, chaos_sm) = artifacts(&dir, "chaos-serial", &serial);
    let (chaos_2, chaos_2m) =
        artifacts(&dir, "chaos2", &[&CHAOS[..], &["--shards", "2"]].concat());
    assert!(chaos == plain && chaos_2 == plain, "faulted dump differs from the plain run's");
    assert!(chaos_s == plain, "faulted --serial dump differs from the plain run's");
    assert_eq!(engine_invariant(&chaos_sm), engine_invariant(&chaos_m), "faulted metrics differ across engines");
    assert_eq!(run_section(&chaos_2m), run_section(&chaos_m));
    let chaos_o = obs_section(&chaos_m);
    assert_eq!(obs_section(&chaos_2m), chaos_o, "faulted obs section differs across shard counts");
    let left: Vec<_> =
        std::fs::read_dir(&dir).expect("list test dir").flatten().map(|e| e.file_name()).collect();
    let stray = left.iter().any(|f| f.to_string_lossy().starts_with("fasda-shard-"));
    assert!(!stray, "rendezvous directory left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_run_writes_every_artifact() {
    let dir = tmpdir("recover");
    let (want, _) = artifacts(&dir, "ref", &["--steps", "3"]);
    let out = fasda(
        &dir,
        &[
            "--steps", "3", "--fault-plan", "crash=1@2", "--unreliable",
            "--checkpoint-every", "1", "--checkpoint-dir", "ck", "--recover", "2",
            "--dump-state", "rec.state", "--trace-out", "rec.trace.json",
            "--metrics-out", "rec.metrics.json",
            "--heartbeat-out", "rec.beats.jsonl",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("recovered: crash: node 1 at step 2"), "{stdout}");
    assert!(std::fs::read(dir.join("rec.state")).expect("dump") == want, "recovered dump differs");
    // --recover used to ignore --trace-out and every obs flag.
    let trace = std::fs::read_to_string(dir.join("rec.trace.json")).expect("trace written");
    assert!(trace.contains("traceEvents"), "not a chrome trace");
    let metrics = std::fs::read(dir.join("rec.metrics.json")).expect("metrics written");
    let doc = Json::parse(std::str::from_utf8(&metrics).unwrap()).expect("metrics json");
    assert_eq!(doc.get("restarts").map(|r| r.items().len()), Some(1));
    assert!(doc.get("stalls").is_some() && doc.get("obs").is_some());
    // The heartbeat stream's final record carries the metrics document's
    // obs totals exactly, plus what the run cost the host.
    let obs = doc.get("obs").expect("obs section");
    let beats = std::fs::read_to_string(dir.join("rec.beats.jsonl")).expect("heartbeats written");
    let last = beats.lines().last().map(|l| Json::parse(l).expect("final record json"));
    let fin = last.expect("a final record");
    assert_eq!(fin.get("type").and_then(Json::as_str), Some("final"));
    for section in ["counters", "hists"] {
        assert_eq!(fin.get(section), obs.get(section), "final record {section} is not the obs section");
    }
    let host = fin.get("host").expect("host costs");
    for key in ["wall_s", "step_ms", "save_ms", "restore_ms"] {
        let v = host.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite() && v >= 0.0, "host {key} = {v}: {}", host.compact());
    }
    // ... which is all a checkpoint policy needs besides the failure rate.
    let policy = cli(&dir, &["ckpt", "policy", "--failure-rate", "0.001", "--bench", "rec.beats.jsonl"]);
    let stdout = String::from_utf8_lossy(&policy.stdout);
    assert!(policy.status.success(), "{}", String::from_utf8_lossy(&policy.stderr));
    assert!(stdout.starts_with("measured costs: step ") && !stdout.contains("not measured"), "{stdout}");

    // Its checkpoints are at step 3: resuming them into a 2-step run is an
    // error naming the flag, not the runner's assert — from the directory
    // or the file, in-process or sharded.
    let latest = ["--checkpoint-every", "1", "--checkpoint-dir", "ck", "--resume", "latest"];
    let file = ["--resume", "ck/ckpt-0000000003.fckp"];
    let sharded = ["--shards", "2", "--shard-listen", "unix:rdv/ctl.sock"];
    for resume in [&latest[..], &file] {
        for shards in [&[][..], &sharded] {
            let out = fasda(&dir, &[&["--steps", "2"][..], resume, shards].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{resume:?} {shards:?}: {stderr}");
            assert!(stderr.starts_with("error: resume: ") && stderr.contains("step 3"), "{stderr}");
        }
    }
    // A resume that is allowed says where it resumed from, whichever path
    // runs it: the file it found at step 3, or an empty directory.
    let replay = ["--steps", "3", "--fault-plan", "crash=1@2", "--unreliable"];
    let empty = ["--checkpoint-every", "1", "--checkpoint-dir", "none", "--resume", "latest"];
    for (resume, says) in [
        (&latest[..], "resumed from ck/ckpt-0000000003.fckp (step 3)"),
        (&file, "resumed from ck/ckpt-0000000003.fckp (step 3)"),
        (&empty, "no checkpoint in none; starting from step 0"),
    ] {
        for shards in [&[][..], &sharded] {
            let out = fasda(&dir, &[&replay[..], resume, shards].concat());
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{resume:?} {shards:?}: {stderr}");
            assert!(stdout.lines().any(|l| l == says), "{resume:?} {shards:?}: {stdout}");
            let _ = std::fs::remove_dir_all(dir.join("none"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash, resumed by hand, and each class of correlated failure in the
/// `--fault-plan` grammar end on the state of the uninterrupted run, on a
/// system at the paper's density.
#[test]
fn crashed_and_faulted_runs_end_on_the_reference_state() {
    let dir = tmpdir("faults");
    let dense = |tag: &str, args: &[&str]| artifacts_at(&dir, DENSE, tag, args);
    // The flight recorder stays off: the stall ledger is not checkpointed,
    // so a resumed run's stall totals would start at the resume.
    let cadence = ["--steps", "6", "--trace-level", "off", "--checkpoint-every", "2", "--checkpoint-dir"];
    let (want, want_m, _) = dense("ref", &[&cadence[..], &["ref-ck"]].concat());
    // Node 1 dies mid-step 5. --unreliable keeps the crash-only plan from
    // arming the reliability layer the reference run does not have.
    let crashing = [&cadence[..], &["ck", "--fault-plan", "crash=1@5", "--unreliable"]].concat();
    let out = cli(&dir, &[DENSE, &crashing].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && !stderr.contains("panicked"), "{stderr}");
    // The same argv resumed from the newest checkpoint finishes the run:
    // its dump and its whole metrics document are the reference's.
    let (state, metrics, _) = dense("resumed", &[&crashing[..], &["--resume", "latest"]].concat());
    assert!(state == want, "resumed dump differs from the uninterrupted run's");
    assert!(metrics == want_m, "resumed metrics document differs from the uninterrupted run's");

    // Burst loss and a partition that heals mid-run are absorbed by
    // reliable delivery; two staggered crashes by --recover's restarts.
    for (tag, cell, fired) in [
        ("burst", &["--fault-plan", "burst=0.05:0.3:0.9,seed=11"][..], "faults injected: "),
        ("partition", &["--fault-plan", "partition=0..4|4..8:@1+6000,seed=11"], "faults injected: "),
        (
            "crashes",
            &["--fault-plan", "crash=1@3,crash=5@5", "--unreliable", "--checkpoint-every", "2",
              "--checkpoint-dir", "rm-ck", "--recover", "3"],
            "recovered: crash: node 5 at step 5",
        ),
    ] {
        let (state, _, said) = dense(tag, &[&["--steps", "6"][..], cell].concat());
        assert!(said.contains(fired), "{tag}: the plan did nothing: {said}");
        assert!(state == want, "{tag} dump differs from the fault-free run's");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_runs_fail_typed_not_panicking() {
    let dir = tmpdir("invalid");
    // Heartbeat streams whose final record measured no step cost: one
    // usable, one whose save cost reads as +inf, one with a negative
    // restore cost.
    for (name, save, restore) in [("ok.jsonl", "1.0", "1.0"), ("inf.jsonl", "1e999", "1.0"), ("neg.jsonl", "1.0", "-1")] {
        let doc = format!(r#"{{"type": "final", "host": {{"save_ms": {save}, "restore_ms": {restore}}}}}"#);
        std::fs::write(dir.join(name), doc + "\n").expect("write heartbeat stream");
    }
    const POLICY: [&str; 2] = ["ckpt", "policy"];
    const SERVE: [&str; 4] = ["serve", "--dir", "svc", "--policy-bench"];
    for (args, names) in [
        (&["run", "--total", "222", "--per-fpga", "222"][..], "total"),
        (&["run", "--total", "444", "--per-fpga", "333"], "per_fpga"),
        (&["run", "--total", "333", "--per-fpga", "333"], "per_fpga"),
        (&["run", "--total", "666", "--per-fpga", "033"], "per_fpga"),
        (&["run", "--total", "666", "--per-fpga", "333", "--steps", "0"], "steps"),
        (&["run", "--total", "666", "--per-fpga", "333", "--per-cell", "1729"], "per_cell"),
        (&["run", "--total", "666", "--per-fpga", "333", "--per-cell", "-1"], "--per-cell"),
        (&["run", "--total", "666", "--per-fpga", "333", "--steps", "-1"], "--steps"),
        (&["run", "--total", "666", "--per-fpga", "333", "--recover", "2"], "recover"),
        (&["run", "--total", "666", "--per-fpga", "333", "--resume", "latest"], "resume"),
        // Each subcommand's flags are declared once: a misspelt, removed
        // or valueless flag is refused by name, never ignored.
        (&["run", "--total", "666", "--per-fpga", "333", "--heartbeat-evry", "5"], "'--heartbeat-evry'"),
        (&["run", "--total", "666", "--per-fpga", "333", "--shard-dir", "rdv"], "'--shard-dir'"),
        (&["run", "--total", "666", "--per-fpga", "333", "--steps"], "--steps needs a value"),
        (&["run", "--total", "666", "--per-fpga", "333", "--steps", "--serial"], "--steps needs a value"),
        (&["run", "--total", "666", "--per-fpga", "333", "--shards", "2", "--shard-listen", "tcp:7700"], "`tcp:7700`"),
        (&["job", "status", "--connect", "unix:"], "`unix:`"),
        (&["info", "--total", "444", "--per-fpga", "333"], "per_fpga"),
        (&["info", "--total", "444", "--per-fpga", "000"], "per_fpga"),
        (&["info", "--total", "222", "--per-fpga", "222"], "total"),
        (&["info", "--total", "999", "--per-fpga", "999"], "per_fpga"),
        // NaN passes a `< 0.0` test; the policy's one range check does not.
        (&[&POLICY[..], &["--step-ms", "1", "--failure-rate", "nan", "--save-ms", "1", "--restore-ms", "1"]].concat(), "failure rate"),
        (&[&POLICY[..], &["--step-ms", "1", "--failure-rate", "0.1", "--save-ms", "nan", "--restore-ms", "1"]].concat(), "save cost"),
        (&[&POLICY[..], &["--step-ms", "inf", "--failure-rate", "0.1", "--save-ms", "1", "--restore-ms", "1"]].concat(), "step cost"),
        (&[&POLICY[..], &["--step-ms", "1", "--failure-rate", "0.1", "--bench", "inf.jsonl"]].concat(), "save cost"),
        (&[&POLICY[..], &["--step-ms", "1", "--failure-rate", "0.1", "--bench", "neg.jsonl"]].concat(), "restore cost"),
        (&[&SERVE[..], &["ok.jsonl", "--step-ms", "1", "--failure-rate", "nan"]].concat(), "failure rate"),
        (&[&SERVE[..], &["ok.jsonl", "--step-ms", "inf", "--failure-rate", "0.1"]].concat(), "step cost"),
        (&[&SERVE[..], &["inf.jsonl", "--step-ms", "1", "--failure-rate", "0.1"]].concat(), "save cost"),
    ] {
        let out = cli(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(names), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers that die before their HELLO fail the run, naming a worker,
/// instead of leaving the coordinator waiting for them: in a 97-byte
/// directory the control socket's path fits a `sun_path`, the workers'
/// `peer-I.sock` paths do not.
#[test]
fn workers_dying_before_hello_fail_the_run() {
    let dir = tmpdir("sunlen");
    let base = dir.display().to_string().len();
    assert!(base < 96, "temp dir {} too long for this test", dir.display());
    let rdv = dir.join("d".repeat(96 - base));
    assert_eq!(rdv.display().to_string().len(), 97);
    let listen = format!("unix:{}/ctl.sock", rdv.display());
    let mut child = Command::new(env!("CARGO_BIN_EXE_fasda-cli"))
        .args([RUN, &["--steps", "2", "--shards", "2", "--shard-listen", &listen]].concat())
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fasda-cli");
    let (started, deadline) = (Instant::now(), Duration::from_secs(60));
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the coordinator") {
            break status;
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            panic!("the coordinator still waits {deadline:?} after its workers died");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("stderr"), &mut stderr).expect("read stderr");
    assert_eq!(status.code(), Some(1), "{stderr}");
    let said = stderr.lines().find(|l| l.starts_with("error: shard worker failed: worker "));
    assert!(said.is_some_and(|l| l.contains("exited")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `fasda serve` child process, killed if the test ends before it
/// shuts down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The daemon as a process, driven by `fasda job` clients: every verb,
/// a cancel and a live migration that land on jobs that cannot have
/// finished, and a migrated job that ends on a direct run's state.
#[test]
fn daemon_process_answers_every_job_verb() {
    let dir = tmpdir("serve");
    let deadline = Duration::from_secs(300);
    // The migrated job's spec and segmentation, run directly.
    let spec = ["--per-cell", "8", "--steps", "60"];
    let direct = ["run", "--per-fpga", "333", "--total", "633", "--serial", "--checkpoint-every", "20"];
    let files = ["--checkpoint-dir", "ck", "--dump-state", "direct.state"];
    let out = cli(&dir, &[&direct[..], &spec, &files].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_fasda-cli"))
            .args(["serve", "--dir", "svc", "--workers", "2", "--tenant", "held:1:0"])
            .current_dir(&dir)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn fasda-cli serve"),
    );
    let started = Instant::now();
    while UnixStream::connect(dir.join("svc/ctl.sock")).is_err() {
        assert!(daemon.0.try_wait().expect("poll the daemon").is_none(), "the daemon exited");
        assert!(started.elapsed() < deadline, "no control socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    let job = |args: &[&str]| {
        let verb = [&["job", args[0], "--connect", "svc/ctl.sock"][..], &args[1..]].concat();
        let out = cli(&dir, &verb);
        assert!(out.status.success(), "{verb:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let submit = |name: &str, args: &[&str]| {
        let said = job(&[&["submit", "--name", name][..], args].concat());
        said.trim().strip_prefix("submitted job ").expect("a job id").to_string()
    };
    let doc = |args: &[&str]| Json::parse(&job(args)).expect("job json");
    let wait = |id: &str| doc(&["wait", "--id", id, "--timeout", "300"]);
    let state = |doc: &Json| doc.get("state").and_then(Json::as_str).unwrap_or_default().to_string();

    // Endless jobs hold both workers, so the jobs submitted next stay
    // queued until those are cancelled, however fast a step runs.
    let endless = ["--per-cell", "4", "--steps", "100000", "--ckpt-every", "1"];
    let holders = ["hold-a", "hold-b"].map(|name| submit(name, &endless));
    for id in &holders {
        while state(&doc(&["status", "--id", id])) != "running" {
            assert!(started.elapsed() < deadline, "job {id} never started");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let every = [&spec[..], &["--ckpt-every", "20"]].concat();
    let lossy = submit("lossy", &[&every[..], &["--fault-plan", "drop=0.05,seed=9"]].concat());
    // The held tenant's jobs never run.
    let doomed = submit("doomed", &[&every[..], &["--tenant", "held"]].concat());
    job(&["cancel", "--id", &doomed]);
    let dump = dir.join("migrated.state");
    let migrated = submit("migrated", &[&every[..], &["--dump-state", dump.to_str().expect("utf-8")]].concat());
    // Drains at its first segment boundary, resumes on the other worker.
    job(&["migrate", "--id", &migrated]);
    for id in &holders {
        job(&["cancel", "--id", id]);
    }

    assert_eq!(state(&wait(&lossy)), "completed");
    assert_eq!(state(&wait(&doomed)), "cancelled");
    let moved = wait(&migrated);
    assert_eq!(state(&moved), "completed", "{}", moved.compact());
    assert_eq!(moved.get("migrations").and_then(Json::as_i64), Some(1), "{}", moved.compact());
    for id in &holders {
        assert_eq!(state(&wait(id)), "cancelled");
    }
    let logs = job(&["logs", "--id", &migrated]);
    assert!(logs.contains("requeued for migration away from worker"), "{logs}");
    let direct = std::fs::read(dir.join("direct.state")).expect("direct dump");
    assert!(std::fs::read(&dump).expect("migrated dump") == direct, "migrated dump differs from the direct run's");
    // Finished jobs keep answering, and the registry counts them.
    assert_eq!(state(&doc(&["status", "--id", &lossy])), "completed");
    assert_eq!(job(&["status"]).lines().count(), 5);
    let metrics = doc(&["metrics"]);
    let retained = metrics.get("gauges").and_then(|g| g.get("jobs_retained")).and_then(Json::as_f64);
    assert_eq!(retained, Some(5.0), "{}", metrics.compact());
    job(&["shutdown"]);
    let stopping = Instant::now();
    let exited = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(stopping.elapsed() < deadline, "the daemon did not exit");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(exited.success(), "the daemon exited with {exited}");
    let _ = std::fs::remove_dir_all(&dir);
}
