//! End-to-end service tests: live migration bit-identity, worker-crash
//! requeue, and queue-journal replay after a server death.
//!
//! The bit-identity oracle is always a direct, uninterrupted
//! `run_with_checkpoints` over the same spec and segmentation — the
//! service must add scheduling, draining, and recovery *around* the
//! run without perturbing a single bit of simulated state.

use fasda_cluster::ckpt::{run_with_checkpoints, CheckpointConfig};
use fasda_cluster::{state_dump, Cluster, ClusterRunReport, EngineConfig};
use fasda_net::transport::Endpoint;
use fasda_svc::queue::{self, QueueJournal, ReplayedState};
use fasda_svc::server::FINISHED_KEPT;
use fasda_svc::{Client, JobSpec, Server, ServerConfig, TenantQuota};
use fasda_trace::Json;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const STEPS: u64 = 6;
const EVERY: u64 = 2;
const WAIT: Duration = Duration::from_secs(120);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fasda-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// A small but non-trivial job: one node, 27 cells, 16 particles/cell.
fn spec(name: &str, dump: &std::path::Path) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        per_cell: 16,
        steps: STEPS,
        ckpt_every: EVERY,
        dump_state: Some(dump.to_string_lossy().into_owned()),
        ..JobSpec::default()
    }
}

/// The uninterrupted oracle: same spec, same segmentation, one process.
fn oracle_dump(spec: &JobSpec, dir: &std::path::Path) -> String {
    let (cfg, sys) = spec.build().expect("oracle build");
    let mut cluster = Cluster::new(cfg, &sys);
    let ck = CheckpointConfig::new(spec.ckpt_every, dir);
    run_with_checkpoints(
        &mut cluster,
        spec.steps,
        2_000_000_000,
        &EngineConfig::serial(),
        Some(&ck),
        ClusterRunReport::new(),
    )
    .expect("oracle run");
    state_dump(&cluster, &sys)
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_i64).unwrap_or(-1) as u64
}

/// A job of 4 particles per cell, checkpointed every step.
fn tiny(name: &str, steps: u64) -> JobSpec {
    JobSpec { name: name.to_string(), per_cell: 4, steps, ckpt_every: 1, ..JobSpec::default() }
}

/// Poll until job `id` runs. A verb sent after this lands on a running
/// job, however fast a step runs.
fn await_running(client: &mut Client, id: u64) {
    let asked = Instant::now();
    loop {
        let status = client.status(id).expect("status");
        if status.get("state").and_then(Json::as_str) == Some("running") {
            return;
        }
        assert!(asked.elapsed() < WAIT, "job {id} never started");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Occupy both of the default config's workers with jobs that run until
/// cancelled: a job submitted next stays queued until one of them is.
fn hold_workers(client: &mut Client, names: [&str; 2]) -> [u64; 2] {
    let ids = names.map(|name| client.submit(&tiny(name, 100_000)).expect("submit"));
    for id in ids {
        await_running(client, id);
    }
    ids
}

#[test]
fn migrated_job_is_bit_identical_to_direct_run() {
    let dir = tmpdir("migrate");
    let dump = dir.join("migrated.state");
    let job = spec("migrate-me", &dump);
    let want = oracle_dump(&job.clone_without_faults(), &dir.join("oracle"));

    let handle = Server::start(ServerConfig::at(&dir.join("srv"))).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // The job is still queued when the migrate lands, so it drains at its
    // first segment boundary and resumes on the other worker.
    let holders = hold_workers(&mut client, ["holder-a", "holder-b"]);
    let id = client.submit(&job).expect("submit");
    client.migrate(id).expect("migrate accepted");
    for holder in holders {
        client.cancel(holder).expect("cancel while running");
    }
    let status = client.wait(id, WAIT).expect("job finishes");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("completed"));
    assert_eq!(field_u64(&status, "migrations"), 1, "status: {}", status.compact());
    assert_eq!(field_u64(&status, "steps_done"), STEPS);

    // The job must have run on two distinct workers.
    let logs = client.logs(id).expect("logs");
    let workers: Vec<&str> = logs
        .iter()
        .filter(|l| l.starts_with("started on worker "))
        .map(|l| l.rsplit(' ').next().unwrap())
        .collect();
    assert_eq!(workers.len(), 2, "logs: {logs:#?}");
    assert_ne!(workers[0], workers[1], "anti-affinity violated: {logs:#?}");
    assert!(
        logs.iter().any(|l| l.contains("resumed") && l.contains("in-memory container")),
        "no container resume in logs: {logs:#?}"
    );

    let got = std::fs::read_to_string(&dump).expect("migrated dump written");
    assert_eq!(got, want, "migrated state diverged from the direct run");

    let mut metrics_client = Client::connect(handle.addr()).expect("connect metrics");
    let metrics = metrics_client.metrics().expect("metrics");
    let migrated = metrics
        .get("counters")
        .and_then(|c| c.get("jobs_migrated"))
        .and_then(Json::as_i64);
    assert_eq!(migrated, Some(1), "metrics: {}", metrics.compact());

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_worker_requeues_from_newest_checkpoint() {
    let dir = tmpdir("crash");
    let dump = dir.join("crashed.state");
    let mut job = spec("crash-me", &dump);
    // The service's worker-death model: an injected crash kills the run
    // mid-flight; the pool must requeue from the newest checkpoint with
    // the fired directive stripped and converge to the fault-free state.
    job.fault_plan = Some("crash=0@3".to_string());
    let want = oracle_dump(&job.clone_without_faults(), &dir.join("oracle"));

    let handle = Server::start(ServerConfig::at(&dir.join("srv"))).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let id = client.submit(&job).expect("submit");
    let status = client.wait(id, WAIT).expect("job finishes");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "status: {}",
        status.compact()
    );
    assert_eq!(field_u64(&status, "restarts"), 1, "status: {}", status.compact());

    let logs = client.logs(id).expect("logs");
    assert!(
        logs.iter().any(|l| l.contains("crashed") && l.contains("requeued from newest checkpoint")),
        "no crash requeue in logs: {logs:#?}"
    );
    assert!(
        logs.iter().any(|l| l.contains("resumed") && l.contains("ckpt-")),
        "no on-disk checkpoint resume in logs: {logs:#?}"
    );

    let got = std::fs::read_to_string(&dump).expect("dump written");
    assert_eq!(got, want, "crash-recovered state diverged from the fault-free run");

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_stops_and_terminal_states_reject_verbs() {
    let dir = tmpdir("cancel");
    // Far more steps than the test lasts: the job is running when the
    // cancel lands and stops at its next segment boundary.
    let job = JobSpec {
        name: "cancel-me".to_string(),
        per_cell: 16,
        steps: 100_000,
        ckpt_every: EVERY,
        ..JobSpec::default()
    };

    let handle = Server::start(ServerConfig::at(&dir.join("srv"))).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let id = client.submit(&job).expect("submit");
    await_running(&mut client, id);
    client.cancel(id).expect("cancel accepted");
    let status = client.wait(id, WAIT).expect("job settles");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("cancelled"));
    // Terminal jobs reject further control verbs.
    assert!(client.cancel(id).is_err());
    assert!(client.migrate(id).is_err());

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// More jobs finish than the daemon keeps: the oldest leave memory, and
/// their status, refusals and log are answered from the queue journal —
/// the status field for field as `wait` returned it while fresh.
#[test]
fn evicted_jobs_answer_from_the_journal() {
    let dir = tmpdir("evict");
    let mut cfg = ServerConfig::at(&dir.join("srv"));
    // This tenant's jobs never run: each one is cancelled while queued.
    cfg.tenants.set("held", TenantQuota { weight: 1, max_running: 0 });
    let handle = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let done = client.submit(&tiny("done", 2)).expect("submit");
    let done_doc = client.wait(done, WAIT).expect("job finishes");
    assert_eq!(done_doc.get("state").and_then(Json::as_str), Some("completed"));

    // The blocker holds one worker, so the migrated job, barred from the
    // worker it drained on, waits in the queue with its drain container
    // until it is cancelled there. The migrated job is asked to drain
    // while a stopper holds the other worker, so it drains at its first
    // segment boundary however fast a step runs.
    let [blocker, stopper] = hold_workers(&mut client, ["blocker", "stopper"]);
    let asked = Instant::now();
    let drained = client.submit(&tiny("drained", 100_000)).expect("submit");
    client.migrate(drained).expect("migrate accepted");
    client.cancel(stopper).expect("cancel while running");
    while field_u64(&client.status(drained).expect("status"), "migrations") == 0 {
        assert!(asked.elapsed() < WAIT, "job {drained} never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(drained).expect("cancel while queued");
    let drained_doc = client.wait(drained, WAIT).expect("job settles");
    assert_eq!(drained_doc.get("state").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(field_u64(&drained_doc, "steps_done"), 1, "{}", drained_doc.compact());
    client.cancel(blocker).expect("cancel while running");
    let blocker_doc = client.wait(blocker, WAIT).expect("job settles");
    assert_eq!(blocker_doc.get("state").and_then(Json::as_str), Some("cancelled"));

    let fresh = [(done, done_doc), (drained, drained_doc), (blocker, blocker_doc)];
    let refusals = |client: &mut Client, id| {
        let cancel = client.cancel(id).expect_err("finished job refuses cancel").to_string();
        let migrate = client.migrate(id).expect_err("finished job refuses migrate").to_string();
        (cancel, migrate)
    };
    let fresh_refusals: Vec<_> = fresh.iter().map(|(id, _)| refusals(&mut client, *id)).collect();
    assert!(fresh_refusals[0].0.ends_with("job 0 is already completed"), "{fresh_refusals:?}");

    for _ in 0..FINISHED_KEPT {
        let id = client.submit(&JobSpec { tenant: "held".into(), ..tiny("held", 2) }).expect("submit");
        client.cancel(id).expect("cancel while queued");
    }

    for ((id, doc), refused) in fresh.iter().zip(&fresh_refusals) {
        assert_eq!(&client.status(*id).expect("status from the journal"), doc, "job {id}");
        assert_eq!(&client.wait(*id, WAIT).expect("wait from the journal"), doc, "job {id}");
        assert_eq!(&refusals(&mut client, *id), refused, "job {id}");
    }
    let logs = client.logs(drained).expect("logs from the journal");
    assert!(logs.len() == 1 && logs[0].contains("queue journal"), "{logs:?}");
    assert!(client.status(9_999).is_err());

    let metrics = client.metrics().expect("metrics");
    let gauge = |name: &str| {
        metrics.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_f64)
    };
    assert_eq!(gauge("jobs_retained"), Some(FINISHED_KEPT as f64), "{}", metrics.compact());
    assert_eq!(gauge("jobs_live"), Some(0.0), "{}", metrics.compact());
    assert_eq!(client.status_all().expect("status").len(), FINISHED_KEPT);

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_reruns_interrupted_jobs() {
    let dir = tmpdir("replay");
    let srv = dir.join("srv");
    std::fs::create_dir_all(&srv).expect("mkdir");
    let journal = srv.join("queue.journal");
    let dump_a = dir.join("a.state");
    let dump_b = dir.join("b.state");
    let job_a = spec("interrupted", &dump_a);
    let job_b = spec("never-started", &dump_b);
    let job_c = spec("already-done", &dir.join("c.state"));
    let job_d = spec("evicted", &dir.join("d.state"));

    // Simulate a dead server: job 0 was mid-run, job 1 queued, job 2
    // finished, and job 3 — drained for migration, then cancelled while
    // queued — had already left that server's memory. Then tear the tail
    // the way a mid-append death would.
    {
        let mut j = QueueJournal::open(&journal).expect("journal");
        j.submit(0, &job_a).unwrap();
        j.submit(1, &job_b).unwrap();
        j.submit(2, &job_c).unwrap();
        j.submit(3, &job_d).unwrap();
        j.done(2).unwrap();
        j.start(3, 0).unwrap();
        j.requeue(3, "migrate").unwrap();
        j.cancel(3, 2).unwrap();
        j.start(0, 1).unwrap();
    }
    {
        use std::io::Write as _;
        let mut payload = Vec::new();
        fasda_ckpt::frame::write_frame(&mut payload, br#"{"v":1,"ev":"start","id":1,"worker":0}"#);
        let torn = &payload[..payload.len() / 2];
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(torn).unwrap();
    }

    // The jobs the journal still owes a run, and the jobs a server lists
    // (the finished ones it keeps, then the live ones), by id.
    let owed = || -> Vec<u64> {
        let q = queue::replay(&journal).expect("journal replays");
        q.jobs.iter().filter(|j| j.state == ReplayedState::Queued).map(|j| j.id).collect()
    };
    let listed = |client: &mut Client| -> Vec<u64> {
        let mut ids: Vec<u64> =
            client.status_all().expect("status").iter().map(|j| field_u64(j, "id")).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(owed(), vec![0, 1]);

    let handle = Server::start(ServerConfig::at(&srv)).expect("server replays journal");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Only the two interrupted jobs come back.
    assert_eq!(listed(&mut client), vec![0, 1]);

    // Replay preserved the id space: a new submission continues past
    // the dead server's last id.
    let new_id = client.submit(&job_b).expect("submit after replay");
    assert_eq!(new_id, 4);
    client.cancel(new_id).expect("cancel the extra job");

    // The torn trailing record was discarded, not fatal — and counted.
    let metrics = client.metrics().expect("metrics");
    let torn = metrics
        .get("counters")
        .and_then(|c| c.get("journal_torn_bytes"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(torn > 0, "torn bytes not surfaced: {}", metrics.compact());

    // Stop with the jobs wherever they are: a restart replays exactly the
    // live set the journal records, and finishes it.
    client.shutdown().expect("shutdown");
    handle.join();
    let live = owed();
    assert!(live.iter().all(|id| [0, 1].contains(id)), "live after shutdown: {live:?}");
    let handle = Server::start(ServerConfig::at(&srv)).expect("server restarts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(listed(&mut client), live);
    for id in live {
        let status = client.wait(id, WAIT).expect("replayed job finishes");
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("completed"),
            "job {id}: {}",
            status.compact()
        );
    }
    assert!(dump_a.exists() && dump_b.exists());

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_control_socket_speaks_the_same_protocol() {
    let dir = tmpdir("tcp");
    let mut cfg = ServerConfig::at(&dir.join("srv"));
    cfg.listen = Endpoint::Tcp("127.0.0.1:0".to_string());
    let handle = Server::start(cfg).expect("server starts on tcp");
    let addr = match handle.addr() {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp addr, got {other:?}"),
    };
    assert!(!addr.ends_with(":0"), "port not resolved: {addr}");
    let mut client = Client::connect(handle.addr()).expect("connect over tcp");
    let job = JobSpec { name: "tcp".into(), per_cell: 4, steps: 2, ..JobSpec::default() };
    let id = client.submit(&job).expect("submit");
    let status = client.wait(id, WAIT).expect("job finishes");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("completed"));
    // A 200 KB run of `[` is refused and its connection closed; the
    // daemon keeps serving everyone else.
    let mut hostile = handle.addr().connect().expect("raw connect");
    hostile.send_frame("[".repeat(200_000).as_bytes()).expect("send deep frame");
    assert!(hostile.recv_frame().is_err(), "daemon must close the hostile connection");
    // A bare header claiming 512 MiB is refused from the header alone:
    // a typed answer naming the claim and the cap, then the hang-up.
    // The read timeout fails the test instead of hanging it.
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let claim = 512u64 << 20;
    raw.write_all(&[&claim.to_le_bytes()[..], &[0; 4]].concat()).expect("send header");
    let reply = fasda_ckpt::frame::read_frame_from(&mut raw, "reply").expect("daemon answers");
    let reply = Json::parse(std::str::from_utf8(&reply).expect("utf-8")).expect("reply json");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let error = reply.get("error").and_then(Json::as_str).unwrap_or_default();
    let cap = fasda_svc::proto::MAX_REQUEST_BYTES.to_string();
    assert!(error.contains(&claim.to_string()) && error.contains(&cap), "{error}");
    assert_eq!(raw.read(&mut [0; 1]).expect("clean hang-up"), 0, "connection left open");
    let status = client.status(id).expect("status after the hostile frame");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("completed"));
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strip the fault plan for oracle runs (the recovery contract promises
/// convergence to the fault-free state).
trait CloneWithoutFaults {
    fn clone_without_faults(&self) -> JobSpec;
}

impl CloneWithoutFaults for JobSpec {
    fn clone_without_faults(&self) -> JobSpec {
        JobSpec { fault_plan: None, ..self.clone() }
    }
}
