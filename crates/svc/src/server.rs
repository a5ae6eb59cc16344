//! The job-service daemon: journal-backed queue, worker pool, control
//! listener, and checkpoint-backed live migration.
//!
//! ## Architecture
//!
//! One shared [`State`] (mutex + condvar) holds the live jobs (queued or
//! running), the status of the last [`FINISHED_KEPT`] finished ones, the
//! open queue journal, and the metrics registry. A finished job older
//! than that is answered from its journal events
//! ([`queue::replay_job`]), so the daemon's memory and per-request work
//! depend on its live jobs, not on how many it has run. `workers`
//! threads loop:
//! pick the next runnable job by fair share ([`crate::queue::pick`]),
//! journal the pickup, and run the job's [`RunSpec`]
//! ([`fasda_cluster::RunSpec::run`]) — the control callback re-locks the
//! state at each segment boundary to publish progress and read the
//! job's *wanted* verb (continue / drain / cancel). A listener thread
//! accepts control connections (Unix or TCP) and answers the
//! [`crate::proto`] verbs against the same shared state.
//!
//! ## Migration and recovery
//!
//! `migrate` sets the job's wanted verb to drain. At the next segment
//! boundary the running worker receives the quiescent state as
//! in-memory checkpoint-container bytes, requeues the job with
//! anti-affinity against itself, and another worker resumes it via
//! [`Resume::Container`]. Because both halves are the checkpoint
//! path, the migrated run is bit-identical to an unmigrated run with
//! the same segmentation (DESIGN.md §9 and §14).
//!
//! A worker *crash* (the fault plan's `crash=NODE@STEP`, the service's
//! stand-in for a dying worker process) requeues the job from its
//! newest on-disk checkpoint with exactly the fired directive stripped
//! ([`learn`]) — the rolling-recovery contract, applied across the pool. Server
//! death loses only in-memory drain containers: the journal replays
//! every non-terminal job back to *queued*, and each resumes from its
//! newest on-disk checkpoint.

use crate::job::{JobSpec, JobState};
use crate::proto::{self, ProtoError};
use crate::queue::{self, QueueJournal, ReplayedJob, ReplayedState, SchedJob, TenantTable};
use fasda_cluster::ckpt::{learn, CheckpointConfig, SegmentControl};
use fasda_cluster::{state_dump, FaultPlan, Resume, RunError, RunOutput};
use fasda_net::transport::{Endpoint, FrameLink, Listener};
use fasda_obs::{parse_jsonl, Registry};
use fasda_trace::Json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Latency histogram bounds (milliseconds, log-spaced).
const LATENCY_MS_BOUNDS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 120_000,
];

/// Finished jobs whose status the daemon keeps in memory, most recently
/// finished last. Two workers finish ≈ 370 tiny jobs a second, so this
/// holds over a second of completions: a client polling a job that just
/// finished (`Client::wait` polls every 20 ms) finds it here, and only an
/// older id pays for a journal read.
pub const FINISHED_KEPT: usize = 512;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Where the control socket listens (Unix by default; TCP port 0
    /// picks a free port).
    pub listen: Endpoint,
    /// Worker threads (migration needs at least 2).
    pub workers: usize,
    /// Queue journal path (created if missing, replayed if present).
    pub journal: PathBuf,
    /// Per-job checkpoint directories live under `ckpt_root/job-N`.
    pub ckpt_root: PathBuf,
    /// Default checkpoint cadence in steps for jobs that don't set
    /// their own — ideally the Young–Daly optimum from
    /// `fasda ckpt policy` (see [`crate::server::policy_interval`]).
    pub default_ckpt_every: u64,
    /// Fair-share weights and quotas.
    pub tenants: TenantTable,
    /// Per-job bound on automatic crash/deadlock restarts.
    pub max_restarts: u32,
}

impl ServerConfig {
    /// A two-worker server rooted at `dir` (journal, checkpoints, and —
    /// for the Unix default — the control socket all live under it).
    pub fn at(dir: &std::path::Path) -> Self {
        ServerConfig {
            listen: Endpoint::Unix(dir.join("ctl.sock")),
            workers: 2,
            journal: dir.join("queue.journal"),
            ckpt_root: dir.join("ckpt"),
            default_ckpt_every: 2,
            tenants: TenantTable::new(),
            max_restarts: 4,
        }
    }
}

/// What the scheduler wants a running job to do at its next segment
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wanted {
    Run,
    Drain,
    Cancel,
}

/// What `status` and `logs` answer about one job — and all the daemon
/// keeps of a finished one, which holds no spec, fault plan or resume
/// container.
struct JobStatus {
    id: u64,
    name: String,
    tenant: String,
    priority: i64,
    steps_total: u64,
    state: JobState,
    steps_done: u64,
    restarts: u32,
    migrations: u32,
    logs: Vec<String>,
}

impl JobStatus {
    /// A finished job's status folded from its journal events. The
    /// journal holds no log lines; the one line says where the answer
    /// came from.
    fn replayed(job: ReplayedJob) -> Self {
        let state = match job.state {
            ReplayedState::Queued => JobState::Queued,
            ReplayedState::Done => JobState::Completed,
            ReplayedState::Cancelled => JobState::Cancelled,
            ReplayedState::Failed(e) => JobState::Failed(e),
        };
        let line = format!(
            "{} at step {} of {}; answered from the queue journal (log lines are kept for \
             the last {FINISHED_KEPT} finished jobs)",
            state.as_str(),
            job.steps_done,
            job.spec.steps
        );
        JobStatus {
            id: job.id,
            name: job.spec.name,
            tenant: job.spec.tenant,
            priority: job.spec.priority,
            steps_total: job.spec.steps,
            state,
            steps_done: job.steps_done,
            restarts: job.restarts,
            migrations: job.migrations,
            logs: vec![line],
        }
    }

    fn status_json(&self) -> Json {
        let mut o = Json::obj()
            .field("id", Json::uint(self.id))
            .field("name", self.name.as_str())
            .field("tenant", self.tenant.as_str())
            .field("priority", self.priority)
            .field("state", self.state.as_str())
            .field("steps_done", Json::uint(self.steps_done))
            .field("steps_total", Json::uint(self.steps_total))
            .field("restarts", self.restarts as i64)
            .field("migrations", self.migrations as i64);
        if let JobState::Running(w) = self.state {
            o = o.field("worker", w);
        }
        if let JobState::Failed(e) = &self.state {
            o = o.field("error", e.as_str());
        }
        o.build()
    }

    fn logs_json(&self) -> Json {
        let lines = self.logs.iter().map(|l| Json::Str(l.clone())).collect();
        proto::ok().field("lines", Json::Arr(lines)).build()
    }

    /// The refusal of a control verb on a finished job.
    fn already(&self) -> Json {
        proto::err(&format!("job {} is already {}", self.id, self.state.as_str()))
    }
}

/// A live (queued or running) job's server-side record.
struct JobRec {
    status: JobStatus,
    spec: JobSpec,
    wanted: Wanted,
    /// Where the next attempt picks up: an in-memory drain container
    /// (live migration), or the newest on-disk checkpoint in the job's
    /// directory (crash requeue and post-restart recovery; fresh when
    /// none exists).
    resume: Resume,
    avoid: Option<usize>,
    /// The fault plan the next attempt runs under: the spec's, minus what
    /// earlier failures taught ([`learn`]). Boxed: most jobs have no plan.
    faults: Option<Box<FaultPlan>>,
    submitted: Instant,
}

impl JobRec {
    fn queued(id: u64, spec: JobSpec, resume: Resume, submitted: Instant, log: &str) -> Self {
        JobRec {
            status: JobStatus {
                id,
                name: spec.name.clone(),
                tenant: spec.tenant.clone(),
                priority: spec.priority,
                steps_total: spec.steps,
                state: JobState::Queued,
                steps_done: 0,
                restarts: 0,
                migrations: 0,
                logs: vec![log.to_string()],
            },
            // Both ways in (submit, journal replay) validated the spec.
            faults: spec.run_spec().ok().and_then(|run| run.faults).map(Box::new),
            spec,
            wanted: Wanted::Run,
            resume,
            avoid: None,
            submitted,
        }
    }
}

struct State {
    /// Every job that can still run, by id.
    live: BTreeMap<u64, JobRec>,
    /// How many of `live` are running; the rest are queued.
    running: usize,
    /// The last [`FINISHED_KEPT`] finished jobs, oldest first.
    finished: VecDeque<JobStatus>,
    journal: QueueJournal,
    running_by_tenant: HashMap<String, usize>,
    registry: Registry,
    shutdown: bool,
}

impl State {
    fn job_mut(&mut self, id: u64) -> Option<&mut JobRec> {
        self.live.get_mut(&id)
    }

    /// A finished job's status, if it is recent enough to be kept.
    fn retained(&self, id: u64) -> Option<&JobStatus> {
        // Newest first: the usual caller polls a job that just finished.
        self.finished.iter().rev().find(|s| s.id == id)
    }

    /// The one way a job leaves the live table: journal its terminal
    /// `state`, count it, and keep only its status. The record's spec,
    /// fault plan and resume container (a drained job's whole checkpoint)
    /// are dropped here.
    fn finish(&mut self, id: u64, state: JobState) {
        let Some(job) = self.live.remove(&id) else { return };
        let mut status = job.status;
        let counter = match &state {
            JobState::Completed => {
                status.steps_done = status.steps_total;
                let _ = self.journal.done(id);
                let latency_ms = job.submitted.elapsed().as_millis() as u64;
                self.registry.hist_observe("job_latency_ms", LATENCY_MS_BOUNDS, latency_ms);
                "jobs_completed"
            }
            JobState::Cancelled => {
                let _ = self.journal.cancel(id, status.steps_done);
                "jobs_cancelled"
            }
            JobState::Failed(e) => {
                let _ = self.journal.fail(id, status.steps_done, e);
                "jobs_failed"
            }
            JobState::Queued | JobState::Running(_) => unreachable!("finish takes a terminal state"),
        };
        self.registry.counter_add(counter, 1);
        status.state = state;
        if self.finished.len() == FINISHED_KEPT {
            self.finished.pop_front();
        }
        self.finished.push_back(status);
    }

    /// Stop taking work: running jobs drain at their next segment
    /// boundary and are journaled as requeued. The caller wakes the pool.
    fn shut_down(&mut self) {
        self.shutdown = true;
        for job in self.live.values_mut() {
            if matches!(job.status.state, JobState::Running(_)) && job.wanted == Wanted::Run {
                job.wanted = Wanted::Drain;
            }
        }
    }

    fn refresh_gauges(&mut self) {
        let depth = (self.live.len() - self.running) as f64;
        self.registry.gauge_set("queue_depth", depth);
        self.registry.gauge_set("jobs_running", self.running as f64);
        self.registry.gauge_set("jobs_live", self.live.len() as f64);
        self.registry.gauge_set("jobs_retained", self.finished.len() as f64);
        // Peak depth as a counter so the totals document keeps it.
        self.registry.counter_set("queue_depth_peak", depth as u64);
    }
}

struct Shared {
    cfg: ServerConfig,
    state: Mutex<State>,
    wake: Condvar,
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or send the protocol `shutdown`
/// verb) and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    addr: Endpoint,
}

impl ServerHandle {
    /// Where clients should connect (TCP port resolved if 0 was asked).
    pub fn addr(&self) -> &Endpoint {
        &self.addr
    }

    /// Ask every thread to stop: running jobs drain at their next
    /// segment boundary and are journaled as requeued (they resume from
    /// their newest on-disk checkpoint at the next start).
    pub fn shutdown(&self) {
        self.shared.state.lock().expect("state lock").shut_down();
        self.shared.wake.notify_all();
    }

    /// Wait for the worker pool and listener to exit.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Replay the journal, bind the control socket, and start the
    /// worker pool. Returns a handle with the resolved listen address.
    pub fn start(cfg: ServerConfig) -> Result<ServerHandle, String> {
        if cfg.workers == 0 {
            return Err("server needs at least one worker".into());
        }
        if let Some(parent) = cfg.journal.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&cfg.ckpt_root).map_err(|e| e.to_string())?;

        // Rebuild the queue from the journal: every non-terminal job is
        // owed a run and resumes from its newest on-disk checkpoint.
        let recovered = queue::replay(&cfg.journal).map_err(|e| e.to_string())?;
        let now = Instant::now();
        let live: BTreeMap<u64, JobRec> = recovered
            .jobs
            .into_iter()
            .filter(|j| j.state == ReplayedState::Queued)
            .map(|j| {
                let log = "replayed from journal after server restart";
                (j.id, JobRec::queued(j.id, j.spec, Resume::Latest, now, log))
            })
            .collect();
        let mut journal = QueueJournal::open(&cfg.journal).map_err(|e| e.to_string())?;
        let submits: Vec<(u64, &JobSpec)> = live.iter().map(|(id, j)| (*id, &j.spec)).collect();
        journal.compact_to(&submits).map_err(|e| e.to_string())?;
        let mut registry = Registry::new();
        registry.counter_set("jobs_replayed", live.len() as u64);
        if recovered.torn_bytes > 0 {
            registry.counter_set("journal_torn_bytes", recovered.torn_bytes);
        }
        let next_id = recovered.next_id;

        // Bind the control listener before spawning anything so a
        // bad address fails the whole start.
        let listener = cfg.listen.bind().map_err(|e| e.to_string())?;
        listener.set_nonblocking().map_err(|e| e.to_string())?;
        let addr = listener.endpoint().clone();

        let mut state = State {
            live,
            running: 0,
            finished: VecDeque::new(),
            journal,
            running_by_tenant: HashMap::new(),
            registry,
            shutdown: false,
        };
        state.refresh_gauges();
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            state: Mutex::new(state),
            wake: Condvar::new(),
        });
        let next_id = Arc::new(Mutex::new(next_id));

        let mut threads = Vec::new();
        for w in 0..cfg.workers {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("fasda-worker-{w}"))
                    .spawn(move || worker_loop(&sh, w))
                    .map_err(|e| e.to_string())?,
            );
        }
        {
            let sh = Arc::clone(&shared);
            let nid = Arc::clone(&next_id);
            threads.push(
                std::thread::Builder::new()
                    .name("fasda-listener".to_string())
                    .spawn(move || listener_loop(&sh, &nid, &listener))
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(ServerHandle { shared, threads, addr })
    }
}

// -----------------------------------------------------------------------
// Worker pool
// -----------------------------------------------------------------------

/// How one execution attempt ended.
enum Attempt {
    Completed(Box<RunOutput>),
    Drained(Vec<u8>),
    Cancelled,
    /// The simulation failed in a way the next attempt can [`learn`]
    /// from: `faults` is the plan to retry under.
    Retry { cause: String, faults: Option<Box<FaultPlan>> },
    Error(String),
}

fn worker_loop(sh: &Shared, worker: usize) {
    loop {
        // Pick the next runnable job by fair share, or sleep.
        let picked = {
            let mut st = sh.state.lock().expect("state lock");
            loop {
                if st.shutdown {
                    return;
                }
                let queued: Vec<SchedJob> = st
                    .live
                    .values()
                    .filter(|j| j.status.state == JobState::Queued)
                    .map(|j| SchedJob {
                        id: j.status.id,
                        tenant: j.spec.tenant.clone(),
                        priority: j.spec.priority,
                        avoid: j.avoid,
                    })
                    .collect();
                if let Some(id) =
                    queue::pick(&queued, &st.running_by_tenant, &sh.cfg.tenants, worker)
                {
                    let job = st.job_mut(id).expect("picked job exists");
                    job.status.state = JobState::Running(worker);
                    job.status.logs.push(format!("started on worker {worker}"));
                    let tenant = job.spec.tenant.clone();
                    let spec = job.spec.clone();
                    let resume = std::mem::replace(&mut job.resume, Resume::Fresh);
                    let faults = job.faults.clone();
                    let _ = st.journal.start(id, worker);
                    *st.running_by_tenant.entry(tenant).or_insert(0) += 1;
                    st.running += 1;
                    st.refresh_gauges();
                    break Some((id, spec, resume, faults));
                }
                let (guard, _) = sh
                    .wake
                    .wait_timeout(st, Duration::from_millis(100))
                    .expect("condvar wait");
                st = guard;
            }
        };
        let Some((id, spec, resume, faults)) = picked else {
            return;
        };
        // A panic anywhere in the simulator must fail the job, not
        // silently kill the worker thread and strand the pool.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(sh, worker, id, &spec, resume, faults)
        }))
        .unwrap_or_else(|p| {
            let what = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            Attempt::Error(format!("worker panicked: {what}"))
        });
        settle(sh, worker, id, &spec, outcome);
    }
}

/// Run `spec` — under the fault plan earlier attempts taught, from where
/// the last one left off — segment by segment under the job's control
/// verb.
fn execute(
    sh: &Shared,
    worker: usize,
    id: u64,
    spec: &JobSpec,
    resume: Resume,
    faults: Option<Box<FaultPlan>>,
) -> Attempt {
    let mut run = match spec.run_spec() {
        Ok(run) => run,
        Err(e) => return Attempt::Error(e.to_string()),
    };
    let every = if spec.ckpt_every > 0 { spec.ckpt_every } else { sh.cfg.default_ckpt_every };
    run.ckpt = Some(CheckpointConfig::new(every, sh.cfg.ckpt_root.join(format!("job-{id}"))));
    run.faults = faults.map(|plan| *plan);
    run.resume = resume;
    // Every worker may be running a job at once: each gets its share of
    // the cores for the window protocol, so jobs never oversubscribe the
    // host (two workers on two cores keep one thread per job).
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    run.engine = run.engine.with_threads((cores / sh.cfg.workers).max(1));

    let mut note = |line: String| log_to(sh, id, format!("worker {worker}: {line}"));
    let mut ctl = |status: &fasda_cluster::SegmentStatus| -> SegmentControl {
        let mut st = sh.state.lock().expect("state lock");
        let Some(job) = st.job_mut(id) else { return SegmentControl::Cancel };
        job.status.steps_done = status.steps_done;
        if let Some(path) = &status.checkpoint {
            job.status
                .logs
                .push(format!("checkpoint at step {} -> {}", status.steps_done, path.display()));
        }
        match job.wanted {
            Wanted::Run => SegmentControl::Continue,
            Wanted::Drain => SegmentControl::Drain,
            Wanted::Cancel => SegmentControl::Cancel,
        }
    };
    match run.run(None, &mut note, &mut ctl) {
        Ok(out) => Attempt::Completed(Box::new(out)),
        Err(RunError::Drained { container, run }) => {
            log_to(sh, id, format!(
                "drained on worker {worker} at step {} ({} checkpoint(s) on disk)",
                run.report.steps,
                run.checkpoints.len()
            ));
            Attempt::Drained(container)
        }
        Err(RunError::Cancelled) => Attempt::Cancelled,
        Err(RunError::Run(e)) => match learn(&mut run.faults, &e) {
            Some(cause) => Attempt::Retry { cause, faults: run.faults.map(Box::new) },
            None => Attempt::Error(e.to_string()),
        },
        Err(e) => Attempt::Error(e.to_string()),
    }
}

/// Apply an attempt's outcome to the shared state and the journal.
fn settle(sh: &Shared, worker: usize, id: u64, spec: &JobSpec, outcome: Attempt) {
    // The completion dump is taken and written outside the lock (it walks
    // the whole cluster), before the state transition is published.
    let dumped = match &outcome {
        Attempt::Completed(out) => spec.dump_state.as_ref().map(|path| {
            match std::fs::write(path, state_dump(&out.cluster, &out.sys)) {
                Ok(()) => format!("wrote state dump to {path}"),
                Err(e) => format!("state dump {path}: {e}"),
            }
        }),
        _ => None,
    };
    let mut st = sh.state.lock().expect("state lock");
    if let Some(n) = st.running_by_tenant.get_mut(&spec.tenant) {
        *n = n.saturating_sub(1);
    }
    st.running -= 1;
    let shutdown = st.shutdown;
    let Some(job) = st.job_mut(id) else { return };
    let outcome = match outcome {
        Attempt::Retry { cause, .. } if job.status.restarts >= sh.cfg.max_restarts => {
            Attempt::Error(format!("{cause}: exceeded {} restarts", sh.cfg.max_restarts))
        }
        other => other,
    };
    let log = &mut job.status.logs;
    match outcome {
        Attempt::Completed(_) => {
            log.push(format!("completed on worker {worker}"));
            log.extend(dumped);
            st.finish(id, JobState::Completed);
        }
        Attempt::Drained(container) => {
            job.status.state = JobState::Queued;
            job.status.migrations += 1;
            job.wanted = Wanted::Run;
            if shutdown {
                // The container dies with the process; the journal entry
                // sends the job back through its on-disk checkpoints.
                job.resume = Resume::Latest;
                job.avoid = None;
                log.push("drained for shutdown; will resume from disk".to_string());
                let _ = st.journal.requeue(id, "shutdown");
            } else {
                job.resume = Resume::Container(container);
                job.avoid = Some(worker);
                log.push(format!("requeued for migration away from worker {worker}"));
                let _ = st.journal.requeue(id, "migrate");
                st.registry.counter_add("jobs_migrated", 1);
            }
        }
        Attempt::Cancelled => {
            log.push("cancelled at segment boundary".to_string());
            st.finish(id, JobState::Cancelled);
        }
        Attempt::Retry { cause, faults } => {
            log.push(format!("worker {worker} crashed ({cause}); requeued from newest checkpoint"));
            job.status.state = JobState::Queued;
            job.status.restarts += 1;
            job.faults = faults;
            job.resume = Resume::Latest;
            job.avoid = None;
            let _ = st.journal.requeue(id, "crash");
            st.registry.counter_add("jobs_requeued_crash", 1);
        }
        Attempt::Error(e) => {
            log.push(format!("failed: {e}"));
            st.finish(id, JobState::Failed(e));
        }
    }
    st.refresh_gauges();
    drop(st);
    sh.wake.notify_all();
}

fn log_to(sh: &Shared, id: u64, line: String) {
    let mut st = sh.state.lock().expect("state lock");
    if let Some(job) = st.job_mut(id) {
        job.status.logs.push(line);
    }
}

// -----------------------------------------------------------------------
// Control listener
// -----------------------------------------------------------------------

/// Handler threads are detached: each exits when its client hangs up
/// (`recv_frame` errors) or after serving a `shutdown` verb.
fn listener_loop(sh: &Arc<Shared>, next_id: &Arc<Mutex<u64>>, listener: &Listener) {
    while !sh.state.lock().expect("state lock").shutdown {
        match listener.accept() {
            Ok(mut link) => {
                let (sh, next_id) = (Arc::clone(sh), Arc::clone(next_id));
                let _ = std::thread::Builder::new()
                    .name("fasda-ctl".to_string())
                    .spawn(move || connection_loop(&sh, &next_id, &mut *link));
            }
            // No client pending (the listener does not block), or one
            // whose connection failed: poll again.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

// -----------------------------------------------------------------------
// Request handling
// -----------------------------------------------------------------------

/// `answer` about job `id` from its status: the live or retained one,
/// else one folded from its journal events, read without the state lock.
fn answer_about(sh: &Shared, id: u64, answer: impl FnOnce(&JobStatus) -> Json) -> Json {
    {
        let st = sh.state.lock().expect("state lock");
        if let Some(status) = st.live.get(&id).map(|j| &j.status).or_else(|| st.retained(id)) {
            return answer(status);
        }
    }
    match queue::replay_job(&sh.cfg.journal, id) {
        Ok(Some(job)) => answer(&JobStatus::replayed(job)),
        Ok(None) => proto::err(&format!("no job {id}")),
        Err(e) => proto::err(&e.to_string()),
    }
}

fn handle_request(
    sh: &Shared,
    next_id: &Mutex<u64>,
    doc: &Json,
) -> (Json, bool) {
    let op = doc.get("op").and_then(Json::as_str).unwrap_or("");
    let id_of = |doc: &Json| doc.get("id").and_then(Json::as_i64).map(|v| v as u64);
    match op {
        "submit" => {
            let spec = match doc.get("spec").ok_or("submit needs a spec".to_string()).and_then(
                JobSpec::from_json,
            ) {
                Ok(s) => s,
                Err(e) => return (proto::err(&e), false),
            };
            let mut nid = next_id.lock().expect("id lock");
            let id = *nid;
            *nid += 1;
            drop(nid);
            let mut st = sh.state.lock().expect("state lock");
            if st.shutdown {
                return (proto::err("server is shutting down"), false);
            }
            if let Err(e) = st.journal.submit(id, &spec) {
                return (proto::err(&format!("journal: {e}")), false);
            }
            st.live.insert(id, JobRec::queued(id, spec, Resume::Fresh, Instant::now(), "submitted"));
            st.registry.counter_add("jobs_submitted", 1);
            st.refresh_gauges();
            drop(st);
            sh.wake.notify_all();
            (proto::ok().field("id", Json::uint(id)).build(), false)
        }
        "status" => {
            let Some(id) = id_of(doc) else {
                let st = sh.state.lock().expect("state lock");
                let live = st.live.values().map(|j| &j.status);
                let jobs = st.finished.iter().chain(live).map(JobStatus::status_json).collect();
                return (proto::ok().field("jobs", Json::Arr(jobs)).build(), false);
            };
            let status = |s: &JobStatus| proto::ok().field("job", s.status_json()).build();
            (answer_about(sh, id, status), false)
        }
        "cancel" => {
            let Some(id) = id_of(doc) else {
                return (proto::err("cancel needs an id"), false);
            };
            let mut st = sh.state.lock().expect("state lock");
            let Some(job) = st.job_mut(id) else {
                drop(st);
                return (answer_about(sh, id, JobStatus::already), false);
            };
            if job.status.state == JobState::Queued {
                job.status.logs.push("cancelled while queued".to_string());
                st.finish(id, JobState::Cancelled);
                st.refresh_gauges();
            } else {
                job.wanted = Wanted::Cancel;
                job.status.logs.push("cancel requested".to_string());
            }
            (proto::ok().build(), false)
        }
        "logs" => {
            let Some(id) = id_of(doc) else {
                return (proto::err("logs needs an id"), false);
            };
            (answer_about(sh, id, JobStatus::logs_json), false)
        }
        "migrate" => {
            let Some(id) = id_of(doc) else {
                return (proto::err("migrate needs an id"), false);
            };
            if sh.cfg.workers < 2 {
                return (proto::err("migration needs at least 2 workers"), false);
            }
            let mut st = sh.state.lock().expect("state lock");
            let Some(job) = st.job_mut(id) else {
                drop(st);
                return (answer_about(sh, id, JobStatus::already), false);
            };
            job.wanted = Wanted::Drain;
            job.status.logs.push("migration requested (drain at next segment boundary)".to_string());
            (proto::ok().build(), false)
        }
        "metrics" => {
            let st = sh.state.lock().expect("state lock");
            (proto::ok().field("metrics", st.registry.snapshot_json()).build(), false)
        }
        "shutdown" => {
            sh.state.lock().expect("state lock").shut_down();
            sh.wake.notify_all();
            (proto::ok().build(), true)
        }
        other => (proto::err(&format!("unknown op '{other}'")), false),
    }
}

fn connection_loop(
    sh: &Shared,
    next_id: &Mutex<u64>,
    link: &mut dyn FrameLink,
) -> Result<(), ProtoError> {
    loop {
        let doc = match proto::read_request(link) {
            Ok(doc) => doc,
            // The claimed payload is still on the wire, so the stream
            // is out of frame: answer, then hang up.
            Err(e @ ProtoError::TooLarge { .. }) => {
                proto::write_msg(link, &proto::err(&e.to_string()))?;
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let (resp, stop) = handle_request(sh, next_id, &doc);
        proto::write_msg(link, &resp)?;
        if stop {
            return Ok(());
        }
    }
}

// -----------------------------------------------------------------------
// Policy-fed default cadence
// -----------------------------------------------------------------------

/// What a real run cost the host — the `host` object of the `final`
/// record of its heartbeat stream (`fasda run --heartbeat-out PATH`;
/// see [`fasda_cluster::RunRecord::emit_final`]) — which `fasda ckpt policy --bench`
/// and `fasda serve --policy-bench` fit the interval to.
pub fn measured_costs(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    records
        .into_iter()
        .rev()
        .find(|r| r.get("type").and_then(Json::as_str) == Some("final"))
        .and_then(|r| r.get("host").cloned())
        .ok_or_else(|| format!("{path} has no final record with host costs (fasda run --heartbeat-out)"))
}

/// The Young–Daly-optimal checkpoint interval (in steps) for the given
/// costs — what `fasda serve` feeds into
/// [`ServerConfig::default_ckpt_every`] so the server's default cadence
/// is the policy calculator's output instead of a hardcoded number.
pub fn policy_interval(
    step_ms: f64,
    failure_rate: f64,
    save_ms: f64,
    restore_ms: f64,
) -> Result<u64, String> {
    use fasda_cluster::ckpt::policy::PolicyInput;
    let input = PolicyInput {
        save_cost: save_ms,
        restore_cost: restore_ms,
        step_cost: step_ms,
        failure_rate,
    };
    input.check()?;
    if failure_rate == 0.0 {
        return Err("failure rate 0 means never checkpoint — give the server an explicit --default-ckpt-every instead".into());
    }
    Ok(input.optimize().interval_steps.max(1))
}
