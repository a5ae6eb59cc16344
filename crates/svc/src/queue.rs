//! The persistent job queue: a CRC-framed journal of lifecycle events
//! and the fair-share scheduler that picks what runs next.
//!
//! ## Journal format
//!
//! The queue is an append-only [`fasda_ckpt::journal`] whose records are
//! compact JSON event documents:
//!
//! ```text
//! {"v":1,"ev":"submit","id":N,"spec":{...}}            job N entered the queue
//! {"v":1,"ev":"start","id":N,"worker":W}               worker W picked job N up
//! {"v":1,"ev":"requeue","id":N,"reason":R}             drained (migrate, shutdown) or crashed
//! {"v":1,"ev":"done","id":N}                           ran to its step target
//! {"v":1,"ev":"cancel","id":N,"steps_done":S}          cancelled after S steps
//! {"v":1,"ev":"fail","id":N,"steps_done":S,"error":E}  unrecoverable failure
//! ```
//!
//! `steps_done` is optional: journals written before it existed replay
//! with 0.
//!
//! Replay folds the event stream into per-job final states. A job whose
//! last event is `start` or `requeue` was in flight when the server
//! died — it is returned as *queued* so the restarted server re-runs it
//! (from its newest on-disk checkpoint when one exists). A torn trailing
//! record — the server died mid-append — is discarded by the journal
//! layer; mid-file corruption stays fatal. The same fold, restricted to
//! one id ([`replay_job`]), is how the daemon answers for a finished job
//! it no longer keeps in memory.
//!
//! ## Fair share
//!
//! [`pick`] chooses among runnable queued jobs by weighted fair share:
//! the tenant with the smallest `running / weight` ratio goes first
//! (ratios compared exactly by cross-multiplication), then higher
//! priority, then lower job id (FIFO). Tenants at their `max_running`
//! quota are skipped entirely.

use crate::job::JobSpec;
use fasda_ckpt::journal::JournalWriter;
use fasda_ckpt::CkptError;
use fasda_trace::Json;
use std::collections::HashMap;
use std::path::Path;

/// Journal event schema version.
pub const JOURNAL_VERSION: i64 = 1;

/// Per-tenant scheduling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Fair-share weight (a weight-2 tenant gets twice the slots of a
    /// weight-1 tenant under contention). Minimum 1.
    pub weight: u64,
    /// Hard cap on concurrently running jobs; `usize::MAX` = unlimited.
    pub max_running: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { weight: 1, max_running: usize::MAX }
    }
}

/// Tenant → quota table; unknown tenants take the default quota.
#[derive(Clone, Debug, Default)]
pub struct TenantTable {
    quotas: HashMap<String, TenantQuota>,
}

impl TenantTable {
    /// Empty table: every tenant gets the default quota.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one tenant's quota.
    pub fn set(&mut self, tenant: &str, quota: TenantQuota) {
        self.quotas.insert(tenant.to_string(), quota);
    }

    /// The quota for `tenant` (default for unknown tenants).
    pub fn get(&self, tenant: &str) -> TenantQuota {
        self.quotas.get(tenant).copied().unwrap_or_default()
    }

    /// Parse a repeatable `NAME:WEIGHT[:MAX]` CLI clause.
    pub fn parse_clause(&mut self, clause: &str) -> Result<(), String> {
        let parts: Vec<&str> = clause.split(':').collect();
        let (name, rest) = match parts.as_slice() {
            [n, w] => (*n, (*w, None)),
            [n, w, m] => (*n, (*w, Some(*m))),
            _ => return Err(format!("bad tenant clause '{clause}' (want NAME:WEIGHT[:MAX])")),
        };
        let weight: u64 = rest.0.parse().map_err(|_| format!("bad weight in '{clause}'"))?;
        if weight == 0 {
            return Err(format!("tenant weight must be >= 1 in '{clause}'"));
        }
        let max_running = match rest.1 {
            None => usize::MAX,
            Some(m) => m.parse().map_err(|_| format!("bad max in '{clause}'"))?,
        };
        self.set(name, TenantQuota { weight, max_running });
        Ok(())
    }
}

/// The scheduler's view of one queued job.
#[derive(Clone, Debug)]
pub struct SchedJob {
    /// Queue-assigned id (submission order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Higher runs first within a tenant's share.
    pub priority: i64,
    /// Worker index this job must *not* run on (anti-affinity after a
    /// drain: a migrated job resumes elsewhere).
    pub avoid: Option<usize>,
}

/// Pick the next job for `worker` from `queued`, honouring quotas,
/// weighted fair share, priority, and FIFO order. `running_by_tenant`
/// counts jobs currently executing. Pure — the property tests drive it
/// directly.
pub fn pick(
    queued: &[SchedJob],
    running_by_tenant: &HashMap<String, usize>,
    table: &TenantTable,
    worker: usize,
) -> Option<u64> {
    let mut best: Option<(&SchedJob, u128, u64)> = None;
    for job in queued {
        if job.avoid == Some(worker) {
            continue;
        }
        let quota = table.get(&job.tenant);
        let running = *running_by_tenant.get(&job.tenant).unwrap_or(&0);
        if running >= quota.max_running {
            continue;
        }
        // share = running / weight, compared exactly via cross products.
        let share = (running as u128, quota.weight.max(1) as u128);
        let better = match &best {
            None => true,
            Some((cur, cur_run, cur_w)) => {
                let lhs = share.0 * *cur_w as u128;
                let rhs = *cur_run * share.1;
                lhs < rhs
                    || (lhs == rhs
                        && (job.priority > cur.priority
                            || (job.priority == cur.priority && job.id < cur.id)))
            }
        };
        if better {
            best = Some((job, share.0, share.1 as u64));
        }
    }
    best.map(|(j, _, _)| j.id)
}

/// A job's final state as reconstructed from the journal.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayedState {
    /// Submitted (or in flight at the crash) and still owed a run.
    Queued,
    /// Finished.
    Done,
    /// Cancelled.
    Cancelled,
    /// Failed with the recorded error.
    Failed(String),
}

/// One journal-recovered job.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// Queue id from the submit event.
    pub id: u64,
    /// The full spec, as submitted.
    pub spec: JobSpec,
    /// Folded final state.
    pub state: ReplayedState,
    /// Steps run when the job finished (its target once done; 0 while
    /// queued, and for terminal events journaled without the field).
    pub steps_done: u64,
    /// `crash` requeues.
    pub restarts: u32,
    /// Drains (`migrate` and `shutdown` requeues).
    pub migrations: u32,
}

/// The queue rebuilt from its journal.
pub struct RecoveredQueue {
    /// Jobs in submission order.
    pub jobs: Vec<ReplayedJob>,
    /// Next id to assign (one past the largest seen).
    pub next_id: u64,
    /// Bytes of torn trailing record discarded by the journal layer
    /// (non-zero means the server died mid-append; harmless).
    pub torn_bytes: u64,
}

/// Errors from the queue layer.
#[derive(Debug)]
pub enum QueueError {
    /// The journal file is unreadable or corrupt mid-file.
    Journal(CkptError),
    /// A record parsed but is not a valid event document.
    BadRecord(String),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Journal(e) => write!(f, "queue journal: {e}"),
            QueueError::BadRecord(e) => write!(f, "queue journal record: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<CkptError> for QueueError {
    fn from(e: CkptError) -> Self {
        QueueError::Journal(e)
    }
}

/// The persistent event log. Every lifecycle transition appends one
/// fsynced record; replay after a crash reconstructs the queue.
pub struct QueueJournal {
    writer: JournalWriter,
}

fn event(ev: &str, id: u64) -> fasda_trace::json::ObjBuilder {
    Json::obj()
        .field("v", JOURNAL_VERSION)
        .field("ev", ev)
        .field("id", Json::uint(id))
}

impl QueueJournal {
    /// Open (creating if missing) the journal at `path` for appending.
    pub fn open(path: &Path) -> Result<Self, QueueError> {
        Ok(QueueJournal { writer: JournalWriter::open(path)? })
    }

    fn append(&mut self, doc: Json) -> Result<(), QueueError> {
        Ok(self.writer.append(doc.compact().as_bytes())?)
    }

    /// Record a submission.
    pub fn submit(&mut self, id: u64, spec: &JobSpec) -> Result<(), QueueError> {
        self.append(event("submit", id).field("spec", spec.to_json()).build())
    }

    /// Record a worker pickup.
    pub fn start(&mut self, id: u64, worker: usize) -> Result<(), QueueError> {
        self.append(event("start", id).field("worker", worker).build())
    }

    /// Record a drain (migration) or crash requeue.
    pub fn requeue(&mut self, id: u64, reason: &str) -> Result<(), QueueError> {
        self.append(event("requeue", id).field("reason", reason).build())
    }

    /// Record completion.
    pub fn done(&mut self, id: u64) -> Result<(), QueueError> {
        self.append(event("done", id).build())
    }

    /// Record cancellation after `steps_done` steps.
    pub fn cancel(&mut self, id: u64, steps_done: u64) -> Result<(), QueueError> {
        self.append(event("cancel", id).field("steps_done", Json::uint(steps_done)).build())
    }

    /// Record an unrecoverable failure after `steps_done` steps.
    pub fn fail(&mut self, id: u64, steps_done: u64, error: &str) -> Result<(), QueueError> {
        self.append(
            event("fail", id)
                .field("steps_done", Json::uint(steps_done))
                .field("error", error)
                .build(),
        )
    }

    /// Rewrite the journal to just the submit events of `live` jobs
    /// (atomic temp + rename) — startup compaction after a replay drops
    /// the terminal jobs' history.
    pub fn compact_to(&mut self, live: &[(u64, &JobSpec)]) -> Result<(), QueueError> {
        let records: Vec<Vec<u8>> = live
            .iter()
            .map(|(id, spec)| {
                event("submit", *id)
                    .field("spec", spec.to_json())
                    .build()
                    .compact()
                    .into_bytes()
            })
            .collect();
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        Ok(self.writer.compact(&refs)?)
    }
}

/// Replay the journal at `path` into per-job final states. A missing
/// file is an empty queue; a torn trailing record is discarded and
/// reported; mid-file corruption is fatal.
pub fn replay(path: &Path) -> Result<RecoveredQueue, QueueError> {
    fold(path, None)
}

/// Job `id` folded from the journal at `path` exactly as [`replay`] folds
/// it, skipping every other job's records; `None` when the journal has
/// no submit for `id`.
pub fn replay_job(path: &Path, id: u64) -> Result<Option<ReplayedJob>, QueueError> {
    Ok(fold(path, Some(id))?.jobs.pop())
}

fn fold(path: &Path, only: Option<u64>) -> Result<RecoveredQueue, QueueError> {
    let raw = fasda_ckpt::journal::replay(path)?;
    let mut jobs: Vec<ReplayedJob> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut next_id = 0u64;
    for (n, rec) in raw.records.iter().enumerate() {
        let text = std::str::from_utf8(rec)
            .map_err(|e| QueueError::BadRecord(format!("record {n}: {e}")))?;
        let doc = Json::parse(text).map_err(|e| QueueError::BadRecord(format!("record {n}: {e}")))?;
        if doc.get("v").and_then(Json::as_i64) != Some(JOURNAL_VERSION) {
            return Err(QueueError::BadRecord(format!(
                "record {n}: unsupported journal version"
            )));
        }
        let ev = doc
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| QueueError::BadRecord(format!("record {n}: no event kind")))?;
        let id = doc
            .get("id")
            .and_then(Json::as_i64)
            .ok_or_else(|| QueueError::BadRecord(format!("record {n}: no job id")))?
            as u64;
        next_id = next_id.max(id + 1);
        if only.is_some_and(|only| only != id) {
            continue;
        }
        match ev {
            "submit" => {
                let spec = doc
                    .get("spec")
                    .ok_or_else(|| QueueError::BadRecord(format!("record {n}: submit without spec")))
                    .and_then(|s| {
                        JobSpec::from_json(s)
                            .map_err(|e| QueueError::BadRecord(format!("record {n}: {e}")))
                    })?;
                index.insert(id, jobs.len());
                jobs.push(ReplayedJob {
                    id,
                    spec,
                    state: ReplayedState::Queued,
                    steps_done: 0,
                    restarts: 0,
                    migrations: 0,
                });
            }
            // `start` leaves the job owed a run; the folded state is
            // already Queued unless a terminal event follows.
            "start" => {}
            "requeue" | "done" | "cancel" | "fail" => {
                let slot = index.get(&id).copied().ok_or_else(|| {
                    QueueError::BadRecord(format!("record {n}: {ev} for unknown job {id}"))
                })?;
                let job = &mut jobs[slot];
                let steps_done = || {
                    let steps = doc.get("steps_done").and_then(Json::as_i64);
                    steps.and_then(|s| u64::try_from(s).ok()).unwrap_or(0)
                };
                match ev {
                    "requeue" if doc.get("reason").and_then(Json::as_str) == Some("crash") => {
                        job.restarts += 1
                    }
                    "requeue" => job.migrations += 1,
                    "done" => {
                        job.state = ReplayedState::Done;
                        job.steps_done = job.spec.steps;
                    }
                    "cancel" => {
                        job.state = ReplayedState::Cancelled;
                        job.steps_done = steps_done();
                    }
                    _ => {
                        let error = doc.get("error").and_then(Json::as_str).unwrap_or("unknown");
                        job.state = ReplayedState::Failed(error.to_string());
                        job.steps_done = steps_done();
                    }
                }
            }
            other => {
                return Err(QueueError::BadRecord(format!(
                    "record {n}: unknown event '{other}'"
                )))
            }
        }
    }
    Ok(RecoveredQueue { jobs, next_id, torn_bytes: raw.torn_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, tenant: &str, priority: i64) -> SchedJob {
        SchedJob { id, tenant: tenant.to_string(), priority, avoid: None }
    }

    #[test]
    fn fifo_within_one_tenant() {
        let q = vec![job(2, "a", 0), job(0, "a", 0), job(1, "a", 0)];
        assert_eq!(pick(&q, &HashMap::new(), &TenantTable::new(), 0), Some(0));
    }

    #[test]
    fn priority_beats_fifo() {
        let q = vec![job(0, "a", 0), job(1, "a", 5)];
        assert_eq!(pick(&q, &HashMap::new(), &TenantTable::new(), 0), Some(1));
    }

    #[test]
    fn fair_share_prefers_idle_tenant() {
        let q = vec![job(0, "busy", 9), job(1, "idle", 0)];
        let mut running = HashMap::new();
        running.insert("busy".to_string(), 2);
        assert_eq!(pick(&q, &running, &TenantTable::new(), 0), Some(1));
    }

    #[test]
    fn weight_doubles_the_share() {
        // busy has 2 running at weight 4 (share 0.5); idle has 1 running
        // at weight 1 (share 1.0) — busy still goes first.
        let mut table = TenantTable::new();
        table.set("busy", TenantQuota { weight: 4, max_running: usize::MAX });
        let q = vec![job(0, "busy", 0), job(1, "idle", 0)];
        let mut running = HashMap::new();
        running.insert("busy".to_string(), 2);
        running.insert("idle".to_string(), 1);
        assert_eq!(pick(&q, &running, &table, 0), Some(0));
    }

    #[test]
    fn quota_blocks_a_tenant() {
        let mut table = TenantTable::new();
        table.set("capped", TenantQuota { weight: 1, max_running: 1 });
        let q = vec![job(0, "capped", 9), job(1, "other", 0)];
        let mut running = HashMap::new();
        running.insert("capped".to_string(), 1);
        assert_eq!(pick(&q, &running, &table, 0), Some(1));
        // Everyone blocked -> nothing runnable.
        let q2 = vec![job(0, "capped", 9)];
        assert_eq!(pick(&q2, &running, &table, 0), None);
    }

    #[test]
    fn anti_affinity_skips_the_drained_worker() {
        let mut j = job(0, "a", 0);
        j.avoid = Some(1);
        let q = vec![j];
        assert_eq!(pick(&q, &HashMap::new(), &TenantTable::new(), 1), None);
        assert_eq!(pick(&q, &HashMap::new(), &TenantTable::new(), 0), Some(0));
    }

    #[test]
    fn tenant_clause_parsing() {
        let mut t = TenantTable::new();
        t.parse_clause("alice:2").unwrap();
        t.parse_clause("bob:1:3").unwrap();
        assert_eq!(t.get("alice"), TenantQuota { weight: 2, max_running: usize::MAX });
        assert_eq!(t.get("bob"), TenantQuota { weight: 1, max_running: 3 });
        assert_eq!(t.get("nobody"), TenantQuota::default());
        assert!(t.parse_clause("x").is_err());
        assert!(t.parse_clause("x:0").is_err());
        assert!(t.parse_clause("x:y").is_err());
    }

    #[test]
    fn journal_round_trips_lifecycles() {
        let dir = std::env::temp_dir().join(format!("fasda-svc-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("queue.journal");
        let spec = JobSpec { steps: 3, ..JobSpec::default() };
        {
            let mut j = QueueJournal::open(&path).unwrap();
            j.submit(0, &spec).unwrap();
            j.submit(1, &spec).unwrap();
            j.submit(2, &spec).unwrap();
            j.submit(3, &spec).unwrap();
            j.submit(4, &spec).unwrap();
            j.submit(5, &spec).unwrap();
            j.start(0, 0).unwrap();
            j.done(0).unwrap();
            j.start(1, 1).unwrap();
            j.cancel(2, 0).unwrap();
            j.start(3, 0).unwrap();
            j.requeue(3, "migrate").unwrap();
            j.start(4, 1).unwrap();
            j.requeue(4, "crash").unwrap();
            j.start(4, 0).unwrap();
            j.fail(4, 2, "boom").unwrap();
            // A cancel journaled before events carried `steps_done`.
            j.append(event("cancel", 5).build()).unwrap();
        }
        let q = replay(&path).unwrap();
        assert_eq!(q.next_id, 6);
        assert_eq!(q.torn_bytes, 0);
        let folded: Vec<(&ReplayedState, u64, u32, u32)> = q
            .jobs
            .iter()
            .map(|j| (&j.state, j.steps_done, j.restarts, j.migrations))
            .collect();
        let failed = ReplayedState::Failed("boom".into());
        assert_eq!(
            folded,
            vec![
                (&ReplayedState::Done, 3, 0, 0),
                (&ReplayedState::Queued, 0, 0, 0), // in flight at the "crash"
                (&ReplayedState::Cancelled, 0, 0, 0),
                (&ReplayedState::Queued, 0, 0, 1), // drained, never resumed
                (&failed, 2, 1, 0),
                (&ReplayedState::Cancelled, 0, 0, 0),
            ]
        );
        // One id's fold is that job's row of the whole fold.
        for job in &q.jobs {
            let one = replay_job(&path, job.id).unwrap().expect("journaled job");
            assert_eq!(
                (one.id, &one.state, one.steps_done, one.restarts, one.migrations),
                (job.id, &job.state, job.steps_done, job.restarts, job.migrations)
            );
        }
        assert!(replay_job(&path, 6).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_live_jobs() {
        let dir = std::env::temp_dir().join(format!("fasda-svc-qc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("queue.journal");
        let spec = JobSpec { steps: 3, ..JobSpec::default() };
        let mut j = QueueJournal::open(&path).unwrap();
        j.submit(0, &spec).unwrap();
        j.done(0).unwrap();
        j.submit(1, &spec).unwrap();
        j.compact_to(&[(1, &spec)]).unwrap();
        // The journal stays appendable after compaction.
        j.submit(2, &spec).unwrap();
        let q = replay(&path).unwrap();
        assert_eq!(q.jobs.len(), 2);
        assert_eq!(q.jobs[0].id, 1);
        assert_eq!(q.jobs[1].id, 2);
        assert_eq!(q.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
