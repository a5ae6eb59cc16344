//! Deterministic checkpoint/restore and crash recovery for cluster runs.
//!
//! A run with checkpointing enabled is driven as a sequence of
//! *segments* of `every` timesteps: after each segment the cluster is
//! quiescent (every node `Done`, no flit in any ring, queue, packetizer
//! or fabric), its full microarchitectural state is serialized through
//! [`Cluster::snapshot_into`] into a versioned, CRC-framed `fckp`
//! container ([`fasda_ckpt`]), written atomically (write to a temp file,
//! then rename), and old checkpoints beyond the retention bound are
//! pruned. A crashed run — whether a real process death or the fault
//! plan's `crash=NODE@STEP` directive — recovers by rebuilding the
//! cluster from the same configuration and particle system, restoring
//! the latest checkpoint, and re-running the remaining segments; the
//! recovered run's final particle state, per-step records, merged
//! statistics, and per-node trace streams are **bit-identical** to an
//! uninterrupted run with the same segmentation (see `DESIGN.md` §9 for
//! the argument).
//!
//! Segmentation itself is observable (each segment re-arms every node at
//! a common cycle, like a fresh run), so the recovery oracle is the
//! *checkpointed* uninterrupted run, not the monolithic one. Physics is
//! unaffected either way — force accumulation is fixed-point and
//! order-invariant — only the cycle accounting differs.

use crate::driver::{sections, Cluster, ClusterError, EngineConfig};
use crate::report::ClusterRunReport;
use fasda_ckpt::{
    checkpoint_path, prune_checkpoints, write_atomic, CkptError, Container, ContainerWriter,
    Persist, Writer,
};
use fasda_net::fault::FaultPlan;
pub use fasda_ckpt::latest_checkpoint;
pub use fasda_ckpt::policy;
use fasda_trace::Trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where and how often to checkpoint a run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint every `every` timesteps (also the segment length).
    pub every: u64,
    /// Directory for `ckpt-*.fckp` files (created on first write).
    pub dir: PathBuf,
    /// Keep the newest `keep` checkpoints; `0` keeps all.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `dir` every `every` steps, keeping the last 3.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every: every.max(1),
            dir: dir.into(),
            keep: 3,
        }
    }

    /// Override the retention bound (`0` = keep all).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

/// Cross-segment run aggregation: the [`ClusterRunReport`] folded over
/// every completed segment ([`ClusterRunReport::fold`]), under the name
/// the frozen benchmark imports it by.
pub type RunAccumulator = ClusterRunReport;

// The report folded so far lives *inside* each checkpoint (the `runner`
// section) so a resumed run can report over the whole trajectory, not
// just its own segments.
fasda_ckpt::persist_struct!(ClusterRunReport {
    steps,
    total_cycles,
    records,
    stats,
    per_node_traffic,
    pos_packets,
    frc_packets,
    pos_bits,
    frc_bits,
    clock_hz,
    dt_fs,
    nodes,
    faults_injected,
    reliability,
});

/// Serialize the quiescent cluster + accumulator into checkpoint
/// container bytes **in memory** — the drain half of a live migration.
/// The bytes are exactly what [`save_checkpoint`] would write to disk,
/// so a drained job handed to another worker resumes from the same
/// snapshot an on-disk recovery would.
pub fn drain_to_container(cluster: &Cluster, acc: &ClusterRunReport) -> Vec<u8> {
    let mut cw = ContainerWriter::new();
    cluster.snapshot_into(&mut cw);
    let mut w = Writer::new();
    acc.save(&mut w);
    cw.push(sections::RUNNER, w);
    cw.finish()
}

/// Restore `cluster` (freshly built over the same configuration and
/// particle system) from in-memory container bytes — the resume half of
/// a live migration. Returns the report folded over the completed segments.
pub fn resume_from_container(
    cluster: &mut Cluster,
    bytes: &[u8],
) -> Result<ClusterRunReport, CkptError> {
    let container = Container::parse(bytes)?;
    cluster.restore_from(&container)?;
    ClusterRunReport::load(&mut container.reader(sections::RUNNER)?)
}

/// Serialize the cluster + accumulator into a checkpoint file named
/// after the current step, atomically, then prune to the retention
/// bound. Returns the path written.
pub fn save_checkpoint(
    cluster: &Cluster,
    acc: &ClusterRunReport,
    cfg: &CheckpointConfig,
) -> Result<PathBuf, CkptError> {
    let bytes = drain_to_container(cluster, acc);
    std::fs::create_dir_all(&cfg.dir)?;
    let path = checkpoint_path(&cfg.dir, cluster.current_step());
    write_atomic(&path, &bytes)?;
    if cfg.keep > 0 {
        prune_checkpoints(&cfg.dir, cfg.keep)?;
    }
    Ok(path)
}

/// Restore `cluster` (freshly built over the same configuration and
/// particle system) from a checkpoint file; returns the report folded
/// over the completed segments. On any error the cluster may be
/// partially overwritten and must be rebuilt before retrying.
pub fn load_checkpoint(cluster: &mut Cluster, path: &Path) -> Result<ClusterRunReport, CkptError> {
    resume_from_container(cluster, &std::fs::read(path)?)
}

/// What a run cost the host, measured by the run that paid it: the
/// segment loop times every checkpoint save, the one restore each run
/// kind does times its load, and whoever timed the whole run (the CLI)
/// sets `wall_s`. Host-side and different every run, so it rides only
/// the heartbeat stream's `final` record ([`crate::RunRecord::emit_final`]) —
/// never a report, a checkpoint or any byte-compared artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostCosts {
    /// Wall seconds of the whole run, as its caller timed it (0 untimed).
    pub wall_s: f64,
    /// Steps simulated to completion in this process, replays included.
    pub steps: u64,
    /// Checkpoints written.
    pub saves: u64,
    /// Wall seconds spent writing them.
    pub save_s: f64,
    /// Checkpoints restored.
    pub restores: u64,
    /// Wall seconds spent restoring them.
    pub restore_s: f64,
}

impl HostCosts {
    /// Run `load`, one restore, and charge its wall time to the run.
    pub(crate) fn restore<T>(&mut self, load: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = load();
        self.restores += 1;
        self.restore_s += t.elapsed().as_secs_f64();
        out
    }
}

/// Why a checkpointed run did not complete.
#[derive(Debug)]
pub enum CkptRunError {
    /// The simulation itself failed (stall, deadlock, injected crash).
    Run(ClusterError),
    /// A checkpoint could not be written.
    Ckpt(CkptError),
}

impl std::fmt::Display for CkptRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptRunError::Run(e) => e.fmt(f),
            CkptRunError::Ckpt(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CkptRunError {}

impl From<ClusterError> for CkptRunError {
    fn from(e: ClusterError) -> Self {
        CkptRunError::Run(e)
    }
}

impl From<CkptError> for CkptRunError {
    fn from(e: CkptError) -> Self {
        CkptRunError::Ckpt(e)
    }
}

/// A completed checkpointed (or resumed) run.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// Whole-run report (all segments, including pre-resume ones).
    pub report: ClusterRunReport,
    /// One flight-recorder trace per segment run *in this process*
    /// (empty when tracing is off). A resumed run's traces align with
    /// the suffix of the uninterrupted run's segment traces.
    pub traces: Vec<Trace>,
    /// Checkpoint files written, oldest first (retention may have
    /// deleted early ones by the time the run finishes).
    pub checkpoints: Vec<PathBuf>,
}

/// A scheduler's verdict after each completed segment of a controlled
/// run ([`run_with_checkpoints_ctl`]). Decisions are only taken at
/// quiescent segment boundaries, which is what makes drain (and thus
/// live migration) bit-exact: the state handed off is a checkpoint, not
/// an arbitrary mid-step machine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentControl {
    /// Keep running the next segment.
    Continue,
    /// Stop here and hand back the quiescent state as in-memory
    /// container bytes (for migration to another worker).
    Drain,
    /// Stop here and discard the run (user cancellation). Any
    /// checkpoints already written stay on disk.
    Cancel,
}

/// Progress snapshot passed to the control callback after each segment.
#[derive(Clone, Debug)]
pub struct SegmentStatus {
    /// Absolute steps completed so far (including pre-resume segments).
    pub steps_done: u64,
    /// The run's total step target.
    pub steps_total: u64,
    /// Wall-clock cycles accumulated over the whole run so far.
    pub total_cycles: u64,
    /// Checkpoint written at this boundary, when checkpointing is on.
    pub checkpoint: Option<PathBuf>,
}

/// How a controlled run ([`run_with_checkpoints_ctl`]) ended.
#[derive(Debug)]
pub enum CkptRunOutcome {
    /// Ran to the step target.
    Completed(CheckpointedRun),
    /// Drained at a segment boundary: `run` reports the segments
    /// completed here, `container` is the quiescent state
    /// ([`drain_to_container`] bytes) to resume elsewhere via
    /// [`resume_from_container`].
    Drained {
        /// Partial run over the segments completed before the drain.
        run: CheckpointedRun,
        /// Quiescent checkpoint-container bytes at the drain boundary.
        container: Vec<u8>,
    },
    /// Cancelled at a segment boundary; the partial run is reported for
    /// accounting but the job is over.
    Cancelled(CheckpointedRun),
}

/// Drive `cluster` to `steps` total timesteps in checkpoint-sized
/// segments, snapshotting after each one. `acc` carries the progress of
/// any previously completed segments (from [`load_checkpoint`]); pass
/// [`ClusterRunReport::new`] for a fresh run. With `ckpt: None` the run is
/// a single segment and nothing is written — the driver adds no
/// per-cycle work either way, so disabled checkpointing is free.
///
/// `cycle_budget` bounds the cycles *this call* may simulate across all
/// its segments.
pub fn run_with_checkpoints(
    cluster: &mut Cluster,
    steps: u64,
    cycle_budget: u64,
    engine: &EngineConfig,
    ckpt: Option<&CheckpointConfig>,
    acc: ClusterRunReport,
) -> Result<CheckpointedRun, CkptRunError> {
    run_to_end(cluster, steps, cycle_budget, engine, ckpt, acc, &mut HostCosts::default())
}

/// [`run_with_checkpoints`], charging its steps and saves to `host`.
fn run_to_end(
    cluster: &mut Cluster,
    steps: u64,
    cycle_budget: u64,
    engine: &EngineConfig,
    ckpt: Option<&CheckpointConfig>,
    acc: ClusterRunReport,
    host: &mut HostCosts,
) -> Result<CheckpointedRun, CkptRunError> {
    match run_with_checkpoints_ctl(cluster, steps, cycle_budget, engine, ckpt, acc, host, &mut |_| {
        SegmentControl::Continue
    })? {
        CkptRunOutcome::Completed(run) => Ok(run),
        // A Continue-only controller can neither drain nor cancel.
        CkptRunOutcome::Drained { .. } | CkptRunOutcome::Cancelled(_) => {
            unreachable!("uncontrolled run cannot drain or cancel")
        }
    }
}

/// [`run_with_checkpoints`] with a per-segment control hook: after every
/// segment (and its checkpoint write) `ctl` is consulted, and the run
/// continues, drains to in-memory container bytes, or cancels. This is
/// the job-facing run API the service layer schedules on — cancellation
/// and live migration both act here, never mid-segment. The steps run
/// and the checkpoint saves are charged to `host`, failed or not.
#[allow(clippy::too_many_arguments)]
pub fn run_with_checkpoints_ctl(
    cluster: &mut Cluster,
    steps: u64,
    cycle_budget: u64,
    engine: &EngineConfig,
    ckpt: Option<&CheckpointConfig>,
    acc: ClusterRunReport,
    host: &mut HostCosts,
    ctl: &mut dyn FnMut(&SegmentStatus) -> SegmentControl,
) -> Result<CkptRunOutcome, CkptRunError> {
    run_segments(cluster, steps, cycle_budget, ckpt, acc, host, ctl, &mut |cluster, target, budget| {
        let report = cluster.try_run_with(target, budget, engine)?;
        Ok((report, cluster.take_trace()))
    })
}

/// One segment's report and trace, or why it failed.
pub(crate) type Segment<E> = Result<(ClusterRunReport, Option<Trace>), E>;

/// The one segment loop, whatever advances the machine: `segment(cluster,
/// target, budget)` runs one segment to the absolute step `target` within
/// `budget` cycles and returns its report and trace — in-process by
/// [`Cluster::try_run_with`], on a shard coordinator by one round of
/// worker frames spliced into its replica. Budget accounting, report
/// accumulation, checkpoint writing (timed into `host`) and the
/// controller live here only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_segments<E: From<CkptError>>(
    cluster: &mut Cluster,
    steps: u64,
    cycle_budget: u64,
    ckpt: Option<&CheckpointConfig>,
    mut acc: ClusterRunReport,
    host: &mut HostCosts,
    ctl: &mut dyn FnMut(&SegmentStatus) -> SegmentControl,
    segment: &mut dyn FnMut(&mut Cluster, u64, u64) -> Segment<E>,
) -> Result<CkptRunOutcome, E> {
    assert!(
        acc.steps <= steps,
        "accumulator is already past the requested step count"
    );
    let every = match ckpt {
        Some(c) => c.every,
        None => steps.saturating_sub(acc.steps).max(1),
    };
    if let Some(obs) = &mut cluster.obs {
        obs.begin_run(steps, acc.steps, cluster.cycle);
    }
    let start_cycle = cluster.cycle;
    let mut traces = Vec::new();
    let mut checkpoints = Vec::new();
    while acc.steps < steps {
        let target = (acc.steps + every).min(steps);
        let spent = cluster.cycle - start_cycle;
        let (report, trace) = segment(cluster, target, cycle_budget.saturating_sub(spent))?;
        if let Some(obs) = &mut cluster.obs {
            obs.end_segment(trace.as_ref().map(|t| &t.stalls));
        }
        host.steps += target - acc.steps;
        traces.extend(trace);
        acc.fold(&report);
        let mut written = None;
        if let Some(c) = ckpt {
            let t = Instant::now();
            let path = save_checkpoint(cluster, &acc, c)?;
            host.saves += 1;
            host.save_s += t.elapsed().as_secs_f64();
            checkpoints.push(path.clone());
            written = Some(path);
        }
        if acc.steps >= steps {
            break;
        }
        let status = SegmentStatus {
            steps_done: acc.steps,
            steps_total: steps,
            total_cycles: acc.total_cycles,
            checkpoint: written,
        };
        match ctl(&status) {
            SegmentControl::Continue => {}
            SegmentControl::Drain => {
                let container = drain_to_container(cluster, &acc);
                return Ok(CkptRunOutcome::Drained {
                    run: CheckpointedRun {
                        report: acc,
                        traces,
                        checkpoints,
                    },
                    container,
                });
            }
            SegmentControl::Cancel => {
                return Ok(CkptRunOutcome::Cancelled(CheckpointedRun {
                    report: acc,
                    traces,
                    checkpoints,
                }));
            }
        }
    }
    Ok(CkptRunOutcome::Completed(CheckpointedRun {
        report: acc,
        traces,
        checkpoints,
    }))
}

/// Bounds for [`run_with_recovery`]'s restart loop.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Give up (returning the last failure) after this many restarts.
    pub max_restarts: u32,
}

impl RecoveryPolicy {
    /// Allow up to `max_restarts` automatic restarts.
    pub fn new(max_restarts: u32) -> Self {
        RecoveryPolicy { max_restarts }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::new(4)
    }
}

/// What a failure teaches the next attempt — the one rule every
/// recovery loop (the in-process [`run_with_recovery`], the job service's
/// requeue) applies to the plan it will retry under:
/// * an injected **crash** strips exactly that `crash=NODE@STEP`
///   directive ([`FaultPlan::without_crash_at`]) — later staggered
///   crashes still fire, each recovered in its own restart;
/// * a **deadlock diagnosed as an outage** (the fault layer latched a
///   flap/partition before traffic starved) strips every window
///   directive ([`FaultPlan::without_windows`]) — with the partition
///   lifted the replay completes.
///
/// Returns the cause, for the restart log; `None` means the failure is
/// not recoverable (a stall, or an *organic* deadlock no outage explains)
/// and `plan` is untouched. A plan taught down to nothing stays `Some`:
/// the cluster treats an empty plan as none, and whether the run carries
/// the reliability layer — which its checkpoints fingerprint — was
/// decided by the plan it started with.
pub fn learn(plan: &mut Option<FaultPlan>, err: &ClusterError) -> Option<String> {
    match err {
        ClusterError::Crashed(c) => {
            *plan = plan.take().map(|p| p.without_crash_at(c.node as u32, c.step));
            Some(format!("crash: node {} at step {} (cycle {})", c.node, c.step, c.at_cycle))
        }
        ClusterError::Deadlock(d) if !d.outages.is_empty() => {
            *plan = plan.take().map(|p| p.without_windows());
            Some(format!(
                "outage deadlock at cycle {} [{}]; windows lifted",
                d.at_cycle,
                d.outages.join(", ")
            ))
        }
        _ => None,
    }
}

/// A run that [`run_with_recovery`] drove to completion, possibly
/// through one or more restarts.
pub struct RecoveredRun {
    /// The completed run (whole-trajectory report, as if uninterrupted).
    pub run: CheckpointedRun,
    /// The final machine state, for `store_into`.
    pub cluster: Cluster,
    /// One human-readable line per restart taken, oldest first — empty
    /// when the run survived on the first attempt.
    pub restarts: Vec<String>,
    /// Steps run, saves and restores over every attempt.
    pub host: HostCosts,
}

/// Drive a run to completion through injected crashes and
/// partition-induced deadlocks: a rolling-recovery loop around
/// [`run_with_checkpoints`].
///
/// Each attempt builds a fresh [`Cluster`] over `sys` (crashed clusters
/// are poisoned and cannot be re-armed) and resumes from the newest
/// checkpoint in `ckpt.dir` — or replays from step 0 when the failure
/// beat the first checkpoint to disk. Checkpoints are only written at
/// quiescent segment boundaries, so the newest one always predates the
/// failure's damage. Each failure teaches the next attempt by [`learn`];
/// one it cannot learn from is returned as the error.
///
/// The recovered run's final state is bit-identical to an uninterrupted
/// run with the same segmentation: every attempt replays from a
/// quiescent snapshot under the same physics, and the stripped
/// directives only ever removed traffic that reliability (or the replay
/// itself) re-delivers. The fault-plan fingerprint in each checkpoint
/// covers only the recovery-invariant core, so a stripped-plan resume
/// never trips `ConfigMismatch`.
pub fn run_with_recovery(
    sys: &fasda_md::system::ParticleSystem,
    cfg: &crate::driver::ClusterConfig,
    steps: u64,
    cycle_budget: u64,
    engine: &EngineConfig,
    ckpt: &CheckpointConfig,
    policy: &RecoveryPolicy,
) -> Result<RecoveredRun, CkptRunError> {
    let mut run_cfg = cfg.clone();
    let mut restarts: Vec<String> = Vec::new();
    let mut host = HostCosts::default();
    loop {
        let mut cluster = Cluster::new(run_cfg.clone(), sys);
        let latest = if restarts.is_empty() { None } else { latest_checkpoint(&ckpt.dir)? };
        let acc = match latest {
            Some(path) => host.restore(|| load_checkpoint(&mut cluster, &path))?,
            None => ClusterRunReport::new(),
        };
        match run_to_end(&mut cluster, steps, cycle_budget, engine, Some(ckpt), acc, &mut host) {
            Ok(run) => return Ok(RecoveredRun { run, cluster, restarts, host }),
            Err(CkptRunError::Run(err)) if (restarts.len() as u32) < policy.max_restarts => {
                match learn(&mut run_cfg.faults, &err) {
                    Some(cause) => {
                        restarts.push(format!("{cause}; resuming from latest checkpoint"))
                    }
                    None => return Err(err.into()),
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The newest checkpoint step present in **every** directory — the
/// rolling-recovery restore point for a deployment whose per-worker
/// checkpoint directories hold mixed-age tails (a worker that died
/// early stops writing; retention prunes the survivors' old files).
/// Returns the step and one path per directory, in input order;
/// `Ok(None)` when no common step survives (or any directory is empty
/// or missing).
pub fn newest_consistent(dirs: &[PathBuf]) -> Result<Option<(u64, Vec<PathBuf>)>, CkptError> {
    let mut sets: Vec<std::collections::BTreeMap<u64, PathBuf>> = Vec::with_capacity(dirs.len());
    for d in dirs {
        if !d.is_dir() {
            return Ok(None);
        }
        sets.push(fasda_ckpt::list_checkpoints(d)?.into_iter().collect());
    }
    let Some(first) = sets.first() else {
        return Ok(None);
    };
    for &step in first.keys().rev() {
        if sets.iter().all(|s| s.contains_key(&step)) {
            let paths = sets.iter().map(|s| s[&step].clone()).collect();
            return Ok(Some((step, paths)));
        }
    }
    Ok(None)
}
