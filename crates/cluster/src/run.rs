//! One run path: [`RunSpec`] → [`RunSpec::run`] → [`RunOutput`].
//!
//! The paper's artifact describes a run once — `./compile.sh 222 444`,
//! then `run.py <scheduler> <dump_group> <num_iterations>` — and every
//! node executes identical logic from that one description. A
//! [`RunSpec`] is that description for the simulator: every field is a
//! `fasda run` flag, one to one, and the CLI, the job service and the
//! tests all construct and execute runs through it, so two runs described
//! by equal specs simulate the same machine by construction (DESIGN.md
//! "One run path").

use crate::ckpt::{
    latest_checkpoint, load_checkpoint, resume_from_container, run_with_checkpoints_ctl,
    run_with_recovery, CheckpointConfig, CheckpointedRun, CkptRunError, CkptRunOutcome, HostCosts,
    RecoveryPolicy, SegmentControl, SegmentStatus,
};
use crate::driver::{Cluster, ClusterConfig, ClusterError, EngineConfig, MAX_RUN_CYCLES};
use crate::obs::{ObsLive, ObsSinkConfig};
use crate::report::ClusterRunReport;
use crate::shard::ShardedRun;
use fasda_ckpt::CkptError;
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_net::fault::FaultPlan;
use fasda_net::reliable::RelConfig;
use fasda_net::sync::SyncMode;
use fasda_trace::Trace;
use std::path::PathBuf;

/// Where a run picks up from (`--resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resume {
    /// Step 0.
    Fresh,
    /// The newest checkpoint in the checkpoint directory; step 0 if none.
    Latest,
    /// This checkpoint file.
    File(PathBuf),
    /// [`crate::ckpt::drain_to_container`] bytes: a live migration's hand-off.
    Container(Vec<u8>),
}

/// A spec the simulator cannot run, named by the field at fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The [`RunSpec`] field (equally the job-document key) that is wrong.
    pub field: &'static str,
    /// What is wrong with it.
    pub reason: String,
}

impl SpecError {
    /// `field` is wrong because of `reason`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        SpecError { field, reason: reason.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// Everything that describes one simulation run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Total simulation-space cells per axis (`--total 444`).
    pub total: (u32, u32, u32),
    /// Cells per FPGA per axis (`--per-fpga 222`).
    pub per_fpga: (u32, u32, u32),
    /// Particles per cell (`--per-cell`).
    pub per_cell: u32,
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Timesteps to run (`--steps`).
    pub steps: u64,
    /// Chip design variant (`--variant`).
    pub variant: DesignVariant,
    /// Synchronization strategy (`--sync`).
    pub sync: SyncMode,
    /// The fault plan to execute (`--fault-plan`).
    pub faults: Option<FaultPlan>,
    /// Keep the reliable-delivery layer off under faults (`--unreliable`).
    pub unreliable: bool,
    /// Engine, recorder, heartbeat cadence (`--serial`, `--trace-level`, `--heartbeat-every`).
    pub engine: EngineConfig,
    /// Checkpoint schedule (`--checkpoint-every`, `--checkpoint-dir`, `--checkpoint-keep`).
    pub ckpt: Option<CheckpointConfig>,
    /// Where to pick up from (`--resume`).
    pub resume: Resume,
    /// Ride out crashes and outage deadlocks with up to this many restarts (`--recover`).
    pub recover: Option<u32>,
}

/// A completed run: what every reporter reads, whichever way it ran.
pub struct RunOutput {
    /// Whole-run report (all segments, including pre-resume ones).
    pub report: ClusterRunReport,
    /// One trace per segment run by this invocation (empty with tracing off).
    pub traces: Vec<Trace>,
    /// Checkpoint files written, oldest first.
    pub checkpoints: Vec<PathBuf>,
    /// The final machine state.
    pub cluster: Cluster,
    /// The particle system it was built over ([`crate::state_dump`] gathers into it).
    pub sys: ParticleSystem,
    /// With `recover` set, one line per restart it took, oldest first;
    /// `None` for a run that could not restart.
    pub restarts: Option<Vec<String>>,
    /// Steps run, checkpoint saves and restores, measured as they were paid.
    pub host: HostCosts,
}

impl RunOutput {
    /// The output of a sharded run over `sys`: the coordinator's spliced
    /// replica is the final machine state.
    pub fn from_sharded(run: ShardedRun, sys: ParticleSystem) -> Self {
        let ShardedRun { report, traces, checkpoints, replica, host, .. } = run;
        RunOutput { report, traces, checkpoints, cluster: replica, sys, restarts: None, host }
    }
}

/// Why [`RunSpec::run`] returned without reaching the step target.
#[derive(Debug)]
pub enum RunError {
    /// The spec cannot be run.
    Spec(SpecError),
    /// The simulation itself failed (stall, deadlock, injected crash).
    Run(ClusterError),
    /// A checkpoint could not be read, restored or written.
    Ckpt(CkptError),
    /// A live-telemetry sink could not be opened.
    Io(std::io::Error),
    /// The control hook drained the run at a segment boundary.
    Drained {
        /// Quiescent container bytes to resume elsewhere ([`Resume::Container`]).
        container: Vec<u8>,
        /// The segments completed before the drain.
        run: Box<CheckpointedRun>,
    },
    /// The control hook cancelled the run at a segment boundary.
    Cancelled,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Spec(e) => e.fmt(f),
            RunError::Run(e) => e.fmt(f),
            RunError::Ckpt(e) => e.fmt(f),
            RunError::Io(e) => e.fmt(f),
            RunError::Drained { run, .. } => write!(f, "drained at step {}", run.report.steps),
            RunError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> Self {
        RunError::Ckpt(e)
    }
}

impl From<CkptRunError> for RunError {
    fn from(e: CkptRunError) -> Self {
        match e {
            CkptRunError::Run(e) => RunError::Run(e),
            CkptRunError::Ckpt(e) => RunError::Ckpt(e),
        }
    }
}

impl RunSpec {
    /// The defaults of `fasda run` over the given geometry: the paper's
    /// 64 Na per cell, 5 steps of variant A under chained sync on the
    /// fast engine, no faults, no checkpoints.
    pub fn new(total: (u32, u32, u32), per_fpga: (u32, u32, u32)) -> Self {
        RunSpec {
            total,
            per_fpga,
            per_cell: 64,
            seed: 64205,
            steps: 5,
            variant: DesignVariant::A,
            sync: SyncMode::Chained,
            faults: None,
            unreliable: false,
            engine: EngineConfig::auto(),
            ckpt: None,
            resume: Resume::Fresh,
            recover: None,
        }
    }

    /// Parse the artifact's `222`-style dimension triple given for `field`.
    pub fn parse_dims(field: &'static str, s: &str) -> Result<(u32, u32, u32), SpecError> {
        let digits: Option<Vec<u32>> = s.chars().map(|c| c.to_digit(10)).collect();
        match digits.as_deref() {
            Some([x, y, z]) => Ok((*x, *y, *z)),
            _ => Err(SpecError::new(
                field,
                format!("dims must be three digits like the artifact's '222'/'444', got '{s}'"),
            )),
        }
    }

    /// The paper's workload (§5.1) over `total` cells at `per_cell`
    /// particles per cell — checked, where [`SimulationSpace::new`] and
    /// [`WorkloadSpec::generate`] would panic.
    pub fn workload(
        total: (u32, u32, u32),
        per_cell: u32,
        seed: u64,
    ) -> Result<WorkloadSpec, SpecError> {
        let spec = WorkloadSpec { per_cell, ..WorkloadSpec::paper(Self::space(total)?, seed) };
        spec.check().map_err(|e| SpecError::new("per_cell", format!("{per_cell} per cell: {e}")))?;
        Ok(spec)
    }

    /// The space of `total` cells — checked, where
    /// [`SimulationSpace::new`] would panic.
    fn space((x, y, z): (u32, u32, u32)) -> Result<SimulationSpace, SpecError> {
        if x < 3 || y < 3 || z < 3 {
            let reason = format!("the space must be at least 3 cells per axis (got {x}{y}{z})");
            return Err(SpecError::new("total", reason));
        }
        Ok(SimulationSpace::new(x, y, z))
    }

    /// The space of `total` cells cut into chips of `per_fpga` cells —
    /// checked, where `ChipGeometry::new` would panic. A single chip is a
    /// geometry (`fasda info` describes one); only a run needs two.
    pub fn geometry(
        total: (u32, u32, u32),
        per_fpga: (u32, u32, u32),
    ) -> Result<SimulationSpace, SpecError> {
        let ((tx, ty, tz), (px, py, pz)) = (total, per_fpga);
        let space = Self::space(total)?;
        let reason = if px == 0 || py == 0 || pz == 0 {
            "must be at least 1 cell per axis".to_string()
        } else if tx % px != 0 || ty % py != 0 || tz % pz != 0 {
            format!("{px}{py}{pz} must divide the total space {tx}{ty}{tz}")
        } else if px * py * pz > 64 {
            format!("{px}{py}{pz} is over 64 cells per FPGA (destination masks are 64-bit)")
        } else {
            return Ok(space);
        };
        Err(SpecError::new("per_fpga", reason))
    }

    /// FPGA nodes the geometry spans (0 when `per_fpga` has a zero axis).
    pub fn nodes(&self) -> u32 {
        let ((tx, ty, tz), (px, py, pz)) = (self.total, self.per_fpga);
        [(tx, px), (ty, py), (tz, pz)].iter().map(|&(t, p)| t.checked_div(p).unwrap_or(0)).product()
    }

    /// Reject everything the constructors below this layer would panic on
    /// ([`SimulationSpace::new`], `ChipGeometry::new`, [`Cluster::new`],
    /// [`Cluster::try_run_with`], workload generation) and the field
    /// combinations that contradict each other.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ((tx, ty, tz), (px, py, pz)) = (self.total, self.per_fpga);
        let (recover, fresh) = (self.recover.is_some(), self.resume == Resume::Fresh);
        Self::workload(self.total, self.per_cell, self.seed)?;
        Self::geometry(self.total, self.per_fpga)?;
        let (field, reason) = if self.nodes() < 2 {
            ("per_fpga", format!("{tx}{ty}{tz} over {px}{py}{pz} is a single chip; the cluster driver needs 2"))
        } else if self.steps == 0 {
            ("steps", "must be at least 1".to_string())
        } else if recover && !fresh {
            ("recover", "exclusive with resume (recovery resumes by itself)".to_string())
        } else if recover && self.ckpt.is_none() {
            ("recover", "needs a checkpoint schedule and directory".to_string())
        } else if self.resume == Resume::Latest && self.ckpt.is_none() {
            ("resume", "latest needs a checkpoint directory".to_string())
        } else {
            return Ok(());
        };
        Err(SpecError::new(field, reason))
    }

    /// Materialize the machine and its workload — the one construction
    /// every run path performs. Any fault plan switches the
    /// reliable-delivery layer (acks + retransmission) on, because
    /// chained sync deadlocks on a lost marker otherwise; `unreliable`
    /// opts back out to study that failure mode.
    pub fn build(&self) -> Result<(ClusterConfig, ParticleSystem), SpecError> {
        self.validate()?;
        let sys = Self::workload(self.total, self.per_cell, self.seed)?.generate();
        let mut cfg = ClusterConfig::paper(ChipConfig::variant(self.variant), self.per_fpga);
        cfg.sync = self.sync;
        if let Some(plan) = &self.faults {
            cfg = cfg.with_faults(plan.clone());
            if !self.unreliable {
                cfg = cfg.with_reliability(RelConfig::DEFAULT);
            }
        }
        Ok((cfg, sys))
    }

    /// The checkpoint file `resume` names: the newest one in the
    /// checkpoint directory for [`Resume::Latest`] (`None`, and a note
    /// saying so, when it holds none), the file itself for [`Resume::File`].
    pub fn resume_file(&self, note: &mut dyn FnMut(String)) -> Result<Option<PathBuf>, CkptError> {
        match (&self.resume, &self.ckpt) {
            (Resume::File(path), _) => Ok(Some(path.clone())),
            (Resume::Latest, Some(ckpt)) => {
                let latest = latest_checkpoint(&ckpt.dir)?;
                if latest.is_none() {
                    note(format!("no checkpoint in {}; starting from step 0", ckpt.dir.display()));
                }
                Ok(latest)
            }
            _ => Ok(None),
        }
    }

    /// Restore `cluster` from wherever `resume` points, charging the
    /// restore to `host` and telling `note` what was found.
    fn restore(
        &self,
        cluster: &mut Cluster,
        host: &mut HostCosts,
        note: &mut dyn FnMut(String),
    ) -> Result<ClusterRunReport, RunError> {
        let (acc, from) = match (&self.resume, self.resume_file(note)?) {
            (Resume::Container(bytes), _) => (
                host.restore(|| resume_from_container(cluster, bytes))?,
                "in-memory container".to_string(),
            ),
            (_, Some(path)) => {
                (host.restore(|| load_checkpoint(cluster, &path))?, path.display().to_string())
            }
            (_, None) => return Ok(ClusterRunReport::new()),
        };
        Ok(resumed(acc, &from, self.steps, note)?)
    }

    /// Run the spec in this process. A heartbeat sampler is attached when
    /// `obs` names a sink and the engine's cadence is on; `note` is told,
    /// as it happens, where the run resumed from; `ctl` is consulted at
    /// every segment boundary, and its `Drain` / `Cancel` verdict comes
    /// back as [`RunError::Drained`] / [`RunError::Cancelled`].
    ///
    /// With `recover` set the run goes through [`run_with_recovery`],
    /// which rebuilds the cluster after every failure: it neither consults
    /// `ctl` nor streams heartbeats (the post-run totals still cover the
    /// whole trajectory).
    pub fn run(
        &self,
        obs: Option<&ObsSinkConfig>,
        note: &mut dyn FnMut(String),
        ctl: &mut dyn FnMut(&SegmentStatus) -> SegmentControl,
    ) -> Result<RunOutput, RunError> {
        let (cfg, sys) = self.build()?;
        if let (Some(max), Some(ckpt)) = (self.recover, &self.ckpt) {
            let rec = run_with_recovery(
                &sys,
                &cfg,
                self.steps,
                MAX_RUN_CYCLES,
                &self.engine,
                ckpt,
                &RecoveryPolicy::new(max),
            )?;
            let CheckpointedRun { report, traces, checkpoints } = rec.run;
            let (cluster, restarts, host) = (rec.cluster, Some(rec.restarts), rec.host);
            return Ok(RunOutput { report, traces, checkpoints, cluster, sys, restarts, host });
        }
        let mut cluster = Cluster::new(cfg, &sys);
        let mut host = HostCosts::default();
        let acc = self.restore(&mut cluster, &mut host, note)?;
        if let Some(sinks) = obs.filter(|s| self.engine.heartbeat_every > 0 && s.any()) {
            let live = ObsLive::new(self.engine.heartbeat_every, sinks).map_err(RunError::Io)?;
            cluster.attach_obs(Box::new(live));
        }
        match run_with_checkpoints_ctl(
            &mut cluster,
            self.steps,
            MAX_RUN_CYCLES,
            &self.engine,
            self.ckpt.as_ref(),
            acc,
            &mut host,
            ctl,
        )? {
            CkptRunOutcome::Completed(CheckpointedRun { report, traces, checkpoints }) => {
                let restarts = None;
                Ok(RunOutput { report, traces, checkpoints, cluster, sys, restarts, host })
            }
            CkptRunOutcome::Drained { run, container } => {
                Err(RunError::Drained { container, run: Box::new(run) })
            }
            CkptRunOutcome::Cancelled(_) => Err(RunError::Cancelled),
        }
    }
}

/// The resume rule of every run, in-process or sharded: the progress
/// `acc` restored from `from` may not be past the `steps` requested, and
/// `note` is told where the run resumed.
pub(crate) fn resumed(
    acc: ClusterRunReport,
    from: &str,
    steps: u64,
    note: &mut dyn FnMut(String),
) -> Result<ClusterRunReport, SpecError> {
    if acc.steps > steps {
        let reason = format!("{from} is at step {}, past the {steps} requested", acc.steps);
        return Err(SpecError::new("resume", reason));
    }
    note(format!("resumed from {from} (step {})", acc.steps));
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dim_syntax() {
        let dims = |s| RunSpec::parse_dims("total", s);
        assert_eq!(dims("222"), Ok((2, 2, 2)));
        assert_eq!(dims("444"), Ok((4, 4, 4)));
        assert_eq!(dims("633"), Ok((6, 3, 3)));
        assert!(dims("22").is_err());
        assert!(dims("2222").is_err());
        assert_eq!(dims("2x2").expect_err("not digits").field, "total");
    }

    #[test]
    fn per_cell_bound_is_the_lattice_rule() {
        let spec = |per_cell| RunSpec { per_cell, ..RunSpec::new((6, 3, 3), (3, 3, 3)) };
        assert_eq!(spec(1728).validate(), Ok(()));
        assert_eq!(spec(1729).validate().expect_err("pitch < 2·jitter").field, "per_cell");
    }
}
