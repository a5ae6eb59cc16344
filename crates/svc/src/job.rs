//! Job specifications and lifecycle states.
//!
//! A [`JobSpec`] is the client-side description of one simulation run —
//! the same knobs the `fasda run` command exposes, made serializable so
//! they survive the queue journal and the wire. It is a document form of
//! [`RunSpec`]: [`JobSpec::run_spec`] is the only conversion, and
//! validation, construction and execution all go through the `RunSpec`
//! it yields — so a job submitted to the service and a direct `fasda run`
//! with the same flags simulate the same machine by construction (CI
//! still `cmp`s a migrated job's state dump against a direct run's).

use fasda_cluster::{ClusterConfig, FaultPlan, RunSpec, SpecError};
use fasda_md::system::ParticleSystem;
use fasda_trace::Json;

/// Everything needed to run one simulation job. Field defaults match
/// the `fasda run` CLI so service jobs and direct runs are comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable label (free-form; shows up in status and logs).
    pub name: String,
    /// Tenant for fair-share scheduling and quotas.
    pub tenant: String,
    /// Higher runs first within a tenant's share.
    pub priority: i64,
    /// Total simulation-space cells, `444` style.
    pub total: String,
    /// Cells per FPGA, `222` style.
    pub per_fpga: String,
    /// Particles per cell.
    pub per_cell: u32,
    /// Workload seed.
    pub seed: u64,
    /// Timesteps to run.
    pub steps: u64,
    /// Optional fault-plan grammar string (see `fasda run --fault-plan`).
    pub fault_plan: Option<String>,
    /// Opt out of the reliable-delivery layer faults normally enable.
    pub unreliable: bool,
    /// Checkpoint every N steps; `0` takes the server's default cadence
    /// (which may come from the Young–Daly policy calculator).
    pub ckpt_every: u64,
    /// Write the deterministic final-state dump here on completion.
    pub dump_state: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        // The canonical 2-node geometry under `fasda run`'s own defaults.
        let run = RunSpec::new((6, 3, 3), (3, 3, 3));
        JobSpec {
            name: String::new(),
            tenant: "default".to_string(),
            priority: 0,
            total: "633".to_string(),
            per_fpga: "333".to_string(),
            per_cell: run.per_cell,
            seed: run.seed,
            steps: run.steps,
            fault_plan: None,
            unreliable: false,
            ckpt_every: 0,
            dump_state: None,
        }
    }
}

impl JobSpec {
    /// Serialize for the wire and the queue journal.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj()
            .field("name", self.name.as_str())
            .field("tenant", self.tenant.as_str())
            .field("priority", self.priority)
            .field("total", self.total.as_str())
            .field("per_fpga", self.per_fpga.as_str())
            .field("per_cell", self.per_cell)
            .field("seed", Json::uint(self.seed))
            .field("steps", Json::uint(self.steps))
            .field("unreliable", self.unreliable)
            .field("ckpt_every", Json::uint(self.ckpt_every));
        if let Some(fp) = &self.fault_plan {
            o = o.field("fault_plan", fp.as_str());
        }
        if let Some(p) = &self.dump_state {
            o = o.field("dump_state", p.as_str());
        }
        o.build()
    }

    /// Parse a spec; missing optional fields take the CLI defaults. A
    /// document that would fail (or run to the cycle budget) on a worker
    /// is rejected here, at submit: [`RunSpec::validate`].
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let s = |key: &str| doc.get(key).and_then(Json::as_str).map(String::from);
        let n = |key: &str| doc.get(key).and_then(Json::as_i64);
        // A non-negative integer field, checked into its width; `None` when absent.
        fn uint<T: TryFrom<i64>>(doc: &Json, key: &str) -> Result<Option<T>, String> {
            let out_of_range = |v| format!("job spec '{key}' is out of range (got {v})");
            let v = doc.get(key).and_then(Json::as_i64);
            v.map(|v| T::try_from(v).map_err(|_| out_of_range(v))).transpose()
        }
        let d = JobSpec::default();
        let spec = JobSpec {
            name: s("name").unwrap_or_default(),
            tenant: s("tenant").unwrap_or(d.tenant),
            priority: n("priority").unwrap_or(0),
            total: s("total").ok_or("job spec needs 'total'")?,
            per_fpga: s("per_fpga").ok_or("job spec needs 'per_fpga'")?,
            per_cell: uint(doc, "per_cell")?.unwrap_or(d.per_cell),
            seed: uint(doc, "seed")?.unwrap_or(d.seed),
            steps: uint(doc, "steps")?.ok_or("job spec needs 'steps'")?,
            fault_plan: s("fault_plan"),
            unreliable: doc.get("unreliable") == Some(&Json::Bool(true)),
            ckpt_every: uint(doc, "ckpt_every")?.unwrap_or(0),
            dump_state: s("dump_state"),
        };
        spec.run_spec().map_err(|e| format!("job spec {e}"))?;
        Ok(spec)
    }

    /// The [`RunSpec`] this document describes, validated. The checkpoint
    /// schedule is not part of it: the server owns the directory and the
    /// default cadence (`ckpt_every == 0`).
    pub fn run_spec(&self) -> Result<RunSpec, SpecError> {
        let faults = self.fault_plan.as_deref().map(FaultPlan::parse).transpose();
        let run = RunSpec {
            per_cell: self.per_cell,
            seed: self.seed,
            steps: self.steps,
            faults: faults.map_err(|e| SpecError::new("fault_plan", e))?,
            unreliable: self.unreliable,
            ..RunSpec::new(
                RunSpec::parse_dims("total", &self.total)?,
                RunSpec::parse_dims("per_fpga", &self.per_fpga)?,
            )
        };
        run.validate()?;
        Ok(run)
    }

    /// Materialize the cluster configuration and particle system:
    /// [`RunSpec::build`] of [`JobSpec::run_spec`].
    pub fn build(&self) -> Result<(ClusterConfig, ParticleSystem), String> {
        self.run_spec().and_then(|run| run.build()).map_err(|e| e.to_string())
    }
}

/// Where a job is in its lifecycle. Terminal states are `Completed`,
/// `Cancelled`, and `Failed`.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting for a worker (also the post-drain / post-crash state
    /// while the job waits to resume elsewhere).
    Queued,
    /// Executing on the given worker.
    Running(usize),
    /// Ran to its step target.
    Completed,
    /// Cancelled at a segment boundary (or straight out of the queue).
    Cancelled,
    /// Died with an error the recovery ladder could not absorb.
    Failed(String),
}

impl JobState {
    /// Status-document spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running(_) => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            name: "smoke".into(),
            tenant: "alice".into(),
            priority: 3,
            total: "444".into(),
            per_fpga: "222".into(),
            per_cell: 7,
            seed: 99,
            steps: 6,
            fault_plan: Some("drop=0.05,seed=7".into()),
            unreliable: false,
            ckpt_every: 2,
            dump_state: Some("/tmp/x".into()),
        };
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let doc = Json::parse(r#"{"total":"633","per_fpga":"333","steps":3}"#).unwrap();
        let spec = JobSpec::from_json(&doc).expect("minimal spec");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.per_cell, 64);
        assert_eq!(spec.seed, 64205);
        assert_eq!(spec.ckpt_every, 0);
        assert!(spec.build().is_ok());
    }

    #[test]
    fn bad_specs_are_rejected() {
        // (document, the field its rejection must name)
        for (bad, field) in [
            (r#"{"per_fpga":"333","steps":3}"#, "total"),
            (r#"{"total":"33","per_fpga":"333","steps":3}"#, "total"),
            (r#"{"total":"222","per_fpga":"222","steps":3}"#, "total"), // space below 3 cells/axis
            (r#"{"total":"444","per_fpga":"333","steps":3}"#, "per_fpga"), // non-dividing per-FPGA dims
            (r#"{"total":"333","per_fpga":"333","steps":3}"#, "per_fpga"), // single chip
            (r#"{"total":"633","per_fpga":"033","steps":3}"#, "per_fpga"), // empty per-FPGA axis
            (r#"{"total":"558","per_fpga":"554","steps":3}"#, "per_fpga"), // over 64 cells per FPGA
            (r#"{"total":"633","per_fpga":"333","steps":0}"#, "steps"),
            (r#"{"total":"633","per_fpga":"333","steps":-1}"#, "steps"),
            (r#"{"total":"633","per_fpga":"333","steps":3,"per_cell":-1}"#, "per_cell"),
            (r#"{"total":"633","per_fpga":"333","steps":3,"per_cell":1729}"#, "per_cell"), // pitch < 2·jitter
            (r#"{"total":"633","per_fpga":"333","steps":3,"per_cell":70000}"#, "per_cell"),
            (r#"{"total":"633","per_fpga":"333","steps":3,"ckpt_every":-1}"#, "ckpt_every"),
            (r#"{"total":"633","per_fpga":"333","steps":3,"fault_plan":"nonsense=1"}"#, "fault_plan"),
        ] {
            let err = JobSpec::from_json(&Json::parse(bad).unwrap()).expect_err(bad);
            assert!(err.contains(field), "{bad}: {err}");
        }
    }
}
