//! The six workloads. Names are fixed: later issues cite them.

use crate::manifest::Outcome;
use crate::span::Tracer;

pub mod probes;
pub mod run;
pub mod svc;

pub const ALL: [&str; 6] = [
    "dense8",
    "sparse8",
    "straggler8",
    "chaos-recover8",
    "shard2",
    "svc-burst",
];

/// Cycle budget no healthy run approaches (the CLI's).
const BUDGET: u64 = 2_000_000_000;

/// What one workload process is asked to do.
pub struct Ctx {
    /// Feeds `WorkloadSpec::seed`, `JobSpec::seed` and the fault plan's
    /// `seed=`; the library receives only the generated inputs.
    pub seed: u64,
    /// Measuring window in seconds.
    pub seconds: f64,
    /// Traced pass: spans, the simulator's `Sync` recorder, layer probes.
    pub traced: bool,
    /// One rep / twenty jobs, correctness only.
    pub smoke: bool,
    pub tracer: Tracer,
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    match name {
        "svc-burst" => svc::run(ctx),
        _ => match run::RunWorkload::by_name(name) {
            Some(w) => run::run(&w, ctx),
            None => Err(format!(
                "unknown workload '{name}' (one of {})",
                ALL.join(", ")
            )),
        },
    }
}
