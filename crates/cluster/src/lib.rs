//! # fasda-cluster
//!
//! The distributed multi-FPGA FASDA system (paper §4).
//!
//! [`Cluster`] instantiates one [`fasda_core::TimedChip`] per FPGA node
//! over a partition of the simulation space, connects their EX-node
//! queues through [`fasda_net`] packetizers and a switch fabric, and
//! drives the whole system cycle by cycle. Nodes progress through their
//! force-evaluation and motion-update phases **independently**, gated
//! only by the chained-synchronization handshakes with their immediate
//! neighbours (§4.4) — a fast node races ahead into the next timestep
//! while a slow one finishes, which is exactly the behaviour the
//! straggler ablation measures. A bulk-synchronous mode replaces the
//! chained handshake with a central barrier for comparison.

pub mod ckpt;
pub mod driver;
pub mod host;
pub mod obs;
pub mod report;
pub mod run;
pub mod shard;
pub mod wire;

pub use ckpt::{
    drain_to_container, latest_checkpoint, learn, load_checkpoint, newest_consistent,
    resume_from_container, run_with_checkpoints, run_with_checkpoints_ctl,
    run_with_recovery, save_checkpoint, CheckpointConfig, CheckpointedRun, CkptRunError,
    CkptRunOutcome, HostCosts, RecoveredRun, RecoveryPolicy, RunAccumulator, SegmentControl,
    SegmentStatus,
};
pub use driver::{
    state_dump, Cluster, ClusterConfig, ClusterError, ClusterStalled, CrashInjected,
    DeadlockDetected, EngineConfig, LookaheadViolation, MotionOverflow, MAX_RUN_CYCLES,
};
pub use fasda_net::fault::CrashPoint;
pub use fasda_net::fault::{FaultChannel, FaultPlan, LinkFaults, LinkFlap, MarkerKill, Partition};
pub use fasda_net::reliable::RelConfig;
pub use report::RelSummary;
pub use host::{HostController, HostRun};
pub use obs::{measured_from, model_input, ObsLive, ObsSinkConfig, RunRecord, ShardGauges};
pub use report::{ClusterRunReport, NodeStepReport};
pub use run::{Resume, RunError, RunOutput, RunSpec, SpecError};
pub use shard::{run_sharded, shard_ranges, validate_sharding, ShardError, ShardOpts, ShardedRun};

// Re-export the flight-recorder vocabulary so downstream users can
// configure tracing and consume traces without a direct `fasda-trace`
// dependency.
pub use fasda_trace::{
    chrome_trace, Json, StallCause, StallLedger, Trace, TraceConfig, TraceLevel,
};
