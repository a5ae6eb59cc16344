//! # fasda-svc
//!
//! The multi-tenant job service layered over the cycle-level simulator:
//! a daemon owning a **persistent, crash-safe job queue** (priorities +
//! per-tenant fair-share quotas, journaled with the same atomic
//! write-rename and CRC-framing idioms as the checkpoint store), a
//! **worker pool** executing jobs through the segment-controlled
//! checkpoint runner, and a versioned, length-prefixed JSON **control
//! protocol** spoken over Unix-domain or TCP sockets.
//!
//! The headline capability is **checkpoint-backed live migration**: a
//! running job is drained at a quiescent segment boundary on worker A
//! (the drain *is* a checkpoint, held as in-memory container bytes) and
//! resumed on worker B; because decisions are only taken between
//! segments, the migrated run's final particle state, velocities, and
//! raw force-accumulator bank bits are **bit-identical** to an
//! unmigrated run with the same segmentation. The same mechanism
//! recovers worker crashes: the job is requeued from its newest on-disk
//! checkpoint with the fired fault directive stripped, exactly like the
//! single-process rolling-recovery loop. See `DESIGN.md` §14.
//!
//! Module map:
//! * [`job`] — job specifications and lifecycle states;
//! * [`queue`] — the journaled queue and the fair-share scheduler;
//! * [`proto`] — the versioned client/server control protocol;
//! * [`server`] — the daemon: listener, worker pool, migration;
//! * [`client`] — the blocking client used by the CLI and benches.

pub mod client;
pub mod job;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::Client;
pub use job::{JobSpec, JobState};
pub use proto::PROTO_VERSION;
pub use queue::{SchedJob, TenantQuota, TenantTable};
pub use server::{Server, ServerConfig, ServerHandle};
