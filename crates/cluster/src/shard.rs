//! The lookahead-window protocol: the simulator's one parallelism
//! mechanism (DESIGN.md §5, §11).
//!
//! Partitions the simulated hyper-ring nodes into `S` contiguous shards,
//! each owned by a **worker** running the ordinary [`Cluster`] engine
//! over its slice, and reproduces the in-process oracle bit for bit:
//! same particle state, same flight-recorder streams, same folded
//! report, same checkpoint files. The workers are scoped threads of the
//! calling process under the fast engine's default ([`run_windowed`]),
//! or harness threads under a coordinator that mesh over socketpairs or
//! loopback TCP ([`run_sharded`], for tests and the benchmark); both
//! run the one round loop, [`run_segment`], and the one segment fold,
//! [`fold_segment`].
//!
//! ## Why this is exact, not approximate
//!
//! The oracle's cycle loop is already two-phase: a compute phase in
//! which every chip ticks against frozen state, then serial exchange /
//! network / delivery sweeps. Cross-node influence flows **only**
//! through the switch fabrics and inboxes, and a message put on the wire
//! at cycle `T` pays port serialization at both ends plus the path, so
//! no delivery sweep can observe it before `T + L`, where the
//! *lookahead* `L = min over node pairs of 2·ser + path_latency`
//! ([`SwitchFabric::lookahead`]; 204 cycles on the paper's switch). A
//! worker can therefore run `L` cycles on its own nodes without hearing
//! from anyone and admit the traffic of the whole window after the
//! fact, as long as admission replays the oracle's global order. That
//! order is `(cycle, stage, src)` — stage 0 for fresh sends, 1 for
//! retransmissions, 2 for acks, each phase walking nodes in ascending
//! order — which is exactly how [`Cluster::admit_wire_events`] sorts the
//! concatenated per-shard buffers. Destination-port contention clocks
//! and inbox sequence numbers come out identical, so everything
//! downstream does too. `L` is a function of the configuration alone;
//! a wrong one cannot reorder silently, because admission refuses an
//! event that is already overdue ([`ShardError::Lookahead`]).
//!
//! [`SwitchFabric::lookahead`]: fasda_net::switch::SwitchFabric::lookahead
//!
//! ## Window protocol
//!
//! Workers are fully connected (one link per unordered pair: a value
//! handoff between the threads of a windowed run, a [`FrameLink`] —
//! socketpair or loopback TCP — between harness threads). Each worker
//! keeps every worker's *clock* —
//! the first cycle it has not run yet — and repeats one round:
//!
//! 1. **Run** to `H + L` with no socket I/O, where `H` is the earliest
//!    cycle anybody could put something on the wire: the least of the
//!    event horizons the workers reported (each no later than the
//!    events it generated or still holds for admission), but never
//!    behind the slowest clock. While anybody is busy that is the
//!    slowest clock; a span every worker skips costs one round instead
//!    of one per `L` cycles (Chandy–Misra's promise of silence). Each
//!    round: crash check, compute → attribute → exchange → network → deliver,
//!    capturing every wire crossing. The fast engine skips its *own*
//!    quiescent spans (to its own event horizon, never past the round's
//!    limit) and notes them. The round ends early when the last owned
//!    node goes `Done`, a crash directive fires or a motion update
//!    overflows.
//! 2. **Exchange** one `Window` frame with every peer, pairwise in
//!    index order (the lower index sends first), so a frame larger than
//!    a socket buffer cannot deadlock the mesh; threads hand frames
//!    over as values. The frame carries the sender's
//!    clock and event horizon, the wire events addressed to the
//!    receiver's nodes, and the round's progress notes: done / halt
//!    announcements, skipped spans, idle marks, the sparse
//!    packets-lost log and telemetry samples.
//! 3. **Admit** every event generated before `min(clocks)` and fold the
//!    notes; every branch taken from here on is a function of the
//!    frames alone, so all workers reach the same verdict in the same
//!    round without a sequencer.
//!
//! Termination is exact: a worker whose nodes are all `Done` stops
//! ticking and *follows* — it advances only as far as the peers that
//! are still running have reported, so it never consumes an ack or a
//! retransmit timer the oracle leaves in flight — and the segment ends
//! when every clock stands at `E = max` over workers of the cycle their
//! last node finished, after a final round has flushed the events
//! generated up to `E` into their inboxes. The engine-stream
//! `FastForward` records and the skipped-cycle tally are rebuilt from
//! the notes (the oracle skipped exactly the cycles *every* worker
//! skipped), as are the deadlock verdict (every worker idle with
//! nothing scheduled and nothing on the wire) and the payloads of
//! `Crashed` / `Overflow` / `Stalled` / `Deadlock`.
//!
//! ## In-process windows
//!
//! Under [`EngineConfig::auto`] on a host with cores to spare,
//! [`Cluster::try_run_with`] runs this protocol on scoped threads of
//! the calling process ([`run_windowed`]): no coordinator, no replica,
//! no container. The calling thread is worker 0 and runs on the cluster
//! itself; every other worker gets a shell ([`Cluster::shell`]) that its
//! owned nodes' state is *moved* into by [`Cluster::adopt_nodes`] and moved back
//! out of when the segment ends. Frames cross between the threads as
//! values. Chips travel whole — utilisation counters, trace streams and
//! all — so the cluster is left exactly as the one-thread loop leaves
//! it, and the segment fold is the coordinator's own ([`fold_segment`]).
//!
//! ## Coordinator
//!
//! The coordinator never simulates, and it has no run loop of its own:
//! it runs the in-process run's segment loop ([`run_segments`]), in
//! which one segment is one round of control frames. It sends `Run`,
//! collects each worker's segment result — records, stats, traffic,
//! trace slices and a full state container — and *splices* the owned
//! slices into its replica [`Cluster`]. Scalar tallies shared across
//! shards (fabric packet/bit/lost counters, fault and ack counts) are
//! one [`Tallies`] value, reconciled as `base + Σ deltas`; per-link
//! counters travel inside the spliced maps. The replica is then
//! bit-identical to an in-process cluster at the same step boundary, so
//! the loop's own checkpoint writer serves sharded runs unchanged — and
//! a checkpoint resumes across a *different* shard count too. A failed
//! segment comes back as each worker's share of the oracle's
//! [`ClusterError`], built by the oracle's own constructors over the
//! worker's owned nodes; the coordinator only concatenates the shares.

use crate::ckpt::{
    load_checkpoint, run_segments, CheckpointConfig, CheckpointedRun, CkptRunOutcome, HostCosts,
    Segment, SegmentControl,
};
use crate::driver::{
    Cluster, ClusterConfig, ClusterError, ClusterStalled, CrashInjected, DeadlockDetected,
    EngineConfig, ExchangeBuf, LookaheadViolation, MotionOverflow, NextEvent, WireEvent,
    DEADLOCK_SCAN_INTERVAL, MAX_RUN_CYCLES,
};
use crate::obs::{ObsDelta, ObsLive, ObsShard, ObsSinkConfig, ShardGauges};
use crate::report::{ClusterRunReport, NodeStepReport};
use crate::run::{resumed, SpecError};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;
use fasda_ckpt::{
    persist_enum, persist_struct, CkptError, Container, ContainerWriter, Persist, Reader, Writer,
};
use fasda_net::sync::SyncMode;
use fasda_net::transport::{Endpoint, FrameLink, LinkError, MemLink, SocketLink};
use fasda_sim::StatSet;
use fasda_trace::{NodeStream, StallLedger, Trace, TraceLevel};
use std::ops::Range;
use std::path::{Path, PathBuf};

use fasda_core::timed::TrafficCounters;
use fasda_md::system::ParticleSystem;

/// Section label stamped on every shard frame (error messages only).
const FRAME: &str = "shard-frame";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The simulation itself failed (stall / deadlock / injected crash)
    /// — same vocabulary as the in-process engine.
    Cluster(ClusterError),
    /// The run cannot be run as asked — the in-process run's refusal,
    /// e.g. a resume from a checkpoint past the requested steps.
    Spec(SpecError),
    /// Checkpoint or frame (de)serialization failed.
    Ckpt(CkptError),
    /// A shard link failed mid-exchange (worker death, torn frame).
    Link(LinkError),
    /// Opening the harness's sockets failed.
    Io(std::io::Error),
    /// A peer sent a frame the protocol does not allow here.
    Protocol(String),
    /// The configuration cannot be sharded (see [`validate_sharding`]).
    Unsupported(String),
    /// A worker died or lost a link; the message names it.
    Worker(String),
    /// A wire event was already overdue when its shard merged it: the
    /// lookahead window derived from the configuration overstates the
    /// fabric's minimum delivery latency. Delivering the event late
    /// would silently reorder the run.
    Lookahead(LookaheadViolation),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cluster(e) => write!(f, "sharded run failed: {e}"),
            ShardError::Spec(e) => e.fmt(f),
            ShardError::Ckpt(e) => write!(f, "shard checkpoint error: {e}"),
            ShardError::Link(e) => write!(f, "shard link error: {e}"),
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::Protocol(m) => write!(f, "shard protocol error: {m}"),
            ShardError::Unsupported(m) => write!(f, "sharding unsupported: {m}"),
            ShardError::Worker(m) => write!(f, "shard worker failed: {m}"),
            ShardError::Lookahead(v) => write!(f, "shard lookahead violated: {v}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ClusterError> for ShardError {
    fn from(e: ClusterError) -> Self {
        ShardError::Cluster(e)
    }
}
impl From<SpecError> for ShardError {
    fn from(e: SpecError) -> Self {
        ShardError::Spec(e)
    }
}
impl From<CkptError> for ShardError {
    fn from(e: CkptError) -> Self {
        ShardError::Ckpt(e)
    }
}
impl From<LinkError> for ShardError {
    fn from(e: LinkError) -> Self {
        ShardError::Link(e)
    }
}
impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Partitioning and validation
// ---------------------------------------------------------------------------

/// Contiguous near-even node ranges, one per shard: the first
/// `nodes % shards` shards get one extra node. Contiguity in node-id
/// order is what lets the coordinator fold per-shard record and trace
/// slices by plain concatenation.
pub fn shard_ranges(nodes: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards >= 1 && shards <= nodes);
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nodes);
    ranges
}

/// Refuse configurations whose global serial state cannot be
/// partitioned across workers.
pub fn validate_sharding(
    cfg: &ClusterConfig,
    shards: usize,
    nodes: usize,
) -> Result<(), ShardError> {
    if shards == 0 {
        return Err(ShardError::Unsupported("a sharded run needs at least one worker".into()));
    }
    if shards > nodes {
        return Err(ShardError::Unsupported(format!(
            "{shards} shards over {nodes} nodes: every shard must own at least one node"
        )));
    }
    if !matches!(cfg.sync, SyncMode::Chained) {
        return Err(ShardError::Unsupported(
            "bulk synchronization uses a central barrier and cannot be sharded; \
             use chained sync"
                .into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

persist_struct!(WireEvent { cycle, stage, src, dst, arrive, extra, msg });

/// A halt announced in a window frame — an injected crash at the top of
/// cycle `at_cycle`, or a motion-update overflow of `particle` during it:
/// every worker returns the identical [`CrashInjected`] or
/// [`MotionOverflow`] the oracle would have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Halt {
    at_cycle: u64,
    node: u32,
    step: u64,
    /// The overflowing particle; `None` for an injected crash.
    particle: Option<u32>,
}

persist_struct!(Halt { at_cycle, node, step, particle });

impl Halt {
    /// The clock every worker must reach before the halt is known to be
    /// the run's first: a crash fires before its cycle is stepped, an
    /// overflow while it is.
    fn settled_at(&self) -> u64 {
        self.at_cycle + u64::from(self.particle.is_some())
    }

    /// The oracle's order among halts: earliest cycle, a crash before an
    /// overflow of the same cycle, lowest node.
    fn key(&self) -> (u64, bool, u32) {
        (self.at_cycle, self.particle.is_some(), self.node)
    }
}

/// One worker's progress notes for one round — everything in a window
/// frame except the wire events. Each worker applies its own notes and
/// every peer's through the same fold, which is what keeps the verdicts
/// identical everywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct WindowNotes {
    /// First cycle the sender has not run yet.
    clock: u64,
    /// Cycle at which the sender's last owned node went `Done` (its
    /// clock at that moment); `None` while any is still running.
    done_at: Option<u64>,
    /// A crash directive fired, or a motion update overflowed, on an
    /// owned node.
    halt: Option<Halt>,
    /// Cycle after the sender's last *active* cycle (chip tick or
    /// delivery) of the segment; the segment start before any.
    idle_from: u64,
    /// Start of the sender's current idle stretch with nothing
    /// scheduled on its nodes and nothing waiting to be admitted to
    /// them; `None` otherwise.
    never_from: Option<u64>,
    /// The sender's event horizon: the earliest cycle at which it could
    /// put anything on the wire — its clock after an active cycle,
    /// otherwise its next scheduled event (a delivery, packet departure,
    /// retransmit timer, barrier release or stall expiry) — and no later
    /// than any event it generated this round or still holds for
    /// admission. `u64::MAX` when nothing is scheduled at all.
    horizon: u64,
    /// Wire events the sender captured this round, all destinations.
    generated: u64,
    /// Spans `[from, to)` the sender skipped this round (fast engine).
    skipped: Vec<(u64, u64)>,
    /// Sparse packets-lost log: `(cycle, packets lost in that cycle)`.
    lost: Vec<(u64, u64)>,
    /// Telemetry samples taken this round.
    obs: Vec<ObsDelta>,
}

persist_struct!(WindowNotes {
    clock,
    done_at,
    halt,
    idle_from,
    never_from,
    horizon,
    generated,
    skipped,
    lost,
    obs,
});

/// The worker↔worker frame: one round's exchange, the sender's notes
/// plus the wire events it captured for the receiver's nodes, in
/// generation order.
#[derive(Clone, Debug)]
struct MeshFrame {
    notes: WindowNotes,
    events: Vec<WireEvent>,
}

persist_struct!(MeshFrame { notes, events });

/// A frame of the shard protocol: its bytes are its [`Persist`]
/// encoding.
trait Frame: Persist {
    /// What [`whole`] calls this frame in errors.
    const KIND: &'static str;

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.save(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes, FRAME);
        let frame = Self::load(&mut r)?;
        whole(&r, frame, Self::KIND)
    }
}

impl Frame for MeshFrame {
    const KIND: &'static str = "mesh";
}

impl Frame for CtlFrame {
    const KIND: &'static str = "control";
}

/// `frame`, decoded by `r`, if it spans the whole payload: a frame with
/// trailing bytes is malformed, never a shorter frame plus garbage.
fn whole<T>(r: &Reader<'_>, frame: T, kind: &str) -> Result<T, CkptError> {
    match r.remaining() {
        0 => Ok(frame),
        n => Err(r.malformed(format!("{n} trailing bytes in {kind} frame"))),
    }
}

/// One flight-recorder trace slice shipped by a worker: its owned node
/// streams, the (globally identical) engine stream, and the stall
/// ledger it attributed.
struct TraceShard {
    level: Option<TraceLevel>,
    nodes: Vec<NodeStream>,
    engine: NodeStream,
    stalls: StallLedger,
}

persist_struct!(TraceShard { level, nodes, engine, stalls });

/// One worker's share of a completed segment: what [`fold_segment`]
/// needs from it, whichever carrier brought it.
struct SegmentShare {
    end_cycle: u64,
    skipped: u64,
    records: Vec<NodeStepReport>,
    stats: StatSet,
    /// Owned nodes' flit-level traffic counters, node order.
    traffic: Vec<TrafficCounters>,
    /// What this worker added to the shared tallies since its base.
    tallies: Tallies,
}

persist_struct!(SegmentShare { end_cycle, skipped, records, stats, traffic, tallies });

/// A served worker's successful segment result: its share, its trace
/// slice, its gauges, and the state the coordinator splices its replica
/// from.
struct SegmentOk {
    share: SegmentShare,
    trace: Option<TraceShard>,
    /// This segment's exchange gauges (host-side, never simulated state).
    gauges: ShardGauges,
    /// Full state container (`snapshot_into` bytes); the coordinator
    /// splices the owned slices out of it.
    container: Vec<u8>,
}

persist_struct!(SegmentOk { share, trace, gauges, container });

/// A worker's failed segment.
#[derive(Debug)]
enum SegmentFail {
    /// The run failed: this worker's share of the oracle's error, built
    /// by the oracle's own constructors over the owned nodes. The
    /// coordinator concatenates the shares in shard order, which is
    /// node order.
    Cluster(ClusterError),
    /// The worker's mesh links failed (a peer died mid-exchange); the
    /// message names the peer.
    Link(String),
    /// An event reached this worker already overdue — see
    /// [`ShardError::Lookahead`].
    Lookahead(LookaheadViolation),
}

persist_enum!(SegmentFail { 0 => Cluster(e), 1 => Link(msg), 2 => Lookahead(v) });
persist_struct!(LookaheadViolation { src, dst, sent, due, clock });

persist_enum!(ClusterError { 0 => Stalled(s), 1 => Deadlock(d), 2 => Crashed(c), 3 => Overflow(o) });
persist_struct!(MotionOverflow { at_cycle, node, step, particle, packets_lost });
persist_struct!(ClusterStalled { at_cycle, node_states, packets_lost });
persist_struct!(DeadlockDetected { at_cycle, starving, packets_lost, outages });
persist_struct!(CrashInjected { at_cycle, node, step, packets_lost });

/// Coordinator↔worker control frames.
enum CtlFrame {
    /// Run one segment to the absolute step `target` under `budget`
    /// remaining cycles.
    Run { target: u64, budget: u64 },
    Done(Box<SegmentOk>),
    Fail(SegmentFail),
    Shutdown,
    /// Worker 0 → coordinator: every worker's heartbeat sample for one
    /// boundary. May arrive any time between `Run` and the segment
    /// result; the coordinator's collect loop drains them without
    /// disturbing the protocol.
    Beat(Vec<ObsDelta>),
}

persist_enum!(CtlFrame {
    0 => Run { target, budget },
    1 => Done(ok),
    2 => Fail(f),
    3 => Shutdown,
    4 => Beat(samples),
});

// ---------------------------------------------------------------------------
// Shard-shared tallies
// ---------------------------------------------------------------------------

/// The scalar tallies every worker adds to, as one value: packets, bits
/// and packets lost on the position and force fabrics, the fault plan's
/// five outcome counts, acks sent and corrupt frames dropped — in that
/// order. Admission-side counters partition by destination owner and
/// loss counters by source owner, so the workers' differences from a
/// common base sum to the oracle's global tally: the coordinator writes
/// `base + Σ deltas` back into its replica after every segment. Every
/// worker restores from the same bytes (or starts fresh), so all bases
/// agree.
#[derive(Clone, Copy, Debug)]
struct Tallies([u64; 13]);

persist_struct!(Tallies { 0 });

impl Tallies {
    fn of(cl: &Cluster) -> Self {
        let (pos, frc) = (&cl.pos_fabric, &cl.frc_fabric);
        let [a, b, c, d, e] = cl.faults.as_ref().map_or([0; 5], |f| f.injected);
        let (acks, corrupt) = cl.rel.as_ref().map_or((0, 0), |r| (r.acks_sent, r.corrupt_dropped));
        Tallies([
            pos.packets, frc.packets, pos.bits_sent, frc.bits_sent,
            pos.packets_lost, frc.packets_lost,
            a, b, c, d, e, acks, corrupt,
        ])
    }

    /// Overwrite `cl`'s tallies with these.
    fn write_to(&self, cl: &mut Cluster) {
        let [
            pos_packets, frc_packets, pos_bits, frc_bits, pos_lost, frc_lost,
            faults @ ..,
            acks, corrupt,
        ] = self.0;
        (cl.pos_fabric.packets, cl.frc_fabric.packets) = (pos_packets, frc_packets);
        (cl.pos_fabric.bits_sent, cl.frc_fabric.bits_sent) = (pos_bits, frc_bits);
        (cl.pos_fabric.packets_lost, cl.frc_fabric.packets_lost) = (pos_lost, frc_lost);
        if let Some(f) = cl.faults.as_mut() {
            f.injected = faults;
        }
        if let Some(r) = cl.rel.as_mut() {
            (r.acks_sent, r.corrupt_dropped) = (acks, corrupt);
        }
    }

    /// Packets lost on both fabrics.
    fn lost(&self) -> u64 {
        self.0[4] + self.0[5]
    }

    /// Field-wise difference from an earlier reading.
    fn since(&self, base: &Tallies) -> Tallies {
        Tallies(std::array::from_fn(|i| self.0[i] - base.0[i]))
    }

    /// Field-wise sum.
    fn add(&mut self, delta: &Tallies) {
        for (t, d) in self.0.iter_mut().zip(delta.0) {
            *t += d;
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// One worker's link to one peer, as the window loop uses it: one
/// window frame each way per round. A byte carrier (socket, TCP, the
/// in-memory byte pipe) encodes the frame; the threads of one windowed
/// run hand it over as it is ([`Handoff`]), with nothing to encode,
/// check or decode.
trait PeerLink: Send {
    /// Send `frame`; returns the bytes put on the carrier (0 when none).
    fn send(&mut self, frame: MeshFrame) -> Result<u64, LinkError>;
    /// Block until the peer's frame arrives.
    fn recv(&mut self) -> Result<MeshFrame, LinkError>;
}

impl PeerLink for Box<dyn FrameLink> {
    fn send(&mut self, frame: MeshFrame) -> Result<u64, LinkError> {
        let bytes = frame.encode();
        self.send_frame(&bytes)?;
        Ok(bytes.len() as u64)
    }

    fn recv(&mut self) -> Result<MeshFrame, LinkError> {
        MeshFrame::decode(&self.recv_frame()?).map_err(LinkError::Frame)
    }
}

/// [`PeerLink`] between two threads of one process: frames move as
/// values over a channel pair. The receiver works on a copy made by its
/// own thread and hands the frame back for its sender to drop at its
/// next send, so each thread reads and frees only memory it allocated:
/// on the 2-vCPU host that is 3–4 % less CPU on `sparse8` than working
/// on, and freeing, the sender's buffers.
struct Handoff {
    /// Frames to the peer, and the peer's frames handed back.
    to_peer: (Sender<MeshFrame>, Receiver<MeshFrame>),
    /// Frames from the peer, and ours handed back to it.
    from_peer: (Receiver<MeshFrame>, Sender<MeshFrame>),
}

impl Handoff {
    /// A connected pair, boxed for a mesh row.
    fn pair() -> (Box<dyn PeerLink>, Box<dyn PeerLink>) {
        let ((a_tx, b_rx), (b_tx, a_rx)) = (channel(), channel());
        let ((a_back, b_returns), (b_back, a_returns)) = (channel(), channel());
        let a = Handoff { to_peer: (a_tx, a_returns), from_peer: (a_rx, a_back) };
        let b = Handoff { to_peer: (b_tx, b_returns), from_peer: (b_rx, b_back) };
        (Box::new(a), Box::new(b))
    }
}

impl PeerLink for Handoff {
    fn send(&mut self, frame: MeshFrame) -> Result<u64, LinkError> {
        while self.to_peer.1.try_recv().is_ok() {}
        self.to_peer.0.send(frame).map_err(|_| LinkError::Io("peer hung up".into()))?;
        Ok(0)
    }

    fn recv(&mut self) -> Result<MeshFrame, LinkError> {
        let frame = self.from_peer.0.recv().map_err(|_| LinkError::Io("peer hung up".into()))?;
        let copy = frame.clone();
        // A peer that has finished no longer takes its frames back.
        let _ = self.from_peer.1.send(frame);
        Ok(copy)
    }
}

/// Exchange one frame with every peer, pairwise in index order: for
/// each pair the lower index sends first while the higher one is
/// already receiving, so no frame — however far beyond a socket buffer
/// it grows — can leave two workers blocked in `send` on each other.
/// `mesh[k]` is the link to the `k`-th peer in index order (self
/// excluded); `frames[k]` goes to it and the reply comes back in slot
/// `k`. Time blocked in receives is charged to `gauges.wait_ns`, bytes
/// sent to `gauges.frame_bytes`.
fn exchange(
    mesh: &mut [Box<dyn PeerLink>],
    index: usize,
    frames: Vec<MeshFrame>,
    gauges: &mut ShardGauges,
) -> Result<Vec<MeshFrame>, SegmentFail> {
    let recv = |link: &mut Box<dyn PeerLink>, gauges: &mut ShardGauges| {
        let t = Instant::now();
        let frame = link.recv();
        gauges.wait_ns += t.elapsed().as_nanos() as u64;
        frame
    };
    let fail = |k: usize| {
        let peer = k + usize::from(k >= index);
        move |e: LinkError| SegmentFail::Link(format!("mesh link to worker {peer}: {e}"))
    };
    let mut replies = Vec::with_capacity(mesh.len());
    for (k, (link, frame)) in mesh.iter_mut().zip(frames).enumerate() {
        let peer = k + usize::from(k >= index);
        if index < peer {
            gauges.frame_bytes += link.send(frame).map_err(fail(k))?;
            replies.push(recv(link, gauges).map_err(fail(k))?);
        } else {
            replies.push(recv(link, gauges).map_err(fail(k))?);
            gauges.frame_bytes += link.send(frame).map_err(fail(k))?;
        }
    }
    Ok(replies)
}

/// Append `[from, to)` to a sorted span list, merging with the last
/// span when they touch (a skip resumed after an exchange is one span).
fn push_span(spans: &mut Vec<(u64, u64)>, from: u64, to: u64) {
    if to <= from {
        return;
    }
    match spans.last_mut() {
        Some(last) if last.1 == from => last.1 = to,
        _ => spans.push((from, to)),
    }
}

/// Intersection of sorted, disjoint span lists, clipped to `[lo, hi)`.
fn intersect_spans(lists: &[Vec<(u64, u64)>], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut acc = vec![(lo, hi)];
    for list in lists {
        let mut next = Vec::new();
        let mut spans = list.iter().peekable();
        for &(a, b) in &acc {
            while let Some(&&(from, to)) = spans.peek() {
                if from >= b {
                    break;
                }
                push_span(&mut next, from.max(a), to.min(b));
                if to > b {
                    break;
                }
                spans.next();
            }
        }
        acc = next;
    }
    acc
}

/// What one worker carries from segment to segment.
struct WorkerCtx<'a> {
    engine: &'a EngineConfig,
    mesh: &'a mut [Box<dyn PeerLink>],
    /// Every worker's owned node range, shard order.
    ranges: &'a [Range<usize>],
    index: usize,
    obs: ObsShard,
    /// Global packets-lost tally at the start of the next segment.
    lost: u64,
}

impl<'a> WorkerCtx<'a> {
    /// Worker `index` of `ranges.len()`, sampling heartbeats every
    /// `heartbeat_every` steps (0 = off), with `lost` packets lost so far.
    fn new(
        engine: &'a EngineConfig,
        mesh: &'a mut [Box<dyn PeerLink>],
        ranges: &'a [Range<usize>],
        index: usize,
        heartbeat_every: u64,
        lost: u64,
    ) -> Self {
        let obs = ObsShard::new(heartbeat_every, index, ranges.len());
        WorkerCtx { engine, mesh, ranges, index, obs, lost }
    }
}

/// Run one segment of the global cycle loop on this worker's shard:
/// [`Cluster::try_run_with`]'s loop, synchronised with the peers once
/// per lookahead window instead of once per cycle (module docs). The
/// one round loop of both carriers: harness threads under a coordinator
/// and the in-process windowed run. Worker 0 folds every worker's heartbeat
/// samples and hands each complete beat to `beats`, the coordinator's
/// control link, when there is one, and otherwise to the writer `cl`
/// holds.
fn run_segment(
    cl: &mut Cluster,
    ctx: &mut WorkerCtx<'_>,
    mut beats: Option<&mut dyn FrameLink>,
    target: u64,
    budget: u64,
) -> Result<(), SegmentFail> {
    assert!(target > 0);
    let index = ctx.index;
    let shards = ctx.ranges.len();
    let fast = ctx.engine.fast;
    let run_start = cl.cycle;
    let cap = run_start.saturating_add(budget);
    let lookahead = cl.pos_fabric.lookahead().min(cl.frc_fabric.lookahead());
    cl.arm_run(ctx.engine);
    ctx.obs.start(cl);
    // What the frames have told every worker about every worker (this
    // one included — its own notes go through the same fold).
    let mut clock = vec![run_start; shards];
    let mut horizon = vec![run_start; shards];
    let mut done_at: Vec<Option<u64>> = vec![None; shards];
    let mut skipped: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
    let mut halt: Option<Halt> = None;
    let mut lost_log: Vec<(u64, u64)> = Vec::new();
    // Events addressed to owned nodes that some worker has not yet
    // reported through; admitted once every clock has passed them.
    let mut pending: Vec<WireEvent> = Vec::new();
    // Fast-forward fold: spans every worker skipped below `folded_to`
    // are booked; one reaching it stays open until its end is known.
    let mut folded_to = run_start;
    let mut open_jump: Option<u64> = None;

    // This worker's own run state.
    let mut idle = false;
    let mut idle_from = run_start;
    let mut never_from: Option<u64> = None;
    let mut lost_seen = cl.packets_lost();
    let lost_base = ctx.lost;
    // A node goes `Done` only as it files its last step's record, and
    // only a plan with crash directives can fire one: the per-cycle
    // checks below look only when they could find something.
    let mut records_seen = cl.records.len();
    let crashes = cl.cfg.faults.as_ref().is_some_and(|p| !p.crashes.is_empty());

    loop {
        // ---- Run: up to one lookahead past the earliest cycle anybody
        // could put something on the wire — the slowest clock, or the
        // earliest event horizon when that lies further ahead: nothing
        // can arrive anywhere before it plus the lookahead, so spans every
        // worker skips cost one round, not one per lookahead. A done
        // worker follows: no further than any worker is known to have
        // got, so it cannot run past the global end. Once a crash is
        // known nobody needs to pass it.
        let t_run = Instant::now();
        let global = clock.iter().copied().min().unwrap_or(run_start);
        let ahead = horizon.iter().copied().min().unwrap_or(run_start);
        let from = match done_at.iter().copied().collect::<Option<Vec<u64>>>() {
            // Everyone is done and nothing is scheduled anywhere: the
            // followers go straight to the end.
            Some(ends) if ahead == u64::MAX => ends.into_iter().max().unwrap_or(global),
            _ if ahead == u64::MAX => global,
            _ => ahead.max(global),
        };
        let mut limit = from.saturating_add(lookahead).min(cap);
        if done_at[index].is_some() {
            let reached = (0..shards).map(|w| done_at[w].unwrap_or(clock[w])).max();
            limit = limit.min(reached.unwrap_or(run_start));
        }
        if let Some(h) = halt {
            limit = limit.min(h.settled_at());
        }
        let mut notes = WindowNotes::default();
        // Scan the local event horizon after an idle cycle (and again
        // after every admission): the fast engine skips to it, the
        // oracle only learns whether anything is scheduled at all.
        // `rescan_at` spares the oracle a scan per idle cycle.
        let mut rescan_at = 0u64;
        let mut scan = |cl: &mut Cluster, notes: &mut WindowNotes, never_from: &mut Option<u64>| {
            if cl.cycle < rescan_at {
                return;
            }
            let horizon = match cl.next_event_cycle() {
                NextEvent::Busy => return *never_from = None,
                NextEvent::At(t) => {
                    *never_from = None;
                    rescan_at = t + 1;
                    t
                }
                NextEvent::Never => {
                    never_from.get_or_insert(cl.cycle);
                    rescan_at = u64::MAX;
                    limit
                }
            };
            if fast {
                let from = cl.cycle;
                cl.skip_to(horizon.min(limit));
                push_span(&mut notes.skipped, from, cl.cycle);
            }
        };
        if idle {
            scan(cl, &mut notes, &mut never_from);
        }
        while cl.cycle < limit {
            let at = cl.cycle;
            let active = cl.step_cycle(target);
            idle = !active;
            if active {
                idle_from = cl.cycle;
                never_from = None;
            }
            let lost_now = cl.packets_lost();
            if lost_now != lost_seen {
                notes.lost.push((at, lost_now - lost_seen));
                lost_seen = lost_now;
            }
            // A motion update that overflowed fails the run at the end of
            // its cycle, like the oracle's check right after the step.
            if let Some(o) = cl.overflow.take() {
                let (node, step, particle) = (o.node as u32, o.step, Some(o.particle));
                notes.halt = Some(Halt { at_cycle: at, node, step, particle });
                never_from = None;
                break;
            }
            notes.obs.extend(ctx.obs.due(cl));
            if done_at[index].is_none() && cl.records.len() != records_seen {
                records_seen = cl.records.len();
                if cl.owned_done(target) {
                    notes.done_at = Some(cl.cycle);
                    break;
                }
            }
            // Crash directives fire at the top of the next cycle,
            // exactly like the oracle's loop-top check (which the budget
            // check precedes). Only the owner can observe one; it stops
            // here and announces it, and the peers' overrun is harmless
            // — no segment result is produced.
            if crashes && cl.cycle < cap {
                if let Some(cp) = cl.crash_due() {
                    let (node, step) = (cp.node, cp.step);
                    notes.halt = Some(Halt { at_cycle: cl.cycle, node, step, particle: None });
                    never_from = None;
                    break;
                }
            }
            if idle {
                scan(cl, &mut notes, &mut never_from);
            }
        }
        notes.clock = cl.cycle;
        notes.done_at = notes.done_at.or(done_at[index]);
        notes.idle_from = idle_from;
        notes.never_from = never_from.filter(|_| pending.is_empty());
        let mine = cl.take_wire_events();
        notes.generated = mine.len() as u64;
        // A delivery or tick can enable an exchange action on the next
        // cycle, which no scan sees: after an active cycle the horizon is
        // the clock itself.
        let local = match idle.then(|| cl.next_event_cycle()) {
            Some(NextEvent::At(t)) => t,
            Some(NextEvent::Never) => u64::MAX,
            _ => cl.cycle,
        };
        notes.horizon = pending.iter().chain(&mine).map(|e| e.cycle).fold(local, u64::min);
        ctx.obs.gauges.compute_ns += t_run.elapsed().as_nanos() as u64;

        // ---- Exchange: every peer gets the events for its own nodes.
        let owner_of = |e: &WireEvent| {
            ctx.ranges.partition_point(|r| r.end <= e.dst as usize)
        };
        let mut outbound: Vec<Vec<WireEvent>> = (0..shards).map(|_| Vec::new()).collect();
        for e in mine {
            outbound[owner_of(&e)].push(e);
        }
        let own = std::mem::take(&mut outbound[index]);
        let frames: Vec<MeshFrame> = outbound
            .into_iter()
            .enumerate()
            .filter(|&(w, _)| w != index)
            .map(|(_, events)| MeshFrame { notes: notes.clone(), events })
            .collect();
        ctx.obs.gauges.windows += 1;
        ctx.obs.gauges.events_sent += notes.generated - own.len() as u64;
        let replies = exchange(ctx.mesh, index, frames, &mut ctx.obs.gauges)?;

        // ---- Fold: own notes and every peer's, in shard order.
        let mut heard = Vec::with_capacity(shards);
        pending.extend(own);
        let mut replies = replies.into_iter();
        for w in 0..shards {
            if w == index {
                heard.push(std::mem::take(&mut notes));
                continue;
            }
            let MeshFrame { notes, events } = replies.next().expect("one reply per peer");
            heard.push(notes);
            pending.extend(events);
        }
        let mut generated = 0;
        let mut samples = Vec::new();
        for (w, notes) in heard.iter_mut().enumerate() {
            clock[w] = notes.clock;
            horizon[w] = notes.horizon;
            done_at[w] = notes.done_at;
            halt = [halt, notes.halt].into_iter().flatten().min_by_key(Halt::key);
            for &(from, to) in &notes.skipped {
                push_span(&mut skipped[w], from, to);
            }
            lost_log.append(&mut notes.lost);
            generated += notes.generated;
            samples.append(&mut notes.obs);
        }
        let global = clock.iter().copied().min().unwrap_or(run_start);
        cl.admit_wire_events(&mut pending, global).map_err(SegmentFail::Lookahead)?;
        // The oracle skipped exactly the cycles every worker skipped; a
        // maximal such span is one of its jumps. One that reaches the
        // fold's end stays open until a later round shows where it ends.
        if global > folded_to {
            let spans = intersect_spans(&skipped, folded_to, global);
            if spans.first().is_none_or(|s| s.0 > folded_to) {
                if let Some(from) = open_jump.take() {
                    cl.record_jump(from, folded_to);
                }
            }
            for (from, to) in spans {
                let from = open_jump.take().unwrap_or(from);
                if to == global {
                    open_jump = Some(from);
                } else {
                    cl.record_jump(from, to);
                }
            }
            folded_to = global;
            for spans in &mut skipped {
                spans.retain(|s| s.1 > global);
            }
        }
        // Worker 0 folds the samples and hands on each complete beat.
        let samples = samples.into_iter().filter(|_| index == 0);
        for beat in samples.filter_map(|d| ctx.obs.note(d)) {
            match beats.as_deref_mut() {
                Some(ctl) => ctl
                    .send_frame(&CtlFrame::Beat(beat).encode())
                    .map_err(|e| SegmentFail::Link(format!("control link: {e}")))?,
                None => {
                    let nodes = cl.num_nodes();
                    cl.obs.as_mut().expect("an in-process cadence has a writer").beat(&beat, nodes);
                }
            }
        }

        // ---- Verdicts, earliest simulated cycle first. Each is a
        // function of the frames alone, so every worker returns from
        // the same round, with its share of the oracle's error: the
        // oracle's own constructors over the owned nodes, at the cycle
        // and packets-lost tally the frames agree on.
        let lost_before =
            |c: u64| lost_base + lost_log.iter().filter(|l| l.0 < c).map(|l| l.1).sum::<u64>();
        if let Some(h) = halt.filter(|h| global >= h.settled_at()) {
            let (at_cycle, node, step) = (h.at_cycle, h.node as usize, h.step);
            let packets_lost = lost_before(h.settled_at());
            return Err(SegmentFail::Cluster(match h.particle {
                None => CrashInjected { at_cycle, node, step, packets_lost }.into(),
                Some(particle) => {
                    MotionOverflow { at_cycle, node, step, particle, packets_lost }.into()
                }
            }));
        }
        let stalled = |cl: &Cluster| {
            let (at_cycle, packets_lost) = (cap, lost_before(cap));
            SegmentFail::Cluster(ClusterStalled { at_cycle, packets_lost, ..cl.stalled() }.into())
        };
        if let Some(end) = done_at.iter().copied().collect::<Option<Vec<u64>>>() {
            let end = end.into_iter().max().unwrap_or(run_start);
            if global == end {
                // Every clock stands at the global end and everything
                // generated before it has been admitted.
                debug_assert!(pending.is_empty() && open_jump.is_none());
                if end >= cap {
                    return Err(stalled(cl));
                }
                ctx.lost = lost_before(end);
                return Ok(());
            }
        }
        // Deadlock: every worker idle with nothing scheduled, nothing
        // waiting for admission and nothing put on the wire this round.
        // The fast oracle finds it on its first scan, the cycle after
        // the last one anybody ran; the serial oracle on the first
        // multiple of its idle-streak scan interval at or past it.
        // Once every worker is done the segment is over as soon as the
        // followers reach the end, whatever is (not) scheduled.
        let nevers: Option<Vec<u64>> = heard.iter().map(|n| n.never_from).collect();
        let all_done = done_at.iter().all(Option::is_some);
        if let Some(nevers) = nevers.filter(|_| generated == 0 && !all_done) {
            let settled = nevers.into_iter().max().unwrap_or(run_start);
            let at_cycle = if fast {
                settled
            } else {
                let streak_from = heard.iter().map(|n| n.idle_from).max().unwrap_or(run_start);
                let scans = (settled - streak_from).div_ceil(DEADLOCK_SCAN_INTERVAL).max(1);
                streak_from + scans * DEADLOCK_SCAN_INTERVAL
            };
            if at_cycle >= cap {
                return Err(stalled(cl));
            }
            let packets_lost = lost_before(at_cycle);
            return Err(SegmentFail::Cluster(
                DeadlockDetected { at_cycle, packets_lost, ..cl.deadlocked() }.into(),
            ));
        }
        if global >= cap {
            return Err(stalled(cl));
        }
    }
}

/// This worker's share of the segment it just completed.
fn segment_share(cl: &mut Cluster, base: &Tallies) -> SegmentShare {
    // The owned nodes' records, statistics and traffic; the steps and
    // cycles of a worker's partial report mean nothing to anyone.
    let ClusterRunReport { records, stats, per_node_traffic: traffic, .. } =
        cl.assemble_report(0, 0);
    SegmentShare {
        end_cycle: cl.cycle,
        skipped: cl.skipped_cycles,
        records,
        stats,
        traffic,
        tallies: Tallies::of(cl).since(base),
    }
}

/// Package a completed segment for the coordinator.
fn segment_ok(cl: &mut Cluster, base: &Tallies, gauges: ShardGauges) -> SegmentOk {
    let share = segment_share(cl, base);
    let owned = cl.owned_range();
    let trace = cl.take_trace().map(|t| TraceShard {
        level: t.level,
        nodes: t.nodes[owned].to_vec(),
        engine: t.engine,
        stalls: t.stalls,
    });
    let mut cw = ContainerWriter::new();
    cl.snapshot_into(&mut cw);
    SegmentOk { share, trace, gauges, container: cw.finish() }
}

/// The one segment fold, for the coordinator and the in-process windowed
/// run alike: `cl` already holds every worker's owned nodes; here the
/// shared tallies are reconciled as `base + Σ deltas`, the clock and
/// skipped-cycle tally (identical on every worker) are taken from worker
/// 0, and the records, statistics and traffic fold into the segment
/// report to `target`, run from `seg_start`.
fn fold_segment(
    cl: &mut Cluster,
    shares: Vec<SegmentShare>,
    base: &Tallies,
    target: u64,
    seg_start: u64,
) -> ClusterRunReport {
    let mut tallies = *base;
    let (mut records, mut stats, mut traffic) = (Vec::new(), StatSet::new(), Vec::new());
    cl.cycle = shares[0].end_cycle;
    cl.skipped_cycles = shares[0].skipped;
    for mut share in shares {
        tallies.add(&share.tallies);
        records.append(&mut share.records);
        stats.merge_from(&share.stats);
        traffic.append(&mut share.traffic);
    }
    tallies.write_to(cl);
    // `(wall_end, node)` keys are unique across the run; a stable sort
    // over the shard-order concatenation reproduces the oracle's record
    // order exactly.
    records.sort_by_key(|r| (r.wall_end, r.node));
    cl.segment_report(target, cl.cycle - seg_start, records, stats, traffic)
}

/// What a carrier hands a worker: its control link, its mesh links to
/// the peers in index order (self excluded), and the checkpoint to
/// restore before the first segment.
type WorkerLinks = (Box<dyn FrameLink>, Vec<Box<dyn FrameLink>>, Option<PathBuf>);

/// One worker, whatever carries its links: build the machine, restore,
/// arm the `exchange` hook with the owned range, then obey `Run` /
/// `Shutdown` control frames until the coordinator hangs up.
///
/// A segment that fails on this worker alone — a dead link, a refused
/// event — ends the worker after it has reported: dropping its mesh
/// links is what wakes every peer still blocked on them, so a death
/// anywhere in the mesh unwinds the whole fleet in bounded time.
fn serve(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    engine: &EngineConfig,
    index: usize,
    shards: usize,
    (mut ctl, mesh, resume): WorkerLinks,
) -> Result<(), ShardError> {
    let mut cl = Cluster::new(cfg.clone(), sys);
    let mut mesh: Vec<Box<dyn PeerLink>> =
        mesh.into_iter().map(|link| Box::new(link) as Box<dyn PeerLink>).collect();
    if let Some(path) = resume {
        load_checkpoint(&mut cl, &path)?;
    }
    let ranges = shard_ranges(cl.num_nodes(), shards);
    cl.exchange = Some(ExchangeBuf { owned: ranges[index].clone(), stage: 0, events: Vec::new() });
    let base = Tallies::of(&cl);
    let mut ctx =
        WorkerCtx::new(engine, &mut mesh, &ranges, index, engine.heartbeat_every, base.lost());
    loop {
        match CtlFrame::decode(&ctl.recv_frame()?).map_err(ShardError::Ckpt)? {
            CtlFrame::Run { target, budget } => {
                let outcome = run_segment(&mut cl, &mut ctx, Some(&mut *ctl), target, budget);
                let gauges = std::mem::take(&mut ctx.obs.gauges);
                let alone =
                    matches!(outcome, Err(SegmentFail::Link(_) | SegmentFail::Lookahead(_)));
                let frame = match outcome {
                    Ok(()) => CtlFrame::Done(Box::new(segment_ok(&mut cl, &base, gauges))),
                    Err(f) => CtlFrame::Fail(f),
                };
                ctl.send_frame(&frame.encode())?;
                if alone {
                    return Ok(());
                }
            }
            CtlFrame::Shutdown => return Ok(()),
            _ => return Err(ShardError::Protocol("unexpected control frame in worker".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Merge per-worker trace shards into the run's [`Trace`]: node
/// streams concatenate in shard order (= node order), the engine
/// stream is identical on every worker (shard 0's is used), stall
/// ledgers fold additively.
fn fold_trace(shards: Vec<Option<TraceShard>>, nodes: usize) -> Option<Trace> {
    if shards.iter().all(Option::is_none) {
        return None;
    }
    let mut level = None;
    let mut streams: Vec<NodeStream> = Vec::with_capacity(nodes);
    let mut engine = None;
    let mut stalls = StallLedger::new(nodes);
    for (w, shard) in shards.into_iter().enumerate() {
        let shard = shard?;
        if w == 0 {
            level = shard.level;
            engine = Some(shard.engine);
        }
        streams.extend(shard.nodes);
        stalls.absorb(&shard.stalls);
    }
    Some(Trace { level, nodes: streams, engine: engine?, stalls })
}

/// Convert the per-worker failure shares into the oracle's error: the
/// shares of a stall or deadlock concatenate in shard order and the
/// outages the workers saw latch are unioned; an injected crash is
/// announced identically to every worker.
fn merge_failures(fails: Vec<SegmentFail>) -> ShardError {
    let mut merged: Option<ClusterError> = None;
    let mut link = None;
    for f in fails {
        let share = match f {
            // A worker-local failure explains every link error it caused
            // in its peers, so it is the one to report.
            SegmentFail::Lookahead(v) => return ShardError::Lookahead(v),
            SegmentFail::Link(msg) => {
                link.get_or_insert(msg);
                continue;
            }
            SegmentFail::Cluster(share) => share,
        };
        merged = Some(match (merged, share) {
            (Some(ClusterError::Stalled(mut s)), ClusterError::Stalled(t)) => {
                s.node_states.extend(t.node_states);
                s.into()
            }
            (Some(ClusterError::Deadlock(mut d)), ClusterError::Deadlock(e)) => {
                d.starving.extend(e.starving);
                d.outages.extend(e.outages);
                d.into()
            }
            (Some(first), _) | (None, first) => first,
        });
    }
    if let Some(ClusterError::Deadlock(d)) = merged.as_mut() {
        d.outages.sort();
        d.outages.dedup();
    }
    match (merged, link) {
        (Some(e @ (ClusterError::Crashed(_) | ClusterError::Overflow(_))), _) | (Some(e), None) => {
            ShardError::Cluster(e)
        }
        (_, Some(msg)) => ShardError::Worker(msg),
        (None, None) => ShardError::Worker("workers failed without details".into()),
    }
}

/// Best-effort shutdown broadcast; link errors are ignored (a worker
/// that died is already gone).
fn shutdown(ctl: &mut [Box<dyn FrameLink>]) {
    let payload = CtlFrame::Shutdown.encode();
    for link in ctl.iter_mut() {
        let _ = link.send_frame(&payload);
    }
}

/// The coordinator, whatever carries its links: build the replica,
/// restore it by the resume rule every run applies, let `connect` start
/// the workers and hand back one control link per worker in shard order
/// (it sees the checkpoint the workers restore), then drive
/// [`run_segments`] — the in-process run's own segment loop — with one
/// Run / collect / splice / reconcile / fold round per segment, and shut
/// the workers down.
fn coordinate(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    shards: usize,
    opts: &ShardOpts,
    connect: impl FnOnce(Option<&Path>) -> Result<Vec<Box<dyn FrameLink>>, ShardError>,
) -> Result<ShardedRun, ShardError> {
    let mut replica = Cluster::new(cfg.clone(), sys);
    let n = replica.num_nodes();
    validate_sharding(cfg, shards, n)?;
    let ranges = shard_ranges(n, shards);
    let mut host = HostCosts::default();
    let acc = match &opts.resume {
        Some(path) => {
            let acc = host.restore(|| load_checkpoint(&mut replica, path))?;
            resumed(acc, &path.display().to_string(), steps, &mut |_| {})?
        }
        None => ClusterRunReport::new(),
    };
    let mut ctl = connect(opts.resume.as_deref())?;
    if let Some(sinks) = &opts.obs {
        // The replica never steps: the workers keep the cadence.
        replica.attach_obs(Box::new(ObsLive::new(0, sinks)?));
    }
    let mut scratch = Cluster::new(cfg.clone(), sys);
    let base = Tallies::of(&replica);
    let mut gauges = vec![ShardGauges::default(); shards];
    let mut round = |replica: &mut Cluster, target: u64, budget: u64| -> Segment<ShardError> {
        let seg_start = replica.cycle;
        let run = CtlFrame::Run { target, budget }.encode();
        for link in ctl.iter_mut() {
            link.send_frame(&run)?;
        }
        let (mut oks, mut fails): (Vec<SegmentOk>, _) = (Vec::with_capacity(shards), Vec::new());
        // Worker 0's link is read first and carries the beats, so
        // heartbeats stream out while the segment is still running. A
        // control link that dies names its worker: whatever the
        // survivors report about their own links is a consequence.
        for (w, link) in ctl.iter_mut().enumerate() {
            loop {
                let frame = link.recv_frame().map_err(|e| {
                    ShardError::Worker(format!("worker {w} died mid-segment: {e}"))
                })?;
                match CtlFrame::decode(&frame)? {
                    // One sample per worker, or the frame is not a beat.
                    CtlFrame::Beat(samples) if samples.len() == shards => {
                        if let Some(obs) = replica.obs.as_mut() {
                            obs.beat(&samples, n);
                        }
                    }
                    CtlFrame::Done(ok) => {
                        oks.push(*ok);
                        break;
                    }
                    CtlFrame::Fail(f) => {
                        fails.push(f);
                        break;
                    }
                    _ => return Err(ShardError::Protocol("expected segment result".into())),
                }
            }
        }
        if !fails.is_empty() {
            return Err(merge_failures(fails));
        }
        let (mut shares, mut traces) = (Vec::with_capacity(shards), Vec::with_capacity(shards));
        for (w, ok) in oks.into_iter().enumerate() {
            scratch.restore_from(&Container::parse(&ok.container)?)?;
            replica.adopt_nodes(&mut scratch, ranges[w].clone());
            gauges[w].add(&ok.gauges);
            shares.push(ok.share);
            traces.push(ok.trace);
        }
        let report = fold_segment(replica, shares, &base, target, seg_start);
        Ok((report, fold_trace(traces, n)))
    };
    let res = run_segments(
        &mut replica,
        steps,
        opts.budget,
        opts.ckpt.as_ref(),
        acc,
        &mut host,
        &mut |_| SegmentControl::Continue,
        &mut round,
    );
    shutdown(&mut ctl);
    let CkptRunOutcome::Completed(CheckpointedRun { report, traces, checkpoints }) = res? else {
        unreachable!("a run that always continues completes");
    };
    Ok(ShardedRun { report, traces, checkpoints, replica, gauges, host })
}

// ---------------------------------------------------------------------------
// In-process windowed run (the fast engine on the host's cores)
// ---------------------------------------------------------------------------

/// [`Cluster::try_run_with`] on `workers` scoped threads: the window
/// protocol with no coordinator, no replica and no container. The
/// calling thread is worker 0 and runs on `cl` itself; workers 1.. run
/// on shells ([`Cluster::shell`]) that the owned nodes' state is moved
/// into by [`Cluster::adopt_nodes`] and moved back out of once the segment is
/// over, so `cl` ends up exactly as the one-thread loop leaves it —
/// chips, with their utilisation counters and trace streams, included.
/// Workers mesh over in-memory links.
pub(crate) fn run_windowed(
    cl: &mut Cluster,
    steps: u64,
    budget: u64,
    engine: &EngineConfig,
    workers: usize,
) -> Result<ClusterRunReport, ClusterError> {
    let ranges = shard_ranges(cl.num_nodes(), workers);
    let base = Tallies::of(cl);
    let seg_start = cl.cycle;
    let mut shells: Vec<Cluster> = ranges[1..]
        .iter()
        .map(|owned| {
            let mut shell = cl.shell(owned.clone());
            shell.adopt_nodes(cl, owned.clone());
            shell
        })
        .collect();
    cl.exchange = Some(ExchangeBuf { owned: ranges[0].clone(), stage: 0, events: Vec::new() });
    let mut rows = mesh(workers, || Ok(Handoff::pair()))
        .expect("in-process handoffs cannot fail to open")
        .into_iter();
    let (ranges, lost) = (&ranges, base.lost());
    let every = cl.obs.as_ref().map_or(0, |o| o.every());
    let outcomes: Vec<Result<(), SegmentFail>> = std::thread::scope(|scope| {
        let mut own = rows.next().expect("worker 0's mesh row");
        let peers: Vec<_> = shells
            .iter_mut()
            .zip(rows)
            .enumerate()
            .map(|(k, (shell, mut row))| {
                scope.spawn(move || {
                    let mut ctx = WorkerCtx::new(engine, &mut row, ranges, k + 1, every, lost);
                    run_segment(shell, &mut ctx, None, steps, budget)
                })
            })
            .collect();
        let mut ctx = WorkerCtx::new(engine, &mut own, ranges, 0, every, lost);
        let mine = run_segment(cl, &mut ctx, None, steps, budget);
        // A worker that failed alone releases the peers blocked on it.
        drop(own);
        let theirs = peers.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        std::iter::once(mine).chain(theirs).collect()
    });
    let fails: Vec<SegmentFail> = outcomes.into_iter().filter_map(Result::err).collect();
    let ok = fails.is_empty();
    let mut shares = Vec::with_capacity(workers);
    if ok {
        shares.push(segment_share(cl, &base));
    }
    cl.exchange = None;
    for (shell, owned) in shells.iter_mut().zip(&ranges[1..]) {
        if ok {
            shares.push(segment_share(shell, &base));
            cl.tr_stalls.absorb(&shell.tr_stalls);
        }
        cl.adopt_nodes(shell, owned.clone());
    }
    if !ok {
        return match merge_failures(fails) {
            ShardError::Cluster(e) => Err(e),
            other => panic!("in-process window protocol failed: {other}"),
        };
    }
    Ok(fold_segment(cl, shares, &base, steps, seg_start))
}

// ---------------------------------------------------------------------------
// Thread-backed harness (real socket mesh, in-process workers)
// ---------------------------------------------------------------------------

/// Options for a sharded run.
pub struct ShardOpts {
    /// Global cycle budget across all segments.
    pub budget: u64,
    /// Coordinated quiescent-step checkpointing.
    pub ckpt: Option<CheckpointConfig>,
    /// Checkpoint file to restore before running. The shard count need
    /// not match the one that wrote it — checkpoints are full-cluster.
    pub resume: Option<PathBuf>,
    /// Heartbeat sinks on the coordinator (requires
    /// `EngineConfig::heartbeat_every` > 0 for beats to be produced).
    pub obs: Option<ObsSinkConfig>,
    /// Carry the control channel and the worker mesh over loopback TCP
    /// instead of socketpairs: the second carrier the tests hold to the
    /// oracle, and the one the benchmark's `s2_tcp_vs_unix` probe
    /// times. The bytes on the wire are identical either way.
    pub tcp: bool,
}

impl Default for ShardOpts {
    fn default() -> Self {
        ShardOpts { budget: MAX_RUN_CYCLES, ckpt: None, resume: None, obs: None, tcp: false }
    }
}

/// A connected loopback-TCP link pair.
fn tcp_pair() -> std::io::Result<(Box<dyn FrameLink>, Box<dyn FrameLink>)> {
    let listener = Endpoint::Tcp("127.0.0.1:0".into()).bind()?;
    let dialed = listener.endpoint().connect()?;
    Ok((listener.accept()?, dialed))
}

/// One connected link per unordered worker pair, each made by `pair`:
/// row `w` holds worker `w`'s links to its peers in index order (self
/// excluded) — the mesh row [`run_segment`] expects.
fn mesh<L>(shards: usize, mut pair: impl FnMut() -> std::io::Result<(L, L)>) -> std::io::Result<Vec<Vec<L>>> {
    let mut rows: Vec<Vec<Option<L>>> =
        (0..shards).map(|_| (0..shards).map(|_| None).collect()).collect();
    // Indexes two rows at once (i's column j and j's column i), which
    // an iterator rewrite cannot express.
    #[allow(clippy::needless_range_loop)]
    for i in 0..shards {
        for j in i + 1..shards {
            let (a, b) = pair()?;
            rows[i][j] = Some(a);
            rows[j][i] = Some(b);
        }
    }
    Ok(rows.into_iter().map(|row| row.into_iter().flatten().collect()).collect())
}

/// The harness mesh: socketpairs, or loopback TCP.
fn harness_mesh(shards: usize, tcp: bool) -> std::io::Result<Vec<Vec<Box<dyn FrameLink>>>> {
    mesh(shards, || -> std::io::Result<(Box<dyn FrameLink>, Box<dyn FrameLink>)> {
        if tcp {
            return tcp_pair();
        }
        let (a, b) = SocketLink::pair()?;
        Ok((Box::new(a), Box::new(b)))
    })
}

/// A completed sharded run.
pub struct ShardedRun {
    /// Whole-run folded report — equal to the in-process oracle's.
    pub report: ClusterRunReport,
    /// One merged trace per segment (tracing on).
    pub traces: Vec<Trace>,
    /// Checkpoints written, oldest first.
    pub checkpoints: Vec<PathBuf>,
    /// The coordinator's replica, spliced to the final state —
    /// bit-identical to an in-process cluster after the same run.
    pub replica: Cluster,
    /// Per worker, where its wall time went (summed over segments).
    /// Host-side gauges: they differ run to run and are no part of the
    /// bit-identity contract.
    pub gauges: Vec<ShardGauges>,
    /// Steps run, checkpoint saves and the restore, measured on the
    /// coordinator as it paid them.
    pub host: HostCosts,
}

impl std::fmt::Debug for ShardedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRun")
            .field("report", &self.report)
            .field("traces", &self.traces.len())
            .field("checkpoints", &self.checkpoints)
            .finish_non_exhaustive()
    }
}

/// Run `steps` timesteps over `shards` workers backed by harness
/// threads under a coordinator, exchanging frames over real Unix-domain
/// socketpairs (or loopback TCP, [`ShardOpts::tcp`]): the full protocol,
/// encoded and framed, run hermetically for tests and the benchmark.
pub fn run_sharded(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    engine: &EngineConfig,
    shards: usize,
    opts: ShardOpts,
) -> Result<ShardedRun, ShardError> {
    run_harness(cfg, sys, steps, engine, shards, opts, &|_, link| link)
}

/// [`run_sharded`] with every worker-side link (control and mesh) of
/// worker `w` passed through `wrap(w, link)` first — the seam the
/// worker-death tests use to make one worker's links fail on cue.
fn run_harness(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    engine: &EngineConfig,
    shards: usize,
    opts: ShardOpts,
    wrap: &dyn Fn(usize, Box<dyn FrameLink>) -> Box<dyn FrameLink>,
) -> Result<ShardedRun, ShardError> {
    let mut handles = Vec::with_capacity(shards);
    let res = coordinate(cfg, sys, steps, shards, &opts, |resume| {
        // Full mesh of socketpairs plus one control channel per worker.
        let mut ctl: Vec<Box<dyn FrameLink>> = Vec::with_capacity(shards);
        for (w, row) in harness_mesh(shards, opts.tcp)?.into_iter().enumerate() {
            let (mine, theirs): (Box<dyn FrameLink>, Box<dyn FrameLink>) = if opts.tcp {
                tcp_pair()?
            } else {
                let (mine, theirs) = MemLink::pair();
                (Box::new(mine), Box::new(theirs))
            };
            ctl.push(mine);
            // The control link is wrapped first, then the mesh row.
            let theirs = wrap(w, theirs);
            let mesh = row.into_iter().map(|link| wrap(w, link)).collect();
            let links = (theirs, mesh, resume.map(Path::to_path_buf));
            let (cfg, sys, engine) = (cfg.clone(), sys.clone(), *engine);
            handles.push(std::thread::spawn(move || serve(&cfg, &sys, &engine, w, shards, links)));
        }
        Ok(ctl)
    });
    // The coordinator has dropped its control links, which unblocks any
    // worker still waiting on one.
    for h in handles {
        let _ = h.join();
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NetMsg;
    use fasda_core::config::ChipConfig;
    use fasda_md::element::Element;
    use fasda_md::space::SimulationSpace;
    use fasda_md::workload::{Placement, WorkloadSpec};
    use fasda_net::packet::PacketKind;
    use fasda_sim::rng::XorShift64Star;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    impl MeshFrame {
        /// A worker's window frame, encoded from borrowed parts.
        fn encode_window<'a>(
            notes: &WindowNotes,
            events: impl Iterator<Item = &'a WireEvent>,
        ) -> Vec<u8> {
            MeshFrame { notes: notes.clone(), events: events.cloned().collect() }.encode()
        }
    }

    fn workload() -> ParticleSystem {
        WorkloadSpec {
            space: SimulationSpace::cubic(6),
            per_cell: 3,
            placement: Placement::JitteredLattice { jitter: 0.05 },
            temperature_k: 150.0,
            seed: 47,
            element: Element::Na,
        }
        .generate()
    }

    fn config() -> ClusterConfig {
        ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3))
    }

    fn ack(cycle: u64, src: u32, dst: u32, arrive: u64) -> WireEvent {
        WireEvent {
            cycle,
            stage: 2,
            src,
            dst,
            arrive,
            extra: 0,
            msg: NetMsg::Ack { channel: PacketKind::Position, from: src as usize, seq: cycle as u32 },
        }
    }

    // ---------------------------------------------------------------------
    // Span folding
    // ---------------------------------------------------------------------

    #[test]
    fn spans_merge_when_they_touch_and_intersect_by_sweep() {
        let mut a = Vec::new();
        push_span(&mut a, 10, 20);
        push_span(&mut a, 20, 30);
        push_span(&mut a, 40, 40);
        push_span(&mut a, 50, 60);
        assert_eq!(a, vec![(10, 30), (50, 60)]);

        let b = vec![(0, 15), (25, 55), (58, 100)];
        assert_eq!(
            intersect_spans(&[a.clone(), b.clone()], 0, 100),
            vec![(10, 15), (25, 30), (50, 55), (58, 60)]
        );
        assert_eq!(intersect_spans(&[a.clone(), b], 12, 52), vec![(12, 15), (25, 30), (50, 52)]);
        assert_eq!(intersect_spans(&[a, Vec::new()], 0, 100), Vec::new());
        assert_eq!(intersect_spans(&[], 3, 9), vec![(3, 9)]);
    }

    // ---------------------------------------------------------------------
    // A wrong lookahead fails loudly
    // ---------------------------------------------------------------------

    #[test]
    fn overdue_event_is_refused_with_a_typed_error_naming_it() {
        let mut cl = Cluster::new(config(), &workload());
        cl.exchange = Some(ExchangeBuf { owned: 0..4, stage: 0, events: Vec::new() });
        cl.cycle = 1_000;
        // Deliverable: arrives at the port after the shard's clock.
        let mut pending = vec![ack(900, 5, 1, 1_100), ack(990, 6, 2, 1_200)];
        cl.admit_wire_events(&mut pending, 950).expect("in-window event admits");
        assert_eq!(pending.len(), 1, "events at or past the horizon stay pending");
        assert_eq!(cl.inbox[1].len(), 1);
        // Overdue: sent at 700, port-admitted at 912 — the shard already
        // ran the delivery sweeps of cycles 912..1000 without it.
        let mut pending = vec![ack(700, 5, 3, 910)];
        let v = cl.admit_wire_events(&mut pending, 1_000).expect_err("overdue event refused");
        assert_eq!(v, LookaheadViolation { src: 5, dst: 3, sent: 700, due: 912, clock: 1_000 });
        assert_eq!(cl.inbox[3].len(), 0, "nothing delivered late");

        // The worker reports it and the coordinator surfaces it typed,
        // ahead of the link errors it causes in the peers.
        let err = merge_failures(vec![
            SegmentFail::Link("mesh link to worker 1: peer hung up".into()),
            SegmentFail::Lookahead(v),
        ]);
        assert!(matches!(err, ShardError::Lookahead(got) if got == v), "got {err}");
        assert!(err.to_string().contains("event 5->3 sent at cycle 700"), "{err}");
    }

    // ---------------------------------------------------------------------
    // Deadlock-free exchange of frames beyond any socket buffer
    // ---------------------------------------------------------------------

    #[test]
    fn window_frames_over_a_mebibyte_cross_every_carrier_without_deadlock() {
        const EVENTS: usize = 40_000;
        for tcp in [false, true] {
            for shards in [2usize, 4] {
                let (tx, rx) = mpsc::channel();
                let mut workers = Vec::new();
                for (w, mesh) in harness_mesh(shards, tcp).expect("mesh").into_iter().enumerate() {
                    let tx = tx.clone();
                    let mut mesh: Vec<Box<dyn PeerLink>> =
                        mesh.into_iter().map(|l| Box::new(l) as Box<dyn PeerLink>).collect();
                    workers.push(std::thread::spawn(move || {
                        // Every worker sends every peer a frame of its
                        // own events, all at once — the pattern that
                        // wedges a send-all-then-receive-all exchange.
                        let events: Vec<WireEvent> =
                            (0..EVENTS as u64).map(|c| ack(c, w as u32, 0, c + 204)).collect();
                        let notes = WindowNotes { clock: w as u64, ..Default::default() };
                        let frame = MeshFrame { notes, events };
                        let bytes = frame.encode().len();
                        assert!(bytes > 1 << 20, "frame is only {bytes} bytes");
                        let frames = (1..shards).map(|_| MeshFrame::decode(&frame.encode()).expect("decodes")).collect();
                        let mut gauges = ShardGauges::default();
                        let replies = exchange(&mut mesh, w, frames, &mut gauges);
                        let senders: Vec<(u64, usize, u32)> = replies
                            .expect("exchange completes")
                            .into_iter()
                            .map(|MeshFrame { notes, events }| (notes.clock, events.len(), events[0].src))
                            .collect();
                        assert_eq!(gauges.frame_bytes, (bytes * (shards - 1)) as u64);
                        tx.send((w, senders)).expect("report");
                    }));
                }
                for _ in 0..shards {
                    let (w, senders) = rx
                        .recv_timeout(Duration::from_secs(60))
                        .unwrap_or_else(|_| panic!("exchange wedged (tcp {tcp}, {shards} shards)"));
                    let peers: Vec<(u64, usize, u32)> = (0..shards)
                        .filter(|&p| p != w)
                        .map(|p| (p as u64, EVENTS, p as u32))
                        .collect();
                    assert_eq!(senders, peers, "worker {w} heard its peers in index order");
                }
                for worker in workers {
                    worker.join().expect("exchange thread");
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // Hostile window frames
    // ---------------------------------------------------------------------

    fn sample_frame(rng: &mut XorShift64Star) -> (WindowNotes, Vec<WireEvent>) {
        let spans = |rng: &mut XorShift64Star| -> Vec<(u64, u64)> {
            (0..rng.next_below(4)).map(|_| (rng.next_u64(), rng.next_u64())).collect()
        };
        let notes = WindowNotes {
            clock: rng.next_u64(),
            done_at: (rng.next_below(2) == 0).then(|| rng.next_u64()),
            halt: (rng.next_below(3) == 0).then(|| Halt {
                at_cycle: rng.next_u64(),
                node: rng.next_u64() as u32,
                step: rng.next_u64(),
                particle: (rng.next_below(2) == 0).then(|| rng.next_u64() as u32),
            }),
            idle_from: rng.next_u64(),
            never_from: (rng.next_below(2) == 0).then(|| rng.next_u64()),
            horizon: rng.next_u64(),
            generated: rng.next_u64(),
            skipped: spans(rng),
            lost: spans(rng),
            obs: Vec::new(),
        };
        let events = (0..rng.next_below(6))
            .map(|_| ack(rng.next_u64(), rng.next_u64() as u32, rng.next_u64() as u32, rng.next_u64()))
            .collect();
        (notes, events)
    }

    #[test]
    fn window_frame_decode_survives_truncation_bit_flips_and_count_bombs() {
        let mut rng = XorShift64Star::new(0x5EED_F00D);
        for case in 0..256 {
            let (notes, events) = sample_frame(&mut rng);
            let bytes = MeshFrame::encode_window(&notes, events.iter());
            let MeshFrame { notes: n, events: e } = MeshFrame::decode(&bytes).expect("round trip");
            assert_eq!(n, notes, "case {case}");
            assert_eq!(e.len(), events.len(), "case {case}");
            for (got, want) in e.iter().zip(&events) {
                assert_eq!(
                    (got.cycle, got.stage, got.src, got.dst, got.arrive, got.extra),
                    (want.cycle, want.stage, want.src, want.dst, want.arrive, want.extra)
                );
            }

            // Every strict prefix is an error, never a panic and never a
            // shorter frame mistaken for a whole one.
            let cut = rng.next_below(bytes.len() as u64) as usize;
            match MeshFrame::decode(&bytes[..cut]) {
                Err(CkptError::Truncated { .. } | CkptError::Malformed { .. }) => {}
                other => panic!("case {case}: prefix of {cut} bytes decoded to {other:?}"),
            }
            // Trailing garbage is refused too.
            let mut longer = bytes.clone();
            longer.push(rng.next_u64() as u8);
            assert!(matches!(MeshFrame::decode(&longer), Err(CkptError::Malformed { .. })));

            // An event count the payload cannot hold is refused before
            // anything is reserved for it — whatever the claimed size.
            // (The count is the last word of an event-less frame.)
            let count_at = MeshFrame::encode_window(&notes, [].iter()).len() - 8;
            for bomb in [events.len() as u64 + 1, 1 << 40, u64::MAX] {
                let mut bad = bytes.clone();
                bad[count_at..count_at + 8].copy_from_slice(&bomb.to_le_bytes());
                match MeshFrame::decode(&bad) {
                    Err(CkptError::Truncated { .. } | CkptError::Malformed { .. }) => {}
                    other => panic!("case {case}: count {bomb} decoded to {other:?}"),
                }
            }

            // A bit flipped on the wire never reaches the decoder: the
            // link's CRC framing catches it.
            let mut framed = Vec::new();
            fasda_ckpt::frame::write_frame(&mut framed, &bytes);
            let bit = rng.next_below(bytes.len() as u64 * 8) as usize;
            framed[fasda_ckpt::frame::HEADER_BYTES + bit / 8] ^= 1 << (bit % 8);
            let mut rd = &framed[..];
            match fasda_ckpt::frame::read_frame_from(&mut rd, FRAME) {
                Err(CkptError::CrcMismatch { .. }) => {}
                other => panic!("case {case}: flipped frame read as {other:?}"),
            }
        }
    }

    // ---------------------------------------------------------------------
    // Hostile control frames
    // ---------------------------------------------------------------------

    /// One seeded control frame of every kind: run, a segment result,
    /// shutdown, a beat and every failure arm.
    fn sample_ctl_frames(rng: &mut XorShift64Star) -> Vec<CtlFrame> {
        let text = |rng: &mut XorShift64Star| format!("{:x}", rng.next_u64() >> rng.next_below(64));
        let few = |rng: &mut XorShift64Star| 0..rng.next_below(4);
        let gauges = |rng: &mut XorShift64Star| ShardGauges {
            windows: rng.next_u64(),
            events_sent: rng.next_u64(),
            frame_bytes: rng.next_u64(),
            compute_ns: rng.next_u64(),
            wait_ns: rng.next_u64(),
        };
        let share = SegmentShare {
            end_cycle: rng.next_u64(),
            skipped: rng.next_u64(),
            records: few(rng)
                .map(|_| NodeStepReport {
                    node: rng.next_below(8) as usize,
                    step: rng.next_u64(),
                    force_cycles: rng.next_u64(),
                    mu_cycles: rng.next_u64(),
                    wall_end: rng.next_u64(),
                })
                .collect(),
            stats: StatSet::new(),
            traffic: few(rng).map(|_| TrafficCounters::default()).collect(),
            tallies: Tallies(std::array::from_fn(|_| rng.next_u64())),
        };
        let ok = SegmentOk {
            share,
            trace: (rng.next_below(2) == 0).then(|| TraceShard {
                level: Some(TraceLevel::Sync),
                nodes: vec![NodeStream { events: Vec::new(), dropped: rng.next_u64() }],
                engine: NodeStream::default(),
                stalls: StallLedger::new(1),
            }),
            gauges: gauges(rng),
            container: few(rng).map(|_| rng.next_u64() as u8).collect(),
        };
        let beat = few(rng)
            .map(|_| ObsDelta {
                worker: rng.next_u64() as u32,
                boundary: rng.next_u64(),
                cycle: rng.next_u64(),
                productive: rng.next_u64(),
                stalls: std::array::from_fn(|_| rng.next_u64()),
                retransmits: rng.next_u64(),
                gauges: gauges(rng),
            })
            .collect();
        let fails = [
            SegmentFail::Link(text(rng)),
            SegmentFail::Lookahead(LookaheadViolation {
                src: rng.next_u64() as u32,
                dst: rng.next_u64() as u32,
                sent: rng.next_u64(),
                due: rng.next_u64(),
                clock: rng.next_u64(),
            }),
            SegmentFail::Cluster(
                ClusterStalled {
                    at_cycle: rng.next_u64(),
                    node_states: few(rng).map(|_| (rng.next_u64(), text(rng))).collect(),
                    packets_lost: rng.next_u64(),
                }
                .into(),
            ),
            SegmentFail::Cluster(
                DeadlockDetected {
                    at_cycle: rng.next_u64(),
                    starving: few(rng)
                        .map(|_| (rng.next_below(8) as usize, rng.next_u64(), text(rng)))
                        .collect(),
                    packets_lost: rng.next_u64(),
                    outages: few(rng).map(|_| text(rng)).collect(),
                }
                .into(),
            ),
            SegmentFail::Cluster(
                CrashInjected {
                    at_cycle: rng.next_u64(),
                    node: rng.next_below(8) as usize,
                    step: rng.next_u64(),
                    packets_lost: rng.next_u64(),
                }
                .into(),
            ),
        ];
        let mut frames = vec![
            CtlFrame::Run { target: rng.next_u64(), budget: rng.next_u64() },
            CtlFrame::Done(Box::new(ok)),
            CtlFrame::Shutdown,
            CtlFrame::Beat(beat),
        ];
        frames.extend(fails.into_iter().map(CtlFrame::Fail));
        frames
    }

    #[test]
    fn control_frame_decode_survives_truncation_and_trailing_bytes() {
        let mut rng = XorShift64Star::new(0xC7_F0_0D);
        for case in 0..64 {
            for (kind, frame) in sample_ctl_frames(&mut rng).into_iter().enumerate() {
                let ctx = format!("case {case}, frame kind {kind}");
                let bytes = frame.encode();
                let again = match CtlFrame::decode(&bytes) {
                    Ok(f) => f.encode(),
                    Err(e) => panic!("{ctx}: round trip failed: {e}"),
                };
                assert_eq!(again, bytes, "{ctx}: round trip changed the frame");

                // Every strict prefix is an error, never a panic and never
                // a shorter frame mistaken for a whole one.
                for cut in 0..bytes.len() {
                    match CtlFrame::decode(&bytes[..cut]) {
                        Err(CkptError::Truncated { .. } | CkptError::Malformed { .. }) => {}
                        Err(e) => panic!("{ctx}: prefix of {cut} bytes failed untyped: {e}"),
                        Ok(_) => panic!("{ctx}: prefix of {cut} bytes decoded"),
                    }
                }
                // Trailing garbage is refused too.
                let mut longer = bytes;
                longer.push(rng.next_u64() as u8);
                assert!(
                    matches!(CtlFrame::decode(&longer), Err(CkptError::Malformed { .. })),
                    "{ctx}: a trailing byte was accepted"
                );
            }
        }
    }

    // ---------------------------------------------------------------------
    // Worker death is typed and bounded
    // ---------------------------------------------------------------------

    /// A link that dies on cue: once the shared fuse burns down, every
    /// operation fails and the carrier underneath is dropped — to the
    /// peer, exactly what a worker that died looks like.
    struct DoomedLink {
        inner: Option<Box<dyn FrameLink>>,
        /// Mesh receives the worker may still complete.
        fuse: Arc<AtomicI64>,
        mesh: bool,
    }

    impl DoomedLink {
        fn live(&mut self) -> Result<&mut Box<dyn FrameLink>, LinkError> {
            if self.fuse.load(Ordering::SeqCst) < 0 {
                self.inner = None;
            }
            self.inner.as_mut().ok_or_else(|| LinkError::Io("worker killed".into()))
        }
    }

    impl FrameLink for DoomedLink {
        fn send_frame(&mut self, payload: &[u8]) -> Result<(), LinkError> {
            self.live()?.send_frame(payload)
        }
        fn recv_frame(&mut self) -> Result<Vec<u8>, LinkError> {
            if self.mesh && self.fuse.fetch_sub(1, Ordering::SeqCst) <= 0 {
                self.inner = None;
            }
            self.live()?.recv_frame()
        }
    }

    /// Run 2 steps on `shards` workers with worker `victim` dying after
    /// `fuse` mesh receives; the run must end — every survivor included
    /// — well inside the timeout.
    fn run_with_death(shards: usize, victim: usize, fuse: i64) -> Result<ShardedRun, ShardError> {
        let (tx, rx) = mpsc::channel();
        let harness = std::thread::spawn(move || {
            let fuse = Arc::new(AtomicI64::new(fuse));
            // Control links are wrapped first, then the mesh row.
            let seen = std::sync::Mutex::new(vec![0usize; shards]);
            let wrap = move |w: usize, link: Box<dyn FrameLink>| -> Box<dyn FrameLink> {
                let mut seen = seen.lock().expect("wrap counter");
                seen[w] += 1;
                if w != victim {
                    return link;
                }
                Box::new(DoomedLink { inner: Some(link), fuse: fuse.clone(), mesh: seen[w] > 1 })
            };
            // `run_harness` joins every worker thread before returning,
            // so a result here means the survivors have exited too.
            let res = run_harness(
                &config(),
                &workload(),
                2,
                &EngineConfig::auto(),
                shards,
                ShardOpts::default(),
                &wrap,
            );
            let _ = tx.send(res);
        });
        let res = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a dead worker must not wedge the fleet");
        harness.join().expect("harness thread");
        res
    }

    #[test]
    fn a_dead_worker_fails_the_run_typed_naming_it_and_frees_the_survivors() {
        // A clean run tells how many rounds there are to die in.
        let clean = run_with_death(2, 1, i64::MAX).expect("nobody dies");
        let rounds = clean.gauges[1].windows as i64;
        assert!(rounds > 8, "expected a multi-window run, got {rounds} rounds");
        // Before the first window, mid-run, and in the tail / flush
        // rounds of the last segment.
        for (shards, victim) in [(2usize, 1usize), (2, 0), (4, 2)] {
            let peers = shards as i64 - 1;
            for fuse in [0, rounds * peers / 2, rounds * peers - 1] {
                match run_with_death(shards, victim, fuse) {
                    Err(ShardError::Worker(msg)) => assert!(
                        msg.contains(&format!("worker {victim}")),
                        "{shards} shards, fuse {fuse}: error does not name worker {victim}: {msg}"
                    ),
                    Err(other) => panic!("{shards} shards, fuse {fuse}: untyped failure {other}"),
                    Ok(_) => panic!("{shards} shards, fuse {fuse}: run survived a dead worker"),
                }
            }
        }
    }
}
