//! The cluster driver: chips + packetizers + fabric + synchronization.

use crate::obs::ObsShard;
use crate::report::{ClusterRunReport, NodeStepReport, RelSummary};
use crate::wire::{Cargo, Delivery, NetMsg};
use fasda_core::config::ChipConfig;
use fasda_core::datapath::ForceDatapath;
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::timed::ring::{FrcFlit, MigFlit, PosFlit};
use fasda_core::timed::{ForceActivity, TimedChip, TrafficCounters};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_net::encap::Packetizer;
use fasda_net::fault::{CrashPoint, FaultChannel, FaultOutcome, FaultPlan, FaultState};
use fasda_net::packet::{Packet, PacketKind};
use fasda_net::reliable::{Accept, LinkReceiver, LinkSender, RelConfig};
use fasda_net::switch::SwitchFabric;
use fasda_net::sync::{BulkBarrier, ChainedSync, SyncMode};
use fasda_net::topology::Topology;
use fasda_sim::{MessageQueue, StatSet};
use fasda_trace::{
    ChannelId, EventKind, NodeRecorder, PhaseId, StallCause, StallLedger, Trace, TraceConfig,
    TraceLevel,
};
use std::collections::BTreeMap;

/// Safety cap on the global cycle loop — the one cycle budget every run
/// path (CLI, service, host controller, sharded engine, benches) hands
/// to [`Cluster::try_run_with`].
pub const MAX_RUN_CYCLES: u64 = 2_000_000_000;

/// Idle-streak length between deadlock scans under the oracle (the fast
/// engine detects deadlock through its fast-forward event scan).
/// The scan is O(nodes · peers); every 256 idle cycles it is noise.
pub(crate) const DEADLOCK_SCAN_INTERVAL: u64 = 256;

/// How the cluster's cycle loop is executed. There are exactly two
/// engines — the serial oracle ([`EngineConfig::serial`]) and the fast
/// engine ([`EngineConfig::auto`]) — and they produce bit-identical
/// [`ClusterRunReport`]s, per-node traces, stall ledgers and checkpoint
/// bytes; the engine only changes how fast wall-clock time passes (see
/// `DESIGN.md` §5). The simulator's one parallelism mechanism is the
/// lookahead-window protocol of the `shard` module, whose grain — a node
/// range behind a wire — matches the decoupled FPGAs the model
/// describes: the fast engine runs it on scoped threads of the calling
/// process whenever the host has the cores and the run admits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// `false`: the oracle — every cycle simulated, plain per-cycle
    /// interpretation. `true`: the fast engine — idle fast-forward (jump
    /// the global clock over spans in which provably nothing can happen),
    /// the per-node quiescence cache, the chips' fast-path execution
    /// (idle-SPE skipping, precomputed station scans) and the fused SoA
    /// scan kernel, all proven bit-identical to the oracle.
    pub(crate) fast: bool,
    /// Flight-recorder configuration (see `fasda-trace`). Off by
    /// default; with tracing on, both engines emit byte-identical
    /// per-node event streams and stall ledgers, retrieved with
    /// [`Cluster::take_trace`] after the run.
    pub trace: TraceConfig,
    /// Emit a live telemetry heartbeat every N completed steps (0 =
    /// off). The sinks (JSONL stream, Prometheus scrape file) are
    /// runtime attachments — see [`Cluster::attach_obs`] for in-process
    /// runs (which beat on their writer's cadence) and `ShardOpts::obs`
    /// for sharded ones; this knob is the cadence a sharded run's
    /// workers, which hold no writer, beat on. Heartbeats read the live
    /// stall ledger, so the host enables at least `TraceLevel::Sync`
    /// alongside.
    pub heartbeat_every: u64,
    /// Fast engine only: how many threads may run the lookahead-window
    /// protocol in-process (0 = the host's available parallelism; 1 =
    /// the one-thread cycle loop). See [`EngineConfig::with_threads`].
    threads: usize,
}

impl EngineConfig {
    /// The serial reference engine every test compares against: every
    /// cycle simulated, every CBB, PE and ring node visited every cycle
    /// (asserting that what the fast engine's masks would skip is a
    /// no-op), scalar per-comparison filters.
    pub const fn serial() -> Self {
        EngineConfig { fast: false, trace: TraceConfig::OFF, heartbeat_every: 0, threads: 1 }
    }

    /// The fast engine: idle fast-forward, the quiescence cache, the
    /// mask-driven chip tick and the fused SoA scan — and, on a host with
    /// at least two cores, the lookahead-window protocol on
    /// `min(cores, nodes)` scoped threads for every run that admits it
    /// (chained sync), heartbeats included. Used by the CLI unless
    /// `--serial` is given.
    pub const fn auto() -> Self {
        EngineConfig { fast: true, trace: TraceConfig::OFF, heartbeat_every: 0, threads: 0 }
    }

    /// Run the fast engine on exactly `threads` window workers
    /// (`min(threads, nodes)`), whatever the host's core count, instead of
    /// one per core: `with_threads(1)` is the one-thread cycle loop, and
    /// the job daemon hands each job its share of the cores this way.
    /// The oracle ([`EngineConfig::serial`]) always runs on one thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Window workers a run over `nodes` nodes gets: 1 means the
    /// one-thread loop.
    pub(crate) fn window_workers(&self, nodes: usize) -> usize {
        if !self.fast {
            return 1;
        }
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |c| c.get()),
            t => t,
        };
        threads.min(nodes)
    }

    /// Set the flight-recorder configuration for the run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Set the heartbeat cadence (completed steps between live
    /// telemetry snapshots; 0 = off).
    pub fn with_heartbeat_every(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Configuration of a multi-FPGA run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-chip architecture configuration.
    pub chip: ChipConfig,
    /// Cells per chip along each axis.
    pub block: (u32, u32, u32),
    /// Synchronization strategy (§4.4).
    pub sync: SyncMode,
    /// Inter-node topology (§4.1).
    pub topology: Topology,
    /// Port bandwidth, bits per cycle (paper: 500 = 100 Gbps @ 200 MHz).
    pub bits_per_cycle: f64,
    /// Packet-departure cooldown in cycles (§5.4).
    pub packet_cooldown: u32,
    /// Timestep in femtoseconds.
    pub dt_fs: f64,
    /// Optional straggler injection: `(node, stall_cycles)` delays that
    /// node's force phase every step (ablation for §4.4).
    pub straggler: Option<(usize, u64)>,
    /// Optional seeded link-fault schedule (drop / corrupt / duplicate /
    /// delay + targeted marker kills) applied at transmit time in the
    /// serial network phase — deterministic and engine-invariant.
    pub faults: Option<FaultPlan>,
    /// Optional reliable-delivery layer: per-link sequence numbers,
    /// cumulative acks, and timeout retransmission. With it on, chained
    /// sync converges under any finite fault schedule; with it off, a
    /// lost marker deadlocks the run (detected, not spun — see
    /// [`DeadlockDetected`]).
    pub reliability: Option<RelConfig>,
}

impl ClusterConfig {
    /// The paper's testbed setup for a given chip config and block.
    pub fn paper(chip: ChipConfig, block: (u32, u32, u32)) -> Self {
        ClusterConfig {
            chip,
            block,
            sync: SyncMode::Chained,
            topology: Topology::PAPER_SWITCH,
            bits_per_cycle: SwitchFabric::PAPER_BITS_PER_CYCLE,
            packet_cooldown: 2,
            dt_fs: 2.0,
            straggler: None,
            faults: None,
            reliability: None,
        }
    }

    /// Attach a seeded fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable the reliable-delivery layer.
    pub fn with_reliability(mut self, rel: RelConfig) -> Self {
        self.reliability = Some(rel);
        self
    }
}

/// A cluster run that failed to make progress within its cycle budget —
/// e.g. a lost packet starving the chained synchronization.
#[derive(Clone, Debug)]
pub struct ClusterStalled {
    /// Cycle at which the run gave up.
    pub at_cycle: u64,
    /// Per-node `(step, phase)` snapshot at the stall.
    pub node_states: Vec<(u64, String)>,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
}

impl std::fmt::Display for ClusterStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster stalled at cycle {} ({} packets lost); node states: {:?}",
            self.at_cycle, self.packets_lost, self.node_states
        )
    }
}

impl std::error::Error for ClusterStalled {}

/// A provable deadlock: every node quiescent, nothing scheduled on any
/// fabric, inbox, packetizer, barrier, or retransmission timer — the
/// cluster can never make progress again. The classic cause is a lost
/// `last` marker with the reliability layer off (§4.4).
#[derive(Clone, Debug)]
pub struct DeadlockDetected {
    /// Cycle at which the deadlock was proven.
    pub at_cycle: u64,
    /// Nodes still waiting: `(node, step, phase)`.
    pub starving: Vec<(usize, u64, String)>,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
    /// Flap/partition directives that latched before the deadlock —
    /// the diagnosis that separates "a partition starved the cluster"
    /// from an organic lost-marker deadlock. A window that already
    /// healed still appears: its cut traffic may be what starved us.
    pub outages: Vec<String>,
}

impl std::fmt::Display for DeadlockDetected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster deadlocked at cycle {} ({} packets lost); starving nodes:",
            self.at_cycle, self.packets_lost
        )?;
        for (node, step, phase) in &self.starving {
            write!(f, " node {node} at step {step} in {phase};")?;
        }
        if !self.outages.is_empty() {
            write!(f, " diagnosed outages: {};", self.outages.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockDetected {}

/// A scheduled crash fired: the fault plan's `crash=NODE@STEP` directive
/// killed the run while the named node was mid-way through the step's
/// force phase. Unlike a stall or deadlock this is an *injected*
/// failure — the recovery path restores the cluster from its latest
/// checkpoint and re-runs from there (see the `ckpt` module).
#[derive(Clone, Debug)]
pub struct CrashInjected {
    /// Cycle at which the crash fired.
    pub at_cycle: u64,
    /// The node that "died".
    pub node: usize,
    /// Timestep the node was executing.
    pub step: u64,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
}

impl std::fmt::Display for CrashInjected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} crashed at cycle {} during step {} ({} packets lost); \
             recover by resuming from the latest checkpoint",
            self.node, self.at_cycle, self.step, self.packets_lost
        )
    }
}

impl std::error::Error for CrashInjected {}

/// A motion update moved a particle further than the chips' fixed-point
/// offset grid (`Q5.26`, ±32 cells) can hold: the system is too dense or
/// too hot for the datapath. The run fails here instead of saturating
/// the position into a wrong one.
#[derive(Clone, Debug)]
pub struct MotionOverflow {
    /// Cycle whose motion-update tick retired the particle.
    pub at_cycle: u64,
    /// The node that owns the particle.
    pub node: usize,
    /// Timestep of the motion update.
    pub step: u64,
    /// Stable id of the particle.
    pub particle: u32,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
}

impl std::fmt::Display for MotionOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} step {}: particle {} moved outside the Q5.26 offset range in its motion \
             update at cycle {} ({} packets lost); the system is too dense or too hot for the \
             fixed-point datapath",
            self.node, self.step, self.particle, self.at_cycle, self.packets_lost
        )
    }
}

impl std::error::Error for MotionOverflow {}

/// Why a fallible cluster run did not complete.
#[derive(Clone, Debug)]
pub enum ClusterError {
    /// The cycle budget ran out before all steps finished.
    Stalled(ClusterStalled),
    /// The run can provably never finish (e.g. a lost sync marker with
    /// reliability off).
    Deadlock(DeadlockDetected),
    /// A `crash=NODE@STEP` fault directive killed the run mid-step.
    Crashed(CrashInjected),
    /// A particle's displacement left the fixed-point offset range.
    Overflow(MotionOverflow),
}

impl ClusterError {
    /// Packets lost by the fabrics when the run gave up.
    pub fn packets_lost(&self) -> u64 {
        match self {
            ClusterError::Stalled(s) => s.packets_lost,
            ClusterError::Deadlock(d) => d.packets_lost,
            ClusterError::Crashed(c) => c.packets_lost,
            ClusterError::Overflow(o) => o.packets_lost,
        }
    }

    /// Cycle at which the run gave up.
    pub fn at_cycle(&self) -> u64 {
        match self {
            ClusterError::Stalled(s) => s.at_cycle,
            ClusterError::Deadlock(d) => d.at_cycle,
            ClusterError::Crashed(c) => c.at_cycle,
            ClusterError::Overflow(o) => o.at_cycle,
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Stalled(s) => s.fmt(f),
            ClusterError::Deadlock(d) => d.fmt(f),
            ClusterError::Crashed(c) => c.fmt(f),
            ClusterError::Overflow(o) => o.fmt(f),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CrashInjected> for ClusterError {
    fn from(c: CrashInjected) -> Self {
        ClusterError::Crashed(c)
    }
}

impl From<MotionOverflow> for ClusterError {
    fn from(o: MotionOverflow) -> Self {
        ClusterError::Overflow(o)
    }
}

impl From<ClusterStalled> for ClusterError {
    fn from(s: ClusterStalled) -> Self {
        ClusterError::Stalled(s)
    }
}

impl From<DeadlockDetected> for ClusterError {
    fn from(d: DeadlockDetected) -> Self {
        ClusterError::Deadlock(d)
    }
}

/// Per-node execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodePhase {
    Force,
    /// Waiting at the bulk barrier before entering MU.
    BarrierBeforeMu,
    Mu,
    /// Waiting at the bulk barrier before the next step's force phase.
    BarrierBeforeForce,
    Done,
}

/// Outcome of the fast-forward scan (see [`Cluster::try_run_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NextEvent {
    /// Some chip still has local work: every cycle matters.
    Busy,
    /// All nodes quiescent; the next state change is at this cycle.
    At(u64),
    /// All nodes quiescent and nothing scheduled: deadlock.
    Never,
}

#[derive(Clone, Debug)]
pub(crate) struct NodeState {
    pub(crate) step: u64,
    pub(crate) phase: NodePhase,
    pub(crate) phase_start: u64,
    pub(crate) force_cycles: u64,
    pub(crate) last_pos_flushed: bool,
    pub(crate) mig_flushed: bool,
    pub(crate) barrier_release: Option<u64>,
}

/// Channel index for the per-node reliability link maps (pos, frc, mig).
#[inline]
pub(crate) fn chan_index(kind: PacketKind) -> usize {
    match kind {
        PacketKind::Position => 0,
        PacketKind::Force => 1,
        PacketKind::Migration => 2,
    }
}

#[inline]
pub(crate) fn chan_of(kind: PacketKind) -> FaultChannel {
    match kind {
        PacketKind::Position => FaultChannel::Pos,
        PacketKind::Force => FaultChannel::Frc,
        PacketKind::Migration => FaultChannel::Mig,
    }
}

#[inline]
pub(crate) fn channel_id(kind: PacketKind) -> ChannelId {
    match kind {
        PacketKind::Position => ChannelId::Pos,
        PacketKind::Force => ChannelId::Frc,
        PacketKind::Migration => ChannelId::Mig,
    }
}

/// Runtime state of the reliable-delivery layer: one
/// [`LinkSender`]/[`LinkReceiver`] pair per *(node, channel, peer)*
/// link, created lazily on first use. All mutations happen in the
/// serial network/delivery phases, so the state (and everything derived
/// from it — stall classes, retransmit deadlines) is engine-invariant.
#[derive(Clone, Debug)]
pub(crate) struct RelState {
    cfg: RelConfig,
    /// `tx[node][channel][peer]` — outbound link senders.
    pub(crate) tx: Vec<[BTreeMap<usize, LinkSender<Delivery>>; 3]>,
    /// `rx[node][channel][peer]` — inbound link receivers.
    pub(crate) rx: Vec<[BTreeMap<usize, LinkReceiver<Delivery>>; 3]>,
    /// Cumulative acks put on the fabric.
    pub(crate) acks_sent: u64,
    /// Corrupted frames discarded at receivers (checksum failures).
    pub(crate) corrupt_dropped: u64,
    /// Per node: the earliest retransmission deadline over its outbound
    /// links (`u64::MAX`: none), kept up to date by every launch, ack and
    /// retransmission, so a poll of it is one load.
    due: Vec<u64>,
}

impl RelState {
    fn new(cfg: RelConfig, nodes: usize) -> Self {
        RelState {
            cfg,
            tx: (0..nodes).map(|_| Default::default()).collect(),
            rx: (0..nodes).map(|_| Default::default()).collect(),
            acks_sent: 0,
            corrupt_dropped: 0,
            due: vec![u64::MAX; nodes],
        }
    }

    #[inline]
    fn sender(&mut self, node: usize, kind: PacketKind, peer: usize) -> &mut LinkSender<Delivery> {
        let cfg = self.cfg;
        self.tx[node][chan_index(kind)]
            .entry(peer)
            .or_insert_with(|| LinkSender::new(cfg))
    }

    /// Launch `d` on `node`'s link to `peer` at `now`; returns its
    /// sequence number.
    #[inline]
    fn launch(&mut self, node: usize, kind: PacketKind, peer: usize, now: u64, d: Delivery) -> u32 {
        let link = self.sender(node, kind, peer);
        let seq = link.launch(now, d);
        let head = link.next_retx_due().expect("a launched packet is unacked");
        self.due[node] = self.due[node].min(head);
        seq
    }

    /// A cumulative ack from `peer` reached `node` at `now`.
    #[inline]
    fn on_ack(&mut self, node: usize, kind: PacketKind, peer: usize, now: u64, seq: u32) {
        self.sender(node, kind, peer).on_ack(now, seq);
        self.refresh(node);
    }

    /// Re-derive `node`'s earliest deadline from its links (after an ack
    /// or a retransmission moved a head, or a restore).
    #[inline]
    fn refresh(&mut self, node: usize) {
        let links = self.tx[node].iter().flat_map(|links| links.values());
        self.due[node] = links.filter_map(LinkSender::next_retx_due).min().unwrap_or(u64::MAX);
    }

    fn receiver(
        &mut self,
        node: usize,
        kind: PacketKind,
        peer: usize,
    ) -> &mut LinkReceiver<Delivery> {
        self.rx[node][chan_index(kind)].entry(peer).or_default()
    }

    /// Earliest retransmission deadline across one node's outbound links.
    #[inline]
    fn next_retx_due(&self, node: usize) -> Option<u64> {
        (self.due[node] != u64::MAX).then_some(self.due[node])
    }

    /// Whether any of the node's outbound links is actively
    /// retransmitting (head packet has ≥ 1 failed attempt).
    #[inline]
    fn retransmitting(&self, node: usize) -> bool {
        self.tx[node]
            .iter()
            .flat_map(|links| links.values())
            .any(LinkSender::retransmitting)
    }

    /// Whether any of the node's outbound links has unacked packets.
    #[inline]
    fn inflight(&self, node: usize) -> bool {
        self.tx[node]
            .iter()
            .flat_map(|links| links.values())
            .any(|s| s.inflight() > 0)
    }

    pub(crate) fn total_retransmits(&self) -> u64 {
        self.tx
            .iter()
            .flat_map(|n| n.iter())
            .flat_map(|links| links.values())
            .map(|s| s.retransmits)
            .sum()
    }

    pub(crate) fn total_duplicates(&self) -> u64 {
        self.rx
            .iter()
            .flat_map(|n| n.iter())
            .flat_map(|links| links.values())
            .map(|r| r.duplicates)
            .sum()
    }
}

/// Dense Eq.-7 node id of a chip coordinate over a node grid.
#[inline]
fn node_id(grid: (u32, u32, u32), c: ChipCoord) -> usize {
    ((c.x * grid.1 + c.y) * grid.2 + c.z) as usize
}

/// The multi-FPGA FASDA system.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) global: SimulationSpace,
    /// One timed chip per node, indexed in Eq.-7 order over the node
    /// grid.
    pub chips: Vec<TimedChip>,
    pub(crate) node_coord: Vec<ChipCoord>,
    /// Node grid dimensions; node ids are dense in Eq.-7 order, so the
    /// coordinate → node mapping is pure arithmetic (no hash lookup on
    /// the per-cycle path).
    grid: (u32, u32, u32),
    pub(crate) sync: Vec<ChainedSync<usize>>,
    pub(crate) pos_pz: Vec<Packetizer<usize, PosFlit>>,
    pub(crate) frc_pz: Vec<Packetizer<usize, FrcFlit>>,
    pub(crate) mig_pz: Vec<Packetizer<usize, MigFlit>>,
    /// Position-port fabric (positions + migration).
    pub pos_fabric: SwitchFabric,
    /// Force-port fabric.
    pub frc_fabric: SwitchFabric,
    pub(crate) inbox: Vec<MessageQueue<NetMsg>>,
    /// Seeded fault injection (None = clean fabric).
    pub(crate) faults: Option<FaultState>,
    /// Reliable-delivery layer (None = raw UDP semantics).
    pub(crate) rel: Option<RelState>,
    pub(crate) state: Vec<NodeState>,
    pub(crate) stalls: Vec<u64>,
    pub(crate) barrier_mu: BulkBarrier,
    pub(crate) barrier_force: BulkBarrier,
    /// Global wall-clock cycle.
    pub cycle: u64,
    /// Cycles the fast engine jumped over instead of simulating (always
    /// 0 under the oracle; cycle counts are unaffected).
    pub skipped_cycles: u64,
    /// Per-node quiescence cache (fast engine only): `quiet[n]`
    /// means node `n`'s chip was observed locally idle and nothing has
    /// been injected into it since, so its O(CBBs) idle predicates need
    /// not be re-evaluated every cycle. Invalidated on every phase
    /// transition and every fabric delivery into the node.
    quiet: Vec<bool>,
    /// Whether the current run maintains (and may trust) `quiet`.
    use_quiet: bool,
    pub(crate) records: Vec<NodeStepReport>,
    /// Flight-recorder configuration of the current/last run.
    pub(crate) trace_cfg: TraceConfig,
    /// Hot-path gate: `trace_cfg.level != Off` for the current run.
    pub(crate) tracing: bool,
    /// Engine-level event stream (fast-forward jumps) — deliberately
    /// separate from the per-node streams, which stay byte-identical
    /// across engines.
    pub(crate) tr_engine: NodeRecorder,
    /// Per-(node, step) force-phase stall attribution.
    pub(crate) tr_stalls: StallLedger,
    /// Which chips ticked in the current compute phase (tracing only);
    /// engine-invariant because a `quiet`-skipped chip is idle and would
    /// not have ticked under the serial reference either.
    ticked: Vec<bool>,
    /// Sharded-engine capture hook. `None` (the default) keeps the
    /// in-process oracle path: sends go straight onto the fabrics and
    /// into destination inboxes. `Some` diverts every wire crossing into
    /// an event buffer for the cross-shard merge — see the
    /// `shard` module and `DESIGN.md` §11.
    pub(crate) exchange: Option<ExchangeBuf>,
    /// Heartbeat writer (see the `obs` module). A runtime attachment
    /// like the trace sinks — never checkpointed, never part of the
    /// simulated state.
    pub(crate) obs: Option<Box<crate::obs::ObsLive>>,
    /// The first motion-update overflow of the cycle being stepped, for
    /// the run loop to fail with (its `packets_lost` is filled in then).
    pub(crate) overflow: Option<MotionOverflow>,
}

/// One captured wire crossing: a data frame or ack that left an owned
/// node's port at global cycle `cycle`. `arrive` is the
/// post-serialization arrival cycle at the destination port (source-side
/// state already advanced); the destination shard completes the send
/// with [`SwitchFabric::rx_admit`] during the merge. `extra` carries a
/// fault layer delay applied *after* port admission, exactly as the
/// oracle adds it after `SwitchFabric::send`.
#[derive(Clone, Debug)]
pub(crate) struct WireEvent {
    pub(crate) cycle: u64,
    pub(crate) stage: u8,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) arrive: u64,
    pub(crate) extra: u64,
    pub(crate) msg: NetMsg,
}

/// Wire-event capture state for one shard worker.
///
/// Each event is stamped with the cycle it was generated in and its
/// generation phase `stage` — 0 for fresh sends in
/// [`Cluster::network_cycle`], 1 for retransmissions, 2 for acks emitted
/// inside [`Cluster::deliver_due`]. The oracle generates events in
/// (cycle, stage, src) order (each phase walks nodes in ascending
/// order), so a stable sort by that key over the concatenated per-shard
/// buffers reproduces the oracle's exact per-inbox admission order —
/// including the destination-port contention trajectory and the inbox
/// sequence numbers that tie-break simultaneous deliveries.
#[derive(Debug)]
pub(crate) struct ExchangeBuf {
    /// Contiguous node range this worker owns.
    pub(crate) owned: std::ops::Range<usize>,
    /// Generation stage stamped onto captured events.
    pub(crate) stage: u8,
    /// Events captured since the last [`Cluster::take_wire_events`].
    pub(crate) events: Vec<WireEvent>,
}

/// A wire event reached its destination shard already overdue: the
/// lookahead window the shards synchronise on was longer than the
/// fabric's real minimum delivery latency. Admitting it anyway would
/// silently reorder deliveries, so the merge refuses
/// ([`crate::ShardError::Lookahead`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookaheadViolation {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Cycle the event was put on the wire.
    pub sent: u64,
    /// Cycle its delivery sweep should have popped it.
    pub due: u64,
    /// The receiving shard's clock at the merge (the first cycle it had
    /// not run yet).
    pub clock: u64,
}

impl std::fmt::Display for LookaheadViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event {}->{} sent at cycle {} was due at {}, but its shard had already run to {}",
            self.src, self.dst, self.sent, self.due, self.clock
        )
    }
}

impl Cluster {
    /// Build the cluster over a simulation space and load the particles.
    pub fn new(cfg: ClusterConfig, sys: &ParticleSystem) -> Self {
        let global = sys.space;
        let probe = ChipGeometry::new(global, cfg.block, ChipCoord::new(0, 0, 0));
        let grid = probe.grid();
        let n = probe.num_chips() as usize;
        assert!(n >= 2, "use TimedChip::run_timestep for single-chip runs");

        // Node ids in Eq.-7 order over the chip grid.
        let mut node_coord = Vec::with_capacity(n);
        for x in 0..grid.0 {
            for y in 0..grid.1 {
                for z in 0..grid.2 {
                    node_coord.push(ChipCoord::new(x, y, z));
                }
            }
        }
        // Match Eq. 7: z fastest — the triple loop above already does
        // x-major / z-fastest ordering, so the node id of a coordinate is
        // dense arithmetic.
        let node_of = |c: &ChipCoord| node_id(grid, *c);
        debug_assert!(node_coord.iter().enumerate().all(|(i, c)| node_of(c) == i));

        // The immutable machine is built once: every chip reads one
        // datapath, and one pass bins each particle to its owning node.
        // Each node's list is ascending, so a chip pushes its CBBs'
        // particles in the order a full-system scan would.
        let dp = ForceDatapath::for_chip(&cfg.chip, sys.units);
        let cell_node: Vec<usize> =
            global.iter_cells().map(|c| node_of(&probe.chip_of_gcell(c))).collect();
        let mut owned = vec![Vec::new(); n];
        for (i, &p) in sys.pos.iter().enumerate() {
            owned[cell_node[global.cell_id(global.cell_of(p)) as usize]].push(i);
        }

        let mut chips = Vec::with_capacity(n);
        let mut sync = Vec::with_capacity(n);
        let mut pos_pz = Vec::with_capacity(n);
        let mut frc_pz = Vec::with_capacity(n);
        let mut mig_pz = Vec::with_capacity(n);
        for (coord, owned) in node_coord.iter().zip(owned) {
            let geo = ChipGeometry::new(global, cfg.block, *coord);
            let mut chip = TimedChip::with_datapath(cfg.chip, geo, sys.units, cfg.dt_fs, dp.clone());
            chip.load_indices(sys, owned);
            let send: Vec<usize> = chip.send_chips.iter().map(node_of).collect();
            let recv: Vec<usize> = chip.recv_chips.iter().map(node_of).collect();
            let s = ChainedSync::new(send, recv);
            pos_pz.push(Packetizer::new(
                PacketKind::Position,
                s.send_peers.clone(),
                cfg.packet_cooldown,
            ));
            frc_pz.push(Packetizer::new(
                PacketKind::Force,
                s.recv_peers.clone(),
                cfg.packet_cooldown,
            ));
            mig_pz.push(Packetizer::new(
                PacketKind::Migration,
                s.mig_peers.clone(),
                cfg.packet_cooldown,
            ));
            sync.push(s);
            chips.push(chip);
        }

        let total: usize = chips.iter().map(TimedChip::num_particles).sum();
        assert_eq!(total, sys.len(), "every particle must land on some chip");

        let bulk_latency = match cfg.sync {
            SyncMode::Bulk { latency } => latency,
            SyncMode::Chained => 0,
        };

        let pos_fabric = SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle);
        let frc_fabric = SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle);
        let faults = cfg
            .faults
            .clone()
            .filter(|p| !p.is_none())
            .map(FaultState::new);
        let rel = cfg.reliability.map(|rc| RelState::new(rc, n));

        Cluster {
            cfg,
            global,
            chips,
            node_coord,
            grid,
            sync,
            pos_pz,
            frc_pz,
            mig_pz,
            pos_fabric,
            frc_fabric,
            inbox: (0..n).map(|_| MessageQueue::new()).collect(),
            faults,
            rel,
            state: vec![
                NodeState {
                    step: 0,
                    phase: NodePhase::Force,
                    phase_start: 0,
                    force_cycles: 0,
                    last_pos_flushed: false,
                    mig_flushed: false,
                    barrier_release: None,
                };
                n
            ],
            stalls: vec![0; n],
            barrier_mu: BulkBarrier::new(n, bulk_latency),
            barrier_force: BulkBarrier::new(n, bulk_latency),
            cycle: 0,
            skipped_cycles: 0,
            quiet: vec![false; n],
            use_quiet: false,
            records: Vec::new(),
            trace_cfg: TraceConfig::OFF,
            tracing: false,
            tr_engine: NodeRecorder::off(),
            tr_stalls: StallLedger::new(n),
            ticked: vec![false; n],
            exchange: None,
            obs: None,
            overflow: None,
        }
    }

    /// Attach a heartbeat writer for the next run(s). Every execution
    /// context of the run samples its own nodes on the writer's cadence
    /// and the writer emits one `beat` per boundary; it is a pure
    /// observer — simulated state and reports are unaffected.
    pub fn attach_obs(&mut self, obs: Box<crate::obs::ObsLive>) {
        self.obs = Some(obs);
    }

    /// Detach the heartbeat writer (e.g. to read its beat count).
    /// Only tests call it: `tests/obs.rs` checks one beat per boundary.
    pub fn take_obs(&mut self) -> Option<Box<crate::obs::ObsLive>> {
        self.obs.take()
    }

    /// A window worker's shell over `owned`: this cluster's
    /// configuration, clock, fabrics, fault layer, reliability tallies
    /// and node states, with hollow chips ([`TimedChip::hollow`]), sync
    /// machines, packetizers, inboxes and reliability lanes in every
    /// slot. [`Cluster::adopt_nodes`] moves the owned nodes' real ones
    /// in, and back out once the segment is over; the shell shares the
    /// chips' datapath and costs a few small allocations per node.
    pub(crate) fn shell(&self, owned: std::ops::Range<usize>) -> Cluster {
        let n = self.num_nodes();
        let cooldown = self.cfg.packet_cooldown;
        fn hollow_pz<T>(n: usize, kind: PacketKind, cooldown: u32) -> Vec<Packetizer<usize, T>> {
            (0..n).map(|_| Packetizer::new(kind, Vec::new(), cooldown)).collect()
        }
        Cluster {
            cfg: self.cfg.clone(),
            global: self.global,
            chips: self.chips.iter().map(TimedChip::hollow).collect(),
            node_coord: self.node_coord.clone(),
            grid: self.grid,
            sync: (0..n).map(|_| ChainedSync::new(Vec::new(), Vec::new())).collect(),
            pos_pz: hollow_pz(n, PacketKind::Position, cooldown),
            frc_pz: hollow_pz(n, PacketKind::Force, cooldown),
            mig_pz: hollow_pz(n, PacketKind::Migration, cooldown),
            pos_fabric: self.pos_fabric.clone(),
            frc_fabric: self.frc_fabric.clone(),
            inbox: (0..n).map(|_| MessageQueue::new()).collect(),
            faults: self.faults.clone(),
            rel: self.rel.as_ref().map(|r| RelState {
                acks_sent: r.acks_sent,
                corrupt_dropped: r.corrupt_dropped,
                ..RelState::new(r.cfg, n)
            }),
            state: self.state.clone(),
            stalls: self.stalls.clone(),
            barrier_mu: self.barrier_mu.clone(),
            barrier_force: self.barrier_force.clone(),
            cycle: self.cycle,
            skipped_cycles: self.skipped_cycles,
            quiet: vec![false; n],
            use_quiet: false,
            records: Vec::new(),
            trace_cfg: TraceConfig::OFF,
            tracing: false,
            tr_engine: NodeRecorder::off(),
            tr_stalls: StallLedger::new(n),
            ticked: vec![false; n],
            exchange: Some(ExchangeBuf { owned, stage: 0, events: Vec::new() }),
            obs: None,
            overflow: None,
        }
    }

    /// Splice the nodes in `owned` from `from` into this cluster: from a
    /// container-restored scratch cluster on the coordinator, and both
    /// ways between a cluster and a worker shell in an in-process
    /// windowed run. Everything per-node moves by swap: chips, sync
    /// machines, packetizers, inboxes, per-node driver state, fabric port
    /// clocks, reliability link maps (which carry the per-link retransmit
    /// / duplicate counters) and fault-plan RNG streams keyed by owned
    /// sources. `from` is taken apart field by field, so a field added to
    /// `Cluster` does not compile until it is placed here: moved, or
    /// named as shared or run-wide.
    pub(crate) fn adopt_nodes(&mut self, from: &mut Cluster, owned: std::ops::Range<usize>) {
        let Cluster {
            chips,
            sync,
            pos_pz,
            frc_pz,
            mig_pz,
            inbox,
            state,
            stalls,
            pos_fabric,
            frc_fabric,
            rel,
            faults,
            // Configuration and geometry, the same on both sides.
            cfg: _,
            global: _,
            node_coord: _,
            grid: _,
            // Bulk-sync barriers: a windowed or sharded run is chained.
            barrier_mu: _,
            barrier_force: _,
            // Run-wide: the clock and tallies every worker agrees on, and
            // what each execution context keeps for itself and hands over
            // through its segment share.
            cycle: _,
            skipped_cycles: _,
            quiet: _,
            use_quiet: _,
            records: _,
            trace_cfg: _,
            tracing: _,
            tr_engine: _,
            tr_stalls: _,
            ticked: _,
            exchange: _,
            obs: _,
            overflow: _,
        } = from;
        for n in owned.clone() {
            std::mem::swap(&mut self.chips[n], &mut chips[n]);
            std::mem::swap(&mut self.sync[n], &mut sync[n]);
            std::mem::swap(&mut self.pos_pz[n], &mut pos_pz[n]);
            std::mem::swap(&mut self.frc_pz[n], &mut frc_pz[n]);
            std::mem::swap(&mut self.mig_pz[n], &mut mig_pz[n]);
            std::mem::swap(&mut self.inbox[n], &mut inbox[n]);
            self.state[n] = state[n].clone();
            self.stalls[n] = stalls[n];
            let (tx, rx) = pos_fabric.port_state(n);
            self.pos_fabric.set_port_state(n, tx, rx);
            let (tx, rx) = frc_fabric.port_state(n);
            self.frc_fabric.set_port_state(n, tx, rx);
            if let (Some(mine), Some(theirs)) = (self.rel.as_mut(), rel.as_mut()) {
                std::mem::swap(&mut mine.tx[n], &mut theirs.tx[n]);
                std::mem::swap(&mut mine.rx[n], &mut theirs.rx[n]);
                std::mem::swap(&mut mine.due[n], &mut theirs.due[n]);
            }
        }
        if let (Some(mine), Some(theirs)) = (self.faults.as_mut(), faults.as_ref()) {
            let owns = move |src: u32| owned.contains(&(src as usize));
            mine.adopt_links_from(theirs, owns);
        }
    }

    /// The node range the current execution context owns: the shard
    /// worker's slice in sharded mode, every node otherwise. All
    /// per-node driver loops iterate this range, which is what lets one
    /// code path serve both the in-process oracle and the shard workers.
    #[inline]
    pub(crate) fn owned_range(&self) -> std::ops::Range<usize> {
        match &self.exchange {
            Some(ex) => ex.owned.clone(),
            None => 0..self.num_nodes(),
        }
    }

    /// Whether every owned node has completed `steps` timesteps.
    pub(crate) fn owned_done(&self, steps: u64) -> bool {
        self.owned_range()
            .all(|n| self.state[n].phase == NodePhase::Done && self.state[n].step >= steps)
    }

    /// Drain the wire events captured since the last call (sharded mode;
    /// empty in oracle mode).
    pub(crate) fn take_wire_events(&mut self) -> Vec<WireEvent> {
        self.exchange
            .as_mut()
            .map_or_else(Vec::new, |ex| std::mem::take(&mut ex.events))
    }

    /// Merge-admit the wire events generated before cycle `before`:
    /// stable-sort `pending` (own captures plus every peer shard's, in
    /// any concatenation order) by (cycle, stage, src) to reconstruct
    /// the oracle's global generation order, then complete
    /// destination-port admission and inbox insertion for the prefix
    /// whose generation cycle every shard has already reported through.
    /// Later events stay in `pending` for the next merge. The caller
    /// routes events by destination owner, so `pending` holds only
    /// events addressed to this shard's nodes.
    ///
    /// Every admitted event must still be deliverable, i.e. due at or
    /// after this shard's clock; one that is not means the shards ran
    /// further ahead of each other than the fabric's minimum latency
    /// allows, and is reported instead of being delivered late.
    pub(crate) fn admit_wire_events(
        &mut self,
        pending: &mut Vec<WireEvent>,
        before: u64,
    ) -> Result<(), LookaheadViolation> {
        pending.sort_by_key(|e| (e.cycle, e.stage, e.src));
        let ready = pending.partition_point(|e| e.cycle < before);
        for e in pending.drain(..ready) {
            let dst = e.dst as usize;
            let kind = match &e.msg {
                NetMsg::Data(d) => d.cargo.kind(),
                NetMsg::Ack { channel, .. } => *channel,
            };
            let due = self.fabric(kind).rx_admit(e.arrive, dst) + e.extra;
            if due < self.cycle {
                return Err(LookaheadViolation {
                    src: e.src,
                    dst: e.dst,
                    sent: e.cycle,
                    due,
                    clock: self.cycle,
                });
            }
            self.inbox[dst].send(due, e.msg);
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.chips.len()
    }

    /// Node coordinates in the logical torus.
    pub fn node_coord(&self, node: usize) -> ChipCoord {
        self.node_coord[node]
    }

    /// Run `steps` timesteps; returns the run report.
    ///
    /// # Panics
    /// If the cluster fails to converge (see [`Cluster::try_run`] for the
    /// non-panicking variant used in failure-injection studies).
    pub fn run(&mut self, steps: u64) -> ClusterRunReport {
        self.run_with(steps, &EngineConfig::serial())
    }

    /// [`Cluster::run`] under an explicit engine configuration.
    pub fn run_with(&mut self, steps: u64, engine: &EngineConfig) -> ClusterRunReport {
        match self.try_run_with(steps, MAX_RUN_CYCLES, engine) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run `steps` timesteps with an explicit cycle budget; returns
    /// `Err(ClusterError)` instead of panicking when progress stops:
    /// [`ClusterError::Stalled`] when the budget ran out, or
    /// [`ClusterError::Deadlock`] when the driver proves no event can
    /// ever fire again (e.g. a lost sync marker with reliability off).
    pub fn try_run(&mut self, steps: u64, cycle_budget: u64) -> Result<ClusterRunReport, ClusterError> {
        self.try_run_with(steps, cycle_budget, &EngineConfig::serial())
    }

    /// [`Cluster::try_run`] under an explicit engine configuration.
    ///
    /// Every global cycle is a *compute phase* — each non-stalled node's
    /// chip ticks one cycle against state frozen at the cycle start,
    /// touching only that chip — followed by an *exchange phase* in node
    /// order: egress drains, packetizer offers and marker flushes, sync
    /// bookkeeping, barrier arrivals and phase transitions, then the
    /// fabric and delivery sweeps. No compute-phase tick observes another
    /// node's same-cycle exchange, which is what lets a shard worker run
    /// the same phases on its node range alone. Under the fast engine,
    /// cycles in which every node is quiescent are skipped by jumping the
    /// clock to the next scheduled event (delivery, packet departure,
    /// barrier release or stall expiry); cycle counts still include the
    /// skipped span. With more than one window worker
    /// ([`EngineConfig::with_threads`]) the fast engine runs these phases
    /// under the lookahead-window protocol on scoped threads instead,
    /// each over a node range, and leaves the cluster exactly as this
    /// loop would. An attached heartbeat writer gets the same beats
    /// either way: this loop samples every node, each window worker its
    /// own range.
    pub fn try_run_with(
        &mut self,
        steps: u64,
        cycle_budget: u64,
        engine: &EngineConfig,
    ) -> Result<ClusterRunReport, ClusterError> {
        assert!(steps > 0);
        if let Some(obs) = &mut self.obs {
            let from = self.state.iter().map(|s| s.step).min().unwrap_or(0);
            obs.begin_run(steps, from, self.cycle);
        }
        // The lookahead-window protocol on scoped threads, whenever the
        // engine has more than one worker for it and the run admits it:
        // chained sync (a bulk barrier is global serial state) and not
        // already inside a window worker.
        let workers = engine.window_workers(self.num_nodes());
        if workers > 1 && self.cfg.sync == SyncMode::Chained && self.exchange.is_none() {
            return crate::shard::run_windowed(self, steps, cycle_budget, engine, workers);
        }
        let run_start = self.cycle;
        self.arm_run(engine);
        // One worker's heartbeat sampler, over every node.
        let nodes = self.num_nodes();
        let mut sampler = ObsShard::new(self.obs.as_ref().map_or(0, |o| o.every()), 0, 1);
        sampler.start(self);
        let mut idle_streak = 0u64;
        // `crash=NODE@STEP` directives: a node "dies" once its force
        // phase for that step is underway. Checked at the cycle-loop top
        // so a run resumed from a checkpoint taken at the step boundary
        // (phase still Done/armed, no force cycle executed yet) does not
        // immediately re-fire; the resume path strips fired directives
        // with `FaultPlan::without_crash`/`without_crash_at` anyway.
        // Several directives may be armed (staggered crashes); if more
        // than one is due on the same cycle, the lowest node fires —
        // the same order the sharded merge resolves concurrent crashes.
        while !self.all_done(steps) {
            if let Some(cp) = self.crash_due() {
                return Err(CrashInjected {
                    at_cycle: self.cycle,
                    node: cp.node as usize,
                    step: cp.step,
                    packets_lost: self.packets_lost(),
                }
                .into());
            }
            let active = self.step_cycle(steps);
            if let Some(o) = self.overflow.take() {
                return Err(MotionOverflow { packets_lost: self.packets_lost(), ..o }.into());
            }
            if let Some(d) = sampler.due(self) {
                self.obs.as_mut().expect("a cadence has a writer").beat(&[d], nodes);
            }
            if self.cycle - run_start >= cycle_budget {
                return Err(self.stalled().into());
            }
            // Deadlock detection for the oracle (the fast engine's
            // fast-forward scan below proves deadlock itself): on a long
            // idle streak — no chip ticked, nothing delivered — scan the
            // event horizon; when nothing is scheduled anywhere, the
            // cluster can provably never progress again.
            if !engine.fast {
                if active {
                    idle_streak = 0;
                } else {
                    idle_streak += 1;
                    if idle_streak.is_multiple_of(DEADLOCK_SCAN_INTERVAL)
                        && matches!(self.next_event_cycle(), NextEvent::Never)
                    {
                        return Err(self.deadlocked().into());
                    }
                }
            }
            // Scan for a jump only on cycles that ticked no chip and
            // delivered nothing: a ticked chip is almost certainly still
            // busy next cycle, and a delivery can enable an exchange
            // action one cycle later. Skipping the scan is always safe —
            // it just declines a jump over cycles that would have been
            // no-ops.
            if engine.fast && !active && !self.all_done(steps) {
                let cap = run_start + cycle_budget;
                match self.next_event_cycle() {
                    NextEvent::Busy => {}
                    NextEvent::At(t) => self.jump_to(t.min(cap)),
                    // Nothing scheduled and nodes still waiting: a true
                    // deadlock (e.g. a lost sync marker) — report it
                    // instead of spinning out the budget.
                    NextEvent::Never => return Err(self.deadlocked().into()),
                }
                if self.cycle >= cap {
                    return Err(self.stalled().into());
                }
            }
        }

        Ok(self.assemble_report(steps, self.cycle - run_start))
    }

    /// The armed `crash=NODE@STEP` directive that fires at the top of
    /// this cycle, if any: its (owned) node is past the first cycle of
    /// that step's force phase. Among concurrently-due directives the
    /// lowest node fires.
    pub(crate) fn crash_due(&self) -> Option<CrashPoint> {
        let owned = self.owned_range();
        let crashes = self.cfg.faults.as_ref().map_or(&[][..], |p| &p.crashes);
        crashes
            .iter()
            .filter(|cp| {
                let node = cp.node as usize;
                owned.contains(&node)
                    && self.state[node].phase == NodePhase::Force
                    && self.state[node].step == cp.step
                    && self.cycle > self.state[node].phase_start
            })
            .min_by_key(|cp| cp.node)
            .copied()
    }

    /// One global cycle over the owned nodes — compute, stall
    /// attribution, exchange, network and delivery sweeps — then advance
    /// the clock. Returns whether the cycle was *active*: some chip
    /// ticked or something was delivered. Shared verbatim by the
    /// in-process loop and the shard workers.
    #[inline]
    pub(crate) fn step_cycle(&mut self, steps: u64) -> bool {
        let stepped = self.compute_phase();
        if self.tracing {
            self.attribute_cycle();
        }
        self.exchange_actions(steps);
        self.network_cycle();
        let delivered = self.deliver_due();
        self.cycle += 1;
        stepped || delivered
    }

    /// Run prologue: reset per-run chip statistics and execution flags,
    /// initialize the flight recorder, and arm every owned node's force
    /// phase for its current step. Extracted from
    /// [`Cluster::try_run_with`] so a shard worker — which arms only the
    /// nodes it owns — executes the identical sequence.
    pub(crate) fn arm_run(&mut self, engine: &EngineConfig) {
        let owned = self.owned_range();
        for node in owned.clone() {
            let chip = &mut self.chips[node];
            chip.reset_stats();
            chip.set_fast_path(engine.fast);
            chip.set_soa_scan(engine.fast);
            chip.set_trace(engine.trace);
        }
        self.trace_cfg = engine.trace;
        self.tracing = engine.trace.level != TraceLevel::Off;
        self.tr_engine = NodeRecorder::new(engine.trace);
        self.swap_ledger();
        self.use_quiet = engine.fast;
        self.quiet.iter_mut().for_each(|q| *q = false);
        self.records.clear();
        for node in owned {
            // A fresh cluster's nodes are `Force` and a segment boundary's
            // `Done`, so no barrier wait ends here.
            debug_assert!(
                matches!(self.state[node].phase, NodePhase::Force | NodePhase::Done),
                "node {node} armed in {:?}",
                self.state[node].phase
            );
            self.enter_next_force(node);
        }
    }

    /// Exchange phase for every owned node: decrement injected stalls,
    /// drain packetizers and flush sync markers, and fire barrier /
    /// phase transitions. Extracted from the [`Cluster::try_run_with`]
    /// cycle loop for reuse by the shard workers; touches only owned
    /// node state, so shard-local execution is oracle-identical.
    pub(crate) fn exchange_actions(&mut self, steps: u64) {
        for node in self.owned_range() {
            if self.stalls[node] > 0 {
                self.stalls[node] -= 1;
                continue;
            }
            match self.state[node].phase {
                NodePhase::Force => self.force_exchange(node),
                NodePhase::Mu => self.mu_exchange(node, steps),
                NodePhase::BarrierBeforeMu => {
                    if self.state[node].barrier_release.is_some_and(|r| self.cycle >= r) {
                        self.enter_mu(node);
                    }
                }
                NodePhase::BarrierBeforeForce => {
                    if self.state[node].barrier_release.is_some_and(|r| self.cycle >= r) {
                        self.enter_next_force(node);
                    }
                }
                NodePhase::Done => {}
            }
        }
    }

    /// Packets lost on the position and force fabrics.
    pub(crate) fn packets_lost(&self) -> u64 {
        self.pos_fabric.packets_lost + self.frc_fabric.packets_lost
    }

    /// The stall as this execution context sees it: the owned nodes'
    /// states — every node in-process, a shard worker's share of the
    /// error otherwise (the coordinator concatenates the shares).
    pub(crate) fn stalled(&self) -> ClusterStalled {
        ClusterStalled {
            at_cycle: self.cycle,
            node_states: self
                .owned_range()
                .map(|n| (self.state[n].step, format!("{:?}", self.state[n].phase)))
                .collect(),
            packets_lost: self.packets_lost(),
        }
    }

    /// The deadlock over the owned nodes, like [`Cluster::stalled`]; the
    /// outages are the directives this context saw latch.
    pub(crate) fn deadlocked(&self) -> DeadlockDetected {
        DeadlockDetected {
            at_cycle: self.cycle,
            starving: self
                .owned_range()
                .filter(|&n| self.state[n].phase != NodePhase::Done)
                .map(|n| (n, self.state[n].step, format!("{:?}", self.state[n].phase)))
                .collect(),
            packets_lost: self.packets_lost(),
            outages: self
                .faults
                .as_ref()
                .map(|f| f.fired_outages())
                .unwrap_or_default(),
        }
    }

    fn all_done(&self, steps: u64) -> bool {
        self.state.iter().all(|s| s.phase == NodePhase::Done && s.step >= steps)
    }

    // ------------------------------------------------------------------

    /// Compute phase: tick every owned chip that has local work, each
    /// against its own state only. Returns whether any chip ticked this
    /// cycle.
    pub(crate) fn compute_phase(&mut self) -> bool {
        let tracing = self.tracing;
        let now = self.cycle;
        if tracing {
            self.ticked.iter_mut().for_each(|t| *t = false);
        }
        let mut stepped = false;
        for node in self.owned_range() {
            if self.stalls[node] > 0 || (self.use_quiet && self.quiet[node]) {
                continue;
            }
            match self.state[node].phase {
                NodePhase::Force => {
                    if !self.chips[node].force_phase_local_idle() {
                        if tracing {
                            self.chips[node].set_trace_now(now);
                            self.ticked[node] = true;
                        }
                        self.chips[node].step_force_cycle();
                        stepped = true;
                    } else if self.use_quiet {
                        self.quiet[node] = true;
                    }
                }
                NodePhase::Mu => {
                    if !self.chips[node].mu_phase_local_idle() || !self.state[node].mig_flushed {
                        if tracing {
                            self.chips[node].set_trace_now(now);
                            self.ticked[node] = true;
                        }
                        self.chips[node].step_mu_cycle();
                        if let Some(particle) = self.chips[node].take_motion_overflow() {
                            let step = self.state[node].step;
                            self.overflow.get_or_insert(MotionOverflow {
                                at_cycle: now,
                                node,
                                step,
                                particle,
                                packets_lost: 0,
                            });
                        }
                        stepped = true;
                    } else if self.use_quiet {
                        self.quiet[node] = true;
                    }
                }
                _ => {}
            }
        }
        stepped
    }

    // ------------------------------------------------------------------
    // Stall attribution (tracing only).

    /// Classify one global cycle for every force-phase node: *productive*
    /// when its chip ticked with a busy PE, otherwise one
    /// [`StallCause`]. Runs between the compute and exchange phases so
    /// injected stalls are observed before their per-cycle decrement, and
    /// skips a node's phase-arming cycle (`cycle == phase_start`) so the
    /// per-step totals sum exactly to the node's recorded `force_cycles`.
    pub(crate) fn attribute_cycle(&mut self) {
        for node in self.owned_range() {
            let st = &self.state[node];
            if st.phase != NodePhase::Force || self.cycle <= st.phase_start {
                continue;
            }
            let step = st.step;
            if self.ticked[node] {
                match self.chips[node].force_activity() {
                    ForceActivity::PeBusy => self.tr_stalls.productive(node, step, 1),
                    ForceActivity::OutputBackpressure => {
                        self.tr_stalls
                            .stall(node, step, StallCause::RingBackpressure, 1);
                    }
                    ForceActivity::InputStarved => {
                        self.tr_stalls
                            .stall(node, step, StallCause::FilterStarved, 1);
                    }
                }
            } else {
                let cause = self.classify_idle(node);
                self.tr_stalls.stall(node, step, cause, 1);
            }
        }
    }

    /// Why a force-phase node whose chip did not tick is idle. Checked in
    /// precedence order: an injected stall freezes the node outright; a
    /// completed sync handshake means the phase transition fires on the
    /// next exchange (drained); packets parked in a packetizer are waiting
    /// out the departure cooldown; an outbound link mid-retransmission
    /// (or merely waiting on acks) pins the wait on the reliability
    /// layer; otherwise the node is drained locally and waiting on a
    /// neighbour's markers or data.
    fn classify_idle(&self, node: usize) -> StallCause {
        if self.stalls[node] > 0 {
            return StallCause::Injected;
        }
        if self.sync[node].force_phase_complete() {
            return StallCause::Drained;
        }
        if self.pos_pz[node].pending() > 0 || self.frc_pz[node].pending() > 0 {
            return StallCause::TxCooldown;
        }
        if let Some(rel) = &self.rel {
            if rel.retransmitting(node) {
                return StallCause::Retransmit;
            }
            if rel.inflight(node) {
                return StallCause::WaitAck;
            }
        }
        StallCause::WaitNeighborSync
    }

    /// Fast-forward attribution: every node is quiescent across the
    /// jumped span and no event fires inside it, so each force-phase
    /// node's single-cycle cause holds for all `delta` skipped cycles.
    /// Must run before the jump's stall decrement (classification reads
    /// pre-decrement stalls, exactly like the per-cycle path).
    fn attribute_jump(&mut self, delta: u64) {
        for node in self.owned_range() {
            let st = &self.state[node];
            if st.phase != NodePhase::Force {
                continue;
            }
            let step = st.step;
            let cause = self.classify_idle(node);
            self.tr_stalls.stall(node, step, cause, delta);
        }
    }

    /// Drain the flight-recorder capture of the last traced run: per-node
    /// event streams, the engine stream, and the stall ledger. `None`
    /// when the last run was untraced.
    pub fn take_trace(&mut self) -> Option<Trace> {
        if self.trace_cfg.level == TraceLevel::Off {
            return None;
        }
        let nodes = self.chips.iter_mut().map(TimedChip::take_trace).collect();
        Some(Trace {
            level: Some(self.trace_cfg.level),
            nodes,
            engine: self.tr_engine.take(),
            stalls: self.swap_ledger(),
        })
    }

    /// Replace the stall ledger with an empty one: at
    /// [`Cluster::arm_run`] and [`Cluster::take_trace`].
    fn swap_ledger(&mut self) -> StallLedger {
        let fresh = StallLedger::new(self.num_nodes());
        std::mem::replace(&mut self.tr_stalls, fresh)
    }

    /// Force-phase exchange for one node (everything except the chip
    /// tick, which the compute phase already performed).
    fn force_exchange(&mut self, node: usize) {
        let step = self.state[node].step;

        // Drain EX egress into the encapsulation chains.
        let grid = self.grid;
        for (peer_coord, flit) in self.chips[node].drain_pos_egress() {
            self.pos_pz[node].offer(&node_id(grid, peer_coord), flit, step);
        }
        for (peer_coord, flit) in self.chips[node].drain_frc_egress() {
            self.frc_pz[node].offer(&node_id(grid, peer_coord), flit, step);
        }

        // Last-position markers: all local positions routed and departed.
        if !self.state[node].last_pos_flushed && self.chips[node].all_positions_departed() {
            for i in 0..self.sync[node].send_peers.len() {
                let p = self.sync[node].send_peers[i];
                self.pos_pz[node].flush_last(&p, step);
                self.sync[node].mark_last_pos_sent(p);
                if self.tracing {
                    let cycle = self.cycle;
                    self.chips[node]
                        .trace_mut()
                        .push(cycle, EventKind::LastPosSent { peer: p as u32 });
                }
            }
            self.state[node].last_pos_flushed = true;
        }

        // Last-force markers, per §4.4: answered only once every position
        // from that peer has been processed and the forces have departed.
        // (`sync.recv_peers` and `chip.recv_chips` list the same peers in
        // the same order, so one index serves both.)
        let mut owed = self.sync[node].owed_last_frc();
        while owed != 0 {
            let i = owed.trailing_zeros() as usize;
            owed &= owed - 1;
            if self.chips[node].settled_with(i) {
                let p = self.sync[node].recv_peers[i];
                self.frc_pz[node].flush_last(&p, step);
                self.sync[node].mark_last_frc_sent(p);
                if self.tracing {
                    let cycle = self.cycle;
                    self.chips[node]
                        .trace_mut()
                        .push(cycle, EventKind::LastFrcSent { peer: p as u32 });
                }
            }
        }

        // Phase transition. A `quiet` node was already observed locally
        // idle by the compute phase this cycle, so skip the re-check.
        if self.sync[node].force_phase_complete()
            && ((self.use_quiet && self.quiet[node])
                || self.chips[node].force_phase_local_idle())
        {
            self.state[node].force_cycles = self.cycle - self.state[node].phase_start;
            if self.tracing {
                let cycle = self.cycle;
                let cycles = self.state[node].force_cycles;
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::Force, step, cycles },
                );
            }
            match self.cfg.sync {
                SyncMode::Chained => self.enter_mu(node),
                SyncMode::Bulk { .. } => self.arrive_at_barrier(node, NodePhase::BarrierBeforeMu),
            }
        }
    }

    /// Bulk-sync barrier arrival of `node` at its current step: enter
    /// `phase` (one of the two barrier waits) and, if `node` is the last
    /// to arrive, schedule every waiting node's release.
    fn arrive_at_barrier(&mut self, node: usize, phase: NodePhase) {
        let (trace_phase, barrier) = match phase {
            NodePhase::BarrierBeforeMu => (PhaseId::BarrierMu, &mut self.barrier_mu),
            NodePhase::BarrierBeforeForce => (PhaseId::BarrierForce, &mut self.barrier_force),
            other => unreachable!("{other:?} is not a barrier wait"),
        };
        let step = self.state[node].step;
        self.state[node].phase = phase;
        // Re-base `phase_start` at barrier entry so the wait duration is
        // reportable (engine-invariant; nothing else reads it until the
        // next phase re-sets it).
        self.state[node].phase_start = self.cycle;
        if self.tracing {
            let cycle = self.cycle;
            let tr = self.chips[node].trace_mut();
            tr.push(cycle, EventKind::PhaseBegin { phase: trace_phase, step });
            tr.push(cycle, EventKind::BarrierArrive { step });
        }
        if let Some(release) = barrier.arrive(node, self.cycle) {
            for s in self.state.iter_mut() {
                if s.phase == phase {
                    s.barrier_release = Some(release);
                }
            }
            barrier.reset();
        }
    }

    fn enter_mu(&mut self, node: usize) {
        self.quiet[node] = false;
        if self.tracing {
            let cycle = self.cycle;
            let step = self.state[node].step;
            let waited = cycle - self.state[node].phase_start;
            let from_barrier = self.state[node].phase == NodePhase::BarrierBeforeMu;
            let tr = self.chips[node].trace_mut();
            if from_barrier {
                tr.push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::BarrierMu, step, cycles: waited },
                );
            }
            tr.push(cycle, EventKind::PhaseBegin { phase: PhaseId::MotionUpdate, step });
        }
        self.chips[node].begin_mu_phase();
        self.state[node].phase = NodePhase::Mu;
        self.state[node].phase_start = self.cycle;
        self.state[node].mig_flushed = false;
        self.state[node].barrier_release = None;
    }

    /// Motion-update exchange for one node (chip tick already done in the
    /// compute phase).
    fn mu_exchange(&mut self, node: usize, steps: u64) {
        let step = self.state[node].step;

        let grid = self.grid;
        for (peer_coord, flit) in self.chips[node].drain_mig_egress() {
            self.mig_pz[node].offer(&node_id(grid, peer_coord), flit, step);
        }

        if !self.state[node].mig_flushed && self.chips[node].all_migrants_departed() {
            for i in 0..self.sync[node].mig_peers.len() {
                let p = self.sync[node].mig_peers[i];
                self.mig_pz[node].flush_last(&p, step);
                self.sync[node].mark_last_mig_sent(p);
                if self.tracing {
                    let cycle = self.cycle;
                    self.chips[node]
                        .trace_mut()
                        .push(cycle, EventKind::LastMigSent { peer: p as u32 });
                }
            }
            self.state[node].mig_flushed = true;
        }

        if self.state[node].mig_flushed
            && self.sync[node].mu_phase_complete()
            && ((self.use_quiet && self.quiet[node])
                || self.chips[node].mu_phase_local_idle())
        {
            let mu_cycles = self.cycle - self.state[node].phase_start;
            self.chips[node].end_mu_phase();
            self.records.push(NodeStepReport {
                node,
                step,
                force_cycles: self.state[node].force_cycles,
                mu_cycles,
                wall_end: self.cycle,
            });
            if self.tracing {
                let cycle = self.cycle;
                let tr = self.chips[node].trace_mut();
                tr.push(
                    cycle,
                    EventKind::PhaseEnd {
                        phase: PhaseId::MotionUpdate,
                        step,
                        cycles: mu_cycles,
                    },
                );
                tr.push(cycle, EventKind::StepDone { step });
            }
            self.state[node].step += 1;
            if self.state[node].step >= steps {
                self.state[node].phase = NodePhase::Done;
                return;
            }
            match self.cfg.sync {
                SyncMode::Chained => self.enter_next_force(node),
                SyncMode::Bulk { .. } => {
                    self.arrive_at_barrier(node, NodePhase::BarrierBeforeForce)
                }
            }
        }
    }

    fn enter_next_force(&mut self, node: usize) {
        let step = self.state[node].step;
        self.quiet[node] = false;
        if self.tracing {
            let cycle = self.cycle;
            let waited = cycle - self.state[node].phase_start;
            if self.state[node].phase == NodePhase::BarrierBeforeForce {
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::BarrierForce, step, cycles: waited },
                );
            }
        }
        self.sync[node].begin_step(step);
        self.chips[node].begin_force_phase();
        self.state[node].phase = NodePhase::Force;
        self.state[node].phase_start = self.cycle;
        self.state[node].last_pos_flushed = false;
        self.state[node].barrier_release = None;
        if let Some((s, d)) = self.cfg.straggler {
            if s == node {
                self.stalls[node] = d;
            }
        }
        if self.tracing {
            let cycle = self.cycle;
            let stall = self.stalls[node];
            let tr = self.chips[node].trace_mut();
            tr.push(cycle, EventKind::PhaseBegin { phase: PhaseId::Force, step });
            if stall > 0 {
                tr.push(cycle, EventKind::StallInjected { cycles: stall });
            }
        }
    }

    // ------------------------------------------------------------------
    // Idle fast-forward.

    /// Decide whether the cluster can fast-forward past `self.cycle`.
    ///
    /// A node blocks the jump (`Busy`) when its chip would tick in the
    /// next compute phase. Otherwise nothing in the cluster changes until
    /// one of the scheduled events fires: an inbox delivery, a packetizer
    /// departure, a barrier release, or a stall expiring. Exchange
    /// actions need no events of their own — they are functions of chip
    /// and sync state, which only change through chip ticks (busy) or
    /// deliveries — and the caller never invokes this scan on a cycle
    /// that delivered something, so every delivery-enabled exchange
    /// action gets its follow-up cycle before any jump is considered.
    pub(crate) fn next_event_cycle(&self) -> NextEvent {
        let mut next: Option<u64> = None;
        let mut note = |c: u64| next = Some(next.map_or(c, |n: u64| n.min(c)));
        for node in self.owned_range() {
            if self.stalls[node] > 0 {
                note(self.cycle + self.stalls[node]);
            } else {
                match self.state[node].phase {
                    NodePhase::Force => {
                        let quiet = self.use_quiet && self.quiet[node];
                        if !quiet && !self.chips[node].force_phase_local_idle() {
                            return NextEvent::Busy;
                        }
                    }
                    NodePhase::Mu => {
                        let quiet = self.use_quiet && self.quiet[node];
                        if !quiet
                            && (!self.chips[node].mu_phase_local_idle()
                                || !self.state[node].mig_flushed)
                        {
                            return NextEvent::Busy;
                        }
                    }
                    NodePhase::BarrierBeforeMu | NodePhase::BarrierBeforeForce => {
                        if let Some(r) = self.state[node].barrier_release {
                            note(r);
                        }
                    }
                    NodePhase::Done => {}
                }
            }
            if let Some(d) = self.inbox[node].next_due() {
                note(d);
            }
            if let Some(d) = self.pos_pz[node].next_departure(self.cycle) {
                note(d);
            }
            if let Some(d) = self.frc_pz[node].next_departure(self.cycle) {
                note(d);
            }
            if let Some(d) = self.mig_pz[node].next_departure(self.cycle) {
                note(d);
            }
            // Retransmission timers are event sources too: with anything
            // unacked there is always a deadline, so `Never` (deadlock)
            // is unreachable while the reliability layer still has work.
            if let Some(rel) = &self.rel {
                if let Some(d) = rel.next_retx_due(node) {
                    note(d);
                }
            }
        }
        match next {
            Some(t) => NextEvent::At(t.max(self.cycle)),
            None => NextEvent::Never,
        }
    }

    /// Jump the global clock to `target`: record the jump on the engine
    /// stream, then skip the span.
    pub(crate) fn jump_to(&mut self, target: u64) {
        if target <= self.cycle {
            return;
        }
        self.record_jump(self.cycle, target);
        self.skip_to(target);
    }

    /// Book one global fast-forward `[from, to)`: the engine-stream event
    /// and the skipped-cycle tally. Split from [`Cluster::skip_to`]
    /// because a shard worker skips its own quiescent spans but books
    /// only the spans *every* shard skipped — the jumps the in-process
    /// engine would have made.
    pub(crate) fn record_jump(&mut self, from: u64, to: u64) {
        let delta = to - from;
        if self.tracing {
            self.tr_engine
                .push(from, EventKind::FastForward { to_cycle: to, skipped: delta });
        }
        self.skipped_cycles += delta;
    }

    /// Move the clock to `target` over a span in which no owned node
    /// can change state, emulating the only side effect the skipped
    /// cycles would have had: one stall decrement per cycle.
    pub(crate) fn skip_to(&mut self, target: u64) {
        if target <= self.cycle {
            return;
        }
        let delta = target - self.cycle;
        if self.tracing {
            self.attribute_jump(delta);
        }
        for s in &mut self.stalls {
            *s = s.saturating_sub(delta);
        }
        self.cycle = target;
    }

    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn network_cycle(&mut self) {
        if let Some(ex) = &mut self.exchange {
            ex.stage = 0;
        }
        for node in self.owned_range() {
            let released = self.pos_pz[node].tick(self.cycle);
            self.transmit(node, released, Cargo::Pos);
            let released = self.frc_pz[node].tick(self.cycle);
            self.transmit(node, released, Cargo::Frc);
            let released = self.mig_pz[node].tick(self.cycle);
            self.transmit(node, released, Cargo::Mig);
        }
        if self.rel.is_some() {
            if let Some(ex) = &mut self.exchange {
                ex.stage = 1;
            }
            self.poll_retransmits();
        }
    }

    /// Launch the packet one of `node`'s packetizers released this cycle,
    /// if it released one: assign its per-link sequence number and buffer
    /// it for retransmission (reliability on), then put it on the fabric
    /// through the fault plan.
    #[inline]
    fn transmit<T>(
        &mut self,
        node: usize,
        released: Option<(usize, Packet<T>)>,
        cargo: fn(Vec<T>) -> Cargo,
    ) {
        let Some((peer, pkt)) = released else { return };
        let (payloads, last) = (pkt.payloads.len() as u32, pkt.last);
        let cargo = cargo(pkt.payloads);
        let kind = cargo.kind();
        let sent = EventKind::PacketSent { channel: channel_id(kind), to: peer as u32, payloads, last };
        self.trace_full_event(node, sent);
        let mut d = Delivery { from: node, cargo, last, step: pkt.step, seq: 0, corrupt: false };
        if let Some(rel) = &mut self.rel {
            // The stored copy keeps seq 0; retransmissions are re-tagged
            // from the sequence `poll_retransmit` reports.
            d.seq = rel.launch(node, kind, peer, self.cycle, d.clone());
        }
        self.put_on_wire(node, peer, kind, d.seq, last, NetMsg::Data(d));
    }

    /// Apply the fault plan to one frame — data or ack — and schedule its
    /// delivery (or loss) on the channel's fabric. Runs only in the serial
    /// network / delivery phases, so outcomes are engine-invariant. Acks
    /// pass `last = false`, and differ from data in two arms only: a
    /// corrupted ack fails the receiver's checksum, so it is dropped at tx
    /// (observably a lost ack that still burned the port) where a
    /// corrupted data frame travels on to burn rx bandwidth too; and only
    /// a data frame is ever logged as a marker kill.
    #[inline]
    fn put_on_wire(
        &mut self,
        node: usize,
        peer: usize,
        kind: PacketKind,
        seq: u32,
        last: bool,
        mut msg: NetMsg,
    ) {
        let (step, cycle) = (self.state[node].step, self.cycle);
        let outcome = match &mut self.faults {
            Some(f) => f.on_transmit(chan_of(kind), node as u32, peer as u32, step, cycle, last),
            None => FaultOutcome::Deliver,
        };
        let channel = channel_id(kind);
        let to = peer as u32;
        match outcome {
            FaultOutcome::Deliver => self.wire(kind, node, peer, 0, msg),
            FaultOutcome::Drop | FaultOutcome::Kill => {
                let kill = outcome == FaultOutcome::Kill && matches!(msg, NetMsg::Data(_));
                self.fabric(kind).drop_at_tx(cycle, node);
                self.trace_node_event(node, EventKind::FaultDrop { channel, to, seq, kill });
            }
            FaultOutcome::Corrupt => {
                match &mut msg {
                    NetMsg::Data(d) => {
                        d.corrupt = true;
                        self.wire(kind, node, peer, 0, msg);
                    }
                    NetMsg::Ack { .. } => self.fabric(kind).drop_at_tx(cycle, node),
                }
                self.trace_node_event(node, EventKind::FaultCorrupt { channel, to, seq });
            }
            FaultOutcome::Duplicate => {
                self.wire(kind, node, peer, 0, msg.clone());
                self.wire(kind, node, peer, 0, msg);
                self.trace_node_event(node, EventKind::FaultDuplicate { channel, to, seq });
            }
            FaultOutcome::Delay(extra) => {
                self.wire(kind, node, peer, extra, msg);
                self.trace_node_event(node, EventKind::FaultDelay { channel, to, seq, extra });
            }
        }
    }

    /// Retransmit every link whose head-of-line timeout expired this
    /// cycle. Deterministic iteration (node, then channel, then peer in
    /// BTreeMap order) keeps fabric port bookkeeping engine-invariant.
    #[inline]
    fn poll_retransmits(&mut self) {
        const KINDS: [PacketKind; 3] =
            [PacketKind::Position, PacketKind::Force, PacketKind::Migration];
        for node in self.owned_range() {
            let due = self.rel.as_ref().and_then(|r| r.next_retx_due(node));
            if due.is_none_or(|d| d > self.cycle) {
                continue;
            }
            for kind in KINDS {
                // Peers in ascending order, each looked up past the last
                // (the wire may not be borrowed across the map).
                let mut next = Some(0);
                while let Some(from) = next {
                    let cycle = self.cycle;
                    let Some(rel) = self.rel.as_mut() else { return };
                    let Some((&peer, link)) = rel.tx[node][chan_index(kind)].range_mut(from..).next() else {
                        break;
                    };
                    next = peer.checked_add(1);
                    let polled = link.poll_retransmit(cycle);
                    if let Some((seq, mut d, attempt)) = polled {
                        d.seq = seq;
                        self.trace_node_event(
                            node,
                            EventKind::Retransmit {
                                channel: channel_id(kind),
                                to: peer as u32,
                                seq,
                                attempt,
                            },
                        );
                        self.put_on_wire(node, peer, kind, seq, d.last, NetMsg::Data(d));
                    }
                }
            }
            if let Some(rel) = self.rel.as_mut() {
                rel.refresh(node);
            }
        }
    }

    /// Send a cumulative ack back to `peer` on the channel's fabric. Ack
    /// frames cost a full 512-bit fabric send and pass through the fault
    /// plan like any other frame (a corrupted ack is a lost ack).
    #[inline]
    fn send_ack(&mut self, node: usize, kind: PacketKind, peer: usize, seq: u32) {
        if let Some(rel) = &mut self.rel {
            rel.acks_sent += 1;
        }
        let sent = EventKind::AckSent { channel: channel_id(kind), to: peer as u32, seq };
        self.trace_full_event(node, sent);
        self.put_on_wire(node, peer, kind, seq, false, NetMsg::Ack { channel: kind, from: node, seq });
    }

    /// The fabric a packet kind travels on: force traffic has its own
    /// QSFP port; positions and migration share the other (§5.4).
    #[inline]
    fn fabric(&mut self, kind: PacketKind) -> &mut SwitchFabric {
        match kind {
            PacketKind::Force => &mut self.frc_fabric,
            _ => &mut self.pos_fabric,
        }
    }

    /// Carry one frame from `src`'s port to `dst`'s inbox, `extra` cycles
    /// late: serialize on the source port, then admit at the destination
    /// port — here when one process owns both ends, which composes to
    /// [`SwitchFabric::send`]; in sharded mode the crossing is captured
    /// and `dst`'s owner admits it in [`Cluster::admit_wire_events`], so
    /// every worker admits the same global (stage, src) order the oracle
    /// produces. The only place the transmit path asks which it is.
    #[inline]
    fn wire(&mut self, kind: PacketKind, src: usize, dst: usize, extra: u64, msg: NetMsg) {
        let cycle = self.cycle;
        let arrive = self.fabric(kind).tx_serialize(cycle, src, dst);
        if self.exchange.is_some() {
            self.push_wire(src, dst, arrive, extra, msg);
        } else {
            let at = self.fabric(kind).rx_admit(arrive, dst);
            self.inbox[dst].send(at + extra, msg);
        }
    }

    /// Capture one wire crossing into the shard exchange buffer.
    #[inline]
    fn push_wire(&mut self, src: usize, dst: usize, arrive: u64, extra: u64, msg: NetMsg) {
        let ex = self.exchange.as_mut().expect("wire capture requires sharded mode");
        ex.events.push(WireEvent {
            cycle: self.cycle,
            stage: ex.stage,
            src: src as u32,
            dst: dst as u32,
            arrive,
            extra,
            msg,
        });
    }

    /// Record a sync-tier event on a node's stream at the current cycle.
    #[inline]
    fn trace_node_event(&mut self, node: usize, ev: EventKind) {
        if self.tracing {
            let cycle = self.cycle;
            self.chips[node].trace_mut().push(cycle, ev);
        }
    }

    /// Record a Full-tier event (packet and ack traffic, too chatty for
    /// the sync tier) on a node's stream at the current cycle.
    #[inline]
    fn trace_full_event(&mut self, node: usize, ev: EventKind) {
        if self.tracing && self.chips[node].trace_mut().wants(TraceLevel::Full) {
            let cycle = self.cycle;
            self.chips[node].trace_mut().push(cycle, ev);
        }
    }

    /// Drain every due delivery into its chip; returns whether anything
    /// was delivered. A delivery can enable an exchange action (a marker
    /// completing a sync phase, a flit re-awakening a chip) that only
    /// executes on the *next* cycle's exchange phase, so the fast-forward
    /// scan must never jump over the cycle that follows a delivery.
    pub(crate) fn deliver_due(&mut self) -> bool {
        if let Some(ex) = &mut self.exchange {
            ex.stage = 2;
        }
        let mut delivered = false;
        for node in self.owned_range() {
            while let Some(msg) = self.inbox[node].pop_due(self.cycle) {
                delivered = true;
                match msg {
                    NetMsg::Ack { channel, from, seq } => {
                        // Acks don't touch chip state: `quiet` stays as-is.
                        if let Some(rel) = &mut self.rel {
                            rel.on_ack(node, channel, from, self.cycle, seq);
                        }
                    }
                    NetMsg::Data(d) => {
                        self.quiet[node] = false;
                        let kind = d.cargo.kind();
                        if self.tracing && self.chips[node].trace_mut().wants(TraceLevel::Full) {
                            let payloads = match &d.cargo {
                                Cargo::Pos(f) => f.len(),
                                Cargo::Frc(f) => f.len(),
                                Cargo::Mig(f) => f.len(),
                            } as u32;
                            let cycle = self.cycle;
                            self.chips[node].trace_mut().push(
                                cycle,
                                EventKind::PacketDelivered {
                                    channel: channel_id(kind),
                                    from: d.from as u32,
                                    payloads,
                                    last: d.last,
                                },
                            );
                        }
                        if d.corrupt {
                            // Failed checksum: the frame burned rx
                            // bandwidth but is discarded unacked, so the
                            // sender's timeout recovers it.
                            if let Some(rel) = &mut self.rel {
                                rel.corrupt_dropped += 1;
                            }
                        } else if self.rel.is_some() {
                            let from = d.from;
                            let seq = d.seq;
                            let accept = self
                                .rel
                                .as_mut()
                                .expect("checked")
                                .receiver(node, kind, from)
                                .accept(seq, d);
                            match accept {
                                Accept::Deliver { payloads, cumulative } => {
                                    for (_, dd) in payloads {
                                        self.ingest(node, dd);
                                    }
                                    self.send_ack(node, kind, from, cumulative);
                                }
                                Accept::Buffered { cumulative }
                                | Accept::Duplicate { cumulative } => {
                                    self.send_ack(node, kind, from, cumulative);
                                }
                            }
                        } else {
                            self.ingest(node, d);
                        }
                    }
                }
            }
        }
        delivered
    }

    /// Hand one in-order data frame to the destination chip and advance
    /// the chained-sync tracker on its `last` marker.
    fn ingest(&mut self, node: usize, d: Delivery) {
        let kind = d.cargo.kind();
        match d.cargo {
            Cargo::Pos(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_pos(f);
                }
            }
            Cargo::Frc(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_frc(f);
                }
            }
            Cargo::Mig(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_mig(f);
                }
            }
        }
        if d.last {
            self.sync[node].on_marker(kind, d.from, d.step);
            if self.tracing {
                let cycle = self.cycle;
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::MarkerRecv {
                        channel: channel_id(kind),
                        from: d.from as u32,
                        step: d.step,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------

    /// Gather particle state from all chips into `sys`.
    pub fn store_into(&self, sys: &mut ParticleSystem) {
        assert_eq!(sys.space, self.global);
        for chip in &self.chips {
            chip.store_into(sys);
        }
    }

    /// Total particles across chips.
    pub fn num_particles(&self) -> usize {
        self.chips.iter().map(TimedChip::num_particles).sum()
    }

    /// The unit system in use.
    pub fn units(&self) -> UnitSystem {
        self.chips[0].units()
    }

    /// The report of the run just finished, over the owned nodes: their
    /// records, merged utilization counters and traffic (a shard worker
    /// ships these three to the coordinator).
    pub(crate) fn assemble_report(&mut self, steps: u64, total_cycles: u64) -> ClusterRunReport {
        let mut stats = StatSet::new();
        for n in self.owned_range() {
            stats.merge_from(&self.chips[n].report(0, 0).stats);
        }
        let traffic = self.owned_range().map(|n| self.chips[n].traffic()).collect();
        let records = std::mem::take(&mut self.records);
        self.segment_report(steps, total_cycles, records, stats, traffic)
    }

    /// A segment report over the given records, statistics and per-node
    /// traffic, with the cumulative fabric, fault and reliability tallies
    /// read from this cluster — the one constructor of
    /// [`ClusterRunReport`], for the in-process run and the shard
    /// coordinator's fold alike.
    pub(crate) fn segment_report(
        &self,
        steps: u64,
        total_cycles: u64,
        records: Vec<NodeStepReport>,
        stats: StatSet,
        per_node_traffic: Vec<TrafficCounters>,
    ) -> ClusterRunReport {
        ClusterRunReport {
            steps,
            total_cycles,
            records,
            stats,
            per_node_traffic,
            pos_packets: self.pos_fabric.packets,
            frc_packets: self.frc_fabric.packets,
            pos_bits: self.pos_fabric.bits_sent,
            frc_bits: self.frc_fabric.bits_sent,
            clock_hz: self.cfg.chip.hw.clock_hz,
            dt_fs: self.cfg.dt_fs,
            nodes: self.num_nodes(),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.total_injected()),
            reliability: self.rel.as_ref().map(|r| RelSummary {
                retransmits: r.total_retransmits(),
                acks_sent: r.acks_sent,
                duplicates_dropped: r.total_duplicates(),
                corrupt_dropped: r.corrupt_dropped,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (paper-level crash recovery; the `ckpt` module drives the
// file format, retention and segmented re-execution).
// ---------------------------------------------------------------------------

fasda_ckpt::persist_enum!(NodePhase {
    0 => Force,
    1 => BarrierBeforeMu,
    2 => Mu,
    3 => BarrierBeforeForce,
    4 => Done,
});

fasda_ckpt::persist_struct!(NodeState {
    step,
    phase,
    phase_start,
    force_cycles,
    last_pos_flushed,
    mig_flushed,
    barrier_release,
});

/// Checkpointing: `cfg` is configuration; the per-link sender/receiver
/// maps (sequence numbers, unacked in-flight frames, retransmission
/// deadlines, dedup cursors) and the cumulative counters are state.
impl fasda_ckpt::Snapshot for RelState {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        w.put_usize(self.tx.len());
        for node in &self.tx {
            for links in node {
                links.save(w);
            }
        }
        for node in &self.rx {
            for links in node {
                links.save(w);
            }
        }
        w.put_u64(self.acks_sent);
        w.put_u64(self.corrupt_dropped);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        let nodes = r.get_usize()?;
        if nodes != self.tx.len() {
            return Err(r.malformed(format!(
                "reliability node count mismatch: snapshot has {nodes}, cluster has {}",
                self.tx.len()
            )));
        }
        for node in 0..nodes {
            for chan in 0..3 {
                self.tx[node][chan] = Persist::load(r)?;
            }
        }
        for node in 0..nodes {
            for chan in 0..3 {
                self.rx[node][chan] = Persist::load(r)?;
            }
        }
        self.acks_sent = r.get_u64()?;
        self.corrupt_dropped = r.get_u64()?;
        for node in 0..nodes {
            self.refresh(node);
        }
        Ok(())
    }
}

/// Section names of a cluster checkpoint container.
pub mod sections {
    /// Configuration fingerprint (guards against restoring into a
    /// differently-shaped cluster).
    pub const META: &str = "meta";
    /// Driver-level state: clock, per-node phase machines, sync.
    pub const DRIVER: &str = "driver";
    /// Per-chip microarchitectural state.
    pub const CHIPS: &str = "chips";
    /// Network state: packetizers, fabrics, inboxes, faults, reliability.
    pub const NET: &str = "net";
    /// Run-accumulator state (records and merged stats of completed
    /// segments) — written by `ckpt::save_checkpoint`.
    pub const RUNNER: &str = "runner";
}

impl Cluster {
    /// Fingerprint of everything that must match between the snapshotting
    /// and the restoring cluster, as named fields in section order, each
    /// holding its encoding (configuration structs as CRCs of their debug
    /// text), so a mismatch can name the offending field. The fault plan
    /// is fingerprinted **without** any crash directive (and dropped
    /// entirely when it carries no traffic faults): the resumed run
    /// strips the crash so it does not re-fire, and that must not read
    /// as a config change.
    fn meta_fields(&self) -> [(&'static str, Vec<u8>); 15] {
        use fasda_ckpt::{crc32, Persist};
        fn enc(v: impl Persist) -> Vec<u8> {
            let mut w = fasda_ckpt::Writer::new();
            v.save(&mut w);
            w.into_bytes()
        }
        let dbg = |s: String| enc(crc32(s.as_bytes()));
        // Fingerprint the recovery-invariant core of the plan: resumed
        // runs strip crash directives (and, after a partition-diagnosed
        // deadlock, flap/partition windows), and a stripped plan must
        // still open the checkpoints its faulty ancestor wrote.
        let faults = self
            .cfg
            .faults
            .as_ref()
            .map(|p| p.without_outages())
            .filter(|p| !p.is_none());
        [
            ("chip", dbg(format!("{:?}", self.cfg.chip))),
            ("block.x", enc(self.cfg.block.0)),
            ("block.y", enc(self.cfg.block.1)),
            ("block.z", enc(self.cfg.block.2)),
            ("sync", dbg(format!("{:?}", self.cfg.sync))),
            ("topology", dbg(format!("{:?}", self.cfg.topology))),
            ("bits_per_cycle", enc(self.cfg.bits_per_cycle)),
            ("packet_cooldown", enc(self.cfg.packet_cooldown)),
            ("dt_fs", enc(self.cfg.dt_fs)),
            ("straggler", dbg(format!("{:?}", self.cfg.straggler))),
            ("faults", dbg(format!("{faults:?}"))),
            ("reliability", dbg(format!("{:?}", self.cfg.reliability))),
            ("space", dbg(format!("{:?}", self.global))),
            ("nodes", enc(self.num_nodes())),
            ("particles", enc(self.num_particles())),
        ]
    }

    /// The `meta` section: every [`Cluster::meta_fields`] encoding, in order.
    pub(crate) fn meta_writer(&self) -> fasda_ckpt::Writer {
        let mut w = fasda_ckpt::Writer::new();
        for (_, bytes) in self.meta_fields() {
            w.put_bytes(&bytes);
        }
        w
    }

    fn check_meta(&self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        for (field, expected) in self.meta_fields() {
            if r.take(expected.len())? != expected {
                return Err(fasda_ckpt::CkptError::ConfigMismatch { field: field.to_string() });
            }
        }
        Ok(())
    }

    /// Lowest in-flight step across nodes; at a step boundary (all nodes
    /// `Done`) this is the number of completed steps — the step index a
    /// checkpoint taken here is filed under.
    pub fn current_step(&self) -> u64 {
        self.state.iter().map(|s| s.step).min().unwrap_or(0)
    }

    /// Serialize the full microarchitectural state into `cw` as the
    /// `meta`/`driver`/`chips`/`net` sections of a checkpoint container.
    ///
    /// Only *inter-segment* state is captured: everything the run-start
    /// arm loop of [`Cluster::try_run_with`] rebuilds (utilization
    /// counters, traffic tallies, trace recorders, quiescence caches,
    /// phase-local broadcast schedules) is deliberately excluded, which
    /// is what keeps snapshots small and resume bit-identical — see
    /// `DESIGN.md` §9.
    pub fn snapshot_into(&self, cw: &mut fasda_ckpt::ContainerWriter) {
        use fasda_ckpt::{Persist, Snapshot};
        cw.push(sections::META, self.meta_writer());

        let mut w = fasda_ckpt::Writer::new();
        w.put_u64(self.cycle);
        w.put_u64(self.skipped_cycles);
        self.state.save(&mut w);
        self.stalls.save(&mut w);
        fasda_ckpt::snapshot_slice(&self.sync, &mut w);
        self.barrier_mu.snapshot(&mut w);
        self.barrier_force.snapshot(&mut w);
        cw.push(sections::DRIVER, w);

        let mut w = fasda_ckpt::Writer::new();
        w.put_usize(self.chips.len());
        for chip in &self.chips {
            chip.snapshot(&mut w);
        }
        cw.push(sections::CHIPS, w);

        let mut w = fasda_ckpt::Writer::new();
        fasda_ckpt::snapshot_slice(&self.pos_pz, &mut w);
        fasda_ckpt::snapshot_slice(&self.frc_pz, &mut w);
        fasda_ckpt::snapshot_slice(&self.mig_pz, &mut w);
        self.pos_fabric.snapshot(&mut w);
        self.frc_fabric.snapshot(&mut w);
        self.inbox.save(&mut w);
        w.put_bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.snapshot(&mut w);
        }
        w.put_bool(self.rel.is_some());
        if let Some(rel) = &self.rel {
            rel.snapshot(&mut w);
        }
        cw.push(sections::NET, w);
    }

    /// Restore the cluster from a parsed checkpoint container. The
    /// receiver must be a freshly built cluster over the *same*
    /// configuration and particle system (enforced through the `meta`
    /// fingerprint — a mismatch returns
    /// [`fasda_ckpt::CkptError::ConfigMismatch`] naming the field).
    /// On error the cluster may be partially overwritten and must be
    /// discarded; no method of this type panics on corrupt input.
    pub fn restore_from(&mut self, c: &fasda_ckpt::Container<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::{Persist, Snapshot};
        self.check_meta(&mut c.reader(sections::META)?)?;

        let r = &mut c.reader(sections::DRIVER)?;
        self.cycle = r.get_u64()?;
        self.skipped_cycles = r.get_u64()?;
        let state: Vec<NodeState> = Persist::load(r)?;
        if state.len() != self.state.len() {
            return Err(r.malformed(format!(
                "node count mismatch: snapshot has {}, cluster has {}",
                state.len(),
                self.state.len()
            )));
        }
        self.state = state;
        let stalls: Vec<u64> = Persist::load(r)?;
        if stalls.len() != self.stalls.len() {
            return Err(r.malformed("stall vector length mismatch"));
        }
        self.stalls = stalls;
        fasda_ckpt::restore_slice(&mut self.sync, r)?;
        self.barrier_mu.restore(r)?;
        self.barrier_force.restore(r)?;

        let r = &mut c.reader(sections::CHIPS)?;
        let n = r.get_usize()?;
        if n != self.chips.len() {
            return Err(r.malformed(format!(
                "chip count mismatch: snapshot has {n}, cluster has {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.restore(r)?;
        }

        let r = &mut c.reader(sections::NET)?;
        fasda_ckpt::restore_slice(&mut self.pos_pz, r)?;
        fasda_ckpt::restore_slice(&mut self.frc_pz, r)?;
        fasda_ckpt::restore_slice(&mut self.mig_pz, r)?;
        self.pos_fabric.restore(r)?;
        self.frc_fabric.restore(r)?;
        let inbox: Vec<fasda_sim::MessageQueue<NetMsg>> = Persist::load(r)?;
        if inbox.len() != self.inbox.len() {
            return Err(r.malformed("inbox count mismatch"));
        }
        self.inbox = inbox;
        let had_faults = r.get_bool()?;
        match (&mut self.faults, had_faults) {
            (Some(f), true) => f.restore(r)?,
            (None, false) => {}
            // Recovery tolerance: a run resumed with a stripped plan may
            // have no traffic faults left at all (the ancestor's plan
            // was outage-only), yet the snapshot carries the ancestor's
            // fault layer. Adopt it into an empty-plan fault state so
            // the injected tallies and link streams survive the splice;
            // with no directives in the plan the restored latches and
            // streams are inert.
            (None, true) => {
                let mut f = FaultState::new(FaultPlan::none());
                f.restore(r)?;
                self.faults = Some(f);
            }
            (Some(_), false) => {
                return Err(r.malformed(
                    "snapshot has no fault layer but the cluster expects one",
                ))
            }
        }
        let had_rel = r.get_bool()?;
        match (&mut self.rel, had_rel) {
            (Some(rel), true) => rel.restore(r)?,
            (None, false) => {}
            _ => {
                return Err(r.malformed(
                    "reliability-layer presence disagrees between snapshot and cluster",
                ))
            }
        }
        Ok(())
    }
}

/// Deterministic final-state dump for recovery and migration diffs: one
/// line per particle with the raw IEEE-754 bits of position/velocity and
/// the raw fixed-point force-accumulator bank bits, keyed by stable ID.
/// Two runs are bit-identical iff their dumps are byte-identical — the
/// CLI's `--dump-state`, the job service's completion dump, and every
/// recovery gate in CI all compare exactly this string.
pub fn state_dump(cluster: &Cluster, sys: &ParticleSystem) -> String {
    let mut out = sys.clone();
    cluster.store_into(&mut out);
    let mut forces = Vec::new();
    for chip in &cluster.chips {
        for cbb in &chip.cbbs {
            for i in 0..cbb.len() {
                forces.push((cbb.id[i], cbb.force[i].map(|f| f.0)));
            }
        }
    }
    forces.sort_by_key(|e| e.0);
    let mut s = String::with_capacity(forces.len() * 120);
    for (id, frc) in forces {
        let p = out.pos[id as usize];
        let v = out.vel[id as usize];
        s.push_str(&format!(
            "{id} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}\n",
            p.x.to_bits(),
            p.y.to_bits(),
            p.z.to_bits(),
            v.x.to_bits(),
            v.y.to_bits(),
            v.z.to_bits(),
            frc[0] as u64,
            frc[1] as u64,
            frc[2] as u64,
        ));
    }
    s
}
