//! Structured trace events.
//!
//! Every event is stamped with the **global cluster cycle** at which it
//! occurred, so streams from different engine configurations line up
//! exactly. All payloads are `Copy`: recording an event is a ring-buffer
//! store, never an allocation.

/// Phases a node moves through, as seen by the cluster driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseId {
    /// Force evaluation.
    Force,
    /// Motion update.
    MotionUpdate,
    /// Waiting at the bulk barrier between force and MU.
    BarrierMu,
    /// Waiting at the bulk barrier before the next step's force phase.
    BarrierForce,
}

impl PhaseId {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            PhaseId::Force => "force",
            PhaseId::MotionUpdate => "motion-update",
            PhaseId::BarrierMu => "barrier-mu",
            PhaseId::BarrierForce => "barrier-force",
        }
    }
}

/// Traffic class of a packet or sync marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelId {
    /// Position broadcast traffic.
    Pos,
    /// Returned neighbour forces.
    Frc,
    /// Motion-update migration traffic.
    Mig,
}

impl ChannelId {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ChannelId::Pos => "pos",
            ChannelId::Frc => "frc",
            ChannelId::Mig => "mig",
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A node entered a phase.
    PhaseBegin {
        /// Which phase.
        phase: PhaseId,
        /// Timestep index.
        step: u64,
    },
    /// A node left a phase after `cycles` global cycles.
    PhaseEnd {
        /// Which phase.
        phase: PhaseId,
        /// Timestep index.
        step: u64,
        /// Phase duration in global cycles.
        cycles: u64,
    },
    /// A straggler stall was injected at force-phase start.
    StallInjected {
        /// Stall length in cycles.
        cycles: u64,
    },
    /// The *last-position* marker departed toward a peer (§4.4).
    LastPosSent {
        /// Destination node.
        peer: u32,
    },
    /// The *last-force* marker departed toward a peer.
    LastFrcSent {
        /// Destination node.
        peer: u32,
    },
    /// The *last-migration* marker departed toward a peer.
    LastMigSent {
        /// Destination node.
        peer: u32,
    },
    /// A `last` marker arrived and was credited to the sync state
    /// machine.
    MarkerRecv {
        /// Traffic class of the marker.
        channel: ChannelId,
        /// Originating node.
        from: u32,
        /// Step the marker is for (may be a future step — the chained
        /// sync buffers early markers).
        step: u64,
    },
    /// A packet left this node's packetizer onto the fabric.
    PacketSent {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Payload flits carried.
        payloads: u32,
        /// Whether the packet carries a `last` marker.
        last: bool,
    },
    /// A packet was delivered into this node's chip.
    PacketDelivered {
        /// Traffic class.
        channel: ChannelId,
        /// Originating node.
        from: u32,
        /// Payload flits carried.
        payloads: u32,
        /// Whether the packet carries a `last` marker.
        last: bool,
    },
    /// The node arrived at a bulk barrier.
    BarrierArrive {
        /// Timestep index.
        step: u64,
    },
    /// Chip-internal PE activity for one force cycle (`Full` level
    /// only): filter-station dispatches and station ejections summed
    /// over the chip. Emitted only on cycles where either count is
    /// non-zero.
    PeActivity {
        /// Neighbour entries dispatched to filter stations this cycle.
        dispatched: u32,
        /// Station ejections (ring, local, or discard) this cycle.
        ejected: u32,
    },
    /// A node completed a timestep.
    StepDone {
        /// Timestep index.
        step: u64,
    },
    /// The fault plan dropped an outbound packet on the fabric
    /// (attributed to the sending node).
    FaultDrop {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Per-link sequence number of the lost packet (0 when the
        /// reliability layer is off).
        seq: u32,
        /// Whether a targeted "kill marker" directive caused the drop
        /// (as opposed to the probabilistic schedule).
        kill: bool,
    },
    /// The fault plan corrupted an outbound packet in flight; the
    /// receiver will discard it on checksum failure.
    FaultCorrupt {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Per-link sequence number of the corrupted packet.
        seq: u32,
    },
    /// The fault plan duplicated an outbound packet (the receiver's
    /// dedup window discards the extra copy).
    FaultDuplicate {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Per-link sequence number of the duplicated packet.
        seq: u32,
    },
    /// The fault plan delayed an outbound packet beyond its modelled
    /// fabric latency (reordering it behind later traffic).
    FaultDelay {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Per-link sequence number of the delayed packet.
        seq: u32,
        /// Extra delay in cycles.
        extra: u64,
    },
    /// The reliable-delivery layer retransmitted an unacked packet
    /// after its timeout expired.
    Retransmit {
        /// Traffic class.
        channel: ChannelId,
        /// Destination node.
        to: u32,
        /// Per-link sequence number being retransmitted.
        seq: u32,
        /// Retransmission attempt (1 = first retransmit).
        attempt: u32,
    },
    /// A cumulative acknowledgement departed toward a peer (`Full`
    /// level only — ack traffic is as chatty as data traffic).
    AckSent {
        /// Traffic class being acknowledged.
        channel: ChannelId,
        /// Destination node (the original data sender).
        to: u32,
        /// Highest in-order sequence received on the link.
        seq: u32,
    },
    /// Engine stream: the idle fast-forward jumped the global clock.
    FastForward {
        /// Jump target cycle.
        to_cycle: u64,
        /// Cycles skipped.
        skipped: u64,
    },
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global cluster cycle of the event.
    pub cycle: u64,
    /// Payload.
    pub kind: EventKind,
}
