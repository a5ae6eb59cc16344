//! Chained synchronization (paper §4.4, Figs. 12–13) and the
//! bulk-synchronous baseline it replaces.
//!
//! Each node synchronizes **only with its immediate neighbours**, through
//! in-band `last` markers:
//!
//! 1. after routing all of its positions, a node sends *last-position* to
//!    every peer it broadcasts to;
//! 2. after processing all positions received from a peer (and returning
//!    the resulting forces), it answers that peer with *last-force*;
//! 3. a node may enter motion update once four criteria hold: last-pos
//!    sent to all send-peers, last-pos received from all recv-peers,
//!    last-force sent to all recv-peers, last-force received from all
//!    send-peers;
//! 4. motion update uses a single *last-migration* handshake per
//!    neighbour.
//!
//! Because a finished node proceeds immediately, a straggler delays only
//! the nodes that transitively depend on it — markers can therefore
//! arrive for a *future* step and are buffered per step.

use crate::packet::PacketKind;

/// Synchronization strategy for the cluster driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SyncMode {
    /// The paper's chained synchronization.
    Chained,
    /// Bulk-synchronous baseline: a central barrier (host or central
    /// FPGA) with the given one-way latency in cycles.
    Bulk {
        /// One-way coordinator latency (cycles). A host round trip is
        /// "milliseconds for a single MD iteration" (§4.4) — 200k cycles
        /// per ms at 200 MHz; a central FPGA is cheaper but still far
        /// from free.
        latency: u64,
    },
}

/// `last` markers received for one step, as masks over the peer lists:
/// `pos` over `recv_peers`, `frc` over `send_peers`, `mig` over
/// `mig_peers`.
#[derive(Clone, Copy, Debug, Default)]
struct StepMarkers {
    pos: u64,
    frc: u64,
    mig: u64,
}

/// Per-node chained synchronization state machine.
///
/// Every peer set is a `u64` mask over the position of the peer in the
/// corresponding list, so the predicates the driver evaluates every cycle
/// for every node ([`ChainedSync::force_phase_complete`],
/// [`ChainedSync::owed_last_frc`]) are a handful of mask compares. Marker
/// events, which name a peer by value, look its position up.
#[derive(Clone, Debug)]
pub struct ChainedSync<P: Eq + Clone> {
    /// Peers this node sends positions to (and receives forces from).
    pub send_peers: Vec<P>,
    /// Peers this node receives positions from (and sends forces to).
    pub recv_peers: Vec<P>,
    /// Peers exchanged with during motion update (migration can cross
    /// any face: the union of the two sets).
    pub mig_peers: Vec<P>,
    step: u64,
    /// Over `send_peers`.
    sent_pos: u64,
    /// Over `recv_peers`.
    sent_frc: u64,
    /// Over `mig_peers`.
    sent_mig: u64,
    /// Buffered markers by step, ascending; nothing older than `step`.
    received: Vec<(u64, StepMarkers)>,
}

/// Bits `0..n` (the "every peer" mask of an `n`-peer list).
fn all_of(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn bit_of<P: Eq>(peers: &[P], peer: &P) -> u64 {
    peers.iter().position(|p| p == peer).map_or(0, |i| 1u64 << i)
}

impl<P: Eq + Clone> ChainedSync<P> {
    /// Build the state machine for a node's neighbourhood.
    pub fn new(send_peers: Vec<P>, recv_peers: Vec<P>) -> Self {
        let mut mig_peers = send_peers.clone();
        for p in &recv_peers {
            if !mig_peers.contains(p) {
                mig_peers.push(p.clone());
            }
        }
        assert!(mig_peers.len() <= 64, "peer sets are u64 masks: at most 64 neighbours");
        ChainedSync {
            send_peers,
            recv_peers,
            mig_peers,
            step: 0,
            sent_pos: 0,
            sent_frc: 0,
            sent_mig: 0,
            received: Vec::new(),
        }
    }

    /// Current step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Arm the state machine for a new step. Markers already received for
    /// this step (from fast neighbours) remain credited.
    pub fn begin_step(&mut self, step: u64) {
        assert!(step >= self.step, "steps are monotonic");
        // Drop buffered markers for completed steps.
        self.received.retain(|&(s, _)| s >= step);
        self.step = step;
        self.sent_pos = 0;
        self.sent_frc = 0;
        self.sent_mig = 0;
    }

    /// Record an incoming `last` marker.
    pub fn on_marker(&mut self, kind: PacketKind, peer: P, step: u64) {
        debug_assert!(
            step >= self.step,
            "marker for an already-completed step"
        );
        let at = self.received.partition_point(|&(s, _)| s < step);
        if self.received.get(at).is_none_or(|&(s, _)| s != step) {
            self.received.insert(at, (step, StepMarkers::default()));
        }
        let m = &mut self.received[at].1;
        let (set, peers) = match kind {
            PacketKind::Position => (&mut m.pos, &self.recv_peers),
            PacketKind::Force => (&mut m.frc, &self.send_peers),
            PacketKind::Migration => (&mut m.mig, &self.mig_peers),
        };
        let bit = bit_of(peers, &peer);
        debug_assert!(bit != 0, "marker from a peer outside the neighbourhood");
        *set |= bit;
    }

    /// Markers received for the current step (the oldest buffered entry,
    /// if it is for this step).
    fn current(&self) -> StepMarkers {
        match self.received.first() {
            Some(&(s, m)) if s == self.step => m,
            _ => StepMarkers::default(),
        }
    }

    /// Note that *last-position* departed to `peer`.
    pub fn mark_last_pos_sent(&mut self, peer: P) {
        self.sent_pos |= bit_of(&self.send_peers, &peer);
    }

    /// Note that *last-force* departed to `peer`.
    pub fn mark_last_frc_sent(&mut self, peer: P) {
        self.sent_frc |= bit_of(&self.recv_peers, &peer);
    }

    /// Note that *last-migration* departed to `peer`.
    pub fn mark_last_mig_sent(&mut self, peer: P) {
        self.sent_mig |= bit_of(&self.mig_peers, &peer);
    }

    /// The receive peers this node still owes a last-force marker (their
    /// last-position arrived, the answer has not left), as a mask over
    /// `recv_peers` positions.
    pub fn owed_last_frc(&self) -> u64 {
        self.current().pos & !self.sent_frc
    }

    /// The four force-phase criteria of §4.4 (Fig. 13): a node "can
    /// independently proceed to the motion update phase" when all hold.
    pub fn force_phase_complete(&self) -> bool {
        let m = self.current();
        let (send, recv) = (all_of(self.send_peers.len()), all_of(self.recv_peers.len()));
        self.sent_pos == send && m.pos == recv && self.sent_frc == recv && m.frc == send
    }

    /// The simplified single-handshake MU criterion (§4.4).
    pub fn mu_phase_complete(&self) -> bool {
        let all = all_of(self.mig_peers.len());
        self.sent_mig == all && self.current().mig == all
    }
}

/// Bulk-synchronous baseline: every node reports to a coordinator, which
/// releases them all once the slowest has arrived.
#[derive(Clone, Debug)]
pub struct BulkBarrier {
    n: usize,
    latency: u64,
    /// Arrival bitset, 64 nodes per word.
    arrived: Vec<u64>,
    slowest: u64,
}

impl BulkBarrier {
    /// Barrier over `n` nodes with one-way coordinator latency.
    pub fn new(n: usize, latency: u64) -> Self {
        BulkBarrier {
            n,
            latency,
            arrived: vec![0; n.div_ceil(64)],
            slowest: 0,
        }
    }

    fn arrivals(&self) -> usize {
        self.arrived.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Node `id` reaches the barrier at `cycle`. Returns the global
    /// release cycle once every node has arrived.
    pub fn arrive(&mut self, id: usize, cycle: u64) -> Option<u64> {
        assert!(id < self.n);
        self.arrived[id / 64] |= 1 << (id % 64);
        self.slowest = self.slowest.max(cycle);
        if self.arrivals() == self.n {
            // arrival message + release broadcast
            Some(self.slowest + 2 * self.latency)
        } else {
            None
        }
    }

    /// Reset for the next phase.
    pub fn reset(&mut self) {
        self.arrived.fill(0);
        self.slowest = 0;
    }
}

/// Write the peers a mask names as the `HashSet<P>` the format holds:
/// count, then the peers in ascending order.
fn save_peer_set<P: fasda_ckpt::Persist + Ord>(mask: u64, peers: &[P], w: &mut fasda_ckpt::Writer) {
    let mut named: Vec<&P> = peers
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 != 0)
        .map(|(_, p)| p)
        .collect();
    named.sort();
    w.put_usize(named.len());
    for p in named {
        p.save(w);
    }
}

fn load_peer_set<P: fasda_ckpt::Persist + Eq>(
    peers: &[P],
    r: &mut fasda_ckpt::Reader<'_>,
) -> Result<u64, fasda_ckpt::CkptError> {
    let mut mask = 0;
    for _ in 0..r.get_len()? {
        let bit = bit_of(peers, &P::load(r)?);
        if bit == 0 || mask & bit != 0 {
            return Err(r.malformed("marker set names a peer twice or one outside the neighbourhood"));
        }
        mask |= bit;
    }
    Ok(mask)
}

/// Checkpointing: the peer lists are configuration (rebuilt from the
/// topology); the step counter, sent-marker sets, and buffered received
/// markers — including markers already credited to *future* steps by
/// fast neighbours — are state. The byte layout is that of the peer-value
/// sets the masks replaced: each set as its sorted members, the buffered
/// steps as a map in ascending step order.
impl<P: fasda_ckpt::Persist + Ord + Clone> fasda_ckpt::Snapshot for ChainedSync<P> {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u64(self.step);
        save_peer_set(self.sent_pos, &self.send_peers, w);
        save_peer_set(self.sent_frc, &self.recv_peers, w);
        save_peer_set(self.sent_mig, &self.mig_peers, w);
        w.put_usize(self.received.len());
        for &(step, m) in &self.received {
            w.put_u64(step);
            save_peer_set(m.pos, &self.recv_peers, w);
            save_peer_set(m.frc, &self.send_peers, w);
            save_peer_set(m.mig, &self.mig_peers, w);
        }
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        self.step = r.get_u64()?;
        self.sent_pos = load_peer_set(&self.send_peers, r)?;
        self.sent_frc = load_peer_set(&self.recv_peers, r)?;
        self.sent_mig = load_peer_set(&self.mig_peers, r)?;
        self.received.clear();
        for _ in 0..r.get_len()? {
            let step = r.get_u64()?;
            if self.received.last().is_some_and(|&(s, _)| s >= step) {
                return Err(r.malformed("buffered marker steps out of order"));
            }
            let m = StepMarkers {
                pos: load_peer_set(&self.recv_peers, r)?,
                frc: load_peer_set(&self.send_peers, r)?,
                mig: load_peer_set(&self.mig_peers, r)?,
            };
            self.received.push((step, m));
        }
        Ok(())
    }
}

/// Checkpointing: node count and latency are configuration; the arrival
/// set and slowest-arrival clock are state.
impl fasda_ckpt::Snapshot for BulkBarrier {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        w.put_usize(self.arrivals());
        for id in (0..self.n).filter(|id| self.arrived[id / 64] >> (id % 64) & 1 != 0) {
            w.put_usize(id);
        }
        w.put_u64(self.slowest);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        self.arrived.fill(0);
        for _ in 0..r.get_len()? {
            let id = r.get_usize()?;
            if id >= self.n {
                return Err(r.malformed("barrier arrival id out of range"));
            }
            self.arrived[id / 64] |= 1 << (id % 64);
        }
        self.slowest = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync2() -> ChainedSync<u8> {
        ChainedSync::new(vec![1, 2], vec![1, 2])
    }

    /// True if last-position was received from `peer` for the current
    /// step.
    fn last_pos_received(s: &ChainedSync<u8>, peer: u8) -> bool {
        s.current().pos & bit_of(&s.recv_peers, &peer) != 0
    }

    #[test]
    fn four_criteria_required() {
        let mut s = sync2();
        s.begin_step(0);
        assert!(!s.force_phase_complete());
        s.mark_last_pos_sent(1);
        s.mark_last_pos_sent(2);
        assert!(!s.force_phase_complete());
        s.on_marker(PacketKind::Position, 1, 0);
        s.on_marker(PacketKind::Position, 2, 0);
        assert!(s.owed_last_frc() & bit_of(&s.recv_peers, &1) != 0, "owes peer 1 last-force");
        s.mark_last_frc_sent(1);
        s.mark_last_frc_sent(2);
        assert!(!s.force_phase_complete(), "still missing last-force in");
        s.on_marker(PacketKind::Force, 1, 0);
        assert!(!s.force_phase_complete());
        s.on_marker(PacketKind::Force, 2, 0);
        assert!(s.force_phase_complete());
    }

    #[test]
    fn early_markers_buffer_for_future_steps() {
        let mut s = sync2();
        s.begin_step(0);
        // fast neighbour already racing ahead: sends step-1 markers
        s.on_marker(PacketKind::Position, 1, 1);
        assert!(!last_pos_received(&s, 1), "step-1 marker must not credit step 0");
        s.on_marker(PacketKind::Position, 1, 0);
        assert!(last_pos_received(&s, 1));
        s.begin_step(1);
        assert!(last_pos_received(&s, 1), "buffered step-1 marker now visible");
    }

    #[test]
    fn mu_single_handshake() {
        let mut s = sync2();
        s.begin_step(0);
        assert!(!s.mu_phase_complete());
        s.mark_last_mig_sent(1);
        s.mark_last_mig_sent(2);
        assert!(!s.mu_phase_complete());
        s.on_marker(PacketKind::Migration, 1, 0);
        s.on_marker(PacketKind::Migration, 2, 0);
        assert!(s.mu_phase_complete());
    }

    #[test]
    fn isolated_node_always_complete() {
        let mut s: ChainedSync<u8> = ChainedSync::new(vec![], vec![]);
        s.begin_step(0);
        assert!(s.force_phase_complete());
        assert!(s.mu_phase_complete());
    }

    #[test]
    fn bulk_barrier_waits_for_slowest() {
        let mut b = BulkBarrier::new(3, 100);
        assert_eq!(b.arrive(0, 1_000), None);
        assert_eq!(b.arrive(2, 5_000), None);
        assert_eq!(b.arrive(1, 2_000), Some(5_200));
        b.reset();
        assert_eq!(b.arrive(0, 10), None);
    }

    #[test]
    fn asymmetric_peer_sets() {
        // sends to {1}, receives from {2}
        let mut s = ChainedSync::new(vec![1], vec![2]);
        s.begin_step(3);
        s.mark_last_pos_sent(1);
        s.on_marker(PacketKind::Position, 2, 3);
        s.mark_last_frc_sent(2);
        s.on_marker(PacketKind::Force, 1, 3);
        assert!(s.force_phase_complete());
        assert_eq!(s.mig_peers.len(), 2);
    }
}
