//! P2R/F2R encapsulation chains with departure cooldown
//! (paper §4.3 Fig. 11, §5.4).
//!
//! Departing flits pass through a chain of per-peer encapsulators
//! ("departure gates"). Each gate stages up to four payloads; once its
//! four registers fill — or the phase ends and the gate is flushed with a
//! `last` marker — a packet is formed and arbitrated for departure.
//! "We limit the transmission of each board to once per several cycles
//! using cooldown counters, effectively spreading out a peak over a
//! period of time" (§5.4): the packetizer releases at most one packet per
//! `cooldown` cycles, round-robin across gates.

use crate::packet::{Packet, PacketKind, PAYLOADS_PER_PACKET};
use fasda_sim::Cycle;
use std::collections::VecDeque;

/// A set of per-peer encapsulation gates for one traffic class.
#[derive(Clone, Debug)]
pub struct Packetizer<P, T> {
    kind: PacketKind,
    peers: Vec<P>,
    staging: Vec<Vec<T>>,
    ready: VecDeque<(usize, Packet<T>)>,
    cooldown: u32,
    next_allowed: Cycle,
    rr: usize,
    /// Packets emitted (for bandwidth accounting).
    pub packets_sent: u64,
}

impl<P: PartialEq + Clone, T> Packetizer<P, T> {
    /// A packetizer with one gate per peer.
    pub fn new(kind: PacketKind, peers: Vec<P>, cooldown: u32) -> Self {
        let n = peers.len();
        Packetizer {
            kind,
            peers,
            staging: (0..n).map(|_| Vec::with_capacity(PAYLOADS_PER_PACKET)).collect(),
            ready: VecDeque::new(),
            cooldown,
            next_allowed: 0,
            rr: 0,
            packets_sent: 0,
        }
    }

    fn gate(&self, peer: &P) -> usize {
        self.peers
            .iter()
            .position(|p| p == peer)
            .expect("unknown peer")
    }

    /// Stage one payload for a peer; forms a packet when the gate's four
    /// registers fill.
    pub fn offer(&mut self, peer: &P, item: T, step: u64) {
        let g = self.gate(peer);
        self.staging[g].push(item);
        if self.staging[g].len() == PAYLOADS_PER_PACKET {
            let payloads = std::mem::replace(
                &mut self.staging[g],
                Vec::with_capacity(PAYLOADS_PER_PACKET),
            );
            self.ready
                .push_back((g, Packet::data(self.kind, payloads, step)));
        }
    }

    /// Flush a peer's gate with the in-band `last` marker: any staged
    /// payloads depart in a final (possibly short or empty) packet whose
    /// `last` flag is set.
    pub fn flush_last(&mut self, peer: &P, step: u64) {
        let g = self.gate(peer);
        let payloads = std::mem::take(&mut self.staging[g]);
        let mut pkt = Packet::data(self.kind, payloads, step);
        pkt.last = true;
        self.ready.push_back((g, pkt));
    }

    /// Flush a peer's staged payloads without a marker (end of burst).
    pub fn flush(&mut self, peer: &P, step: u64) {
        let g = self.gate(peer);
        if !self.staging[g].is_empty() {
            let payloads = std::mem::take(&mut self.staging[g]);
            self.ready.push_back((g, Packet::data(self.kind, payloads, step)));
        }
    }

    /// Release at most one packet this cycle, respecting the cooldown.
    #[inline]
    pub fn tick(&mut self, cycle: Cycle) -> Option<(P, Packet<T>)> {
        if cycle < self.next_allowed {
            return None;
        }
        let (g, pkt) = self.ready.pop_front()?;
        self.next_allowed = cycle + self.cooldown as u64;
        self.rr = (g + 1) % self.peers.len().max(1);
        self.packets_sent += 1;
        Some((self.peers[g].clone(), pkt))
    }

    /// True when nothing is staged or awaiting departure.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty() && self.staging.iter().all(Vec::is_empty)
    }

    /// Earliest cycle `>= now` at which [`Packetizer::tick`] can release a
    /// packet, or `None` when nothing is queued for departure. Staged
    /// payloads that have not yet formed a packet do not count: they only
    /// become releasable through a further `offer`/`flush` call.
    #[inline]
    pub fn next_departure(&self, now: Cycle) -> Option<Cycle> {
        if self.ready.is_empty() {
            None
        } else {
            Some(now.max(self.next_allowed))
        }
    }

    /// Packets queued for departure.
    pub fn pending(&self) -> usize {
        self.ready.len()
    }

    /// Staged payloads for one peer (not yet packetized).
    pub fn staged(&self, peer: &P) -> usize {
        self.staging[self.gate(peer)].len()
    }
}

/// Checkpointing: the kind, peer list, and cooldown are configuration;
/// staged payloads, formed-but-undeparted packets, the cooldown clock,
/// and the round-robin cursor are state.
impl<P, T: fasda_ckpt::Persist> fasda_ckpt::Snapshot for Packetizer<P, T> {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        self.staging.save(w);
        w.put_usize(self.ready.len());
        for (gate, pkt) in &self.ready {
            w.put_usize(*gate);
            pkt.save(w);
        }
        w.put_u64(self.next_allowed);
        w.put_usize(self.rr);
        w.put_u64(self.packets_sent);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        let staging: Vec<Vec<T>> = Persist::load(r)?;
        if staging.len() != self.peers.len() {
            return Err(r.malformed(format!(
                "gate count mismatch: snapshot has {}, packetizer has {}",
                staging.len(),
                self.peers.len()
            )));
        }
        let n = r.get_len()?;
        let mut ready = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            let gate = r.get_usize()?;
            if gate >= self.peers.len() {
                return Err(r.malformed(format!("gate index {gate} out of range")));
            }
            let pkt: Packet<T> = Persist::load(r)?;
            if pkt.kind != self.kind {
                return Err(r.malformed("ready packet kind disagrees with packetizer"));
            }
            ready.push_back((gate, pkt));
        }
        self.staging = staging;
        self.ready = ready;
        self.next_allowed = r.get_u64()?;
        self.rr = r.get_usize()?;
        self.packets_sent = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pz() -> Packetizer<u8, u32> {
        Packetizer::new(PacketKind::Position, vec![10, 20], 4)
    }

    #[test]
    fn four_payloads_form_a_packet() {
        let mut p = pz();
        for i in 0..3 {
            p.offer(&10, i, 0);
        }
        assert_eq!(p.pending(), 0);
        assert_eq!(p.staged(&10), 3);
        p.offer(&10, 3, 0);
        assert_eq!(p.pending(), 1);
        assert_eq!(p.staged(&10), 0);
        let (peer, pkt) = p.tick(0).expect("packet ready");
        assert_eq!(peer, 10);
        assert_eq!(pkt.payloads, vec![0, 1, 2, 3]);
        assert!(!pkt.last);
    }

    #[test]
    fn cooldown_spreads_departures() {
        let mut p = pz();
        for i in 0..8 {
            p.offer(&10, i, 0);
        }
        assert_eq!(p.pending(), 2);
        assert!(p.tick(0).is_some());
        assert!(p.tick(1).is_none(), "cooldown blocks");
        assert!(p.tick(3).is_none());
        assert!(p.tick(4).is_some(), "cooldown expired");
        assert_eq!(p.packets_sent, 2);
    }

    #[test]
    fn flush_last_emits_short_marked_packet() {
        let mut p = pz();
        p.offer(&20, 9, 5);
        p.flush_last(&20, 5);
        let (peer, pkt) = p.tick(0).unwrap();
        assert_eq!(peer, 20);
        assert!(pkt.last);
        assert_eq!(pkt.payloads, vec![9]);
        assert_eq!(pkt.step, 5);
        assert!(p.is_empty());
    }

    #[test]
    fn flush_last_on_empty_gate_is_bare_marker() {
        let mut p = pz();
        p.flush_last(&10, 2);
        let (_, pkt) = p.tick(0).unwrap();
        assert!(pkt.last && pkt.payloads.is_empty());
    }

    #[test]
    fn flush_without_marker() {
        let mut p = pz();
        p.offer(&10, 1, 0);
        p.flush(&10, 0);
        let (_, pkt) = p.tick(0).unwrap();
        assert!(!pkt.last);
        assert_eq!(pkt.payloads, vec![1]);
        // flushing an empty gate does nothing
        p.flush(&10, 0);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown peer")]
    fn unknown_peer_panics() {
        pz().offer(&99, 0, 0);
    }

    #[test]
    fn next_departure_tracks_cooldown() {
        let mut p = pz();
        assert_eq!(p.next_departure(0), None, "nothing queued");
        for i in 0..3 {
            p.offer(&10, i, 0);
        }
        assert_eq!(p.next_departure(0), None, "staged only, no packet yet");
        p.offer(&10, 3, 0);
        assert_eq!(p.next_departure(7), Some(7), "ready and past cooldown");
        p.offer(&20, 0, 0);
        p.flush(&20, 0);
        assert!(p.tick(10).is_some());
        assert_eq!(p.next_departure(11), Some(14), "cooldown gates the next one");
        assert_eq!(p.next_departure(20), Some(20));
    }
}
