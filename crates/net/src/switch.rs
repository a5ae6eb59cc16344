//! Link bandwidth and delivery-time model.
//!
//! The testbed gives each FPGA two QSFP28 100 GbE ports — one for
//! positions, one for forces (§5.4) — through a Dell Z9100-ON switch.
//! [`SwitchFabric`] computes when a packet sent at some cycle arrives at
//! its destination: serialization on the source port (bandwidth), path
//! latency (topology), and destination-port contention, with per-port
//! next-free bookkeeping.

use crate::packet::PACKET_BITS;
use crate::topology::{NodeId, Topology};
use fasda_sim::Cycle;

/// Per-traffic-class link fabric.
#[derive(Clone, Debug)]
pub struct SwitchFabric {
    topology: Topology,
    /// Port bandwidth in bits per cycle. 100 Gb/s at 200 MHz = 500
    /// bits/cycle.
    bits_per_cycle: f64,
    tx_free: Vec<Cycle>,
    rx_free: Vec<Cycle>,
    /// Packets the fault layer dropped at this fabric's tx ports.
    pub packets_lost: u64,
    /// Total bits offered (bandwidth accounting).
    pub bits_sent: u64,
    /// Total packets carried.
    pub packets: u64,
}

impl SwitchFabric {
    /// The paper's testbed rate: 100 Gbps ports at a 200 MHz fabric
    /// clock.
    pub const PAPER_BITS_PER_CYCLE: f64 = 100.0e9 / 200.0e6;

    /// New fabric over `nodes` endpoints.
    pub fn new(topology: Topology, nodes: usize, bits_per_cycle: f64) -> Self {
        if let Some(cap) = topology.capacity() {
            assert!(nodes <= cap, "topology capacity exceeded");
        }
        assert!(bits_per_cycle > 0.0);
        SwitchFabric {
            topology,
            bits_per_cycle,
            tx_free: vec![0; nodes],
            rx_free: vec![0; nodes],
            packets_lost: 0,
            bits_sent: 0,
            packets: 0,
        }
    }

    /// Paper-testbed fabric: switch star, 100 Gbps ports.
    pub fn paper(nodes: usize) -> Self {
        SwitchFabric::new(Topology::PAPER_SWITCH, nodes, Self::PAPER_BITS_PER_CYCLE)
    }

    /// The underlying topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Cycles one 512-bit packet occupies a port.
    #[inline]
    fn ser(&self) -> u64 {
        (PACKET_BITS as f64 / self.bits_per_cycle).ceil() as u64
    }

    /// [`Topology::lookahead`] at this fabric's port rate: no packet
    /// sent at cycle `T` is delivered before `T + lookahead()`.
    pub fn lookahead(&self) -> u64 {
        self.topology.lookahead(self.ser())
    }

    /// Account a packet the fault layer dropped (or killed) in flight:
    /// the source port still serializes the frame, but it never arrives.
    pub fn drop_at_tx(&mut self, cycle: Cycle, src: NodeId) {
        let ser = self.ser();
        let tx_start = cycle.max(self.tx_free[src]);
        self.tx_free[src] = tx_start + ser;
        self.packets_lost += 1;
    }

    /// Send one 512-bit packet at `cycle`; returns its delivery cycle.
    ///
    /// Equivalent to [`SwitchFabric::tx_serialize`] followed by
    /// [`SwitchFabric::rx_admit`] — the sharded engine performs the two
    /// halves on different processes (the source shard serializes, the
    /// destination shard admits) and this in-process composition is the
    /// oracle they must reproduce bit for bit.
    pub fn send(&mut self, cycle: Cycle, src: NodeId, dst: NodeId) -> Cycle {
        let arrive = self.tx_serialize(cycle, src, dst);
        self.rx_admit(arrive, dst)
    }

    /// Source-side half of a send: serialize on the source port and fly
    /// to `dst`. Returns the arrival cycle at the destination port, the
    /// input to [`SwitchFabric::rx_admit`]. Mutates only source-port
    /// state, so a shard owning `src` can run it without seeing `dst`'s
    /// port.
    pub fn tx_serialize(&mut self, cycle: Cycle, src: NodeId, dst: NodeId) -> Cycle {
        let ser = self.ser();
        let tx_start = cycle.max(self.tx_free[src]);
        let tx_done = tx_start + ser;
        self.tx_free[src] = tx_done;
        tx_done + self.topology.path_latency(src, dst)
    }

    /// Destination-side half of a send: contend for the destination port
    /// from `arrive` onward. Returns the delivery cycle. Counts the
    /// packet (traffic accounting lives on the admitting side, so shard
    /// tallies sum to the oracle's counters).
    pub fn rx_admit(&mut self, arrive: Cycle, dst: NodeId) -> Cycle {
        let ser = self.ser();
        let rx_start = arrive.max(self.rx_free[dst]);
        let rx_done = rx_start + ser;
        self.rx_free[dst] = rx_done;
        self.bits_sent += PACKET_BITS;
        self.packets += 1;
        rx_done
    }

    /// One node's (tx_free, rx_free) port clocks — the per-node slice of
    /// fabric state a shard owns.
    pub fn port_state(&self, node: NodeId) -> (Cycle, Cycle) {
        (self.tx_free[node], self.rx_free[node])
    }

    /// Overwrite one node's port clocks (checkpoint splicing: the
    /// coordinator adopts each node's ports from the owning shard).
    pub fn set_port_state(&mut self, node: NodeId, tx_free: Cycle, rx_free: Cycle) {
        self.tx_free[node] = tx_free;
        self.rx_free[node] = rx_free;
    }
}

/// Checkpointing: topology and bandwidth are configuration; per-port
/// next-free times and the traffic counters are state.
impl fasda_ckpt::Snapshot for SwitchFabric {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        self.tx_free.save(w);
        self.rx_free.save(w);
        w.put_u64(self.packets_lost);
        w.put_u64(self.bits_sent);
        w.put_u64(self.packets);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        let tx_free: Vec<Cycle> = Persist::load(r)?;
        let rx_free: Vec<Cycle> = Persist::load(r)?;
        if tx_free.len() != self.tx_free.len() || rx_free.len() != self.rx_free.len() {
            return Err(r.malformed(format!(
                "fabric port count mismatch: snapshot has {}/{}, fabric has {}",
                tx_free.len(),
                rx_free.len(),
                self.tx_free.len()
            )));
        }
        self.tx_free = tx_free;
        self.rx_free = rx_free;
        self.packets_lost = r.get_u64()?;
        self.bits_sent = r.get_u64()?;
        self.packets = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> SwitchFabric {
        SwitchFabric::new(Topology::Switch { latency: 200 }, 4, 512.0)
    }

    #[test]
    fn single_packet_latency() {
        let mut f = fabric();
        // ser = 1 cycle at 512 b/cyc; 1 (tx) + 200 (flight) + 1 (rx)
        assert_eq!(f.send(0, 0, 1), 202);
        assert_eq!(f.packets, 1);
        assert_eq!(f.bits_sent, 512);
    }

    #[test]
    fn source_port_serializes_back_to_back() {
        let mut f = fabric();
        let d1 = f.send(0, 0, 1);
        let d2 = f.send(0, 0, 2);
        assert_eq!(d1, 202);
        assert_eq!(d2, 203, "second packet waits one serialization slot");
    }

    #[test]
    fn destination_port_contends() {
        let mut f = fabric();
        let d1 = f.send(0, 0, 3);
        let d2 = f.send(0, 1, 3);
        assert_eq!(d1, 202);
        assert!(d2 > d1, "same rx port serializes: {d2}");
    }

    #[test]
    fn lookahead_bounds_every_delivery() {
        assert_eq!(SwitchFabric::paper(8).lookahead(), 204);
        let mut f = fabric();
        assert_eq!(f.lookahead(), 202);
        for (t, src, dst) in [(0, 0, 1), (0, 0, 2), (5, 1, 2), (5, 3, 2)] {
            assert!(f.send(t, src, dst) >= t + f.lookahead());
        }
    }

    #[test]
    fn paper_rate_is_500_bits_per_cycle() {
        assert_eq!(SwitchFabric::PAPER_BITS_PER_CYCLE, 500.0);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn ring_capacity_enforced() {
        SwitchFabric::new(
            Topology::HyperRing {
                nodes: 2,
                hop_latency: 1,
            },
            3,
            500.0,
        );
    }
}
