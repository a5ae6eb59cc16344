//! Inter-node topologies: switch star and hyper-rings (paper §4.1,
//! Fig. 8).
//!
//! The testbed connects every FPGA's QSFP28 ports to one 100 GbE switch;
//! logically the nodes form a 3-D torus. The paper also describes direct
//! FPGA-to-FPGA rings ("a hyper-ring of 2nd order", and 3rd order via
//! FMC), where latency grows with ring distance. [`Topology`] abstracts
//! both: it maps a `(src, dst)` node pair to a path latency in cycles.

/// Node index in the cluster (dense, `0..n`).
pub type NodeId = usize;

/// Inter-node connection structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// All nodes attached to one store-and-forward switch: constant
    /// latency between any pair (plus serialization, handled by
    /// [`crate::switch::SwitchFabric`]).
    Switch {
        /// One-way switch traversal latency in cycles.
        latency: u64,
    },
    /// Nodes on a single ring with direct links; packets hop the shorter
    /// way around.
    HyperRing {
        /// Nodes on the ring.
        nodes: usize,
        /// Per-hop link latency in cycles.
        hop_latency: u64,
    },
    /// A 2nd-order hyper-ring: rings of rings. `inner` nodes per inner
    /// ring; hops within an inner ring cost `hop_latency`, moving between
    /// adjacent inner rings costs `bridge_latency`.
    HyperRing2 {
        /// Nodes per inner ring.
        inner: usize,
        /// Number of inner rings.
        rings: usize,
        /// Per-hop latency inside a ring.
        hop_latency: u64,
        /// Latency of a bridge hop between adjacent rings.
        bridge_latency: u64,
    },
}

impl Topology {
    /// The paper's testbed: Dell Z9100-ON switch, ~1 µs one-way at
    /// 200 MHz ≈ 200 cycles.
    pub const PAPER_SWITCH: Topology = Topology::Switch { latency: 200 };

    /// Total nodes the topology supports (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        match self {
            Topology::Switch { .. } => None,
            Topology::HyperRing { nodes, .. } => Some(*nodes),
            Topology::HyperRing2 { inner, rings, .. } => Some(inner * rings),
        }
    }

    /// Ring distance (shorter way around) between positions on a ring of
    /// `n` nodes.
    fn ring_dist(a: usize, b: usize, n: usize) -> u64 {
        let d = (a as i64 - b as i64).rem_euclid(n as i64) as u64;
        d.min(n as u64 - d)
    }

    /// One-way path latency in cycles from `src` to `dst`.
    pub fn path_latency(&self, src: NodeId, dst: NodeId) -> u64 {
        if src == dst {
            return 0;
        }
        match *self {
            Topology::Switch { latency } => latency,
            Topology::HyperRing { nodes, hop_latency } => {
                Self::ring_dist(src, dst, nodes) * hop_latency
            }
            Topology::HyperRing2 {
                inner,
                rings,
                hop_latency,
                bridge_latency,
            } => {
                let (ra, pa) = (src / inner, src % inner);
                let (rb, pb) = (dst / inner, dst % inner);
                Self::ring_dist(ra, rb, rings) * bridge_latency
                    + Self::ring_dist(pa, pb, inner) * hop_latency
            }
        }
    }

    /// Minimum path latency over distinct node pairs of a fully
    /// populated topology. A degenerate axis (a one-node inner ring, a
    /// single ring) contributes no pair and is left out.
    pub fn min_latency(&self) -> u64 {
        match *self {
            Topology::Switch { latency } => latency,
            Topology::HyperRing { hop_latency, .. } => hop_latency,
            Topology::HyperRing2 {
                inner,
                rings,
                hop_latency,
                bridge_latency,
            } => match (inner > 1, rings > 1) {
                (true, true) => hop_latency.min(bridge_latency),
                (false, true) => bridge_latency,
                _ => hop_latency,
            },
        }
    }

    /// Conservative lookahead window for parallel multi-chip simulation:
    /// a packet put on the wire at cycle `T` pays `ser` cycles on the
    /// source port, the path, and `ser` cycles on the destination port,
    /// so its receiver cannot observe it before `T + lookahead`. The
    /// minimum over all ordered pairs of distinct nodes of
    /// `2·ser + path_latency` (a partially populated ring can only be
    /// slower, which keeps the bound conservative).
    pub fn lookahead(&self, ser: u64) -> u64 {
        2 * ser + self.min_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_is_uniform() {
        let t = Topology::Switch { latency: 200 };
        assert_eq!(t.path_latency(0, 5), 200);
        assert_eq!(t.path_latency(5, 0), 200);
        assert_eq!(t.path_latency(3, 3), 0);
        assert_eq!(t.min_latency(), 200);
        assert_eq!(t.capacity(), None);
    }

    #[test]
    fn ring_takes_shorter_way() {
        let t = Topology::HyperRing {
            nodes: 8,
            hop_latency: 10,
        };
        assert_eq!(t.path_latency(0, 1), 10);
        assert_eq!(t.path_latency(0, 7), 10, "wraps the short way");
        assert_eq!(t.path_latency(0, 4), 40, "diameter");
        assert_eq!(t.path_latency(2, 6), 40);
        assert_eq!(t.capacity(), Some(8));
    }

    #[test]
    fn ring_symmetric() {
        let t = Topology::HyperRing {
            nodes: 5,
            hop_latency: 7,
        };
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(t.path_latency(a, b), t.path_latency(b, a));
            }
        }
    }

    #[test]
    fn second_order_combines_components() {
        let t = Topology::HyperRing2 {
            inner: 4,
            rings: 3,
            hop_latency: 5,
            bridge_latency: 20,
        };
        // node 1 (ring 0, pos 1) → node 6 (ring 1, pos 2)
        assert_eq!(t.path_latency(1, 6), 20 + 5);
        // same ring
        assert_eq!(t.path_latency(0, 2), 10);
        // opposite rings, opposite positions: 1 bridge (3 rings → dist 1) + 2 hops
        assert_eq!(t.path_latency(0, 10), 20 + 10);
        assert_eq!(t.capacity(), Some(12));
        assert_eq!(t.min_latency(), 5);
    }

    /// The closed-form lookahead equals the brute-force minimum of
    /// `2·ser + path_latency` over all ordered pairs of distinct nodes,
    /// for every topology kind (degenerate axes included).
    #[test]
    fn lookahead_is_the_brute_force_pair_minimum() {
        let cases: Vec<(Topology, usize)> = vec![
            (Topology::PAPER_SWITCH, 8),
            (Topology::Switch { latency: 0 }, 3),
            (Topology::HyperRing { nodes: 8, hop_latency: 1 }, 8),
            (Topology::HyperRing { nodes: 2, hop_latency: 9 }, 2),
            (Topology::HyperRing { nodes: 5, hop_latency: 7 }, 5),
            (Topology::HyperRing2 { inner: 4, rings: 2, hop_latency: 5, bridge_latency: 20 }, 8),
            (Topology::HyperRing2 { inner: 2, rings: 4, hop_latency: 30, bridge_latency: 3 }, 8),
            (Topology::HyperRing2 { inner: 1, rings: 8, hop_latency: 1, bridge_latency: 12 }, 8),
            (Topology::HyperRing2 { inner: 8, rings: 1, hop_latency: 4, bridge_latency: 1 }, 8),
        ];
        for (t, n) in cases {
            for ser in [1u64, 2, 7] {
                let brute = (0..n)
                    .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
                    .map(|(a, b)| 2 * ser + t.path_latency(a, b))
                    .min()
                    .expect("at least one pair");
                assert_eq!(t.lookahead(ser), brute, "{t:?} ser {ser}");
            }
        }
        // The paper testbed: 2·⌈512/500⌉ + 200.
        assert_eq!(Topology::PAPER_SWITCH.lookahead(2), 204);
        assert_eq!(Topology::HyperRing { nodes: 8, hop_latency: 1 }.lookahead(2), 5);
    }
}
