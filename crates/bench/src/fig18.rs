//! Figure 18 — communication bandwidth demand and breakdown.
//!
//! (A) average per-FPGA bandwidth demand in Gbps for the position and
//! force ports across the multi-chip designs (paper: below 25 Gbps even
//! for 2-SPE/3-PE);
//! (B) percentage breakdown of position and force traffic by peer node
//! (paper: forces concentrate on logically-near nodes because zero
//! forces are discarded rather than returned).

use crate::DESIGNS;
use fasda_cluster::{ClusterRunReport, EngineConfig};
use fasda_core::geometry::ChipCoord;

row! {
    /// One multi-FPGA design's per-node traffic.
    pub struct BandwidthRow {
        pub design: &'static str,
        pub fpgas: usize,
        pub pos_gbps: f64,
        pub frc_gbps: f64,
        pub pos_packets: u64,
        pub frc_packets: u64,
    }
    |r| "design": r.design, "FPGAs": r.fpgas, "pos Gbps": format!("{:.2}", r.pos_gbps),
        "frc Gbps": format!("{:.2}", r.frc_gbps), "pos pkts": r.pos_packets, "frc pkts": r.frc_packets
}

fn report(design: usize, steps: u64, engine: &EngineConfig) -> ClusterRunReport {
    DESIGNS[design].run(steps, engine).report.expect("a multi-FPGA design")
}

/// Bandwidth demand of every multi-FPGA design.
pub fn bandwidth(steps: u64, engine: &EngineConfig) -> Vec<BandwidthRow> {
    (1..DESIGNS.len())
        .map(|d| {
            let r = report(d, steps, engine);
            BandwidthRow {
                design: DESIGNS[d].label,
                fpgas: r.nodes,
                pos_gbps: r.pos_gbps_per_node(),
                frc_gbps: r.frc_gbps_per_node(),
                pos_packets: r.pos_packets,
                frc_packets: r.frc_packets,
            }
        })
        .collect()
}

row! {
    /// Node (0,0,0)'s share of its position and force traffic to one peer.
    pub struct PeerRow { pub design: &'static str, pub peer: ChipCoord, pub pos_share: f64, pub frc_share: f64 }
    |r| "design": r.design, "peer": format!("({},{},{})", r.peer.x, r.peer.y, r.peer.z), "type": r.kind(),
        "pos %": format!("{:.1}", 100.0 * r.pos_share), "frc %": format!("{:.1}", 100.0 * r.frc_share)
}

impl PeerRow {
    /// `face`, `edge` or `corner`: how many axes the peer is offset on.
    fn kind(&self) -> &'static str {
        let p = self.peer;
        match p.x.min(1) + p.y.min(1) + p.z.min(1) {
            1 => "face",
            2 => "edge",
            _ => "corner",
        }
    }
}

/// Node (0,0,0)'s traffic by peer on 6×6×6 (variant A) and 4×4×4-C
/// (paper: force traffic to corner peers ≈ 0).
pub fn peers(steps: u64, engine: &EngineConfig) -> Vec<PeerRow> {
    let mut rows = Vec::new();
    for d in [3, 6] {
        let r = report(d, steps, engine);
        let t = &r.per_node_traffic[0];
        let pos_total: u64 = t.pos_sent.values().sum();
        let frc_total: u64 = t.frc_sent.values().sum();
        let mut peers: Vec<ChipCoord> = t.pos_sent.keys().copied().collect();
        peers.sort_by_key(|c| (c.x, c.y, c.z));
        for peer in peers {
            let share = |sent: Option<&u64>, total: u64| *sent.unwrap_or(&0) as f64 / total.max(1) as f64;
            rows.push(PeerRow {
                design: DESIGNS[d].label,
                peer,
                pos_share: share(t.pos_sent.get(&peer), pos_total),
                frc_share: share(t.frc_sent.get(&peer), frc_total),
            });
        }
    }
    rows
}
