//! Cluster run reports: timing, utilization, and traffic — the raw
//! material for Figs. 16–18.

use fasda_core::timed::TrafficCounters;
use fasda_md::units::UnitSystem;
use fasda_sim::StatSet;
use fasda_trace::Json;

/// One node's record for one completed timestep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeStepReport {
    /// Node index.
    pub node: usize,
    /// Timestep index.
    pub step: u64,
    /// Force-phase duration in global cycles (includes waits on
    /// neighbours — this is the node's wall time in the phase).
    pub force_cycles: u64,
    /// Motion-update phase duration in global cycles.
    pub mu_cycles: u64,
    /// Global cycle at which the node finished the step.
    pub wall_end: u64,
}

/// Reliability-layer counters for one run (present only when the
/// retransmission layer was enabled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelSummary {
    /// Frames re-sent after a head-of-line timeout.
    pub retransmits: u64,
    /// Cumulative acks put on the fabric.
    pub acks_sent: u64,
    /// Frames discarded by the receiver's dedup window.
    pub duplicates_dropped: u64,
    /// Frames discarded for failing the checksum (fault-corrupted).
    pub corrupt_dropped: u64,
}

/// Aggregate report for a multi-step cluster run, or for every segment
/// of one folded so far ([`ClusterRunReport::fold`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterRunReport {
    /// Steps executed.
    pub steps: u64,
    /// Wall-clock cycles for the whole run (all nodes done).
    pub total_cycles: u64,
    /// Per-node per-step records.
    pub records: Vec<NodeStepReport>,
    /// Cluster-merged component utilization counters.
    pub stats: StatSet,
    /// Per-node flit-level traffic counters.
    pub per_node_traffic: Vec<TrafficCounters>,
    /// Packets carried by the position port fabric (positions +
    /// migration).
    pub pos_packets: u64,
    /// Packets carried by the force port fabric.
    pub frc_packets: u64,
    /// Bits carried by the position port fabric.
    pub pos_bits: u64,
    /// Bits carried by the force port fabric.
    pub frc_bits: u64,
    /// Fabric clock.
    pub clock_hz: f64,
    /// Timestep, femtoseconds.
    pub dt_fs: f64,
    /// Node count.
    pub nodes: usize,
    /// Faults the plan injected (0 when no fault plan was active).
    pub faults_injected: u64,
    /// Reliability-layer counters, when the layer was on.
    pub reliability: Option<RelSummary>,
}

impl ClusterRunReport {
    /// The report of a run that has completed no segment yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one completed segment's report in. `report.steps` is the
    /// absolute step target the segment ran to. Per-segment quantities
    /// (records, merged stats, traffic, cycles) are summed. Fabric
    /// packet/bit counters, fault tallies and reliability counters are
    /// cumulative *inside* the cluster state (they survive
    /// snapshot/restore), so the latest segment's report already carries
    /// their run totals: those fields are overwritten, not summed.
    pub fn fold(&mut self, report: &ClusterRunReport) {
        self.steps = report.steps;
        self.total_cycles += report.total_cycles;
        self.records.extend_from_slice(&report.records);
        self.stats.accumulate_from(&report.stats);
        if self.per_node_traffic.is_empty() {
            self.per_node_traffic = report.per_node_traffic.clone();
        } else {
            for (mine, theirs) in self.per_node_traffic.iter_mut().zip(&report.per_node_traffic) {
                mine.merge_from(theirs);
            }
        }
        self.pos_packets = report.pos_packets;
        self.frc_packets = report.frc_packets;
        self.pos_bits = report.pos_bits;
        self.frc_bits = report.frc_bits;
        self.clock_hz = report.clock_hz;
        self.dt_fs = report.dt_fs;
        self.nodes = report.nodes;
        self.faults_injected = report.faults_injected;
        self.reliability = report.reliability;
    }

    /// Average wall-clock cycles per timestep.
    pub fn cycles_per_step(&self) -> f64 {
        self.total_cycles as f64 / self.steps as f64
    }

    /// The paper's simulation-rate metric.
    pub fn us_per_day(&self) -> f64 {
        let seconds_per_step = self.cycles_per_step() / self.clock_hz;
        UnitSystem::us_per_day(self.dt_fs, seconds_per_step)
    }

    /// Average per-node position-port bandwidth demand in Gbps
    /// (Fig. 18 A).
    pub fn pos_gbps_per_node(&self) -> f64 {
        self.gbps(self.pos_bits)
    }

    /// Average per-node force-port bandwidth demand in Gbps (Fig. 18 A).
    pub fn frc_gbps_per_node(&self) -> f64 {
        self.gbps(self.frc_bits)
    }

    fn gbps(&self, bits: u64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let bits_per_cycle_per_node = bits as f64 / self.total_cycles as f64 / self.nodes as f64;
        bits_per_cycle_per_node * self.clock_hz / 1.0e9
    }

    /// Slowest node's average force-phase duration (straggler view).
    pub fn max_force_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.force_cycles).max().unwrap_or(0)
    }

    /// Per-step completion spread: max − min `wall_end` within each step,
    /// averaged over steps. Chained sync keeps this large under a
    /// straggler (fast nodes race ahead); bulk sync forces it to ~0.
    pub fn avg_completion_spread(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for step in 0..self.steps {
            let ends: Vec<u64> = self
                .records
                .iter()
                .filter(|r| r.step == step)
                .map(|r| r.wall_end)
                .collect();
            if let (Some(&min), Some(&max)) = (ends.iter().min(), ends.iter().max()) {
                total += max - min;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Machine-readable metrics document for this run — the shared
    /// "run" section of every metrics JSON the tools emit (the CLI and
    /// benches add their own sections around it).
    pub fn metrics_json(&self) -> Json {
        let mut util = Vec::new();
        for name in self.stats.names() {
            util.push(
                Json::obj()
                    .field("component", name)
                    .field("replicas", Json::uint(self.stats.replicas(name)))
                    .field("work", Json::uint(self.stats.work(name)))
                    .field(
                        "hardware_util",
                        Json::fixed(self.stats.hardware_util(name, self.total_cycles), 6),
                    )
                    .field(
                        "time_util",
                        Json::fixed(self.stats.time_util(name, self.total_cycles), 6),
                    )
                    .build(),
            );
        }
        let steps = self
            .records
            .iter()
            .map(|r| {
                Json::obj()
                    .field("node", r.node)
                    .field("step", Json::uint(r.step))
                    .field("force_cycles", Json::uint(r.force_cycles))
                    .field("mu_cycles", Json::uint(r.mu_cycles))
                    .field("wall_end", Json::uint(r.wall_end))
                    .build()
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("nodes", self.nodes)
            .field("steps", Json::uint(self.steps))
            .field("total_cycles", Json::uint(self.total_cycles))
            .field("cycles_per_step", Json::fixed(self.cycles_per_step(), 3))
            .field("us_per_day", Json::fixed(self.us_per_day(), 3))
            .field("pos_packets", Json::uint(self.pos_packets))
            .field("frc_packets", Json::uint(self.frc_packets))
            .field("pos_gbps_per_node", Json::fixed(self.pos_gbps_per_node(), 3))
            .field("frc_gbps_per_node", Json::fixed(self.frc_gbps_per_node(), 3))
            .field("max_force_cycles", Json::uint(self.max_force_cycles()))
            .field(
                "avg_completion_spread",
                Json::fixed(self.avg_completion_spread(), 3),
            )
            .field("utilization", Json::Arr(util))
            .field("records", Json::Arr(steps))
            .field("faults_injected", Json::uint(self.faults_injected))
            .field(
                "reliability",
                match &self.reliability {
                    None => Json::Null,
                    Some(r) => Json::obj()
                        .field("retransmits", Json::uint(r.retransmits))
                        .field("acks_sent", Json::uint(r.acks_sent))
                        .field("duplicates_dropped", Json::uint(r.duplicates_dropped))
                        .field("corrupt_dropped", Json::uint(r.corrupt_dropped))
                        .build(),
                },
            )
            .build()
    }
}

fasda_ckpt::persist_struct!(NodeStepReport { node, step, force_cycles, mu_cycles, wall_end });

fasda_ckpt::persist_struct!(RelSummary { retransmits, acks_sent, duplicates_dropped, corrupt_dropped });
