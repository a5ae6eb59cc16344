//! AXI-Lite debug/result registers — artifact compatibility.
//!
//! The paper's artifact reads results from the FPGA over AXI-Lite:
//! "the AXI-lite signals including the overall execution cycles, the
//! execution cycles of each key component, and the communication
//! statistics ... Specifically, `out_traffic_packets_pos`,
//! `out_traffic_packets_frc`, `in_traffic_packets_pos`,
//! `in_traffic_packets_frc` give the communication workload in 512-bit
//! packets, `operation_cycle_cnt` shows the overall performance in
//! cycles, `PE_cycle_cnt` and other cycle counters show the number of
//! cycles a key component is active" (artifact appendix).
//!
//! [`AxiLiteRegs`] exposes exactly those registers from a
//! [`super::TimedChip`], so result post-processing written against the
//! artifact's register map works against this model unchanged.

use super::TimedChip;

/// Flits per 512-bit packet on the wire (Fig. 10).
const FLITS_PER_PACKET: u64 = 4;

/// The artifact's AXI-Lite result register map, as read from one chip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(non_snake_case)]
pub struct AxiLiteRegs {
    /// Overall cycles since the stats window began.
    pub operation_cycle_cnt: u64,
    /// Cycles the PEs (force pipelines) were active, summed over PEs.
    pub PE_cycle_cnt: u64,
    /// Cycles the filters were active, summed over filter banks.
    pub filter_cycle_cnt: u64,
    /// Cycles the position rings carried data.
    pub PR_cycle_cnt: u64,
    /// Cycles the force rings carried data.
    pub FR_cycle_cnt: u64,
    /// Cycles the motion-update units were active.
    pub MU_cycle_cnt: u64,
    /// Outbound position traffic in 512-bit packets.
    pub out_traffic_packets_pos: u64,
    /// Outbound force traffic in 512-bit packets.
    pub out_traffic_packets_frc: u64,
    /// Inbound position traffic in 512-bit packets.
    pub in_traffic_packets_pos: u64,
    /// Inbound force traffic in 512-bit packets.
    pub in_traffic_packets_frc: u64,
}

impl AxiLiteRegs {
    /// Snapshot the register map from a chip. `window_cycles` is the
    /// cycles elapsed since `reset_stats` (the host tracks this, exactly
    /// as the artifact's `run.py` does).
    pub fn read(chip: &TimedChip, window_cycles: u64) -> Self {
        let report = chip.report(0, 0);
        let pkts = |flits: u64| flits.div_ceil(FLITS_PER_PACKET);
        let traffic = chip.traffic();
        let pos_out: u64 = traffic.pos_sent.values().sum();
        let frc_out: u64 = traffic.frc_sent.values().sum();
        let pos_in: u64 = traffic.pos_recv.values().sum();
        let busy = |name: &str| {
            // StatSet folds replicas; busy cycles summed over replicas is
            // the hardware counter semantics (each component has its own
            // register, the artifact sums them host-side).
            (report.stats.time_util(name, window_cycles.max(1))
                * report.stats.replicas(name) as f64
                * window_cycles as f64)
                .round() as u64
        };
        AxiLiteRegs {
            operation_cycle_cnt: window_cycles,
            PE_cycle_cnt: busy("PE"),
            filter_cycle_cnt: busy("Filter"),
            PR_cycle_cnt: busy("PR"),
            FR_cycle_cnt: busy("FR"),
            MU_cycle_cnt: busy("MU"),
            out_traffic_packets_pos: pkts(pos_out),
            out_traffic_packets_frc: pkts(frc_out),
            in_traffic_packets_pos: pkts(pos_in),
            in_traffic_packets_frc: pkts(traffic.frc_recv_remote),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::geometry::ChipGeometry;
    use fasda_md::space::SimulationSpace;
    use fasda_md::units::UnitSystem;
    use fasda_md::workload::WorkloadSpec;

    #[test]
    fn register_map_reflects_single_chip_run() {
        let space = SimulationSpace::cubic(3);
        let sys = WorkloadSpec {
            per_cell: 8,
            ..WorkloadSpec::paper(space, 61)
        }
        .generate();
        let mut chip = TimedChip::new(
            ChipConfig::baseline(),
            ChipGeometry::single_chip(space),
            UnitSystem::PAPER,
            2.0,
        );
        chip.load(&sys);
        let r = chip.run_timestep();
        let regs = AxiLiteRegs::read(&chip, r.total_cycles());
        assert_eq!(regs.operation_cycle_cnt, r.total_cycles());
        assert!(regs.PE_cycle_cnt > 0);
        assert!(regs.filter_cycle_cnt >= regs.PE_cycle_cnt / 2);
        assert!(regs.MU_cycle_cnt > 0);
        // single chip: no external traffic
        assert_eq!(regs.out_traffic_packets_pos, 0);
        assert_eq!(regs.in_traffic_packets_frc, 0);
    }
}
