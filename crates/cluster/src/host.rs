//! Host-side control flow — the artifact's `dask`/`pynq` equivalent.
//!
//! The paper's artifact drives the FPGAs from Python: a dask scheduler
//! fans `run.py <scheduler> <dump_group> <num_iterations>` out to the
//! hosts, each host configures its board over pynq, the boards run
//! independently, and afterwards the hosts read the AXI-Lite result
//! registers and optionally dump one group of cells for inspection.
//! [`HostController`] reproduces that workflow over the simulated
//! cluster: run a number of iterations, read every node's
//! [`AxiLiteRegs`], and dump the particle contents of a chosen cell
//! group ([`Cluster::dump_group`]).

use crate::driver::{Cluster, ClusterError, EngineConfig, MAX_RUN_CYCLES};
use crate::report::ClusterRunReport;
use fasda_core::timed::axi::AxiLiteRegs;
use fasda_md::system::ParticleSystem;

/// Result of one host-driven run.
#[derive(Clone, Debug)]
pub struct HostRun {
    /// The cluster-level report (timing, traffic, utilization).
    pub report: ClusterRunReport,
    /// Per-node AXI-Lite register dumps, indexed by node.
    pub regs: Vec<AxiLiteRegs>,
}

/// Drives a [`Cluster`] the way the artifact's host scripts drive the
/// testbed.
pub struct HostController {
    cluster: Cluster,
}

impl HostController {
    /// Attach to a cluster (the boards are already configured — the
    /// bitstream-loading step of the artifact is `Cluster::new`).
    pub fn new(cluster: Cluster) -> Self {
        HostController { cluster }
    }

    /// Access the underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Drain the flight-recorder streams of the last run (if tracing
    /// was enabled via [`EngineConfig::with_trace`]).
    pub fn take_trace(&mut self) -> Option<fasda_trace::Trace> {
        self.cluster.take_trace()
    }

    /// `run.py <num_iterations>`: execute iterations and read back every
    /// node's result registers.
    pub fn run_iterations(&mut self, num_iterations: u64) -> Result<HostRun, ClusterError> {
        self.run_iterations_with(num_iterations, &EngineConfig::serial())
    }

    /// [`HostController::run_iterations`] under an explicit engine
    /// configuration; results are bit-identical across engines.
    pub fn run_iterations_with(
        &mut self,
        num_iterations: u64,
        engine: &EngineConfig,
    ) -> Result<HostRun, ClusterError> {
        let report = self
            .cluster
            .try_run_with(num_iterations, MAX_RUN_CYCLES, engine)?;
        let regs = (0..self.cluster.num_nodes())
            .map(|n| AxiLiteRegs::read(&self.cluster.chips[n], report.total_cycles))
            .collect();
        Ok(HostRun { report, regs })
    }

    /// Gather the full particle state (all nodes) into `sys`.
    pub fn gather(&self, sys: &mut ParticleSystem) {
        self.cluster.store_into(sys);
    }
}

impl Cluster {
    /// The artifact's `<dump_group>` demonstration dump: the particle
    /// contents of one node's cells (stable ID, element, global position,
    /// velocity), sorted by ID.
    pub fn dump_group(&self, node: usize) -> Vec<(u32, fasda_md::element::Element, [f64; 3], [f64; 3])> {
        let chip = &self.chips[node];
        let mut out = Vec::new();
        for cbb in &chip.cbbs {
            for i in 0..cbb.len() {
                let [ox, oy, oz] = cbb.offset[i].to_f64();
                out.push((
                    cbb.id[i],
                    cbb.elem[i],
                    [
                        cbb.gcell.x as f64 + ox,
                        cbb.gcell.y as f64 + oy,
                        cbb.gcell.z as f64 + oz,
                    ],
                    [
                        cbb.vel[i][0] as f64,
                        cbb.vel[i][1] as f64,
                        cbb.vel[i][2] as f64,
                    ],
                ));
            }
        }
        out.sort_by_key(|e| e.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ClusterConfig;
    use fasda_core::config::ChipConfig;
    use fasda_md::element::Element;
    use fasda_md::space::SimulationSpace;
    use fasda_md::workload::{Placement, WorkloadSpec};

    fn cluster() -> Cluster {
        let sys = WorkloadSpec {
            space: SimulationSpace::cubic(6),
            per_cell: 3,
            placement: Placement::JitteredLattice { jitter: 0.05 },
            temperature_k: 150.0,
            seed: 71,
            element: Element::Na,
        }
        .generate();
        Cluster::new(ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3)), &sys)
    }

    #[test]
    fn host_run_reads_all_registers() {
        let mut host = HostController::new(cluster());
        let run = host.run_iterations(2).expect("run converges");
        assert_eq!(run.regs.len(), 8);
        for regs in &run.regs {
            assert_eq!(regs.operation_cycle_cnt, run.report.total_cycles);
            assert!(regs.PE_cycle_cnt > 0);
            assert!(regs.out_traffic_packets_pos > 0, "multi-chip must talk");
        }
    }

    #[test]
    fn dump_group_returns_owned_particles_sorted() {
        let mut host = HostController::new(cluster());
        host.run_iterations(1).expect("run");
        let total: usize = (0..8).map(|n| host.cluster().dump_group(n).len()).sum();
        assert_eq!(total, 6 * 6 * 6 * 3, "every particle in exactly one dump");
        let d = host.cluster().dump_group(0);
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
    }
}
