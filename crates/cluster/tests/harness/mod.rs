//! Shared test-support for the cluster integration suites (`chaos`,
//! `ckpt`, `shard`, `obs`, `recovery_matrix`): the one workload, cluster
//! configuration, scratch-directory, and bit-exact final-state shape
//! they all assert against. Keeping these here means every suite proves
//! its property over the *same* 8-node paper configuration, and a
//! change to the reference setup is a one-line diff.
//!
//! Each suite compiles this module independently (`mod harness;`), so
//! helpers unused by one suite are expected.
#![allow(dead_code)]

use fasda_cluster::{Cluster, ClusterConfig, FaultPlan, RelConfig};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_trace::Json;
use std::path::PathBuf;

/// Cycle budget generous enough that only a genuine deadlock exhausts it.
pub const BUDGET: u64 = 2_000_000_000;

/// The shared 8-node workload: 6³ cells, 3 Na/cell, jittered lattice.
pub fn workload() -> ParticleSystem {
    workload_of(3, 47)
}

/// The same lattice at another density and seed.
pub fn workload_of(per_cell: u32, seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

/// 2×2×2 nodes: the 6³-cell space split into 3×3×3-cell blocks.
pub fn config(faults: Option<FaultPlan>, reliable: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    if let Some(p) = faults {
        cfg = cfg.with_faults(p);
    }
    if reliable {
        cfg = cfg.with_reliability(RelConfig::new(2_048, 16_384));
    }
    cfg
}

/// Fresh scratch directory under the system temp dir, unique per pid and
/// tag (suites namespace their tags, e.g. `"ckpt-retention"`).
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fasda-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Raw fixed-point force-accumulator bank bits keyed by stable particle
/// ID, sorted by ID.
pub type ForceBits = Vec<(u32, [i64; 3])>;

/// Bit-exact final state: positions, velocities, and the FC-bank bits.
/// Two runs are bit-identical iff these compare equal.
pub fn final_state(cluster: &Cluster, sys: &ParticleSystem) -> (ParticleSystem, ForceBits) {
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
    (out, forces)
}

/// Assert two [`final_state`] captures are bit-identical, naming the
/// scenario and which plane drifted.
pub fn assert_state_eq(
    got: &(ParticleSystem, ForceBits),
    want: &(ParticleSystem, ForceBits),
    ctx: &str,
) {
    assert_eq!(got.0.pos, want.0.pos, "{ctx}: final positions drifted");
    assert_eq!(got.0.vel, want.0.vel, "{ctx}: final velocities drifted");
    assert_eq!(got.1, want.1, "{ctx}: final force-accumulator bits drifted");
}

/// Read and parse a JSONL stream, panicking with the offending line.
pub fn parse_jsonl(path: &PathBuf) -> Vec<Json> {
    let text = std::fs::read_to_string(path).expect("read JSONL stream");
    fasda_obs::parse_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
