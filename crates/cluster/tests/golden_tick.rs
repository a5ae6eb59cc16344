//! Cluster half of the golden tick records (see
//! `crates/core/tests/golden_tick.rs`): a 2×2×2-node cluster × variants
//! A/B/C × `per_cell` {4, 16, 64} under both engines must reproduce the
//! per-node per-step cycle counts, the merged `StatSet`, the traffic
//! counters and the final-state hash pinned from commit 764d4da in
//! `crates/core/tests/golden_tick_cluster.txt`.
//!
//! Regenerate (only for a deliberate model change) with
//! `FASDA_REGEN_GOLDEN_TICK=1 cargo test -p fasda-cluster --test golden_tick`.

mod harness;

use fasda_cluster::{Cluster, ClusterConfig, EngineConfig};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use harness::{final_state, BUDGET};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/tests/golden_tick_cluster.txt")
}

fn workload(per_cell: u32) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0xC1_0574 + per_cell as u64,
        element: Element::Na,
    }
    .generate()
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn record(variant: DesignVariant, per_cell: u32, engine: &EngineConfig) -> Vec<(String, String)> {
    // The dense population costs most of the suite's time; one step of it
    // already saturates every FIFO and ring.
    let steps = if per_cell == 64 { 1 } else { 2 };
    let sys = workload(per_cell);
    let cfg = ClusterConfig::paper(ChipConfig::variant(variant), (3, 3, 3));
    let mut cluster = Cluster::new(cfg, &sys);
    assert_eq!(cluster.num_nodes(), 8);
    let report = cluster
        .try_run_with(steps, BUDGET, engine)
        .expect("run converges");

    let (out, forces) = final_state(&cluster, &sys);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..out.len() {
        for v in [out.pos[i], out.vel[i]] {
            fnv(&mut h, v.x.to_bits());
            fnv(&mut h, v.y.to_bits());
            fnv(&mut h, v.z.to_bits());
        }
    }
    for (id, f) in forces {
        fnv(&mut h, id as u64);
        for w in f {
            fnv(&mut h, w as u64);
        }
    }

    let tag = match variant {
        DesignVariant::A => "A",
        DesignVariant::B => "B",
        DesignVariant::C => "C",
    };
    let base = format!("cluster/{tag}/{per_cell}");
    let mut out = vec![(
        format!("{base}/run"),
        format!(
            "total_cycles={} pos_packets={} frc_packets={} pos_bits={} frc_bits={} state={h:016x} stats={:?}",
            report.total_cycles,
            report.pos_packets,
            report.frc_packets,
            report.pos_bits,
            report.frc_bits,
            report.stats
        ),
    )];
    for r in &report.records {
        out.push((
            format!("{base}/node{}/step{}", r.node, r.step),
            format!(
                "force_cycles={} mu_cycles={} wall_end={}",
                r.force_cycles, r.mu_cycles, r.wall_end
            ),
        ));
    }
    for (node, t) in report.per_node_traffic.iter().enumerate() {
        let sorted = |m: &std::collections::HashMap<_, u64>| {
            let mut v: Vec<_> = m.iter().map(|(k, n)| (format!("{k:?}"), *n)).collect();
            v.sort();
            v
        };
        let mut line = String::new();
        write!(
            line,
            "pos_sent={:?} frc_sent={:?} pos_recv={:?} frc_recv={} frc_recv_remote={} mig_sent={:?}",
            sorted(&t.pos_sent),
            sorted(&t.frc_sent),
            sorted(&t.pos_recv),
            t.frc_recv,
            t.frc_recv_remote,
            sorted(&t.mig_sent)
        )
        .unwrap();
        out.push((format!("{base}/node{node}/traffic"), line));
    }
    out
}

#[test]
fn cluster_records_match_the_pinned_parent() {
    let mut fresh = BTreeMap::new();
    for variant in [DesignVariant::A, DesignVariant::B, DesignVariant::C] {
        for per_cell in [4u32, 16, 64] {
            let serial = record(variant, per_cell, &EngineConfig::serial());
            let auto = record(variant, per_cell, &EngineConfig::auto());
            assert_eq!(serial, auto, "{variant:?}/{per_cell}: serial vs auto");
            fresh.extend(serial);
        }
    }
    let path = fixture();
    if std::env::var("FASDA_REGEN_GOLDEN_TICK").is_ok() {
        let mut text = String::from(
            "# Per-step 2x2x2-node cluster records pinned from commit 764d4da (see crates/cluster/tests/golden_tick.rs).\n",
        );
        for (k, v) in &fresh {
            writeln!(text, "{k} = {v}").unwrap();
        }
        std::fs::write(&path, text).expect("write fixture");
    }
    let text = std::fs::read_to_string(&path).expect("read golden_tick_cluster.txt");
    let want: BTreeMap<&str, &str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_once(" = ").expect("`key = value` line"))
        .collect();
    assert_eq!(fresh.len(), want.len(), "record count");
    for (k, v) in &want {
        assert_eq!(
            fresh.get(*k).map(String::as_str),
            Some(*v),
            "{k} drifted from the pinned parent"
        );
    }
}
