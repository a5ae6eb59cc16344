//! What `Cluster::new` builds once and shares: one force datapath for
//! every chip (tables are configuration, not state), and one pass that
//! bins every particle to its owning node. Both must be invisible: the
//! shared datapath survives a checkpoint restore, and each chip's CBBs
//! hold exactly what a chip scanning the whole system would load.

mod harness;

use fasda_cluster::{load_checkpoint, run_with_checkpoints, CheckpointConfig, Cluster, EngineConfig};
use fasda_cluster::{latest_checkpoint, ClusterRunReport};
use fasda_core::config::ChipConfig;
use fasda_core::datapath::ForceDatapath;
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::vec3::Vec3;
use harness::{config, tmpdir, workload, workload_of, BUDGET};

fn assert_one_datapath(cluster: &Cluster, when: &str) {
    assert_eq!(cluster.chips.len(), 8);
    let first = cluster.chips[0].datapath();
    for (node, chip) in cluster.chips.iter().enumerate() {
        assert!(std::ptr::eq(first, chip.datapath()), "{when}: node {node} built its own datapath");
    }
}

#[test]
fn every_chip_shares_one_datapath() {
    let sys = workload();
    let mut cluster = Cluster::new(config(None, false), &sys);
    assert_one_datapath(&cluster, "after Cluster::new");
    let built: *const ForceDatapath = cluster.chips[0].datapath();

    let dir = tmpdir("construction-ckpt");
    let ck = CheckpointConfig::new(1, &dir);
    run_with_checkpoints(&mut cluster, 2, BUDGET, &EngineConfig::auto(), Some(&ck), ClusterRunReport::new())
        .expect("checkpointed run");
    let latest = latest_checkpoint(&dir).expect("list checkpoints").expect("a checkpoint");
    load_checkpoint(&mut cluster, &latest).expect("restore");
    // Snapshots never carried the tables: a restore keeps the one
    // datapath the cluster was built with.
    assert_one_datapath(&cluster, "after load_checkpoint");
    assert!(std::ptr::eq(cluster.chips[0].datapath(), built), "restore rebuilt the datapath");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chip trusts the datapath it is handed to be `for_chip` of its own
/// configuration and checks that only under debug assertions. Tests
/// build with them on (`[profile.test]` in the workspace manifest); this
/// one fails if they are ever turned off.
#[test]
#[should_panic(expected = "datapath built for another chip config")]
fn a_chip_refuses_the_datapath_of_another_config() {
    let other = ChipConfig { cutoff_cells: 0.5, ..ChipConfig::baseline() };
    let dp = ForceDatapath::for_chip(&other, UnitSystem::PAPER);
    let geo = ChipGeometry::new(SimulationSpace::cubic(6), (3, 3, 3), ChipCoord::new(0, 0, 0));
    TimedChip::with_datapath(ChipConfig::baseline(), geo, UnitSystem::PAPER, 2.0, dp);
}

/// A jittered lattice plus particles exactly on chip-block faces (the
/// 6³-cell space splits at 3), just below the box edge, at the periodic
/// upper edge (a tiny negative coordinate wraps to exactly `D`, which
/// `cell_of` clamps into the last cell), and outside the box on both
/// sides (loaded where the wrapped position falls).
fn edge_system() -> ParticleSystem {
    let mut sys = workload_of(2, 91);
    let faces = [
        Vec3::new(3.0, 3.0, 3.0),
        Vec3::new(3.0, 0.5, 5.5),
        Vec3::new(0.0, 3.0, 2.999_999_999),
        Vec3::new(5.999_999_999_999, 3.0, 0.0),
        Vec3::new(2.5, 6.0 - f64::EPSILON * 4.0, 3.0),
    ];
    for p in faces {
        sys.push(Element::Ar, p, Vec3::new(1e-4, -2e-4, 3e-4));
    }
    // `push` wraps positions into the box; these are written past it, the
    // way an unwrapped trajectory would hand them over.
    let outside = [
        Vec3::new(-1e-17, 2.5, 4.0),
        Vec3::new(1.5, -1e-17, -1e-17),
        Vec3::new(-0.25, 6.5, 13.0),
        Vec3::new(7.0, -3.0, 2.0),
        Vec3::new(-6.0, 12.0, -3.0),
    ];
    for p in outside {
        let i = sys.push(Element::Na, Vec3::new(0.5, 0.5, 0.5), Vec3::new(-1e-4, 0.0, 2e-4));
        sys.pos[i] = p;
    }
    sys
}

#[test]
fn one_pass_binning_equals_the_per_chip_scan() {
    for (name, sys) in [("lattice", workload()), ("edges", edge_system())] {
        let cfg = config(None, false);
        let cluster = Cluster::new(cfg.clone(), &sys);
        let mut loaded = 0;
        for (node, chip) in cluster.chips.iter().enumerate() {
            let mut scan = TimedChip::new(cfg.chip, *chip.geometry(), sys.units, cfg.dt_fs);
            scan.load(&sys);
            assert_eq!(scan.cbbs.len(), chip.cbbs.len());
            for (cbb, (got, want)) in chip.cbbs.iter().zip(&scan.cbbs).enumerate() {
                let at = format!("{name}: node {node} CBB {cbb}");
                assert_eq!(got.gcell, want.gcell, "{at}: cell");
                assert_eq!(got.id, want.id, "{at}: ids");
                assert_eq!(got.elem, want.elem, "{at}: elements");
                assert_eq!(got.offset, want.offset, "{at}: offsets");
                let bits = |v: &[[f32; 3]]| -> Vec<[u32; 3]> { v.iter().map(|a| a.map(f32::to_bits)).collect() };
                assert_eq!(bits(&got.vel), bits(&want.vel), "{at}: velocities");
            }
            loaded += chip.num_particles();
        }
        assert_eq!(loaded, sys.len(), "{name}: every particle on exactly one chip");
    }
}

/// The edge particles land in the cells `cell_of` names, with in-cell
/// offsets: the clamped upper edge sits just below the cell's top face.
#[test]
fn edge_particles_land_where_cell_of_puts_them() {
    let sys = edge_system();
    let cluster = Cluster::new(config(None, false), &sys);
    let mut seen = 0;
    for chip in &cluster.chips {
        for cbb in &chip.cbbs {
            for (k, &id) in cbb.id.iter().enumerate() {
                let want = sys.space.cell_of(sys.pos[id as usize]);
                assert_eq!(cbb.gcell, want, "particle {id}");
                for f in [cbb.offset[k].x, cbb.offset[k].y, cbb.offset[k].z] {
                    assert!(f.is_cell_offset(), "particle {id}: offset {f:?} escapes its cell");
                }
                seen += 1;
            }
        }
    }
    assert_eq!(seen, sys.len());
    // x = -1e-17 wraps to exactly D = 6, which `cell_of` clamps to cell 5.
    let clamped = sys.len() - 5;
    assert_eq!(sys.space.cell_of(sys.pos[clamped]).x, 5);
}
