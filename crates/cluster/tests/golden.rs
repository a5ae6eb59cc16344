//! Golden checkpoint fixtures: containers written at the current
//! `FORMAT_VERSION` are committed under `tests/golden/` and every
//! future build must (a) parse them — magic, version, and per-section
//! CRCs — (b) resume from the committed bytes to the bit-exact final
//! state, and (c) keep producing byte-identical containers for the
//! same step boundary while the version number stays put. A deliberate
//! format change must bump [`fasda_ckpt::FORMAT_VERSION`] and
//! regenerate with `FASDA_REGEN_GOLDEN=1 cargo test -p fasda-cluster
//! --test golden`.

mod harness;

use fasda_ckpt::{Container, FORMAT_VERSION};
use fasda_cluster::ckpt::{
    load_checkpoint, run_with_checkpoints, CheckpointConfig,
};
use fasda_cluster::{Cluster, ClusterRunReport, EngineConfig};
use fasda_md::system::ParticleSystem;
use harness::{assert_state_eq, config, final_state, workload, ForceBits, BUDGET};
use std::path::PathBuf;

const STEPS: u64 = 6;
const EVERY: u64 = 2;
/// Committed mid-run boundaries: one right after the first segment, one
/// deep enough that a resume still has work left to replay.
const GOLDEN_STEPS: [u64; 2] = [2, 4];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path(step: u64) -> PathBuf {
    golden_dir().join(format!("ckpt-{step:010}.fckp"))
}

/// Run the reference segmentation with the current writer: the bytes it
/// produces at each golden boundary, plus the final state every resume
/// must reproduce.
#[allow(clippy::type_complexity)]
fn current() -> (Vec<(u64, Vec<u8>)>, (ParticleSystem, ForceBits)) {
    let sys = workload();
    let dir = harness::tmpdir("golden-regen");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let mut cluster = Cluster::new(config(None, false), &sys);
    let run = run_with_checkpoints(
        &mut cluster,
        STEPS,
        BUDGET,
        &EngineConfig::serial(),
        Some(&ck),
        ClusterRunReport::new(),
    )
    .expect("reference run completes");
    let bytes = GOLDEN_STEPS
        .map(|step| {
            let path = run
                .checkpoints
                .iter()
                .find(|p| fasda_ckpt::checkpoint_step(p) == Some(step))
                .unwrap_or_else(|| panic!("no checkpoint written at step {step}"));
            (step, std::fs::read(path).expect("read fresh checkpoint"))
        })
        .to_vec();
    let state = final_state(&cluster, &sys);
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, state)
}

#[test]
fn golden_checkpoints_parse_resume_and_stay_byte_stable() {
    let (fresh, want) = current();
    if std::env::var("FASDA_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        for (step, bytes) in &fresh {
            std::fs::write(golden_path(*step), bytes).expect("write fixture");
            eprintln!("regenerated {}", golden_path(*step).display());
        }
    }

    for (step, bytes_now) in &fresh {
        let path = golden_path(*step);
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing committed fixture {} ({e}); regenerate with FASDA_REGEN_GOLDEN=1",
                path.display()
            )
        });

        // (a) The current parser accepts the committed container end to
        // end (magic, version, every section CRC).
        let container = Container::parse(&golden)
            .unwrap_or_else(|e| panic!("committed fixture step {step} no longer parses: {e}"));
        assert!(container.section_names().count() > 0, "fixture has no sections");
        assert_eq!(
            FORMAT_VERSION, 3,
            "FORMAT_VERSION bumped: regenerate the fixtures (older versions fail with BadVersion)"
        );

        // (b) A fresh cluster restores from the committed bytes and
        // replays to the bit-exact final state.
        let sys = workload();
        let mut cluster = Cluster::new(config(None, false), &sys);
        let acc = load_checkpoint(&mut cluster, &path)
            .unwrap_or_else(|e| panic!("committed fixture step {step} no longer restores: {e}"));
        assert_eq!(acc.steps, *step, "fixture carries the wrong step");
        run_with_checkpoints(
            &mut cluster,
            STEPS,
            BUDGET,
            &EngineConfig::serial(),
            None,
            acc,
        )
        .expect("resumed run completes");
        assert_state_eq(
            &final_state(&cluster, &sys),
            &want,
            &format!("resume from committed step-{step} fixture"),
        );

        // (c) Byte stability: at an unchanged FORMAT_VERSION the writer
        // must keep producing exactly the committed bytes.
        assert_eq!(
            bytes_now, &golden,
            "writer output for step {step} drifted from the committed fixture; \
             either restore compatibility or bump FORMAT_VERSION and regenerate"
        );
    }
}
