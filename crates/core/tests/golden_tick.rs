//! Golden per-step records of the single-chip tick, generated from the
//! tree *before* the force-phase tick was rebuilt on event-timed state
//! (commit 764d4da) and committed as `golden_tick.txt` +
//! `golden_tick_midphase.snap`.
//!
//! Serial-vs-auto equality alone cannot see an error made in both
//! engines; these records can. For a 3×3×3 chip × variants A/B/C ×
//! `per_cell` {4, 16, 64} the fixture pins, per step: `force_cycles`,
//! `mu_cycles`, `valid_pairs`, `comparisons`, `migrations`, every
//! `StatSet` counter, and an FNV-1a of the position / velocity / FC-bank
//! bits — and both engines must reproduce them. The snapshot fixture is
//! cut **mid-force-phase**, at a cycle where at least one pair FIFO is
//! full and one station is drained but not yet ejected, so the codec's
//! cursor materialisation is pinned on the awkward states too (the serial
//! engine's bytes in full, the planned engine's — which also persists its
//! scan plans — by length and hash).
//!
//! Regenerate (only for a deliberate model change) with
//! `FASDA_REGEN_GOLDEN_TICK=1 cargo test -p fasda-core --test golden_tick`.

use fasda_ckpt::{Reader, Snapshot, Writer};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const STEPS: usize = 2;
/// The mid-phase cut is taken on this configuration.
const CUT: (DesignVariant, u32) = (DesignVariant::B, 32);

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

fn regen() -> bool {
    std::env::var("FASDA_REGEN_GOLDEN_TICK").is_ok()
}

fn workload(per_cell: u32) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(3),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 0x7_1C4 + per_cell as u64,
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

/// FNV-1a over position, velocity and FC-bank bits, by stable particle ID.
fn state_hash(chip: &TimedChip, sys: &ParticleSystem) -> u64 {
    let mut out = sys.clone();
    chip.store_into(&mut out);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..out.len() {
        for v in [out.pos[i], out.vel[i]] {
            fnv(&mut h, v.x.to_bits());
            fnv(&mut h, v.y.to_bits());
            fnv(&mut h, v.z.to_bits());
        }
    }
    let mut fc: Vec<(u32, [i64; 3])> = chip
        .cbbs
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| (c.id[i], c.force[i].map(|f| f.0))))
        .collect();
    fc.sort_by_key(|e| e.0);
    for (id, f) in fc {
        fnv(&mut h, id as u64);
        for w in f {
            fnv(&mut h, w as u64);
        }
    }
    h
}

fn new_chip(variant: DesignVariant, sys: &ParticleSystem, fast: bool) -> TimedChip {
    let geo = ChipGeometry::single_chip(sys.space);
    let mut chip = TimedChip::new(ChipConfig::variant(variant), geo, UnitSystem::PAPER, 2.0);
    chip.load(sys);
    chip.set_fast_path(fast);
    chip.set_soa_scan(fast);
    chip
}

fn label(v: DesignVariant) -> &'static str {
    match v {
        DesignVariant::A => "A",
        DesignVariant::B => "B",
        DesignVariant::C => "C",
    }
}

/// The per-step record lines of one (variant, per_cell, engine) run.
fn run_records(variant: DesignVariant, per_cell: u32, fast: bool) -> Vec<(String, String)> {
    let sys = workload(per_cell);
    let mut chip = new_chip(variant, &sys, fast);
    let mut out = Vec::new();
    for step in 0..STEPS {
        let r = chip.run_timestep();
        let key = format!("chip/{}/{per_cell}/step{step}", label(variant));
        let mut v = String::new();
        write!(
            v,
            "force_cycles={} mu_cycles={} valid_pairs={} comparisons={} migrations={} state={:016x} stats={:?}",
            r.force_cycles,
            r.mu_cycles,
            r.valid_pairs,
            r.comparisons,
            r.migrations,
            state_hash(&chip, &sys),
            r.stats
        )
        .unwrap();
        out.push((key, v));
    }
    out
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (k, v) = l.split_once(" = ").expect("`key = value` line");
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn pe_census(chip: &TimedChip) -> (u32, u32) {
    let (mut full, mut drained) = (0, 0);
    for pe in chip.pes() {
        full += pe.stalled_mask(chip.cycle).count_ones();
        drained += pe.drained_mask().count_ones();
    }
    (full, drained)
}

/// `len:fnv` of a byte string.
fn bytes_hash(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{}:{h:016x}", bytes.len())
}

fn snapshot_bytes(chip: &TimedChip) -> Vec<u8> {
    let mut w = Writer::new();
    chip.snapshot(&mut w);
    w.into_bytes()
}

/// Step the force phase of a freshly loaded chip to `cycles` ticks.
fn chip_at_force_cycle(fast: bool, cycles: u64) -> (TimedChip, ParticleSystem) {
    let sys = workload(CUT.1);
    let mut chip = new_chip(CUT.0, &sys, fast);
    chip.reset_stats();
    chip.begin_force_phase();
    for _ in 0..cycles {
        chip.step_force_cycle();
    }
    (chip, sys)
}

fn finish_step(chip: &mut TimedChip) {
    while !chip.force_phase_local_idle() {
        chip.step_force_cycle();
    }
    chip.begin_mu_phase();
    while !chip.mu_phase_local_idle() {
        chip.step_mu_cycle();
    }
    chip.end_mu_phase();
}

#[test]
fn per_step_records_match_the_pinned_parent() {
    let mut fresh = BTreeMap::new();
    for variant in [DesignVariant::A, DesignVariant::B, DesignVariant::C] {
        for per_cell in [4u32, 16, 64] {
            let serial = run_records(variant, per_cell, false);
            let auto = run_records(variant, per_cell, true);
            assert_eq!(
                serial,
                auto,
                "{}/{per_cell}: serial vs auto",
                label(variant)
            );
            fresh.extend(serial);
        }
    }
    let path = fixture("golden_tick.txt");
    if regen() {
        let mut text = String::from(
            "# Per-step single-chip records pinned from commit 764d4da (see golden_tick.rs).\n",
        );
        for (k, v) in &fresh {
            writeln!(text, "{k} = {v}").unwrap();
        }
        std::fs::write(&path, text).expect("write fixture");
    }
    let want = parse(&std::fs::read_to_string(&path).expect("read golden_tick.txt"));
    assert_eq!(fresh.len(), want.len(), "record count");
    for (k, v) in &want {
        assert_eq!(fresh.get(k), Some(v), "{k} drifted from the pinned parent");
    }
}

#[test]
fn midphase_snapshot_bytes_match_the_pinned_parent() {
    let cut_path = fixture("golden_tick_midphase.txt");
    let snap_path = fixture("golden_tick_midphase.snap");
    if regen() {
        // First cycle past the ramp-up with a full pair FIFO *and* a
        // drained, not yet ejected station somewhere on the chip.
        let (mut chip, sys) = chip_at_force_cycle(false, 200);
        let mut cycles = 200u64;
        loop {
            let (full, drained) = pe_census(&chip);
            if full > 0 && drained > 0 {
                break;
            }
            assert!(
                !chip.force_phase_local_idle(),
                "no qualifying cycle in the phase"
            );
            chip.step_force_cycle();
            cycles += 1;
        }
        std::fs::write(&snap_path, snapshot_bytes(&chip)).expect("write snapshot fixture");
        let auto = bytes_hash(&snapshot_bytes(&chip_at_force_cycle(true, cycles).0));
        finish_step(&mut chip);
        std::fs::write(
            &cut_path,
            format!(
                "cycles = {cycles}\nauto_snapshot = {auto}\nfinal = {:016x}\n",
                state_hash(&chip, &sys)
            ),
        )
        .expect("write cut fixture");
    }
    let meta = parse(&std::fs::read_to_string(&cut_path).expect("read cut fixture"));
    let cycles: u64 = meta["cycles"].parse().unwrap();
    let want = std::fs::read(&snap_path).expect("read snapshot fixture");

    for fast in [false, true] {
        let (mut chip, sys) = chip_at_force_cycle(fast, cycles);
        let (full, drained) = pe_census(&chip);
        assert!(full > 0, "cut must hold a full pair FIFO");
        assert!(drained > 0, "cut must hold a drained, unejected station");
        let got = snapshot_bytes(&chip);
        // A chip restored from the cut writes it back byte for byte:
        // in-flight pairs, accumulators and FC banks survive the codec.
        let mut back = new_chip(CUT.0, &sys, fast);
        back.restore(&mut Reader::new(&got, "chip")).expect("restore own snapshot");
        assert!(snapshot_bytes(&back) == got, "fast={fast}: restore → snapshot round trip");
        if fast {
            // The planned engine also persists its scan plans; its bytes
            // are pinned by length and hash.
            assert_eq!(
                bytes_hash(&got),
                meta["auto_snapshot"],
                "auto mid-phase snapshot drifted"
            );
        } else {
            assert!(got == want, "serial mid-phase snapshot bytes drifted");
        }
        finish_step(&mut chip);
        assert_eq!(
            format!("{:016x}", state_hash(&chip, &sys)),
            meta["final"],
            "fast={fast}"
        );
    }
}
