//! Datapath kernel micro-benchmarks: the scalar per-comparison
//! `filter()`/`force()` walk vs the fused filter→force kernel
//! (`ForceDatapath::fused_scan_into`) that the timed model's stations
//! dispatch through by default, over the fig16-density 64-particle home
//! cell.
//!
//! Same hand-rolled harness as `microbench` (no external bench
//! framework). Run with `cargo bench --bench datapathbench`.
//!
//! Modes (flags pass through the `harness = false` entry point):
//!
//! * default — ns/iter for every kernel plus a per-kernel throughput
//!   report (pairs/sec filtered, forces/sec evaluated).
//! * `--smoke` — the CI perf-regression gate: a short measurement whose
//!   fused/scalar throughput *ratio* (the median of interleaved per-round
//!   ratios, as the chip-tick gate below takes its own) is compared against the committed
//!   `BENCH_datapath.json` baseline; exits non-zero if the fused kernel
//!   regressed more than 15%. Absolute throughput moves with the host;
//!   both kernels run the same arithmetic in the same process on the
//!   same machine, so the ratio cancels machine speed and leaves only
//!   the kernels' relative shape (the thing a vectorization regression
//!   actually changes).
//!   The same mode times one step of a dense variant-A chip (3×3×3
//!   cells × 64 atoms, the fast engine) and gates *in-situ ns per pair ÷
//!   fused-kernel ns per pair* — what the chip tick costs per filtered
//!   pair on top of the kernel, again a same-process ratio — against
//!   the committed `chip_tick_vs_kernel`: it fails if the ratio rises
//!   more than 15% above it.
//! * `--write-baseline` — regenerate `BENCH_datapath.json` from a full
//!   measurement (run on a quiet host, then commit the file; the
//!   `chip_tick_vs_kernel_before` row is carried over by hand).

use fasda_arith::fixed::FixVec3;
use fasda_arith::interp::TableConfig;
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::{Element, PairTable};
use fasda_md::space::SimulationSpace;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_trace::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference scan every kernel here runs: a deterministic jittered
/// home cell of 64 particles (fig16 density) concatenated at the home
/// RCID, against one adjacent-cell neighbour — a realistic mix of hits
/// and misses.
struct Scan {
    dp: ForceDatapath,
    elems: Vec<Element>,
    concat: Vec<FixVec3>,
    soa: HomeSoa,
    nbr: FixVec3,
    nbr_elem: Element,
}

impl Scan {
    fn reference() -> Self {
        const N: usize = 64;
        let mut state = 0x5DA_F00Du64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let elems: Vec<Element> = (0..N).map(|i| Element::ALL[i % Element::ALL.len()]).collect();
        let concat: Vec<FixVec3> = (0..N)
            .map(|_| ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(rnd(), rnd(), rnd())))
            .collect();
        let mut soa = HomeSoa::new();
        soa.rebuild(&elems, &concat);
        Scan {
            dp: ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER),
            elems,
            concat,
            soa,
            nbr: ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.12, 0.43, 0.77)),
            nbr_elem: Element::Na,
        }
    }

    /// Scalar reference: one virtual filter() per slot, force() per hit —
    /// the work one station performs over a 64-particle scan.
    fn scalar(&self) -> [f32; 3] {
        let mut acc = [0.0f32; 3];
        for i in 0..self.concat.len() {
            if let Some(pair) = self.dp.filter(self.concat[i], self.nbr) {
                let f = self.dp.force(self.elems[i], self.nbr_elem, pair);
                for k in 0..3 {
                    acc[k] += f[k];
                }
            }
        }
        acc
    }

    /// Fused filter→force kernel: what Pe::dispatch_planned runs at
    /// dispatch time by default — survivors go straight from the pass
    /// mask into interpolation, no FilteredPair vector in between.
    fn fused(&self, hits: &mut Vec<ScanHit>) -> [f32; 3] {
        hits.clear();
        self.dp.fused_scan_into(&self.soa, self.nbr, self.nbr_elem, 0, hits);
        let mut acc = [0.0f32; 3];
        for h in hits.iter() {
            for (a, f) in acc.iter_mut().zip(h.force) {
                *a += f;
            }
        }
        acc
    }
}

/// Throughput of the two scan kernels over the reference home cell.
struct KernelThroughput {
    /// Particles in the scanned home cell.
    home_len: usize,
    /// Filter hits per scan (the mix the adjacent-cell neighbour sees).
    hits_per_scan: usize,
    /// Pairs filtered per second by the scalar `filter()`+`force()` walk.
    scalar_pairs_per_sec: f64,
    /// Pairs filtered per second by the fused filter→force kernel.
    fused_pairs_per_sec: f64,
    /// Forces evaluated per second by the scalar walk.
    scalar_forces_per_sec: f64,
    /// Forces evaluated per second by the fused kernel.
    fused_forces_per_sec: f64,
    /// Fused-over-scalar throughput, the median of the per-round ratios —
    /// the machine-speed-independent quantity the regression gate tracks.
    fused_vs_scalar: f64,
}

/// Time one batch of `iters` calls of `f`, returning seconds/iter.
fn time_batch<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_secs_f64() / iters as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measure both scan kernels; `min` is the total measurement budget.
///
/// A shared host steals the core for tens of milliseconds at a time, so
/// a single timed run of each kernel can be off by 40%. The kernels are
/// instead timed in short **interleaved rounds** (scalar batch, fused
/// batch, scalar batch, …). Both batches of a round see about the same
/// host, so each round gives one fused/scalar ratio, and the ratio is the
/// median round's, as [`chip_tick_vs_kernel`] takes its own: a steal
/// window spoils the one or two rounds it lands in, and the median
/// discards them. (Keeping each kernel's *minimum* batch instead paired
/// two different rounds, and on a shared 2-vCPU host moved the ratio by
/// more than the gate's 15 %.) Throughputs are each kernel's median batch.
fn measure_kernels(scan: &Scan, min: Duration) -> KernelThroughput {
    let mut hits: Vec<ScanHit> = Vec::with_capacity(64);
    scan.fused(&mut hits);
    let hits_per_scan = hits.len();

    // Calibrate a batch size on the scalar kernel so each of the
    // ROUNDS×2 batches takes roughly min/(ROUNDS×2)·(3/4) — a quarter
    // of the budget warms the calibration itself.
    const ROUNDS: u32 = 32;
    let t = Instant::now();
    let mut calib = 0u64;
    while t.elapsed() < min / 4 {
        black_box(scan.scalar());
        calib += 1;
    }
    let batch = (calib * 3 / (u64::from(ROUNDS) * 2)).max(1);

    let (mut scalar_s, mut fused_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let scalar = time_batch(batch, || scan.scalar());
        let fused = time_batch(batch, || scan.fused(&mut hits));
        ratios.push(scalar / fused);
        scalar_s.push(scalar);
        fused_s.push(fused);
    }
    let (scalar_s, fused_s) = (median(scalar_s), median(fused_s));

    let n = scan.concat.len() as f64;
    let h = hits_per_scan as f64;
    KernelThroughput {
        home_len: scan.concat.len(),
        hits_per_scan,
        scalar_pairs_per_sec: n / scalar_s,
        fused_pairs_per_sec: n / fused_s,
        scalar_forces_per_sec: h / scalar_s,
        fused_forces_per_sec: h / fused_s,
        fused_vs_scalar: median(ratios),
    }
}

/// The chip tick's cost per filtered pair relative to the bare fused
/// kernel's: host ns per filtered pair of one timestep of a dense
/// variant-A chip (3×3×3 cells × 64 atoms, `fast_path` + `soa`, as the
/// fast engine runs it) ÷ the fused kernel's ns per pair (≥ 1; lower is
/// better). Each of `reps` rounds times a chip step of a freshly loaded
/// chip and, right after it, a kernel batch of about the same length, so
/// both halves of a round's ratio see the same host; the result is the
/// median round (the first round only sizes the batch).
fn chip_tick_vs_kernel(scan: &Scan, reps: usize) -> f64 {
    let sys = WorkloadSpec::paper(SimulationSpace::cubic(3), 64205).generate();
    let mut hits: Vec<ScanHit> = Vec::with_capacity(64);
    let mut ratios = Vec::with_capacity(reps);
    let mut batch = 1u64;
    for _ in 0..=reps {
        let mut chip = TimedChip::new(
            ChipConfig::variant(DesignVariant::A),
            ChipGeometry::single_chip(sys.space),
            UnitSystem::PAPER,
            2.0,
        );
        chip.set_fast_path(true);
        chip.set_soa_scan(true);
        chip.load(&sys);
        let t = Instant::now();
        let r = chip.run_timestep();
        let step_s = t.elapsed().as_secs_f64();
        let per_scan = time_batch(batch, || scan.fused(&mut hits));
        if batch > 1 {
            let chip_ns = step_s * 1e9 / r.comparisons as f64;
            ratios.push(chip_ns / (per_scan * 1e9 / scan.concat.len() as f64));
        }
        batch = ((step_s / per_scan) as u64).max(2);
    }
    median(ratios)
}

/// The committed throughput baseline the `--smoke` gate compares
/// against, at the workspace root.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_datapath.json");

/// Largest tolerated drop of the fused/scalar throughput ratio before
/// the gate fails the job.
const GATE_TOLERANCE: f64 = 0.15;

/// Time `f` and print ns/iter, criterion-style.
fn bench<R>(group: &str, name: &str, min: Duration, mut f: impl FnMut() -> R) {
    let t = Instant::now();
    let mut iters = 0u64;
    while t.elapsed() < min / 4 {
        black_box(f());
        iters += 1;
    }
    let target = iters.max(1) * 4;
    let t = Instant::now();
    for _ in 0..target {
        black_box(f());
    }
    let per = t.elapsed().as_nanos() as f64 / target as f64;
    println!("{group}/{name:<28} {per:>14.1} ns/iter ({target} iters)");
}

fn throughput_report(k: &KernelThroughput) {
    println!(
        "\nthroughput over the {}-particle home cell ({} hits/scan):",
        k.home_len, k.hits_per_scan
    );
    println!(
        "  scalar  {:>12.1} Mpairs/s filtered {:>12.1} Mforces/s evaluated",
        k.scalar_pairs_per_sec / 1e6,
        k.scalar_forces_per_sec / 1e6
    );
    println!(
        "  fused   {:>12.1} Mpairs/s filtered {:>12.1} Mforces/s evaluated",
        k.fused_pairs_per_sec / 1e6,
        k.fused_forces_per_sec / 1e6
    );
    println!("  fused/scalar ratio: {:.3}x", k.fused_vs_scalar);
}

fn baseline_json(k: &KernelThroughput, tick_vs_kernel: f64) -> String {
    Json::obj()
        .field("home_len", k.home_len as i64)
        .field("hits_per_scan", k.hits_per_scan as i64)
        .field("scalar_pairs_per_sec", Json::fixed(k.scalar_pairs_per_sec, 0))
        .field("fused_pairs_per_sec", Json::fixed(k.fused_pairs_per_sec, 0))
        .field("scalar_forces_per_sec", Json::fixed(k.scalar_forces_per_sec, 0))
        .field("fused_forces_per_sec", Json::fixed(k.fused_forces_per_sec, 0))
        .field("fused_vs_scalar", Json::fixed(k.fused_vs_scalar, 3))
        .field(
            "gate",
            "datapathbench --smoke fails if the fused/scalar ratio drops >15% below this",
        )
        .field("chip_tick_vs_kernel", Json::fixed(tick_vs_kernel, 2))
        .field(
            "chip_tick_gate",
            "datapathbench --smoke fails if chip_tick_vs_kernel rises >15% above this",
        )
        .build()
        .pretty()
}

/// The `--smoke` perf-regression gate. Exits the process non-zero on a
/// regression so CI fails the job.
fn smoke_gate(scan: &Scan) {
    let k = measure_kernels(scan, MIN);
    throughput_report(&k);
    let text = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| panic!("missing baseline {BASELINE}: {e} (run --write-baseline)"));
    let doc = Json::parse(&text).expect("baseline parses");
    let want = doc
        .get("fused_vs_scalar")
        .and_then(Json::as_f64)
        .expect("baseline has fused_vs_scalar");
    let got = k.fused_vs_scalar;
    let floor = want * (1.0 - GATE_TOLERANCE);
    println!("gate: fused/scalar {got:.3}x vs baseline {want:.3}x (floor {floor:.3}x)");
    if got < floor {
        eprintln!(
            "FAIL: fused kernel throughput regressed more than {:.0}% vs the committed baseline",
            GATE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    let want = doc
        .get("chip_tick_vs_kernel")
        .and_then(Json::as_f64)
        .expect("baseline has chip_tick_vs_kernel");
    let got = chip_tick_vs_kernel(scan, TICK_ROUNDS);
    let ceiling = want * (1.0 + GATE_TOLERANCE);
    println!("gate: chip tick {got:.2}x the kernel per pair vs baseline {want:.2}x (ceiling {ceiling:.2}x)");
    if got > ceiling {
        eprintln!(
            "FAIL: the chip tick's cost per pair regressed more than {:.0}% vs the committed baseline",
            GATE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("gate: ok");
}

const MIN: Duration = Duration::from_millis(300);

/// Rounds of [`chip_tick_vs_kernel`], one count for the gate and the
/// baseline, so the gate reads a measurement as steady as the one it is
/// held to.
const TICK_ROUNDS: usize = 12;

fn main() {
    // `cargo bench` passes `--bench` too, so flags are looked for, not parsed.
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let scan = Scan::reference();
    if flag("--smoke") {
        smoke_gate(&scan);
        return;
    }
    if flag("--write-baseline") {
        let k = measure_kernels(&scan, MIN);
        throughput_report(&k);
        let tick = chip_tick_vs_kernel(&scan, TICK_ROUNDS);
        println!("  chip tick vs kernel per pair: {tick:.2}x");
        std::fs::write(BASELINE, baseline_json(&k, tick)).expect("write baseline");
        println!("wrote {BASELINE}");
        return;
    }

    println!("fasda datapathbench (hand-rolled harness, ns/iter)");
    bench("datapath", "scan64_scalar", MIN, || scan.scalar());
    let mut planned: Vec<ScanHit> = Vec::with_capacity(64);
    bench("datapath", "scan64_fused", MIN, || scan.fused(&mut planned));

    // Filter only: the scalar scan loop without the force table.
    bench("datapath", "filter64_scalar", MIN, || {
        let mut n = 0u32;
        for &c in &scan.concat {
            n += u32::from(scan.dp.filter(c, scan.nbr).is_some());
        }
        n
    });

    // Phase-start transposition cost (amortized over the whole phase).
    let mut rebuilt = HomeSoa::new();
    bench("datapath", "soa_rebuild64", MIN, || {
        rebuilt.rebuild(&scan.elems, &scan.concat);
        rebuilt.len()
    });

    throughput_report(&measure_kernels(&scan, MIN));
    println!(
        "  dense variant-A chip step: {:.2}x the fused kernel's ns per filtered pair",
        chip_tick_vs_kernel(&scan, TICK_ROUNDS)
    );
}
