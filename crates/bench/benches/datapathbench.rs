//! Datapath kernel micro-benchmarks: the scalar per-comparison
//! `filter()`/`force()` walk vs the fused filter→force kernel
//! (`ForceDatapath::fused_scan_into`) that the timed model's stations
//! dispatch through by default.
//!
//! Same hand-rolled harness as `microbench` (no external bench
//! framework). Run with `cargo bench --bench datapathbench`.
//!
//! Modes (flags pass through the `harness = false` entry point):
//!
//! * default — ns/iter for every kernel plus a per-kernel throughput
//!   report (pairs/sec filtered, forces/sec evaluated).
//! * `--smoke` — the CI perf-regression gate: a short measurement whose
//!   fused/scalar throughput *ratio* is compared against the committed
//!   `BENCH_datapath.json` baseline; exits non-zero if the fused kernel
//!   regressed more than 15%. The ratio (not absolute pairs/sec) is
//!   gated because both kernels run in the same process on the same
//!   host, which cancels machine speed.
//! * `--write-baseline` — regenerate `BENCH_datapath.json` from a full
//!   measurement (run on a quiet host, then commit the file).

use fasda_bench::kernels::{measure_kernels, reference_home, reference_neighbour, KernelThroughput};
use fasda_bench::Args;
use fasda_core::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_arith::interp::TableConfig;
use fasda_md::element::{Element, PairTable};
use fasda_md::units::UnitSystem;
use fasda_trace::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The committed throughput baseline the `--smoke` gate compares
/// against, at the workspace root next to `BENCH_engine.json`.
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
    println!("  fused/scalar ratio: {:.3}x", k.fused_vs_scalar());
}

fn baseline_json(k: &KernelThroughput) -> String {
    Json::obj()
        .field("home_len", k.home_len as i64)
        .field("hits_per_scan", k.hits_per_scan as i64)
        .field("scalar_pairs_per_sec", Json::fixed(k.scalar_pairs_per_sec, 0))
        .field("fused_pairs_per_sec", Json::fixed(k.fused_pairs_per_sec, 0))
        .field("scalar_forces_per_sec", Json::fixed(k.scalar_forces_per_sec, 0))
        .field("fused_forces_per_sec", Json::fixed(k.fused_forces_per_sec, 0))
        .field("fused_vs_scalar", Json::fixed(k.fused_vs_scalar(), 3))
        .field(
            "gate",
            "datapathbench --smoke fails if the fused/scalar ratio drops >15% below this",
        )
        .build()
        .pretty()
}

/// The `--smoke` perf-regression gate. Exits the process non-zero on a
/// regression so CI fails the job.
fn smoke_gate() {
    let k = measure_kernels(Duration::from_millis(60));
    throughput_report(&k);
    let text = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| panic!("missing baseline {BASELINE}: {e} (run --write-baseline)"));
    let doc = Json::parse(&text).expect("baseline parses");
    let want = doc
        .get("fused_vs_scalar")
        .and_then(Json::as_f64)
        .expect("baseline has fused_vs_scalar");
    let got = k.fused_vs_scalar();
    let floor = want * (1.0 - GATE_TOLERANCE);
    println!("gate: fused/scalar {got:.3}x vs baseline {want:.3}x (floor {floor:.3}x)");
    if got < floor {
        eprintln!(
            "FAIL: fused kernel throughput regressed more than {:.0}% vs the committed baseline",
            GATE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("gate: ok");
}

const MIN: Duration = Duration::from_millis(300);

fn main() {
    let args = Args::parse();
    if args.flag("smoke") {
        smoke_gate();
        return;
    }
    if args.flag("write-baseline") {
        let k = measure_kernels(MIN);
        throughput_report(&k);
        std::fs::write(BASELINE, baseline_json(&k)).expect("write baseline");
        println!("wrote {BASELINE}");
        return;
    }

    println!("fasda datapathbench (hand-rolled harness, ns/iter)");
    let dp = ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER);
    let (elems, concat) = reference_home(64);
    let mut soa = HomeSoa::new();
    soa.rebuild(&elems, &concat);
    // An adjacent-cell neighbour: a realistic mix of hits and misses.
    let nbr = reference_neighbour();
    let nbr_elem = Element::Na;

    // Scalar reference: one virtual filter() per slot, force() per hit —
    // the work one station performs over a 64-particle scan.
    bench("datapath", "scan64_scalar", MIN, || {
        let mut acc = [0.0f32; 3];
        for i in 0..concat.len() {
            if let Some(pair) = dp.filter(concat[i], nbr) {
                let f = dp.force(elems[i], nbr_elem, pair);
                for k in 0..3 {
                    acc[k] += f[k];
                }
            }
        }
        acc
    });

    // Fused filter→force kernel: what Pe::dispatch_planned runs at
    // dispatch time by default — survivors go straight from the pass
    // mask into interpolation, no FilteredPair vector in between.
    let mut planned: Vec<ScanHit> = Vec::with_capacity(64);
    bench("datapath", "scan64_fused", MIN, || {
        planned.clear();
        dp.fused_scan_into(&soa, nbr, nbr_elem, 0, &mut planned);
        let mut acc = [0.0f32; 3];
        for h in &planned {
            for (a, f) in acc.iter_mut().zip(h.force) {
                *a += f;
            }
        }
        acc
    });

    // Filter only: the scalar scan loop without the force table.
    bench("datapath", "filter64_scalar", MIN, || {
        let mut n = 0u32;
        for &c in &concat {
            n += u32::from(dp.filter(c, nbr).is_some());
        }
        n
    });

    // Phase-start transposition cost (amortized over the whole phase).
    let mut rebuilt = HomeSoa::new();
    bench("datapath", "soa_rebuild64", MIN, || {
        rebuilt.rebuild(&elems, &concat);
        rebuilt.len()
    });

    throughput_report(&measure_kernels(MIN));
}
