//! The repo benchmark. Two ways in, one binary:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints, as the last line of stdout,
//!   the result object `BENCHMARK.json`'s contract asks for;
//! * without `--workload` it runs every workload (or `--only NAME`),
//!   each pass in a fresh child process of itself so peak memory and
//!   thread pools are per workload, `--sets N` times over, and prints
//!   the set medians, their spread and the bound of every end-to-end
//!   metric. `--smoke` is the quick correctness-only variant.
//!
//! Run from the repo root (see README.md).

mod host;
mod manifest;
mod sets;
mod span;
mod stats;
mod workloads;

use manifest::{Manifest, Outcome};
use std::process::ExitCode;

/// `--key value` / `--flag` arguments.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {key}")),
        }
    }
}

/// The CLI's default `--seed`.
pub const DEFAULT_SEED: u64 = 64205;

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let manifest = Manifest::load();
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        eprintln!(
            "error: run the benchmark from the repo root (benchmark/Cargo.toml not found here)"
        );
        return ExitCode::from(2);
    }
    let outcome = match args.value("--workload") {
        Some(name) => one_workload(name, &args, &manifest),
        None => sets::run(&args, &manifest),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The contract's entry point: one workload, one pass, one result line.
/// `Ok(false)` when an operation failed its correctness check.
fn one_workload(name: &str, args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    let mut ctx = workloads::Ctx {
        seed,
        seconds: args.parsed("--seconds", manifest.run_seconds as f64)?,
        traced,
        smoke: args.flag("--smoke"),
        tracer: span::Tracer::new(traced),
    };

    let provenance = host::provenance(seed);
    println!(
        "# fasda benchmark: workload {name}, {} pass",
        if traced { "traced" } else { "untraced" }
    );
    println!("# provenance: {}", provenance.compact());
    let load = host::load_average();
    if load > host::nproc() as f64 {
        println!(
            "# WARNING: 1-minute load average {load:.2} exceeds nproc {}; timings will be noisy",
            host::nproc()
        );
    }

    let outcome = workloads::run(name, &mut ctx)?;
    print_metrics(&outcome, manifest, traced);
    let mut ok = outcome.failed == 0;
    if traced {
        let gap = span::worst_self_sum_gap(ctx.tracer.spans());
        println!(
            "# spans: {} recorded, worst |Σ self − root duration| / duration = {gap:.2e}",
            ctx.tracer.spans().len()
        );
        if gap > 0.01 {
            eprintln!("FAIL span self times do not sum to their root's duration");
            ok = false;
        }
        std::fs::create_dir_all(host::RESULTS_DIR)
            .map_err(|e| format!("{}: {e}", host::RESULTS_DIR))?;
        let path = format!("{}/spans-{name}.json", host::RESULTS_DIR);
        std::fs::write(&path, ctx.tracer.to_json(name).pretty())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# spans written to {path}");
    }
    println!(
        "# operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.result_line(manifest, traced)?.compact());
    Ok(ok)
}

/// Every measured metric by name, with its unit and sample count.
fn print_metrics(outcome: &Outcome, manifest: &Manifest, traced: bool) {
    for def in manifest.metrics(traced) {
        if let Some(m) = outcome.metrics.get(&def.name) {
            // Six significant digits whatever the magnitude: the list runs
            // from 1e-8 (energy error) to 1e7 (pair counts).
            let digits =
                (5 - m.value.abs().max(1e-300).log10().floor() as i32).clamp(0, 12) as usize;
            println!(
                "{:<36} {:>18.*} {:<10} n={}",
                def.name, digits, m.value, def.unit, m.samples
            );
        }
    }
}
