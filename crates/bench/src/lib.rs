//! # fasda-bench
//!
//! Harnesses that regenerate every table and figure of the FASDA paper's
//! evaluation (§5), plus ablation studies. Each harness is a binary:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig16` | Fig. 16 — simulation rate (µs/day), weak + strong scaling, FPGA vs CPU vs GPU |
//! | `fig17` | Fig. 17 — hardware/time utilization of PR, FR, Filter, PE, MU |
//! | `fig18` | Fig. 18 — communication bandwidth demand and per-peer breakdown |
//! | `table1` | Table 1 — FPGA resource utilization (model vs paper) |
//! | `fig19` | Fig. 19 — energy relative error vs the f64 reference |
//! | `ablate_sync` | §4.4 — chained vs bulk synchronization under stragglers |
//! | `ablate_interp` | §3.4 — interpolation table precision sweep |
//! | `ablate_filters` | §5.3 — filters-per-pipeline sweep |
//! | `ablate_cellsize` | Fig. 3 — cell edge vs cutoff radius |
//! | `ablate_topology` | §4.1 — switch vs ring vs 2nd-order hyper-ring |
//!
//! Nothing else lives here. Host-time numbers come from the frozen
//! `benchmark/` package (`BENCHMARK.json`), gates from `cargo test`, and
//! checkpoint costs from the run that pays them (the `host` object of
//! its heartbeat stream's `final` record); the hand-rolled
//! micro-benchmarks in `benches/` (`microbench`, `datapathbench`) are
//! for looking at one kernel at a time.

use fasda_cluster::EngineConfig;
use std::collections::HashMap;

/// Tiny `--key value` / `--flag` argument parser (no external deps).
pub struct Args {
    flags: Vec<String>,
    values: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Self {
        let mut flags = Vec::new();
        let mut values = HashMap::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    values.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { flags, values }
    }

    /// Value of `--key`, parsed; `default` when the flag is absent. A
    /// value that does not parse exits 1 naming the flag.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let Some(v) = self.values.get(key) else {
            return default;
        };
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key}: cannot parse '{v}'");
            std::process::exit(1)
        })
    }

    /// Presence of `--flag`.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// `--serial` → the oracle engine; otherwise the fast engine. Shared by
/// the cluster-driving harnesses; both produce bit-identical reports,
/// only wall-clock time differs.
pub fn engine_from_args(args: &Args) -> EngineConfig {
    if args.flag("serial") {
        EngineConfig::serial()
    } else {
        EngineConfig::auto()
    }
}

/// Print a separator line for harness output.
pub fn rule(title: &str) {
    println!("\n=== {title} {}", "=".repeat(66usize.saturating_sub(title.len())));
}
