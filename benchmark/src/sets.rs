//! Running the whole benchmark: every workload, both passes, `--sets N`
//! times, each pass in a fresh child process of this binary — one after
//! another, so never more than one workload's threads are busy.
//!
//! Prints, per workload and end-to-end metric, the value of every set,
//! their spread and the bound from `BENCHMARK.json`: the tool the
//! repeatability criterion is checked with. Metrics that must repeat
//! exactly for a given seed are compared bit for bit.

use crate::manifest::Manifest;
use crate::{host, stats, workloads, Args, DEFAULT_SEED};
use fasda_trace::Json;
use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// Metrics that are functions of the inputs alone: any difference
/// between two runs on one seed is a bug, not noise.
const EXACT: &[&str] = &[
    "sim_us_per_day",
    "md.energy_rel_err",
    "core.chip_dense_cycles_per_step",
    "core.filter_pairs",
    "core.pe_forces",
    "core.filter_time_util",
    "core.pe_time_util",
    "cluster.sim_cycles",
    "cluster.skipped_cycles",
    "cluster.skipped_share",
    "net.faults_injected",
    "net.retransmits",
    "net.acks_sent",
    "net.duplicates_dropped",
    "net.cycle_inflation",
    "net.pos_packets",
    "net.frc_packets",
    "net.pos_gbps_per_node",
    "net.frc_gbps_per_node",
    "ckpt.bytes",
    "ckpt.restarts",
    "ckpt.steps_replayed",
    "trace.events",
];

fn is_exact(metric: &str) -> bool {
    EXACT.contains(&metric) || metric.starts_with("trace.stall.")
}

/// Spread of one metric's set values as a share of their median: the
/// interquartile distance the acceptance rule uses once there are enough
/// sets for quartiles to mean something, the full range below that.
fn set_spread(values: &[f64]) -> f64 {
    let median = stats::median(values);
    if values.len() >= 4 {
        stats::spread(values)
    } else if median == 0.0 {
        0.0
    } else {
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        (hi - lo) / median.abs()
    }
}

/// One child pass: its parsed result line.
struct Pass {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child(
    workload: &str,
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited, so a child's FAIL lines show as they happen.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("    {line}");
    }
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {e}: {last}",
            out.status.code()
        )
    })?;
    let count = |k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            metrics.insert(
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
        }
    }
    Ok(Pass {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// Returns `Ok(true)` when every operation passed, every exact metric
/// repeated and every spread stayed within its bound.
pub fn run(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let sets: usize = args.parsed("--sets", 1)?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let smoke = args.flag("--smoke");
    let seconds = if smoke {
        0.0
    } else {
        args.parsed("--seconds", manifest.run_seconds as f64)?
    };
    let names: Vec<&str> = match args.value("--only") {
        Some(w) if workloads::ALL.contains(&w) => vec![w],
        Some(w) => {
            return Err(format!(
                "unknown workload '{w}' (one of {})",
                workloads::ALL.join(", ")
            ))
        }
        None => workloads::ALL.to_vec(),
    };
    if sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    let provenance = host::provenance(seed);
    println!(
        "fasda benchmark: {} workload(s), {sets} set(s), seed {seed}, {seconds} s windows{}",
        names.len(),
        if smoke { ", smoke" } else { "" }
    );
    println!("provenance: {}", provenance.compact());

    // results[workload][metric] = one value per set
    let mut results: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for set in 0..sets {
        for &w in &names {
            // Smoke checks correctness only; the untraced pass has the
            // same gate at a third of the traced pass's time.
            for traced in if smoke {
                vec![false]
            } else {
                vec![false, true]
            } {
                println!(
                    "set {} · {w} · {} pass",
                    set + 1,
                    if traced { "traced" } else { "untraced" }
                );
                let pass = child(w, traced, seed, seconds, smoke)?;
                attempted += pass.attempted;
                failed += pass.failed;
                println!("  -> {} attempted, {} failed", pass.attempted, pass.failed);
                let per_metric = results.entry(w).or_default();
                for (name, value) in pass.metrics {
                    per_metric.entry(name).or_default().push(value);
                }
            }
        }
    }

    let mut ok = failed == 0;
    if smoke {
        println!("smoke: {attempted} operations attempted, {failed} failed; no numbers recorded");
        return Ok(ok);
    }
    println!(
        "\n{:<16} {:<24} {:>9} {:>8}  values per set",
        "workload", "metric", "spread", "bound"
    );
    let mut rows = Vec::new();
    for &w in &names {
        for def in &manifest.end_to_end {
            let Some(values) = results.get(w).and_then(|m| m.get(&def.name)) else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let median = stats::median(values);
            let spread = set_spread(values);
            let exact_ok =
                !is_exact(&def.name) || values.iter().all(|v| v.to_bits() == values[0].to_bits());
            let verdict = if !exact_ok {
                "NOT EXACT"
            } else if spread > bound && !is_exact(&def.name) {
                "OVER BOUND"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "{w:<16} {:<24} {:>8.2}% {:>7.1}%  {} {verdict}",
                def.name,
                spread * 100.0,
                bound * 100.0,
                shown.join(" ")
            );
            rows.push(
                Json::obj()
                    .field("workload", w)
                    .field("metric", def.name.as_str())
                    .field("unit", def.unit.as_str())
                    .field(
                        "sets",
                        values.iter().map(|v| Json::from(*v)).collect::<Vec<_>>(),
                    )
                    .field("median", median)
                    .field("spread", spread)
                    .field("bound", bound)
                    .build(),
            );
        }
    }
    // Exact per-layer counts must repeat too; timings are recorded as
    // measured.
    let mut layers = Vec::new();
    for &w in &names {
        for def in &manifest.per_layer {
            let Some(values) = results.get(w).and_then(|m| m.get(&def.name)) else {
                continue;
            };
            // A per-layer metric reads 0 on a workload that does not
            // exercise its layer; such rows are left out.
            if values.iter().all(|v| *v == 0.0) {
                continue;
            }
            if is_exact(&def.name) && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                println!("{w:<16} {:<24} NOT EXACT across sets: {values:?}", def.name);
                ok = false;
            }
            layers.push(
                Json::obj()
                    .field("workload", w)
                    .field("metric", def.name.as_str())
                    .field("unit", def.unit.as_str())
                    .field(
                        "sets",
                        values.iter().map(|v| Json::from(*v)).collect::<Vec<_>>(),
                    )
                    .build(),
            );
        }
    }

    let doc = Json::obj()
        .field("provenance", provenance)
        .field("sets", sets)
        .field("seconds", seconds)
        .field(
            "operations",
            Json::obj()
                .field("attempted", Json::uint(attempted))
                .field("failed", Json::uint(failed))
                .build(),
        )
        .field("end_to_end", rows)
        .field("per_layer", layers)
        .field("claim", Json::Null)
        .build();
    std::fs::create_dir_all(host::RESULTS_DIR)
        .map_err(|e| format!("{}: {e}", host::RESULTS_DIR))?;
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = format!("{}/results-{stamp}.json", host::RESULTS_DIR);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("\nresults written to {path}");
    let summary = Json::obj()
        .field("operations_attempted", Json::uint(attempted))
        .field("operations_failed", Json::uint(failed))
        .field("repeatable", ok)
        .field("claim", Json::Null)
        .build();
    println!("{}", summary.compact());
    Ok(ok)
}
