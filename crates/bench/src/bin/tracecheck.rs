//! `tracecheck <run.trace.json> <run.metrics.json>` — CI validator for
//! the flight-recorder exports.
//!
//! Checks, on files produced by `fasda-cli run --trace-out ...
//! --metrics-out ...`:
//!
//! * both documents parse with the fasda-trace JSON reader and survive
//!   a parse → render → parse round-trip unchanged;
//! * every Chrome trace event carries the mandatory `ph`/`pid` fields
//!   (and `ts` for everything but metadata), and every node opens at
//!   least one `force` phase span;
//! * in the metrics document, each (node, step) stall breakdown sums
//!   exactly to that record's `force_cycles` — the attribution
//!   invariant `productive + Σ causes == force_cycles` — with every
//!   known stall-cause key (including the reliability layer's
//!   `retransmit` / `wait-ack` classes) present and summing exactly to
//!   `idle`.
//!
//! With `--beats beats.jsonl` the heartbeat stream from
//! `--heartbeat-out` is also validated: every line parses, record
//! types are `beat`/`fleet`/`final`, beat counters strictly increase,
//! steps and cycle counters never decrease, at most one `final` record
//! closes the stream — and when the metrics document carries an `obs`
//! section, the final record's live totals must equal it exactly (the
//! live-vs-post-hoc identity the CI gates). `--prom scrape.prom`
//! parses the Prometheus text exposition file.
//!
//! Exits non-zero with a message on the first violation.

use fasda_obs::parse_jsonl;
use fasda_trace::{Json, StallCause};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tracecheck: {msg}");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    let again =
        Json::parse(&doc.pretty()).map_err(|e| format!("{path}: re-parse error: {e}"))?;
    if again != doc {
        return Err(format!("{path}: render/parse round-trip changed the document"));
    }
    Ok(doc)
}

fn check_chrome(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .ok_or("trace: no traceEvents array")?
        .items();
    if events.is_empty() {
        return Err("trace: traceEvents is empty".into());
    }
    let mut force_spans: BTreeMap<i64, u64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace: event {i} has no ph"))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("trace: event {i} has no pid"))?;
        if ph != "M" && e.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("trace: {ph} event {i} has no ts"));
        }
        if ph == "B" && e.get("name").and_then(Json::as_str) == Some("force") {
            *force_spans.entry(pid).or_default() += 1;
        }
    }
    let nodes = doc
        .get("otherData")
        .and_then(|o| o.get("nodes"))
        .and_then(Json::as_i64)
        .ok_or("trace: otherData.nodes missing")?;
    for node in 0..nodes {
        if !force_spans.contains_key(&node) {
            return Err(format!("trace: node {node} opened no force-phase span"));
        }
    }
    println!(
        "trace ok: {} events, {} nodes with force spans",
        events.len(),
        force_spans.len()
    );
    Ok(())
}

fn check_metrics(doc: &Json) -> Result<(), String> {
    let run = doc.get("run").ok_or("metrics: no run section")?;
    let records = run.get("records").ok_or("metrics: run.records missing")?.items();
    if records.is_empty() {
        return Err("metrics: run.records is empty".into());
    }
    // force_cycles per (node, step), from the run section.
    let mut force_cycles: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    for r in records {
        let node = r.get("node").and_then(Json::as_i64).ok_or("metrics: record node")?;
        let step = r.get("step").and_then(Json::as_i64).ok_or("metrics: record step")?;
        let fc = r
            .get("force_cycles")
            .and_then(Json::as_i64)
            .ok_or("metrics: record force_cycles")?;
        force_cycles.insert((node, step), fc);
    }
    let Some(stalls) = doc.get("stalls") else {
        println!("metrics ok: {} records (no stall section — tracing off)", force_cycles.len());
        return Ok(());
    };
    let mut checked = 0usize;
    for n in stalls.get("nodes").ok_or("metrics: stalls.nodes")?.items() {
        let node = n.get("node").and_then(Json::as_i64).ok_or("metrics: stall node id")?;
        for s in n.get("steps").ok_or("metrics: stall steps")?.items() {
            let step = s.get("step").and_then(Json::as_i64).ok_or("metrics: stall step id")?;
            let total = s.get("total").and_then(Json::as_i64).ok_or("metrics: stall total")?;
            let productive = s
                .get("productive")
                .and_then(Json::as_i64)
                .ok_or("metrics: stall productive")?;
            let idle = s.get("idle").and_then(Json::as_i64).ok_or("metrics: stall idle")?;
            if productive + idle != total {
                return Err(format!(
                    "metrics: node {node} step {step}: productive {productive} + idle {idle} != total {total}"
                ));
            }
            // Per-cause attribution: every cause key (including the
            // reliability layer's retransmit / wait-ack) must be present
            // and the breakdown must sum exactly to `idle`.
            let mut causes = 0i64;
            for cause in StallCause::ALL {
                let v = s.get(cause.label()).and_then(Json::as_i64).ok_or_else(|| {
                    format!(
                        "metrics: node {node} step {step}: missing stall cause `{}`",
                        cause.label()
                    )
                })?;
                causes += v;
            }
            if causes != idle {
                return Err(format!(
                    "metrics: node {node} step {step}: Σ causes {causes} != idle {idle}"
                ));
            }
            let want = force_cycles.get(&(node, step)).copied().ok_or_else(|| {
                format!("metrics: stall entry for node {node} step {step} has no run record")
            })?;
            if total != want {
                return Err(format!(
                    "metrics: node {node} step {step}: stall total {total} != force_cycles {want}"
                ));
            }
            checked += 1;
        }
    }
    if checked != force_cycles.len() {
        return Err(format!(
            "metrics: {checked} stall entries for {} run records",
            force_cycles.len()
        ));
    }
    println!("metrics ok: {checked} (node, step) stall breakdowns match force_cycles exactly");
    Ok(())
}

/// Cumulative per-shard exchange gauges every `fleet` row carries.
const SHARD_GAUGES: [&str; 5] = ["windows", "events_sent", "frame_bytes", "compute_ns", "wait_ns"];

/// One `fleet` record's shard rows: every exchange gauge present,
/// non-negative and never running backwards, and `wait_share` the
/// blocked share of compute + wait time.
fn check_fleet_gauges(
    rec: &Json,
    last: &mut Vec<[i64; SHARD_GAUGES.len()]>,
) -> Result<(), String> {
    let shards = rec.get("shards").map(Json::items).ok_or("fleet record has no shards")?;
    last.resize(shards.len().max(last.len()), [0; SHARD_GAUGES.len()]);
    for (s, row) in shards.iter().enumerate() {
        let mut now = [0i64; SHARD_GAUGES.len()];
        for (slot, name) in now.iter_mut().zip(SHARD_GAUGES) {
            *slot = row
                .get(name)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("shard {s} has no {name} gauge"))?;
        }
        if now.iter().zip(&last[s]).any(|(n, l)| n < l) {
            return Err(format!("shard {s}: exchange gauges ran backwards: {now:?} after {:?}", last[s]));
        }
        if now[0] < 1 {
            return Err(format!("shard {s}: a beat without a single exchange window"));
        }
        let share = row
            .get("wait_share")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("shard {s} has no wait_share"))?;
        let busy = (now[3] + now[4]).max(1) as f64;
        if !(0.0..=1.0).contains(&share) || (share - now[4] as f64 / busy).abs() > 1e-6 {
            return Err(format!("shard {s}: wait_share {share} disagrees with its gauges {now:?}"));
        }
        last[s] = now;
    }
    Ok(())
}

/// Validate a heartbeat JSONL stream (and, when the metrics document
/// carries an `obs` section, the live-vs-post-hoc totals identity).
fn check_beats(path: &str, metrics: &Json) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: heartbeat stream is empty"));
    }
    let mut last_beat = 0i64;
    let mut last_step = -1i64;
    let mut last_cycles = -1i64;
    let mut finals = 0usize;
    // Per shard: the cumulative exchange gauges of its last fleet row.
    let mut last_gauges: Vec<[i64; SHARD_GAUGES.len()]> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let kind = rec
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record {i} has no type"))?;
        match kind {
            "beat" | "fleet" => {
                if finals > 0 {
                    return Err(format!("{path}: record {i}: {kind} after final"));
                }
                let beat = rec
                    .get("beat")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("{path}: record {i} has no beat counter"))?;
                if beat <= last_beat {
                    return Err(format!(
                        "{path}: record {i}: beat {beat} not after {last_beat}"
                    ));
                }
                last_beat = beat;
                let step = rec
                    .get("step")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("{path}: record {i} has no step"))?;
                if step < last_step {
                    return Err(format!("{path}: record {i}: step went backwards"));
                }
                last_step = step;
                if let Some(cycles) = rec
                    .get("counters")
                    .and_then(|c| c.get("cycles"))
                    .and_then(Json::as_i64)
                {
                    if cycles < last_cycles {
                        return Err(format!("{path}: record {i}: cycle counter decreased"));
                    }
                    last_cycles = cycles;
                }
                if kind == "fleet" {
                    check_fleet_gauges(rec, &mut last_gauges)
                        .map_err(|e| format!("{path}: record {i}: {e}"))?;
                }
            }
            "final" => {
                finals += 1;
                if i + 1 != records.len() {
                    return Err(format!("{path}: final record is not last"));
                }
                if let Some(obs) = metrics.get("obs") {
                    for section in ["counters", "hists"] {
                        if rec.get(section) != obs.get(section) {
                            return Err(format!(
                                "{path}: final record {section} differ from the metrics \
                                 document's obs section — live totals drifted from post-hoc"
                            ));
                        }
                    }
                }
            }
            other => return Err(format!("{path}: record {i}: unknown type {other:?}")),
        }
    }
    println!(
        "beats ok: {} records ({} final{})",
        records.len(),
        finals,
        if metrics.get("obs").is_some() { ", live totals match metrics obs section" } else { "" }
    );
    Ok(())
}

/// Parse a Prometheus text-exposition scrape file: comments or
/// `name[{labels}] value` lines, `fasda`-prefixed names, float values.
fn check_prom(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        if line.starts_with("# TYPE ") || line.starts_with("# HELP ") {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{path}: line {}: no sample value", i + 1))?;
        if !name.starts_with("fasda") {
            return Err(format!("{path}: line {}: unprefixed metric {name}", i + 1));
        }
        if let Some(open) = name.find('{') {
            if !name.ends_with('}') {
                return Err(format!("{path}: line {}: unterminated label set", i + 1));
            }
            if name[open + 1..name.len() - 1].is_empty() {
                return Err(format!("{path}: line {}: empty label set", i + 1));
            }
        }
        value
            .parse::<f64>()
            .map_err(|_| format!("{path}: line {}: bad sample value {value:?}", i + 1))?;
        samples += 1;
    }
    if samples == 0 {
        return Err(format!("{path}: scrape file has no samples"));
    }
    println!("prom ok: {samples} samples");
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_opt = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            return None; // flag stays put → the usage check below fires
        }
        args.remove(i);
        Some(args.remove(i))
    };
    let beats_path = take_opt("--beats");
    let prom_path = take_opt("--prom");
    let [trace_path, metrics_path] = args.as_slice() else {
        eprintln!(
            "usage: tracecheck <run.trace.json> <run.metrics.json> \
             [--beats beats.jsonl] [--prom scrape.prom]"
        );
        return ExitCode::from(2);
    };
    let trace = match load(trace_path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let metrics = match load(metrics_path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    if let Err(e) = check_chrome(&trace) {
        return fail(&e);
    }
    if let Err(e) = check_metrics(&metrics) {
        return fail(&e);
    }
    if let Some(path) = beats_path {
        if let Err(e) = check_beats(&path, &metrics) {
            return fail(&e);
        }
    }
    if let Some(path) = prom_path {
        if let Err(e) = check_prom(&path) {
            return fail(&e);
        }
    }
    ExitCode::SUCCESS
}
