//! # fasda-obs — live telemetry for the FASDA simulator
//!
//! Everything the workspace knew about a run used to be post-hoc: the
//! flight recorder and the stall ledger are folded into JSON *after*
//! the last step retires. This crate adds the in-run side:
//!
//! * [`Registry`] — a tiny metrics registry (monotonic counters,
//!   gauges, fixed-bucket histograms) with deterministic iteration
//!   order, so two runs that agree on simulated state render
//!   byte-identical snapshots.
//! * [`JsonlSink`] — append-only JSON-Lines heartbeat stream (one
//!   self-contained object per line; crash-tolerant by construction).
//! * [`prom_render`] / [`prom_write`] — Prometheus text exposition
//!   format, written atomically to a scrape file (tmp + rename) so a
//!   collector never reads a torn snapshot.
//! * [`model`] — the paper's §5 analytical performance model and the
//!   model-vs-measured divergence report.
//!
//! The registry deliberately stores *series*, not callbacks: the
//! simulator samples its own state into the registry at heartbeat
//! boundaries, and the exporters are pure functions of the registry.
//! That keeps wall-clock (gauges) cleanly separated from simulated
//! quantities (counters/histograms): identity gates compare only the
//! latter via [`Registry::totals_json`].

pub mod model;

use fasda_trace::Json;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Key of one metric series: a family name plus an optional single
/// `key="value"` label (enough for every series the simulator emits;
/// multi-label series would complicate deterministic ordering for no
/// current consumer).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name (`[a-z_][a-z0-9_]*`, enforced by debug assert).
    pub name: String,
    /// Optional label pair, e.g. `("cause", "wait-neighbor-sync")`.
    pub label: Option<(String, String)>,
}

impl SeriesKey {
    fn plain(name: &str) -> Self {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        SeriesKey {
            name: name.to_string(),
            label: None,
        }
    }

    fn labeled(name: &str, key: &str, value: &str) -> Self {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        debug_assert!(valid_metric_name(key), "bad label key: {key}");
        SeriesKey {
            name: name.to_string(),
            label: Some((key.to_string(), value.to_string())),
        }
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// Fixed-bucket histogram. Bounds are inclusive upper edges; one
/// overflow bucket catches everything above the last bound. Buckets
/// are fixed at construction so that serial, parallel, and sharded
/// runs bin identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Observation counts; `counts[i]` pairs with `bounds[i]`, the last
    /// entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Hist {
    /// New empty histogram over the given inclusive upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Hist {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper edge of the bucket holding the `ceil(q·count)`-th
    /// observation. The overflow bucket reports the largest bound (the
    /// histogram cannot see past its edges); an empty histogram reports
    /// `None`. Bucketed quantiles are coarse by construction — the point
    /// is a deterministic, mergeable percentile, not sub-bucket
    /// precision.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(*self.bounds.get(i).unwrap_or(self.bounds.last()?));
            }
        }
        self.bounds.last().copied()
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::uint(b)).collect()),
            )
            .field(
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::uint(c)).collect()),
            )
            .field("count", Json::uint(self.count))
            .field("sum", Json::uint(self.sum))
            .build()
    }
}

/// Metrics registry. All reads iterate in `BTreeMap` order, so the
/// rendered output is a deterministic function of the stored series.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Set a monotonic counter to an absolute value. Counters never
    /// regress: stale writes (smaller than the stored value) are
    /// ignored, which is what makes segment-scoped sources safe to
    /// re-sample after a checkpoint segment reset.
    #[inline]
    pub fn counter_set(&mut self, name: &str, v: u64) {
        let slot = self.counters.entry(SeriesKey::plain(name)).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Set a labeled monotonic counter to an absolute value.
    #[inline]
    pub fn counter_set_labeled(&mut self, name: &str, key: &str, value: &str, v: u64) {
        let slot = self
            .counters
            .entry(SeriesKey::labeled(name, key, value))
            .or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Add to a monotonic counter.
    #[inline]
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(SeriesKey::plain(name)).or_insert(0) += v;
    }

    /// Current value of a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(&SeriesKey::plain(name))
            .copied()
            .unwrap_or(0)
    }

    /// Set a gauge (instantaneous value; may move both ways).
    #[inline]
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one histogram observation, creating the histogram with
    /// `bounds` on first touch.
    #[inline]
    pub fn hist_observe(&mut self, name: &str, bounds: &[u64], v: u64) {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        self.hists
            .entry(name.to_string())
            .or_insert_with(|| Hist::new(bounds))
            .observe(v);
    }

    /// Replace a histogram wholesale (used when totals are rebuilt from
    /// a finished run's records rather than observed incrementally).
    pub fn hist_set(&mut self, name: &str, h: Hist) {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        self.hists.insert(name.to_string(), h);
    }

    /// Look up a histogram.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Deterministic totals document: counters (labeled families nest
    /// as objects) and histograms, **no gauges**. Two runs that agree
    /// on simulated state render this byte-identically, regardless of
    /// engine, shard count, or wall-clock speed.
    pub fn totals_json(&self) -> Json {
        let mut counters = Json::obj();
        let mut fam: Option<(String, Vec<(String, Json)>)> = None;
        for (k, &v) in &self.counters {
            match &k.label {
                None => {
                    if let Some((name, fields)) = fam.take() {
                        counters = counters.field(&name, Json::Obj(fields));
                    }
                    counters = counters.field(&k.name, Json::uint(v));
                }
                Some((_, lv)) => {
                    match &mut fam {
                        Some((name, fields)) if *name == k.name => {
                            fields.push((lv.clone(), Json::uint(v)));
                        }
                        _ => {
                            if let Some((name, fields)) = fam.take() {
                                counters = counters.field(&name, Json::Obj(fields));
                            }
                            fam = Some((k.name.clone(), vec![(lv.clone(), Json::uint(v))]));
                        }
                    };
                }
            }
        }
        if let Some((name, fields)) = fam.take() {
            counters = counters.field(&name, Json::Obj(fields));
        }
        let mut hists = Json::obj();
        for (name, h) in &self.hists {
            hists = hists.field(name, h.to_json());
        }
        Json::obj()
            .field("counters", counters.build())
            .field("hists", hists.build())
            .build()
    }

    /// Full snapshot: totals plus gauges, for heartbeat records.
    pub fn snapshot_json(&self) -> Json {
        let totals = self.totals_json();
        let mut gauges = Json::obj();
        for (name, &v) in &self.gauges {
            gauges = gauges.field(name, Json::fixed(v, 6));
        }
        let mut out = Json::obj();
        if let Json::Obj(fields) = totals {
            for (k, v) in fields {
                out = out.field(&k, v);
            }
        }
        out.field("gauges", gauges.build()).build()
    }
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the three escapes the exposition format defines).
pub fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the registry in Prometheus text exposition format. Counter
/// families get a `_total` suffix and one `# TYPE` line each; gauges
/// render as-is; histograms render cumulative `_bucket` series with
/// `le` labels plus `_sum`/`_count`. `prefix` namespaces every metric
/// (the simulator uses `fasda`).
pub fn prom_render(reg: &Registry, prefix: &str) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for (k, v) in &reg.counters {
        if last_family != Some(k.name.as_str()) {
            out.push_str(&format!("# TYPE {prefix}_{}_total counter\n", k.name));
            last_family = Some(k.name.as_str());
        }
        match &k.label {
            None => out.push_str(&format!("{prefix}_{}_total {v}\n", k.name)),
            Some((lk, lv)) => out.push_str(&format!(
                "{prefix}_{}_total{{{lk}=\"{}\"}} {v}\n",
                k.name,
                prom_escape(lv)
            )),
        }
    }
    for (name, v) in &reg.gauges {
        out.push_str(&format!("# TYPE {prefix}_{name} gauge\n"));
        out.push_str(&format!("{prefix}_{name} {v}\n"));
    }
    for (name, h) in &reg.hists {
        out.push_str(&format!("# TYPE {prefix}_{name} histogram\n"));
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            cum += c;
            let le = match h.bounds.get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            out.push_str(&format!(
                "{prefix}_{name}_bucket{{le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!("{prefix}_{name}_sum {}\n", h.sum));
        out.push_str(&format!("{prefix}_{name}_count {}\n", h.count));
    }
    out
}

/// Write a Prometheus scrape file atomically: render to `<path>.tmp`,
/// then rename over `path`, so a scraper never observes a torn file.
pub fn prom_write(reg: &Registry, prefix: &str, path: &std::path::Path) -> std::io::Result<()> {
    let tmp = path.with_extension("prom.tmp");
    std::fs::write(&tmp, prom_render(reg, prefix))?;
    std::fs::rename(&tmp, path)
}

/// Append-only JSON-Lines sink: one compact object per line, flushed
/// per record so a crashed run keeps every heartbeat it emitted.
pub struct JsonlSink {
    file: std::fs::File,
}

impl JsonlSink {
    /// Create (truncate) the sink file.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            file: std::fs::File::create(path)?,
        })
    }

    /// Open an existing sink file for appending (used to add the
    /// `final` record after a run completes).
    pub fn append(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }

    /// Append one record as a single line.
    pub fn emit(&mut self, record: &Json) -> std::io::Result<()> {
        writeln!(self.file, "{}", record.compact())?;
        self.file.flush()
    }
}

/// Parse a JSONL document back into records (the reader of heartbeat
/// streams: tests, and the checkpoint policy's measured costs). Blank
/// lines are rejected: a heartbeat stream never contains them, and
/// tolerating them would mask truncated writes.
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_under_set() {
        let mut r = Registry::new();
        r.counter_set("steps", 5);
        r.counter_set("steps", 3); // stale write: ignored
        assert_eq!(r.counter("steps"), 5);
        r.counter_set("steps", 9);
        assert_eq!(r.counter("steps"), 9);
    }

    #[test]
    fn totals_json_groups_labeled_families() {
        let mut r = Registry::new();
        r.counter_set("cycles", 100);
        r.counter_set_labeled("stall_cycles", "cause", "drained", 7);
        r.counter_set_labeled("stall_cycles", "cause", "tx-cooldown", 2);
        r.counter_set("steps", 4);
        let doc = r.totals_json();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("cycles").unwrap().as_i64(), Some(100));
        assert_eq!(counters.get("steps").unwrap().as_i64(), Some(4));
        let stalls = counters.get("stall_cycles").unwrap();
        assert_eq!(stalls.get("drained").unwrap().as_i64(), Some(7));
        assert_eq!(stalls.get("tx-cooldown").unwrap().as_i64(), Some(2));
        // Round-trips through the parser.
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn hist_bins_and_overflows() {
        let mut h = Hist::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper edge
        h.observe(50);
        h.observe(1000); // overflow
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1065);
    }

    #[test]
    fn hist_quantiles() {
        let mut h = Hist::new(&[1, 2, 4, 8, 16]);
        assert_eq!(h.quantile(0.5), None);
        for v in [1, 1, 2, 3, 5, 9, 9, 9, 9, 100] {
            h.observe(v);
        }
        // Ranks: p50 → 5th obs (value 5, bucket ≤8), p95 → 10th obs
        // (overflow → last bound), p0 clamps to the first observation.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(8));
        assert_eq!(h.quantile(0.9), Some(16));
        assert_eq!(h.quantile(0.95), Some(16));
        assert_eq!(h.quantile(1.0), Some(16));
    }

    #[test]
    fn prom_escaping_round_trips() {
        assert_eq!(prom_escape(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(prom_escape("x\ny"), r#"x\ny"#);
        let mut r = Registry::new();
        r.counter_set_labeled("odd", "cause", "quote\"back\\slash", 1);
        let text = prom_render(&r, "fasda");
        assert!(text.contains(r#"fasda_odd_total{cause="quote\"back\\slash"} 1"#));
    }

    #[test]
    fn prom_renders_all_kinds() {
        let mut r = Registry::new();
        r.counter_set("cycles", 42);
        r.counter_set_labeled("stall_cycles", "cause", "drained", 7);
        r.gauge_set("steps_per_s", 2.5);
        r.hist_observe("step_cycles", &[10, 100], 50);
        r.hist_observe("step_cycles", &[10, 100], 5);
        let text = prom_render(&r, "fasda");
        assert!(text.contains("# TYPE fasda_cycles_total counter\n"));
        assert!(text.contains("fasda_cycles_total 42\n"));
        assert!(text.contains("fasda_stall_cycles_total{cause=\"drained\"} 7\n"));
        assert!(text.contains("# TYPE fasda_steps_per_s gauge\n"));
        assert!(text.contains("fasda_steps_per_s 2.5\n"));
        assert!(text.contains("fasda_step_cycles_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("fasda_step_cycles_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("fasda_step_cycles_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("fasda_step_cycles_sum 55\n"));
        assert!(text.contains("fasda_step_cycles_count 2\n"));
    }

    #[test]
    fn jsonl_round_trips_and_rejects_blanks() {
        let a = Json::obj().field("type", "beat").field("step", 1i64).build();
        let b = Json::obj().field("type", "final").field("step", 2i64).build();
        let text = format!("{}\n{}\n", a.compact(), b.compact());
        let recs = parse_jsonl(text.trim_end()).unwrap();
        assert_eq!(recs, vec![a, b]);
        assert!(parse_jsonl("{}\n\n{}").is_err());
    }

    #[test]
    fn totals_exclude_gauges() {
        let mut r = Registry::new();
        r.counter_set("steps", 3);
        r.gauge_set("wall_s", 123.0);
        let totals = r.totals_json();
        assert!(totals.get("gauges").is_none());
        let snap = r.snapshot_json();
        assert!(snap.get("gauges").is_some());
    }
}
