//! Live-telemetry glue: the one heartbeat sampler, its in-process,
//! shard-worker and coordinator uses, the run record, and the
//! conversion from [`ClusterConfig`] to the §5 model's input.
//!
//! The split of responsibilities (see `DESIGN.md` §12):
//!
//! * [`Sampler`] owns the heartbeat cadence (a beat per `every` steps,
//!   due when the slowest owned node crosses the boundary), the run's
//!   step target, and the beat writer (JSONL sink, scrape file, beat
//!   counter, `wall_s`/`steps_per_s`/`progress` gauges). [`ObsLive`]
//!   uses all three from inside the in-process cycle loop; a shard
//!   worker uses the cadence over its owned nodes; the coordinator's
//!   [`FleetObs`] the target and the writer. Beats mix simulated
//!   counters with wall-clock gauges — they are a *progress view*, not
//!   an identity artifact. Their stall counters are
//!   [`Cluster::stall_totals`], which the cluster banks across
//!   checkpoint segments itself.
//! * [`RunOutput::record`] builds a finished run's [`RunRecord`]: its
//!   totals are a pure function of the [`ClusterRunReport`] and the
//!   stall ledger folded over every segment — both bit-identical across
//!   engines and shard counts — so they are too. The metrics document's
//!   `obs` section, the `final` heartbeat record and the final scrape
//!   all render that one registry.
//! * [`model_input`] + [`measured_from`] feed `fasda_obs::model`'s
//!   §5 prediction/divergence machinery from a run.

use crate::ckpt::HostCosts;
use crate::driver::{Cluster, ClusterConfig};
use crate::report::ClusterRunReport;
use crate::run::RunOutput;
use crate::shard::shard_ranges;
use fasda_obs::model::{Measured, ModelInput, STALL_CLASSES};
use fasda_obs::{prom_write, Hist, JsonlSink, Registry};
use fasda_trace::{Json, StallCause, StallLedger, StepStalls, Trace, TraceLevel};
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Fixed force-phase duration histogram bounds (cycles, inclusive):
/// powers of two so every engine and shard count bins identically.
pub const FORCE_HIST_BOUNDS: [u64; 12] = [
    256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288,
];

/// Where heartbeats go. Both sinks optional so `--heartbeat-every`
/// alone still drives the fleet view in sharded runs.
#[derive(Clone, Debug, Default)]
pub struct ObsSinkConfig {
    /// JSONL heartbeat stream path.
    pub heartbeat_out: Option<PathBuf>,
    /// Prometheus text-format scrape file path.
    pub prom_out: Option<PathBuf>,
}

impl ObsSinkConfig {
    /// True when any sink is configured.
    pub fn any(&self) -> bool {
        self.heartbeat_out.is_some() || self.prom_out.is_some()
    }
}

/// The one heartbeat sampler (module docs): cadence, step target and
/// beat writer. Wall-clock-side only — nothing here feeds back into the
/// simulated run.
pub(crate) struct Sampler {
    /// Steps between beats (0 = the cadence never fires).
    every: u64,
    /// Next boundary a beat is owed for.
    next_due: u64,
    /// The run's step target: the whole run's, not the current
    /// segment's.
    steps: u64,
    sink: Option<JsonlSink>,
    prom_path: Option<PathBuf>,
    started: Instant,
    last_wall: Instant,
    last_step: u64,
    beats: u64,
}

impl Sampler {
    /// A sampler firing every `every` steps that writes nowhere until
    /// [`Sampler::open`]ed.
    pub(crate) fn new(every: u64) -> Self {
        let now = Instant::now();
        Sampler {
            every,
            next_due: every,
            steps: 0,
            sink: None,
            prom_path: None,
            started: now,
            last_wall: now,
            last_step: 0,
            beats: 0,
        }
    }

    /// Open the configured sinks (truncating an existing JSONL stream).
    fn open(mut self, sinks: &ObsSinkConfig) -> std::io::Result<Self> {
        self.sink = sinks.heartbeat_out.as_deref().map(JsonlSink::create).transpose()?;
        self.prom_path = sinks.prom_out.clone();
        Ok(self)
    }

    /// Cadence: `(boundary, min_step)` once the slowest node `cl` owns
    /// has crossed the next heartbeat boundary. At most one boundary
    /// fires per call; a sampler that skipped past several catches up
    /// on the following calls.
    pub(crate) fn due(&mut self, cl: &Cluster) -> Option<(u64, u64)> {
        if self.every == 0 {
            return None;
        }
        let min_step = cl.owned_range().map(|n| cl.state[n].step).min()?;
        if min_step < self.next_due {
            return None;
        }
        let boundary = self.next_due;
        self.next_due += self.every;
        Some((boundary, min_step))
    }

    /// Writer: count one beat at `step` and set its progress gauges
    /// (`wall_s`, `steps_per_s`, `progress`) on `reg`. Returns the
    /// seconds since the previous beat.
    fn pace(&mut self, reg: &mut Registry, step: u64) -> f64 {
        self.beats += 1;
        let now = Instant::now();
        let dt = now.duration_since(self.last_wall).as_secs_f64().max(1e-9);
        reg.gauge_set("wall_s", now.duration_since(self.started).as_secs_f64());
        reg.gauge_set("steps_per_s", step.saturating_sub(self.last_step) as f64 / dt);
        reg.gauge_set("progress", step as f64 / self.steps.max(1) as f64);
        self.last_wall = now;
        self.last_step = step;
        dt
    }

    /// Writer: append `record` to the stream and refresh the scrape
    /// file from `reg` under `prefix`.
    fn write(&mut self, record: &Json, reg: &Registry, prefix: &str) {
        if let Some(sink) = &mut self.sink {
            let _ = sink.emit(record);
        }
        if let Some(path) = &self.prom_path {
            let _ = prom_write(reg, prefix, path);
        }
    }
}

/// In-run heartbeat sampler. Attach with [`Cluster::attach_obs`];
/// the cycle loop calls [`ObsLive::maybe_beat`] behind an
/// `obs.is_some()` gate (the zero-cost-off pattern). Every beat reports
/// the run's step target and [`Cluster::stall_totals`], so its counters
/// stay monotonic across the segments of a checkpointed run.
pub struct ObsLive {
    sampler: Sampler,
    last_cycle: u64,
}

impl ObsLive {
    /// Build a sampler firing every `every` completed steps.
    pub fn new(every: u64, sinks: &ObsSinkConfig) -> std::io::Result<Self> {
        Ok(ObsLive { sampler: Sampler::new(every.max(1)).open(sinks)?, last_cycle: 0 })
    }

    /// Beats emitted so far.
    pub fn beats(&self) -> u64 {
        self.sampler.beats
    }

    /// Announce an absolute step target: `ckpt::run_segments` the whole
    /// run's before its first segment, [`Cluster::try_run_with`] its
    /// own. Targets only grow along a cluster's life, so the largest
    /// announced is the run's; a direct `try_run_with` is a one-segment
    /// run.
    pub(crate) fn begin_run(&mut self, steps: u64) {
        self.sampler.steps = self.sampler.steps.max(steps);
    }

    /// Called from the cycle loop (after the cycle increment): write one
    /// `beat` record + scrape file when a boundary is due.
    pub(crate) fn maybe_beat(&mut self, cl: &Cluster) {
        let Some((_, step)) = self.sampler.due(cl) else {
            return;
        };
        let mut reg = Registry::new();
        fill_live(&mut reg, cl, step, &cl.stall_totals());
        let dt = self.sampler.pace(&mut reg, step);
        let steps = self.sampler.steps;
        let steps_per_s = reg.gauge("steps_per_s").unwrap_or(0.0);
        let eta_s = if steps_per_s > 0.0 {
            steps.saturating_sub(step) as f64 / steps_per_s
        } else {
            0.0
        };
        reg.gauge_set("cycles_per_s", cl.cycle.saturating_sub(self.last_cycle) as f64 / dt);
        reg.gauge_set("eta_s", eta_s);
        self.last_cycle = cl.cycle;
        let record = beat_record("beat", self.sampler.beats, step, steps, &reg.snapshot_json());
        self.sampler.write(&record, &reg, "fasda");
    }
}

// ---------------------------------------------------------------------------
// Fleet telemetry (sharded runs)
// ---------------------------------------------------------------------------

/// Where one shard worker's wall time goes: how often it met its peers
/// and how long it computed versus sat blocked waiting for their
/// frames. Host-side progress gauges — they ride heartbeats and
/// [`crate::shard::ShardedRun::gauges`] only, never the simulated state,
/// the final metrics or anything byte-compared across engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Exchange rounds (one window frame to and from every peer each).
    pub windows: u64,
    /// Wire events shipped to peers.
    pub events_sent: u64,
    /// Payload bytes of the window frames sent.
    pub frame_bytes: u64,
    /// Nanoseconds spent running cycles between exchanges.
    pub compute_ns: u64,
    /// Nanoseconds spent blocked in mesh receives.
    pub wait_ns: u64,
}

impl ShardGauges {
    /// Share of the compute + wait time spent blocked on peers.
    pub fn wait_share(&self) -> f64 {
        let total = self.compute_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.wait_ns as f64 / total as f64
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: &ShardGauges) {
        self.windows += other.windows;
        self.events_sent += other.events_sent;
        self.frame_bytes += other.frame_bytes;
        self.compute_ns += other.compute_ns;
        self.wait_ns += other.wait_ns;
    }

    /// Field-wise difference from an earlier reading of the same gauges.
    pub fn since(&self, earlier: &ShardGauges) -> ShardGauges {
        ShardGauges {
            windows: self.windows - earlier.windows,
            events_sent: self.events_sent - earlier.events_sent,
            frame_bytes: self.frame_bytes - earlier.frame_bytes,
            compute_ns: self.compute_ns - earlier.compute_ns,
            wait_ns: self.wait_ns - earlier.wait_ns,
        }
    }
}

fasda_ckpt::persist_struct!(ShardGauges { windows, events_sent, frame_bytes, compute_ns, wait_ns });

/// One shard's compact telemetry sample, piggybacked on the window
/// frame of the round in which the shard's slowest owned node crossed a
/// heartbeat boundary. Totals are cumulative since worker start (owned
/// nodes only), so per-worker samples sum to the fleet view and stay
/// monotonic across checkpoint segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsDelta {
    /// Shard index of the sampling worker.
    pub worker: u32,
    /// The heartbeat boundary (absolute step, a multiple of the
    /// cadence) this sample answers for.
    pub boundary: u64,
    /// Minimum current step over the worker's owned nodes.
    pub min_step: u64,
    /// Productive force-phase cycles attributed to owned nodes.
    pub productive: u64,
    /// Stall cycles by cause (StallCause index order), owned nodes.
    pub stalls: [u64; STALL_CLASSES],
    /// Retransmissions originated by owned nodes (0 without `--rel`).
    pub retransmits: u64,
    /// The worker's exchange gauges, cumulative since worker start.
    pub gauges: ShardGauges,
}

fasda_ckpt::persist_struct!(ObsDelta {
    worker,
    boundary,
    min_step,
    productive,
    stalls,
    retransmits,
    gauges,
});

/// A complete fleet heartbeat: every shard's sample for one boundary.
/// Assembled by worker 0 (which sees every window frame) and shipped to
/// the coordinator on the control link as a `Beat` frame.
#[derive(Clone, Debug)]
pub struct FleetBeat {
    /// The heartbeat boundary all samples answer for.
    pub boundary: u64,
    /// Worker 0's global cycle when the last sample arrived.
    pub cycle: u64,
    /// One sample per shard, shard order.
    pub workers: Vec<ObsDelta>,
}

fasda_ckpt::persist_struct!(FleetBeat { boundary, cycle, workers });

/// Coordinator-side fleet heartbeat sink: turns [`FleetBeat`] frames
/// into `fleet` JSONL records (and a Prometheus scrape file) naming the
/// lagging shard. Purely observational — the coordinator never
/// simulates, so this cannot perturb the run.
pub struct FleetObs {
    sampler: Sampler,
}

impl FleetObs {
    /// Open the configured sinks (truncating an existing JSONL stream)
    /// for a run to `steps` steps.
    pub fn new(sinks: &ObsSinkConfig, steps: u64) -> std::io::Result<Self> {
        Ok(FleetObs { sampler: Sampler { steps, ..Sampler::new(0).open(sinks)? } })
    }

    /// Handle one fleet beat: emit the `fleet` record and refresh the
    /// scrape file. `ranges` are the shard → owned-node ranges (shard
    /// order).
    pub fn on_beat(&mut self, fb: &FleetBeat, ranges: &[Range<usize>]) {
        let fleet_min = fb.workers.iter().map(|d| d.min_step).min().unwrap_or(0);
        let fleet_max = fb.workers.iter().map(|d| d.min_step).max().unwrap_or(0);
        let lagging = fb
            .workers
            .iter()
            .min_by_key(|d| d.min_step)
            .map(|d| d.worker)
            .unwrap_or(0);

        let mut reg = Registry::new();
        let mut shards = Vec::with_capacity(fb.workers.len());
        let mut fleet = StepStalls::default();
        for d in &fb.workers {
            let span = ranges
                .get(d.worker as usize)
                .map_or_else(|| "?".into(), |r| format!("{}..{}", r.start, r.end));
            shards.push(
                Json::obj()
                    .field("shard", Json::uint(d.worker as u64))
                    .field("nodes", span)
                    .field("min_step", Json::uint(d.min_step))
                    .field("productive_cycles", Json::uint(d.productive))
                    .field("stall_cycles", Json::uint(d.stalls.iter().sum::<u64>()))
                    .field("retransmits", Json::uint(d.retransmits))
                    .field("windows", Json::uint(d.gauges.windows))
                    .field("events_sent", Json::uint(d.gauges.events_sent))
                    .field("frame_bytes", Json::uint(d.gauges.frame_bytes))
                    .field("compute_ns", Json::uint(d.gauges.compute_ns))
                    .field("wait_ns", Json::uint(d.gauges.wait_ns))
                    .field("wait_share", Json::Num(d.gauges.wait_share()))
                    .build(),
            );
            reg.counter_set_labeled(
                "shard_min_step",
                "shard",
                &d.worker.to_string(),
                d.min_step,
            );
            fleet.merge(&StepStalls { productive: d.productive, stalled: d.stalls });
        }
        set_stalls(&mut reg, &fleet);
        reg.counter_set("steps_done", fleet_min);
        reg.counter_set("cycles", fb.cycle);
        self.sampler.pace(&mut reg, fleet_min);
        reg.gauge_set("lag_steps", (fleet_max - fleet_min) as f64);

        let record = Json::obj()
            .field("type", "fleet")
            .field("beat", Json::uint(self.sampler.beats))
            .field("step", Json::uint(fleet_min))
            .field("steps", Json::uint(self.sampler.steps))
            .field("cycle", Json::uint(fb.cycle))
            .field("lagging_shard", Json::uint(lagging as u64))
            .field("lag_steps", Json::uint(fleet_max - fleet_min))
            .field("shards", Json::Arr(shards))
            .field("counters", reg.totals_json().get("counters").cloned().unwrap_or(Json::Null))
            .field("gauges", reg.snapshot_json().get("gauges").cloned().unwrap_or(Json::Null))
            .build();
        self.sampler.write(&record, &reg, "fasda_fleet");
    }
}

/// One heartbeat record: envelope fields + the registry snapshot's
/// `counters`/`hists`/`gauges` sections spliced in.
fn beat_record(kind: &str, beat: u64, step: u64, steps: u64, snapshot: &Json) -> Json {
    let mut rec = Json::obj()
        .field("type", kind)
        .field("beat", Json::uint(beat))
        .field("step", Json::uint(step))
        .field("steps", Json::uint(steps));
    if let Json::Obj(fields) = snapshot {
        for (k, v) in fields {
            rec = rec.field(k, v.clone());
        }
    }
    rec.build()
}

/// Live counters sampled mid-run. Engine-private quantities keep the
/// `engine_` prefix so cross-engine heartbeat diffs can exclude them
/// the same way the metrics gate does.
fn fill_live(reg: &mut Registry, cl: &Cluster, step: u64, stalls: &StepStalls) {
    reg.counter_set("steps_done", step);
    reg.counter_set("cycles", cl.cycle);
    reg.counter_set("engine_skipped_cycles", cl.skipped_cycles);
    reg.counter_set("pos_packets", cl.pos_fabric.packets);
    reg.counter_set("frc_packets", cl.frc_fabric.packets);
    reg.counter_set(
        "packets_lost",
        cl.packets_lost(),
    );
    if let Some(rel) = &cl.rel {
        reg.counter_set("retransmits", rel.total_retransmits());
        reg.counter_set("acks_sent", rel.acks_sent);
    }
    reg.counter_set(
        "faults_injected",
        cl.faults.as_ref().map_or(0, |f| f.total_injected()),
    );
    set_stalls(reg, stalls);
}

fn set_stalls(reg: &mut Registry, stalls: &StepStalls) {
    for cause in StallCause::ALL {
        reg.counter_set_labeled("stall_cycles", "cause", cause.label(), stalls.of(cause));
    }
    reg.counter_set("productive_cycles", stalls.productive);
}

/// A finished run's one set of totals and its renderings: the metrics
/// document (`fasda run --metrics-out`) and the `final` heartbeat
/// record, both carrying the totals [`RunRecord::emit_final`] also
/// writes to the scrape file.
pub struct RunRecord {
    totals: Registry,
    metrics: Json,
    final_record: Json,
}

impl RunOutput {
    /// This run's record, its trace summary naming the owners of `shards`
    /// contiguous node spans (1 for an in-process run). The metrics
    /// document has one shape: `run` and `obs` always; `stalls` (folded
    /// over every segment) and `trace` (the final segment's) exactly
    /// when the flight recorder ran; `restarts` exactly when the run
    /// could recover.
    pub fn record(&self, shards: usize) -> RunRecord {
        let report = &self.report;
        let stalls = self.traces.first().map(|_| {
            let mut folded = StallLedger::new(report.nodes);
            for t in &self.traces {
                folded.absorb(&t.stalls);
            }
            folded
        });
        let totals = final_registry(report, stalls.as_ref());
        let mut metrics = Json::obj().field("run", report.metrics_json());
        if let (Some(trace), Some(stalls)) = (self.traces.last(), &stalls) {
            metrics = metrics
                .field("stalls", stall_json(stalls))
                .field("trace", trace_json(trace, shards));
        }
        let obs = totals.totals_json();
        metrics = metrics.field("obs", obs.clone());
        if let Some(restarts) = &self.restarts {
            let lines: Vec<Json> = restarts.iter().map(|s| s.as_str().into()).collect();
            metrics = metrics.field("restarts", lines);
        }
        let mut obs_host = obs;
        if let Json::Obj(fields) = &mut obs_host {
            fields.push(("host".to_string(), host_json(&self.host)));
        }
        let final_record = beat_record("final", 0, report.steps, report.steps, &obs_host);
        RunRecord { totals, metrics: metrics.build(), final_record }
    }
}

impl RunRecord {
    /// The metrics document.
    pub fn metrics(&self) -> &Json {
        &self.metrics
    }

    /// Append the `final` record — the totals plus what the run cost the
    /// host — to the heartbeat stream and refresh the scrape file with
    /// the totals. Called once after the run completes (the in-run
    /// sampler only ever emits `beat` records); a sink not configured is
    /// skipped.
    pub fn emit_final(&self, sinks: &ObsSinkConfig) -> std::io::Result<()> {
        if let Some(path) = &sinks.heartbeat_out {
            JsonlSink::append(path)?.emit(&self.final_record)?;
        }
        if let Some(path) = &sinks.prom_out {
            prom_write(&self.totals, "fasda", path)?;
        }
        Ok(())
    }
}

/// Final totals as a registry — a pure function of the run report and
/// (optionally) the folded stall ledger. Both inputs are bit-identical
/// across {serial, fast, sharded} runs, so these totals are the
/// identity artifact the gates byte-compare. Engine-private counters
/// (fast-forward jumps) are deliberately excluded.
fn final_registry(report: &ClusterRunReport, stalls: Option<&StallLedger>) -> Registry {
    let mut reg = Registry::new();
    reg.counter_set("nodes", report.nodes as u64);
    reg.counter_set("steps_done", report.steps);
    reg.counter_set("cycles", report.total_cycles);
    reg.counter_set("pos_packets", report.pos_packets);
    reg.counter_set("frc_packets", report.frc_packets);
    reg.counter_set("pos_bits", report.pos_bits);
    reg.counter_set("frc_bits", report.frc_bits);
    reg.counter_set("faults_injected", report.faults_injected);
    if let Some(rel) = &report.reliability {
        reg.counter_set("retransmits", rel.retransmits);
        reg.counter_set("acks_sent", rel.acks_sent);
        reg.counter_set("duplicates_dropped", rel.duplicates_dropped);
        reg.counter_set("corrupt_dropped", rel.corrupt_dropped);
    }
    let mut force_total = 0u64;
    let mut mu_total = 0u64;
    let mut force_hist = Hist::new(&FORCE_HIST_BOUNDS);
    for r in &report.records {
        force_total += r.force_cycles;
        mu_total += r.mu_cycles;
        force_hist.observe(r.force_cycles);
    }
    reg.counter_set("force_cycles", force_total);
    reg.counter_set("mu_cycles", mu_total);
    reg.hist_set("step_force_cycles", force_hist);
    if let Some(ledger) = stalls {
        set_stalls(&mut reg, &ledger.total_over(0..ledger.num_nodes()));
    }
    reg
}

/// The `final` record's `host` object: what the run cost the host, in
/// milliseconds per step simulated (the run's wall time net of its
/// checkpoint I/O, so building the machine and work a failure lost
/// count too), per checkpoint save and per restore — the costs
/// `fasda ckpt policy --bench` and `fasda serve --policy-bench` read. A
/// cost the run had nothing to measure for is absent.
fn host_json(host: &HostCosts) -> Json {
    let ms = |s: f64, n: u64| Json::fixed(s * 1e3 / n as f64, 4);
    let step_s = host.wall_s - host.save_s - host.restore_s;
    let mut o = Json::obj()
        .field("wall_s", Json::fixed(host.wall_s, 4))
        .field("steps", Json::uint(host.steps))
        .field("saves", Json::uint(host.saves))
        .field("restores", Json::uint(host.restores));
    if host.steps > 0 && step_s > 0.0 {
        o = o.field("step_ms", ms(step_s, host.steps));
    }
    if host.saves > 0 {
        o = o.field("save_ms", ms(host.save_s, host.saves));
    }
    if host.restores > 0 {
        o = o.field("restore_ms", ms(host.restore_s, host.restores));
    }
    o.build()
}

/// One (node, step) or node-total stall breakdown.
fn step_stalls_json(s: &StepStalls) -> Json {
    let mut obj = Json::obj()
        .field("productive", Json::uint(s.productive))
        .field("idle", Json::uint(s.idle()))
        .field("total", Json::uint(s.total()));
    for cause in StallCause::ALL {
        obj = obj.field(cause.label(), Json::uint(s.of(cause)));
    }
    obj.build()
}

/// The `stalls` section: per-node totals plus per-step breakdowns.
fn stall_json(ledger: &StallLedger) -> Json {
    let nodes: Vec<Json> = (0..ledger.num_nodes())
        .map(|node| {
            let steps: Vec<Json> = ledger
                .steps(node)
                .map(|(step, s)| {
                    let mut obj = Json::obj().field("step", Json::uint(step));
                    if let Json::Obj(fields) = step_stalls_json(s) {
                        for (k, v) in fields {
                            obj = obj.field(&k, v);
                        }
                    }
                    obj.build()
                })
                .collect();
            Json::obj()
                .field("node", node)
                .field("total", step_stalls_json(&ledger.node_total(node)))
                .field("steps", Json::Arr(steps))
                .build()
        })
        .collect();
    Json::obj().field("nodes", Json::Arr(nodes)).build()
}

/// The `trace` section: the recorder level, per-node event and drop
/// counts, and the provenance of the `shards` contiguous node spans
/// that attributed them.
fn trace_json(trace: &Trace, shards: usize) -> Json {
    let level = match trace.level {
        None | Some(TraceLevel::Off) => "off",
        Some(TraceLevel::Sync) => "sync",
        Some(TraceLevel::Full) => "full",
    };
    let nodes: Vec<Json> = trace
        .nodes
        .iter()
        .enumerate()
        .map(|(node, s)| {
            Json::obj()
                .field("node", node)
                .field("events", s.events.len())
                .field("dropped", Json::uint(s.dropped))
                .build()
        })
        .collect();
    let ranges: Vec<Json> = shard_ranges(trace.nodes.len(), shards)
        .iter()
        .enumerate()
        .map(|(shard, r)| {
            Json::obj()
                .field("shard", Json::uint(shard as u64))
                .field("nodes", format!("{}..{}", r.start, r.end))
                .field("owned", Json::uint(r.len() as u64))
                .build()
        })
        .collect();
    let provenance = Json::obj()
        .field("shards", Json::uint(ranges.len() as u64))
        .field("ranges", Json::Arr(ranges))
        .build();
    Json::obj()
        .field("level", level)
        .field("nodes", Json::Arr(nodes))
        .field("engine_events", trace.engine.events.len())
        .field("engine_dropped", Json::uint(trace.engine.dropped))
        .field("provenance", provenance)
        .build()
}

/// Build the §5 model input from a cluster configuration, the global
/// cell-space dimensions, and the mean particles-per-cell of the
/// workload. Pure configuration — nothing measured.
pub fn model_input(cfg: &ClusterConfig, space: (u32, u32, u32), per_cell: f64) -> ModelInput {
    let grid = (
        space.0 / cfg.block.0,
        space.1 / cfg.block.1,
        space.2 / cfg.block.2,
    );
    let nodes = (grid.0 * grid.1 * grid.2) as u64;
    // Mean one-way transit over distinct node pairs.
    let mut lat_sum = 0u64;
    let mut pairs = 0u64;
    for a in 0..nodes as usize {
        for b in 0..nodes as usize {
            if a != b {
                lat_sum += cfg.topology.path_latency(a, b);
                pairs += 1;
            }
        }
    }
    let path_latency = if pairs > 0 {
        lat_sum as f64 / pairs as f64
    } else {
        0.0
    };
    ModelInput {
        grid,
        block: cfg.block,
        per_cell,
        filters_per_pe: cfg.chip.hw.filters_per_pe,
        pes_per_spe: cfg.chip.pes_per_spe,
        spes_per_cbb: cfg.chip.spes_per_cbb,
        force_pipe_latency: cfg.chip.hw.force_pipe_latency,
        mu_latency: cfg.chip.hw.mu_latency,
        bcast_cooldown: cfg.chip.hw.bcast_cooldown,
        cutoff_cells: cfg.chip.cutoff_cells,
        packet_cooldown: cfg.packet_cooldown,
        path_latency,
        straggler_cycles: cfg
            .straggler
            .map_or(0.0, |(_, d)| d as f64 / nodes.max(1) as f64),
    }
}

/// Distill the §5 model's ground truth from a finished run.
pub fn measured_from(report: &ClusterRunReport, stalls: Option<&StallLedger>) -> Measured {
    let recs = report.records.len().max(1) as f64;
    let force_cycles = report.records.iter().map(|r| r.force_cycles).sum::<u64>() as f64 / recs;
    let steps = report.steps.max(1) as f64;
    let mut meas = Measured {
        steps: report.steps,
        nodes: report.nodes as u64,
        cycles_per_step: report.cycles_per_step(),
        force_cycles,
        pos_packets_per_step: report.pos_packets as f64 / steps,
        frc_packets_per_step: report.frc_packets as f64 / steps,
        ..Measured::default()
    };
    if let Some(ledger) = stalls {
        let t = ledger.total_over(0..ledger.num_nodes());
        let idle = t.idle();
        if t.total() > 0 {
            meas.occupancy = t.productive as f64 / t.total() as f64;
        }
        if idle > 0 {
            for (share, v) in meas.stall_shares.iter_mut().zip(t.stalled.iter()) {
                *share = *v as f64 / idle as f64;
            }
        }
    }
    meas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NodeStepReport;
    use fasda_sim::StatSet;

    fn tiny_report() -> ClusterRunReport {
        ClusterRunReport {
            steps: 2,
            total_cycles: 1000,
            records: vec![
                NodeStepReport { node: 0, step: 0, force_cycles: 400, mu_cycles: 80, wall_end: 480 },
                NodeStepReport { node: 1, step: 0, force_cycles: 420, mu_cycles: 80, wall_end: 500 },
                NodeStepReport { node: 0, step: 1, force_cycles: 410, mu_cycles: 80, wall_end: 990 },
                NodeStepReport { node: 1, step: 1, force_cycles: 400, mu_cycles: 80, wall_end: 1000 },
            ],
            stats: StatSet::new(),
            per_node_traffic: Vec::new(),
            pos_packets: 40,
            frc_packets: 60,
            pos_bits: 40 * 512,
            frc_bits: 60 * 512,
            clock_hz: 200.0e6,
            dt_fs: 2.0,
            nodes: 2,
            faults_injected: 0,
            reliability: None,
        }
    }

    fn tiny_ledger() -> StallLedger {
        let mut l = StallLedger::new(2);
        for node in 0..2 {
            for step in 0..2 {
                l.productive(node, step, 300);
                l.stall(node, step, StallCause::Drained, 80);
                l.stall(node, step, StallCause::WaitNeighborSync, 20);
                l.stall(node, step, StallCause::TxCooldown, 10);
            }
        }
        l
    }

    #[test]
    fn final_totals_are_a_pure_function() {
        let report = tiny_report();
        let ledger = tiny_ledger();
        let a = final_registry(&report, Some(&ledger)).totals_json();
        let b = final_registry(&report.clone(), Some(&ledger.clone())).totals_json();
        assert_eq!(a.compact(), b.compact());
        let counters = a.get("counters").unwrap();
        assert_eq!(counters.get("cycles").unwrap().as_i64(), Some(1000));
        assert_eq!(counters.get("force_cycles").unwrap().as_i64(), Some(1630));
        assert_eq!(
            counters
                .get("stall_cycles")
                .unwrap()
                .get("drained")
                .unwrap()
                .as_i64(),
            Some(320)
        );
        assert_eq!(counters.get("productive_cycles").unwrap().as_i64(), Some(1200));
        // Histogram present with the fixed bounds.
        let hist = a.get("hists").unwrap().get("step_force_cycles").unwrap();
        assert_eq!(hist.get("count").unwrap().as_i64(), Some(4));
        // No engine-private counters in the identity artifact.
        assert!(counters.get("engine_skipped_cycles").is_none());
    }

    #[test]
    fn stall_json_rolls_up() {
        let mut ledger = StallLedger::new(2);
        ledger.productive(0, 0, 6);
        ledger.stall(0, 0, StallCause::Drained, 2);
        ledger.productive(0, 1, 4);
        ledger.stall(1, 0, StallCause::TxCooldown, 9);

        let doc = stall_json(&ledger);
        let nodes = doc.get("nodes").unwrap().items();
        assert_eq!(nodes.len(), 2);
        let n0 = &nodes[0];
        assert_eq!(n0.get("node").unwrap().as_i64(), Some(0));
        let total = n0.get("total").unwrap();
        assert_eq!(total.get("productive").unwrap().as_i64(), Some(10));
        assert_eq!(total.get("drained").unwrap().as_i64(), Some(2));
        assert_eq!(total.get("total").unwrap().as_i64(), Some(12));
        assert_eq!(n0.get("steps").unwrap().items().len(), 2);
        let n1_total = nodes[1].get("total").unwrap();
        assert_eq!(n1_total.get("tx-cooldown").unwrap().as_i64(), Some(9));
        // round-trips through the parser
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn trace_json_counts_streams_and_names_every_shard_span() {
        use fasda_trace::{EventKind, NodeStream, TraceEvent};
        let event = TraceEvent { cycle: 1, kind: EventKind::StepDone { step: 0 } };
        let mut nodes = vec![NodeStream::default(); 8];
        nodes[0] = NodeStream { events: vec![event], dropped: 2 };
        let trace = Trace {
            level: Some(TraceLevel::Sync),
            nodes,
            engine: NodeStream::default(),
            stalls: StallLedger::new(8),
        };
        let doc = trace_json(&trace, 2);
        assert_eq!(doc.get("level").unwrap().as_str(), Some("sync"));
        let streams = doc.get("nodes").unwrap().items();
        assert_eq!(streams[0].get("events").unwrap().as_i64(), Some(1));
        assert_eq!(streams[0].get("dropped").unwrap().as_i64(), Some(2));
        assert_eq!(doc.get("engine_events").unwrap().as_i64(), Some(0));
        let prov = doc.get("provenance").unwrap();
        assert_eq!(prov.get("shards").unwrap().as_i64(), Some(2));
        let ranges = prov.get("ranges").unwrap().items();
        assert_eq!(ranges[0].get("nodes").unwrap().as_str(), Some("0..4"));
        assert_eq!(ranges[1].get("shard").unwrap().as_i64(), Some(1));
        assert_eq!(ranges[1].get("owned").unwrap().as_i64(), Some(4));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn measured_distills_report_and_ledger() {
        let m = measured_from(&tiny_report(), Some(&tiny_ledger()));
        assert_eq!(m.cycles_per_step, 500.0);
        assert_eq!(m.force_cycles, 407.5);
        assert_eq!(m.pos_packets_per_step, 20.0);
        assert!((m.occupancy - 1200.0 / 1640.0).abs() < 1e-12);
        // drained share: 320 of 440 idle cycles
        assert!((m.stall_shares[StallCause::Drained as usize] - 320.0 / 440.0).abs() < 1e-12);
    }

    #[test]
    fn model_input_from_config() {
        let cfg = ClusterConfig::paper(fasda_core::config::ChipConfig::baseline(), (1, 1, 2));
        let input = model_input(&cfg, (1, 1, 4), 4.0);
        assert_eq!(input.grid, (1, 1, 2));
        assert_eq!(input.block, (1, 1, 2));
        assert_eq!(input.path_latency, 200.0); // paper switch
        assert_eq!(input.filters_per_pe, 6);
        let pred = fasda_obs::model::predict(&input);
        assert!(pred.cycles_per_step > 0.0);
    }
}
