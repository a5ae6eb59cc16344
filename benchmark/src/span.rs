//! Span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into the crates' public functions: name, start, end, the span that
//! caused it, and a trace id shared by the spans of one operation (a rep
//! or a job). They stay in memory and are written as one JSON file when
//! the workload ends. A span's *self time* is its duration minus the
//! part of that interval its children cover, so over any tree the self
//! times sum to the root's duration.

use fasda_trace::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Rep or job number the span belongs to.
    pub trace_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// In-memory span recorder. A disabled recorder (the untraced pass)
/// records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer::with_epoch(enabled, Instant::now())
    }

    /// A recorder sharing another's epoch, for a second thread whose
    /// spans are later [`Tracer::absorb`]ed.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Switch recording on or off between operations (the traced pass
    /// alternates traced and plain reps to price its own overhead). Spans
    /// begun while off are not recorded; spans already open still close.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Trace id stamped on spans begun from now on.
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            trace_id: self.trace_id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(
            top,
            Some(idx),
            "span '{}' closed out of order",
            self.spans[idx].name
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Record a span whose interval was observed rather than bracketed
    /// (a job's queued/running phases seen through status polls).
    /// Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        trace_id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns_of(start), self.ns_of(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            trace_id,
        });
        Some(self.spans.len() - 1)
    }

    /// Append another recorder's spans (same epoch), re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span with its self time, plus per-name
    /// totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::obj()
                    .field("id", i)
                    .field("name", s.name)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field("trace_id", Json::uint(s.trace_id))
                    .field("start_ns", Json::uint(s.start_ns))
                    .field("end_ns", Json::uint(s.end_ns))
                    .field("self_ns", Json::uint(*self_ns))
                    .build()
            })
            .collect();
        let mut totals: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += s.duration_ns();
                    t.3 += self_ns;
                }
                None => totals.push((s.name, 1, s.duration_ns(), *self_ns)),
            }
        }
        let by_name: Vec<Json> = totals
            .into_iter()
            .map(|(name, count, total, self_ns)| {
                Json::obj()
                    .field("name", name)
                    .field("count", Json::uint(count))
                    .field("total_ns", Json::uint(total))
                    .field("self_ns", Json::uint(self_ns))
                    .build()
            })
            .collect();
        Json::obj()
            .field("workload", workload)
            .field("unit", "ns since recorder epoch")
            .field("by_name", by_name)
            .field("spans", spans)
            .build()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Worst relative gap, over all root spans, between the root's duration
/// and the summed self times of its tree. Siblings never overlap in what
/// the workloads record (concurrent jobs are separate roots), so this is
/// 0 by construction; it is checked at the end of every traced run so a
/// recorder bug cannot pass silently.
pub fn worst_self_sum_gap(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut root_of: Vec<usize> = (0..spans.len()).collect();
    for i in 0..spans.len() {
        // parents always precede children
        if let Some(p) = spans[i].parent {
            root_of[i] = root_of[p];
        }
    }
    let mut sum = vec![0u64; spans.len()];
    for (i, s) in selfs.iter().enumerate() {
        sum[root_of[i]] += s;
    }
    let mut worst = 0.0f64;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.duration_ns() > 0 {
            let gap = (sum[i] as f64 - s.duration_ns() as f64).abs() / s.duration_ns() as f64;
            worst = worst.max(gap);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 50, 90, Some(0)),
            sp("b1", 55, 65, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![30, 30, 30, 10]);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns());
        assert_eq!(worst_self_sum_gap(&spans), 0.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_in_the_parent() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("x", 10, 60, Some(0)),
            sp("y", 40, 80, Some(0)),
            sp("late", 90, 130, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_trace_id(7);
        let root = t.begin("rep");
        let v = t.span("cluster.run", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].trace_id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(worst_self_sum_gap(t.spans()), 0.0);

        let mut off = Tracer::new(false);
        let o = off.begin("rep");
        off.end(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::with_epoch(true, epoch);
        a.span("one", || ());
        let mut b = Tracer::with_epoch(true, epoch);
        let j = b.record("job", epoch, epoch, None, 3);
        b.record("svc.submit", epoch, epoch, j, 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = a.to_json("svc-burst");
        assert_eq!(doc.get("spans").map(|s| s.items().len()), Some(3));
        assert!(Json::parse(&doc.pretty()).is_ok());
    }
}
