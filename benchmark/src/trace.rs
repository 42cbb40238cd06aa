//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic over them.
//!
//! Spans come only from the benchmark's own files (spans inside the
//! program under test are a later change). They are kept in memory
//! while the workload runs and written to `benchmark/out/trace-<workload>.json`
//! when it ends. A span's *self time* is its duration minus the part of
//! that interval its child spans cover, so a parent that merely waits on
//! its children reports ~0 and overlapping children are not counted
//! twice.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`]; the parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one request (the wire `uid`);
    /// 0 for spans that belong to no single request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Most raw spans written to the trace file; the per-name aggregates
/// always cover every span recorded.
const MAX_SPANS_WRITTEN: usize = 20_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Tracer::close`]. Until then its end equals its start.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    /// Sets the end of a span opened with [`Tracer::open`] to now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Moves a span's end out to `end_ns` (a request span grows until
    /// its reply is decoded).
    pub fn extend(&mut self, id: SpanId, end_ns: u64) {
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = span.end_ns.max(end_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every span: count, total and self time, and
    /// the exact median duration.
    pub fn aggregate(&self) -> BTreeMap<&'static str, NameTotals> {
        let self_times = self_times_ns(&self.spans);
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
            durations
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
        }
        for (name, mut d) in durations {
            d.sort_unstable();
            out.get_mut(name).expect("same keys").p50_ns = stats::percentile(&d, 0.5);
        }
        out
    }

    /// The trace file: aggregates over every span, plus the first
    /// [`MAX_SPANS_WRITTEN`] raw spans (a saturated ALS window records
    /// hundreds of thousands; the file says how many it holds of how
    /// many).
    pub fn to_json(&self, workload: &str) -> Json {
        let aggregates = self
            .aggregate()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                        ("p50_ns", Json::Num(t.p50_ns as f64)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p.0))),
                    ),
                    ("request", Json::Num(s.request as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            (
                "spans_written",
                Json::Num(self.spans.len().min(MAX_SPANS_WRITTEN) as f64),
            ),
            ("by_name", Json::Obj(aggregates)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: u64,
}

/// Self time of each span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent.0 as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent.0 as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent: parent.map(SpanId),
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(None, 0, 100),    // root
            span(Some(0), 10, 30), // child a
            span(Some(0), 50, 70), // child b
            span(Some(1), 12, 20), // grandchild: charged to a, not to root
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80), // overlaps the first by 20
            span(Some(0), 45, 50), // wholly inside both
        ];
        // Union of children = [10, 80) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 120),  // starts before the parent
            span(Some(0), 190, 400), // ends after it
            span(Some(0), 300, 500), // wholly outside
        ];
        // Cover = [100,120) + [190,200) = 30.
        assert_eq!(self_times_ns(&spans)[0], 70);
    }

    #[test]
    fn aggregate_sums_by_name_and_reports_exact_median() {
        let mut tracer = Tracer::new();
        let root = tracer.record("window", None, 0, 0, 1_000);
        for (i, d) in [40u64, 41, 45].into_iter().enumerate() {
            let start = 100 * (i as u64 + 1);
            tracer.record("request", Some(root), i as u64 + 1, start, start + d);
        }
        let agg = tracer.aggregate();
        assert_eq!(agg["request"].count, 3);
        assert_eq!(agg["request"].total_ns, 126);
        assert_eq!(agg["request"].p50_ns, 41);
        assert_eq!(agg["window"].self_ns, 1_000 - 126);
        let file = tracer.to_json("w");
        assert_eq!(file.get("spans_recorded").and_then(Json::as_f64), Some(4.0));
    }
}
