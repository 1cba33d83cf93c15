//! In-memory spans around the benchmark's calls into each layer.
//!
//! One span per call: name, start, end, the span that caused it, and the
//! batch it belongs to. Spans stay in memory and are written to
//! `benchmark/out/trace_<workload>.json` when the traced run ends. A layer's
//! self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tpg.build`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Punctuation batch the call worked on (0 outside batch replay).
    pub batch: u32,
}

/// Handle of an open span (see [`Tracer::open`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans on the thread that drives the probes.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing, which is how the untraced
    /// replay that `trace.overhead_share` compares against runs.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, batch: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        if let Open(Some(index)) = span {
            assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Time `f` as one span and return its result with the span's length in
    /// ns (measured the same way whether or not the tracer records).
    pub fn time<R>(&mut self, name: &'static str, batch: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let span = self.open(name, batch);
        let started = Instant::now();
        let result = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.close(span);
        (result, ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, ns: each span's length minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, children) in spans.iter().zip(covered) {
        *by_name.entry(span.name).or_insert(0) +=
            (span.end_ns - span.start_ns).saturating_sub(children);
    }
    by_name
}

/// The trace file: every span as `[name, start_ns, end_ns, parent, batch]`
/// (`parent` is an index into the same array, or null) plus the self-time
/// table, so a reader needs no tool to see where the time went.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::from(s.name),
                Json::from(s.start_ns),
                Json::from(s.end_ns),
                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                Json::from(s.batch as u64),
            ])
        })
        .collect();
    let self_ns = self_times(spans)
        .into_iter()
        .map(|(name, ns)| (name, Json::from(ns)));
    Json::object([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        (
            "columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "batch"]
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(rows)),
        ("self_ns", Json::object(self_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span("batch", 0, 100, None),
            span("build", 10, 40, Some(0)),
            span("execute", 40, 90, Some(0)),
            span("storage", 50, 60, Some(2)),
            span("batch", 100, 150, None),
        ];
        let times = self_times(&spans);
        assert_eq!(times["batch"], (100 - 30 - 50) + 50);
        assert_eq!(times["build"], 30);
        assert_eq!(times["execute"], 40);
        assert_eq!(times["storage"], 10);
        // Self times partition the root spans' total.
        assert_eq!(times.values().sum::<u64>(), 150);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("root", 7);
        let ((), ns) = tracer.time("child", 7, || std::hint::black_box(()));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].batch, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].end_ns - spans[1].start_ns >= ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        let root = tracer.open("root", 0);
        let (value, _ns) = tracer.time("child", 0, || 42);
        tracer.close(root);
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
    }
}
