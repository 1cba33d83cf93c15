//! Run and batch reports: the measurements every figure of the evaluation is
//! derived from.

use std::time::Duration;

use morphstream_common::json::JsonObject;
use morphstream_common::metrics::{
    Breakdown, LatencyHistogram, LatencyRecorder, MemoryTimeline, StageTimings, Throughput,
};
use morphstream_scheduler::SchedulingDecision;
use morphstream_storage::StateStore;

/// Summary of one processed batch (one punctuation interval).
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Index of the batch within the run.
    pub batch: usize,
    /// Number of input events in the batch.
    pub events: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// End-to-end wall-clock time from the batch being cut to its results
    /// landing — the latency of the batch. A topology round on the threaded
    /// driver includes time queued on its channels; use
    /// [`BatchSummary::processing_time`] when summing across batches
    /// (throughput).
    pub elapsed: Duration,
    /// The scheduling decision the engine's batch executor ran the batch
    /// under (the decision of the first group when the nested configuration
    /// is used): MorphStream's adaptive or fixed choice, or a baseline's own
    /// fixed one. The default decision for an executor that takes none (the
    /// locked SPE).
    pub decision: SchedulingDecision,
    /// Operations redone because of upstream aborts.
    pub redone_ops: usize,
    /// Coarse scheduling-unit partitions built for the batch: one per group
    /// whose decision needed the cycle flag or chose `c-schedule`, so 0 for a
    /// batch the cheap TD/PD test already sent to `f-schedule`.
    pub coarse_unit_builds: u64,
    /// Workers the batch engaged, the calling thread included: MorphStream
    /// engages what the batch's declared UDF work pays for, at most
    /// `EngineConfig::num_threads` (the most any group engaged, when the
    /// nested configuration is used; the most any operator instance's batch
    /// engaged, for a topology round); a baseline engages `num_threads`.
    pub workers: usize,
    /// Version chains the after-batch reclaim visited: the keys written
    /// since their last reclaim, not the keys of the tables. On a store
    /// shared with concurrently running engines, their visits count too.
    pub reclaim_keys_visited: u64,
    /// Bytes retained by the state store when the batch finished.
    pub bytes_retained: u64,
    /// Construct/execute wall-clock split of the batch. Its `overlap` is
    /// always zero: an engine plans and executes one batch at a time.
    pub timings: StageTimings,
}

/// Turns the stores' cumulative reclaim-visit counters into per-batch
/// figures: what the counters gained since the previous batch is the next
/// [`BatchSummary::reclaim_keys_visited`]. Read from the stores, not summed
/// from the engines on them: engines that share a store would each count the
/// visits of the others running beside them.
#[derive(Debug)]
pub(crate) struct ReclaimVisits {
    seen: u64,
}

impl ReclaimVisits {
    fn total<'a>(stores: impl IntoIterator<Item = &'a StateStore>) -> u64 {
        stores
            .into_iter()
            .map(StateStore::reclaim_keys_visited)
            .sum()
    }

    /// Start counting from what `stores` have visited so far.
    pub(crate) fn new<'a>(stores: impl IntoIterator<Item = &'a StateStore>) -> Self {
        Self {
            seen: Self::total(stores),
        }
    }

    /// Chains the reclaims of `stores` visited since the last call.
    pub(crate) fn take<'a>(&mut self, stores: impl IntoIterator<Item = &'a StateStore>) -> u64 {
        let total = Self::total(stores);
        total.saturating_sub(std::mem::replace(&mut self.seen, total))
    }
}

impl BatchSummary {
    /// Wall-clock time this batch occupied the engine: construction plus
    /// execution. Unlike [`BatchSummary::elapsed`], these intervals are
    /// disjoint across batches, so they sum correctly into run throughput.
    pub fn processing_time(&self) -> Duration {
        self.timings.construct + self.timings.execute
    }

    /// Throughput of this batch in events per second (over
    /// [`BatchSummary::processing_time`]).
    pub fn events_per_second(&self) -> f64 {
        Throughput::new(self.events as u64, self.processing_time()).events_per_second()
    }
}

/// Condensed, type-erased report of one operator inside a
/// [`Topology`](crate::Topology): the per-operator slice of the run that the
/// topology aggregates into its top-level [`RunReport`].
///
/// Produced when the topology session finishes — one entry per operator, in
/// the order the operators were added to the builder. The per-operator
/// `committed`/`aborted` counts sum to the topology report's top-level
/// counts, and `stage_timings`/`breakdown` sum to the top-level aggregates.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Operator name given to `TopologyBuilder::add_operator`.
    pub name: String,
    /// Events this operator ingested and post-processed.
    pub events: usize,
    /// Committed transactions of this operator.
    pub committed: usize,
    /// Aborted transactions of this operator.
    pub aborted: usize,
    /// Punctuation batches this operator processed.
    pub batches: usize,
    /// Throughput over this operator's batch processing time.
    pub throughput: Throughput,
    /// Per-event latency samples recorded by this operator.
    pub latency: LatencyRecorder,
    /// Construct/execute stage timings of this operator.
    pub stage_timings: StageTimings,
    /// Runtime breakdown of this operator's batches.
    pub breakdown: Breakdown,
}

impl OperatorReport {
    /// Condense a finished per-operator run into the erased report.
    pub fn from_run<O>(name: impl Into<String>, run: &RunReport<O>) -> Self {
        Self {
            name: name.into(),
            events: run.events(),
            committed: run.committed,
            aborted: run.aborted,
            batches: run.batches.len(),
            throughput: run.throughput,
            latency: run.latency.clone(),
            stage_timings: run.stage_timings,
            breakdown: run.breakdown.clone(),
        }
    }

    /// Throughput in thousands of events per second (the paper's unit).
    pub fn k_events_per_second(&self) -> f64 {
        self.throughput.k_events_per_second()
    }
}

/// Per-edge channel statistics of a [`Topology`](crate::Topology) run: one
/// row per routed connection (plus the implicit `(input)` → entry feed), so
/// back-pressure is observable. `queue_full_waits` counts how often a sender
/// found the edge's bounded channel full and had to block; it is always zero
/// under the inline driver, which has no channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReport {
    /// Name of the upstream operator (`"(input)"` for the entry feed).
    pub from: String,
    /// Name of the downstream operator.
    pub to: String,
    /// Times a send on this edge found the bounded channel full and blocked.
    pub queue_full_waits: u64,
}

impl EdgeReport {
    /// Render as one JSON object via the shared [`morphstream_common::json`]
    /// path.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("from", &self.from)
            .string("to", &self.to)
            .unsigned("queue_full_waits", self.queue_full_waits)
            .build()
    }
}

/// Report of a whole run (a sequence of batches).
#[derive(Debug)]
pub struct RunReport<O> {
    /// Per-event outputs produced by post-processing, in input order. Empty
    /// while an output sink is installed (see
    /// [`TxnEngine::set_output_sink`](crate::TxnEngine::set_output_sink)) —
    /// drained outputs are counted in [`RunReport::drained_outputs`] instead.
    pub outputs: Vec<O>,
    /// Outputs delivered to an installed output sink instead of being
    /// retained in `outputs`, so [`RunReport::events`] stays exact when a
    /// server streams outputs away.
    pub drained_outputs: usize,
    /// Number of committed transactions.
    pub committed: usize,
    /// Number of aborted transactions.
    pub aborted: usize,
    /// Operations redone because of upstream aborts, summed over batches.
    pub redone_ops: usize,
    /// Coarse scheduling-unit partitions built, summed over batches.
    pub coarse_unit_builds: u64,
    /// Version chains visited by after-batch reclaims, summed over batches.
    pub reclaim_keys_visited: u64,
    /// Aggregate throughput over the processing time of all batches.
    pub throughput: Throughput,
    /// End-to-end latency samples of every event.
    pub latency: LatencyRecorder,
    /// Runtime breakdown accumulated over all batches and worker threads.
    pub breakdown: Breakdown,
    /// Memory retained by auxiliary structures over time.
    pub memory: MemoryTimeline,
    /// Construct/execute stage timings summed over all batches (the Figure 16
    /// construction-overhead axis); `overlap` is always zero.
    pub stage_timings: StageTimings,
    /// Per-batch summaries (throughput-over-time plots).
    pub batches: Vec<BatchSummary>,
    /// Per-operator sub-reports. Empty for a single-operator engine; filled
    /// by a finished [`Topology`](crate::Topology) session with one entry per
    /// operator *instance* (named `name#i` when the operator runs with
    /// parallelism above one), whose counts sum to the top-level
    /// `committed`/`aborted`.
    pub operators: Vec<OperatorReport>,
    /// Per-edge channel statistics of a topology run (empty for a
    /// single-operator engine), so back-pressure is observable.
    pub edges: Vec<EdgeReport>,
}

impl<O> RunReport<O> {
    /// Empty report.
    pub fn new() -> Self {
        Self {
            outputs: Vec::new(),
            drained_outputs: 0,
            committed: 0,
            aborted: 0,
            redone_ops: 0,
            coarse_unit_builds: 0,
            reclaim_keys_visited: 0,
            throughput: Throughput::default(),
            latency: LatencyRecorder::new(),
            breakdown: Breakdown::new(),
            memory: MemoryTimeline::new(),
            stage_timings: StageTimings::new(),
            batches: Vec::new(),
            operators: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Total events processed: retained outputs plus outputs drained to an
    /// installed sink.
    pub fn events(&self) -> usize {
        self.outputs.len() + self.drained_outputs
    }

    /// Fold one processed batch into the report: the batch's latency (one
    /// weighted entry for all of its events), commit/abort counts,
    /// throughput, the execution breakdown, the memory timeline (`at` is the
    /// offset since the run started), and the summary itself. Shared by the
    /// MorphStream engine and the baseline harness so their per-batch
    /// bookkeeping cannot drift.
    pub fn record_batch(&mut self, summary: BatchSummary, breakdown: &Breakdown, at: Duration) {
        self.latency
            .record_micros_n(summary.elapsed.as_micros() as u64, summary.events as u64);
        self.committed += summary.committed;
        self.aborted += summary.aborted;
        self.redone_ops += summary.redone_ops;
        self.coarse_unit_builds += summary.coarse_unit_builds;
        self.reclaim_keys_visited += summary.reclaim_keys_visited;
        // Latency uses `elapsed` (end-to-end, queueing included); throughput
        // uses `processing_time`, the stage time the batch held its engine.
        self.throughput.merge(&Throughput::new(
            summary.events as u64,
            summary.processing_time(),
        ));
        self.breakdown.merge(breakdown);
        self.memory.record(at, summary.bytes_retained);
        self.stage_timings.merge(&summary.timings);
        self.batches.push(summary);
    }

    /// Throughput in thousands of events per second (the paper's unit).
    pub fn k_events_per_second(&self) -> f64 {
        self.throughput.k_events_per_second()
    }

    /// Fraction of TPG-construction time hidden behind the execution of
    /// other batches: always 0, since every batch is planned and executed in
    /// turn. Kept because the benchmark reports it as
    /// `engine.construct_overlap_share`.
    pub fn construction_overlap_fraction(&self) -> f64 {
        self.stage_timings.overlap_fraction()
    }

    /// The scheduling decisions taken across batches, deduplicated in order —
    /// shows how the engine morphed during a dynamic workload.
    pub fn decision_trace(&self) -> Vec<SchedulingDecision> {
        let mut trace: Vec<SchedulingDecision> = Vec::new();
        for b in &self.batches {
            if trace.last() != Some(&b.decision) {
                trace.push(b.decision);
            }
        }
        trace
    }

    /// Condense the report into plain cumulative counters (plus a few
    /// point-in-time gauges), cheap to take repeatedly while a session runs:
    /// nothing is cloned or sorted, the histogram and the peak are kept
    /// current as batches are recorded, and the two quantiles scan the
    /// distinct latencies seen — so the cost does not grow with the events
    /// of the session. The server's `/metrics` endpoint scrapes these.
    pub fn snapshot(&self) -> ReportSnapshot {
        let pct = |p: f64| {
            let latency = self.latency.percentile(p);
            latency.map_or(0.0, |d| d.as_secs_f64() * 1e3)
        };
        ReportSnapshot {
            events: self.events() as u64,
            committed: self.committed as u64,
            aborted: self.aborted as u64,
            redone_ops: self.redone_ops as u64,
            coarse_unit_builds: self.coarse_unit_builds,
            reclaim_keys_visited: self.reclaim_keys_visited,
            batches: self.batches.len() as u64,
            processing_seconds: self.throughput.elapsed.as_secs_f64(),
            p50_latency_ms: pct(50.0),
            p95_latency_ms: pct(95.0),
            peak_bytes_retained: self.memory.peak_bytes(),
            batch_workers: self.batches.last().map_or(0, |b| b.workers as u64),
            latency: self.latency.histogram(),
            operators: self
                .operators
                .iter()
                .map(|op| OperatorCounters {
                    name: op.name.clone(),
                    events: op.events as u64,
                    committed: op.committed as u64,
                    aborted: op.aborted as u64,
                    batches: op.batches as u64,
                })
                .collect(),
            edges: self.edges.clone(),
        }
    }
}

/// Cumulative counters of one operator inside a [`ReportSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorCounters {
    /// Operator (instance) name, e.g. `"spend#1"`.
    pub name: String,
    /// Events ingested and post-processed.
    pub events: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Punctuation batches processed.
    pub batches: u64,
}

impl OperatorCounters {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("name", &self.name)
            .unsigned("events", self.events)
            .unsigned("committed", self.committed)
            .unsigned("aborted", self.aborted)
            .unsigned("batches", self.batches)
            .build()
    }
}

/// A point-in-time condensation of a [`RunReport`] into plain counters and
/// gauges: no outputs, no per-event samples — safe to clone, fold, and
/// serialize however often an observer polls.
///
/// All integer fields are *cumulative counters* within the session the
/// snapshot was taken from; `p50/p95` and `peak_bytes_retained` are gauges
/// describing the session so far. [`ReportSnapshot::fold`] adds counters
/// across session boundaries — how a long-lived server keeps totals while
/// rotating sessions to bound report memory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportSnapshot {
    /// Events processed (retained plus drained outputs).
    pub events: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Operations redone because of upstream aborts.
    pub redone_ops: u64,
    /// Coarse scheduling-unit partitions built (see
    /// [`BatchSummary::coarse_unit_builds`]).
    pub coarse_unit_builds: u64,
    /// Version chains visited by after-batch reclaims (see
    /// [`BatchSummary::reclaim_keys_visited`]).
    pub reclaim_keys_visited: u64,
    /// Punctuation batches processed.
    pub batches: u64,
    /// Engine-occupancy processing time summed over batches, in seconds.
    pub processing_seconds: f64,
    /// Median end-to-end event latency (gauge, milliseconds; 0 when empty).
    pub p50_latency_ms: f64,
    /// 95th-percentile end-to-end event latency (gauge, milliseconds).
    pub p95_latency_ms: f64,
    /// Largest state-store footprint observed (gauge, bytes).
    pub peak_bytes_retained: u64,
    /// Workers the newest batch engaged (gauge; 0 before the first batch).
    pub batch_workers: u64,
    /// End-to-end latency distribution as a fixed-bucket histogram — the
    /// fold-able form `/metrics` renders as `_bucket`/`_sum`/`_count` rows.
    pub latency: LatencyHistogram,
    /// Per-operator counters (empty for a single-operator engine).
    pub operators: Vec<OperatorCounters>,
    /// Per-edge back-pressure counters (empty for a single-operator engine).
    pub edges: Vec<EdgeReport>,
}

impl ReportSnapshot {
    /// Overall throughput implied by the counters, in events per second.
    pub fn events_per_second(&self) -> f64 {
        if self.processing_seconds <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.processing_seconds
        }
    }

    /// Add `other`'s counters into `self` (rows matched by name, unmatched
    /// rows appended); gauges take the maximum of the peaks and `other`'s
    /// latency quantiles when it saw events. This is how a server folds a
    /// finished session's snapshot into its lifetime totals.
    pub fn fold(&mut self, other: &ReportSnapshot) {
        self.events += other.events;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.redone_ops += other.redone_ops;
        self.coarse_unit_builds += other.coarse_unit_builds;
        self.reclaim_keys_visited += other.reclaim_keys_visited;
        self.batches += other.batches;
        self.processing_seconds += other.processing_seconds;
        if other.events > 0 {
            self.p50_latency_ms = other.p50_latency_ms;
            self.p95_latency_ms = other.p95_latency_ms;
        }
        if other.batches > 0 {
            self.batch_workers = other.batch_workers;
        }
        self.peak_bytes_retained = self.peak_bytes_retained.max(other.peak_bytes_retained);
        self.latency.fold(&other.latency);
        for op in &other.operators {
            match self.operators.iter_mut().find(|s| s.name == op.name) {
                Some(s) => {
                    s.events += op.events;
                    s.committed += op.committed;
                    s.aborted += op.aborted;
                    s.batches += op.batches;
                }
                None => self.operators.push(op.clone()),
            }
        }
        for edge in &other.edges {
            match self
                .edges
                .iter_mut()
                .find(|s| s.from == edge.from && s.to == edge.to)
            {
                Some(s) => s.queue_full_waits += edge.queue_full_waits,
                None => self.edges.push(edge.clone()),
            }
        }
    }

    /// Render as one JSON object (operator and edge rows nested as arrays),
    /// via the shared [`morphstream_common::json`] path.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .unsigned("events", self.events)
            .unsigned("committed", self.committed)
            .unsigned("aborted", self.aborted)
            .unsigned("redone_ops", self.redone_ops)
            .unsigned("coarse_unit_builds", self.coarse_unit_builds)
            .unsigned("reclaim_keys_visited", self.reclaim_keys_visited)
            .unsigned("batches", self.batches)
            .fixed("processing_seconds", self.processing_seconds, 6)
            .fixed("events_per_second", self.events_per_second(), 1)
            .fixed("p50_latency_ms", self.p50_latency_ms, 3)
            .fixed("p95_latency_ms", self.p95_latency_ms, 3)
            .unsigned("peak_bytes_retained", self.peak_bytes_retained)
            .array("operators", self.operators.iter().map(|o| o.to_json()))
            .array("edges", self.edges.iter().map(|e| e.to_json()))
            .build()
    }
}

impl<O> Default for RunReport<O> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_summary_computes_throughput_over_processing_time() {
        let b = BatchSummary {
            batch: 0,
            events: 1000,
            committed: 990,
            aborted: 10,
            elapsed: Duration::from_millis(150), // includes channel queueing
            decision: SchedulingDecision::default(),
            redone_ops: 0,
            coarse_unit_builds: 0,
            workers: 1,
            reclaim_keys_visited: 0,
            bytes_retained: 0,
            timings: StageTimings {
                construct: Duration::from_millis(40),
                execute: Duration::from_millis(60),
                overlap: Duration::ZERO,
            },
        };
        // 40 + 60 = 100ms of engine occupancy for 1000 events
        assert_eq!(b.processing_time(), Duration::from_millis(100));
        assert!((b.events_per_second() - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn decision_trace_deduplicates_consecutive_decisions() {
        let mut report: RunReport<()> = RunReport::new();
        let fine = SchedulingDecision {
            granularity: morphstream_scheduler::Granularity::Fine,
            ..Default::default()
        };
        for (i, d) in [
            SchedulingDecision::default(),
            SchedulingDecision::default(),
            fine,
        ]
        .into_iter()
        .enumerate()
        {
            report.batches.push(BatchSummary {
                batch: i,
                events: 1,
                committed: 1,
                aborted: 0,
                elapsed: Duration::from_millis(1),
                decision: d,
                redone_ops: 0,
                coarse_unit_builds: 0,
                workers: 1,
                reclaim_keys_visited: 0,
                bytes_retained: 0,
                timings: StageTimings::default(),
            });
        }
        assert_eq!(report.decision_trace().len(), 2);
        assert_eq!(report.events(), 0);
        assert_eq!(report.k_events_per_second(), 0.0);
    }

    fn summary(events: usize, committed: usize) -> BatchSummary {
        BatchSummary {
            batch: 0,
            events,
            committed,
            aborted: events - committed,
            elapsed: Duration::from_millis(10),
            decision: SchedulingDecision::default(),
            redone_ops: 1,
            coarse_unit_builds: 2,
            workers: 1,
            reclaim_keys_visited: 7,
            bytes_retained: 512,
            timings: StageTimings {
                construct: Duration::from_millis(4),
                execute: Duration::from_millis(6),
                overlap: Duration::ZERO,
            },
        }
    }

    #[test]
    fn snapshot_fold_accumulates_across_sessions() {
        let mut total = ReportSnapshot::default();
        let mut session = ReportSnapshot {
            events: 10,
            committed: 9,
            aborted: 1,
            batches: 2,
            processing_seconds: 0.5,
            p95_latency_ms: 7.0,
            peak_bytes_retained: 100,
            batch_workers: 2,
            ..Default::default()
        };
        session.operators.push(OperatorCounters {
            name: "op".into(),
            events: 10,
            committed: 9,
            aborted: 1,
            batches: 2,
        });
        session.edges.push(EdgeReport {
            from: "(input)".into(),
            to: "op".into(),
            queue_full_waits: 3,
        });
        total.fold(&session);
        total.fold(&session);
        assert_eq!(total.events, 20);
        assert_eq!(total.committed, 18);
        assert_eq!(total.batches, 4);
        assert_eq!(total.operators.len(), 1);
        assert_eq!(total.operators[0].events, 20);
        assert_eq!(total.edges[0].queue_full_waits, 6);
        assert_eq!(total.peak_bytes_retained, 100);
        assert!((total.events_per_second() - 20.0).abs() < 1e-9);
        // the newest batch's worker count survives a session without batches
        assert_eq!(total.batch_workers, 2);
        total.fold(&ReportSnapshot::default());
        assert_eq!(total.batch_workers, 2);
    }

    #[test]
    fn snapshot_latency_histogram_follows_the_recorded_samples() {
        let mut report: RunReport<u64> = RunReport::new();
        report.outputs.extend([1, 2]);
        report.record_batch(summary(2, 2), &Breakdown::new(), Duration::from_millis(5));
        let snap = report.snapshot();
        assert_eq!(snap.batch_workers, 1);
        assert_eq!(snap.latency.count, 2);
        let rows = snap.latency.cumulative_buckets();
        assert_eq!(rows.last().unwrap().1, 2);
    }

    #[test]
    fn snapshot_json_round_trips_top_level_counters() {
        let mut report: RunReport<u64> = RunReport::new();
        report.outputs.extend([7, 8]);
        report.record_batch(summary(2, 2), &Breakdown::new(), Duration::from_millis(5));
        let rendered = report.snapshot().to_json();
        // operators/edges are nested, which the flat parser rejects — strip
        // them for the round-trip check of the scalar counters.
        let scalars = rendered
            .split(",\"operators\":")
            .next()
            .map(|s| format!("{s}}}"))
            .unwrap();
        let map = morphstream_common::json::parse_object(&scalars).unwrap();
        assert_eq!(map["events"].as_u64(), Some(2));
        assert_eq!(map["committed"].as_u64(), Some(2));
        assert_eq!(map["batches"].as_u64(), Some(1));
    }
}
