//! Measurement infrastructure.
//!
//! The evaluation reports four kinds of measurements:
//! * throughput (events per second) — Figures 11–15, 17–21;
//! * end-to-end latency distributions (CDF / percentiles) — Figures 12b, 13b;
//! * a runtime breakdown into useful / sync / lock / construct / explore /
//!   abort time — Figure 16a and 21a;
//! * memory retained by auxiliary structures over time — Figures 16b, 17b.
//!
//! This module provides small, allocation-light recorders for all four.

use std::time::Duration;

/// Buckets of the Figure 16a runtime breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BreakdownBucket {
    /// Time spent running operations: their user-defined functions, state
    /// access and per-operation bookkeeping, less what aborting took
    /// meanwhile. Read once per scheduling unit on two or more workers and
    /// once per batch on one, never per operation.
    Useful,
    /// Blocking on barriers or waiting for other threads / mode switching.
    Sync,
    /// Waiting to acquire or inserting locks / latches.
    Lock,
    /// Building auxiliary structures (TPG, operation chains, partitions).
    Construct,
    /// Searching for ready work in the TPG / chains.
    Explore,
    /// Wasted computation due to aborts, rollbacks, and redos.
    Abort,
}

impl BreakdownBucket {
    /// All buckets in presentation order.
    pub const ALL: [BreakdownBucket; 6] = [
        BreakdownBucket::Useful,
        BreakdownBucket::Sync,
        BreakdownBucket::Lock,
        BreakdownBucket::Construct,
        BreakdownBucket::Explore,
        BreakdownBucket::Abort,
    ];

    /// Short label used by the bench harness output.
    pub fn label(self) -> &'static str {
        match self {
            BreakdownBucket::Useful => "useful",
            BreakdownBucket::Sync => "sync",
            BreakdownBucket::Lock => "lock",
            BreakdownBucket::Construct => "construct",
            BreakdownBucket::Explore => "explore",
            BreakdownBucket::Abort => "abort",
        }
    }
}

/// Accumulated per-bucket durations. Buckets accumulate across threads, so the
/// totals can exceed wall-clock time on a multicore run (as in the paper's
/// clock-tick accounting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    nanos: [u64; 6],
}

impl Breakdown {
    /// Empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to `bucket`.
    #[inline]
    pub fn add(&mut self, bucket: BreakdownBucket, d: Duration) {
        self.nanos[bucket as usize] += d.as_nanos() as u64;
    }

    /// Add raw nanoseconds to `bucket`.
    #[inline]
    pub fn add_nanos(&mut self, bucket: BreakdownBucket, nanos: u64) {
        self.nanos[bucket as usize] += nanos;
    }

    /// Total time recorded in `bucket`.
    #[inline]
    pub fn get(&self, bucket: BreakdownBucket) -> Duration {
        Duration::from_nanos(self.nanos[bucket as usize])
    }

    /// Sum over all buckets.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Fraction of the total attributed to `bucket` (0 if nothing recorded).
    pub fn fraction(&self, bucket: BreakdownBucket) -> f64 {
        let total = self.nanos.iter().sum::<u64>();
        if total == 0 {
            0.0
        } else {
            self.nanos[bucket as usize] as f64 / total as f64
        }
    }

    /// Merge another breakdown into this one (e.g. per-thread partials).
    pub fn merge(&mut self, other: &Breakdown) {
        for i in 0..self.nanos.len() {
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Per-bucket difference `self - earlier`, clamped at zero. Used to turn
    /// two cumulative snapshots into the breakdown of the interval between
    /// them (e.g. one topology propagation wave).
    pub fn saturating_sub(&self, earlier: &Breakdown) -> Breakdown {
        let mut delta = Breakdown::new();
        for i in 0..self.nanos.len() {
            delta.nanos[i] = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        delta
    }
}

/// Wall-clock timings of the two stages a punctuation flows through
/// (construct = decompose + TPG build, execute = schedule + run + post +
/// reclaim), plus `overlap`, the Figure 16 "construction overhead hidden
/// behind execution" metric. Every engine — baselines included — runs one
/// punctuation path that charges `construct` to the breakdown's construct
/// bucket as well; a batch executor that builds no TPG contributes
/// decomposition only. The stages of one batch run in turn, so `overlap` is
/// always zero; the field and [`StageTimings::overlap_fraction`] stay
/// because the benchmark's per-layer report reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Time spent decomposing events and building the TPG.
    pub construct: Duration,
    /// Time spent scheduling, executing, post-processing and reclaiming.
    pub execute: Duration,
    /// Portion of `construct` that ran while another batch was executing.
    pub overlap: Duration,
}

impl StageTimings {
    /// Zero timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum another measurement into this one (per-batch → per-run folding).
    pub fn merge(&mut self, other: &StageTimings) {
        self.construct += other.construct;
        self.execute += other.execute;
        self.overlap += other.overlap;
    }

    /// Per-stage difference `self - earlier`, clamped at zero — the stage
    /// timings of the interval between two cumulative snapshots.
    pub fn saturating_sub(&self, earlier: &StageTimings) -> StageTimings {
        StageTimings {
            construct: self.construct.saturating_sub(earlier.construct),
            execute: self.execute.saturating_sub(earlier.execute),
            overlap: self.overlap.saturating_sub(earlier.overlap),
        }
    }

    /// Fraction of construction time hidden behind execution (0 when no
    /// construction time was recorded).
    pub fn overlap_fraction(&self) -> f64 {
        let construct = self.construct.as_secs_f64();
        if construct <= 0.0 {
            0.0
        } else {
            (self.overlap.as_secs_f64() / construct).min(1.0)
        }
    }
}

/// Records end-to-end latencies and produces percentiles / CDF points.
///
/// Samples are stored as weighted runs — one `(latency, count)` entry per
/// distinct microsecond value, kept in ascending order as they are recorded —
/// so a batch of a thousand events that share one latency costs one entry, a
/// session's footprint is bounded by how many distinct latencies it saw
/// rather than by how many events, and every query works on `&self` without
/// sorting. The [`LatencyHistogram`] is maintained alongside, at record time.
/// Percentiles, mean and CDF are exactly those of the expanded sample list.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// `(latency µs, samples)`, ascending by latency, latencies distinct.
    runs: Vec<(u64, u64)>,
    /// Total samples: the sum of the run counts.
    len: u64,
    histogram: LatencyHistogram,
}

impl LatencyRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        self.record_micros_n(latency.as_micros() as u64, 1);
    }

    /// Record a latency already expressed in microseconds.
    #[inline]
    pub fn record_micros(&mut self, micros: u64) {
        self.record_micros_n(micros, 1);
    }

    /// Record `samples` events that all saw the latency `micros` — what a
    /// punctuation batch is — as one entry.
    pub fn record_micros_n(&mut self, micros: u64, samples: u64) {
        if samples == 0 {
            return;
        }
        match self.runs.binary_search_by_key(&micros, |run| run.0) {
            Ok(at) => self.runs[at].1 += samples,
            Err(at) => self.runs.insert(at, (micros, samples)),
        }
        self.len += samples;
        self.histogram.observe_micros_n(micros, samples);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored entries (distinct latencies) — what the recorder's
    /// memory and query cost grow with, as opposed to [`Self::len`]. For the
    /// tests that gate that footprint; not part of the reporting API.
    #[doc(hidden)]
    pub fn entries(&self) -> usize {
        self.runs.len()
    }

    /// Merge the samples of another recorder.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        let mine = std::mem::take(&mut self.runs);
        self.runs.reserve(mine.len() + other.runs.len());
        let (mut a, mut b) = (mine.iter().peekable(), other.runs.iter().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.0.cmp(&y.0) {
                std::cmp::Ordering::Less => self.runs.extend(a.next()),
                std::cmp::Ordering::Greater => self.runs.extend(b.next()),
                std::cmp::Ordering::Equal => {
                    self.runs.push((x.0, x.1 + y.1));
                    a.next();
                    b.next();
                }
            }
        }
        self.runs.extend(a);
        self.runs.extend(b);
        self.len += other.len;
        self.histogram.fold(&other.histogram);
    }

    /// Latencies of the samples at the ascending 0-based `ranks` of the
    /// sorted sample list, in one pass over the runs.
    fn at_ranks<'a>(
        &'a self,
        ranks: impl IntoIterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        let mut runs = self.runs.iter();
        let (mut micros, mut covered) = (0, 0u64);
        ranks.into_iter().map(move |rank| {
            while covered <= rank {
                let run = runs.next().expect("rank below the sample count");
                micros = run.0;
                covered += run.1;
            }
            micros
        })
    }

    /// The rank the nearest-rank rule assigns to the fraction `frac` of the
    /// way through the sorted samples.
    fn rank_at(&self, frac: f64) -> u64 {
        (frac * (self.len - 1) as f64).round() as u64
    }

    /// Percentile in `[0, 100]` as a duration; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.is_empty() {
            return None;
        }
        let rank = self.rank_at(p.clamp(0.0, 100.0) / 100.0);
        self.at_ranks([rank]).next().map(Duration::from_micros)
    }

    /// Mean latency; `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.is_empty() {
            return None;
        }
        let sum: u64 = self.runs.iter().map(|(us, n)| us * n).sum();
        Some(Duration::from_micros(sum / self.len))
    }

    /// The recorded samples as a [`LatencyHistogram`] — the fixed
    /// cumulative-bucket form Prometheus scrapes want. Kept current as
    /// samples are recorded, so this is a copy of thirteen counters.
    pub fn histogram(&self) -> LatencyHistogram {
        self.histogram.clone()
    }

    /// CDF as `(latency, cumulative_percent)` pairs with `points` entries,
    /// matching the latency plots of Figures 12b and 13b.
    pub fn cdf(&self, points: usize) -> Vec<(Duration, f64)> {
        if self.is_empty() || points == 0 {
            return Vec::new();
        }
        let fracs = (1..=points).map(|i| i as f64 / points as f64);
        self.at_ranks(fracs.clone().map(|frac| self.rank_at(frac)))
            .zip(fracs)
            .map(|(us, frac)| (Duration::from_micros(us), frac * 100.0))
            .collect()
    }
}

/// Upper bounds (milliseconds) of the latency histogram buckets, excluding
/// the implicit `+Inf` bucket. Spans sub-millisecond in-process latencies up
/// to seconds of queueing under back-pressure.
pub const LATENCY_BUCKET_BOUNDS_MS: [f64; 12] = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
];

/// A fixed-bucket latency histogram in the Prometheus `_bucket`/`_sum`/
/// `_count` shape: per-bucket counts (non-cumulative internally), total
/// observed milliseconds, and the sample count. Fold-able across sessions
/// and delta-able between scrapes, like the counter fields it travels with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Samples at or below each bound of [`LATENCY_BUCKET_BOUNDS_MS`], plus
    /// a final overflow (`+Inf`) slot.
    buckets: [u64; 13],
    /// Sum of all observed latencies, in milliseconds.
    pub sum_ms: f64,
    /// Number of observations.
    pub count: u64,
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency expressed in microseconds.
    pub fn observe_micros(&mut self, micros: u64) {
        self.observe_micros_n(micros, 1);
    }

    /// Record `samples` observations of the same latency.
    pub fn observe_micros_n(&mut self, micros: u64, samples: u64) {
        let ms = micros as f64 / 1000.0;
        let slot = LATENCY_BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_MS.len());
        self.buckets[slot] += samples;
        self.sum_ms += ms * samples as f64;
        self.count += samples;
    }

    /// Cumulative `(upper_bound_ms, count)` rows in exposition order; the
    /// final row is the `+Inf` bucket and always equals `count`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut rows = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            running += n;
            let bound = LATENCY_BUCKET_BOUNDS_MS
                .get(i)
                .copied()
                .unwrap_or(f64::INFINITY);
            rows.push((bound, running));
        }
        rows
    }

    /// Add another histogram's observations into this one.
    pub fn fold(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum_ms += other.sum_ms;
        self.count += other.count;
    }
}

/// Throughput helper: events processed over elapsed wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Number of input events processed (committed or aborted).
    pub events: u64,
    /// Wall-clock processing time.
    pub elapsed: Duration,
}

impl Throughput {
    /// Build from raw parts.
    pub fn new(events: u64, elapsed: Duration) -> Self {
        Self { events, elapsed }
    }

    /// Events per second; 0 when no time elapsed.
    pub fn events_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Thousands of events per second, the unit of the paper's plots.
    pub fn k_events_per_second(&self) -> f64 {
        self.events_per_second() / 1_000.0
    }

    /// Merge with another measurement (summing events and time).
    pub fn merge(&mut self, other: &Throughput) {
        self.events += other.events;
        self.elapsed += other.elapsed;
    }
}

/// Byte-accounting of auxiliary structures, standing in for the JVM memory
/// footprint plots (Figures 16b / 17b).
#[derive(Debug, Clone, Default)]
pub struct MemoryTimeline {
    points: Vec<(Duration, u64)>,
    peak: u64,
}

impl MemoryTimeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the bytes retained at elapsed time `at`.
    pub fn record(&mut self, at: Duration, bytes: u64) {
        self.points.push((at, bytes));
        self.peak = self.peak.max(bytes);
    }

    /// Recorded `(elapsed, bytes)` samples in insertion order.
    pub fn points(&self) -> &[(Duration, u64)] {
        &self.points
    }

    /// Largest recorded footprint.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_reports_fractions() {
        let mut b = Breakdown::new();
        b.add(BreakdownBucket::Useful, Duration::from_millis(30));
        b.add(BreakdownBucket::Sync, Duration::from_millis(10));
        b.add_nanos(BreakdownBucket::Useful, 0);
        assert_eq!(b.get(BreakdownBucket::Useful), Duration::from_millis(30));
        assert_eq!(b.total(), Duration::from_millis(40));
        assert!((b.fraction(BreakdownBucket::Useful) - 0.75).abs() < 1e-9);
        assert_eq!(b.fraction(BreakdownBucket::Abort), 0.0);
    }

    #[test]
    fn breakdown_merge_sums_per_bucket() {
        let mut a = Breakdown::new();
        a.add(BreakdownBucket::Lock, Duration::from_millis(5));
        let mut b = Breakdown::new();
        b.add(BreakdownBucket::Lock, Duration::from_millis(7));
        b.add(BreakdownBucket::Explore, Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.get(BreakdownBucket::Lock), Duration::from_millis(12));
        assert_eq!(a.get(BreakdownBucket::Explore), Duration::from_millis(3));
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = Breakdown::new();
        for bucket in BreakdownBucket::ALL {
            assert_eq!(b.fraction(bucket), 0.0);
            assert!(!bucket.label().is_empty());
        }
    }

    #[test]
    fn latency_percentiles_are_monotonic() {
        let mut rec = LatencyRecorder::new();
        for i in (1..=1000).rev() {
            rec.record(Duration::from_micros(i));
        }
        let p50 = rec.percentile(50.0).unwrap();
        let p99 = rec.percentile(99.0).unwrap();
        let p0 = rec.percentile(0.0).unwrap();
        let p100 = rec.percentile(100.0).unwrap();
        assert!(p0 <= p50 && p50 <= p99 && p99 <= p100);
        assert_eq!(p100, Duration::from_micros(1000));
    }

    #[test]
    fn latency_mean_and_empty_behaviour() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert!(rec.mean().is_none());
        assert!(rec.percentile(50.0).is_none());
        rec.record_micros(10);
        rec.record_micros(30);
        assert_eq!(rec.mean().unwrap(), Duration::from_micros(20));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn latency_cdf_is_non_decreasing() {
        let mut rec = LatencyRecorder::new();
        for i in 0..500 {
            rec.record_micros(1000 - i);
        }
        let cdf = rec.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        a.record_micros(1);
        let mut b = LatencyRecorder::new();
        b.record_micros(100);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.percentile(100.0).unwrap(), Duration::from_micros(100));
    }

    /// The per-sample recorder the weighted one replaced: every sample
    /// stored, sorted on demand, the histogram bucketed from the samples.
    #[derive(Default)]
    struct ExpandedReference {
        samples_us: Vec<u64>,
    }

    impl ExpandedReference {
        fn record_n(&mut self, micros: u64, samples: u64) {
            self.samples_us
                .extend(std::iter::repeat_n(micros, samples as usize));
        }

        fn sorted(&self) -> Vec<u64> {
            let mut sorted = self.samples_us.clone();
            sorted.sort_unstable();
            sorted
        }

        fn percentile(&self, p: f64) -> Option<Duration> {
            let sorted = self.sorted();
            let last = sorted.len().checked_sub(1)?;
            let rank = ((p.clamp(0.0, 100.0) / 100.0) * last as f64).round() as usize;
            Some(Duration::from_micros(sorted[rank]))
        }

        fn mean(&self) -> Option<Duration> {
            let n = self.samples_us.len() as u64;
            let sum: u64 = self.samples_us.iter().sum();
            (n > 0).then(|| Duration::from_micros(sum / n))
        }

        fn cdf(&self, points: usize) -> Vec<(Duration, f64)> {
            let sorted = self.sorted();
            if sorted.is_empty() {
                return Vec::new();
            }
            (1..=points)
                .map(|i| {
                    let frac = i as f64 / points as f64;
                    let rank = (frac * (sorted.len() - 1) as f64).round() as usize;
                    (Duration::from_micros(sorted[rank]), frac * 100.0)
                })
                .collect()
        }

        fn histogram(&self) -> LatencyHistogram {
            let mut hist = LatencyHistogram::new();
            for &us in &self.samples_us {
                hist.observe_micros(us);
            }
            hist
        }
    }

    fn assert_same_answers(weighted: &LatencyRecorder, expanded: &ExpandedReference) {
        assert_eq!(weighted.len(), expanded.samples_us.len());
        assert_eq!(weighted.is_empty(), expanded.samples_us.is_empty());
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(weighted.percentile(p), expanded.percentile(p), "p{p}");
        }
        assert_eq!(weighted.mean(), expanded.mean());
        assert_eq!(weighted.cdf(20), expanded.cdf(20));
        let (ours, theirs) = (weighted.histogram(), expanded.histogram());
        assert_eq!(ours.cumulative_buckets(), theirs.cumulative_buckets());
        assert_eq!(ours.count, theirs.count);
        let tolerance = 1e-9 * theirs.sum_ms.max(1.0);
        assert!((ours.sum_ms - theirs.sum_ms).abs() <= tolerance);
    }

    #[test]
    fn weighted_runs_answer_exactly_as_the_expanded_samples() {
        use crate::rng::DetRng;
        for seed in 0..200u64 {
            let mut rng = DetRng::new(seed);
            // few distinct latencies on even seeds (entries coalesce), a
            // wide spread across every histogram bucket on odd ones
            let spread = if seed % 2 == 0 { 12 } else { 4_000_000 };
            let mut halves = [
                (LatencyRecorder::new(), ExpandedReference::default()),
                (LatencyRecorder::new(), ExpandedReference::default()),
            ];
            for step in 0..rng.next_below(60) {
                let (weighted, expanded) = &mut halves[(step % 2) as usize];
                let (us, n) = (rng.next_below(spread), rng.next_below(40));
                weighted.record_micros_n(us, n);
                expanded.record_n(us, n);
                assert_same_answers(weighted, expanded);
                assert!(weighted.entries() <= expanded.samples_us.len());
            }
            let [(mut weighted, mut expanded), (other, other_expanded)] = halves;
            weighted.merge(&other);
            expanded.samples_us.extend(other_expanded.samples_us);
            assert_same_answers(&weighted, &expanded);
        }
    }

    #[test]
    fn a_batch_is_one_entry_however_many_events_it_holds() {
        let mut rec = LatencyRecorder::new();
        rec.record_micros_n(7_000, 1_024);
        rec.record_micros_n(7_000, 1_024);
        rec.record_micros_n(6_500, 10_240);
        rec.record_micros_n(9_000, 0);
        assert_eq!((rec.len(), rec.entries()), (12_288, 2));
        assert_eq!(rec.percentile(50.0), Some(Duration::from_micros(6_500)));
        assert_eq!(rec.percentile(95.0), Some(Duration::from_micros(7_000)));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_fold() {
        let mut rec = LatencyRecorder::new();
        rec.record_micros(400); // 0.4ms → first bucket
        rec.record_micros(3_000); // 3ms → ≤5 bucket
        rec.record_micros(10_000_000); // 10s → +Inf
        let hist = rec.histogram();
        assert_eq!(hist.count, 3);
        let rows = hist.cumulative_buckets();
        assert_eq!(rows.first().unwrap(), &(0.5, 1));
        // every row is non-decreasing and the +Inf row equals the count
        for w in rows.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let last = rows.last().unwrap();
        assert!(last.0.is_infinite());
        assert_eq!(last.1, 3);
        assert!((hist.sum_ms - (0.4 + 3.0 + 10_000.0)).abs() < 1e-6);

        let mut folded = LatencyHistogram::new();
        folded.fold(&hist);
        folded.fold(&hist);
        assert_eq!(folded.count, 6);
    }

    #[test]
    fn throughput_units() {
        let t = Throughput::new(50_000, Duration::from_secs(2));
        assert!((t.events_per_second() - 25_000.0).abs() < 1e-6);
        assert!((t.k_events_per_second() - 25.0).abs() < 1e-6);
        let zero = Throughput::new(10, Duration::ZERO);
        assert_eq!(zero.events_per_second(), 0.0);
    }

    #[test]
    fn throughput_merge_sums_both_fields() {
        let mut a = Throughput::new(100, Duration::from_secs(1));
        a.merge(&Throughput::new(300, Duration::from_secs(3)));
        assert_eq!(a.events, 400);
        assert_eq!(a.elapsed, Duration::from_secs(4));
    }

    #[test]
    fn stage_timings_merge_and_overlap_fraction() {
        let mut a = StageTimings::new();
        assert_eq!(a.overlap_fraction(), 0.0);
        a.merge(&StageTimings {
            construct: Duration::from_millis(10),
            execute: Duration::from_millis(40),
            overlap: Duration::from_millis(5),
        });
        a.merge(&StageTimings {
            construct: Duration::from_millis(10),
            execute: Duration::from_millis(20),
            overlap: Duration::from_millis(10),
        });
        assert_eq!(a.construct, Duration::from_millis(20));
        assert_eq!(a.execute, Duration::from_millis(60));
        assert_eq!(a.overlap, Duration::from_millis(15));
        assert!((a.overlap_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn memory_timeline_tracks_peak() {
        let mut m = MemoryTimeline::new();
        assert_eq!(m.peak_bytes(), 0);
        m.record(Duration::from_secs(1), 100);
        m.record(Duration::from_secs(2), 500);
        m.record(Duration::from_secs(3), 200);
        assert_eq!(m.peak_bytes(), 500);
        assert_eq!(m.points().len(), 3);
    }
}
