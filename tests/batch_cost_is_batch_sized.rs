//! A punctuation costs what its batch costs — stated as counts, so the test
//! means the same on any host: the chains a reclaim visits and the coarse
//! partitions the scheduler builds depend on the batch, not on how many keys
//! the tables hold; and what a session's report stores and what a snapshot
//! of it walks depend on the batches, not on how many events they held.

use std::collections::BTreeSet;
use std::time::Duration;

use morphstream::storage::StateStore;
use morphstream::{BatchSummary, EngineConfig, MorphStream, RunReport, TxnEngine};
use morphstream_common::config::test_threads;
use morphstream_common::metrics::{Breakdown, LatencyHistogram, StageTimings};
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

const PUNCTUATION: usize = 1_024;
const BATCHES: usize = 8;

fn config(keys: u64) -> WorkloadConfig {
    WorkloadConfig::streaming_ledger()
        .with_zipf_theta(0.2)
        .with_abort_ratio(0.0)
        .with_udf_complexity_us(0)
        .with_txns_per_batch(PUNCTUATION)
        .with_key_space(keys)
}

/// Run `events` over a ledger of `keys` accounts; per batch, the chains its
/// reclaim visited and the coarse partitions it built.
fn run(events: &[SlEvent], keys: u64) -> (Vec<u64>, Vec<u64>) {
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config(keys));
    let accounts = app.accounts_table();
    let engine_config =
        EngineConfig::with_threads(test_threads(2)).with_punctuation_interval(PUNCTUATION);
    let mut engine = MorphStream::new(app, store.clone(), engine_config);
    let report = engine.run(events.iter().cloned());
    assert_eq!(report.batches.len(), BATCHES);
    assert_eq!(report.aborted, 0);

    let table = store.table(accounts).unwrap();
    assert_eq!(
        table.version_count(),
        keys,
        "one version per key after the last reclaim"
    );
    let visited: Vec<u64> = report
        .batches
        .iter()
        .map(|b| b.reclaim_keys_visited)
        .collect();
    assert_eq!(visited.iter().sum::<u64>(), report.reclaim_keys_visited);
    assert_eq!(table.reclaim_keys_visited(), report.reclaim_keys_visited);
    assert_eq!(
        report.snapshot().reclaim_keys_visited,
        report.reclaim_keys_visited
    );
    let builds = report
        .batches
        .iter()
        .map(|b| b.coarse_unit_builds)
        .collect();
    (visited, builds)
}

#[test]
fn reclaim_and_scheduling_cost_follow_the_batch_not_the_table() {
    // The same stream — its keys drawn from the first thousand accounts —
    // over a ledger of a thousand accounts and over one of a million.
    let events = StreamingLedgerApp::generate(&config(1_000), BATCHES * PUNCTUATION, 0.6);
    let written: Vec<u64> = events
        .chunks(PUNCTUATION)
        .map(|batch| {
            let mut keys = BTreeSet::new();
            for event in batch {
                match event {
                    SlEvent::Deposit { account, .. } => keys.extend([*account]),
                    SlEvent::Transfer { from, to, .. } => keys.extend([*from, *to]),
                }
            }
            keys.len() as u64
        })
        .collect();

    let (small_visited, small_builds) = run(&events, 1_000);
    let (large_visited, large_builds) = run(&events, 1_000_000);
    // every reclaim visits exactly the keys its batch wrote …
    assert_eq!(small_visited, written);
    // … whatever the table holds besides
    assert_eq!(large_visited, written);
    assert!(written.iter().all(|n| *n <= 2 * PUNCTUATION as u64));
    // and the adaptive model never needs the coarse partition here
    assert_eq!(small_builds, [0; BATCHES]);
    assert_eq!(large_builds, [0; BATCHES]);
}

/// Latency (µs) of synthetic batch `i`: a few hundred distinct values with
/// repeats and a slow outlier now and then, like a real session's.
fn synthetic_latency_us(i: u64) -> u64 {
    let base = 5_000 + (i * 7_919) % 700;
    if i.is_multiple_of(97) {
        base * 40
    } else {
        base
    }
}

#[test]
fn a_report_stores_and_snapshots_per_batch_not_per_event() {
    let mut report: RunReport<()> = RunReport::new();
    // The per-event bookkeeping the report used to do, kept here as the
    // reference: one sample per event, sorted and bucketed on demand.
    let mut samples_us: Vec<u64> = Vec::new();
    let mut peak = 0u64;
    let check = |report: &RunReport<()>, samples_us: &[u64], peak: u64| {
        let mut sorted = samples_us.to_vec();
        sorted.sort_unstable();
        let percentile_ms = |p: f64| {
            let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            Duration::from_micros(sorted[rank]).as_secs_f64() * 1e3
        };
        let mut histogram = LatencyHistogram::new();
        sorted.iter().for_each(|us| histogram.observe_micros(*us));

        let snapshot = report.snapshot();
        assert_eq!(snapshot.events, 0, "no outputs were pushed");
        assert_eq!(snapshot.batches, report.batches.len() as u64);
        assert_eq!(snapshot.p50_latency_ms, percentile_ms(50.0));
        assert_eq!(snapshot.p95_latency_ms, percentile_ms(95.0));
        assert_eq!(snapshot.peak_bytes_retained, peak);
        assert_eq!(
            snapshot.latency.cumulative_buckets(),
            histogram.cumulative_buckets()
        );
        assert_eq!(snapshot.latency.count, sorted.len() as u64);
        let drift = (snapshot.latency.sum_ms - histogram.sum_ms).abs();
        assert!(drift <= 1e-9 * histogram.sum_ms);
    };

    let batches = 1_000_000usize.div_ceil(PUNCTUATION);
    for i in 0..batches as u64 {
        let latency_us = synthetic_latency_us(i);
        let bytes = 1_000_000 + (i * 31) % 5_000;
        let summary = BatchSummary {
            batch: i as usize,
            events: PUNCTUATION,
            committed: PUNCTUATION,
            aborted: 0,
            elapsed: Duration::from_micros(latency_us),
            decision: Default::default(),
            redone_ops: 0,
            coarse_unit_builds: 0,
            reclaim_keys_visited: 1_500,
            bytes_retained: bytes,
            timings: StageTimings::default(),
        };
        report.record_batch(summary, &Breakdown::new(), Duration::from_millis(i));
        samples_us.extend(std::iter::repeat_n(latency_us, PUNCTUATION));
        peak = peak.max(bytes);
        if i == 10 {
            check(&report, &samples_us, peak);
        }
    }
    check(&report, &samples_us, peak);

    assert!(report.latency.len() >= 1_000_000);
    assert_eq!(report.latency.len(), samples_us.len());
    // one entry per batch at most — fewer here, since batches share latencies
    assert!(report.latency.entries() <= 1_000);
    assert!(report.latency.entries() <= batches);
    assert_eq!(report.reclaim_keys_visited, 1_500 * batches as u64);
}
