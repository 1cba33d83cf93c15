//! Determinism across thread counts: the same workload seed must produce a
//! byte-identical final-state digest and per-event output history on every
//! `EngineConfig::with_threads(1..=8)`, for every bundled workload generator
//! (SL, GS, OSED, SEA, TP, Dynamic). This catches data races in the sharded
//! TPG builder and the parallel executor that the oracle-equivalence tests
//! (which fix one thread count per run) can miss.
//!
//! A batch engages only the workers its declared UDF work pays for, so
//! every operation here declares [`COST_US`]: enough that a full batch
//! engages a second worker, which each multi-thread leg checks.

use std::fmt::Debug;

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, StreamApp, TxnBuilder, TxnEngine, TxnOutcome};
use morphstream_common::{Timestamp, WorkloadConfig, WORK_PER_WORKER_US};
use morphstream_workloads::{
    DynamicWorkload, GrepSumApp, OsedApp, SeaApp, SeaGenerator, StreamingLedgerApp,
    TollProcessingApp, TweetGenerator,
};

/// UDF cost every operation declares, µs: every full batch below holds at
/// least 100 operations, so it declares the share that engages a second
/// worker (and at most a few more).
const COST_US: u64 = WORK_PER_WORKER_US.div_ceil(100);

/// FNV-1a over the `Debug` rendering of every output, in event order.
fn output_digest<O: Debug>(outputs: &[O]) -> u64 {
    let mut hash = morphstream_common::hash::Fnv1a::new();
    for output in outputs {
        hash.update(format!("{output:?}|").as_bytes());
    }
    hash.finish()
}

/// Condensed fingerprint of one run: final visible state, output history,
/// commit/abort counts.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    state: u64,
    outputs: u64,
    committed: usize,
    aborted: usize,
}

/// Build a fresh engine via `make`, run the workload at `threads` workers,
/// and fingerprint the result, with the most workers any batch engaged.
fn run_once<A, F>(make: &F, threads: usize) -> (RunDigest, usize)
where
    A: StreamApp,
    A::Output: Debug,
    F: Fn() -> (A, StateStore, Vec<A::Event>, EngineConfig),
{
    let (app, store, events, config) = make();
    let config = EngineConfig {
        num_threads: threads,
        ..config
    };
    let mut engine = MorphStream::new(app, store.clone(), config);
    let report = engine.run(events);
    let digest = RunDigest {
        state: store.state_digest(),
        outputs: output_digest(&report.outputs),
        committed: report.committed,
        aborted: report.aborted,
    };
    let workers = report.batches.iter().map(|b| b.workers).max();
    (digest, workers.unwrap_or(0))
}

/// The digest must be identical for threads 1..=8, and every run past one
/// thread must have engaged more than one worker.
fn assert_deterministic<A, F>(workload: &str, make: F)
where
    A: StreamApp,
    A::Output: Debug,
    F: Fn() -> (A, StateStore, Vec<A::Event>, EngineConfig),
{
    let (reference, _) = run_once(&make, 1);
    for threads in 2..=8usize {
        let (digest, workers) = run_once(&make, threads);
        assert_eq!(
            digest, reference,
            "{workload}: run with {threads} threads diverged"
        );
        assert!(
            workers > 1,
            "{workload}: no batch engaged a second worker at {threads} threads"
        );
    }
}

/// Declares [`COST_US`] on every operation of an application that declares
/// no UDF cost of its own.
struct Costed<A>(A);

impl<A: StreamApp> StreamApp for Costed<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn state_access(&self, event: &A::Event, txn: &mut TxnBuilder) {
        txn.set_cost_us(COST_US);
        self.0.state_access(event, txn);
    }

    fn post_process(&self, event: &A::Event, outcome: &TxnOutcome) -> A::Output {
        self.0.post_process(event, outcome)
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.0.expected_abort_ratio()
    }
}

fn small(config: WorkloadConfig) -> WorkloadConfig {
    config
        .with_key_space(256)
        .with_udf_complexity_us(COST_US)
        .with_txns_per_batch(128)
}

#[test]
fn streaming_ledger_is_deterministic_across_thread_counts() {
    assert_deterministic("SL", || {
        let config = small(WorkloadConfig::streaming_ledger()).with_abort_ratio(0.1);
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let events = StreamingLedgerApp::generate(&config, 600, 0.7);
        let engine_config = EngineConfig::with_threads(1).with_punctuation_interval(128);
        (app, store, events, engine_config)
    });
}

#[test]
fn grep_sum_is_deterministic_across_thread_counts() {
    assert_deterministic("GS", || {
        let config = small(WorkloadConfig::grep_sum());
        let store = StateStore::new();
        let app = GrepSumApp::new(&store, &config);
        let events = GrepSumApp::generate(&config, 600);
        let engine_config = EngineConfig::with_threads(1).with_punctuation_interval(128);
        (app, store, events, engine_config)
    });
}

#[test]
fn toll_processing_is_deterministic_across_thread_counts() {
    assert_deterministic("TP", || {
        let config = small(WorkloadConfig::toll_processing());
        let store = StateStore::new();
        let app = TollProcessingApp::new(&store, &config);
        let events = TollProcessingApp::generate(&config, 600);
        let engine_config = EngineConfig::with_threads(1).with_punctuation_interval(128);
        (app, store, events, engine_config)
    });
}

#[test]
fn osed_is_deterministic_across_thread_counts() {
    assert_deterministic("OSED", || {
        let generator = TweetGenerator {
            tweets: 400,
            window: 100,
            ..TweetGenerator::default()
        };
        let (tweets, _expected) = generator.generate();
        let store = StateStore::new();
        let app = Costed(OsedApp::new(&store, generator.window as Timestamp + 1));
        let engine_config = EngineConfig::with_threads(1)
            .with_punctuation_interval(generator.window + 1)
            .with_reclaim_after_batch(false);
        (app, store, tweets, engine_config)
    });
}

#[test]
fn sea_is_deterministic_across_thread_counts() {
    assert_deterministic("SEA", || {
        let generator = SeaGenerator {
            events: 600,
            stocks: 50,
            ..SeaGenerator::default()
        };
        let events = generator.generate();
        let store = StateStore::new();
        let app = Costed(SeaApp::new(&store, generator.stocks, 100));
        let engine_config = EngineConfig::with_threads(1)
            .with_punctuation_interval(128)
            .with_reclaim_after_batch(false);
        (app, store, events, engine_config)
    });
}

#[test]
fn dynamic_workload_is_deterministic_across_thread_counts() {
    assert_deterministic("Dynamic", || {
        let config = small(WorkloadConfig::streaming_ledger());
        let workload = DynamicWorkload::new(config, 150);
        let mut events = Vec::new();
        for (_, phase_events) in workload.all_phases() {
            events.extend(phase_events);
        }
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let engine_config = EngineConfig::with_threads(1).with_punctuation_interval(128);
        (app, store, events, engine_config)
    });
}
