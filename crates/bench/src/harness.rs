//! Shared helpers for the figure harnesses: build a system under test, run a
//! workload through it, and report throughput/latency in the paper's units.

use std::time::Duration;

use morphstream::storage::StateStore;
use morphstream::{BatchSummary, EngineConfig, MorphStream, RunReport, StreamApp, TxnEngine};
use morphstream_baselines::{LockedSpe, SStore, TStream};
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::SystemUnderTest;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand events: the `figs` default.
    Smoke,
    /// Tens of thousands of events, closer to the paper's batch sizes:
    /// `figs N --full`.
    Full,
}

impl Scale {
    /// Multiplier applied to event counts.
    pub fn factor(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Full => 8,
        }
    }
}

/// Condensed result of running one system on one workload.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Which system ran.
    pub system: SystemUnderTest,
    /// Throughput in thousands of events per second.
    pub k_events_per_second: f64,
    /// Median end-to-end latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_latency_ms: f64,
    /// Committed transaction count.
    pub committed: usize,
    /// Aborted transaction count.
    pub aborted: usize,
    /// Peak bytes retained by the state store during the run (the memory
    /// axis of Figures 16/17).
    pub peak_bytes_retained: u64,
    /// [`StateStore::state_digest`] of the store after the run.
    pub state_digest: u64,
    /// One summary per batch: the decision it ran under and the workers it
    /// engaged.
    pub batches: Vec<BatchSummary>,
}

impl SystemReport {
    /// Build from a run report and the digest of the store it ran over.
    fn from_run<O>(system: SystemUnderTest, state_digest: u64, report: RunReport<O>) -> Self {
        let ms = |p: f64| {
            report
                .latency
                .percentile(p)
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(0.0)
        };
        Self {
            system,
            k_events_per_second: report.k_events_per_second(),
            p50_latency_ms: ms(50.0),
            p95_latency_ms: ms(95.0),
            committed: report.committed,
            aborted: report.aborted,
            peak_bytes_retained: report.memory.peak_bytes(),
            state_digest,
            batches: report.batches,
        }
    }

    /// One formatted table row.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>10} {:>10}",
            self.system.to_string(),
            self.k_events_per_second,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.committed,
            self.aborted
        )
    }

    /// Table header matching [`SystemReport::row`].
    pub fn header() -> String {
        format!(
            "{:<28} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "system", "k events/s", "p50 ms", "p95 ms", "committed", "aborted"
        )
    }
}

/// Benchmark engine configuration: `threads` workers at most, paper-style
/// punctuation interval.
pub fn bench_engine_config(threads: usize, punctuation: usize) -> EngineConfig {
    EngineConfig::with_threads(threads).with_punctuation_interval(punctuation)
}

/// Emulated network round trip per state access of the Flink+Redis stand-in.
const REMOTE_STATE_LATENCY: Duration = Duration::from_micros(20);

/// `system`'s engine for `app` over `store`: every system under test is
/// MorphStream's punctuation path around the system's own batch executor.
pub fn engine<A: StreamApp>(
    system: SystemUnderTest,
    app: A,
    store: StateStore,
    config: EngineConfig,
) -> MorphStream<A> {
    match system {
        SystemUnderTest::MorphStream => MorphStream::new(app, store, config),
        SystemUnderTest::TStream => TStream::engine(app, store, config),
        SystemUnderTest::SStore => SStore::engine(app, store, config),
        SystemUnderTest::LockedSpeWithLocks => {
            LockedSpe::with_locks(app, store, config, REMOTE_STATE_LATENCY)
        }
        SystemUnderTest::LockedSpeWithoutLocks => {
            LockedSpe::without_locks(app, store, config, REMOTE_STATE_LATENCY)
        }
    }
}

/// Run `events` through `engine` and condense its report with the digest of
/// the state it left.
pub fn drive<A: StreamApp>(
    system: SystemUnderTest,
    mut engine: MorphStream<A>,
    events: Vec<A::Event>,
) -> SystemReport {
    let report = engine.run(events);
    SystemReport::from_run(system, engine.store().state_digest(), report)
}

/// Run the Streaming Ledger workload on one system and return its condensed
/// report. This is the core comparison reused by Figures 11, 12 and 21.
pub fn run_sl_on(
    system: SystemUnderTest,
    config: &WorkloadConfig,
    engine_config: EngineConfig,
    events: Vec<SlEvent>,
) -> SystemReport {
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, config);
    drive(system, engine(system, app, store, engine_config), events)
}

/// Streaming Ledger configuration used by the benchmarks: Table 6 defaults
/// shrunk to a size that runs in seconds on a laptop-class container.
pub fn bench_sl_config(scale: Scale) -> (WorkloadConfig, usize) {
    let config = WorkloadConfig::streaming_ledger()
        .with_key_space(20_000)
        .with_udf_complexity_us(1)
        .with_txns_per_batch(1_024);
    let events = 4_096 * scale.factor();
    (config, events)
}

/// Worker threads the harness runs with: the host's cores, at least two and
/// at most eight. The scheduling figures compare multi-worker schedules; a
/// one-worker batch takes no decision and runs its transactions serially,
/// in timestamp order.
pub fn bench_threads() -> usize {
    morphstream_common::config::default_parallelism().clamp(2, 8)
}

/// Print a figure banner.
pub fn banner(figure: &str, description: &str) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!("==============================================================");
}
