//! The sweep that fixes `morphstream_common::WORK_PER_WORKER_US`: Streaming
//! Ledger batches planned and executed at one and at two workers over a grid
//! of UDF cost `C` and punctuation interval `T`, next to the count the rule
//! engages (`figs 21 --workers`).
//!
//! The engine engages what a batch's declared work pays for, so the sweep
//! pins the count instead: [`Pinned`] runs each batch as MorphStream's own
//! executor does — at one worker the serial loop, from two on
//! [`ExecutedBatch::planned`] with a sharded build and the adaptive
//! decision — at a fixed number of workers, installed with
//! `MorphStream::with_executor`, so everything around the batch is the
//! engine's punctuation path.

use morphstream::storage::StateStore;
use morphstream::{BatchExecutor, EngineConfig, ExecutedBatch, MorphStream, TxnEngine};
use morphstream_common::{effective_workers, WorkloadConfig};
use morphstream_tpg::{TpgBuilder, TransactionBatch};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::harness::{banner, Scale};

/// MorphStream's batch executor at a pinned worker count.
struct Pinned {
    workers: usize,
}

impl BatchExecutor for Pinned {
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        _threads: usize,
    ) -> ExecutedBatch {
        if self.workers == 1 {
            return ExecutedBatch::serial(batch, store, None);
        }
        let planner = TpgBuilder::new().with_threads(self.workers);
        ExecutedBatch::planned(&planner, batch, store, self.workers, None)
    }
}

/// A Streaming Ledger shape of the benchmark (`benchmark/src/spec.rs`),
/// named after its workload.
struct Shape {
    name: &'static str,
    theta: f64,
    abort_ratio: f64,
    key_space: u64,
    transfer_ratio: f64,
}

/// `sl_overhead`'s and `sl_contended`'s shapes, `C` and `T` left free.
const SHAPES: [Shape; 2] = [
    Shape {
        name: "sl_overhead",
        theta: 0.2,
        abort_ratio: 0.01,
        key_space: 100_000,
        transfer_ratio: 0.6,
    },
    Shape {
        name: "sl_contended",
        theta: 1.0,
        abort_ratio: 0.2,
        key_space: 10_000,
        transfer_ratio: 1.0,
    },
];

/// UDF costs swept, µs per operation.
const COSTS_US: [u64; 5] = [0, 1, 2, 5, 10];
/// Punctuation intervals swept, events.
const INTERVALS: [usize; 2] = [1_024, 10_240];

/// One grid point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Shape name.
    pub shape: &'static str,
    /// Punctuation interval, events.
    pub interval: usize,
    /// UDF cost per operation, µs.
    pub cost_us: u64,
    /// Mean UDF work a batch declares, µs.
    pub declared_us: u64,
    /// Median throughput over the rounds at one and at two workers, keps.
    pub keps: [f64; 2],
    /// Workers the rule engages at two threads for the mean batch.
    pub rule: usize,
}

impl Row {
    /// How much slower the rule's count runs than the other count: 0 when
    /// the rule picked the faster one.
    pub fn rule_loss(&self) -> f64 {
        let chosen = self.keps[self.rule - 1];
        let other = self.keps[2 - self.rule];
        (other / chosen - 1.0).max(0.0)
    }
}

fn config(shape: &Shape, interval: usize, cost_us: u64) -> WorkloadConfig {
    WorkloadConfig::streaming_ledger()
        .with_zipf_theta(shape.theta)
        .with_abort_ratio(shape.abort_ratio)
        .with_udf_complexity_us(cost_us)
        .with_txns_per_batch(interval)
        .with_key_space(shape.key_space)
}

/// Throughput (keps over batch processing time) of `events` at `workers`.
fn run_at(config: &WorkloadConfig, events: &[SlEvent], workers: usize) -> f64 {
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, config);
    let engine_config =
        EngineConfig::with_threads(workers).with_punctuation_interval(config.txns_per_batch);
    let mut engine = MorphStream::new(app, store, engine_config).with_executor(Pinned { workers });
    engine.run(events.iter().cloned()).k_events_per_second()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Sweep every shape × `T` × `C` at one and two workers, alternating which
/// count runs first from round to round.
pub fn measure(scale: Scale) -> Vec<Row> {
    let (rounds, events_per_point) = match scale {
        Scale::Smoke => (3, 20_480),
        Scale::Full => (5, 61_440),
    };
    let mut rows = Vec::new();
    for shape in &SHAPES {
        for interval in INTERVALS {
            for cost_us in COSTS_US {
                let config = config(shape, interval, cost_us);
                let events =
                    StreamingLedgerApp::generate(&config, events_per_point, shape.transfer_ratio);
                let ops: u64 = events
                    .iter()
                    .map(|e| match e {
                        SlEvent::Deposit { .. } => 1,
                        SlEvent::Transfer { .. } => 2,
                    })
                    .sum();
                let declared_us = ops * cost_us / (events.len() / interval) as u64;
                let mut samples = [Vec::new(), Vec::new()];
                for round in 0..rounds {
                    let order = if round % 2 == 0 { [1, 2] } else { [2, 1] };
                    for workers in order {
                        samples[workers - 1].push(run_at(&config, &events, workers));
                    }
                }
                let [one, two] = samples;
                rows.push(Row {
                    shape: shape.name,
                    interval,
                    cost_us,
                    declared_us,
                    keps: [median(one), median(two)],
                    rule: effective_workers(2, declared_us),
                });
            }
        }
    }
    rows
}

/// Print the sweep table.
pub fn run(scale: Scale) {
    banner(
        "Figure 21 (workers)",
        "SL throughput at one and two pinned workers vs the declared-work rule",
    );
    println!(
        "available parallelism: {}",
        morphstream_common::config::default_parallelism()
    );
    println!(
        "{:<14} {:>7} {:>5} {:>12} {:>10} {:>10} {:>6} {:>10}",
        "shape", "T", "C us", "declared ms", "keps @1", "keps @2", "rule", "rule loss"
    );
    for row in measure(scale) {
        println!(
            "{:<14} {:>7} {:>5} {:>12.2} {:>10.1} {:>10.1} {:>6} {:>9.1}%",
            row.shape,
            row.interval,
            row.cost_us,
            row.declared_us as f64 / 1e3,
            row.keps[0],
            row.keps[1],
            row.rule,
            row.rule_loss() * 100.0
        );
    }
}
