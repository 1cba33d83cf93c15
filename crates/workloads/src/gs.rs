//! GrepSum (GS): read a set of states, aggregate them, and write the result.
//!
//! GS is the most tunable micro-benchmark of the suite: the number of states
//! read per operation (`r`), the UDF cost (`C`), the abort ratio (`a`) and
//! the access skew (`θ`) are all configurable. Two extended variants drive
//! the special-scenario experiments:
//!
//! * **windowed GrepSum** (Section 8.2.4) mixes write-only update events with
//!   periodic window-read events that aggregate the versions of a set of
//!   states over a trailing event-time window;
//! * **non-deterministic GrepSum** (Section 8.2.5) resolves the written key
//!   with a user-defined function at execution time.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{udfs, StreamApp, TxnBuilder, TxnOutcome};
use morphstream_common::rng::DetRng;
use morphstream_common::zipf::Zipf;
use morphstream_common::{StateRef, TableId, Timestamp, Value, WorkloadConfig};

/// A GrepSum input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsEvent {
    /// Write `value` into `target` after summing the current values of
    /// `sources` (a multi-state write with `r = sources.len()` accesses).
    Update {
        /// Key written.
        target: u64,
        /// Keys whose values are summed into the written value.
        sources: Vec<u64>,
        /// Extra constant added to the sum.
        value: Value,
        /// When true the transaction violates the consistency rule and
        /// aborts.
        inject_abort: bool,
    },
    /// Read every version of `keys` inside the trailing `window` and sum
    /// them (the windowed variant).
    WindowSum {
        /// Keys to aggregate.
        keys: Vec<u64>,
        /// Trailing window size in event-time units.
        window: Timestamp,
    },
    /// Write the sum of `read_keys` to a key chosen by a user-defined
    /// function of the timestamp (the non-deterministic variant).
    NonDetSum {
        /// Seed of the key-resolving UDF.
        seed: u64,
        /// Keys read to compute the sum.
        read_keys: Vec<u64>,
    },
}

/// The GrepSum application.
pub struct GrepSumApp {
    table: TableId,
    key_space: u64,
    cost_us: u64,
    expected_abort_ratio: f64,
}

impl GrepSumApp {
    /// Create the application and its state table, pre-allocating
    /// `config.key_space` keys initialised to 1.
    pub fn new(store: &StateStore, config: &WorkloadConfig) -> Self {
        let table = store.create_table("grepsum", 1, false);
        store
            .preallocate_range(table, config.key_space)
            .expect("grepsum table exists");
        Self {
            table,
            key_space: config.key_space,
            cost_us: config.udf_complexity_us,
            expected_abort_ratio: config.abort_ratio,
        }
    }

    /// The backing table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Generate plain GrepSum update events following `config`. Eager
    /// variant of [`GrepSumApp::source`].
    pub fn generate(config: &WorkloadConfig, count: usize) -> Vec<GsEvent> {
        Self::source(config, count).collect()
    }

    /// Lazily yield the same `count` update events as
    /// [`GrepSumApp::generate`], one at a time.
    pub fn source(config: &WorkloadConfig, count: usize) -> GsSource {
        GsSource {
            zipf: Zipf::new(config.key_space, config.zipf_theta, config.seed),
            rng: DetRng::new(config.seed ^ 0x6E50_5D11),
            states_per_op: config.states_per_op.max(1),
            abort_ratio: config.abort_ratio,
            remaining: count,
        }
    }

    /// Generate the windowed variant: `read_period` update events between two
    /// window reads, each window read touching `keys_per_read` random keys
    /// over `window` event-time units (Section 8.2.4).
    pub fn generate_windowed(
        config: &WorkloadConfig,
        count: usize,
        read_period: usize,
        keys_per_read: usize,
        window: Timestamp,
    ) -> Vec<GsEvent> {
        let zipf = Zipf::new(config.key_space, config.zipf_theta, config.seed);
        let mut rng = DetRng::new(config.seed ^ 0x57_1D00);
        (0..count)
            .map(|i| {
                if read_period > 0 && i % read_period == read_period - 1 {
                    GsEvent::WindowSum {
                        keys: zipf.sample_distinct(
                            &mut rng,
                            keys_per_read.min(config.key_space as usize),
                        ),
                        window,
                    }
                } else {
                    GsEvent::Update {
                        target: zipf.sample(&mut rng),
                        sources: vec![],
                        value: rng.next_range(1, 10) as Value,
                        inject_abort: false,
                    }
                }
            })
            .collect()
    }

    /// Generate the non-deterministic variant: `non_det` of the `count`
    /// events resolve their written key with a UDF (Section 8.2.5).
    pub fn generate_non_deterministic(
        config: &WorkloadConfig,
        count: usize,
        non_det: usize,
    ) -> Vec<GsEvent> {
        let zipf = Zipf::new(config.key_space, config.zipf_theta, config.seed);
        let mut rng = DetRng::new(config.seed ^ 0x0D01);
        let stride = if non_det == 0 {
            usize::MAX
        } else {
            count / non_det.max(1) + 1
        };
        (0..count)
            .map(|i| {
                if i % stride == stride - 1 {
                    GsEvent::NonDetSum {
                        seed: rng.next_u64(),
                        read_keys: zipf.sample_distinct(&mut rng, config.states_per_op.max(1)),
                    }
                } else {
                    GsEvent::Update {
                        target: zipf.sample(&mut rng),
                        sources: zipf.sample_distinct(&mut rng, config.states_per_op.max(1)),
                        value: rng.next_range(1, 10) as Value,
                        inject_abort: false,
                    }
                }
            })
            .collect()
    }
}

/// Lazy, deterministic GrepSum event source (see [`GrepSumApp::source`]).
pub struct GsSource {
    zipf: Zipf,
    rng: DetRng,
    states_per_op: usize,
    abort_ratio: f64,
    remaining: usize,
}

impl Iterator for GsSource {
    type Item = GsEvent;

    fn next(&mut self) -> Option<GsEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(GsEvent::Update {
            target: self.zipf.sample(&mut self.rng),
            sources: self.zipf.sample_distinct(&mut self.rng, self.states_per_op),
            value: self.rng.next_range(1, 10) as Value,
            inject_abort: self.rng.next_bool(self.abort_ratio),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl StreamApp for GrepSumApp {
    type Event = GsEvent;
    type Output = Option<Value>;

    fn state_access(&self, event: &GsEvent, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        match event {
            GsEvent::Update {
                target,
                sources,
                value,
                inject_abort,
            } => {
                if *inject_abort {
                    txn.write(self.table, *target, udfs::always_abort());
                } else if sources.is_empty() {
                    txn.write(self.table, *target, udfs::add_delta(*value));
                } else {
                    let params: Vec<StateRef> = sources
                        .iter()
                        .map(|k| StateRef::new(self.table, *k))
                        .collect();
                    let value = *value;
                    txn.write_with_params(
                        self.table,
                        *target,
                        params,
                        Arc::new(move |input: &morphstream::UdfInput| {
                            Ok(morphstream::UdfOutcome::Value(
                                input.params.iter().sum::<Value>() + value,
                            ))
                        }),
                    );
                }
            }
            GsEvent::WindowSum { keys, window } => {
                for key in keys {
                    txn.window_read(self.table, *key, *window, udfs::window_sum());
                }
            }
            GsEvent::NonDetSum { seed, read_keys } => {
                let key_space = self.key_space;
                let seed = *seed;
                let params: Vec<StateRef> = read_keys
                    .iter()
                    .map(|k| StateRef::new(self.table, *k))
                    .collect();
                txn.non_det_write(
                    self.table,
                    Arc::new(move |ts| (seed ^ ts.wrapping_mul(0x9E37_79B9)) % key_space),
                    params,
                    udfs::sum_params(),
                );
            }
        }
    }

    fn post_process(&self, _event: &GsEvent, outcome: &TxnOutcome) -> Option<Value> {
        if outcome.committed {
            outcome.result(0)
        } else {
            None
        }
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.expected_abort_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::{EngineConfig, MorphStream, TxnEngine};

    fn config() -> WorkloadConfig {
        WorkloadConfig::grep_sum()
            .with_key_space(128)
            .with_udf_complexity_us(0)
            .with_txns_per_batch(64)
    }

    #[test]
    fn plain_grepsum_runs_and_commits() {
        let cfg = config();
        let store = StateStore::new();
        let app = GrepSumApp::new(&store, &cfg);
        let events = GrepSumApp::generate(&cfg.with_abort_ratio(0.0), 300);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(4).with_punctuation_interval(64),
        );
        let report = engine.run(events);
        assert_eq!(report.committed, 300);
        assert_eq!(report.aborted, 0);
    }

    #[test]
    fn injected_aborts_show_up_in_the_report() {
        let cfg = config().with_abort_ratio(0.4);
        let store = StateStore::new();
        let app = GrepSumApp::new(&store, &cfg);
        let events = GrepSumApp::generate(&cfg, 300);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(64),
        );
        let report = engine.run(events);
        let ratio = report.aborted as f64 / 300.0;
        assert!(ratio > 0.2 && ratio < 0.6, "abort ratio {ratio}");
    }

    #[test]
    fn windowed_variant_produces_window_reads() {
        let cfg = config();
        let events = GrepSumApp::generate_windowed(&cfg, 100, 10, 3, 50);
        let window_reads = events
            .iter()
            .filter(|e| matches!(e, GsEvent::WindowSum { .. }))
            .count();
        assert_eq!(window_reads, 10);
        let store = StateStore::new();
        let app = GrepSumApp::new(&store, &cfg);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(50),
        );
        let report = engine.run(events);
        assert_eq!(report.committed, 100);
    }

    #[test]
    fn non_deterministic_variant_runs_to_completion() {
        let cfg = config();
        let events = GrepSumApp::generate_non_deterministic(&cfg, 120, 12);
        let nondet = events
            .iter()
            .filter(|e| matches!(e, GsEvent::NonDetSum { .. }))
            .count();
        assert!(nondet >= 10);
        let store = StateStore::new();
        let app = GrepSumApp::new(&store, &cfg);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(4).with_punctuation_interval(60),
        );
        let report = engine.run(events);
        assert_eq!(report.committed, 120);
    }

    #[test]
    fn generators_are_deterministic() {
        let cfg = config();
        assert_eq!(
            GrepSumApp::generate(&cfg, 50),
            GrepSumApp::generate(&cfg, 50)
        );
        assert_eq!(
            GrepSumApp::generate_windowed(&cfg, 50, 5, 2, 10),
            GrepSumApp::generate_windowed(&cfg, 50, 5, 2, 10)
        );
        assert_eq!(
            GrepSumApp::generate_non_deterministic(&cfg, 50, 5),
            GrepSumApp::generate_non_deterministic(&cfg, 50, 5)
        );
    }
}
