//! Real-time Stock Exchange Analysis (SEA) — the second case study of
//! Section 8.6.
//!
//! Turnover-rate analysis joins a stream of quotes with a stream of trades
//! over the same stock id within a sliding window, implemented as a
//! hash-based window join: two shared hash tables (one per stream) are
//! maintained as shared mutable state; every arriving tuple inserts itself
//! into its own table and probes the opposite table for matches inside the
//! window. The original evaluation replays Shanghai Stock Exchange records;
//! this reproduction synthesises quote/trade streams with matched stock ids
//! so the expected number of matches can be computed exactly.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{udfs, StreamApp, TxnBuilder, TxnOutcome, UdfOutcome};
use morphstream_common::rng::DetRng;
use morphstream_common::{TableId, Timestamp, Value};

/// A stock exchange input tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeaEvent {
    /// A quote for `stock`.
    Quote {
        /// Stock id.
        stock: u64,
        /// Quoted price (scaled).
        price: Value,
    },
    /// A trade of `stock`.
    Trade {
        /// Stock id.
        stock: u64,
        /// Traded volume.
        volume: Value,
    },
}

impl SeaEvent {
    /// Stock id of the tuple.
    pub fn stock(&self) -> u64 {
        match self {
            SeaEvent::Quote { stock, .. } | SeaEvent::Trade { stock, .. } => *stock,
        }
    }
}

/// Synthetic quote/trade stream generator.
#[derive(Debug, Clone)]
pub struct SeaGenerator {
    /// Number of tuples to generate.
    pub events: usize,
    /// Number of distinct stocks.
    pub stocks: u64,
    /// Fraction of tuples that are trades (the rest are quotes).
    pub trade_ratio: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SeaGenerator {
    fn default() -> Self {
        Self {
            events: 10_000,
            stocks: 500,
            trade_ratio: 0.5,
            seed: 0x5EA,
        }
    }
}

impl SeaGenerator {
    /// Generate the tuple stream.
    pub fn generate(&self) -> Vec<SeaEvent> {
        let mut rng = DetRng::new(self.seed);
        (0..self.events)
            .map(|_| {
                let stock = rng.next_below(self.stocks);
                if rng.next_bool(self.trade_ratio) {
                    SeaEvent::Trade {
                        stock,
                        volume: rng.next_range(1, 1_000) as Value,
                    }
                } else {
                    SeaEvent::Quote {
                        stock,
                        price: rng.next_range(100, 10_000) as Value,
                    }
                }
            })
            .collect()
    }

    /// Expected number of join matches with an (event-time) window of
    /// `window` tuples: every trade matches the quotes of the same stock that
    /// arrived within the trailing window, and vice versa for quotes probing
    /// trades. Returns the accumulated expected matches after each tuple.
    pub fn expected_accumulated_matches(&self, events: &[SeaEvent], window: Timestamp) -> Vec<u64> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(events.len());
        for (i, event) in events.iter().enumerate() {
            let ts = i as u64 + 1;
            let lo = ts.saturating_sub(window);
            let matches = events[..i]
                .iter()
                .enumerate()
                .filter(|(j, other)| {
                    let other_ts = *j as u64 + 1;
                    other_ts >= lo
                        && other.stock() == event.stock()
                        && matches!(
                            (event, other),
                            (SeaEvent::Trade { .. }, SeaEvent::Quote { .. })
                                | (SeaEvent::Quote { .. }, SeaEvent::Trade { .. })
                        )
                })
                .count() as u64;
            acc += matches;
            out.push(acc);
        }
        out
    }
}

/// The SEA hash-based window-join application.
pub struct SeaApp {
    quotes: TableId,
    trades: TableId,
    /// Sliding window length in event-time units.
    pub window: Timestamp,
}

impl SeaApp {
    /// Create the application and its two hash-table-backed states.
    pub fn new(store: &StateStore, stocks: u64, window: Timestamp) -> Self {
        let quotes = store.create_table("quotes_index", 0, false);
        let trades = store.create_table("trades_index", 0, false);
        store
            .preallocate_range(quotes, stocks)
            .expect("quotes table");
        store
            .preallocate_range(trades, stocks)
            .expect("trades table");
        Self {
            quotes,
            trades,
            window,
        }
    }
}

impl StreamApp for SeaApp {
    type Event = SeaEvent;
    type Output = Value;

    fn state_access(&self, event: &SeaEvent, txn: &mut TxnBuilder) {
        let (own_table, other_table, stock) = match event {
            SeaEvent::Quote { stock, .. } => (self.quotes, self.trades, *stock),
            SeaEvent::Trade { stock, .. } => (self.trades, self.quotes, *stock),
        };
        // Probe the opposite index: how many tuples of this stock arrived in
        // the trailing window? Each arrival appends a version with a positive
        // running counter; the zero-valued seed version of the pre-allocated
        // key is not an arrival and is filtered out.
        txn.window_read(
            other_table,
            stock,
            self.window,
            Arc::new(|input: &morphstream::UdfInput| {
                Ok(UdfOutcome::Value(
                    input.window.iter().filter(|v| **v > 0).count() as Value,
                ))
            }),
        );
        // Insert ourselves into our own index.
        txn.write(own_table, stock, udfs::add_delta(1));
    }

    fn post_process(&self, _event: &SeaEvent, outcome: &TxnOutcome) -> Value {
        if outcome.committed {
            outcome.result(0).unwrap_or(0)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::{EngineConfig, MorphStream, TxnEngine};

    #[test]
    fn generator_mixes_quotes_and_trades_deterministically() {
        let generator = SeaGenerator {
            events: 1_000,
            ..SeaGenerator::default()
        };
        let a = generator.generate();
        let b = generator.generate();
        assert_eq!(a, b);
        let trades = a
            .iter()
            .filter(|e| matches!(e, SeaEvent::Trade { .. }))
            .count();
        assert!((350..650).contains(&trades));
    }

    #[test]
    fn join_matches_track_the_analytical_expectation() {
        let generator = SeaGenerator {
            events: 800,
            stocks: 40,
            ..SeaGenerator::default()
        };
        let events = generator.generate();
        let window: Timestamp = 100;
        let expected = generator.expected_accumulated_matches(&events, window);

        let store = StateStore::new();
        let app = SeaApp::new(&store, generator.stocks, window);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(4)
                .with_punctuation_interval(200)
                .with_reclaim_after_batch(false),
        );
        let report = engine.run(events);
        let actual_total: Value = report.outputs.iter().sum();
        let expected_total = *expected.last().unwrap() as Value;
        // The window in the engine is over event-time versions of the index
        // key; the analytical oracle counts the same pairs, so totals match.
        assert_eq!(actual_total, expected_total);
    }
}
