//! Streaming Ledger (SL): the running example of the paper.
//!
//! Accounts hold balances; deposit transactions credit one account, transfer
//! transactions debit a sender and credit a receiver, aborting when the
//! sender's balance is insufficient (the consistency rule used to tune the
//! abort ratio `a`). State access skew, transaction length, UDF cost, states
//! per operation and batch size follow the knobs of Table 6.

use morphstream::storage::StateStore;
use morphstream::{udfs, StreamApp, TxnBuilder, TxnOutcome};
use morphstream_common::rng::DetRng;
use morphstream_common::zipf::Zipf;
use morphstream_common::{StateRef, TableId, Value, WorkloadConfig};

/// Initial balance seeded into every account.
pub const INITIAL_BALANCE: Value = 1_000_000;

/// A Streaming Ledger input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlEvent {
    /// Credit `amount` to `account`.
    Deposit {
        /// Target account.
        account: u64,
        /// Amount to credit.
        amount: Value,
    },
    /// Move `amount` from `from` to `to`; aborts when `from` has insufficient
    /// funds.
    Transfer {
        /// Debited account.
        from: u64,
        /// Credited account.
        to: u64,
        /// Amount to move.
        amount: Value,
    },
}

/// The Streaming Ledger application.
pub struct StreamingLedgerApp {
    accounts: TableId,
    cost_us: u64,
    expected_abort_ratio: f64,
}

impl StreamingLedgerApp {
    /// Create the application and its `accounts` table on `store`, seeding
    /// `config.key_space` accounts with [`INITIAL_BALANCE`].
    pub fn new(store: &StateStore, config: &WorkloadConfig) -> Self {
        let accounts = store.create_table("accounts", INITIAL_BALANCE, false);
        store
            .preallocate_range(accounts, config.key_space)
            .expect("accounts table exists");
        Self {
            accounts,
            cost_us: config.udf_complexity_us,
            expected_abort_ratio: config.abort_ratio,
        }
    }

    /// Table holding account balances.
    pub fn accounts_table(&self) -> TableId {
        self.accounts
    }

    /// Generate `count` events with `transfer_ratio` transfers (the rest are
    /// deposits) following `config`. Eager variant of
    /// [`StreamingLedgerApp::source`].
    pub fn generate(config: &WorkloadConfig, count: usize, transfer_ratio: f64) -> Vec<SlEvent> {
        Self::source(config, count, transfer_ratio).collect()
    }

    /// Lazily yield the same `count` events as
    /// [`StreamingLedgerApp::generate`], one at a time — suitable for
    /// feeding a pipeline without materialising the stream.
    pub fn source(config: &WorkloadConfig, count: usize, transfer_ratio: f64) -> SlSource {
        SlSource {
            zipf: Zipf::new(config.key_space, config.zipf_theta, config.seed),
            rng: DetRng::new(config.seed ^ 0x51ED_6E5A),
            key_space: config.key_space,
            abort_ratio: config.abort_ratio,
            transfer_ratio,
            remaining: count,
        }
    }

    /// Total money in the ledger.
    pub fn total_balance(&self, store: &StateStore) -> Value {
        store
            .snapshot_latest(self.accounts)
            .expect("accounts table exists")
            .values()
            .sum()
    }
}

/// Lazy, deterministic Streaming Ledger event source (see
/// [`StreamingLedgerApp::source`]).
pub struct SlSource {
    zipf: Zipf,
    rng: DetRng,
    key_space: u64,
    abort_ratio: f64,
    transfer_ratio: f64,
    remaining: usize,
}

impl Iterator for SlSource {
    type Item = SlEvent;

    fn next(&mut self) -> Option<SlEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(if self.rng.next_bool(self.transfer_ratio) {
            let from = self.zipf.sample(&mut self.rng);
            let mut to = self.zipf.sample(&mut self.rng);
            if to == from {
                to = (to + 1) % self.key_space;
            }
            // An aborting transaction asks for more money than any account
            // can hold, violating the non-negative balance rule.
            let amount = if self.rng.next_bool(self.abort_ratio) {
                INITIAL_BALANCE * 1_000
            } else {
                self.rng.next_range(1, 100) as Value
            };
            SlEvent::Transfer { from, to, amount }
        } else {
            SlEvent::Deposit {
                account: self.zipf.sample(&mut self.rng),
                amount: self.rng.next_range(1, 100) as Value,
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl StreamApp for StreamingLedgerApp {
    type Event = SlEvent;
    type Output = bool;

    fn state_access(&self, event: &SlEvent, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        match event {
            SlEvent::Deposit { account, amount } => {
                txn.write(self.accounts, *account, udfs::add_delta(*amount));
            }
            SlEvent::Transfer { from, to, amount } => {
                txn.write(self.accounts, *from, udfs::withdraw(*amount));
                txn.write_with_params(
                    self.accounts,
                    *to,
                    vec![StateRef::new(self.accounts, *from)],
                    udfs::credit_if_param_at_least(*amount, *amount),
                );
            }
        }
    }

    fn post_process(&self, _event: &SlEvent, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.expected_abort_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::{EngineConfig, MorphStream, TxnEngine};

    fn small_config() -> WorkloadConfig {
        WorkloadConfig::streaming_ledger()
            .with_key_space(256)
            .with_txns_per_batch(128)
            .with_udf_complexity_us(0)
    }

    #[test]
    fn generator_respects_transfer_ratio_and_determinism() {
        let config = small_config();
        let a = StreamingLedgerApp::generate(&config, 1000, 0.5);
        let b = StreamingLedgerApp::generate(&config, 1000, 0.5);
        assert_eq!(a, b, "same seed must produce the same events");
        let transfers = a
            .iter()
            .filter(|e| matches!(e, SlEvent::Transfer { .. }))
            .count();
        assert!((300..700).contains(&transfers));
    }

    #[test]
    fn source_size_hint_tracks_consumption() {
        let mut source = StreamingLedgerApp::source(&small_config(), 10, 0.5);
        assert_eq!(source.size_hint(), (10, Some(10)));
        source.next();
        assert_eq!(source.size_hint(), (9, Some(9)));
        assert_eq!(source.by_ref().count(), 9);
        assert_eq!(source.size_hint(), (0, Some(0)));
        assert!(source.next().is_none());
    }

    #[test]
    fn money_is_conserved_under_morphstream() {
        let config = small_config();
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let accounts = app.accounts_table();
        let events = StreamingLedgerApp::generate(&config, 500, 0.6);
        let deposited: Value = events
            .iter()
            .filter_map(|e| match e {
                SlEvent::Deposit { amount, .. } => Some(*amount),
                _ => None,
            })
            .sum();
        let mut engine = MorphStream::new(
            app,
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(config.txns_per_batch),
        );
        let report = engine.run(events);
        assert_eq!(report.events(), 500);
        let total: Value = store.snapshot_latest(accounts).unwrap().values().sum();
        // Committed deposits add money, transfers conserve it. Deposits never
        // abort in SL, so the expected total is exact.
        assert_eq!(total, 256 * INITIAL_BALANCE + deposited);
    }

    #[test]
    fn abort_ratio_injects_failing_transfers() {
        let config = small_config().with_abort_ratio(0.5);
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let events = StreamingLedgerApp::generate(&config, 400, 1.0);
        let mut engine = MorphStream::new(
            app,
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let report = engine.run(events);
        let ratio = report.aborted as f64 / 400.0;
        assert!(ratio > 0.3 && ratio < 0.7, "observed abort ratio {ratio}");
    }
}
