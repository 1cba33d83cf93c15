//! TStream reconstruction (Section 2.2).
//!
//! TStream decomposes transactions into atomic operations, groups operations
//! targeting the same state into timestamp-sorted *operation chains*, and
//! executes the chains in parallel; chains wait (busy-wait) on unresolved
//! parametric dependencies. Logical dependencies are ignored during
//! execution: aborts are only handled after the whole batch has been
//! processed, and the system then re-processes the batch, which is the source
//! of its large abort overhead (Figures 12 and 16a).
//!
//! The reconstruction maps this to coarse (per-key) units explored with the
//! structured DFS driver (spin-waiting on dependencies, like TStream's
//! blocking) and lazy abort handling: MorphStream's planned path
//! ([`ExecutedBatch::planned`]) under that one fixed decision, with a
//! one-shard planner. When any transaction aborted, the wasted
//! re-processing of the batch is emulated by re-spinning the execution time
//! once, mirroring the whole-batch redo. At one thread there is nothing to
//! run in parallel: the batch plans no graph and builds no chains, and its
//! transactions run one at a time in timestamp order
//! ([`ExecutedBatch::serial`]), still paying the redo penalty when one
//! aborted. Everything around the batch is MorphStream's own punctuation
//! path ([`TStream::engine`]).

use std::time::Instant;

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, BatchExecutor, EngineConfig, ExecutedBatch, ExplorationStrategy, Granularity,
    MorphStream, SchedulingDecision, StreamApp,
};
use morphstream_common::metrics::BreakdownBucket;
use morphstream_common::spin_for;
use morphstream_tpg::{TpgBuilder, TransactionBatch};

/// TStream's one way to run a batch: depth-first over per-key operation
/// chains, aborts resolved once the batch is done.
pub(crate) const DECISION: SchedulingDecision = SchedulingDecision {
    exploration: ExplorationStrategy::StructuredDfs,
    granularity: Granularity::Coarse,
    abort_handling: AbortHandling::Lazy,
};

/// The TStream batch executor: per-key operation chains with lazy aborts and
/// the whole-batch redo penalty, planned by a serial TPG builder.
pub struct TStream {
    planner: TpgBuilder,
}

impl TStream {
    /// A MorphStream engine for `app` over `store` that runs every batch the
    /// TStream way.
    pub fn engine<A: StreamApp>(app: A, store: StateStore, config: EngineConfig) -> MorphStream<A> {
        MorphStream::new(app, store, config).with_executor(TStream {
            planner: TpgBuilder::new(),
        })
    }
}

impl BatchExecutor for TStream {
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch {
        let started = Instant::now();
        let mut executed = if threads <= 1 {
            ExecutedBatch::serial(batch, store, Some(DECISION))
        } else {
            ExecutedBatch::planned(&self.planner, batch, store, threads, Some(DECISION))
        };
        let execute_elapsed = started.elapsed().saturating_sub(executed.plan);
        if executed.outcomes.iter().any(|o| !o.committed) {
            // TStream redoes the entire batch once aborts are discovered;
            // emulate the wasted wall-clock time of that redo.
            spin_for(execute_elapsed);
            executed
                .breakdown
                .add(BreakdownBucket::Abort, execute_elapsed);
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::udfs;
    use morphstream::TxnOutcome;
    use morphstream::{TxnBuilder, TxnEngine};
    use morphstream_common::{TableId, Value};

    struct Deposits {
        accounts: TableId,
        abort_every: u64,
    }

    impl StreamApp for Deposits {
        type Event = u64;
        type Output = bool;

        fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
            if self.abort_every > 0 && event.is_multiple_of(self.abort_every) {
                txn.write(self.accounts, event % 16, udfs::always_abort());
            } else {
                txn.write(self.accounts, event % 16, udfs::add_delta(10));
            }
        }

        fn post_process(&self, _e: &u64, outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    fn setup() -> (StateStore, TableId) {
        let store = StateStore::new();
        let accounts = store.create_table("accounts", 0, false);
        store.preallocate_range(accounts, 16).unwrap();
        (store, accounts)
    }

    #[test]
    fn tstream_commits_clean_workloads() {
        let (store, accounts) = setup();
        let mut engine = TStream::engine(
            Deposits {
                accounts,
                abort_every: 0,
            },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(50),
        );
        let report = engine.run(1..=200);
        assert_eq!(report.committed, 200);
        let total: Value = store.snapshot_latest(accounts).unwrap().values().sum();
        assert_eq!(total, 200 * 10);
    }

    #[test]
    fn aborts_trigger_batch_redo_penalty() {
        let (store, accounts) = setup();
        let clean_events: Vec<u64> = (1..=200).collect();
        let mut clean_engine = TStream::engine(
            Deposits {
                accounts,
                abort_every: 0,
            },
            store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let clean = clean_engine.run(clean_events.clone());

        let (store2, accounts2) = setup();
        let mut aborty_engine = TStream::engine(
            Deposits {
                accounts: accounts2,
                abort_every: 4,
            },
            store2,
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let aborty = aborty_engine.run(clean_events);
        assert!(aborty.aborted > 0);
        assert!(clean.aborted == 0);
        // the redo penalty shows up in the abort bucket of the breakdown
        assert!(
            aborty.breakdown.get(BreakdownBucket::Abort)
                > clean.breakdown.get(BreakdownBucket::Abort)
        );
    }
}
