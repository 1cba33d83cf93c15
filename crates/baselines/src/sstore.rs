//! S-Store reconstruction (Section 2.2).
//!
//! S-Store partitions the shared mutable state and schedules *whole state
//! transactions*: transactions touching the same partition are executed
//! serially in timestamp order, and operations inside a transaction run
//! serially as well. This preserves every dependency type trivially and makes
//! aborts cheap, at the price of very limited parallelism whenever
//! transactions overlap.
//!
//! The reconstruction reuses the TPG planner for dependency information but
//! partitions the graph into *transaction-granularity* units with additional
//! partition-level conflict edges
//! ([`SchedulingUnits::by_partitioned_transaction`]), then executes them with
//! the non-structured driver and eager aborts. Everything around the batch
//! is MorphStream's own punctuation path ([`SStore::engine`]).

use std::sync::Arc;
use std::time::Instant;

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, BatchExecutor, EngineConfig, ExecutedBatch, ExplorationStrategy, Granularity,
    MorphStream, SchedulingDecision, StreamApp,
};
use morphstream_executor::execute_batch_with_units;
use morphstream_tpg::{SchedulingUnits, TpgBuilder, TransactionBatch};

/// S-Store's one way to run a batch: whole transactions, dispatched as
/// their partitions free up, aborts resolved as they happen.
pub(crate) const DECISION: SchedulingDecision = SchedulingDecision {
    exploration: ExplorationStrategy::NonStructured,
    granularity: Granularity::Coarse,
    abort_handling: AbortHandling::Eager,
};

/// The S-Store batch executor: whole transactions scheduled per state
/// partition, planned by a serial TPG builder.
pub struct SStore {
    planner: TpgBuilder,
}

impl SStore {
    /// A MorphStream engine for `app` over `store` that runs every batch the
    /// S-Store way.
    pub fn engine<A: StreamApp>(app: A, store: StateStore, config: EngineConfig) -> MorphStream<A> {
        MorphStream::new(app, store, config).with_executor(SStore {
            planner: TpgBuilder::new(),
        })
    }
}

impl BatchExecutor for SStore {
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch {
        let plan_started = Instant::now();
        let tpg = Arc::new(self.planner.build(batch));
        let plan = plan_started.elapsed();
        // One state partition per worker, as in the original system where
        // each partition is owned by one site.
        let units = SchedulingUnits::by_partitioned_transaction(&tpg, threads.max(1));
        let report = execute_batch_with_units(tpg, units, DECISION, store, threads);
        ExecutedBatch {
            outcomes: report.outcomes,
            breakdown: report.breakdown,
            redone_ops: report.redone_ops,
            plan,
            decision: Some(DECISION),
            coarse_unit_builds: 0,
            workers: threads.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::udfs;
    use morphstream::{TxnBuilder, TxnEngine};
    use morphstream_common::{StateRef, TableId, Value};
    use morphstream_executor::TxnOutcome;

    struct Transfers {
        accounts: TableId,
    }

    impl StreamApp for Transfers {
        type Event = (u64, u64, Value);
        type Output = bool;

        fn state_access(&self, (from, to, amount): &(u64, u64, Value), txn: &mut TxnBuilder) {
            txn.write(self.accounts, *from, udfs::withdraw(*amount));
            txn.write_with_params(
                self.accounts,
                *to,
                vec![StateRef::new(self.accounts, *from)],
                udfs::credit_if_param_at_least(*amount, *amount),
            );
        }

        fn post_process(&self, _e: &(u64, u64, Value), outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    #[test]
    fn sstore_preserves_total_balance_under_transfers() {
        let store = StateStore::new();
        let accounts = store.create_table("accounts", 1_000, false);
        store.preallocate_range(accounts, 32).unwrap();
        let mut engine = SStore::engine(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(64),
        );
        let events: Vec<(u64, u64, Value)> =
            (0..200).map(|i| (i % 32, (i * 7 + 1) % 32, 5)).collect();
        let report = engine.run(events);
        assert_eq!(report.events(), 200);
        let total: Value = store.snapshot_latest(accounts).unwrap().values().sum();
        assert_eq!(total, 32 * 1_000);
        assert!(report.k_events_per_second() > 0.0);
    }
}
