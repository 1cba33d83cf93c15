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
//! the non-structured driver and eager aborts.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, BatchHook, EngineConfig, ExplorationStrategy, Granularity, RunReport,
    SchedulingDecision, StreamApp, TxnEngine,
};
use morphstream_executor::execute_batch_with_units;
use morphstream_tpg::{SchedulingUnits, TpgBuilder, TransactionBatch};

use crate::harness::{ExecutedBatch, IngestState};

/// The S-Store baseline engine.
pub struct SStoreEngine<A: StreamApp> {
    app: A,
    store: StateStore,
    config: EngineConfig,
    /// Number of state partitions; defaults to the worker-thread count, as in
    /// the original system where each partition is owned by one site.
    num_partitions: usize,
    state: IngestState<A>,
}

impl<A: StreamApp> SStoreEngine<A> {
    /// Create an S-Store engine for `app` over `store`.
    pub fn new(app: A, store: StateStore, config: EngineConfig) -> Self {
        let num_partitions = config.num_threads.max(1);
        Self {
            app,
            store,
            config,
            num_partitions,
            state: IngestState::new(),
        }
    }

    /// Override the number of state partitions.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.num_partitions = partitions.max(1);
        self
    }

    /// Shared state store handle.
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Batch executor: whole transactions scheduled per state partition.
    fn execute(
        num_partitions: usize,
    ) -> impl FnMut(TransactionBatch, &StateStore, usize) -> ExecutedBatch {
        let decision = SchedulingDecision {
            exploration: ExplorationStrategy::NonStructured,
            granularity: Granularity::Coarse,
            abort_handling: AbortHandling::Eager,
        };
        let planner = TpgBuilder::new();
        move |batch, store, threads| {
            let tpg = Arc::new(planner.build(batch));
            let units = SchedulingUnits::by_partitioned_transaction(&tpg, num_partitions);
            let report = execute_batch_with_units(tpg, units, decision, store, threads);
            ExecutedBatch {
                redone_ops: report.redone_ops,
                breakdown: report.breakdown.clone(),
                outcomes: report.outcomes,
            }
        }
    }
}

impl<A: StreamApp> TxnEngine for SStoreEngine<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn ingest(&mut self, event: A::Event) {
        // Plain buffer push per event; the executor is only built when the
        // punctuation interval is crossed and a batch must be cut.
        if self.state.buffer_event(event, &self.config) {
            TxnEngine::flush(self);
        }
    }

    fn flush(&mut self) {
        self.state.flush(
            &self.app,
            &self.store,
            &self.config,
            Self::execute(self.num_partitions),
        );
    }

    fn finish(&mut self) -> RunReport<A::Output> {
        TxnEngine::flush(self);
        self.state.finish()
    }

    fn report(&self) -> &RunReport<A::Output> {
        self.state.report()
    }

    fn set_batch_hook(&mut self, hook: Option<BatchHook>) {
        self.state.set_batch_hook(hook);
    }

    fn set_output_sink(&mut self, sink: Option<morphstream::OutputSink<A::Output>>) {
        self.state.set_output_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::udfs;
    use morphstream::TxnBuilder;
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
        let mut engine = SStoreEngine::new(
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

    #[test]
    fn partition_override_is_respected() {
        let store = StateStore::new();
        let accounts = store.create_table("accounts", 100, false);
        store.preallocate_range(accounts, 8).unwrap();
        let engine =
            SStoreEngine::new(Transfers { accounts }, store, EngineConfig::with_threads(2))
                .with_partitions(1);
        assert_eq!(engine.num_partitions, 1);
    }
}
