//! Conventional SPE with external shared state — the Flink + Redis stand-in
//! of Figure 11.
//!
//! Conventional stream processing engines have no built-in shared mutable
//! state, so the common workaround (and the paper's comparison point) is to
//! keep the state in an external store and guard multi-key updates with a
//! distributed lock. That architecture pays two costs on every state access:
//! a network round trip and, when correctness matters, global lock
//! contention. This module models both: every state access spins for the
//! emulated round trip and, in the `with_locks` configuration, the whole
//! transaction holds a global mutex. Disabling the lock recovers some
//! throughput but allows lost updates — exactly the correctness problem
//! Section 8.2.1 points out. The executor builds no TPG and takes no
//! scheduling decision; everything around the batch is MorphStream's own
//! punctuation path ([`LockedSpe::with_locks`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use morphstream::storage::StateStore;
use morphstream::{BatchExecutor, EngineConfig, ExecutedBatch, MorphStream, StreamApp, TxnOutcome};
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_common::{fan_out, AbortReason};
use morphstream_tpg::{AccessKind, Transaction, TransactionBatch, UdfInput, UdfOutcome};

/// The conventional-SPE batch executor: round-robin workers against the
/// latest state values, optionally under one global lock. The calling thread
/// is worker 0, so a one-worker batch spawns no thread.
pub struct LockedSpe {
    /// Whether every transaction holds the global lock.
    locks: bool,
    /// Emulated network round trip per state access.
    remote_latency: Duration,
    /// Execution-order clock shared by every batch of the engine's lifetime;
    /// it starts far above any event timestamp so the newest write of the
    /// external store always wins over event-time versions.
    exec_clock: AtomicU64,
}

impl LockedSpe {
    /// A MorphStream engine for `app` over `store` that guards every
    /// transaction with a global lock (correct but slow), paying
    /// `remote_latency` per state access.
    pub fn with_locks<A: StreamApp>(
        app: A,
        store: StateStore,
        config: EngineConfig,
        remote_latency: Duration,
    ) -> MorphStream<A> {
        Self::engine(app, store, config, true, remote_latency)
    }

    /// As [`LockedSpe::with_locks`], without locking (fast but incorrect
    /// under contention).
    pub fn without_locks<A: StreamApp>(
        app: A,
        store: StateStore,
        config: EngineConfig,
        remote_latency: Duration,
    ) -> MorphStream<A> {
        Self::engine(app, store, config, false, remote_latency)
    }

    fn engine<A: StreamApp>(
        app: A,
        store: StateStore,
        config: EngineConfig,
        locks: bool,
        remote_latency: Duration,
    ) -> MorphStream<A> {
        MorphStream::new(app, store, config).with_executor(LockedSpe {
            locks,
            remote_latency,
            exec_clock: AtomicU64::new(1 << 32),
        })
    }
}

impl BatchExecutor for LockedSpe {
    /// Execute a batch the conventional-SPE way: events are spread
    /// round-robin over the workers and each transaction runs its operations
    /// one by one against the *latest* value of every state (no
    /// multi-versioning, no dependency tracking).
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch {
        let txns = batch.into_sorted();
        let global_lock = Mutex::new(());
        let outcomes: Vec<Mutex<Option<TxnOutcome>>> =
            txns.iter().map(|_| Mutex::new(None)).collect();
        let next_writer = AtomicUsize::new(0);
        let (locks, remote_latency, exec_clock) =
            (self.locks, self.remote_latency, &self.exec_clock);

        let partials = fan_out(threads, |worker| {
            let mut breakdown = Breakdown::new();
            for (txn_idx, txn) in txns.iter().enumerate().skip(worker).step_by(threads) {
                let lock_wait = Instant::now();
                let guard = locks.then(|| global_lock.lock());
                breakdown.add(BreakdownBucket::Lock, lock_wait.elapsed());

                let useful = Instant::now();
                let outcome = run_transaction(
                    txn_idx,
                    txn,
                    store,
                    remote_latency,
                    &next_writer,
                    exec_clock,
                );
                breakdown.add(BreakdownBucket::Useful, useful.elapsed());
                drop(guard);
                *outcomes[txn_idx].lock() = Some(outcome);
            }
            breakdown
        });

        let mut breakdown = Breakdown::new();
        for partial in partials {
            breakdown.merge(&partial);
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| {
                o.into_inner()
                    .expect("every transaction produced an outcome")
            })
            .collect();
        ExecutedBatch {
            outcomes,
            breakdown,
            redone_ops: 0,
            plan: Duration::ZERO,
            decision: None,
            coarse_unit_builds: 0,
            workers: threads.max(1),
        }
    }
}

fn run_transaction(
    txn_idx: usize,
    txn: &Transaction,
    store: &StateStore,
    remote_latency: Duration,
    next_writer: &AtomicUsize,
    exec_clock: &AtomicU64,
) -> TxnOutcome {
    let mut op_results = Vec::with_capacity(txn.ops.len());
    let mut written: Vec<(
        morphstream_common::TableId,
        morphstream_common::Key,
        u64,
        u64,
    )> = Vec::new();
    let mut abort_reason: Option<AbortReason> = None;

    for (stmt, spec) in txn.ops.iter().enumerate() {
        if abort_reason.is_some() {
            op_results.push((stmt, None));
            continue;
        }
        let key = spec.target.resolve(txn.ts);
        emulate_round_trip(remote_latency);
        let target = store.read_latest(spec.table, key).unwrap_or_default();
        let mut params = Vec::with_capacity(spec.params.len());
        for p in &spec.params {
            emulate_round_trip(remote_latency);
            params.push(store.read_latest(p.table, p.key).unwrap_or_default());
        }
        let window = match (spec.window, spec.kind) {
            (Some(w), AccessKind::WindowRead) => store
                .window_values(spec.table, key, txn.ts.saturating_sub(w), txn.ts)
                .unwrap_or_default(),
            (Some(w), AccessKind::WindowWrite) => {
                let mut all = Vec::new();
                for p in &spec.params {
                    all.extend(
                        store
                            .window_values(p.table, p.key, txn.ts.saturating_sub(w), txn.ts)
                            .unwrap_or_default(),
                    );
                }
                all
            }
            _ => Vec::new(),
        };
        if spec.cost_us > 0 {
            let deadline = Instant::now() + Duration::from_micros(spec.cost_us);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
        let input = UdfInput {
            target,
            params,
            window,
            ts: txn.ts,
        };
        let outcome = match &spec.udf {
            Some(udf) => udf(&input),
            None => Ok(UdfOutcome::Unchanged),
        };
        match outcome {
            Ok(UdfOutcome::Value(v)) => {
                if spec.kind.is_write() {
                    emulate_round_trip(remote_latency);
                    let writer = u64::MAX / 2 + next_writer.fetch_add(1, Ordering::Relaxed) as u64;
                    let exec_ts = exec_clock.fetch_add(1, Ordering::Relaxed);
                    let _ = store.write(spec.table, key, exec_ts, stmt as u32, writer, v);
                    written.push((spec.table, key, writer, exec_ts));
                }
                op_results.push((stmt, Some(v)));
            }
            Ok(UdfOutcome::Unchanged) => op_results.push((stmt, Some(input.target))),
            Err(reason) => {
                abort_reason = Some(reason);
                op_results.push((stmt, None));
            }
        }
    }

    if abort_reason.is_some() {
        // Roll the transaction's writes back, as the distributed-transaction
        // wrapper around the external store would. The rollback is scoped to
        // the exact (writer, ts) of each write: writer ids restart per batch,
        // so an unscoped rollback could delete a version that survived from
        // an earlier batch under a recycled id.
        for (table, key, writer, exec_ts) in written {
            let _ = store.rollback_writer_at(table, key, writer, exec_ts);
        }
    }

    TxnOutcome {
        txn: txn_idx,
        committed: abort_reason.is_none(),
        abort_reason,
        op_results: op_results.into_iter().collect(),
    }
}

#[inline]
fn emulate_round_trip(latency: Duration) {
    if latency.is_zero() {
        return;
    }
    let deadline = Instant::now() + latency;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::udfs;
    use morphstream::{TxnBuilder, TxnEngine};
    use morphstream_common::{TableId, Value};

    struct Counter {
        table: TableId,
    }

    impl StreamApp for Counter {
        type Event = u64;
        type Output = bool;

        fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
            txn.write(self.table, event % 4, udfs::add_delta(1));
        }

        fn post_process(&self, _e: &u64, outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    fn setup() -> (StateStore, TableId) {
        let store = StateStore::new();
        let table = store.create_table("counters", 0, false);
        store.preallocate_range(table, 4).unwrap();
        (store, table)
    }

    #[test]
    fn locked_variant_is_correct_under_contention() {
        let (store, table) = setup();
        let mut engine = LockedSpe::with_locks(
            Counter { table },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(100),
            Duration::ZERO,
        );
        let report = engine.run(0..400);
        assert_eq!(report.committed, 400);
        let total: Value = store.snapshot_latest(table).unwrap().values().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn unlocked_variant_loses_updates_under_contention() {
        // All events hammer the same 4 keys from 8 threads without any
        // synchronisation: read-modify-write races lose increments. The test
        // only asserts the total never exceeds the correct value and the
        // engine still reports the events processed (it cannot detect its own
        // incorrectness — that is the point of Figure 11's caveat).
        let (store, table) = setup();
        let mut engine = LockedSpe::without_locks(
            Counter { table },
            store.clone(),
            EngineConfig::with_threads(8).with_punctuation_interval(2_000),
            Duration::ZERO,
        );
        let report = engine.run(0..2_000);
        assert_eq!(report.events(), 2_000);
        let total: Value = store.snapshot_latest(table).unwrap().values().sum();
        assert!(total <= 2_000);
    }

    #[test]
    fn remote_latency_slows_processing_down() {
        let config = EngineConfig::with_threads(2).with_punctuation_interval(100);
        let (store, table) = setup();
        let mut fast = LockedSpe::with_locks(Counter { table }, store, config, Duration::ZERO);
        let fast_report = fast.run(0..100);

        let (store2, table2) = setup();
        let mut slow = LockedSpe::with_locks(
            Counter { table: table2 },
            store2,
            config,
            Duration::from_micros(200),
        );
        let slow_report = slow.run(0..100);

        assert!(
            slow_report.throughput.elapsed > fast_report.throughput.elapsed,
            "simulated round trips must add processing time"
        );
    }
}
