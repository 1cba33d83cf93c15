//! Conventional SPE with external shared state — the Flink + Redis stand-in
//! of Figure 11.
//!
//! Conventional stream processing engines have no built-in shared mutable
//! state, so the common workaround (and the paper's comparison point) is to
//! keep the state in an external store and guard multi-key updates with a
//! distributed lock. That architecture pays two costs on every state access:
//! a network round trip and, when correctness matters, global lock
//! contention. This module models both: every state access spins for
//! `remote_state_latency_us` (the emulated round trip) and, in the
//! `with_locks` configuration, the whole transaction holds a global mutex.
//! Disabling the lock recovers some throughput but allows lost updates —
//! exactly the correctness problem Section 8.2.1 points out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use morphstream::storage::StateStore;
use morphstream::{BatchHook, EngineConfig, RunReport, StreamApp, TxnEngine, TxnOutcome};
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_common::{AbortReason, Timestamp};
use morphstream_tpg::{AccessKind, Transaction, UdfInput, UdfOutcome};

use crate::harness::{ExecutedBatch, IngestState};

/// The conventional-SPE baseline engine.
pub struct LockedSpeEngine<A: StreamApp> {
    app: A,
    store: StateStore,
    config: EngineConfig,
    with_locks: bool,
    /// Execution-order clock shared by every batch of the engine's lifetime;
    /// it starts far above any event timestamp so the newest write of the
    /// external store always wins over event-time versions.
    exec_clock: Arc<std::sync::atomic::AtomicU64>,
    state: IngestState<A>,
}

impl<A: StreamApp> LockedSpeEngine<A> {
    /// Engine that guards every transaction with a global lock (correct but
    /// slow).
    pub fn with_locks(app: A, store: StateStore, config: EngineConfig) -> Self {
        Self::new(app, store, config, true)
    }

    /// Engine without locking (fast but incorrect under contention).
    pub fn without_locks(app: A, store: StateStore, config: EngineConfig) -> Self {
        Self::new(app, store, config, false)
    }

    fn new(app: A, store: StateStore, config: EngineConfig, with_locks: bool) -> Self {
        Self {
            app,
            store,
            config,
            with_locks,
            exec_clock: Arc::new(std::sync::atomic::AtomicU64::new(1 << 32)),
            state: IngestState::new(),
        }
    }

    /// Shared state store handle.
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Batch executor: round-robin workers against the latest state values,
    /// optionally under the global lock.
    fn execute(
        &self,
    ) -> impl FnMut(morphstream_tpg::TransactionBatch, &StateStore, usize) -> ExecutedBatch {
        let with_locks = self.with_locks;
        let remote_latency = Duration::from_micros(self.config.remote_state_latency_us);
        let exec_clock = self.exec_clock.clone();
        move |batch, store, threads| {
            execute_locked_batch(
                batch.into_sorted(),
                store,
                threads,
                with_locks,
                remote_latency,
                &exec_clock,
            )
        }
    }
}

impl<A: StreamApp> TxnEngine for LockedSpeEngine<A> {
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
        let execute = self.execute();
        self.state
            .flush(&self.app, &self.store, &self.config, execute);
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

/// Execute a batch the conventional-SPE way: events are spread round-robin
/// over the workers and each transaction runs its operations one by one
/// against the *latest* value of every state (no multi-versioning, no
/// dependency tracking).
fn execute_locked_batch(
    txns: Vec<Transaction>,
    store: &StateStore,
    threads: usize,
    with_locks: bool,
    remote_latency: Duration,
    exec_clock: &Arc<std::sync::atomic::AtomicU64>,
) -> ExecutedBatch {
    let n = txns.len();
    let global_lock = Mutex::new(());
    let outcomes: Vec<Mutex<Option<TxnOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next_writer = AtomicUsize::new(0);
    let txns = Arc::new(txns);

    let partials: Vec<Breakdown> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let txns = txns.clone();
            let outcomes = &outcomes;
            let global_lock = &global_lock;
            let next_writer = &next_writer;
            let exec_clock = exec_clock.clone();
            handles.push(scope.spawn(move || {
                let mut breakdown = Breakdown::new();
                for (txn_idx, txn) in txns.iter().enumerate().skip(worker).step_by(threads) {
                    let lock_wait = Instant::now();
                    let guard = if with_locks {
                        Some(global_lock.lock())
                    } else {
                        None
                    };
                    breakdown.add(BreakdownBucket::Lock, lock_wait.elapsed());

                    let useful = Instant::now();
                    let outcome = run_transaction(
                        txn_idx,
                        txn,
                        store,
                        remote_latency,
                        next_writer,
                        &exec_clock,
                    );
                    breakdown.add(BreakdownBucket::Useful, useful.elapsed());
                    drop(guard);
                    *outcomes[txn_idx].lock() = Some(outcome);
                }
                breakdown
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("locked-SPE worker panicked"))
            .collect()
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
    }
}

fn run_transaction(
    txn_idx: usize,
    txn: &Transaction,
    store: &StateStore,
    remote_latency: Duration,
    next_writer: &AtomicUsize,
    exec_clock: &std::sync::atomic::AtomicU64,
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

/// Timestamp type re-exported for documentation completeness.
#[allow(dead_code)]
type Ts = Timestamp;

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::udfs;
    use morphstream::TxnBuilder;
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
        let mut engine = LockedSpeEngine::with_locks(
            Counter { table },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(100),
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
        let mut engine = LockedSpeEngine::without_locks(
            Counter { table },
            store.clone(),
            EngineConfig::with_threads(8).with_punctuation_interval(2_000),
        );
        let report = engine.run(0..2_000);
        assert_eq!(report.events(), 2_000);
        let total: Value = store.snapshot_latest(table).unwrap().values().sum();
        assert!(total <= 2_000);
    }

    #[test]
    fn remote_latency_slows_processing_down() {
        let (store, table) = setup();
        let mut fast = LockedSpeEngine::with_locks(
            Counter { table },
            store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let fast_report = fast.run(0..100);

        let (store2, table2) = setup();
        let mut slow_config = EngineConfig::with_threads(2).with_punctuation_interval(100);
        slow_config.remote_state_latency_us = 200;
        let mut slow = LockedSpeEngine::with_locks(Counter { table: table2 }, store2, slow_config);
        let slow_report = slow.run(0..100);

        assert!(
            slow_report.throughput.elapsed > fast_report.throughput.elapsed,
            "simulated round trips must add processing time"
        );
    }
}
