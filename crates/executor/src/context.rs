//! Shared execution context: per-operation finite state machines, result
//! storage, and abort/rollback/redo handling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_common::{AbortReason, Key, OpId, TxnId, Value};
use morphstream_scheduler::{AbortHandling, SchedulingDecision};
use morphstream_storage::StateStore;
use morphstream_tpg::{AccessKind, Tpg, UdfInput, UdfOutcome};

use crate::report::{BatchReport, TxnOutcome};

/// Execution state of a TPG vertex (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Not ready to schedule: unresolved dependencies.
    Blocked,
    /// Ready to schedule.
    Ready,
    /// Successfully processed.
    Executed,
    /// Aborted (its own failure or a logically dependent failure).
    Aborted,
}

#[derive(Debug)]
struct OpRuntime {
    state: OpState,
    /// Key the operation actually touched (needed to roll back
    /// non-deterministic accesses, Section 6.5.2).
    resolved_key: Option<Key>,
    /// Whether a version was appended to the state table.
    wrote: bool,
    /// Result value (read value or written value).
    result: Option<Value>,
}

impl Default for OpRuntime {
    fn default() -> Self {
        Self {
            state: OpState::Blocked,
            resolved_key: None,
            wrote: false,
            result: None,
        }
    }
}

/// Shared execution context for one batch.
pub struct ExecContext {
    tpg: Arc<Tpg>,
    store: StateStore,
    abort_mode: AbortHandling,
    runtime: Vec<Mutex<OpRuntime>>,
    in_flight: Vec<AtomicBool>,
    dirty: Vec<AtomicBool>,
    txn_aborted: Vec<AtomicBool>,
    txn_reasons: Mutex<HashMap<TxnId, AbortReason>>,
    /// Failures logged for lazy abort handling.
    failures: Mutex<Vec<(OpId, AbortReason)>>,
    /// Global abort coordinator: abort propagation, rollback and redo run
    /// under this lock so they never race with each other.
    coordinator: Mutex<()>,
    udf_evaluations: AtomicUsize,
    redone_ops: AtomicUsize,
}

impl ExecContext {
    /// Create the context for one batch.
    pub fn new(tpg: Arc<Tpg>, store: StateStore, abort_mode: AbortHandling) -> Self {
        let n = tpg.num_ops();
        let t = tpg.num_txns();
        Self {
            tpg,
            store,
            abort_mode,
            runtime: (0..n).map(|_| Mutex::new(OpRuntime::default())).collect(),
            in_flight: (0..n).map(|_| AtomicBool::new(false)).collect(),
            dirty: (0..n).map(|_| AtomicBool::new(false)).collect(),
            txn_aborted: (0..t).map(|_| AtomicBool::new(false)).collect(),
            txn_reasons: Mutex::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
            coordinator: Mutex::new(()),
            udf_evaluations: AtomicUsize::new(0),
            redone_ops: AtomicUsize::new(0),
        }
    }

    /// The TPG being executed.
    pub fn tpg(&self) -> &Tpg {
        &self.tpg
    }

    /// State of an operation.
    pub fn op_state(&self, op: OpId) -> OpState {
        self.runtime[op].lock().state
    }

    /// Whether the operation reached a terminal state (executed or aborted).
    pub fn op_settled(&self, op: OpId) -> bool {
        matches!(self.op_state(op), OpState::Executed | OpState::Aborted)
    }

    /// Whether the transaction has been marked aborted.
    pub fn txn_aborted(&self, txn: TxnId) -> bool {
        self.txn_aborted[txn].load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------
    // Operation execution
    // ------------------------------------------------------------------

    /// Run one operation: mark it ready, evaluate its UDF against the
    /// multi-version store, append the produced version, and settle its FSM
    /// state. On failure the abort-handling mechanism configured for the
    /// batch is applied.
    pub fn run_op(&self, op: OpId, breakdown: &mut Breakdown) {
        let txn = self.tpg.op(op).txn;

        // Under eager aborts, a transaction known to be aborted poisons all of
        // its remaining operations immediately (LD propagation).
        if self.abort_mode == AbortHandling::Eager && self.txn_aborted(txn) {
            let mut rt = self.runtime[op].lock();
            if rt.state != OpState::Aborted {
                rt.state = OpState::Aborted;
                drop(rt);
                // The abort handler skips siblings it finds already aborted.
                self.materialise_keys(op);
            }
            return;
        }

        {
            let mut rt = self.runtime[op].lock();
            if rt.state == OpState::Aborted || rt.state == OpState::Executed {
                return;
            }
            rt.state = OpState::Ready;
        }
        self.in_flight[op].store(true, Ordering::Release);

        let started = Instant::now();
        let evaluated = self.evaluate(op);
        breakdown.add(BreakdownBucket::Useful, started.elapsed());

        match evaluated {
            Ok((resolved_key, result, wrote)) => {
                let mut rollback_own_write = false;
                {
                    let mut rt = self.runtime[op].lock();
                    if rt.state == OpState::Aborted {
                        // The transaction aborted while we were executing;
                        // undo our own write.
                        rollback_own_write = wrote;
                    } else {
                        rt.state = OpState::Executed;
                        rt.resolved_key = Some(resolved_key);
                        rt.wrote = wrote;
                        rt.result = Some(result);
                    }
                }
                self.in_flight[op].store(false, Ordering::Release);
                if rollback_own_write {
                    let t0 = Instant::now();
                    self.rollback_op_write(op, resolved_key);
                    breakdown.add(BreakdownBucket::Abort, t0.elapsed());
                }
                // An abort handler may have marked us dirty while we were
                // executing: our inputs were rolled back, so redo ourselves.
                if self.dirty[op].swap(false, Ordering::AcqRel) {
                    let t0 = Instant::now();
                    let _guard = self.coordinator.lock();
                    self.redo_ops_locked(vec![op], breakdown);
                    breakdown.add(BreakdownBucket::Abort, t0.elapsed());
                }
            }
            Err(reason) => {
                self.in_flight[op].store(false, Ordering::Release);
                let t0 = Instant::now();
                self.handle_failure(op, reason, breakdown);
                breakdown.add(BreakdownBucket::Abort, t0.elapsed());
            }
        }
    }

    /// Evaluate an operation against the store: resolve the key, gather UDF
    /// inputs, run the UDF, and append the resulting version for writes.
    /// Returns `(resolved_key, result_value, wrote_version)`.
    fn evaluate(&self, op: OpId) -> Result<(Key, Value, bool), AbortReason> {
        self.udf_evaluations.fetch_add(1, Ordering::Relaxed);
        let operation = self.tpg.op(op);
        let spec = &operation.spec;
        let ts = operation.ts;
        let key = spec.target.resolve(ts);

        // Emulated UDF complexity (the paper's `C` knob): spin for cost_us.
        if spec.cost_us > 0 {
            let deadline = Instant::now() + std::time::Duration::from_micros(spec.cost_us);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }

        // Visibility: strictly earlier timestamps (operations of the same
        // transaction do not see each other's writes, Section 2.1.1).
        let target_value = self
            .store
            .read_before(spec.table, key, ts, 0)
            .unwrap_or_default();

        let mut params = Vec::with_capacity(spec.params.len());
        for p in &spec.params {
            params.push(
                self.store
                    .read_before(p.table, p.key, ts, 0)
                    .unwrap_or_default(),
            );
        }

        let window_values = if let Some(window) = spec.window {
            let lo = ts.saturating_sub(window);
            match spec.kind {
                AccessKind::WindowRead => self
                    .store
                    .window_values(spec.table, key, lo, ts)
                    .unwrap_or_default(),
                AccessKind::WindowWrite => {
                    let mut all = Vec::new();
                    for p in &spec.params {
                        all.extend(
                            self.store
                                .window_values(p.table, p.key, lo, ts)
                                .unwrap_or_default(),
                        );
                    }
                    all
                }
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        };

        let input = UdfInput {
            target: target_value,
            params,
            window: window_values,
            ts,
        };

        let outcome = match &spec.udf {
            Some(udf) => udf(&input)?,
            None => UdfOutcome::Unchanged,
        };

        let (result, wrote) = match outcome {
            UdfOutcome::Value(v) => {
                if spec.kind.is_write() {
                    self.store
                        .write(spec.table, key, ts, operation.stmt, op as u64, v)
                        .map_err(|e| AbortReason::ConsistencyViolation {
                            state: morphstream_common::StateRef::new(spec.table, key),
                            detail: e.to_string(),
                        })?;
                    (v, true)
                } else {
                    (v, false)
                }
            }
            UdfOutcome::Unchanged => (input.target, false),
        };
        Ok((key, result, wrote))
    }

    /// Touch the keys `op` would have read. Evaluating an operation
    /// materialises the missing keys of auto-create tables; how many siblings
    /// of a failing operation get that far before the abort lands depends on
    /// the schedule, so the ones that never ran are brought to the same
    /// footprint — the key set after a batch is then a function of the batch
    /// alone, and state digests do not move with thread timing.
    fn materialise_keys(&self, op: OpId) {
        let operation = self.tpg.op(op);
        let (spec, ts) = (&operation.spec, operation.ts);
        let _ = self
            .store
            .read_before(spec.table, spec.target.resolve(ts), ts, 0);
        for p in &spec.params {
            let _ = self.store.read_before(p.table, p.key, ts, 0);
        }
    }

    fn rollback_op_write(&self, op: OpId, key: Key) {
        let operation = self.tpg.op(op);
        // Writer ids are batch-local op ids, so they recur in every batch:
        // the rollback must be scoped to this transaction's own timestamp or
        // it could delete a committed version surviving from an earlier batch
        // whose writer happened to share the id.
        let _ = self
            .store
            .rollback_writer_at(operation.spec.table, key, op as u64, operation.ts);
    }

    // ------------------------------------------------------------------
    // Abort handling
    // ------------------------------------------------------------------

    fn handle_failure(&self, op: OpId, reason: AbortReason, breakdown: &mut Breakdown) {
        match self.abort_mode {
            AbortHandling::Eager => {
                let _guard = self.coordinator.lock();
                self.abort_txn_locked(op, reason, breakdown);
            }
            AbortHandling::Lazy => {
                // Log the failure; clean-up happens after the TPG has been
                // fully explored. The failing operation itself is marked
                // aborted so it is not retried, but its siblings keep
                // executing (the wasted work the paper attributes to
                // l-abort).
                {
                    let mut rt = self.runtime[op].lock();
                    rt.state = OpState::Aborted;
                }
                self.failures.lock().push((op, reason));
            }
        }
    }

    /// Resolve all logged failures (lazy abort handling). Must be called once
    /// every operation has settled.
    pub fn resolve_lazy_aborts(&self, breakdown: &mut Breakdown) {
        let failures: Vec<(OpId, AbortReason)> = std::mem::take(&mut *self.failures.lock());
        if failures.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let _guard = self.coordinator.lock();
        for (op, reason) in failures {
            self.abort_txn_locked(op, reason, breakdown);
        }
        breakdown.add(BreakdownBucket::Abort, t0.elapsed());
    }

    /// Abort the transaction of `failed_op`, roll back its executed writes,
    /// and redo every executed dependent operation. Runs with the coordinator
    /// lock held; cascading failures (a redone operation aborting) are
    /// processed until a fixpoint.
    fn abort_txn_locked(&self, failed_op: OpId, reason: AbortReason, breakdown: &mut Breakdown) {
        let mut worklist: Vec<(OpId, AbortReason)> = vec![(failed_op, reason)];
        while let Some((fop, freason)) = worklist.pop() {
            let txn = self.tpg.op(fop).txn;
            if self.txn_aborted[txn].swap(true, Ordering::AcqRel) {
                continue; // already aborted and cleaned up
            }
            self.txn_reasons.lock().entry(txn).or_insert(freason);

            // Abort all operations of the transaction (LD propagation) and
            // roll back the ones that already wrote.
            let mut rolled_back: Vec<OpId> = Vec::new();
            for &sibling in self.tpg.txn_ops(txn) {
                let mut rt = self.runtime[sibling].lock();
                let prev = rt.state;
                rt.state = OpState::Aborted;
                if prev == OpState::Executed && rt.wrote {
                    let key = rt.resolved_key.expect("executed write has a resolved key");
                    rt.wrote = false;
                    drop(rt);
                    self.rollback_op_write(sibling, key);
                    rolled_back.push(sibling);
                } else if prev == OpState::Blocked {
                    drop(rt);
                    self.materialise_keys(sibling);
                }
            }

            // Dependents of the rolled-back writes read values that no longer
            // exist: redo them (transitions T5/T6 of Figure 8).
            let descendants = self.descendants_of(&rolled_back);
            let failures = self.redo_ops_locked(descendants, breakdown);
            worklist.extend(failures);
        }
    }

    /// Transitive TD/PD descendants of `roots`, in timestamp order.
    fn descendants_of(&self, roots: &[OpId]) -> Vec<OpId> {
        let mut seen = vec![false; self.tpg.num_ops()];
        let mut stack: Vec<OpId> = roots.to_vec();
        let mut out = Vec::new();
        while let Some(op) = stack.pop() {
            for (child, _) in self.tpg.children(op) {
                if !seen[*child] {
                    seen[*child] = true;
                    out.push(*child);
                    stack.push(*child);
                }
            }
        }
        out.sort_by_key(|&op| (self.tpg.op(op).ts, self.tpg.op(op).stmt, op));
        out
    }

    /// Roll back and re-execute the given operations (skipping aborted ones
    /// and ones that have not executed yet). Returns newly failed operations.
    /// Must be called with the coordinator lock held.
    fn redo_ops_locked(
        &self,
        ops: Vec<OpId>,
        _breakdown: &mut Breakdown,
    ) -> Vec<(OpId, AbortReason)> {
        let mut new_failures = Vec::new();
        for op in ops {
            // In-flight operations will notice the dirty flag themselves once
            // they finish.
            if self.in_flight[op].load(Ordering::Acquire) {
                self.dirty[op].store(true, Ordering::Release);
                continue;
            }
            let (was_executed, wrote, key) = {
                let rt = self.runtime[op].lock();
                (rt.state == OpState::Executed, rt.wrote, rt.resolved_key)
            };
            if !was_executed {
                continue;
            }
            if wrote {
                if let Some(key) = key {
                    self.rollback_op_write(op, key);
                }
            }
            self.redone_ops.fetch_add(1, Ordering::Relaxed);
            match self.evaluate(op) {
                Ok((resolved_key, result, wrote)) => {
                    let mut rt = self.runtime[op].lock();
                    rt.state = OpState::Executed;
                    rt.resolved_key = Some(resolved_key);
                    rt.result = Some(result);
                    rt.wrote = wrote;
                }
                Err(reason) => {
                    let mut rt = self.runtime[op].lock();
                    rt.state = OpState::Aborted;
                    rt.wrote = false;
                    drop(rt);
                    new_failures.push((op, reason));
                }
            }
        }
        new_failures
    }

    // ------------------------------------------------------------------
    // Report assembly
    // ------------------------------------------------------------------

    /// Consume the context and assemble the batch report.
    pub fn into_report(self, breakdown: Breakdown, decision: SchedulingDecision) -> BatchReport {
        let reasons = self.txn_reasons.into_inner();
        let mut outcomes = Vec::with_capacity(self.tpg.num_txns());
        for txn in 0..self.tpg.num_txns() {
            let aborted = self.txn_aborted[txn].load(Ordering::Acquire);
            let mut op_results = Vec::new();
            let mut any_aborted_op = false;
            for &op in self.tpg.txn_ops(txn) {
                let rt = self.runtime[op].lock();
                if rt.state == OpState::Aborted {
                    any_aborted_op = true;
                }
                op_results.push((op, rt.result));
            }
            let committed = !aborted && !any_aborted_op;
            outcomes.push(TxnOutcome {
                txn,
                committed,
                abort_reason: if committed {
                    None
                } else {
                    Some(
                        reasons
                            .get(&txn)
                            .cloned()
                            .unwrap_or(AbortReason::LogicalDependency { txn }),
                    )
                },
                op_results,
            });
        }
        BatchReport {
            outcomes,
            breakdown,
            decision,
            udf_evaluations: self.udf_evaluations.load(Ordering::Relaxed),
            redone_ops: self.redone_ops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream_common::metrics::Breakdown;
    use morphstream_common::{StateRef, TableId};
    use morphstream_scheduler::SchedulingDecision;
    use morphstream_tpg::{udfs, OperationSpec, TpgBuilder, Transaction, TransactionBatch};

    const T: TableId = TableId(0);

    fn store_with_balances(n: u64, initial: Value) -> StateStore {
        let store = StateStore::new();
        let t = store.create_table("accounts", initial, false);
        assert_eq!(t, T);
        store.preallocate_range(t, n).unwrap();
        store
    }

    fn run_sequentially(ctx: &ExecContext) -> Breakdown {
        let mut breakdown = Breakdown::new();
        let mut order: Vec<OpId> = (0..ctx.tpg().num_ops()).collect();
        order.sort_by_key(|&op| (ctx.tpg().op(op).ts, ctx.tpg().op(op).stmt));
        for op in order {
            ctx.run_op(op, &mut breakdown);
        }
        breakdown
    }

    #[test]
    fn deposits_accumulate_in_the_store() {
        let store = store_with_balances(4, 0);
        let mut batch = TransactionBatch::new();
        for ts in 1..=5u64 {
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::write(T, 1, vec![], udfs::add_delta(10))],
            ));
        }
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Eager);
        let breakdown = run_sequentially(&ctx);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        assert_eq!(report.committed(), 5);
        assert_eq!(store.read_latest(T, 1).unwrap(), 50);
    }

    #[test]
    fn failed_withdrawal_aborts_whole_transaction_and_rolls_back() {
        let store = store_with_balances(4, 100);
        // txn at ts1: deposit 50 to key 0 AND withdraw 500 from key 1 (fails).
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::write(T, 0, vec![], udfs::add_delta(50)),
                OperationSpec::write(T, 1, vec![], udfs::withdraw(500)),
            ],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Eager);
        let breakdown = run_sequentially(&ctx);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        assert_eq!(report.aborted(), 1);
        // the deposit of the same transaction is rolled back (LD).
        assert_eq!(store.read_latest(T, 0).unwrap(), 100);
        assert_eq!(store.read_latest(T, 1).unwrap(), 100);
    }

    #[test]
    fn dependents_of_aborted_writes_are_redone() {
        let store = store_with_balances(4, 100);
        let mut batch = TransactionBatch::new();
        // ts1: txn A deposits 100 to key 0 but also fails a withdrawal → aborts.
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::write(T, 0, vec![], udfs::add_delta(100)),
                OperationSpec::write(T, 1, vec![], udfs::withdraw(10_000)),
            ],
        ));
        // ts2: txn B writes key 2 = value of key 0 (parametric dependency).
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(
                T,
                2,
                vec![StateRef::new(T, 0)],
                udfs::sum_params(),
            )],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Lazy);
        let mut breakdown = run_sequentially(&ctx);
        ctx.resolve_lazy_aborts(&mut breakdown);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        // txn A aborted, txn B committed but was redone with the rolled-back
        // value of key 0 (100, not 200).
        assert_eq!(report.aborted(), 1);
        assert_eq!(report.committed(), 1);
        assert_eq!(store.read_latest(T, 2).unwrap(), 100);
        assert!(report.redone_ops >= 1);
    }

    #[test]
    fn eager_mode_skips_remaining_ops_of_aborted_txns() {
        let store = store_with_balances(4, 0);
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::write(T, 0, vec![], udfs::always_abort()),
                OperationSpec::write(T, 1, vec![], udfs::add_delta(5)),
            ],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Eager);
        let breakdown = run_sequentially(&ctx);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        assert_eq!(report.aborted(), 1);
        // the second op never wrote because the txn was already aborted.
        assert_eq!(store.read_latest(T, 1).unwrap(), 0);
        assert_eq!(report.outcomes[0].abort_reason, Some(AbortReason::Injected));
    }

    /// On an auto-create table the key set after an abort must not depend on
    /// how far the failing operation's siblings got: a sibling that never ran
    /// (eager), one that ran before the failure, and one that ran after it
    /// (lazy) all leave its target and parameter keys materialised.
    #[test]
    fn aborted_siblings_materialise_the_same_keys_in_any_order() {
        for (mode, sibling_first) in [
            (AbortHandling::Eager, false),
            (AbortHandling::Eager, true),
            (AbortHandling::Lazy, false),
        ] {
            let store = StateStore::new();
            assert_eq!(store.create_table("auto", 7, true), T);
            let mut batch = TransactionBatch::new();
            batch.push(Transaction::new(
                1,
                vec![
                    OperationSpec::write(T, 0, vec![], udfs::always_abort()),
                    OperationSpec::write(T, 1, vec![StateRef::new(T, 2)], udfs::add_delta(5)),
                ],
            ));
            let tpg = Arc::new(TpgBuilder::new().build(batch));
            let ctx = ExecContext::new(tpg, store.clone(), mode);
            let mut breakdown = Breakdown::new();
            for op in if sibling_first { [1, 0] } else { [0, 1] } {
                ctx.run_op(op, &mut breakdown);
            }
            ctx.resolve_lazy_aborts(&mut breakdown);
            let mut keys: Vec<_> = store.snapshot_latest(T).unwrap().into_iter().collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                vec![(0, 7), (1, 7), (2, 7)],
                "{mode:?} {sibling_first}"
            );
        }
    }

    #[test]
    fn lazy_mode_wastes_work_but_reaches_the_same_state() {
        let store_eager = store_with_balances(4, 0);
        let store_lazy = store_with_balances(4, 0);
        let make_batch = || {
            let mut batch = TransactionBatch::new();
            batch.push(Transaction::new(
                1,
                vec![
                    OperationSpec::write(T, 0, vec![], udfs::always_abort()),
                    OperationSpec::write(T, 1, vec![], udfs::add_delta(5)),
                ],
            ));
            batch.push(Transaction::new(
                2,
                vec![OperationSpec::write(T, 1, vec![], udfs::add_delta(7))],
            ));
            batch
        };
        let run = |store: &StateStore, mode: AbortHandling| {
            let tpg = Arc::new(TpgBuilder::new().build(make_batch()));
            let ctx = ExecContext::new(tpg, store.clone(), mode);
            let mut breakdown = run_sequentially(&ctx);
            if mode == AbortHandling::Lazy {
                ctx.resolve_lazy_aborts(&mut breakdown);
            }
            ctx.into_report(breakdown, SchedulingDecision::default())
        };
        let eager = run(&store_eager, AbortHandling::Eager);
        let lazy = run(&store_lazy, AbortHandling::Lazy);
        assert_eq!(eager.committed(), 1);
        assert_eq!(lazy.committed(), 1);
        assert_eq!(
            store_eager.read_latest(T, 1).unwrap(),
            store_lazy.read_latest(T, 1).unwrap()
        );
        // lazy evaluated at least as many UDFs (the wasted sibling work).
        assert!(lazy.udf_evaluations >= eager.udf_evaluations);
    }

    #[test]
    fn window_reads_aggregate_past_versions() {
        let store = store_with_balances(4, 0);
        let mut batch = TransactionBatch::new();
        for ts in 1..=5u64 {
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::write(
                    T,
                    0,
                    vec![],
                    udfs::set_value(ts as Value),
                )],
            ));
        }
        batch.push(Transaction::new(
            6,
            vec![OperationSpec::window_read(T, 0, 3, udfs::window_sum())],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Eager);
        let breakdown = run_sequentially(&ctx);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        // window covers timestamps 3..=6 → versions 3, 4, 5 → sum 12.
        assert_eq!(report.outcomes[5].result(0), Some(12));
    }

    #[test]
    fn non_deterministic_writes_resolve_and_roll_back_correctly() {
        let store = store_with_balances(8, 0);
        let mut batch = TransactionBatch::new();
        // ts1: non-det write to key ts%8 = 1, value 42, but txn also aborts.
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::non_det_write(T, Arc::new(|ts| ts % 8), vec![], udfs::set_value(42)),
                OperationSpec::write(T, 5, vec![], udfs::always_abort()),
            ],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Lazy);
        let mut breakdown = run_sequentially(&ctx);
        ctx.resolve_lazy_aborts(&mut breakdown);
        let report = ctx.into_report(breakdown, SchedulingDecision::default());
        assert_eq!(report.aborted(), 1);
        // the non-deterministic write to key 1 was rolled back.
        assert_eq!(store.read_latest(T, 1).unwrap(), 0);
    }

    #[test]
    fn op_states_transition_to_terminal_states() {
        let store = store_with_balances(2, 0);
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        let tpg = Arc::new(TpgBuilder::new().build(batch));
        let ctx = ExecContext::new(tpg, store, AbortHandling::Eager);
        assert_eq!(ctx.op_state(0), OpState::Blocked);
        assert!(!ctx.op_settled(0));
        let mut b = Breakdown::new();
        ctx.run_op(0, &mut b);
        assert_eq!(ctx.op_state(0), OpState::Executed);
        assert!(ctx.op_settled(0));
        assert!(!ctx.txn_aborted(0));
    }
}
