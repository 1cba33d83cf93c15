//! The one-worker batch: every transaction on the calling thread, one at a
//! time, in timestamp order — S-Store's serial execution of one partition.
//!
//! No TPG, scheduling unit, lock or per-operation flag is involved. Each
//! operation is evaluated against the store the moment its turn comes; the
//! first one that fails undoes the writes its transaction already made and
//! the transaction's remaining operations are skipped, their keys
//! materialised as an abort does everywhere else. A read sees strictly
//! earlier timestamps, so no executed operation of another transaction can
//! have read an undone write: a one-worker batch redoes nothing, whatever
//! abort handling a decision names, and exploration and granularity have
//! nothing to choose. Every TD and PD edge of the batch's TPG runs forward
//! in this order, so its state and outputs are those of any multi-worker
//! schedule.
//!
//! Transactions that share a timestamp run in the order they are given (the
//! builder's: stable by timestamp). None of them sees another's writes,
//! since reads stop short of their own timestamp, except through a window,
//! which ends at it; a batch the engine cuts never ties.
//!
//! Groups of one batch that share no state run the same loop side by side,
//! one per worker ([`execute_serial_groups`]), as S-Store's partitions each
//! run on their own site: no loop reads or writes what another does, so
//! each sees exactly what the one loop over the whole batch would.

use std::time::Instant;

use morphstream_common::fan_out;
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_common::{Key, OpId, TableId, Timestamp, TxnId};
use morphstream_scheduler::SchedulingDecision;
use morphstream_storage::StateStore;
use morphstream_tpg::{OperationSpec, Transaction, UdfInput};

use crate::report::{BatchReport, TxnOutcome};
use crate::tables::BoundTables;

/// Run `txns` — `(timestamp, operations in statement order)`, sorted by
/// timestamp — against `store` on the calling thread, one transaction at a
/// time. Operations are numbered as the TPG builder numbers them:
/// consecutively, in the order given, so their writer ids match a planned
/// run's. The report names `decision` and redoes nothing.
pub fn execute_serial<'a, T, O>(
    txns: T,
    store: &StateStore,
    decision: SchedulingDecision,
) -> BatchReport
where
    T: IntoIterator<Item = (Timestamp, O)>,
    O: IntoIterator<Item = &'a OperationSpec>,
    O::IntoIter: ExactSizeIterator,
{
    let mut next_op: OpId = 0;
    let numbered = txns.into_iter().enumerate().map(|(txn, (ts, ops))| {
        let ops = ops.into_iter();
        let first_op = next_op;
        next_op += ops.len();
        (txn, ts, first_op, ops)
    });
    serial_loop(numbered, &BoundTables::bind(store), decision)
}

/// Run each of `groups` — indices into `txns`, which is sorted by timestamp
/// as the builder sorts a batch, each group ascending — as one
/// [`execute_serial`] loop on its own worker, `groups.len()` of them. Each
/// operation keeps the id the builder would give it, and the outcomes come
/// back in the order of `txns`.
///
/// The groups must touch disjoint states: a loop sees only its own group's
/// writes, so its state and outcomes are those of the one loop over `txns`
/// only if no other group reads or writes what it does.
pub fn execute_serial_groups(
    txns: &[Transaction],
    groups: &[Vec<TxnId>],
    store: &StateStore,
    decision: SchedulingDecision,
) -> BatchReport {
    let first_ops: Vec<OpId> = txns
        .iter()
        .scan(0, |next, txn| {
            let first = *next;
            *next += txn.ops.len();
            Some(first)
        })
        .collect();
    let tables = BoundTables::bind(store);
    let loops = fan_out(groups.len(), |w| {
        let group = groups.get(w).into_iter().flatten().map(|&txn| {
            let Transaction { ts, ops, .. } = &txns[txn];
            (txn, *ts, first_ops[txn], ops.iter())
        });
        serial_loop(group, &tables, decision)
    });
    let mut merged = loops
        .into_iter()
        .reduce(|mut merged, report| {
            merged.outcomes.extend(report.outcomes);
            merged.breakdown.merge(&report.breakdown);
            merged.udf_evaluations += report.udf_evaluations;
            merged
        })
        .expect("fan_out runs at least one worker");
    merged.outcomes.sort_unstable_by_key(|outcome| outcome.txn);
    merged
}

/// The loop both entry points run: `(txn id, timestamp, id of the first
/// operation, operations)` one transaction at a time, outcomes in the order
/// given.
fn serial_loop<'a, O>(
    txns: impl Iterator<Item = (TxnId, Timestamp, OpId, O)>,
    tables: &BoundTables,
    decision: SchedulingDecision,
) -> BatchReport
where
    O: Iterator<Item = &'a OperationSpec>,
{
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(txns.size_hint().0);
    let mut breakdown = Breakdown::new();
    let mut input = UdfInput::default();
    // The versions the current transaction appended, to undo on a failure.
    let mut written: Vec<(TableId, Key, OpId)> = Vec::new();
    let mut evaluated = 0usize;
    for (txn, ts, first_op, ops) in txns {
        let mut op_results = Vec::with_capacity(ops.size_hint().0);
        let mut abort_reason = None;
        written.clear();
        for (stmt, spec) in ops.enumerate() {
            let op = first_op + stmt;
            if abort_reason.is_some() {
                tables.materialise_keys(spec, ts);
                op_results.push((op, None));
                continue;
            }
            evaluated += 1;
            match tables.evaluate(spec, ts, stmt as u32, op, &mut input) {
                Ok((key, result, wrote)) => {
                    if wrote {
                        written.push((spec.table, key, op));
                    }
                    op_results.push((op, Some(result)));
                }
                Err(reason) => {
                    let undo = Instant::now();
                    for &(table, key, writer) in &written {
                        tables.rollback_write(table, key, writer, ts);
                    }
                    breakdown.add(BreakdownBucket::Abort, undo.elapsed());
                    abort_reason = Some(reason);
                    op_results.push((op, None));
                }
            }
        }
        outcomes.push(TxnOutcome {
            txn,
            committed: abort_reason.is_none(),
            abort_reason,
            op_results,
        });
    }
    let aborting = breakdown.get(BreakdownBucket::Abort);
    breakdown.add(
        BreakdownBucket::Useful,
        started.elapsed().saturating_sub(aborting),
    );
    BatchReport {
        outcomes,
        breakdown,
        decision,
        udf_evaluations: evaluated,
        redone_ops: 0,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::context::ExecContext;
    use morphstream_common::{StateRef, Value};
    use morphstream_scheduler::AbortHandling;
    use morphstream_tpg::{udfs, TpgBuilder, Transaction, TransactionBatch};

    const T: TableId = TableId(0);

    /// Transfers on an auto-create table, every third failing in its second
    /// write after the first one ran, plus window reads of the hot key.
    fn batch() -> TransactionBatch {
        let mut batch = TransactionBatch::new();
        for ts in 1..=60u64 {
            let (from, to) = (ts % 7, 100 + ts % 5);
            let credit = if ts.is_multiple_of(3) {
                udfs::always_abort()
            } else {
                udfs::credit_if_param_at_least(5, 5)
            };
            let mut ops = vec![
                OperationSpec::write(T, from, vec![], udfs::withdraw(5)),
                OperationSpec::write(T, to, vec![StateRef::new(T, from)], credit),
            ];
            if ts.is_multiple_of(4) {
                ops.push(OperationSpec::window_read(T, from, 8, udfs::window_sum()));
            }
            batch.push(Transaction::new(ts, ops));
        }
        batch
    }

    fn store() -> StateStore {
        let store = StateStore::new();
        assert_eq!(store.create_table("accounts", 20, true), T);
        store
    }

    /// The loop reaches the state, outcomes — aborted operations' results
    /// and abort reasons included — and evaluation count of the planned
    /// context run eagerly in `(ts, stmt)` order, and redoes nothing.
    #[test]
    fn the_loop_matches_the_eager_context_in_timestamp_order() {
        let serial_store = store();
        let txns = batch().into_sorted();
        let serial = execute_serial(
            txns.iter().map(|t| (t.ts, &t.ops)),
            &serial_store,
            SchedulingDecision::default(),
        );

        let planned_store = store();
        let tpg = Arc::new(TpgBuilder::new().build(batch()));
        let ctx = ExecContext::new(tpg.clone(), planned_store.clone(), AbortHandling::Eager);
        let mut breakdown = Breakdown::new();
        for op in 0..tpg.num_ops() {
            ctx.run_op(op, &mut breakdown);
        }
        let planned = ctx.into_report(breakdown, SchedulingDecision::default());

        assert!(serial.aborted() > 20, "{} aborted", serial.aborted());
        assert_eq!(serial.outcomes, planned.outcomes);
        assert_eq!(serial.udf_evaluations, planned.udf_evaluations);
        assert_eq!((serial.redone_ops, planned.redone_ops), (0, 0));
        assert_eq!(serial_store.state_digest(), planned_store.state_digest());
        let balances: Value = (0..7)
            .chain(100..105)
            .map(|k| serial_store.read_latest(T, k).unwrap())
            .sum();
        assert_eq!(balances, 12 * 20);
    }
}
