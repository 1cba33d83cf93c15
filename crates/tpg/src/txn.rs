//! State transactions and transaction batches.
//!
//! A state transaction is the set of state access operations triggered by one
//! input event (Section 2.1.1). The engine collects transactions between two
//! punctuations into a [`TransactionBatch`]; the batch is the unit the
//! planning stage builds one TPG for.

use morphstream_common::Timestamp;

use crate::operation::OperationSpec;

/// One state transaction: the operations triggered by one input event, plus
/// the event timestamp they all share.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Event timestamp (also the transaction's serialization position).
    pub ts: Timestamp,
    /// Operations in statement order.
    pub ops: Vec<OperationSpec>,
    /// Correlation id linking the transaction back to the input event that
    /// produced it (index into the engine's event buffer).
    pub event_index: usize,
}

impl Transaction {
    /// Create a transaction.
    pub fn new(ts: Timestamp, ops: Vec<OperationSpec>) -> Self {
        Self {
            ts,
            ops,
            event_index: 0,
        }
    }

    /// Attach the index of the originating input event.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_event_index(mut self, index: usize) -> Self {
        self.event_index = index;
        self
    }

    /// Number of operations (the paper's transaction length `l`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A batch of state transactions collected between two punctuations.
///
/// Transactions may be appended out of timestamp order (challenge C1 of the
/// paper); the planner sorts them before dependency tracking.
#[derive(Debug, Clone, Default)]
pub struct TransactionBatch {
    txns: Vec<Transaction>,
    /// Workload-provided estimate of the fraction of transactions that will
    /// abort; feeds the decision model's "ratio of aborting vertexes" input.
    pub expected_abort_ratio: f64,
}

impl TransactionBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch from a list of transactions.
    pub fn from_txns(txns: Vec<Transaction>) -> Self {
        Self {
            txns,
            expected_abort_ratio: 0.0,
        }
    }

    /// Set the workload's abort-ratio hint.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_expected_abort_ratio(mut self, ratio: f64) -> Self {
        self.expected_abort_ratio = ratio;
        self
    }

    /// Append one transaction (possibly out of order).
    pub fn push(&mut self, txn: Transaction) {
        self.txns.push(txn);
    }

    /// Number of transactions in the batch (the paper's `T`).
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transactions in arrival order.
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Total number of operations across all transactions.
    pub fn total_ops(&self) -> usize {
        self.txns.iter().map(Transaction::len).sum()
    }

    /// UDF work the batch declares: the `cost_us` of every operation, summed.
    pub fn declared_cost_us(&self) -> u64 {
        self.txns
            .iter()
            .flat_map(|t| &t.ops)
            .map(|op| op.cost_us)
            .sum()
    }

    /// Consume the batch, returning transactions sorted by timestamp (ties
    /// broken by arrival order, which `sort_by_key` preserves because it is
    /// stable). This is the sorting step of the stream processing phase.
    pub fn into_sorted(mut self) -> Vec<Transaction> {
        // The engine stamps a batch in arrival order: nothing to sort.
        if !self.txns.is_sorted_by_key(|t| t.ts) {
            self.txns.sort_by_key(|t| t.ts);
        }
        self.txns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::OperationSpec;
    use morphstream_common::TableId;

    fn txn(ts: Timestamp, n_ops: usize) -> Transaction {
        let ops = (0..n_ops)
            .map(|i| OperationSpec::read(TableId(0), i as u64))
            .collect();
        Transaction::new(ts, ops)
    }

    #[test]
    fn transaction_reports_its_length() {
        let t = txn(5, 3).with_event_index(9);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.event_index, 9);
        assert!(txn(1, 0).is_empty());
    }

    #[test]
    fn batch_counts_transactions_and_operations() {
        let mut batch = TransactionBatch::new();
        assert!(batch.is_empty());
        batch.push(txn(2, 2));
        batch.push(txn(1, 3));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.total_ops(), 5);
        assert_eq!(batch.declared_cost_us(), 0);
        batch.push(Transaction::new(
            3,
            vec![
                OperationSpec::read(TableId(0), 1).with_cost_us(7),
                OperationSpec::read(TableId(0), 2).with_cost_us(5),
            ],
        ));
        assert_eq!(batch.declared_cost_us(), 12);
        assert!(!batch.is_empty());
        assert_eq!(batch.txns()[0].ts, 2);
    }

    #[test]
    fn sorting_orders_by_timestamp_and_is_stable() {
        let mut batch = TransactionBatch::new();
        batch.push(txn(5, 1).with_event_index(0));
        batch.push(txn(1, 1).with_event_index(1));
        batch.push(txn(5, 1).with_event_index(2));
        batch.push(txn(3, 1).with_event_index(3));
        let sorted = batch.into_sorted();
        let ts: Vec<Timestamp> = sorted.iter().map(|t| t.ts).collect();
        assert_eq!(ts, vec![1, 3, 5, 5]);
        // stability: the two ts=5 transactions keep arrival order
        assert_eq!(sorted[2].event_index, 0);
        assert_eq!(sorted[3].event_index, 2);
    }

    #[test]
    fn abort_ratio_hint_round_trips() {
        let batch = TransactionBatch::from_txns(vec![txn(1, 1)]).with_expected_abort_ratio(0.25);
        assert_eq!(batch.expected_abort_ratio, 0.25);
        assert_eq!(batch.len(), 1);
    }
}
