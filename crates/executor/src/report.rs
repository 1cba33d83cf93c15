//! Execution results reported back to the engine.

use morphstream_common::metrics::Breakdown;
use morphstream_common::{AbortReason, OpId, TxnId, Value};
use morphstream_scheduler::SchedulingDecision;

/// Outcome of one state transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnOutcome {
    /// Transaction id within the batch.
    pub txn: TxnId,
    /// Whether every operation of the transaction executed successfully.
    pub committed: bool,
    /// Why the transaction aborted, when it did.
    pub abort_reason: Option<AbortReason>,
    /// Result value of every operation of the transaction, in statement
    /// order: the value read (for reads / window reads) or the value written
    /// (for writes). `None` for operations that aborted before producing a
    /// result.
    pub op_results: Vec<(OpId, Option<Value>)>,
}

impl TxnOutcome {
    /// Result of the `idx`-th operation (statement) of the transaction.
    pub fn result(&self, idx: usize) -> Option<Value> {
        self.op_results.get(idx).and_then(|(_, v)| *v)
    }
}

/// Report of one executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-transaction outcomes, indexed by transaction id.
    pub outcomes: Vec<TxnOutcome>,
    /// Runtime breakdown accumulated across all worker threads.
    pub breakdown: Breakdown,
    /// The scheduling decision that was executed.
    pub decision: SchedulingDecision,
    /// Number of user-defined function evaluations, including redone ones.
    pub udf_evaluations: usize,
    /// Number of operations that had to be rolled back and redone because an
    /// upstream transaction aborted.
    pub redone_ops: usize,
}

impl BatchReport {
    /// Number of committed transactions.
    pub fn committed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed).count()
    }

    /// Number of aborted transactions.
    pub fn aborted(&self) -> usize {
        self.outcomes.len() - self.committed()
    }

    /// Abort ratio of the batch.
    pub fn abort_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.aborted() as f64 / self.outcomes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream_scheduler::SchedulingDecision;

    #[test]
    fn report_counts_commits_and_aborts() {
        let outcomes = vec![
            TxnOutcome {
                txn: 0,
                committed: true,
                abort_reason: None,
                op_results: vec![(0, Some(5))],
            },
            TxnOutcome {
                txn: 1,
                committed: false,
                abort_reason: Some(AbortReason::Injected),
                op_results: vec![(1, None)],
            },
        ];
        let report = BatchReport {
            outcomes,
            breakdown: Breakdown::new(),
            decision: SchedulingDecision::default(),
            udf_evaluations: 2,
            redone_ops: 0,
        };
        assert_eq!(report.committed(), 1);
        assert_eq!(report.aborted(), 1);
        assert!((report.abort_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(report.outcomes[0].result(0), Some(5));
        assert_eq!(report.outcomes[1].result(0), None);
    }

    #[test]
    fn empty_report_has_zero_abort_ratio() {
        let report = BatchReport {
            outcomes: vec![],
            breakdown: Breakdown::new(),
            decision: SchedulingDecision::default(),
            udf_evaluations: 0,
            redone_ops: 0,
        };
        assert_eq!(report.abort_ratio(), 0.0);
    }
}
