//! The Task Precedence Graph.
//!
//! The graph is stored flat, in compressed-sparse-row form: all parent
//! edges of the batch sit in one array grouped by target operation, all
//! child edges in another grouped by source, and an offset array per side
//! says where each operation's group starts. A transaction's operations are
//! a contiguous id range — the builder numbers operations in transaction
//! order — so the transactions need only their start offsets. Building a
//! graph therefore costs a constant number of allocations, not a few per
//! operation and per transaction.

use morphstream_common::{OpId, Timestamp, TxnId};

use crate::flat::FlatLists;
use crate::operation::Operation;

/// Kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Temporal dependency — same state, later timestamp, different
    /// transactions.
    Td,
    /// Parametric dependency — the write value is a function of a state
    /// written by the source operation.
    Pd,
    /// Logical dependency — same transaction; constrains abort propagation
    /// but not execution order.
    Ld,
}

/// Aggregate properties of a TPG (Table 2 of the paper); these are the inputs
/// of the heuristic decision model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TpgStats {
    /// Number of operations (vertices).
    pub num_ops: usize,
    /// Number of state transactions.
    pub num_txns: usize,
    /// Number of logical dependency edges.
    pub ld_edges: usize,
    /// Number of temporal dependency edges.
    pub td_edges: usize,
    /// Number of parametric dependency edges.
    pub pd_edges: usize,
    /// Largest execution-constraining (TD+PD) out-degree of any vertex.
    pub max_out_degree: usize,
    /// Mean execution-constraining out-degree.
    pub mean_out_degree: f64,
    /// Degree-distribution skew: max degree divided by mean degree. 1.0 means
    /// perfectly balanced; large values mean a few states are hot.
    pub degree_skew: f64,
    /// Workload-provided estimate of the fraction of aborting transactions.
    pub expected_abort_ratio: f64,
    /// Mean emulated UDF cost in microseconds (vertex computation
    /// complexity).
    pub mean_cost_us: f64,
    /// Number of non-deterministic operations.
    pub non_det_ops: usize,
    /// Number of windowed operations.
    pub window_ops: usize,
    /// Number of operations with more than one parameter state (the `r`
    /// knob).
    pub multi_param_ops: usize,
}

/// The stateful-to-be task precedence graph: operations plus dependency
/// edges. Execution state (the FSM of Section 6.1) is layered on top by the
/// executor crate, keeping this structure immutable after planning.
#[derive(Debug, Default)]
pub struct Tpg {
    ops: Vec<Operation>,
    /// Incoming execution-constraining edges (TD/PD) per op, by source.
    parents: FlatLists<(OpId, DepKind)>,
    /// Outgoing execution-constraining edges (TD/PD) per op, by target.
    children: FlatLists<(OpId, DepKind)>,
    /// Operations of each transaction, in statement order (LD groups): the
    /// identity array `0..num_ops` cut at each transaction's first op.
    txn_ops: FlatLists<OpId>,
    /// Timestamp of each transaction.
    txn_ts: Vec<Timestamp>,
    stats: TpgStats,
}

impl Tpg {
    /// Assemble a TPG from planner output. `edges` must only contain TD and
    /// PD edges; LD grouping is given through `txn_start`, the first
    /// operation id of each transaction: operations must be numbered in
    /// transaction order, so each transaction owns a contiguous id range.
    pub(crate) fn assemble(
        ops: Vec<Operation>,
        mut edges: Vec<(OpId, OpId, DepKind)>,
        mut txn_start: Vec<OpId>,
        txn_ts: Vec<Timestamp>,
        expected_abort_ratio: f64,
    ) -> Self {
        let n = ops.len();
        debug_assert_eq!(txn_start.len(), txn_ts.len());
        txn_start.push(n);
        debug_assert!(
            txn_start.first() == Some(&0)
                && txn_start.windows(2).enumerate().all(|(txn, w)| {
                    w[0] <= w[1] && ops[w[0]..w[1]].iter().all(|op| op.txn == txn)
                }),
            "each transaction must own a contiguous, ordered range of op ids"
        );

        let mut td_edges = 0usize;
        let mut pd_edges = 0usize;
        for &(from, to, kind) in &edges {
            debug_assert!(from < n && to < n, "edge endpoints must be valid ops");
            debug_assert_ne!(from, to, "self edges are not allowed");
            match kind {
                DepKind::Td => td_edges += 1,
                DepKind::Pd => pd_edges += 1,
                DepKind::Ld => unreachable!("LD edges are implied by txn_start"),
            }
        }
        // Deduplicate (from, to) pairs: an operation pair may be linked by
        // both a TD and a PD; the executor needs exactly one constraint per
        // pair so that dependency counting matches notifications. PD wins
        // over TD for reporting purposes when both exist (PD sorts last).
        edges.sort_unstable();
        edges.dedup_by(|later, kept| {
            let same_pair = (later.0, later.1) == (kept.0, kept.1);
            if same_pair {
                kept.2 = later.2;
            }
            same_pair
        });

        // `edges` is sorted by (source, target) and grouping is stable, so
        // children come out by target and parents by source.
        let children = FlatLists::group(n, || edges.iter().map(|&(f, t, k)| (f, (t, k))));
        let parents = FlatLists::group(n, || edges.iter().map(|&(f, t, k)| (t, (f, k))));

        let ld_edges = txn_start
            .windows(2)
            .map(|w| (w[1] - w[0]).saturating_sub(1))
            .sum();

        let mut stats = TpgStats {
            num_ops: n,
            num_txns: txn_ts.len(),
            ld_edges,
            td_edges,
            pd_edges,
            expected_abort_ratio,
            ..TpgStats::default()
        };

        let degree_sum = edges.len();
        stats.max_out_degree = (0..n).map(|op| children.list(op).len()).max().unwrap_or(0);
        stats.mean_out_degree = if n == 0 {
            0.0
        } else {
            degree_sum as f64 / n as f64
        };
        stats.degree_skew = if stats.mean_out_degree > 0.0 {
            stats.max_out_degree as f64 / stats.mean_out_degree
        } else {
            1.0
        };
        let mut cost_sum = 0u64;
        for op in &ops {
            cost_sum += op.spec.cost_us;
            if op.spec.kind.is_non_deterministic() {
                stats.non_det_ops += 1;
            }
            if op.spec.kind.is_windowed() {
                stats.window_ops += 1;
            }
            if op.spec.params.len() > 1 {
                stats.multi_param_ops += 1;
            }
        }
        stats.mean_cost_us = if n == 0 {
            0.0
        } else {
            cost_sum as f64 / n as f64
        };

        Self {
            ops,
            parents,
            children,
            txn_ops: FlatLists::from_parts((0..n).collect(), txn_start),
            txn_ts,
            stats,
        }
    }

    /// Number of operations (vertices).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of transactions.
    pub fn num_txns(&self) -> usize {
        self.txn_ts.len()
    }

    /// Operation by id.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id]
    }

    /// All operations.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Incoming TD/PD edges of `id`.
    pub fn parents(&self, id: OpId) -> &[(OpId, DepKind)] {
        self.parents.list(id)
    }

    /// Outgoing TD/PD edges of `id`.
    pub fn children(&self, id: OpId) -> &[(OpId, DepKind)] {
        self.children.list(id)
    }

    /// Operations of transaction `txn` in statement order.
    pub fn txn_ops(&self, txn: TxnId) -> &[OpId] {
        self.txn_ops.list(txn)
    }

    /// Timestamp of transaction `txn`.
    pub fn txn_ts(&self, txn: TxnId) -> Timestamp {
        self.txn_ts[txn]
    }

    /// Aggregate graph properties.
    pub fn stats(&self) -> &TpgStats {
        &self.stats
    }

    /// Check the structural invariants the executor relies on. Used by tests
    /// and debug assertions, not on the hot path.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ops.len();
        for id in 0..n {
            for (p, kind) in self.parents(id) {
                if *p >= n {
                    return Err(format!("op {id} has out-of-range parent {p}"));
                }
                if self.ops[*p].ts > self.ops[id].ts {
                    return Err(format!(
                        "edge {p} -> {id} ({kind:?}) goes backwards in time"
                    ));
                }
                if !self.children(*p).iter().any(|(c, _)| *c == id) {
                    return Err(format!("edge {p} -> {id} missing from children list"));
                }
            }
        }
        for txn in 0..self.num_txns() {
            for op in self.txn_ops(txn) {
                if self.ops[*op].txn != txn {
                    return Err(format!("op {op} listed under wrong transaction {txn}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{udfs, OperationSpec};
    use morphstream_common::TableId;

    fn op(id: OpId, txn: TxnId, ts: Timestamp, stmt: u32, key: u64, write: bool) -> Operation {
        let spec = if write {
            OperationSpec::write(TableId(0), key, vec![], udfs::add_delta(1))
        } else {
            OperationSpec::read(TableId(0), key)
        };
        Operation {
            id,
            txn,
            ts,
            stmt,
            spec,
        }
    }

    fn sample_tpg() -> Tpg {
        // txn0: op0 (ts 1); txn1: op1, op2 (ts 2); txn2: op3 (ts 3)
        let ops = vec![
            op(0, 0, 1, 0, 10, true),
            op(1, 1, 2, 0, 10, true),
            op(2, 1, 2, 1, 20, true),
            op(3, 2, 3, 0, 20, false),
        ];
        let edges = vec![
            (0, 1, DepKind::Td),
            (0, 1, DepKind::Pd), // duplicate pair with a different kind
            (2, 3, DepKind::Td),
        ];
        Tpg::assemble(ops, edges, vec![0, 1, 3], vec![1, 2, 3], 0.05)
    }

    #[test]
    fn assembly_builds_consistent_adjacency() {
        let tpg = sample_tpg();
        assert_eq!(tpg.num_ops(), 4);
        assert_eq!(tpg.num_txns(), 3);
        tpg.validate().unwrap();
        // duplicate (0,1) edge collapsed to one adjacency entry, PD wins
        assert_eq!(tpg.parents(1).len(), 1);
        assert_eq!(tpg.parents(1)[0], (0, DepKind::Pd));
        assert_eq!(tpg.children(0).len(), 1);
        assert_eq!(tpg.parents(3), &[(2, DepKind::Td)]);
        assert!(tpg.parents(0).is_empty());
    }

    #[test]
    fn adjacency_slices_are_exact_and_ordered() {
        // op 3 has parents 0, 1 and 2 — given out of order, one pair twice —
        // and op 0 has children 1 and 3.
        let ops = vec![
            op(0, 0, 1, 0, 10, true),
            op(1, 1, 2, 0, 10, true),
            op(2, 2, 3, 0, 20, true),
            op(3, 3, 4, 0, 10, false),
        ];
        let edges = vec![
            (2, 3, DepKind::Pd),
            (0, 3, DepKind::Td),
            (1, 3, DepKind::Td),
            (0, 1, DepKind::Td),
            (1, 3, DepKind::Pd),
        ];
        let tpg = Tpg::assemble(ops, edges, vec![0, 1, 2, 3], vec![1, 2, 3, 4], 0.0);
        tpg.validate().unwrap();
        let parents: Vec<_> = (0..4).map(|id| tpg.parents(id).to_vec()).collect();
        assert_eq!(
            parents,
            [
                vec![],
                vec![(0, DepKind::Td)],
                vec![],
                vec![(0, DepKind::Td), (1, DepKind::Pd), (2, DepKind::Pd)],
            ]
        );
        let children: Vec<_> = (0..4).map(|id| tpg.children(id).to_vec()).collect();
        assert_eq!(
            children,
            [
                vec![(1, DepKind::Td), (3, DepKind::Td)],
                vec![(3, DepKind::Pd)],
                vec![(3, DepKind::Pd)],
                vec![],
            ]
        );
        assert_eq!(tpg.stats().max_out_degree, 2);
        assert_eq!(tpg.stats().mean_out_degree, 1.0);
        assert_eq!(tpg.stats().ld_edges, 0);
    }

    #[test]
    fn stats_count_edges_and_structure() {
        let tpg = sample_tpg();
        let s = tpg.stats();
        assert_eq!(s.num_ops, 4);
        assert_eq!(s.num_txns, 3);
        assert_eq!(s.td_edges, 2);
        assert_eq!(s.pd_edges, 1);
        assert_eq!(s.ld_edges, 1); // txn1 has two ops
        assert_eq!(s.expected_abort_ratio, 0.05);
        assert!(s.max_out_degree >= 1);
        assert!(s.degree_skew >= 1.0);
    }

    #[test]
    fn txn_accessors_round_trip() {
        let tpg = sample_tpg();
        assert_eq!(tpg.txn_ops(0), &[0]);
        assert_eq!(tpg.txn_ops(1), &[1, 2]);
        assert_eq!(tpg.txn_ops(2), &[3]);
        assert_eq!(tpg.txn_ts(1), 2);
        assert_eq!(tpg.op(2).stmt, 1);
        assert_eq!(tpg.ops().len(), 4);
    }

    #[test]
    fn empty_tpg_is_valid() {
        let tpg = Tpg::assemble(vec![], vec![], vec![], vec![], 0.0);
        assert_eq!(tpg.num_ops(), 0);
        assert_eq!(tpg.num_txns(), 0);
        assert_eq!(tpg.stats().max_out_degree, 0);
        tpg.validate().unwrap();
    }
}
