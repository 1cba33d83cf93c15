//! Two-phase TPG construction (Section 4.2).
//!
//! * **Stream processing phase** — transactions (possibly arriving out of
//!   order) are sorted by timestamp and decomposed into operations; logical
//!   dependencies are implied by the per-transaction operation lists; every
//!   operation is inserted into the sorted list of the state it targets, and
//!   virtual operations are inserted for parameter states and window
//!   sources.
//! * **Transaction processing phase** — each sorted list is scanned once to
//!   derive TD and PD edges, and ordered against the non-deterministic
//!   operations of its own table (Section 4.4), which stand in no list.
//!
//! Both phases are sharded by state key: each worker owns the disjoint set of
//! sorted lists whose [`shard_of`] hash lands on it, fills them from the
//! decomposed operation array, and immediately derives their edges, so list
//! insertion *and* edge derivation scale with the configured worker count.
//! The calling thread builds shard 0 and only the other shards get a thread
//! ([`fan_out`]), so a one-shard build spawns nothing.
//! Every shard count produces the same graph — each list's contents (and
//! therefore its derived edges) do not depend on which worker owns it, the
//! per-table chain of non-deterministic operations is built once, and
//! [`Tpg::assemble`] canonicalises edge order.

use std::collections::HashMap;

use morphstream_common::hash::SeededState;
use morphstream_common::{fan_out, OpId, StateRef, TxnId};

use crate::graph::{DepKind, Tpg};
use crate::operation::Operation;
use crate::sorted_list::{
    chain_runs, derive_edges, shard_of, EntryAccess, ListEntry, NonDetOp, SortedList,
};
use crate::txn::TransactionBatch;

/// Builds a [`Tpg`] from a [`TransactionBatch`].
#[derive(Debug, Clone)]
pub struct TpgBuilder {
    num_threads: usize,
}

impl Default for TpgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TpgBuilder {
    /// Single-threaded builder: both construction phases run on the calling
    /// thread. Construction parallelism is opt-in through
    /// [`TpgBuilder::with_threads`]; the engine derives it from
    /// `EngineConfig::num_threads`.
    pub fn new() -> Self {
        Self { num_threads: 1 }
    }

    /// Use `num_threads` workers for construction: the per-key sorted lists
    /// are sharded by state hash across the workers, and each worker fills
    /// and scans its own lists (stream + transaction processing phases).
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// Build the TPG for one batch in exactly as many shards as the
    /// configured workers; one shard is built on the calling thread. The
    /// engine configures the workers `effective_workers` engaged for the
    /// batch, so planning and execution use one team.
    pub fn build(&self, batch: TransactionBatch) -> Tpg {
        self.build_with(batch, None)
    }

    /// `build` with optional fixed seeds for the list maps, for the tests
    /// that compare two seeds.
    fn build_with(&self, batch: TransactionBatch, lists_seed: Option<u64>) -> Tpg {
        let expected_abort_ratio = batch.expected_abort_ratio;
        let txns = batch.into_sorted();

        // ---- Decomposition (serial prelude of the stream phase) ----
        // Operation ids are assignment order, so this pass stays serial; it
        // is a cheap flat append compared to list insertion and edge
        // derivation, which are sharded below. Ids are handed out in
        // transaction order, so each transaction owns the id range starting
        // at its `txn_start` entry.
        let mut ops: Vec<Operation> = Vec::with_capacity(txns.iter().map(|t| t.ops.len()).sum());
        let mut txn_start: Vec<OpId> = Vec::with_capacity(txns.len());
        let mut txn_ts = Vec::with_capacity(txns.len());
        let mut non_det: Vec<NonDetOp> = Vec::new();

        for (txn_id, txn) in txns.into_iter().enumerate() {
            txn_ts.push(txn.ts);
            txn_start.push(ops.len());
            for (stmt_idx, spec) in txn.ops.into_iter().enumerate() {
                let id = ops.len();
                let stmt = stmt_idx as u32;
                if spec.target.known().is_none() {
                    non_det.push((spec.table, txn.ts, stmt, id));
                }
                ops.push(Operation {
                    id,
                    txn: txn_id,
                    ts: txn.ts,
                    stmt,
                    spec,
                });
            }
        }

        // ---- Sharded stream + transaction processing phases ----
        non_det.sort_unstable();
        let txn_of: Vec<TxnId> = ops.iter().map(|o| o.txn).collect();
        let shards = self.num_threads;
        let mut per_shard = fan_out(shards, |shard| {
            let lists = lists_seed.map_or_else(SeededState::new, |seed| {
                SeededState::with_seed(seed.wrapping_add(shard as u64))
            });
            shard_edges(&ops, &non_det, &txn_of, shard, shards, lists)
        })
        .into_iter();
        // Shard 0's edges are the base, so a one-shard build copies nothing.
        let mut edges = per_shard.next().unwrap_or_default();
        edges.extend(per_shard.flatten());

        // Non-deterministic operations of one table might touch the same
        // state, so each table's are chained in `(ts, stmt, op)` order.
        let same_txn = |a: &NonDetOp, b: &NonDetOp| txn_of[a.3] == txn_of[b.3];
        for table in non_det.chunk_by(|a, b| a.0 == b.0) {
            chain_runs(
                table,
                |_| true,
                same_txn,
                |a, b| edges.push((a.3, b.3, DepKind::Pd)),
            );
        }

        Tpg::assemble(ops, edges, txn_start, txn_ts, expected_abort_ratio)
    }
}

/// Build the sorted lists owned by `shard` (out of `shards`) and derive their
/// TD/PD edges, ordering each against `non_det` (sorted, as a batch's
/// [`NonDetOp`]s) of its table. With `shards == 1` this is the whole batch —
/// every shard count runs exactly this code, which is what keeps the graphs
/// identical.
///
/// Insertion order within a list matches the serial builder: operations are
/// scanned in id (= decomposition) order and the target entry of an
/// operation precedes its parameter entries, so ties in the `(ts, stmt, op)`
/// sort key resolve identically via the stable finalize sort.
///
/// The lists live in a map hashed under `lists`; its iteration order reaches
/// only the order of the edges, which [`Tpg::assemble`] sorts.
fn shard_edges(
    ops: &[Operation],
    non_det: &[NonDetOp],
    txn_of: &[TxnId],
    shard: usize,
    shards: usize,
    lists: SeededState,
) -> Vec<(OpId, OpId, DepKind)> {
    let owned = |state: &StateRef| shards == 1 || shard_of(state.table, state.key, shards) == shard;

    // ---- Stream processing phase (this shard's lists) ----
    use EntryAccess::{ForeignParam, Param, Read, Write};
    let mut lists: HashMap<StateRef, SortedList, SeededState> = HashMap::with_hasher(lists);
    let entry = |op: &Operation, access| ListEntry {
        op: op.id,
        ts: op.ts,
        stmt: op.stmt,
        access,
    };
    for op in ops {
        if let Some(key) = op.spec.target.known() {
            let access = if op.is_write() { Write } else { Read };
            let state = StateRef::new(op.spec.table, key);
            if owned(&state) {
                lists
                    .entry(state)
                    .or_insert_with(|| SortedList::new(state.table))
                    .push(entry(op, access));
            }
        }
        for param in &op.spec.params {
            if owned(param) {
                let foreign = param.table != op.spec.table;
                lists
                    .entry(*param)
                    .or_insert_with(|| SortedList::new(param.table))
                    .push(entry(op, if foreign { ForeignParam } else { Param }));
            }
        }
    }

    // ---- Transaction processing phase (this shard's lists) ----
    let same_txn = |a: OpId, b: OpId| txn_of[a] == txn_of[b];
    let of_table = |table| match non_det {
        [] => non_det,
        _ => {
            let start = non_det.partition_point(|n| n.0 < table);
            let len = non_det[start..].partition_point(|n| n.0 == table);
            &non_det[start..start + len]
        }
    };
    let mut edges = Vec::new();
    let mut finalized: Vec<SortedList> = lists.into_values().collect();
    for list in &mut finalized {
        list.finalize();
        let derived = derive_edges(list, of_table(list.table), same_txn);
        edges.extend(derived.td.into_iter().map(|(f, t)| (f, t, DepKind::Td)));
        edges.extend(derived.pd.into_iter().map(|(f, t)| (f, t, DepKind::Pd)));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{udfs, KeySpec, OperationSpec};
    use crate::txn::Transaction;
    use morphstream_common::TableId;
    use std::sync::Arc;

    const T: TableId = TableId(0);

    /// The running example of Figure 3: a deposit transaction and two
    /// transfer transactions over accounts A (key 0) and B (key 1).
    fn figure3_batch() -> TransactionBatch {
        // txn1 (ts 1): O1 = Write(A)
        let txn1 = Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(10))],
        );
        // txn2 (ts 2): O2 = Write(A), O3 = Write(B, f(A))
        let txn2 = Transaction::new(
            2,
            vec![
                OperationSpec::write(T, 0, vec![], udfs::withdraw(5)),
                OperationSpec::write(T, 1, vec![StateRef::new(T, 0)], udfs::sum_params()),
            ],
        );
        // txn3 (ts 3): O4 = Write(B), O5 = Write(A, f(B))
        let txn3 = Transaction::new(
            3,
            vec![
                OperationSpec::write(T, 1, vec![], udfs::withdraw(5)),
                OperationSpec::write(T, 0, vec![StateRef::new(T, 1)], udfs::sum_params()),
            ],
        );
        // Arrive out of order on purpose (challenge C1).
        let mut batch = TransactionBatch::new();
        batch.push(txn2);
        batch.push(txn1);
        batch.push(txn3);
        batch
    }

    #[test]
    fn figure3_dependencies_are_tracked() {
        let tpg = TpgBuilder::new().build(figure3_batch());
        tpg.validate().unwrap();
        assert_eq!(tpg.num_ops(), 5);
        assert_eq!(tpg.num_txns(), 3);
        // After sorting, ops are: 0=O1(A,ts1), 1=O2(A,ts2), 2=O3(B,ts2),
        // 3=O4(B,ts3), 4=O5(A,ts3).
        let s = tpg.stats();
        // TDs: A chain O1->O2->O5 gives 2, B chain O3->O4 gives 1.
        assert_eq!(s.td_edges, 3);
        // PDs: O1 -> O3 (param A) and O3 -> O5 (param B)? The paper derives
        // PD from the latest preceding *write* of the parameter key: for O3
        // that is O2... but O2 belongs to a different transaction, so the
        // closest earlier write of A before ts2 is O1. For O5 the closest
        // earlier write of B is O4 (same ts? no, ts3 same txn → skipped), so
        // O3 at ts2.
        assert_eq!(s.pd_edges, 2);
        assert!(tpg
            .parents(2)
            .iter()
            .any(|(p, k)| *k == DepKind::Pd && tpg.op(*p).ts == 1));
        assert!(tpg
            .parents(4)
            .iter()
            .any(|(p, k)| *k == DepKind::Pd && tpg.op(*p).ts == 2));
        // LDs: one per multi-op transaction.
        assert_eq!(s.ld_edges, 2);
    }

    #[test]
    fn out_of_order_arrival_matches_in_order_arrival() {
        let in_order = {
            let mut b = TransactionBatch::new();
            for t in figure3_batch().into_sorted() {
                b.push(t);
            }
            b
        };
        let a = TpgBuilder::new().build(figure3_batch());
        let b = TpgBuilder::new().build(in_order);
        assert_eq!(a.stats(), b.stats());
    }

    /// Assert that two TPGs have identical stats and identical (already
    /// canonically ordered) adjacency — the "identical graphs" contract
    /// between the serial and sharded builders.
    fn assert_same_graph(a: &Tpg, b: &Tpg) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.num_ops(), b.num_ops());
        for id in 0..a.num_ops() {
            assert_eq!(a.parents(id), b.parents(id), "parents of op {id} differ");
            assert_eq!(a.children(id), b.children(id), "children of op {id} differ");
        }
    }

    #[test]
    fn parallel_and_serial_construction_agree() {
        let serial = TpgBuilder::new().build(figure3_batch());
        let parallel = TpgBuilder::new().with_threads(4).build(figure3_batch());
        assert_same_graph(&serial, &parallel);
    }

    #[test]
    fn large_batches_shard_through_the_public_path() {
        // 600 txns x 2 ops over 64 keys: every shard owns lists; the graph
        // must match the serial build.
        let batch = || {
            let mut b = TransactionBatch::new();
            for ts in 1..=600u64 {
                b.push(Transaction::new(
                    ts,
                    vec![
                        OperationSpec::write(T, ts % 64, vec![], udfs::add_delta(1)),
                        OperationSpec::write(
                            T,
                            (ts * 13 + 7) % 64,
                            vec![StateRef::new(T, ts % 64)],
                            udfs::sum_params(),
                        ),
                    ],
                ));
            }
            b
        };
        let serial = TpgBuilder::new().build(batch());
        let sharded = TpgBuilder::new().with_threads(4).build(batch());
        sharded.validate().unwrap();
        assert_same_graph(&serial, &sharded);
    }

    #[test]
    fn default_builder_is_single_threaded() {
        assert_eq!(TpgBuilder::new().num_threads, 1);
        assert_eq!(TpgBuilder::default().num_threads, 1);
        assert_eq!(TpgBuilder::new().with_threads(0).num_threads, 1);
        assert_eq!(TpgBuilder::new().with_threads(6).num_threads, 6);
    }

    #[test]
    fn sharded_construction_with_more_threads_than_states_leaves_shards_empty() {
        // Figure 3 touches exactly two states (A and B); with 8 workers at
        // least six shards own no list at all and must contribute no edges.
        let serial = TpgBuilder::new().build(figure3_batch());
        for threads in [2, 3, 8, 16] {
            let sharded = TpgBuilder::new()
                .with_threads(threads)
                .build(figure3_batch());
            sharded.validate().unwrap();
            assert_same_graph(&serial, &sharded);
        }
    }

    #[test]
    fn sharded_construction_handles_all_non_deterministic_batches() {
        // Every operation resolves its key at execution time: there are no
        // sorted lists anywhere, only the cross-shard non-det chain.
        let batch = || {
            let mut b = TransactionBatch::new();
            for ts in 1..=6u64 {
                b.push(Transaction::new(
                    ts,
                    vec![OperationSpec::non_det_write(
                        T,
                        Arc::new(|ts| ts % 3),
                        vec![],
                        udfs::set_value(1),
                    )],
                ));
            }
            b
        };
        let serial = TpgBuilder::new().build(batch());
        let sharded = TpgBuilder::new().with_threads(4).build(batch());
        serial.validate().unwrap();
        sharded.validate().unwrap();
        assert_same_graph(&serial, &sharded);
        // the chain orders all six ops pairwise-adjacently
        assert_eq!(serial.stats().pd_edges, 5);
    }

    /// Several transactions share timestamps, and one operation both targets
    /// and references the same key (a Real and a Virtual entry with an
    /// identical (ts, stmt, op) sort key), with a non-deterministic write in
    /// the middle of the tied timestamps.
    fn tie_batch() -> TransactionBatch {
        let mut b = TransactionBatch::new();
        for ts in [2u64, 1, 2, 1, 3] {
            b.push(Transaction::new(
                ts,
                vec![
                    OperationSpec::write(T, ts % 3, vec![], udfs::add_delta(1)),
                    OperationSpec::write(
                        T,
                        (ts + 1) % 3,
                        vec![StateRef::new(T, (ts + 1) % 3), StateRef::new(T, ts % 3)],
                        udfs::sum_params(),
                    ),
                ],
            ));
        }
        b.push(Transaction::new(
            2,
            vec![OperationSpec::non_det_write(
                T,
                Arc::new(|ts| ts),
                vec![],
                udfs::set_value(9),
            )],
        ));
        b
    }

    #[test]
    fn sharded_construction_orders_timestamp_ties_like_the_serial_builder() {
        // Tie order inside each sorted list must match the serial builder
        // exactly.
        let serial = TpgBuilder::new().build(tie_batch());
        for threads in [2, 4, 8] {
            let sharded = TpgBuilder::new().with_threads(threads).build(tie_batch());
            sharded.validate().unwrap();
            assert_same_graph(&serial, &sharded);
        }
    }

    #[test]
    fn the_lists_map_seed_changes_no_edge() {
        let wide = || {
            let mut b = tie_batch();
            for ts in 4..=400u64 {
                b.push(Transaction::new(
                    ts,
                    vec![
                        OperationSpec::write(T, ts % 97, vec![], udfs::add_delta(1)),
                        OperationSpec::write(
                            T,
                            (ts * 13) % 97,
                            vec![StateRef::new(T, ts % 97)],
                            udfs::sum_params(),
                        ),
                    ],
                ));
            }
            b
        };
        for shards in [1, 3] {
            let builder = TpgBuilder::new().with_threads(shards);
            let a = builder.build_with(wide(), Some(1));
            let b = builder.build_with(wide(), Some(0xDEAD_BEEF));
            a.validate().unwrap();
            assert_same_graph(&a, &b);
            assert_same_graph(&a, &TpgBuilder::new().build(wide()));
        }
    }

    #[test]
    fn window_write_gains_pd_from_window_source_and_td_on_target() {
        // Figure 4a: O6 = Write(A, window(C, 10s)).
        let c_key = StateRef::new(T, 2);
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(T, 2, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            3,
            vec![OperationSpec::window_write(
                T,
                0,
                vec![c_key],
                10,
                udfs::window_sum(),
            )],
        ));
        let tpg = TpgBuilder::new().build(batch);
        tpg.validate().unwrap();
        // op2 (the window write) has a TD parent on A (op0) and a PD parent on
        // C (op1).
        let kinds: Vec<DepKind> = tpg.parents(2).iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&DepKind::Td));
        assert!(kinds.contains(&DepKind::Pd));
    }

    #[test]
    fn non_deterministic_ops_are_ordered_against_every_list() {
        // Figure 4b: O6 writes a UDF-resolved key; it must depend on the
        // latest earlier operation of every sorted list.
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(T, 1, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            3,
            vec![OperationSpec::non_det_write(
                T,
                Arc::new(|ts| ts % 2),
                vec![],
                udfs::set_value(7),
            )],
        ));
        batch.push(Transaction::new(
            4,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        let tpg = TpgBuilder::new().build(batch);
        tpg.validate().unwrap();
        // op2 is the non-det write; it depends on both earlier writes.
        let parents: Vec<OpId> = tpg.parents(2).iter().map(|(p, _)| *p).collect();
        assert!(parents.contains(&0));
        assert!(parents.contains(&1));
        // and the later write on key 0 depends on it.
        let parents3: Vec<OpId> = tpg.parents(3).iter().map(|(p, _)| *p).collect();
        assert!(parents3.contains(&2));
        // the non-det op's key spec stays unresolved at planning time.
        assert!(matches!(
            tpg.op(2).spec.target,
            KeySpec::NonDeterministic(_)
        ));
    }

    #[test]
    fn consecutive_non_det_ops_are_chained() {
        let mut batch = TransactionBatch::new();
        for ts in 1..=3u64 {
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::non_det_write(
                    T,
                    Arc::new(|ts| ts),
                    vec![],
                    udfs::set_value(1),
                )],
            ));
        }
        let tpg = TpgBuilder::new().build(batch);
        assert!(tpg.parents(1).iter().any(|(p, _)| *p == 0));
        assert!(tpg.parents(2).iter().any(|(p, _)| *p == 1));
    }

    /// Whether `to` is reachable from `from` along TD/PD edges.
    fn reaches(tpg: &Tpg, from: OpId, to: OpId) -> bool {
        let mut seen = vec![false; tpg.num_ops()];
        let mut stack = vec![from];
        while let Some(op) = stack.pop() {
            if op == to {
                return true;
            }
            for &(child, _) in tpg.children(op) {
                if !std::mem::replace(&mut seen[child], true) {
                    stack.push(child);
                }
            }
        }
        false
    }

    fn non_det_write(table: TableId) -> OperationSpec {
        OperationSpec::non_det_write(table, Arc::new(|ts| ts % 4), vec![], udfs::set_value(1))
    }

    #[test]
    fn non_det_ops_are_chained_per_table_across_same_transaction_runs() {
        // X1 and X2 are transaction A, X3 is transaction B: the chain must
        // order both X1 and X2 before X3.
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![non_det_write(T), non_det_write(T)],
        ));
        batch.push(Transaction::new(2, vec![non_det_write(T)]));
        // and a non-det op on another table joins no chain of `T`
        batch.push(Transaction::new(3, vec![non_det_write(TableId(1))]));
        batch.push(Transaction::new(4, vec![non_det_write(T)]));
        for shards in [1, 2, 4] {
            let tpg = TpgBuilder::new().with_threads(shards).build(batch.clone());
            tpg.validate().unwrap();
            // ops: 0 = X1, 1 = X2, 2 = X3, 3 = table 1, 4 = ts 4
            for (from, to) in [(0, 2), (1, 2), (0, 4), (1, 4), (2, 4)] {
                assert!(reaches(&tpg, from, to), "{from} -> {to} at {shards} shards");
            }
            assert!(tpg.parents(3).is_empty() && tpg.children(3).is_empty());
            assert!(!reaches(&tpg, 0, 1) && !reaches(&tpg, 1, 0));
        }
    }

    #[test]
    fn non_det_ops_take_no_list_entry_and_two_edges_per_real_op_at_most() {
        // 1 000 lists of one write each, and a non-det write after every
        // tenth: the edges must not grow with lists × non-det ops.
        let mut batch = TransactionBatch::new();
        for i in 0..1_000u64 {
            let ts = 2 * i + 1;
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::write(T, i, vec![], udfs::add_delta(1))],
            ));
            if i % 10 == 9 {
                batch.push(Transaction::new(ts + 1, vec![non_det_write(T)]));
            }
        }
        // a second table's lists gain nothing
        for i in 0..100u64 {
            batch.push(Transaction::new(
                2_001 + i,
                vec![OperationSpec::write(
                    TableId(1),
                    i,
                    vec![],
                    udfs::add_delta(1),
                )],
            ));
        }
        for shards in [1, 4] {
            let tpg = TpgBuilder::new().with_threads(shards).build(batch.clone());
            tpg.validate().unwrap();
            let s = tpg.stats();
            assert_eq!((s.num_ops, s.non_det_ops), (1_200, 100));
            assert_eq!(s.td_edges, 0);
            assert!(s.pd_edges <= 2 * 1_000 + 99, "{} PD edges", s.pd_edges);
            // ids 10, 21, 32, … are the non-det writes
            for op in (0..1_100).filter(|op| op % 11 != 10) {
                let (prev, next) = (op - op % 11, op - op % 11 + 10);
                assert!(reaches(&tpg, op, next), "{op} -> {next}");
                assert!(
                    prev == 0 || reaches(&tpg, prev - 1, op),
                    "{} -> {op}",
                    prev - 1
                );
            }
            assert!((1_100..1_200).all(|op| tpg.parents(op).is_empty()));
        }
    }

    /// xorshift64*, so the property test needs no dependency.
    fn next(state: &mut u64, below: u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below
    }

    /// A random batch over two tables of four keys: reads, writes with
    /// parameters in either table, non-det reads and writes; timestamps tie.
    fn random_batch(seed: u64) -> TransactionBatch {
        let mut rng = seed | 1;
        let mut batch = TransactionBatch::new();
        for _ in 0..1 + next(&mut rng, 12) {
            let ts = 1 + next(&mut rng, 8);
            let ops = (0..1 + next(&mut rng, 3))
                .map(|_| {
                    let table = TableId(next(&mut rng, 2) as u32);
                    let key = next(&mut rng, 4);
                    let params: Vec<StateRef> = (0..next(&mut rng, 3))
                        .map(|_| {
                            StateRef::new(TableId(next(&mut rng, 2) as u32), next(&mut rng, 4))
                        })
                        .collect();
                    match next(&mut rng, 4) {
                        0 => OperationSpec::read(table, key),
                        1 => OperationSpec::write(table, key, params, udfs::sum_params()),
                        2 => OperationSpec::non_det_read(table, Arc::new(|ts| ts % 4), None),
                        _ => OperationSpec::non_det_write(
                            table,
                            Arc::new(|ts| ts % 4),
                            params,
                            udfs::sum_params(),
                        ),
                    }
                })
                .collect();
            batch.push(Transaction::new(ts, ops));
        }
        batch
    }

    #[test]
    fn every_access_that_may_conflict_with_a_non_det_op_is_ordered() {
        for seed in 0..300u64 {
            for shards in [1, 2, 4] {
                let tpg = TpgBuilder::new()
                    .with_threads(shards)
                    .build(random_batch(seed));
                tpg.validate().unwrap();
                let ops = tpg.ops();
                let order = |o: &Operation| (o.ts, o.stmt, o.id);
                let non_det = |o: &Operation| o.spec.kind.is_non_deterministic();
                for (a, b) in ops.iter().flat_map(|a| ops.iter().map(move |b| (a, b))) {
                    if a.txn == b.txn || order(a) >= order(b) {
                        continue;
                    }
                    let same_table = a.spec.table == b.spec.table;
                    let must = match (non_det(a), non_det(b)) {
                        // a real op on (t, k) and a non-det op on t
                        (true, false) | (false, true) => same_table,
                        // two non-det ops on t, one of which writes
                        (true, true) => same_table && (a.is_write() || b.is_write()),
                        (false, false) => false,
                    };
                    // a non-det write on t, then a read of some (t, k) as a
                    // parameter
                    let param = non_det(a)
                        && a.is_write()
                        && b.spec.params.iter().any(|p| p.table == a.spec.table);
                    assert!(
                        !(must || param) || reaches(&tpg, a.id, b.id),
                        "seed {seed}, {shards} shards: op {} must precede op {}",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batch_builds_empty_tpg() {
        let tpg = TpgBuilder::new().build(TransactionBatch::new());
        assert_eq!(tpg.num_ops(), 0);
        assert_eq!(tpg.num_txns(), 0);
    }

    #[test]
    fn stats_reflect_special_operation_counts() {
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::window_read(T, 0, 100, udfs::window_sum()).with_cost_us(20),
                OperationSpec::non_det_write(T, Arc::new(|_| 3), vec![], udfs::set_value(1)),
                OperationSpec::write(
                    T,
                    1,
                    vec![StateRef::new(T, 0), StateRef::new(T, 2)],
                    udfs::sum_params(),
                ),
            ],
        ));
        let tpg = TpgBuilder::new().build(batch.clone().with_expected_abort_ratio(0.5));
        let s = tpg.stats();
        assert_eq!(s.window_ops, 1);
        assert_eq!(s.non_det_ops, 1);
        assert_eq!(s.multi_param_ops, 1);
        assert!(s.mean_cost_us > 0.0);
        assert_eq!(s.expected_abort_ratio, 0.5);
    }
}
