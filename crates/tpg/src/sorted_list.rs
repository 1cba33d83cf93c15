//! Per-key timestamp-sorted operation lists used during TPG construction.
//!
//! During the stream processing phase every operation is inserted into the
//! sorted list of the state it targets; operations that *reference* other
//! states (multi-state writes, window sources) additionally insert *virtual
//! operations* into the lists of those states (Sections 4.2–4.3). The
//! transaction processing phase then scans each list once to derive temporal
//! and parametric dependency edges, and orders the list against the
//! non-deterministic operations of its table (Section 4.4): those stand in no
//! list, since their key is resolved only at execution time.

use morphstream_common::{Key, OpId, TableId, Timestamp};

/// Deterministic shard assignment for a state key: which of `shards` workers
/// owns the sorted list of `(table, key)` during the parallel stream
/// processing phase. A 64-bit finalizer-style mix keeps consecutive keys from
/// landing on the same shard, so uniform key ranges spread evenly.
#[inline]
pub fn shard_of(table: TableId, key: Key, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut h = key ^ ((table.0 as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    (h % shards as u64) as usize
}

/// A non-deterministic operation as `(table, ts, stmt, op)`: a batch's sort
/// by this tuple groups them by table in `(ts, stmt, op)` order.
pub type NonDetOp = (TableId, Timestamp, u32, OpId);

/// An entry of a per-key sorted list: the operation `op` itself, when it
/// reads or writes this key, or a virtual operation standing in for its
/// reference to this key (a parameter of a multi-state write or a window
/// source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListEntry {
    /// Owning operation id.
    pub op: OpId,
    /// Owning operation timestamp.
    pub ts: Timestamp,
    /// Statement index (orders same-timestamp entries deterministically).
    pub stmt: u32,
    /// How the operation touches the key.
    pub access: EntryAccess,
}

/// How a list entry's operation touches the list's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryAccess {
    /// The operation reads the key.
    Read,
    /// The operation writes the key.
    Write,
    /// The owning operation's write value is a function of the key.
    Param,
    /// `Param` of an operation that targets another table: nothing else
    /// orders it against this table's non-deterministic operations.
    ForeignParam,
}

impl ListEntry {
    /// Sort key: timestamp, then statement, then op id for determinism.
    fn order_key(&self) -> (Timestamp, u32, OpId) {
        (self.ts, self.stmt, self.op)
    }

    /// Whether this entry is a real operation targeting the key.
    pub fn is_real(&self) -> bool {
        !matches!(self.access, EntryAccess::Param | EntryAccess::ForeignParam)
    }

    /// Whether this entry writes the key (only real writes do).
    pub fn is_write(&self) -> bool {
        self.access == EntryAccess::Write
    }
}

/// The sorted list of one key.
#[derive(Debug, Clone)]
pub struct SortedList {
    /// Table the list belongs to.
    pub table: TableId,
    entries: Vec<ListEntry>,
    sorted: bool,
}

impl SortedList {
    /// Empty list for a key of `table`.
    pub fn new(table: TableId) -> Self {
        Self {
            table,
            entries: Vec::new(),
            sorted: true,
        }
    }

    /// Append an entry (sorting is deferred to [`SortedList::finalize`]).
    pub fn push(&mut self, entry: ListEntry) {
        if let Some(last) = self.entries.last() {
            if last.order_key() > entry.order_key() {
                self.sorted = false;
            }
        }
        self.entries.push(entry);
    }

    /// Sort the entries by `(ts, stmt, op)` — idempotent.
    pub fn finalize(&mut self) {
        if !self.sorted {
            self.entries.sort_by_key(|e| e.order_key());
            self.sorted = true;
        }
    }

    /// Entries in timestamp order (call [`SortedList::finalize`] first).
    pub fn entries(&self) -> &[ListEntry] {
        debug_assert!(self.sorted, "finalize() must be called before reading");
        &self.entries
    }
}

/// Dependency edges derived from one sorted list by the transaction
/// processing phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivedEdges {
    /// Temporal dependency edges `(from, to)`.
    pub td: Vec<(OpId, OpId)>,
    /// Parametric dependency edges `(from, to)`.
    pub pd: Vec<(OpId, OpId)>,
}

/// Scan a finalized list and derive its TD/PD edges. `non_det` holds the
/// non-deterministic operations of the list's table in `(ts, stmt, op)`
/// order; same-transaction pairs are never linked.
///
/// Rules (Sections 4.2–4.4):
/// * the *real* entries form the TD chain (see [`chain_runs`]);
/// * a virtual entry gains a PD edge from the latest earlier *write* of this
///   key; a foreign one also from each operation of the latest earlier run
///   of `non_det` (one of those may have written this key);
/// * the real entries are ordered against `non_det` as if each of those
///   stood in the list: the run chain over both merged by `(ts, stmt, op)`,
///   keeping only its PD links between a real entry and a non-deterministic
///   operation — the TD chain and the builder's per-table chain of `non_det`
///   hold the others. Where `r_a < n_1 < … < n_k < r_b` that is
///   `r_a → n_1` and `n_k → r_b`.
///
/// Only neighbouring runs are linked; farther ordering is implied
/// transitively. With `non_det` empty no step looks at it.
pub fn derive_edges(
    list: &SortedList,
    non_det: &[NonDetOp],
    same_txn: impl Fn(OpId, OpId) -> bool + Copy,
) -> DerivedEdges {
    let mut edges = DerivedEdges::default();
    let entries = list.entries();
    let earlier = |ops: &[NonDetOp], entry: &ListEntry| {
        ops.partition_point(|n| (n.1, n.2, n.3) < entry.order_key())
    };

    chain_runs(
        entries,
        ListEntry::is_real,
        |a, b| same_txn(a.op, b.op),
        |a, b| edges.td.push((a.op, b.op)),
    );

    for (idx, entry) in entries.iter().enumerate().filter(|(_, e)| !e.is_real()) {
        let op = entry.op;
        if let Some(writer) = entries[..idx]
            .iter()
            .rev()
            .find(|e| e.is_write() && !same_txn(e.op, op) && e.op != op)
        {
            edges.pd.push((writer.op, op));
        }
        if entry.access == EntryAccess::ForeignParam && !non_det.is_empty() {
            let before = &non_det[..earlier(non_det, entry)];
            let mut run = before.iter().rev().skip_while(|n| same_txn(n.3, op));
            if let Some(&(.., last)) = run.next() {
                edges.pd.push((last, op));
                edges
                    .pd
                    .extend(run.take_while(|n| same_txn(n.3, last)).map(|n| (n.3, op)));
            }
        }
    }

    if non_det.is_empty() {
        return edges;
    }
    // The merged sequence, one gap of `non_det` before each real entry and
    // one after the last. Only a gap's first and last two runs can border a
    // real entry's run, so a longer gap loses its middle — which also cuts
    // the chain there, as nothing in it needs a link. Each gap is one binary
    // search: O(real entries × log non-det).
    let (mut seq, mut rest) = (Vec::<(OpId, bool)>::new(), non_det);
    let mut link = |seq: &mut Vec<(OpId, bool)>| {
        chain_runs(
            seq,
            |_| true,
            |a, b| same_txn(a.0, b.0),
            |a, b| {
                if a.1 != b.1 {
                    edges.pd.push((a.0, b.0));
                }
            },
        );
        seq.clear();
    };
    let reals = entries.iter().filter(|e| e.is_real());
    for real in reals.map(Some).chain([None]) {
        let (gap, tail) = rest.split_at(real.map_or(rest.len(), |r| earlier(rest, r)));
        let front = two_runs(gap.iter().map(|n| n.3), same_txn);
        let back = gap.len() - two_runs(gap.iter().rev().map(|n| n.3), same_txn);
        if front < back {
            seq.extend(gap[..front].iter().map(|n| (n.3, false)));
            link(&mut seq);
            seq.extend(gap[back..].iter().map(|n| (n.3, false)));
        } else {
            seq.extend(gap.iter().map(|n| (n.3, false)));
        }
        seq.extend(real.map(|r| (r.op, true)));
        rest = tail;
    }
    link(&mut seq);
    edges
}

/// How many leading `ops` the first two runs (of one transaction each) hold.
fn two_runs(ops: impl Iterator<Item = OpId>, same_txn: impl Fn(OpId, OpId) -> bool) -> usize {
    let (mut runs, mut last) = (0, None);
    ops.take_while(|&op| {
        runs += usize::from(!last.is_some_and(|last| same_txn(last, op)));
        last = Some(op);
        runs <= 2
    })
    .count()
}

/// The run chain over the `keep` items of `items`: `link(a, b)` for each item
/// `b` and each item `a` of the run before `b`'s, where a run is a maximal
/// stretch of one transaction's items (dropped items inside it do not end
/// it). Nothing orders one transaction's operations against each other, so
/// each item of a run must order the next run: linking only nearest
/// neighbours would let `W1 R1 | W2` (a transaction writing and reading the
/// key, then a later writer) order `W2` after `R1` alone and race it against
/// `W1`.
pub(crate) fn chain_runs<T>(
    items: &[T],
    keep: impl Fn(&T) -> bool,
    same_txn: impl Fn(&T, &T) -> bool,
    mut link: impl FnMut(&T, &T),
) {
    let (mut prev_run, mut run) = (0..0, 0..0);
    for (idx, item) in items.iter().enumerate().filter(|(_, e)| keep(e)) {
        if run.is_empty() || !same_txn(&items[run.start], item) {
            prev_run = std::mem::replace(&mut run, idx..idx);
        }
        run.end = idx + 1;
        for prev in items[prev_run.clone()].iter().filter(|e| keep(e)) {
            link(prev, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(op: OpId, ts: Timestamp, is_write: bool) -> ListEntry {
        let access = if is_write {
            EntryAccess::Write
        } else {
            EntryAccess::Read
        };
        ListEntry {
            op,
            ts,
            stmt: 0,
            access,
        }
    }

    fn virt(op: OpId, ts: Timestamp) -> ListEntry {
        let access = EntryAccess::ForeignParam;
        ListEntry {
            op,
            ts,
            stmt: 0,
            access,
        }
    }

    fn nd(op: OpId, ts: Timestamp) -> NonDetOp {
        (TableId(0), ts, 0, op)
    }

    #[test]
    fn entries_sort_by_timestamp_on_finalize() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(2, 20, true));
        list.push(real(1, 10, true));
        list.push(real(3, 30, false));
        list.finalize();
        let ids: Vec<OpId> = list.entries().iter().map(|e| e.op).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn td_edges_chain_consecutive_real_entries_across_txns() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 20, false));
        list.push(real(2, 30, true));
        list.finalize();
        let edges = derive_edges(&list, &[], |_, _| false);
        assert_eq!(edges.td, vec![(0, 1), (1, 2)]);
        assert!(edges.pd.is_empty());
    }

    #[test]
    fn same_transaction_entries_do_not_create_td_edges() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 10, true));
        list.finalize();
        let same_txn = |a, b| (a, b) == (0, 1) || (a, b) == (1, 0);
        assert!(derive_edges(&list, &[], same_txn).td.is_empty());

        // ...but both order the next transaction's entry: unordered against
        // each other, neither stands in for the other in the chain.
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 10, false));
        list.push(real(2, 20, true));
        list.finalize();
        assert_eq!(derive_edges(&list, &[], same_txn).td, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn param_source_links_to_latest_earlier_write() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 20, false)); // read, must be skipped
        list.push(virt(5, 30));
        list.finalize();
        let edges = derive_edges(&list, &[], |_, _| false);
        assert_eq!(edges.pd, vec![(0, 5)]);
    }

    #[test]
    fn param_source_with_no_earlier_write_produces_no_edge() {
        let mut list = SortedList::new(TableId(0));
        list.push(virt(5, 5));
        list.push(real(0, 10, true));
        list.finalize();
        let edges = derive_edges(&list, &[], |_, _| false);
        assert!(edges.pd.is_empty());
        assert!(edges.td.is_empty());
    }

    #[test]
    fn non_det_ops_between_two_real_entries_are_bracketed_by_them() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 20, false));
        list.finalize();
        // a long gap keeps only its ends: 0 -> 10 and 18 -> 1
        let non_det: Vec<NonDetOp> = (10..19).map(|op| nd(op, op as u64 + 1)).collect();
        let edges = derive_edges(&list, &non_det, |_, _| false);
        assert_eq!(edges.td, vec![(0, 1)]);
        assert_eq!(edges.pd, vec![(0, 10), (18, 1)]);
        // before the first and after the last real entry
        let edges = derive_edges(&list, &[nd(7, 5), nd(8, 25)], |_, _| false);
        assert_eq!(edges.pd, vec![(7, 0), (1, 8)]);
    }

    #[test]
    fn non_det_ops_are_ordered_against_every_entry_of_a_same_transaction_run() {
        // W1 R1 (one transaction), then a non-det op, then W2 and its own
        // non-det op, then another non-det op.
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(real(1, 10, false));
        list.push(real(3, 30, true));
        list.finalize();
        let txn = |op: OpId| [0, 0, 1, 2, 2, 3][op];
        let same_txn = |a, b| txn(a) == txn(b);
        let non_det = [nd(2, 20), (TableId(0), 30, 1, 4), nd(5, 40)];
        let edges = derive_edges(&list, &non_det, same_txn);
        assert_eq!(edges.td, vec![(0, 3), (1, 3)]);
        assert_eq!(edges.pd, vec![(0, 2), (1, 2), (2, 3), (3, 5)]);
    }

    #[test]
    fn a_param_source_follows_the_latest_earlier_non_det_run() {
        let mut list = SortedList::new(TableId(0));
        list.push(real(0, 10, true));
        list.push(virt(9, 30));
        list.finalize();
        // ops 2 and 3 are one transaction; op 4 is the param's own
        let txn = |op: OpId| [0, 1, 2, 2, 9, 5, 6, 7, 8, 9][op];
        let non_det = [nd(1, 15), nd(2, 20), nd(3, 20), nd(4, 30)];
        let edges = derive_edges(&list, &non_det, |a, b| txn(a) == txn(b));
        assert_eq!(edges.pd, vec![(0, 9), (3, 9), (2, 9), (0, 1)]);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for key in 0..256u64 {
                let s = shard_of(TableId(1), key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(TableId(1), key, shards));
            }
        }
        // one shard owns everything
        assert_eq!(shard_of(TableId(3), 12345, 1), 0);
        // the mix spreads a contiguous key range over all shards
        let hit: std::collections::HashSet<usize> =
            (0..64u64).map(|k| shard_of(TableId(0), k, 4)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn entry_accessors_expose_owner_and_flags() {
        let (r, v) = (real(3, 12, true), virt(4, 9));
        assert_eq!((r.op, r.ts, v.op, v.ts), (3, 12, 4, 9));
        assert!(r.is_real() && r.is_write());
        assert!(real(3, 12, false).is_real() && !real(3, 12, false).is_write());
        assert!(!v.is_real() && !v.is_write());
    }
}
