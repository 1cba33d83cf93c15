//! Per-key timestamp-sorted operation lists used during TPG construction.
//!
//! During the stream processing phase every operation is inserted into the
//! sorted list of the state it targets; operations that *reference* other
//! states (multi-state writes, window sources, non-deterministic accesses)
//! additionally insert *virtual operations* into the lists of those states
//! (Sections 4.2–4.4). The transaction processing phase then scans each list
//! once to derive temporal and parametric dependency edges.

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

/// Why a virtual operation was inserted into a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtualRole {
    /// The owning operation's write value is a function of this state
    /// (a parameter of a multi-state write or windowed write).
    ParamSource,
    /// The owning operation accesses a non-deterministically resolved state,
    /// so it must pessimistically be ordered against this list as well.
    NonDetPlaceholder,
}

/// An entry of a per-key sorted list: either the operation itself (it targets
/// this key) or a virtual operation standing in for a reference to this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListEntry {
    /// The operation targets this key.
    Real {
        /// Operation id.
        op: OpId,
        /// Operation timestamp.
        ts: Timestamp,
        /// Statement index (orders same-timestamp entries deterministically).
        stmt: u32,
        /// Whether the operation writes the key.
        is_write: bool,
    },
    /// A virtual operation owned by `op`.
    Virtual {
        /// Owning operation id.
        op: OpId,
        /// Owning operation timestamp.
        ts: Timestamp,
        /// Statement index of the owning operation.
        stmt: u32,
        /// Why the virtual operation exists.
        role: VirtualRole,
    },
}

impl ListEntry {
    /// Operation that owns the entry.
    pub fn op(&self) -> OpId {
        match self {
            ListEntry::Real { op, .. } | ListEntry::Virtual { op, .. } => *op,
        }
    }

    /// Timestamp of the owning operation.
    pub fn ts(&self) -> Timestamp {
        match self {
            ListEntry::Real { ts, .. } | ListEntry::Virtual { ts, .. } => *ts,
        }
    }

    /// Statement index of the owning operation.
    pub fn stmt(&self) -> u32 {
        match self {
            ListEntry::Real { stmt, .. } | ListEntry::Virtual { stmt, .. } => *stmt,
        }
    }

    /// Sort key: timestamp, then statement, then op id for determinism.
    fn order_key(&self) -> (Timestamp, u32, OpId) {
        (self.ts(), self.stmt(), self.op())
    }

    /// Whether this entry is a real operation targeting the key.
    pub fn is_real(&self) -> bool {
        matches!(self, ListEntry::Real { .. })
    }

    /// Whether this entry writes the key (only real writes do).
    pub fn is_write(&self) -> bool {
        matches!(self, ListEntry::Real { is_write: true, .. })
    }

    /// Whether this is a non-deterministic placeholder.
    pub fn is_non_det(&self) -> bool {
        matches!(
            self,
            ListEntry::Virtual {
                role: VirtualRole::NonDetPlaceholder,
                ..
            }
        )
    }
}

/// The sorted list of one key.
#[derive(Debug, Clone, Default)]
pub struct SortedList {
    /// Key the list belongs to.
    pub table: Option<TableId>,
    /// Key the list belongs to.
    pub key: Key,
    entries: Vec<ListEntry>,
    sorted: bool,
}

impl SortedList {
    /// Empty list for `(table, key)`.
    pub fn new(table: TableId, key: Key) -> Self {
        Self {
            table: Some(table),
            key,
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

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of real entries (operations that actually target the key).
    pub fn real_len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_real()).count()
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

/// Scan a finalized list and derive its TD/PD edges.
///
/// Rules (Sections 4.2–4.4):
/// * consecutive *real* entries of different transactions produce a TD edge
///   from the earlier to the later operation — where a transaction has
///   several consecutive entries in the list, from each of its entries, since
///   nothing orders the operations of one transaction against each other;
/// * a `ParamSource` virtual entry produces a PD edge from the latest earlier
///   *write* of this key to the owning operation;
/// * a `NonDetPlaceholder` participates in the ordering chain in both
///   directions: it gains a PD edge from the latest earlier real entry and
///   the next later real entry gains a PD edge from it (the pessimistic
///   assumption that the non-deterministic operation may read or write this
///   key).
///
/// Only the nearest neighbour is linked in each case; farther ordering is
/// implied transitively by the per-key TD chain.
pub fn derive_edges(list: &SortedList, same_txn: impl Fn(OpId, OpId) -> bool) -> DerivedEdges {
    let mut edges = DerivedEdges::default();
    let entries = list.entries();

    // --- TD chain over real entries ---
    // One link of the chain is a run of entries of the same transaction:
    // linking only nearest neighbours would let `W1 R1 | W2` (a transaction
    // writing and reading the key, then a later writer) order `W2` after
    // `R1` alone and race it against `W1`.
    // (Runs are spans of `entries`; virtual entries inside one are skipped.)
    let (mut prev_run, mut run) = (0..0, 0..0);
    for (idx, entry) in entries.iter().enumerate().filter(|(_, e)| e.is_real()) {
        if run.is_empty() || !same_txn(entries[run.start].op(), entry.op()) {
            prev_run = std::mem::replace(&mut run, idx..idx);
        }
        run.end = idx + 1;
        let parents = entries[prev_run.clone()].iter().filter(|e| e.is_real());
        edges.td.extend(parents.map(|prev| (prev.op(), entry.op())));
    }

    // --- PD edges from virtual entries ---
    for (idx, entry) in entries.iter().enumerate() {
        match entry {
            ListEntry::Virtual {
                op,
                role: VirtualRole::ParamSource,
                ..
            } => {
                // latest earlier write of this key
                if let Some(writer) = entries[..idx]
                    .iter()
                    .rev()
                    .find(|e| e.is_write() && !same_txn(e.op(), *op) && e.op() != *op)
                {
                    edges.pd.push((writer.op(), *op));
                }
            }
            ListEntry::Virtual {
                op,
                role: VirtualRole::NonDetPlaceholder,
                ..
            } => {
                // incoming: latest earlier real entry
                if let Some(prev) = entries[..idx]
                    .iter()
                    .rev()
                    .find(|e| e.is_real() && !same_txn(e.op(), *op) && e.op() != *op)
                {
                    edges.pd.push((prev.op(), *op));
                }
                // outgoing: next later real entry pessimistically depends on us
                if let Some(next) = entries[idx + 1..]
                    .iter()
                    .find(|e| e.is_real() && !same_txn(e.op(), *op) && e.op() != *op)
                {
                    edges.pd.push((*op, next.op()));
                }
            }
            ListEntry::Real { .. } => {}
        }
    }

    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(op: OpId, ts: Timestamp, is_write: bool) -> ListEntry {
        ListEntry::Real {
            op,
            ts,
            stmt: 0,
            is_write,
        }
    }

    fn virt(op: OpId, ts: Timestamp, role: VirtualRole) -> ListEntry {
        ListEntry::Virtual {
            op,
            ts,
            stmt: 0,
            role,
        }
    }

    #[test]
    fn entries_sort_by_timestamp_on_finalize() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(2, 20, true));
        list.push(real(1, 10, true));
        list.push(real(3, 30, false));
        list.finalize();
        let ids: Vec<OpId> = list.entries().iter().map(ListEntry::op).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(list.len(), 3);
        assert_eq!(list.real_len(), 3);
        assert!(!list.is_empty());
    }

    #[test]
    fn td_edges_chain_consecutive_real_entries_across_txns() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(0, 10, true));
        list.push(real(1, 20, false));
        list.push(real(2, 30, true));
        list.finalize();
        let edges = derive_edges(&list, |_, _| false);
        assert_eq!(edges.td, vec![(0, 1), (1, 2)]);
        assert!(edges.pd.is_empty());
    }

    #[test]
    fn same_transaction_entries_do_not_create_td_edges() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(0, 10, true));
        list.push(real(1, 10, true));
        list.finalize();
        let same_txn = |a, b| (a, b) == (0, 1) || (a, b) == (1, 0);
        assert!(derive_edges(&list, same_txn).td.is_empty());

        // ...but both order the next transaction's entry: unordered against
        // each other, neither stands in for the other in the chain.
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(0, 10, true));
        list.push(real(1, 10, false));
        list.push(real(2, 20, true));
        list.finalize();
        assert_eq!(derive_edges(&list, same_txn).td, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn param_source_links_to_latest_earlier_write() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(0, 10, true));
        list.push(real(1, 20, false)); // read, must be skipped
        list.push(virt(5, 30, VirtualRole::ParamSource));
        list.finalize();
        let edges = derive_edges(&list, |_, _| false);
        assert_eq!(edges.pd, vec![(0, 5)]);
    }

    #[test]
    fn param_source_with_no_earlier_write_produces_no_edge() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(virt(5, 5, VirtualRole::ParamSource));
        list.push(real(0, 10, true));
        list.finalize();
        let edges = derive_edges(&list, |_, _| false);
        assert!(edges.pd.is_empty());
        assert!(edges.td.is_empty());
    }

    #[test]
    fn non_det_placeholder_is_ordered_in_both_directions() {
        let mut list = SortedList::new(TableId(0), 1);
        list.push(real(0, 10, true));
        list.push(virt(7, 15, VirtualRole::NonDetPlaceholder));
        list.push(real(1, 20, true));
        list.finalize();
        let edges = derive_edges(&list, |_, _| false);
        assert!(edges.pd.contains(&(0, 7)));
        assert!(edges.pd.contains(&(7, 1)));
        // the TD chain between the two real ops still exists
        assert_eq!(edges.td, vec![(0, 1)]);
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
        let r = real(3, 12, true);
        assert_eq!(r.op(), 3);
        assert_eq!(r.ts(), 12);
        assert!(r.is_real());
        assert!(r.is_write());
        assert!(!r.is_non_det());
        let v = virt(4, 9, VirtualRole::NonDetPlaceholder);
        assert!(!v.is_real());
        assert!(!v.is_write());
        assert!(v.is_non_det());
        assert_eq!(v.stmt(), 0);
    }
}
