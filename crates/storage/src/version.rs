//! Per-key version chains.

use morphstream_common::{Timestamp, Value};

/// Identifies the operation that wrote a version, so that aborting that
/// operation can remove exactly the versions it produced. Engines use the
/// batch-global operation id; the initial seed version uses [`INITIAL_WRITER`].
pub type WriterId = u64;

/// Writer id of the version seeded when a key is created.
pub const INITIAL_WRITER: WriterId = u64::MAX;

/// One version of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// Event timestamp of the writing operation.
    pub ts: Timestamp,
    /// Statement index of the writing operation inside its transaction. Used
    /// to order the reads and writes of operations that share a timestamp
    /// (i.e. belong to the same state transaction).
    pub stmt: u32,
    /// Operation that produced the version.
    pub writer: WriterId,
    /// The stored value.
    pub value: Value,
}

impl Version {
    fn order_key(&self) -> (Timestamp, u32) {
        (self.ts, self.stmt)
    }
}

/// Versions a chain keeps inside its table slot. Two cover the common case:
/// a key's committed version plus the one write this batch gives it, until
/// the after-batch reclaim cuts the chain back to one. A third version
/// spills the chain to the heap. With one slot every batch write would
/// spill; a third slot only makes every map slot bigger.
const INLINE: usize = 2;

/// What an unused inline slot holds; never visible through the chain.
const VACANT: Version = Version {
    ts: 0,
    stmt: 0,
    writer: 0,
    value: 0,
};

/// An append-mostly, timestamp-ordered chain of versions for a single key.
///
/// The chain keeps versions sorted by `(ts, stmt)`. Appends at the tail (the
/// common case under in-order execution) are O(1); out-of-order inserts —
/// which happen under speculative execution — fall back to a binary-search
/// insert.
///
/// Up to two versions live inline, inside the chain and so inside the
/// table's map slot: reading or writing such a key touches no heap, and
/// creating one allocates nothing. A third version moves the whole chain to
/// a heap `Vec`; a rollback or reclaim that leaves two or fewer moves them
/// back inline and keeps the `Vec`'s capacity for the key's next spill.
#[derive(Clone)]
pub struct VersionChain {
    /// The versions while there are at most [`INLINE`] of them, in
    /// `inline[..inline_len]`.
    inline: [Version; INLINE],
    /// Versions in `inline`; 0 while spilled.
    inline_len: u8,
    /// Every version while there are more than [`INLINE`]; empty otherwise,
    /// but keeping the capacity of the last spill.
    spill: Vec<Version>,
    /// Set while the owning table lists this chain's key among those a
    /// reclaim must visit (see `MvTable::truncate_before`), so a key is
    /// listed at most once however often its chain regrows.
    pub(crate) listed: bool,
}

impl Default for VersionChain {
    fn default() -> Self {
        Self {
            inline: [VACANT; INLINE],
            inline_len: 0,
            spill: Vec::new(),
            listed: false,
        }
    }
}

impl std::fmt::Debug for VersionChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionChain")
            .field("versions", &self.versions())
            .field("listed", &self.listed)
            .finish()
    }
}

impl VersionChain {
    /// Chain holding a single initial version at timestamp 0.
    pub fn with_initial(value: Value) -> Self {
        let mut chain = Self::default();
        chain.inline[0] = Version {
            ts: 0,
            stmt: 0,
            writer: INITIAL_WRITER,
            value,
        };
        chain.inline_len = 1;
        chain
    }

    /// Number of stored versions.
    #[inline]
    pub fn len(&self) -> usize {
        self.versions().len()
    }

    /// True for a [`Default`] chain, which holds no versions. A table's
    /// chains start at one version and truncation always keeps one; only a
    /// rollback of a chain's last version, which the engines never ask
    /// for, could empty one.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All versions in timestamp order.
    #[inline]
    pub fn versions(&self) -> &[Version] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }

    fn versions_mut(&mut self) -> &mut [Version] {
        if self.spill.is_empty() {
            &mut self.inline[..self.inline_len as usize]
        } else {
            &mut self.spill
        }
    }

    /// Keep the first `len` versions. A spilled chain left with at most
    /// [`INLINE`] moves them back into the slot, keeping the heap capacity.
    fn truncate(&mut self, len: usize) {
        if self.spill.is_empty() {
            self.inline_len = len as u8;
        } else if len <= INLINE {
            self.inline[..len].copy_from_slice(&self.spill[..len]);
            self.inline_len = len as u8;
            self.spill.clear();
        } else {
            self.spill.truncate(len);
        }
    }

    /// Insert a version, keeping timestamp order.
    pub fn insert(&mut self, version: Version) {
        let versions = self.versions();
        let len = versions.len();
        let idx = match versions.last() {
            Some(last) if last.order_key() > version.order_key() => {
                versions.partition_point(|v| v.order_key() <= version.order_key())
            }
            _ => len,
        };
        if !self.spill.is_empty() {
            self.spill.insert(idx, version);
        } else if len < INLINE {
            self.inline.copy_within(idx..len, idx + 1);
            self.inline[idx] = version;
            self.inline_len += 1;
        } else {
            // The slot is full: spill, into the capacity of an earlier
            // spill when there is one.
            self.spill.reserve(INLINE + 1);
            self.spill.extend_from_slice(&self.inline[..idx]);
            self.spill.push(version);
            self.spill.extend_from_slice(&self.inline[idx..]);
            self.inline_len = 0;
        }
    }

    /// Latest version strictly *before* the reader position `(ts, stmt)`.
    ///
    /// This is the visibility rule of the multi-version table: an operation
    /// with timestamp `ts` and statement index `stmt` sees the newest version
    /// produced by any earlier-timestamped operation, or by an earlier
    /// statement of its own transaction.
    pub fn read_before(&self, ts: Timestamp, stmt: u32) -> Option<&Version> {
        let versions = self.versions();
        let idx = versions.partition_point(|v| v.order_key() < (ts, stmt));
        idx.checked_sub(1).map(|i| &versions[i])
    }

    /// Latest committed version overall.
    pub fn latest(&self) -> Option<&Version> {
        self.versions().last()
    }

    /// Every version whose timestamp lies in the window `[lo, hi]`, in
    /// timestamp order. Used by windowed reads (Section 6.5.1). The chain is
    /// sorted by timestamp, so the window is found by binary search, not by
    /// a walk over the key's whole history.
    pub fn window(&self, lo: Timestamp, hi: Timestamp) -> Vec<Version> {
        let versions = self.versions();
        let start = versions.partition_point(|v| v.ts < lo);
        let end = versions.partition_point(|v| v.ts <= hi);
        versions[start..end.max(start)].to_vec()
    }

    /// Remove the versions written by `writer` at exactly `ts` and return how
    /// many were removed. This is abort rollback: the latest remaining version
    /// is automatically the latest prior to the aborted operation. Writer ids
    /// are batch-local operation ids and recur in every batch, so the removal
    /// is scoped to the aborting transaction's own timestamp — a version that
    /// survived from an earlier batch can never be collaterally deleted by a
    /// later abort that happens to reuse the writer id.
    ///
    /// The chain is sorted by `(ts, stmt)`, so only the versions at `ts` are
    /// looked at: found by binary search and compacted in place, moving the
    /// newer tail once.
    pub fn remove_writer_at(&mut self, writer: WriterId, ts: Timestamp) -> usize {
        let versions = self.versions_mut();
        let len = versions.len();
        let start = versions.partition_point(|v| v.ts < ts);
        let end = start + versions[start..].partition_point(|v| v.ts == ts);
        let mut kept = start;
        for i in start..end {
            if versions[i].writer != writer {
                versions[kept] = versions[i];
                kept += 1;
            }
        }
        if kept < end {
            versions.copy_within(end.., kept);
            self.truncate(len - (end - kept));
        }
        end - kept
    }

    /// Drop every version except the newest one at or before `ts`, plus any
    /// versions newer than `ts`. This is the after-batch clean-up used when
    /// `reclaim_after_batch` is enabled (Figure 17).
    pub fn truncate_before(&mut self, ts: Timestamp) {
        let versions = self.versions_mut();
        let len = versions.len();
        let keep_from = versions.partition_point(|v| v.order_key() <= (ts, u32::MAX));
        if keep_from > 1 {
            versions.copy_within(keep_from - 1.., 0);
            self.truncate(len - (keep_from - 1));
        }
    }

    /// Bytes this chain holds: its inline slots plus the heap capacity its
    /// spills have left it. Never shrinks.
    pub fn bytes_retained(&self) -> u64 {
        ((INLINE + self.spill.capacity()) * std::mem::size_of::<Version>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ts: Timestamp, stmt: u32, writer: WriterId, value: Value) -> Version {
        Version {
            ts,
            stmt,
            writer,
            value,
        }
    }

    #[test]
    fn initial_chain_has_seed_version() {
        let chain = VersionChain::with_initial(100);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.latest().unwrap().value, 100);
        assert_eq!(chain.latest().unwrap().writer, INITIAL_WRITER);
    }

    #[test]
    fn inserts_keep_timestamp_order_even_out_of_order() {
        let mut chain = VersionChain::with_initial(0);
        chain.insert(v(5, 0, 1, 50));
        chain.insert(v(3, 0, 2, 30));
        chain.insert(v(7, 0, 3, 70));
        chain.insert(v(3, 1, 4, 31));
        let ts: Vec<(Timestamp, u32)> = chain.versions().iter().map(|x| (x.ts, x.stmt)).collect();
        assert_eq!(ts, vec![(0, 0), (3, 0), (3, 1), (5, 0), (7, 0)]);
    }

    #[test]
    fn read_before_sees_latest_strictly_prior_version() {
        let mut chain = VersionChain::with_initial(0);
        chain.insert(v(10, 0, 1, 100));
        chain.insert(v(20, 0, 2, 200));
        assert_eq!(chain.read_before(15, 0).unwrap().value, 100);
        assert_eq!(chain.read_before(20, 0).unwrap().value, 100);
        assert_eq!(chain.read_before(21, 0).unwrap().value, 200);
        assert_eq!(chain.read_before(0, 0), None);
    }

    #[test]
    fn same_timestamp_visibility_follows_statement_order() {
        let mut chain = VersionChain::with_initial(1);
        chain.insert(v(10, 0, 1, 11));
        chain.insert(v(10, 2, 2, 13));
        // statement 1 of the same transaction sees statement 0's write.
        assert_eq!(chain.read_before(10, 1).unwrap().value, 11);
        // statement 3 sees statement 2's write.
        assert_eq!(chain.read_before(10, 3).unwrap().value, 13);
        // statement 0 sees only the initial version.
        assert_eq!(chain.read_before(10, 0).unwrap().value, 1);
    }

    #[test]
    fn window_returns_only_in_range_versions() {
        let mut chain = VersionChain::with_initial(0);
        for ts in [5u64, 10, 15, 20, 25] {
            chain.insert(v(ts, 0, ts, ts as Value));
        }
        let win: Vec<Value> = chain.window(10, 20).iter().map(|x| x.value).collect();
        assert_eq!(win, vec![10, 15, 20]);
        assert!(chain.window(100, 200).is_empty());
    }

    #[test]
    fn removing_a_writer_restores_prior_visibility() {
        let mut chain = VersionChain::with_initial(0);
        chain.insert(v(10, 0, 1, 100));
        chain.insert(v(20, 0, 2, 200));
        assert_eq!(chain.read_before(30, 0).unwrap().value, 200);
        assert_eq!(chain.remove_writer_at(2, 20), 1);
        assert_eq!(chain.read_before(30, 0).unwrap().value, 100);
        // removing a non-existent writer is a no-op
        assert_eq!(chain.remove_writer_at(99, 20), 0);
    }

    /// Random chains built by out-of-order inserts, with few timestamps (so
    /// many ties) and few writer ids (so ids recur across timestamps, as
    /// batch-local operation ids do across batches): removing any writer at
    /// any timestamp leaves what the linear scan it replaced would leave.
    #[test]
    fn remove_writer_at_matches_a_linear_scan_on_random_chains() {
        let mut rng = morphstream_common::rng::DetRng::new(0x5eed);
        for _ in 0..500 {
            let mut chain = VersionChain::with_initial(0);
            for i in 0..rng.next_below(24) {
                let ts = 1 + rng.next_below(6);
                let stmt = rng.next_below(3) as u32;
                chain.insert(v(ts, stmt, rng.next_below(4), i as Value));
            }
            let (writer, ts) = (rng.next_below(5), rng.next_below(8));
            let before = chain.len();
            let mut linear = chain.versions().to_vec();
            linear.retain(|v| v.writer != writer || v.ts != ts);

            let removed = chain.remove_writer_at(writer, ts);
            assert_eq!(chain.versions(), &linear[..]);
            assert_eq!(removed, before - linear.len());
            assert!(chain
                .versions()
                .windows(2)
                .all(|w| w[0].order_key() <= w[1].order_key()));
        }
    }

    #[test]
    fn truncate_before_keeps_latest_visible_version() {
        let mut chain = VersionChain::with_initial(0);
        chain.insert(v(10, 0, 1, 100));
        chain.insert(v(20, 0, 2, 200));
        chain.insert(v(30, 0, 3, 300));
        chain.truncate_before(25);
        // versions 0 and 10 dropped; 20 kept (latest <= 25); 30 kept (future).
        let ts: Vec<Timestamp> = chain.versions().iter().map(|x| x.ts).collect();
        assert_eq!(ts, vec![20, 30]);
        assert_eq!(chain.read_before(26, 0).unwrap().value, 200);
    }

    /// The chain as a plain sorted `Vec`, each operation a linear scan: what
    /// every step of [`VersionChain`] must agree with, inline or spilled.
    #[derive(Default)]
    struct Oracle(Vec<Version>);

    impl Oracle {
        fn insert(&mut self, version: Version) {
            let after = self
                .0
                .iter()
                .rposition(|v| v.order_key() <= version.order_key());
            self.0.insert(after.map_or(0, |i| i + 1), version);
        }

        fn remove_writer_at(&mut self, writer: WriterId, ts: Timestamp) -> usize {
            let before = self.0.len();
            self.0.retain(|v| v.writer != writer || v.ts != ts);
            before - self.0.len()
        }

        fn truncate_before(&mut self, ts: Timestamp) {
            let newest_at_ts = self.0.iter().rposition(|v| v.ts <= ts);
            self.0.drain(..newest_at_ts.unwrap_or(0));
        }

        fn read_before(&self, ts: Timestamp, stmt: u32) -> Option<&Version> {
            self.0.iter().rev().find(|v| v.order_key() < (ts, stmt))
        }

        fn window(&self, lo: Timestamp, hi: Timestamp) -> Vec<Version> {
            self.0
                .iter()
                .filter(|v| (lo..=hi).contains(&v.ts))
                .copied()
                .collect()
        }
    }

    /// Every read of `chain` answers what the oracle does, and the chain is
    /// spilled exactly when it holds more than fits inline.
    fn assert_agrees(chain: &VersionChain, oracle: &Oracle, step: &str) {
        assert_eq!(chain.versions(), &oracle.0[..], "{step}");
        assert_eq!(chain.len(), oracle.0.len(), "{step}");
        assert_eq!(chain.latest(), oracle.0.last(), "{step}");
        assert_eq!(chain.spill.is_empty(), chain.len() <= INLINE, "{step}");
        for ts in 0..=12 {
            for stmt in 0..3 {
                let (got, want) = (chain.read_before(ts, stmt), oracle.read_before(ts, stmt));
                assert_eq!(got, want, "{step}: read_before({ts}, {stmt})");
            }
            for hi in ts.saturating_sub(1)..=12 {
                assert_eq!(
                    chain.window(ts, hi),
                    oracle.window(ts, hi),
                    "{step}: window"
                );
            }
        }
    }

    /// One chain walked across the inline/spill boundary in both directions:
    /// out-of-order inserts and `(ts, stmt)` ties landing on the boundary,
    /// then rollback and truncation back to one version, compared with a
    /// `Vec` after every step. A second spill reuses the first's capacity.
    #[test]
    fn a_chain_crossing_the_inline_boundary_both_ways_agrees_with_a_vec() {
        enum Op {
            Insert(Timestamp, u32, WriterId),
            Remove(WriterId, Timestamp),
            Truncate(Timestamp),
        }
        use Op::*;
        let script = [
            Insert(5, 1, 1),  // 2 versions, inline
            Insert(5, 1, 2),  // a (ts, stmt) tie on a full slot: spills, after the tie
            Insert(5, 0, 3),  // out of order, before both ties: 4
            Remove(1, 5),     // 3: still spilled
            Remove(2, 5),     // 2: back inline
            Insert(3, 0, 4),  // out of order into a full slot: spills again
            Insert(3, 0, 5),  // a tie while spilled: 4
            Insert(4, 0, 6),  // 5
            Truncate(3),      // drops two: 3 left, still spilled
            Truncate(4),      // 2 left: back inline
            Remove(6, 4),     // 1 left
            Remove(6, 4),     // nothing left to remove
            Insert(0, 2, 7),  // out of order into the slot, before the survivor
            Insert(9, 0, 8),  // 3: spills
            Insert(9, 0, 9),  // 4
            Truncate(9),      // from spilled straight back to one version
            Insert(9, 0, 10), // a tie with the lone version, inline
            Truncate(4),      // nothing at or before 4: nothing dropped
            Truncate(12),     // 1 left
        ];
        let mut chain = VersionChain::with_initial(0);
        let mut oracle = Oracle::default();
        oracle.insert(chain.versions()[0]);
        assert_agrees(&chain, &oracle, "initial");
        let mut respills = 0;
        for (i, op) in script.iter().enumerate() {
            let step = format!("step {i}");
            let (was_inline, had_spilled) = (chain.len() <= INLINE, chain.spill.capacity() > 0);
            let bytes = chain.bytes_retained();
            match *op {
                Insert(ts, stmt, writer) => {
                    let version = v(ts, stmt, writer, i as Value);
                    chain.insert(version);
                    oracle.insert(version);
                }
                Remove(writer, ts) => {
                    let removed = chain.remove_writer_at(writer, ts);
                    assert_eq!(removed, oracle.remove_writer_at(writer, ts), "{step}");
                }
                Truncate(ts) => {
                    chain.truncate_before(ts);
                    oracle.truncate_before(ts);
                }
            }
            assert_agrees(&chain, &oracle, &step);
            if was_inline && chain.len() > INLINE && had_spilled {
                // a spill after the first reuses its capacity
                assert_eq!(chain.bytes_retained(), bytes, "{step}");
                respills += 1;
            }
        }
        assert_eq!(respills, 2);
        assert_eq!(chain.len(), 1);
        assert!(chain.spill.capacity() > INLINE, "the spill capacity stays");
    }

    /// The same, over random walks: many short-lived spills and unspills.
    #[test]
    fn random_walks_across_the_inline_boundary_agree_with_a_vec() {
        let mut rng = morphstream_common::rng::DetRng::new(0xb0_da21);
        for walk in 0..200 {
            let mut chain = VersionChain::with_initial(0);
            let mut oracle = Oracle::default();
            oracle.insert(chain.versions()[0]);
            for i in 0..40 {
                let ts = rng.next_below(11);
                match rng.next_below(8) {
                    0..=4 => {
                        let version = v(ts, rng.next_below(3) as u32, rng.next_below(4), i);
                        chain.insert(version);
                        oracle.insert(version);
                    }
                    5..=6 => {
                        let writer = rng.next_below(4);
                        let removed = chain.remove_writer_at(writer, ts);
                        assert_eq!(removed, oracle.remove_writer_at(writer, ts));
                    }
                    _ => {
                        chain.truncate_before(ts);
                        oracle.truncate_before(ts);
                    }
                }
                assert_agrees(&chain, &oracle, &format!("walk {walk} step {i}"));
            }
        }
    }

    /// On a 10 000-version chain with tied timestamps, the binary-searched
    /// window is exactly the filter it replaced, for random `[lo, hi]`
    /// (empty, inverted and out-of-range ones included).
    #[test]
    fn window_is_the_filter_it_replaced_on_a_long_chain() {
        let mut rng = morphstream_common::rng::DetRng::new(0x0817);
        let mut chain = VersionChain::with_initial(0);
        for i in 0..9_999 {
            chain.insert(v(
                1 + rng.next_below(5_000),
                rng.next_below(2) as u32,
                i,
                i as Value,
            ));
        }
        assert_eq!(chain.len(), 10_000);
        for _ in 0..2_000 {
            let lo = rng.next_below(5_100);
            let hi = lo.saturating_add(rng.next_below(300)).saturating_sub(50);
            let filtered: Vec<Version> = chain
                .versions()
                .iter()
                .filter(|v| v.ts >= lo && v.ts <= hi)
                .copied()
                .collect();
            assert_eq!(chain.window(lo, hi), filtered, "[{lo}, {hi}]");
        }
        assert_eq!(chain.window(0, u64::MAX), chain.versions());
    }

    #[test]
    fn bytes_retained_grows_with_versions() {
        let mut chain = VersionChain::with_initial(0);
        let before = chain.bytes_retained();
        for ts in 1..100u64 {
            chain.insert(v(ts, 0, ts, 1));
        }
        assert!(chain.bytes_retained() > before);
    }
}
