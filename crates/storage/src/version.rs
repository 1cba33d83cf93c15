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

/// An append-mostly, timestamp-ordered chain of versions for a single key.
///
/// The chain keeps versions sorted by `(ts, stmt)`. Appends at the tail (the
/// common case under in-order execution) are O(1); out-of-order inserts —
/// which happen under speculative execution — fall back to a binary-search
/// insert.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
    /// Set while the owning table lists this chain's key among those a
    /// reclaim must visit (see `MvTable::truncate_before`), so a key is
    /// listed at most once however often its chain regrows.
    pub(crate) listed: bool,
}

impl VersionChain {
    /// Chain holding a single initial version at timestamp 0.
    pub fn with_initial(value: Value) -> Self {
        Self {
            versions: vec![Version {
                ts: 0,
                stmt: 0,
                writer: INITIAL_WRITER,
                value,
            }],
            listed: false,
        }
    }

    /// Number of stored versions.
    #[inline]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when the chain holds no versions at all (only possible after
    /// explicit truncation of an uninitialised chain).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// All versions in timestamp order.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Insert a version, keeping timestamp order.
    pub fn insert(&mut self, version: Version) {
        match self.versions.last() {
            Some(last) if last.order_key() <= version.order_key() => {
                self.versions.push(version);
            }
            None => self.versions.push(version),
            Some(_) => {
                let idx = self
                    .versions
                    .partition_point(|v| v.order_key() <= version.order_key());
                self.versions.insert(idx, version);
            }
        }
    }

    /// Latest version strictly *before* the reader position `(ts, stmt)`.
    ///
    /// This is the visibility rule of the multi-version table: an operation
    /// with timestamp `ts` and statement index `stmt` sees the newest version
    /// produced by any earlier-timestamped operation, or by an earlier
    /// statement of its own transaction.
    pub fn read_before(&self, ts: Timestamp, stmt: u32) -> Option<&Version> {
        let idx = self
            .versions
            .partition_point(|v| v.order_key() < (ts, stmt));
        if idx == 0 {
            None
        } else {
            Some(&self.versions[idx - 1])
        }
    }

    /// Latest committed version overall.
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Every version whose timestamp lies in the window `[lo, hi]`, in
    /// timestamp order. Used by windowed reads (Section 6.5.1).
    pub fn window(&self, lo: Timestamp, hi: Timestamp) -> Vec<Version> {
        self.versions
            .iter()
            .filter(|v| v.ts >= lo && v.ts <= hi)
            .copied()
            .collect()
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
        let start = self.versions.partition_point(|v| v.ts < ts);
        let end = start + self.versions[start..].partition_point(|v| v.ts == ts);
        let mut kept = start;
        for i in start..end {
            if self.versions[i].writer != writer {
                self.versions[kept] = self.versions[i];
                kept += 1;
            }
        }
        self.versions.drain(kept..end);
        end - kept
    }

    /// Drop every version except the newest one at or before `ts`, plus any
    /// versions newer than `ts`. This is the after-batch clean-up used when
    /// `reclaim_after_batch` is enabled (Figure 17).
    pub fn truncate_before(&mut self, ts: Timestamp) {
        let keep_from = self
            .versions
            .partition_point(|v| v.order_key() <= (ts, u32::MAX));
        if keep_from > 1 {
            self.versions.drain(..keep_from - 1);
        }
    }

    /// Approximate bytes retained by this chain.
    pub fn bytes_retained(&self) -> u64 {
        (self.versions.capacity() * std::mem::size_of::<Version>()) as u64
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
