//! A sharded multi-version table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use morphstream_common::error::Result;
use morphstream_common::{Key, MorphError, StateRef, TableId, Timestamp, Value};

use crate::version::{Version, VersionChain, WriterId};

/// Number of lock shards per table. Chosen to comfortably exceed typical
/// worker-thread counts so that uncontended keys rarely share a lock.
const SHARDS: usize = 64;

#[derive(Default)]
struct Shard {
    chains: HashMap<Key, VersionChain>,
}

/// A multi-version table: one version chain per key, sharded for concurrent
/// access from the execution workers.
pub struct MvTable {
    id: TableId,
    name: String,
    default_value: Value,
    auto_create: bool,
    shards: Vec<RwLock<Shard>>,
    /// Total number of versions currently retained, across all shards.
    version_count: AtomicU64,
    /// Pinned tables are exempt from [`MvTable::truncate_before`]: windowed
    /// reads aggregate historical versions, so once a table serves windows
    /// its history must survive after-batch reclamation.
    pinned: std::sync::atomic::AtomicBool,
    /// Whether the table's *visible* state may have changed since the flag
    /// was last taken — the incremental-checkpoint cue. A new table starts
    /// dirty (it has never been captured by a checkpoint); afterwards the
    /// flag is set by every path that can change `snapshot_latest` (seed,
    /// preallocate, write, and the auto-create branch of reads); truncation
    /// keeps the latest version per key so it does not dirty.
    dirty: std::sync::atomic::AtomicBool,
}

impl MvTable {
    /// Create a table. `auto_create` controls whether writes/reads to a key
    /// that was never pre-allocated implicitly create it with
    /// `default_value` (workloads such as OSED register new words on the fly,
    /// while the ledger tables are fully pre-allocated).
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        default_value: Value,
        auto_create: bool,
    ) -> Self {
        let shards = (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect();
        Self {
            id,
            name: name.into(),
            default_value,
            auto_create,
            shards,
            version_count: AtomicU64::new(0),
            pinned: std::sync::atomic::AtomicBool::new(false),
            dirty: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Exempt this table from [`MvTable::truncate_before`] permanently. The
    /// engine pins every table serving windowed accesses: reclamation keeps
    /// only the newest version at the reclaiming watermark, which would
    /// silently empty trailing windows.
    pub fn pin(&self) {
        self.pinned.store(true, Ordering::Relaxed);
    }

    /// Whether this table is exempt from truncation.
    pub fn is_pinned(&self) -> bool {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value newly created keys start at.
    pub fn default_value(&self) -> Value {
        self.default_value
    }

    /// Whether keys materialise on first access.
    pub fn is_auto_create(&self) -> bool {
        self.auto_create
    }

    /// Mark the table's visible state as changed since the last checkpoint.
    pub fn mark_dirty(&self) {
        // Check-before-store keeps the steady state read-only: repeated
        // writes to an already-dirty table do not bounce the cache line.
        if !self.dirty.load(Ordering::Relaxed) {
            self.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the visible state may have changed since the flag was taken.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Clear the dirty flag, returning whether it was set — one checkpoint's
    /// "does this table need a new snapshot section" test.
    pub fn take_dirty(&self) -> bool {
        self.dirty.swap(false, Ordering::Relaxed)
    }

    #[inline]
    fn shard_for(&self, key: Key) -> &RwLock<Shard> {
        // Fibonacci hashing spreads dense key ranges across shards.
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
        &self.shards[h % SHARDS]
    }

    fn state_ref(&self, key: Key) -> StateRef {
        StateRef::new(self.id, key)
    }

    /// Pre-allocate `keys` with the table's default value.
    pub fn preallocate<I: IntoIterator<Item = Key>>(&self, keys: I) {
        let mut created = 0u64;
        for key in keys {
            let mut shard = self.shard_for(key).write();
            shard.chains.entry(key).or_insert_with(|| {
                created += 1;
                VersionChain::with_initial(self.default_value)
            });
        }
        self.version_count.fetch_add(created, Ordering::Relaxed);
        if created > 0 {
            self.mark_dirty();
        }
    }

    /// Pre-allocate the dense key range `[0, n)`.
    pub fn preallocate_range(&self, n: u64) {
        self.preallocate(0..n);
    }

    /// Set the value of `key` at timestamp 0, creating it if necessary. Used
    /// to seed initial balances before a run.
    pub fn seed(&self, key: Key, value: Value) {
        let mut shard = self.shard_for(key).write();
        let prev = shard.chains.insert(key, VersionChain::with_initial(value));
        if prev.is_none() {
            self.version_count.fetch_add(1, Ordering::Relaxed);
        } else if let Some(prev) = prev {
            // replacing an existing chain: adjust the version count.
            let removed = prev.len() as u64;
            self.version_count.fetch_sub(removed, Ordering::Relaxed);
            self.version_count.fetch_add(1, Ordering::Relaxed);
        }
        self.mark_dirty();
    }

    /// Whether `key` exists in the table.
    pub fn contains(&self, key: Key) -> bool {
        self.shard_for(key).read().chains.contains_key(&key)
    }

    /// Number of keys in the table.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().chains.len()).sum()
    }

    /// Read the newest version visible to an operation at `(ts, stmt)`.
    pub fn read_before(&self, key: Key, ts: Timestamp, stmt: u32) -> Result<Value> {
        {
            let shard = self.shard_for(key).read();
            if let Some(chain) = shard.chains.get(&key) {
                return chain.read_before(ts, stmt).map(|v| v.value).ok_or(
                    MorphError::NoVisibleVersion {
                        state: self.state_ref(key),
                        at: ts,
                    },
                );
            }
        }
        if self.auto_create {
            self.preallocate(std::iter::once(key));
            Ok(self.default_value)
        } else {
            Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            })
        }
    }

    /// Read the latest value of `key` regardless of timestamp.
    pub fn read_latest(&self, key: Key) -> Result<Value> {
        let shard = self.shard_for(key).read();
        match shard.chains.get(&key) {
            Some(chain) => chain
                .latest()
                .map(|v| v.value)
                .ok_or(MorphError::NoVisibleVersion {
                    state: self.state_ref(key),
                    at: Timestamp::MAX,
                }),
            None if self.auto_create => Ok(self.default_value),
            None => Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            }),
        }
    }

    /// Append a new version of `key`.
    pub fn write(
        &self,
        key: Key,
        ts: Timestamp,
        stmt: u32,
        writer: WriterId,
        value: Value,
    ) -> Result<()> {
        let mut shard = self.shard_for(key).write();
        let chain = match shard.chains.get_mut(&key) {
            Some(chain) => chain,
            None if self.auto_create => {
                self.version_count.fetch_add(1, Ordering::Relaxed);
                shard
                    .chains
                    .entry(key)
                    .or_insert_with(|| VersionChain::with_initial(self.default_value))
            }
            None => {
                return Err(MorphError::UnknownKey {
                    state: self.state_ref(key),
                })
            }
        };
        chain.insert(Version {
            ts,
            stmt,
            writer,
            value,
        });
        self.version_count.fetch_add(1, Ordering::Relaxed);
        self.mark_dirty();
        Ok(())
    }

    /// Remove the versions of `key` written by `writer` at exactly `ts` (see
    /// [`VersionChain::remove_writer_at`] for why aborts must scope their
    /// rollback when writer ids are recycled across batches).
    pub fn rollback_writer_at(&self, key: Key, writer: WriterId, ts: Timestamp) -> usize {
        let mut shard = self.shard_for(key).write();
        if let Some(chain) = shard.chains.get_mut(&key) {
            let removed = chain.remove_writer_at(writer, ts);
            self.version_count
                .fetch_sub(removed as u64, Ordering::Relaxed);
            removed
        } else {
            0
        }
    }

    /// Versions of `key` whose timestamps fall inside `[lo, hi]`.
    pub fn window(&self, key: Key, lo: Timestamp, hi: Timestamp) -> Result<Vec<Version>> {
        let shard = self.shard_for(key).read();
        match shard.chains.get(&key) {
            Some(chain) => Ok(chain.window(lo, hi)),
            None if self.auto_create => Ok(Vec::new()),
            None => Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            }),
        }
    }

    /// Drop versions older than the newest one at or before `ts`, for every
    /// key (the after-batch reclamation toggle). A no-op on pinned tables
    /// (see [`MvTable::pin`]).
    pub fn truncate_before(&self, ts: Timestamp) {
        if self.is_pinned() {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.write();
            for chain in shard.chains.values_mut() {
                let before = chain.len() as u64;
                chain.truncate_before(ts);
                let removed = before - chain.len() as u64;
                if removed > 0 {
                    self.version_count.fetch_sub(removed, Ordering::Relaxed);
                }
            }
        }
    }

    /// Total number of retained versions.
    pub fn version_count(&self) -> u64 {
        self.version_count.load(Ordering::Relaxed)
    }

    /// Approximate bytes retained by the table's version chains.
    pub fn bytes_retained(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .chains
                    .values()
                    .map(|c| c.bytes_retained() + std::mem::size_of::<Key>() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Latest value of every key — used by tests to compare engines against a
    /// sequential oracle.
    pub fn snapshot_latest(&self) -> HashMap<Key, Value> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (k, chain) in &shard.chains {
                if let Some(v) = chain.latest() {
                    out.insert(*k, v.value);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MvTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvTable")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("keys", &self.key_count())
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MvTable {
        let t = MvTable::new(TableId(0), "accounts", 1000, false);
        t.preallocate_range(16);
        t
    }

    #[test]
    fn preallocated_keys_start_at_default() {
        let t = table();
        assert_eq!(t.key_count(), 16);
        assert_eq!(t.read_latest(3).unwrap(), 1000);
        assert_eq!(t.read_before(3, 5, 0).unwrap(), 1000);
    }

    #[test]
    fn unknown_key_errors_without_auto_create() {
        let t = table();
        assert!(matches!(
            t.read_latest(999),
            Err(MorphError::UnknownKey { .. })
        ));
        assert!(t.write(999, 1, 0, 7, 5).is_err());
    }

    #[test]
    fn auto_create_tables_materialise_keys_on_demand() {
        let t = MvTable::new(TableId(1), "words", 0, true);
        assert_eq!(t.read_latest(42).unwrap(), 0);
        t.write(42, 3, 0, 1, 7).unwrap();
        assert_eq!(t.read_latest(42).unwrap(), 7);
        assert!(t.contains(42));
    }

    #[test]
    fn writes_are_visible_to_later_timestamps_only() {
        let t = table();
        t.write(5, 10, 0, 100, 1234).unwrap();
        assert_eq!(t.read_before(5, 10, 0).unwrap(), 1000);
        assert_eq!(t.read_before(5, 11, 0).unwrap(), 1234);
        assert_eq!(t.read_latest(5).unwrap(), 1234);
    }

    #[test]
    fn rollback_removes_only_the_writers_versions() {
        let t = table();
        t.write(5, 10, 0, 100, 1111).unwrap();
        t.write(5, 20, 0, 200, 2222).unwrap();
        assert_eq!(t.rollback_writer_at(5, 200, 20), 1);
        assert_eq!(t.read_latest(5).unwrap(), 1111);
        assert_eq!(t.rollback_writer_at(5, 999, 20), 0);
    }

    #[test]
    fn scoped_rollback_spares_recycled_writer_ids_from_earlier_batches() {
        let t = table();
        // Batch 1: op #3 commits a version; after-batch reclamation may leave
        // it as the key's only version.
        t.write(5, 10, 0, 3, 1111).unwrap();
        // Batch 2: a different transaction, same recycled op id #3, writes at
        // its own timestamp and then aborts.
        t.write(5, 20, 0, 3, 2222).unwrap();
        assert_eq!(t.rollback_writer_at(5, 3, 20), 1);
        // The committed version from batch 1 survives the rollback; one
        // keyed on the writer id alone would have deleted it too.
        assert_eq!(t.read_latest(5).unwrap(), 1111);
        assert_eq!(t.rollback_writer_at(5, 3, 999), 0);
        assert_eq!(t.rollback_writer_at(5, 999, 10), 0);
    }

    #[test]
    fn window_reads_return_versions_in_range() {
        let t = table();
        for ts in [10u64, 20, 30, 40] {
            t.write(7, ts, 0, ts, ts as Value).unwrap();
        }
        let versions = t.window(7, 15, 35).unwrap();
        let values: Vec<Value> = versions.iter().map(|v| v.value).collect();
        assert_eq!(values, vec![20, 30]);
    }

    #[test]
    fn truncation_reduces_version_count_but_keeps_latest() {
        let t = table();
        for ts in 1..=50u64 {
            t.write(2, ts, 0, ts, ts as Value).unwrap();
        }
        let before = t.version_count();
        t.truncate_before(50);
        assert!(t.version_count() < before);
        assert_eq!(t.read_latest(2).unwrap(), 50);
    }

    #[test]
    fn pinned_tables_are_exempt_from_truncation() {
        let t = table();
        for ts in 1..=20u64 {
            t.write(3, ts, 0, ts, ts as Value).unwrap();
        }
        assert!(!t.is_pinned());
        t.pin();
        assert!(t.is_pinned());
        let before = t.version_count();
        t.truncate_before(20);
        assert_eq!(t.version_count(), before);
        // the full window history survives
        assert_eq!(t.window(3, 1, 20).unwrap().len(), 20);
    }

    #[test]
    fn dirty_tracks_visible_state_changes_only() {
        // a new table is dirty by definition: never checkpointed
        let t = MvTable::new(TableId(0), "accounts", 1000, false);
        assert!(t.is_dirty());
        t.preallocate_range(4);
        assert!(t.take_dirty());
        assert!(!t.is_dirty());
        // preallocating existing keys changes nothing visible
        t.preallocate_range(4);
        assert!(!t.is_dirty());
        t.write(1, 5, 0, 1, 7).unwrap();
        assert!(t.take_dirty());
        // truncation keeps the latest version per key: stays clean
        t.truncate_before(5);
        assert!(!t.is_dirty());
        t.seed(2, 9);
        assert!(t.take_dirty());
        // an auto-created read materialises a key → dirty
        let auto = MvTable::new(TableId(1), "words", 0, true);
        auto.take_dirty();
        assert_eq!(auto.read_before(3, 1, 0).unwrap(), 0);
        assert!(auto.is_dirty());
    }

    #[test]
    fn seed_overrides_initial_value() {
        let t = table();
        t.seed(9, 77);
        assert_eq!(t.read_latest(9).unwrap(), 77);
        assert_eq!(t.read_before(9, 1, 0).unwrap(), 77);
    }

    #[test]
    fn snapshot_reflects_latest_values() {
        let t = table();
        t.write(0, 5, 0, 1, -5).unwrap();
        t.write(1, 6, 0, 2, 42).unwrap();
        let snap = t.snapshot_latest();
        assert_eq!(snap[&0], -5);
        assert_eq!(snap[&1], 42);
        assert_eq!(snap[&2], 1000);
    }

    #[test]
    fn bytes_and_version_counts_track_growth() {
        let t = table();
        let (b0, v0) = (t.bytes_retained(), t.version_count());
        for ts in 1..200u64 {
            t.write(ts % 16, ts, 0, ts, 1).unwrap();
        }
        assert!(t.bytes_retained() > b0);
        assert_eq!(t.version_count(), v0 + 199);
    }

    #[test]
    fn concurrent_writes_to_distinct_keys_do_not_lose_versions() {
        let t = std::sync::Arc::new(MvTable::new(TableId(2), "c", 0, false));
        t.preallocate_range(64);
        std::thread::scope(|s| {
            for thread in 0..8u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = (thread * 8 + i % 8) % 64;
                        t.write(key, thread * 1000 + i + 1, 0, thread * 1000 + i, 1)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.version_count(), 64 + 8 * 100);
    }
}
