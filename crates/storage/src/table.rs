//! A sharded multi-version table.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

use parking_lot::RwLock;

use morphstream_common::error::Result;
use morphstream_common::hash::{Fnv1a, SeededState};
use morphstream_common::{Key, MorphError, StateRef, TableId, Timestamp, Value};

use crate::version::{Version, VersionChain, WriterId};

/// Number of lock shards per table. Chosen to comfortably exceed typical
/// worker-thread counts so that uncontended keys rarely share a lock.
const SHARDS: usize = 64;

/// One lock's worth of a table: its chains plus the running totals of them,
/// all guarded by the shard lock every mutation already holds — so the
/// table-wide figures are sums over the shards, never walks over the keys.
#[derive(Default)]
struct Shard {
    /// Every state access hashes its key here, hence the fast seeded hasher.
    chains: HashMap<Key, VersionChain, SeededState>,
    /// Keys whose chain may hold more than one version: the only chains a
    /// reclaim has anything to drop from. A key is pushed when its chain
    /// grows past one version and stays (flagged in the chain, so listed at
    /// most once) until a reclaim finds the chain back at one.
    multi: Vec<Key>,
    /// Versions retained by `chains`.
    versions: u64,
    /// Bytes retained by `chains`: every chain's inline slots and spilled
    /// capacity, plus its key.
    bytes: u64,
    /// Chains visited by every reclaim so far.
    reclaim_visited: u64,
}

/// Bytes a chain accounts for in its shard's total: its inline slots, the
/// heap capacity its spills left it, and its key. Only a write that spills
/// past that capacity grows it; rollback and reclaim never shrink it.
fn chain_bytes(chain: &VersionChain) -> u64 {
    chain.bytes_retained() + std::mem::size_of::<Key>() as u64
}

impl Shard {
    /// The chain of `key`; an absent one is created at `create_at`, or stays
    /// absent (`None`) when there is no value to create it at.
    fn chain_mut(&mut self, key: Key, create_at: Option<Value>) -> Option<&mut VersionChain> {
        match self.chains.entry(key) {
            Entry::Occupied(slot) => Some(slot.into_mut()),
            Entry::Vacant(slot) => {
                let chain = slot.insert(VersionChain::with_initial(create_at?));
                self.versions += 1;
                self.bytes += chain_bytes(chain);
                Some(chain)
            }
        }
    }
}

/// A multi-version table: one version chain per key, sharded for concurrent
/// access from the execution workers.
pub struct MvTable {
    id: TableId,
    name: String,
    default_value: Value,
    auto_create: bool,
    shards: Vec<RwLock<Shard>>,
    /// Pinned tables are exempt from [`MvTable::truncate_before`]: windowed
    /// reads aggregate historical versions, so once a table serves windows
    /// its history must survive after-batch reclamation.
    pinned: std::sync::atomic::AtomicBool,
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
            pinned: std::sync::atomic::AtomicBool::new(false),
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
        for key in keys {
            self.shard_for(key)
                .write()
                .chain_mut(key, Some(self.default_value));
        }
    }

    /// Pre-allocate the dense key range `[0, n)`. Each shard's map is sized
    /// for its share of the range first, so filling it moves no slot: a
    /// chain's slot holds its first versions, which makes a rehash costly.
    pub fn preallocate_range(&self, n: u64) {
        let share = (n as usize).div_ceil(SHARDS);
        for shard in &self.shards {
            let chains = &mut shard.write().chains;
            chains.reserve(share.saturating_sub(chains.len()));
        }
        self.preallocate(0..n);
    }

    /// Set the value of `key` at timestamp 0, creating it if necessary. Used
    /// to seed initial balances before a run.
    pub fn seed(&self, key: Key, value: Value) {
        let mut shard = self.shard_for(key).write();
        let shard = &mut *shard;
        let mut chain = VersionChain::with_initial(value);
        shard.versions += 1;
        shard.bytes += chain_bytes(&chain);
        if let Some(prev) = shard.chains.get(&key) {
            // A replaced chain takes its totals with it and leaves its place
            // in the reclaim list (if it has one) to the new chain.
            shard.versions -= prev.len() as u64;
            shard.bytes -= chain_bytes(prev);
            chain.listed = prev.listed;
        }
        shard.chains.insert(key, chain);
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
        let create_at = self.auto_create.then_some(self.default_value);
        let Some(chain) = shard.chain_mut(key, create_at) else {
            return Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            });
        };
        let capacity_before = chain.bytes_retained();
        chain.insert(Version {
            ts,
            stmt,
            writer,
            value,
        });
        let grown = chain.bytes_retained() - capacity_before;
        let newly_listed = chain.len() > 1 && !std::mem::replace(&mut chain.listed, true);
        shard.versions += 1;
        shard.bytes += grown;
        if newly_listed {
            shard.multi.push(key);
        }
        Ok(())
    }

    /// Remove the versions of `key` written by `writer` at exactly `ts` (see
    /// [`VersionChain::remove_writer_at`] for why aborts must scope their
    /// rollback when writer ids are recycled across batches).
    pub fn rollback_writer_at(&self, key: Key, writer: WriterId, ts: Timestamp) -> usize {
        let mut shard = self.shard_for(key).write();
        let removed = match shard.chains.get_mut(&key) {
            Some(chain) => chain.remove_writer_at(writer, ts),
            None => 0,
        };
        shard.versions -= removed as u64;
        removed
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
    ///
    /// Costs one visit per key written since its chain was last reclaimed
    /// down to a single version — not one per key of the table: only chains
    /// holding more than one version have anything to drop, and each shard
    /// keeps the list of those.
    pub fn truncate_before(&self, ts: Timestamp) {
        if self.is_pinned() {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.write();
            let Shard {
                chains,
                multi,
                versions,
                reclaim_visited,
                ..
            } = &mut *shard;
            *reclaim_visited += multi.len() as u64;
            multi.retain(|key| {
                let chain = chains.get_mut(key).expect("chains are never removed");
                let before = chain.len();
                chain.truncate_before(ts);
                *versions -= (before - chain.len()) as u64;
                chain.listed = chain.len() > 1;
                chain.listed
            });
        }
    }

    /// Sum of one per-shard total over the shards.
    fn sum_shards(&self, total: impl Fn(&Shard) -> u64) -> u64 {
        self.shards.iter().map(|shard| total(&shard.read())).sum()
    }

    /// Total number of retained versions.
    pub fn version_count(&self) -> u64 {
        self.sum_shards(|shard| shard.versions)
    }

    /// Approximate bytes retained by the table's version chains: every
    /// chain's inline slots and spilled capacity plus its key, summed from
    /// the per-shard totals.
    pub fn bytes_retained(&self) -> u64 {
        self.sum_shards(|shard| shard.bytes)
    }

    /// Version chains visited by every [`MvTable::truncate_before`] so far
    /// (cumulative): per reclaim, the number of keys written since their
    /// chain last shrank to one version, whatever the size of the table.
    pub fn reclaim_keys_visited(&self) -> u64 {
        self.sum_shards(|shard| shard.reclaim_visited)
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

    /// Mix the table id and the latest value of every key, in key order,
    /// into `hash`: this table's part of `StateStore::state_digest`.
    pub(crate) fn digest_into(&self, hash: &mut Fnv1a) {
        let mut entries: Vec<(Key, Value)> = self.snapshot_latest().into_iter().collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        hash.update(&self.id.0.to_le_bytes());
        for (key, value) in entries {
            hash.update(&key.to_le_bytes());
            hash.update(&value.to_le_bytes());
        }
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
impl MvTable {
    /// [`MvTable::new`] with the chain maps hashing under fixed seeds.
    fn with_seed(
        id: TableId,
        name: &str,
        default_value: Value,
        auto_create: bool,
        seed: u64,
    ) -> Self {
        let mut table = Self::new(id, name, default_value, auto_create);
        for (i, shard) in table.shards.iter_mut().enumerate() {
            let state = SeededState::with_seed(seed.wrapping_add(i as u64));
            shard.get_mut().chains = HashMap::with_hasher(state);
        }
        table
    }

    /// What the per-shard totals must equal, found the way they used to be:
    /// by visiting every chain. `(versions, bytes, listed keys, keys)`.
    fn walk(&self) -> (u64, u64, usize, usize) {
        let mut totals = (0, 0, 0, 0);
        for shard in &self.shards {
            let shard = shard.read();
            for (key, chain) in &shard.chains {
                totals.0 += chain.len() as u64;
                totals.1 += chain_bytes(chain);
                let listed = shard.multi.iter().filter(|k| *k == key).count();
                assert_eq!(listed, chain.listed as usize, "key {key} listed {listed}x");
                assert!(
                    chain.listed || chain.len() <= 1,
                    "key {key} escaped the list"
                );
            }
            totals.2 += shard.multi.len();
            totals.3 += shard.chains.len();
        }
        totals
    }

    /// Assert the totals equal the walk, and that no key is listed twice.
    fn assert_totals_match_walk(&self) {
        let (versions, bytes, listed, keys) = self.walk();
        assert_eq!(self.version_count(), versions);
        assert_eq!(self.bytes_retained(), bytes);
        assert!(listed <= keys);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

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
        t.assert_totals_match_walk();
    }

    /// Drive `t` through 4 000 random steps — writes (some out of order),
    /// rollbacks, seeds, preallocations, auto-creating reads and reclaims —
    /// checking the per-shard totals against a walk after every step. Some
    /// chain provably spills (reaches three versions) and comes back to one,
    /// so the totals are checked on both sides of the inline/spill boundary.
    fn mixed_history(t: &MvTable) {
        use morphstream_common::rng::DetRng;
        let auto_create = t.is_auto_create();
        t.preallocate_range(24);
        let mut rng = DetRng::new(0x5EED ^ auto_create as u64);
        let mut ts = 0;
        let (mut spilled, mut came_back) = (HashSet::new(), false);
        for step in 0..4_000u64 {
            let key = rng.next_below(if auto_create { 40 } else { 24 });
            match rng.next_below(16) {
                0..=8 => {
                    ts += 1;
                    // some writes land out of order, as speculation does
                    let at = ts - rng.next_below(3).min(ts - 1);
                    t.write(key, at, 0, step % 7, step as Value).unwrap();
                }
                9..=10 => {
                    t.rollback_writer_at(key, rng.next_below(7), ts - rng.next_below(3).min(ts));
                }
                11 => t.seed(key, step as Value),
                12 => t.preallocate(key..key + 3),
                13 => {
                    let _ = t.read_before(key + 8, ts + 1, 0);
                }
                _ => {
                    let visited = t.reclaim_keys_visited();
                    let multi = t.walk().2 as u64;
                    t.truncate_before(ts.saturating_sub(rng.next_below(4)));
                    assert_eq!(t.reclaim_keys_visited() - visited, multi);
                }
            }
            t.assert_totals_match_walk();
            for shard in &t.shards {
                for (key, chain) in &shard.read().chains {
                    if chain.len() >= 3 {
                        spilled.insert(*key);
                    } else if chain.len() == 1 {
                        came_back |= spilled.remove(key);
                    }
                }
            }
        }
        assert!(came_back, "no chain went from three versions back to one");
    }

    #[test]
    fn totals_equal_a_walk_after_every_step_of_a_mixed_history() {
        for auto_create in [false, true] {
            let t = MvTable::new(TableId(0), "t", 5, auto_create);
            mixed_history(&t);
            // a reclaim past every write leaves one version per key and an
            // empty list: the next one visits nothing
            t.truncate_before(u64::MAX);
            let (versions, _, listed, keys) = t.walk();
            assert_eq!((versions, listed), (keys as u64, 0));
            let visited = t.reclaim_keys_visited();
            t.truncate_before(u64::MAX);
            assert_eq!(t.reclaim_keys_visited(), visited);
        }
    }

    /// Where the chain maps place their keys is the seed's business only:
    /// the same history over two seeds leaves the same versions, snapshot,
    /// digest and totals.
    #[test]
    fn the_chain_maps_seed_changes_no_visible_state() {
        for auto_create in [false, true] {
            let tables = [1, 2].map(|seed| {
                let t = MvTable::with_seed(TableId(0), "t", 5, auto_create, seed);
                mixed_history(&t);
                t
            });
            let [a, b] = &tables;
            assert_eq!(a.snapshot_latest(), b.snapshot_latest());
            let digest = |t: &MvTable| {
                let mut hash = Fnv1a::new();
                t.digest_into(&mut hash);
                hash.finish()
            };
            assert_eq!(digest(a), digest(b));
            for key in 0..40 {
                assert_eq!(
                    a.window(key, 0, u64::MAX).ok(),
                    b.window(key, 0, u64::MAX).ok()
                );
            }
            assert_eq!(a.walk(), b.walk());
            assert_eq!(a.reclaim_keys_visited(), b.reclaim_keys_visited());
        }
    }

    #[test]
    fn reclaim_visits_only_the_keys_written_since_the_last_one() {
        let t = MvTable::new(TableId(0), "big", 0, false);
        t.preallocate_range(10_000);
        for round in 0..5u64 {
            for key in [3, 77, 4_242, 3] {
                t.write(key, round * 10 + 1, 0, key, 1).unwrap();
            }
            let visited = t.reclaim_keys_visited();
            t.truncate_before(round * 10 + 9);
            assert_eq!(t.reclaim_keys_visited() - visited, 3);
            assert_eq!(t.version_count(), 10_000);
        }
        t.assert_totals_match_walk();
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
        t.assert_totals_match_walk();
    }

    #[test]
    fn concurrent_writers_and_a_reclaim_per_round_keep_the_totals_exact() {
        let t = MvTable::new(TableId(2), "c", 0, false);
        t.preallocate_range(64);
        for round in 0..20u64 {
            let base = round * 10_000;
            std::thread::scope(|s| {
                for thread in 0..8u64 {
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..50u64 {
                            // threads overlap on keys, so shards' lists are
                            // pushed to from several writers at once
                            let key = (thread * 5 + i) % 64;
                            let ts = base + thread * 100 + i + 1;
                            t.write(key, ts, 0, ts, 1).unwrap();
                        }
                    });
                }
            });
            assert_eq!(t.version_count(), 64 + 8 * 50);
            t.assert_totals_match_walk();
            let visited = t.reclaim_keys_visited();
            t.truncate_before(base + 9_999);
            assert!(t.reclaim_keys_visited() - visited <= 64);
            assert_eq!(t.version_count(), 64);
            t.assert_totals_match_walk();
        }
    }
}
