//! The collection of named tables an application operates on.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use morphstream_common::error::Result;
use morphstream_common::{Key, MorphError, TableId, Timestamp, Value};

use crate::table::MvTable;
use crate::version::WriterId;

/// The shared mutable state of a streaming application: a set of named
/// multi-version tables. Cloning a `StateStore` is cheap (it is an `Arc`
/// inside) and shares the underlying tables, which is how the execution
/// workers all see the same state.
#[derive(Clone)]
pub struct StateStore {
    inner: Arc<Inner>,
}

struct Inner {
    tables: RwLock<Vec<Arc<MvTable>>>,
    by_name: RwLock<HashMap<String, TableId>>,
}

impl StateStore {
    /// Empty store.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                tables: RwLock::new(Vec::new()),
                by_name: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Create a table and return its id. `default_value` seeds newly created
    /// keys; `auto_create` allows keys to materialise on first access.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        default_value: Value,
        auto_create: bool,
    ) -> TableId {
        let name = name.into();
        let mut tables = self.inner.tables.write();
        let mut by_name = self.inner.by_name.write();
        if let Some(existing) = by_name.get(&name) {
            return *existing;
        }
        let id = TableId(tables.len() as u32);
        tables.push(Arc::new(MvTable::new(
            id,
            name.clone(),
            default_value,
            auto_create,
        )));
        by_name.insert(name, id);
        id
    }

    /// Opaque identity of the underlying shared storage: two handles return
    /// the same id iff they are clones of one store (share tables). Lets
    /// multi-store consumers — e.g. a topology whose operators may or may not
    /// share state — deduplicate stores before summing per-store metrics.
    pub fn instance_id(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Look a table up by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.by_name.read().get(name).copied()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.inner.tables.read().len()
    }

    /// Get a handle on a table.
    pub fn table(&self, id: TableId) -> Result<Arc<MvTable>> {
        self.inner
            .tables
            .read()
            .get(id.index())
            .cloned()
            .ok_or(MorphError::UnknownTable(id.0))
    }

    /// Handles on every table, indexed by table id — one store-wide lock
    /// acquisition for a caller that then touches many tables many times
    /// (the executor binds a batch's tables this way). A table created
    /// after the call is not in the snapshot; look it up with
    /// [`StateStore::table`].
    pub fn tables(&self) -> Vec<Arc<MvTable>> {
        self.inner.tables.read().clone()
    }

    /// Pre-allocate the dense key range `[0, n)` of `table`.
    pub fn preallocate_range(&self, table: TableId, n: u64) -> Result<()> {
        self.table(table)?.preallocate_range(n);
        Ok(())
    }

    /// Seed a single key with an initial value.
    pub fn seed(&self, table: TableId, key: Key, value: Value) -> Result<()> {
        self.table(table)?.seed(key, value);
        Ok(())
    }

    /// Read the newest version of `(table, key)` visible at `(ts, stmt)`.
    pub fn read_before(&self, table: TableId, key: Key, ts: Timestamp, stmt: u32) -> Result<Value> {
        self.table(table)?.read_before(key, ts, stmt)
    }

    /// Latest value of `(table, key)`.
    pub fn read_latest(&self, table: TableId, key: Key) -> Result<Value> {
        self.table(table)?.read_latest(key)
    }

    /// Append a version of `(table, key)`.
    pub fn write(
        &self,
        table: TableId,
        key: Key,
        ts: Timestamp,
        stmt: u32,
        writer: WriterId,
        value: Value,
    ) -> Result<()> {
        self.table(table)?.write(key, ts, stmt, writer, value)
    }

    /// Remove the versions of `(table, key)` written by `writer` at exactly
    /// `ts` — the abort rollback for engines whose writer ids are batch-local
    /// and therefore recycled across batches. There is deliberately no
    /// unscoped store-level rollback: removing every version by a writer id
    /// regardless of timestamp deletes committed versions surviving from
    /// earlier batches under a recycled id (the cross-batch data-loss bug
    /// this API replaced).
    pub fn rollback_writer_at(
        &self,
        table: TableId,
        key: Key,
        writer: WriterId,
        ts: Timestamp,
    ) -> Result<usize> {
        Ok(self.table(table)?.rollback_writer_at(key, writer, ts))
    }

    /// Values of versions of `(table, key)` inside the window `[lo, hi]`.
    pub fn window_values(
        &self,
        table: TableId,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<Vec<Value>> {
        Ok(self
            .table(table)?
            .window(key, lo, hi)?
            .into_iter()
            .map(|v| v.value)
            .collect())
    }

    /// Reclaim old versions of every table (keep only the newest visible at
    /// `ts` plus anything newer). Pinned tables are skipped (see
    /// [`StateStore::pin_table`]).
    pub fn truncate_before(&self, ts: Timestamp) {
        for table in self.inner.tables.read().iter() {
            table.truncate_before(ts);
        }
    }

    /// Reclaim old versions of exactly `tables` at watermark `ts`, skipping
    /// pinned tables; costs one visit per key written since its last reclaim
    /// (see [`MvTable::truncate_before`]), whatever the tables hold. This is
    /// the per-table-scoped reclamation used by
    /// engines whose store is shared with sibling operators of a topology:
    /// every operator stamps its own timestamp domain, so a watermark is only
    /// meaningful for the tables *that operator writes* — truncating the
    /// whole store with it could collapse versions a sibling still needs.
    pub fn truncate_tables_before(&self, tables: &[TableId], ts: Timestamp) {
        for id in tables {
            if let Ok(table) = self.table(*id) {
                table.truncate_before(ts);
            }
        }
    }

    /// Permanently exempt `table` from version reclamation. The engine pins
    /// every table it sees serving windowed accesses, so trailing windows
    /// keep their history even with after-batch reclamation enabled.
    pub fn pin_table(&self, table: TableId) -> Result<()> {
        self.table(table)?.pin();
        Ok(())
    }

    /// Total retained versions across all tables.
    pub fn version_count(&self) -> u64 {
        self.inner
            .tables
            .read()
            .iter()
            .map(|t| t.version_count())
            .sum()
    }

    /// Approximate bytes retained across all tables (a sum of per-shard
    /// totals, not a walk over the keys).
    pub fn bytes_retained(&self) -> u64 {
        self.inner
            .tables
            .read()
            .iter()
            .map(|t| t.bytes_retained())
            .sum()
    }

    /// Version chains visited by every reclaim of every table so far
    /// (cumulative; see [`MvTable::reclaim_keys_visited`]).
    pub fn reclaim_keys_visited(&self) -> u64 {
        self.inner
            .tables
            .read()
            .iter()
            .map(|t| t.reclaim_keys_visited())
            .sum()
    }

    /// Latest value of every key of `table`, for verification.
    pub fn snapshot_latest(&self, table: TableId) -> Result<HashMap<Key, Value>> {
        Ok(self.table(table)?.snapshot_latest())
    }

    /// Does nothing: every checkpoint captures every table, so there is no
    /// dirty set to add to. Kept only because `benchmark/` still calls it.
    pub fn mark_tables_dirty(&self, _tables: &[TableId]) {}

    /// Deterministic FNV-1a digest of the latest committed value of every key
    /// of every table, in table-id / key order. Two stores hold identical
    /// visible state iff their digests match, so tests can compare runs
    /// across thread counts and pipeline modes without shipping snapshots
    /// around.
    pub fn state_digest(&self) -> u64 {
        let mut hash = morphstream_common::hash::Fnv1a::new();
        for table in self.inner.tables.read().iter() {
            table.digest_into(&mut hash);
        }
        hash.finish()
    }
}

impl Default for StateStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for StateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateStore")
            .field("tables", &self.table_count())
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creating_the_same_table_twice_returns_the_same_id() {
        let store = StateStore::new();
        let a = store.create_table("accounts", 0, false);
        let b = store.create_table("accounts", 0, false);
        assert_eq!(a, b);
        assert_eq!(store.table_count(), 1);
        assert_eq!(store.table_id("accounts"), Some(a));
        assert_eq!(store.table_id("missing"), None);
    }

    #[test]
    fn reads_writes_and_rollbacks_round_trip_through_the_store() {
        let store = StateStore::new();
        let t = store.create_table("t", 10, false);
        store.preallocate_range(t, 4).unwrap();
        store.write(t, 1, 5, 0, 99, 55).unwrap();
        assert_eq!(store.read_before(t, 1, 6, 0).unwrap(), 55);
        assert_eq!(store.read_before(t, 1, 5, 0).unwrap(), 10);
        assert_eq!(store.rollback_writer_at(t, 1, 99, 5).unwrap(), 1);
        assert_eq!(store.read_latest(t, 1).unwrap(), 10);
    }

    #[test]
    fn tables_snapshot_is_indexed_by_id_and_shares_state() {
        let store = StateStore::new();
        let a = store.create_table("a", 1, false);
        let b = store.create_table("b", 2, true);
        let tables = store.tables();
        assert_eq!(tables.len(), 2);
        assert_eq!((tables[a.index()].id(), tables[b.index()].id()), (a, b));
        tables[b.index()].write(7, 1, 0, 1, 70).unwrap();
        assert_eq!(store.read_latest(b, 7).unwrap(), 70);
        // a table created afterwards is not in the snapshot
        store.create_table("c", 0, false);
        assert_eq!(tables.len(), 2);
        assert_eq!(store.tables().len(), 3);
    }

    #[test]
    fn unknown_table_is_reported() {
        let store = StateStore::new();
        assert!(matches!(
            store.read_latest(TableId(3), 0),
            Err(MorphError::UnknownTable(3))
        ));
    }

    #[test]
    fn window_values_and_truncation_work_store_wide() {
        let store = StateStore::new();
        let t = store.create_table("t", 0, false);
        store.preallocate_range(t, 2).unwrap();
        for ts in [1u64, 2, 3, 4, 5] {
            store.write(t, 0, ts, 0, ts, ts as Value).unwrap();
        }
        assert_eq!(store.window_values(t, 0, 2, 4).unwrap(), vec![2, 3, 4]);
        let before = store.version_count();
        store.truncate_before(5);
        assert!(store.version_count() < before);
        assert_eq!(store.read_latest(t, 0).unwrap(), 5);
    }

    #[test]
    fn per_table_truncation_scopes_reclamation_and_respects_pins() {
        let store = StateStore::new();
        let a = store.create_table("a", 0, false);
        let b = store.create_table("b", 0, false);
        store.preallocate_range(a, 1).unwrap();
        store.preallocate_range(b, 1).unwrap();
        for ts in 1..=10u64 {
            store.write(a, 0, ts, 0, ts, ts as Value).unwrap();
            store.write(b, 0, ts, 0, ts, ts as Value).unwrap();
        }
        let b_versions = store.table(b).unwrap().version_count();
        // truncating only `a` leaves `b`'s history intact
        store.truncate_tables_before(&[a], 10);
        assert_eq!(store.table(b).unwrap().version_count(), b_versions);
        assert!(store.table(a).unwrap().version_count() < b_versions);
        // a pinned table survives even a targeted truncation
        store.pin_table(b).unwrap();
        store.truncate_tables_before(&[b], 10);
        assert_eq!(store.table(b).unwrap().version_count(), b_versions);
        assert_eq!(store.window_values(b, 0, 1, 10).unwrap().len(), 10);
        // unknown table ids are ignored by the targeted call, not an error
        store.truncate_tables_before(&[TableId(99)], 10);
        assert!(store.pin_table(TableId(99)).is_err());
    }

    #[test]
    fn clones_share_underlying_state() {
        let store = StateStore::new();
        let t = store.create_table("t", 0, false);
        store.preallocate_range(t, 1).unwrap();
        let clone = store.clone();
        clone.write(t, 0, 1, 0, 1, 42).unwrap();
        assert_eq!(store.read_latest(t, 0).unwrap(), 42);
        assert!(store.bytes_retained() > 0);
    }

    #[test]
    fn state_digest_distinguishes_states_and_is_stable() {
        let a = StateStore::new();
        let t = a.create_table("t", 0, false);
        a.preallocate_range(t, 4).unwrap();
        let b = StateStore::new();
        let t2 = b.create_table("t", 0, false);
        b.preallocate_range(t2, 4).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());

        a.write(t, 1, 5, 0, 1, 77).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        b.write(t2, 1, 9, 0, 2, 77).unwrap();
        // same visible values → same digest, regardless of version history
        assert_eq!(a.state_digest(), b.state_digest());
        // repeated evaluation is stable
        assert_eq!(a.state_digest(), a.state_digest());
    }

    #[test]
    fn seeding_through_the_store_sets_initial_values() {
        let store = StateStore::new();
        let t = store.create_table("balances", 0, false);
        store.seed(t, 5, 500).unwrap();
        assert_eq!(store.read_latest(t, 5).unwrap(), 500);
        let snap = store.snapshot_latest(t).unwrap();
        assert_eq!(snap[&5], 500);
    }
}
