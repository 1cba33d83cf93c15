//! The store's tables as one batch binds them, and the evaluation of one
//! operation against them: the access path the multi-worker context and the
//! one-worker loop share.
//!
//! The tables are bound once, when the batch starts
//! ([`StateStore::tables`]): every read, write, window scan and rollback of
//! an operation then goes straight to its [`MvTable`], and no per-operation
//! call takes the store-wide lock or clones a table handle. A table created
//! after the batch started is past the bound snapshot and is looked up
//! through [`StateStore::table`] instead, so it behaves exactly as a bound
//! one.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use morphstream_common::error::Result as StoreResult;
use morphstream_common::{spin_for, AbortReason, Key, OpId, StateRef, TableId, Timestamp, Value};
use morphstream_storage::{MvTable, StateStore};
use morphstream_tpg::{AccessKind, OperationSpec, UdfInput, UdfOutcome};

/// What evaluating one operation did: the key it touched (resolved, for a
/// non-deterministic access), its result — the value read, or the value
/// written — and whether it appended a version.
pub(crate) type Evaluated = (Key, Value, bool);

/// The store's tables, indexed by id, as they were when the batch began.
pub(crate) struct BoundTables {
    store: StateStore,
    tables: Vec<Arc<MvTable>>,
}

impl BoundTables {
    /// Bind `store`'s tables for one batch.
    pub(crate) fn bind(store: &StateStore) -> Self {
        Self {
            tables: store.tables(),
            store: store.clone(),
        }
    }

    /// Table `id`: the handle bound when the batch began, or — for a table
    /// created since — the store's.
    fn table(&self, id: TableId) -> StoreResult<Cow<'_, Arc<MvTable>>> {
        match self.tables.get(id.index()) {
            Some(table) => Ok(Cow::Borrowed(table)),
            None => self.store.table(id).map(Cow::Owned),
        }
    }

    /// Newest value of `(table, key)` visible before `ts`, or zero when the
    /// read fails (unknown table or key, no visible version).
    fn read_before(&self, table: TableId, key: Key, ts: Timestamp) -> Value {
        self.table(table)
            .and_then(|t| t.read_before(key, ts, 0))
            .unwrap_or_default()
    }

    /// Append the values of `(table, key)` in the window `[lo, hi]` to `out`.
    fn window_values(
        &self,
        table: TableId,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<Value>,
    ) {
        if let Ok(versions) = self.table(table).and_then(|t| t.window(key, lo, hi)) {
            out.extend(versions.into_iter().map(|v| v.value));
        }
    }

    /// Evaluate operation `op` — `spec` at statement `stmt` of the
    /// transaction at `ts` — against the store: resolve the key, gather the
    /// UDF's inputs into `input` (whose buffers are reused), run the UDF,
    /// and append the resulting version for writes, with `op` as its writer.
    pub(crate) fn evaluate(
        &self,
        spec: &OperationSpec,
        ts: Timestamp,
        stmt: u32,
        op: OpId,
        input: &mut UdfInput,
    ) -> Result<Evaluated, AbortReason> {
        let key = spec.target.resolve(ts);

        // Emulated UDF complexity (the paper's `C` knob).
        spin_for(Duration::from_micros(spec.cost_us));

        // Visibility: strictly earlier timestamps (operations of the same
        // transaction do not see each other's writes, Section 2.1.1).
        input.target = self.read_before(spec.table, key, ts);
        input.ts = ts;
        input.params.clear();
        input.params.extend(
            spec.params
                .iter()
                .map(|p| self.read_before(p.table, p.key, ts)),
        );
        input.window.clear();
        if let Some(window) = spec.window {
            let lo = ts.saturating_sub(window);
            match spec.kind {
                AccessKind::WindowRead => {
                    self.window_values(spec.table, key, lo, ts, &mut input.window)
                }
                AccessKind::WindowWrite => {
                    for p in &spec.params {
                        self.window_values(p.table, p.key, lo, ts, &mut input.window);
                    }
                }
                _ => {}
            }
        }

        let outcome = match &spec.udf {
            Some(udf) => udf(input)?,
            None => UdfOutcome::Unchanged,
        };

        match outcome {
            UdfOutcome::Value(v) if spec.kind.is_write() => {
                self.table(spec.table)
                    .and_then(|t| t.write(key, ts, stmt, op as u64, v))
                    .map_err(|e| AbortReason::ConsistencyViolation {
                        state: StateRef::new(spec.table, key),
                        detail: e.to_string(),
                    })?;
                Ok((key, v, true))
            }
            UdfOutcome::Value(v) => Ok((key, v, false)),
            UdfOutcome::Unchanged => Ok((key, input.target, false)),
        }
    }

    /// Touch the keys `spec` at `ts` would have read. Evaluating an
    /// operation materialises the missing keys of auto-create tables; how
    /// many siblings of a failing operation get that far before the abort
    /// lands depends on the schedule, so the ones that never ran are brought
    /// to the same footprint — the key set after a batch is then a function
    /// of the batch alone, and state digests do not move with thread timing.
    pub(crate) fn materialise_keys(&self, spec: &OperationSpec, ts: Timestamp) {
        self.read_before(spec.table, spec.target.resolve(ts), ts);
        for p in &spec.params {
            self.read_before(p.table, p.key, ts);
        }
    }

    /// Remove the version operation `op` of the transaction at `ts` wrote
    /// to `(table, key)`.
    pub(crate) fn rollback_write(&self, table: TableId, key: Key, op: OpId, ts: Timestamp) {
        // Writer ids are batch-local op ids, so they recur in every batch:
        // the rollback must be scoped to this transaction's own timestamp or
        // it could delete a committed version surviving from an earlier batch
        // whose writer happened to share the id.
        if let Ok(table) = self.table(table) {
            table.rollback_writer_at(key, op as u64, ts);
        }
    }
}
