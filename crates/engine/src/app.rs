//! The programming model: the three-step operator template and the
//! system-provided state access APIs (Tables 4 and 5 of the paper).

use std::sync::Arc;

use morphstream_common::{Key, StateRef, TableId, Timestamp, Value};
use morphstream_executor::TxnOutcome;
use morphstream_tpg::{KeyResolver, OperationSpec, Udf};

/// Builder collecting the state access operations of one state transaction —
/// the Rust rendition of the paper's `STATE_ACCESS` step and its
/// system-provided `READ` / `WRITE` APIs (Table 5), including the windowed
/// and non-deterministic variants.
#[derive(Default)]
pub struct TxnBuilder {
    ops: Vec<OperationSpec>,
    cost_us: u64,
}

impl TxnBuilder {
    /// Empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the emulated UDF cost (µs) applied to operations added *after*
    /// this call (the paper's `C` workload knob).
    pub fn set_cost_us(&mut self, cost_us: u64) -> &mut Self {
        self.cost_us = cost_us;
        self
    }

    /// `READ(key)`: read `(table, key)`; the value is available to
    /// post-processing through the transaction outcome.
    pub fn read(&mut self, table: TableId, key: Key) -> &mut Self {
        self.push(OperationSpec::read(table, key));
        self
    }

    /// `WRITE(key, f)`: update `(table, key)` with `udf` applied to its
    /// current value.
    pub fn write(&mut self, table: TableId, key: Key, udf: Udf) -> &mut Self {
        self.push(OperationSpec::write(table, key, Vec::new(), udf));
        self
    }

    /// `WRITE(d, f(s...))`: update `(table, key)` with `udf` applied to its
    /// current value and the values of `params` — a data (parametric)
    /// dependency on those states.
    pub fn write_with_params(
        &mut self,
        table: TableId,
        key: Key,
        params: Vec<StateRef>,
        udf: Udf,
    ) -> &mut Self {
        self.push(OperationSpec::write(table, key, params, udf));
        self
    }

    /// `READ(win_f(d, size))`: windowed read of `(table, key)` over the
    /// trailing `window` range, aggregated by `udf`.
    pub fn window_read(
        &mut self,
        table: TableId,
        key: Key,
        window: Timestamp,
        udf: Udf,
    ) -> &mut Self {
        self.push(OperationSpec::window_read(table, key, window, udf));
        self
    }

    /// `WRITE(d, win_f(s..., size))`: windowed write — `(table, key)` is
    /// updated with `udf` applied to the versions of `params` inside the
    /// trailing `window` range.
    pub fn window_write(
        &mut self,
        table: TableId,
        key: Key,
        params: Vec<StateRef>,
        window: Timestamp,
        udf: Udf,
    ) -> &mut Self {
        self.push(OperationSpec::window_write(table, key, params, window, udf));
        self
    }

    /// `READ(f, ...)`: non-deterministic read — the key is produced by
    /// `resolver` at execution time.
    pub fn non_det_read(
        &mut self,
        table: TableId,
        resolver: KeyResolver,
        udf: Option<Udf>,
    ) -> &mut Self {
        self.push(OperationSpec::non_det_read(table, resolver, udf));
        self
    }

    /// `WRITE(f1, f2)`: non-deterministic write — the key is produced by
    /// `resolver`, the value by `udf` over `params`.
    pub fn non_det_write(
        &mut self,
        table: TableId,
        resolver: KeyResolver,
        params: Vec<StateRef>,
        udf: Udf,
    ) -> &mut Self {
        self.push(OperationSpec::non_det_write(table, resolver, params, udf));
        self
    }

    fn push(&mut self, spec: OperationSpec) {
        self.ops.push(spec.with_cost_us(self.cost_us));
    }

    /// Number of operations added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation was added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consume the builder, returning the operation specs.
    pub fn into_ops(self) -> Vec<OperationSpec> {
        self.ops
    }
}

/// A streaming application expressed in the paper's three-step programming
/// model. The engine drives the steps:
///
/// 1. *pre-processing* is folded into [`StreamApp::state_access`] — the
///    application inspects the event and declares the read/write sets;
/// 2. *state access* — the declared operations form one state transaction per
///    event and are executed transactionally by the engine;
/// 3. *post-processing* — once the transaction commits or aborts, the
///    application turns the outcome into an output record.
///
/// Applications are `Send + Sync + 'static`, and so are their events, because
/// a topology's threaded driver runs each operator engine on its own thread
/// and hands it event batches across a channel, and the parallel instances of
/// one operator share a single `Arc<A>`. `state_access` must not read the
/// shared state — it *declares* accesses, and runs while the batch is planned,
/// before any of its transactions executes.
pub trait StreamApp: Send + Sync + 'static {
    /// Input event type.
    type Event: Send + Sync + 'static;
    /// Output record type.
    type Output: Send;

    /// Declare the state transaction triggered by `event` (pre-processing +
    /// state access).
    fn state_access(&self, event: &Self::Event, txn: &mut TxnBuilder);

    /// Turn the transaction outcome into an output record (post-processing).
    fn post_process(&self, event: &Self::Event, outcome: &TxnOutcome) -> Self::Output;

    /// Hint of the fraction of transactions expected to abort; feeds the
    /// decision model. Defaults to 0.
    fn expected_abort_ratio(&self) -> f64 {
        0.0
    }
}

impl<A: StreamApp + ?Sized> StreamApp for Arc<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn state_access(&self, event: &Self::Event, txn: &mut TxnBuilder) {
        (**self).state_access(event, txn)
    }

    fn post_process(&self, event: &Self::Event, outcome: &TxnOutcome) -> Self::Output {
        (**self).post_process(event, outcome)
    }

    fn expected_abort_ratio(&self) -> f64 {
        (**self).expected_abort_ratio()
    }
}

/// Value helper: interpret a committed outcome's op result, defaulting to 0.
pub fn result_or_zero(outcome: &TxnOutcome, idx: usize) -> Value {
    outcome.result(idx).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream_tpg::{udfs, AccessKind};

    const T: TableId = TableId(0);

    #[test]
    fn builder_collects_all_api_variants() {
        let mut txn = TxnBuilder::new();
        txn.set_cost_us(7)
            .read(T, 1)
            .write(T, 2, udfs::add_delta(1))
            .write_with_params(T, 3, vec![StateRef::new(T, 1)], udfs::sum_params())
            .window_read(T, 4, 100, udfs::window_sum())
            .window_write(T, 5, vec![StateRef::new(T, 4)], 100, udfs::window_sum())
            .non_det_read(T, Arc::new(|ts| ts), None)
            .non_det_write(T, Arc::new(|ts| ts), vec![], udfs::set_value(1));
        assert_eq!(txn.len(), 7);
        assert!(!txn.is_empty());
        let ops = txn.into_ops();
        let kinds: Vec<AccessKind> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Read,
                AccessKind::Write,
                AccessKind::Write,
                AccessKind::WindowRead,
                AccessKind::WindowWrite,
                AccessKind::NonDetRead,
                AccessKind::NonDetWrite,
            ]
        );
        assert!(ops.iter().all(|o| o.cost_us == 7));
    }

    #[test]
    fn cost_applies_only_after_it_is_set() {
        let mut txn = TxnBuilder::new();
        txn.read(T, 1).set_cost_us(50).read(T, 2);
        let ops = txn.into_ops();
        assert_eq!(ops[0].cost_us, 0);
        assert_eq!(ops[1].cost_us, 50);
    }

    #[test]
    fn empty_builder_reports_empty() {
        let txn = TxnBuilder::new();
        assert!(txn.is_empty());
        assert_eq!(txn.len(), 0);
        assert!(txn.into_ops().is_empty());
    }
}
