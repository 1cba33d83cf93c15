//! The MorphStream engine: punctuation-driven three-stage pipeline
//! (Algorithm 4) built from the architectural components of Figure 10.
//!
//! * The **ProgressController** assigns monotonically increasing timestamps
//!   to events and injects punctuations every `punctuation_interval` events.
//! * The **StreamManager** (pre/post-processing) is realised by calling the
//!   application's [`StreamApp::state_access`] and [`StreamApp::post_process`]
//!   around each batch.
//! * The **TxnManager** builds the TPG (planning stage).
//! * The **TxnScheduler** evaluates the decision model (scheduling stage).
//! * The **TxnExecutor** runs the batch through the executor crate
//!   (execution stage).
//!
//! A punctuation runs the three stages in order on the thread that cut it:
//! the `ingest` that crossed the interval, or a `flush`. Planning,
//! scheduling and execution of each group are a [`BatchExecutor`]'s; the
//! built-in one is MorphStream's, and the reconstructed baselines install
//! their own, so every system shares the rest of the punctuation path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use morphstream_common::metrics::{Breakdown, BreakdownBucket, StageTimings};
use morphstream_common::{effective_workers, EngineConfig, TableId, Timestamp};
use morphstream_executor::{execute_batch_with_units, TxnOutcome};
use morphstream_scheduler::{DecisionModel, Granularity, SchedulingDecision};
use morphstream_storage::StateStore;
use morphstream_tpg::{SchedulingUnits, TpgBuilder, Transaction, TransactionBatch};

use crate::app::{StreamApp, TxnBuilder};
use crate::pipeline::{BatchHook, PendingBatch, SessionState, TxnEngine};
use crate::report::{BatchSummary, ReclaimVisits, RunReport};

/// Partitioning function assigning each event to a scheduling group (the
/// *nested* configuration of Section 8.2.3).
type GroupFn<E> = Box<dyn Fn(&E) -> usize + Send + Sync>;

/// How the engine picks scheduling decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulingMode {
    /// Evaluate the heuristic decision model per batch (and per group when
    /// grouped processing is used) — the "Morph" behaviour.
    Adaptive(DecisionModel),
    /// Always use one fixed decision (used by the ablation studies of
    /// Section 8.4).
    Fixed(SchedulingDecision),
}

impl Default for SchedulingMode {
    fn default() -> Self {
        SchedulingMode::Adaptive(DecisionModel::new())
    }
}

/// What a [`BatchExecutor`] hands back for one group of a punctuation batch.
#[derive(Debug)]
pub struct ExecutedBatch {
    /// Per-transaction outcomes, in the order of the batch's transactions.
    pub outcomes: Vec<TxnOutcome>,
    /// Runtime breakdown of scheduling and execution. The engine adds the
    /// `Construct` bucket itself, from decomposition and [`Self::plan`].
    pub breakdown: Breakdown,
    /// Operations redone because of upstream aborts.
    pub redone_ops: usize,
    /// Time spent building the TPG; zero for an executor that builds none.
    pub plan: Duration,
    /// The scheduling decision the group ran under; `None` for an executor
    /// that takes none.
    pub decision: Option<SchedulingDecision>,
    /// Coarse scheduling-unit partitions built for the group.
    pub coarse_unit_builds: u64,
    /// Workers the group engaged, the calling thread included.
    pub workers: usize,
}

/// Plans (if it plans at all) and executes one decomposed group of a
/// punctuation batch against the store, on at most `threads` workers.
///
/// The engine owns everything around the call — decomposition, timestamps,
/// post-processing, pinning, dirty-marking, reclamation and the batch
/// summary — so systems that differ only in how a batch runs share one
/// punctuation path. MorphStream's adaptive or fixed scheduling is the
/// built-in executor; [`MorphStream::with_executor`] installs another.
pub trait BatchExecutor: Send {
    /// Plan and execute `batch`.
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch;
}

/// The built-in executor: build the group's TPG, decide how to schedule it
/// (per [`SchedulingMode`]), and run it.
struct Morph {
    mode: SchedulingMode,
}

impl BatchExecutor for Morph {
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch {
        // The group engages the workers its declared UDF work pays for, up
        // to `threads`, for planning and execution alike.
        let workers = effective_workers(threads, batch.declared_cost_us());

        // Planning: TPG construction, sharded by state key.
        let plan_started = Instant::now();
        let tpg = Arc::new(TpgBuilder::new().with_threads(workers).build(batch));
        let plan = plan_started.elapsed();

        // Scheduling: decision model over the TPG properties. The coarse
        // partition is built only if the model needs its cycle flag to
        // choose, or the decision taken is to run on it.
        let explore_start = Instant::now();
        let mut coarse_unit_builds = 0u64;
        let mut build_coarse = || {
            coarse_unit_builds += 1;
            SchedulingUnits::coarse(&tpg)
        };
        let mut coarse_units = None;
        let decision = match &self.mode {
            SchedulingMode::Fixed(decision) => *decision,
            SchedulingMode::Adaptive(model) => model.decide_with(tpg.stats(), || {
                coarse_units.insert(build_coarse()).had_cycles
            }),
        };
        let units = match decision.granularity {
            Granularity::Coarse => coarse_units.take().unwrap_or_else(build_coarse),
            Granularity::Fine => SchedulingUnits::fine(&tpg),
        };
        let explore = explore_start.elapsed();

        // Execution.
        let report = execute_batch_with_units(tpg, units, decision, store, workers);
        let mut breakdown = report.breakdown;
        breakdown.add(BreakdownBucket::Explore, explore);
        ExecutedBatch {
            outcomes: report.outcomes,
            breakdown,
            redone_ops: report.redone_ops,
            plan,
            decision: Some(decision),
            coarse_unit_builds,
            workers,
        }
    }
}

/// The monotonic timestamp source of the engine (the ProgressController).
#[derive(Debug, Default)]
struct ProgressController {
    next: Timestamp,
}

impl ProgressController {
    /// Reserve `n` consecutive timestamps and return the first one. The
    /// batch that owns the reservation assigns them in event order.
    fn reserve(&mut self, n: usize) -> Timestamp {
        let first = self.next + 1;
        self.next += n as Timestamp;
        first
    }
}

/// The MorphStream engine.
pub struct MorphStream<A: StreamApp> {
    app: Arc<A>,
    store: StateStore,
    config: EngineConfig,
    progress: ProgressController,
    /// Plans and executes each group of a punctuation batch.
    executor: Box<dyn BatchExecutor>,
    /// Scheduling group of an event; every event is in group 0 unless
    /// [`MorphStream::with_group_fn`] installed a partitioning.
    group_of: GroupFn<A::Event>,
    session: SessionState<A::Event, A::Output>,
    /// Meters the store's reclaim visits into per-batch figures.
    reclaim_visits: ReclaimVisits,
}

impl<A: StreamApp> MorphStream<A> {
    /// Create an engine for `app` over `store`.
    pub fn new(app: A, store: StateStore, config: EngineConfig) -> Self {
        Self::with_shared_app(Arc::new(app), store, config)
    }

    /// [`MorphStream::new`] over an application object other engines run
    /// too: the parallel instances of one topology operator.
    pub(crate) fn with_shared_app(app: Arc<A>, store: StateStore, config: EngineConfig) -> Self {
        Self {
            reclaim_visits: ReclaimVisits::new([&store]),
            executor: Box::new(Morph {
                mode: SchedulingMode::default(),
            }),
            app,
            store,
            config,
            progress: ProgressController::default(),
            group_of: Box::new(|_: &A::Event| 0),
            session: SessionState::new(),
        }
    }

    /// Run the built-in executor under `mode` (adaptive by default).
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_scheduling_mode(mut self, mode: SchedulingMode) -> Self {
        self.executor = Box::new(Morph { mode });
        self
    }

    /// Fix the scheduling decision for every batch.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_fixed_decision(self, decision: SchedulingDecision) -> Self {
        self.with_scheduling_mode(SchedulingMode::Fixed(decision))
    }

    /// Plan and execute every group with `executor` instead of the built-in
    /// one — how the reconstructed baselines are built. Everything else a
    /// punctuation does stays the engine's.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_executor(mut self, executor: impl BatchExecutor + 'static) -> Self {
        self.executor = Box::new(executor);
        self
    }

    /// Partition ingested transactions into groups by `group_of`; each group
    /// gets its own scheduling decision within a batch (the *nested*
    /// configuration of Section 8.2.3).
    ///
    /// Groups are planned and executed independently, so transactions of
    /// different groups must access disjoint states.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_group_fn(
        mut self,
        group_of: impl Fn(&A::Event) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.group_of = Box::new(group_of);
        self
    }

    /// Shared state store handle.
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The application driving this engine.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The punctuation interval in events; `usize::MAX` when unset (one
    /// batch per flush).
    pub(crate) fn punctuation_interval(&self) -> usize {
        self.config
            .punctuation_interval
            .unwrap_or(usize::MAX)
            .max(1)
    }

    /// Take the outputs of the batches completed since the last call (see
    /// [`SessionState::take_outputs`]).
    pub(crate) fn take_outputs(&mut self) -> Vec<A::Output> {
        self.session.take_outputs()
    }

    /// Run the buffered events as one punctuation batch — decomposition,
    /// then planning, scheduling and execution by the executor, then
    /// post-processing and reclamation — on the calling thread; a no-op on an
    /// empty buffer. The one batch loop of every engine, baselines included.
    fn process_pending(&mut self) {
        let Some(PendingBatch { events, batch }) = self.session.begin_batch() else {
            return;
        };
        let ts_base = self.progress.reserve(events.len());
        let batch_started = Instant::now();

        // ---- Phase 1: stream processing (pre-processing + decomposition) ----
        let mut groups: Vec<TransactionBatch> = Vec::new();
        let mut txn_locator: Vec<(usize, usize)> = Vec::with_capacity(events.len());
        // Tables written by this batch — the scope of after-batch reclamation
        // — and tables serving windowed accesses (targets of windowed
        // reads/writes plus their window parameters), pinned before
        // reclamation so trailing windows keep their history.
        let mut written_tables: Vec<TableId> = Vec::new();
        let mut windowed_tables: Vec<TableId> = Vec::new();
        let note = |set: &mut Vec<TableId>, table: TableId| {
            if !set.contains(&table) {
                set.push(table);
            }
        };
        for (event_index, event) in events.iter().enumerate() {
            let ts = ts_base + event_index as Timestamp;
            let mut builder = TxnBuilder::new();
            self.app.state_access(event, &mut builder);
            let ops = builder.into_ops();
            for op in &ops {
                if op.kind.is_write() {
                    note(&mut written_tables, op.table);
                }
                if op.kind.is_windowed() {
                    note(&mut windowed_tables, op.table);
                    for param in &op.params {
                        note(&mut windowed_tables, param.table);
                    }
                }
            }
            let txn = Transaction::new(ts, ops).with_event_index(event_index);
            let group = (self.group_of)(event);
            while groups.len() <= group {
                groups.push(
                    TransactionBatch::new()
                        .with_expected_abort_ratio(self.app.expected_abort_ratio()),
                );
            }
            txn_locator.push((group, groups[group].len()));
            groups[group].push(txn);
        }

        // Versions at or before the batch's last timestamp may be reclaimed
        // once the batch committed.
        let watermark = ts_base + events.len().saturating_sub(1) as Timestamp;
        let decompose = batch_started.elapsed();

        // ---- Phases 2 and 3: each group planned, scheduled and executed ----
        let execute_started = Instant::now();
        let mut breakdown = Breakdown::new();
        let mut plan = Duration::ZERO;
        let mut outcomes_per_group = Vec::with_capacity(groups.len());
        let mut decision_of_first_group = None;
        let mut committed = 0usize;
        let mut aborted = 0usize;
        let mut redone_ops = 0usize;
        let mut coarse_unit_builds = 0u64;
        let mut workers = 0usize;
        for group in groups {
            if group.is_empty() {
                outcomes_per_group.push(Vec::new());
                continue;
            }
            let executed = self
                .executor
                .execute(group, &self.store, self.config.num_threads);
            plan += executed.plan;
            breakdown.merge(&executed.breakdown);
            decision_of_first_group = decision_of_first_group.or(executed.decision);
            let group_committed = executed.outcomes.iter().filter(|o| o.committed).count();
            committed += group_committed;
            aborted += executed.outcomes.len() - group_committed;
            redone_ops += executed.redone_ops;
            coarse_unit_builds += executed.coarse_unit_builds;
            workers = workers.max(executed.workers);
            outcomes_per_group.push(executed.outcomes);
        }
        let construct = decompose + plan;
        breakdown.add(BreakdownBucket::Construct, construct);

        // ---- Post-processing ----
        for (event, (group, txn_idx)) in events.iter().zip(&txn_locator) {
            let outcome = &outcomes_per_group[*group][*txn_idx];
            let output = self.app.post_process(event, outcome);
            self.session.push_output(output);
        }

        // ---- Bookkeeping ----
        // Windowed tables are pinned before any reclamation: a trailing
        // window aggregates historical versions that truncation would drop.
        for table in &windowed_tables {
            let _ = self.store.pin_table(*table);
        }
        // Checkpoint cue: decomposition already knows which tables this
        // batch touched, so dirty-marking rides on that set instead of
        // relying solely on the per-write flag inside the store.
        self.store.mark_tables_dirty(&written_tables);
        if self.config.reclaim_after_batch {
            // Per-table scope: reclaim only the tables this batch wrote. The
            // watermark lives in this engine's timestamp domain, so on a
            // store shared with sibling operators (each stamping its own
            // domain) it must never be applied to a sibling's tables.
            self.store
                .truncate_tables_before(&written_tables, watermark);
        }
        let reclaim_keys_visited = self.reclaim_visits.take([&self.store]);
        // Everything after planning: scheduling, execution, post-processing
        // and reclamation.
        let execute = execute_started.elapsed().saturating_sub(plan);
        let summary = BatchSummary {
            batch,
            events: events.len(),
            committed,
            aborted,
            elapsed: batch_started.elapsed(),
            decision: decision_of_first_group.unwrap_or_default(),
            redone_ops,
            coarse_unit_builds,
            workers,
            reclaim_keys_visited,
            bytes_retained: self.store.bytes_retained(),
            timings: StageTimings {
                construct,
                execute,
                // One batch is in flight at a time: nothing overlaps.
                overlap: Duration::ZERO,
            },
        };
        self.session.complete_batch(events, summary, &breakdown);
    }
}

impl<A: StreamApp> TxnEngine for MorphStream<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn ingest(&mut self, event: A::Event) {
        let punctuation = self.punctuation_interval();
        if self.session.ingest(event, punctuation) {
            self.process_pending();
        }
    }

    fn flush(&mut self) {
        self.process_pending();
    }

    fn finish(&mut self) -> RunReport<A::Output> {
        TxnEngine::flush(self);
        self.session.finish()
    }

    fn checkpoint(&mut self, sink: &mut dyn crate::pipeline::CheckpointSink) {
        // The flush is the checkpoint barrier: the store reflects every
        // pushed event before it is offered.
        TxnEngine::flush(self);
        sink.store(0, &self.store, self.store.take_dirty_tables());
    }

    fn restore(&mut self, source: &mut dyn crate::pipeline::CheckpointSource) {
        source.restore(0, &self.store);
    }

    fn report(&self) -> &RunReport<A::Output> {
        self.session.report()
    }

    fn set_batch_hook(&mut self, hook: Option<BatchHook>) {
        self.session.set_batch_hook(hook);
    }

    fn set_output_sink(&mut self, sink: Option<crate::pipeline::OutputSink<A::Output>>) {
        self.session.set_output_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream_common::{StateRef, TableId, Value};
    use morphstream_executor::TxnOutcome;
    use morphstream_tpg::udfs;

    /// A tiny transfer application used by the engine tests.
    struct Transfers {
        accounts: TableId,
    }

    /// Event: transfer `amount` from one account to another, or deposit.
    enum LedgerEvent {
        Deposit { to: u64, amount: Value },
        Transfer { from: u64, to: u64, amount: Value },
    }

    impl StreamApp for Transfers {
        type Event = LedgerEvent;
        type Output = bool;

        fn state_access(&self, event: &LedgerEvent, txn: &mut TxnBuilder) {
            match event {
                LedgerEvent::Deposit { to, amount } => {
                    txn.write(self.accounts, *to, udfs::add_delta(*amount));
                }
                LedgerEvent::Transfer { from, to, amount } => {
                    txn.write(self.accounts, *from, udfs::withdraw(*amount));
                    txn.write_with_params(
                        self.accounts,
                        *to,
                        vec![StateRef::new(self.accounts, *from)],
                        udfs::credit_if_param_at_least(*amount, *amount),
                    );
                }
            }
        }

        fn post_process(&self, _event: &LedgerEvent, outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    fn setup(initial_balance: Value) -> (StateStore, TableId) {
        let store = StateStore::new();
        let accounts = store.create_table("accounts", initial_balance, false);
        store.preallocate_range(accounts, 64).unwrap();
        (store, accounts)
    }

    fn transfer_events(n: u64) -> Vec<LedgerEvent> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    LedgerEvent::Deposit {
                        to: i % 64,
                        amount: 10,
                    }
                } else {
                    LedgerEvent::Transfer {
                        from: i % 64,
                        to: (i * 13 + 7) % 64,
                        amount: 5,
                    }
                }
            })
            .collect()
    }

    fn total_balance(store: &StateStore, accounts: TableId) -> Value {
        store
            .snapshot_latest(accounts)
            .unwrap()
            .values()
            .sum::<Value>()
    }

    #[test]
    fn adaptive_engine_processes_batches_and_preserves_invariants() {
        let (store, accounts) = setup(1_000);
        let deposits_expected: Value = transfer_events(300)
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::Deposit { amount, .. } => Some(*amount),
                _ => None,
            })
            .sum();
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(64),
        );
        let report = engine.run(transfer_events(300));
        assert_eq!(report.events(), 300);
        assert_eq!(report.committed + report.aborted, 300);
        assert!(report.batches.len() >= 4);
        assert!(report.k_events_per_second() > 0.0);
        assert!(report.latency.len() == 300);
        // Transfers preserve the total; only committed deposits add money. No
        // transfer can abort here (balances stay positive), so the total is
        // the initial amount plus all deposits.
        assert_eq!(report.aborted, 0);
        assert_eq!(
            total_balance(&store, accounts),
            64 * 1_000 + deposits_expected
        );
    }

    #[test]
    fn fixed_decisions_produce_the_same_final_state_as_adaptive() {
        let decisions = SchedulingDecision::all();
        let (reference_store, accounts) = setup(500);
        let mut reference = MorphStream::new(
            Transfers { accounts },
            reference_store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(50),
        );
        reference.run(transfer_events(200));
        let expected = reference_store.snapshot_latest(accounts).unwrap();

        for decision in decisions {
            let (store, accounts) = setup(500);
            let mut engine = MorphStream::new(
                Transfers { accounts },
                store.clone(),
                EngineConfig::with_threads(4).with_punctuation_interval(50),
            )
            .with_fixed_decision(decision);
            engine.run(transfer_events(200));
            assert_eq!(
                store.snapshot_latest(accounts).unwrap(),
                expected,
                "decision {decision} diverged from the reference state"
            );
        }
    }

    #[test]
    fn grouped_processing_assigns_separate_decisions() {
        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        )
        .with_group_fn(|e| match e {
            LedgerEvent::Deposit { .. } => 0,
            LedgerEvent::Transfer { .. } => 1,
        });
        let report = engine.run(transfer_events(200));
        assert_eq!(report.events(), 200);
        assert_eq!(report.committed + report.aborted, 200);
    }

    #[test]
    fn reclamation_bounds_memory_growth() {
        let (store_keep, accounts) = setup(100);
        let mut keep = MorphStream::new(
            Transfers { accounts },
            store_keep.clone(),
            EngineConfig::with_threads(2)
                .with_punctuation_interval(50)
                .with_reclaim_after_batch(false),
        );
        keep.run(transfer_events(400));

        let (store_reclaim, accounts) = setup(100);
        let mut reclaim = MorphStream::new(
            Transfers { accounts },
            store_reclaim.clone(),
            EngineConfig::with_threads(2)
                .with_punctuation_interval(50)
                .with_reclaim_after_batch(true),
        );
        reclaim.run(transfer_events(400));

        assert!(store_reclaim.version_count() < store_keep.version_count());
        // final balances identical
        assert_eq!(
            store_reclaim.snapshot_latest(accounts).unwrap(),
            store_keep.snapshot_latest(accounts).unwrap()
        );
    }

    #[test]
    fn reclamation_is_per_table_and_pins_windowed_tables() {
        /// Writes a hot counter table every event; every fourth event also
        /// appends to a log table and window-reads its full history.
        struct WindowedTail {
            hot: TableId,
            log: TableId,
        }
        impl StreamApp for WindowedTail {
            type Event = u64;
            type Output = Value;
            fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
                txn.write(self.hot, *event % 8, udfs::add_delta(1));
                if event.is_multiple_of(4) {
                    txn.write(self.log, 0, udfs::add_delta(1));
                    txn.window_read(self.log, 0, 1 << 30, udfs::window_sum());
                }
            }
            fn post_process(&self, _event: &u64, outcome: &TxnOutcome) -> Value {
                outcome.committed as Value
            }
        }

        let store = StateStore::new();
        let hot = store.create_table("hot", 0, true);
        let log = store.create_table("log", 0, true);
        let mut engine = MorphStream::new(
            WindowedTail { hot, log },
            store.clone(),
            EngineConfig::with_threads(2)
                .with_punctuation_interval(32)
                .with_reclaim_after_batch(true),
        );
        let report = engine.run(0..256u64);
        assert_eq!(report.committed, 256);
        // the hot table was reclaimed down to roughly one version per key…
        assert!(store.table(hot).unwrap().version_count() < 32);
        // …while the windowed log was pinned: its full history survives
        assert!(store.table(log).unwrap().is_pinned());
        assert_eq!(
            store.window_values(log, 0, 1, u64::MAX).unwrap().len(),
            64 // one log append per 4 events
        );
    }

    #[test]
    fn abort_ratio_is_reported_when_withdrawals_fail() {
        let (store, accounts) = setup(0); // zero balances: every transfer aborts
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(32),
        );
        let events: Vec<LedgerEvent> = (0..64)
            .map(|i| LedgerEvent::Transfer {
                from: i % 8,
                to: (i + 1) % 8,
                amount: 100,
            })
            .collect();
        let report = engine.run(events);
        assert_eq!(report.aborted, 64);
        assert_eq!(report.committed, 0);
        // no money was created or destroyed by the aborted transfers
        assert_eq!(total_balance(&store, accounts), 0);
        // outputs reflect the aborts
        assert!(report.outputs.iter().all(|committed| !committed));
    }

    #[test]
    fn empty_stream_finishes_with_a_well_formed_report() {
        let (store, accounts) = setup(100);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(8),
        );
        let report = engine.pipeline().finish();
        assert_eq!(report.events(), 0);
        assert_eq!(report.committed, 0);
        assert_eq!(report.aborted, 0);
        assert!(report.batches.is_empty());
        assert_eq!(report.k_events_per_second(), 0.0);
        assert!(report.decision_trace().is_empty());
        assert_eq!(report.latency.len(), 0);
        // the legacy wrapper behaves identically
        let report = engine.run(Vec::new());
        assert_eq!(report.events(), 0);
        assert!(report.batches.is_empty());
    }

    #[test]
    fn pushed_session_matches_process_and_fires_batch_hook() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (ref_store, accounts) = setup(1_000);
        let mut reference = MorphStream::new(
            Transfers { accounts },
            ref_store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(64),
        );
        let expected = reference.run(transfer_events(300));

        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(64),
        );
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        let mut pipeline = engine.pipeline().on_batch(move |batch| {
            assert!(batch.events <= 64);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for event in transfer_events(300) {
            pipeline.push(event);
        }
        let report = pipeline.finish();
        assert_eq!(report.events(), 300);
        assert_eq!(report.batches.len(), expected.batches.len());
        assert_eq!(fired.load(Ordering::Relaxed), report.batches.len());
        assert_eq!(report.committed, expected.committed);
        assert_eq!(report.aborted, expected.aborted);
        assert_eq!(report.outputs, expected.outputs);
        assert_eq!(
            store.snapshot_latest(accounts).unwrap(),
            ref_store.snapshot_latest(accounts).unwrap()
        );
    }

    #[test]
    fn sessions_are_reusable_after_finish() {
        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(32),
        );
        let first = engine.run(transfer_events(50));
        let second = engine.run(transfer_events(50));
        assert_eq!(first.events(), 50);
        assert_eq!(second.events(), 50);
        // batch indices restart per session; timestamps keep advancing
        assert_eq!(second.batches.first().map(|b| b.batch), Some(0));
    }

    #[test]
    fn the_workers_follow_the_declared_work() {
        /// One deposit per event, each declaring `cost_us` of UDF work.
        struct Costed {
            accounts: TableId,
            cost_us: u64,
        }
        impl StreamApp for Costed {
            type Event = u64;
            type Output = ();
            fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
                txn.set_cost_us(self.cost_us)
                    .write(self.accounts, event % 64, udfs::add_delta(1));
            }
            fn post_process(&self, _event: &u64, _outcome: &TxnOutcome) {}
        }

        const EVENTS: u64 = 16;
        let workers_at = |cost_us: u64| -> Vec<usize> {
            let (store, accounts) = setup(0);
            let config = EngineConfig::with_threads(3).with_punctuation_interval(EVENTS as usize);
            let mut engine = MorphStream::new(Costed { accounts, cost_us }, store, config);
            let report = engine.run(0..EVENTS);
            report.batches.iter().map(|b| b.workers).collect()
        };
        let share = morphstream_common::WORK_PER_WORKER_US;
        // `num_threads` is a ceiling: a batch that declares no work runs on
        // the caller alone, …
        assert_eq!(workers_at(0), [1]);
        // … each share of declared work pays for one more worker …
        assert_eq!(workers_at(share.div_ceil(EVENTS)), [2]);
        // … and no batch engages more than the configured three.
        assert_eq!(workers_at(10 * share / EVENTS), [3]);
    }

    #[test]
    fn decision_trace_reports_morphing() {
        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store,
            EngineConfig::with_threads(2).with_punctuation_interval(64),
        );
        let report = engine.run(transfer_events(128));
        assert!(!report.decision_trace().is_empty());
        assert_eq!(report.batches.len(), 2);
    }
}
