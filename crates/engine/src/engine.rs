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
//! With [`EngineConfig::pipelined_construction`] enabled the planning stage
//! of punctuation `N+1` runs on a dedicated construction thread while
//! punctuation `N` executes on the worker pool (Section 4.2: construction is
//! meant to overlap event arrival and execution). The two stages are drained
//! by `flush`/`finish`, batches always execute in punctuation order, and the
//! final state is identical to the serial engine; only the timing — reported
//! through [`BatchSummary::timings`] — changes.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use morphstream_common::metrics::{Breakdown, BreakdownBucket, StageTimings};
use morphstream_common::{EngineConfig, Timestamp};
use morphstream_executor::execute_batch_with_units;
use morphstream_scheduler::{DecisionModel, Granularity, SchedulingDecision};
use morphstream_storage::StateStore;
use morphstream_tpg::{SchedulingUnits, Tpg, TpgBuilder, Transaction, TransactionBatch};

use crate::app::{StreamApp, TxnBuilder};
use crate::pipeline::{BatchHook, PendingBatch, SessionState, TxnEngine};
use crate::report::{BatchSummary, ReclaimVisits, RunReport};

/// Partitioning function assigning each event to a scheduling group (the
/// *nested* configuration of Section 8.2.3).
type GroupFn<E> = Arc<dyn Fn(&E) -> usize + Send + Sync>;

/// How the engine picks scheduling decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulingMode {
    /// Evaluate the heuristic decision model per batch (and per group when
    /// grouped processing is used) — the "Morph" behaviour.
    Adaptive(DecisionModel),
    /// Always use one fixed decision (used by the ablation studies of
    /// Section 8.4 and by the baseline reconstructions).
    Fixed(SchedulingDecision),
}

impl Default for SchedulingMode {
    fn default() -> Self {
        SchedulingMode::Adaptive(DecisionModel::new())
    }
}

/// The monotonic timestamp source of the engine (the ProgressController).
#[derive(Debug, Default)]
struct ProgressController {
    next: Timestamp,
}

impl ProgressController {
    /// Reserve `n` consecutive timestamps and return the first one. The
    /// batch that owns the reservation assigns them in event order, so a
    /// batch can be constructed off-thread while later events keep arriving.
    fn reserve(&mut self, n: usize) -> Timestamp {
        let first = self.next + 1;
        self.next += n as Timestamp;
        first
    }
}

/// A punctuation batch whose stream-processing and planning phases are done:
/// the output of the construction stage, ready for scheduling and execution.
struct ConstructedBatch<E> {
    /// The batch's events, in ingestion order (needed for post-processing).
    events: Vec<E>,
    /// Index of the batch within the session.
    batch_index: usize,
    /// Planned TPG per scheduling group; `None` for groups with no events.
    groups: Vec<Option<Arc<Tpg>>>,
    /// `(group, txn index within group)` of every event.
    txn_locator: Vec<(usize, usize)>,
    /// Highest timestamp assigned to this batch's transactions; versions at
    /// or before it may be reclaimed once the batch committed.
    watermark: Timestamp,
    /// Tables written by this batch — the scope of after-batch reclamation.
    /// Reclamation is per-table because the watermark is only meaningful in
    /// *this* engine's timestamp domain: on a store shared with sibling
    /// operators of a topology, truncating a table the sibling writes would
    /// apply an alien watermark to its version chains.
    written_tables: Vec<morphstream_common::TableId>,
    /// Tables serving windowed accesses in this batch (targets of windowed
    /// reads/writes plus their window parameters); pinned before
    /// reclamation so trailing windows keep their history.
    windowed_tables: Vec<morphstream_common::TableId>,
    /// When the batch was cut from the ingest buffer.
    batch_started: Instant,
    /// Wall-clock interval of the construction stage.
    construct_started: Instant,
    construct_finished: Instant,
}

/// A batch handed to the construction stage.
struct ConstructJob<E> {
    events: Vec<E>,
    batch_index: usize,
    /// First of the `events.len()` timestamps reserved for the batch.
    ts_base: Timestamp,
    batch_started: Instant,
}

/// Decompose `events` into per-group transaction batches and plan their TPGs
/// — the construction stage. Runs on the calling thread in the serial engine
/// and on the dedicated construction thread in the pipelined engine; both
/// paths execute exactly this code, so the modes cannot diverge.
fn construct_batch<A: StreamApp>(
    app: &A,
    planner: &TpgBuilder,
    group_of: &(dyn Fn(&A::Event) -> usize + '_),
    job: ConstructJob<A::Event>,
) -> ConstructedBatch<A::Event> {
    let ConstructJob {
        events,
        batch_index,
        ts_base,
        batch_started,
    } = job;
    let construct_started = Instant::now();

    // ---- Phase 1: stream processing (pre-processing + decomposition) ----
    let mut groups: Vec<TransactionBatch> = Vec::new();
    let mut txn_locator: Vec<(usize, usize)> = Vec::with_capacity(events.len());
    let mut written_tables: Vec<morphstream_common::TableId> = Vec::new();
    let mut windowed_tables: Vec<morphstream_common::TableId> = Vec::new();
    let note = |set: &mut Vec<morphstream_common::TableId>, table: morphstream_common::TableId| {
        if !set.contains(&table) {
            set.push(table);
        }
    };
    for (event_index, event) in events.iter().enumerate() {
        let ts = ts_base + event_index as Timestamp;
        let mut builder = TxnBuilder::new();
        app.state_access(event, &mut builder);
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
        let group = group_of(event);
        while groups.len() <= group {
            groups.push(
                TransactionBatch::new().with_expected_abort_ratio(app.expected_abort_ratio()),
            );
        }
        txn_locator.push((group, groups[group].len()));
        groups[group].push(txn);
    }

    // ---- Phase 2: planning (TPG construction, sharded by state key) ----
    let groups: Vec<Option<Arc<Tpg>>> = groups
        .into_iter()
        .map(|group| {
            if group.is_empty() {
                None
            } else {
                Some(Arc::new(planner.build(group)))
            }
        })
        .collect();

    let watermark = ts_base + events.len().saturating_sub(1) as Timestamp;
    ConstructedBatch {
        events,
        batch_index,
        groups,
        txn_locator,
        watermark,
        written_tables,
        windowed_tables,
        batch_started,
        construct_started,
        construct_finished: Instant::now(),
    }
}

/// The dedicated construction thread plus its two FIFO channels. At most one
/// batch is kept in flight by the engine (submit `N+1`, then execute `N`), so
/// memory stays bounded by two punctuation intervals.
struct ConstructionStage<E> {
    job_tx: Option<mpsc::Sender<ConstructJob<E>>>,
    done_rx: mpsc::Receiver<ConstructedBatch<E>>,
    worker: Option<JoinHandle<()>>,
    in_flight: usize,
}

impl<E: Send + 'static> ConstructionStage<E> {
    fn spawn<A: StreamApp<Event = E>>(
        app: Arc<A>,
        planner: TpgBuilder,
        group_of: GroupFn<E>,
    ) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<ConstructJob<E>>();
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::Builder::new()
            .name("morph-construct".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let constructed =
                        construct_batch(app.as_ref(), &planner, group_of.as_ref(), job);
                    if done_tx.send(constructed).is_err() {
                        break; // engine dropped mid-session
                    }
                }
            })
            .expect("failed to spawn the construction thread");
        Self {
            job_tx: Some(job_tx),
            done_rx,
            worker: Some(worker),
            in_flight: 0,
        }
    }

    fn submit(&mut self, job: ConstructJob<E>) {
        let sent = self
            .job_tx
            .as_ref()
            .expect("construction stage already shut down")
            .send(job);
        if sent.is_err() {
            self.propagate_worker_failure();
        }
        self.in_flight += 1;
    }

    /// Block until the oldest in-flight batch is constructed and take it;
    /// returns the batch plus how long the caller waited (pipeline sync
    /// time). `None` when nothing is in flight.
    fn take(&mut self) -> Option<(ConstructedBatch<E>, Duration)> {
        if self.in_flight == 0 {
            return None;
        }
        let wait_started = Instant::now();
        let constructed = match self.done_rx.recv() {
            Ok(constructed) => constructed,
            Err(_) => self.propagate_worker_failure(),
        };
        self.in_flight -= 1;
        Some((constructed, wait_started.elapsed()))
    }

    /// The worker hung up: join it and re-raise its panic with the original
    /// payload (an app panicking in `state_access` during off-thread
    /// construction must surface exactly like it does in the serial engine).
    fn propagate_worker_failure(&mut self) -> ! {
        if let Some(worker) = self.worker.take() {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        unreachable!("construction thread exited without panicking while channels were open");
    }
}

impl<E> Drop for ConstructionStage<E> {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop; join so no thread
        // outlives the engine. Pending results are dropped with `done_rx`.
        self.job_tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Workers TPG construction runs on: the execution worker count — halved
/// under pipelined construction, where it runs *beside* the execution pool
/// and the full count would oversubscribe the machine. Never less than 1.
fn construction_threads(config: &EngineConfig) -> usize {
    let threads = if config.pipelined_construction {
        config.num_threads / 2
    } else {
        config.num_threads
    };
    threads.max(1)
}

/// Wall-clock intersection of two intervals — how much of a batch's
/// construction ran while another batch was executing.
fn interval_overlap(a: (Instant, Instant), b: (Instant, Instant)) -> Duration {
    let start = a.0.max(b.0);
    let end = a.1.min(b.1);
    end.saturating_duration_since(start)
}

/// The MorphStream engine.
pub struct MorphStream<A: StreamApp> {
    app: Arc<A>,
    store: StateStore,
    config: EngineConfig,
    mode: SchedulingMode,
    progress: ProgressController,
    planner: TpgBuilder,
    group_of: Option<GroupFn<A::Event>>,
    session: SessionState<A::Event, A::Output>,
    /// Lazily spawned construction stage (pipelined mode only).
    construction: Option<ConstructionStage<A::Event>>,
    /// Execution interval of the most recently executed batch, against which
    /// the next batch's construction interval is intersected for the overlap
    /// metric.
    last_execute: Option<(Instant, Instant)>,
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
        let planner = TpgBuilder::new().with_threads(construction_threads(&config));
        Self {
            reclaim_visits: ReclaimVisits::new([&store]),
            app,
            store,
            config,
            mode: SchedulingMode::default(),
            progress: ProgressController::default(),
            planner,
            group_of: None,
            session: SessionState::new(),
            construction: None,
            last_execute: None,
        }
    }

    /// Replace the scheduling mode (adaptive by default).
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_scheduling_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Fix the scheduling decision for every batch.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_fixed_decision(self, decision: SchedulingDecision) -> Self {
        self.with_scheduling_mode(SchedulingMode::Fixed(decision))
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
        self.group_of = Some(Arc::new(group_of));
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

    /// Construct and execute the buffered events inline as one batch; a
    /// no-op on an empty buffer.
    fn process_pending_serial(&mut self, group_of: &dyn Fn(&A::Event) -> usize) {
        let Some(PendingBatch { events, batch }) = self.session.begin_batch() else {
            return;
        };
        let ts_base = self.progress.reserve(events.len());
        let constructed = construct_batch(
            self.app.as_ref(),
            &self.planner,
            group_of,
            ConstructJob {
                events,
                batch_index: batch,
                ts_base,
                batch_started: Instant::now(),
            },
        );
        self.execute_constructed(constructed, Duration::ZERO);
    }

    /// Hand the buffered events to the construction thread and, while it
    /// builds them, execute the previously constructed batch. Keeps at most
    /// one batch in flight, so memory is bounded by two punctuation
    /// intervals and batches execute strictly in punctuation order.
    fn process_pending_pipelined(&mut self) {
        let Some(PendingBatch { events, batch }) = self.session.begin_batch() else {
            return;
        };
        let ts_base = self.progress.reserve(events.len());
        let job = ConstructJob {
            events,
            batch_index: batch,
            ts_base,
            batch_started: Instant::now(),
        };
        self.construction_stage().submit(job);
        if self.construction.as_ref().is_some_and(|s| s.in_flight > 1) {
            self.execute_next_constructed();
        }
    }

    /// The construction stage, spawned on first use with the app, planner
    /// and grouping function of this engine.
    fn construction_stage(&mut self) -> &mut ConstructionStage<A::Event> {
        if self.construction.is_none() {
            self.construction = Some(ConstructionStage::spawn(
                self.app.clone(),
                self.planner.clone(),
                self.group_fn(),
            ));
        }
        self.construction.as_mut().expect("just initialised")
    }

    /// Take the oldest in-flight constructed batch (blocking on its
    /// construction if needed) and execute it.
    fn execute_next_constructed(&mut self) {
        let taken = self.construction.as_mut().and_then(ConstructionStage::take);
        if let Some((constructed, wait)) = taken {
            self.execute_constructed(constructed, wait);
        }
    }

    /// Execute every batch still in the construction stage, oldest first.
    fn drain_pipeline(&mut self) {
        while self.construction.as_ref().is_some_and(|s| s.in_flight > 0) {
            self.execute_next_constructed();
        }
    }

    /// Scheduling + execution + post-processing of one constructed batch —
    /// the downstream half of the punctuation pipeline. `wait` is how long
    /// the engine blocked on the construction stage (pipeline sync time).
    fn execute_constructed(&mut self, constructed: ConstructedBatch<A::Event>, wait: Duration) {
        let ConstructedBatch {
            events,
            batch_index,
            groups,
            txn_locator,
            watermark,
            written_tables,
            windowed_tables,
            batch_started,
            construct_started,
            construct_finished,
        } = constructed;
        let construct = construct_finished.duration_since(construct_started);
        let mut breakdown = Breakdown::new();
        breakdown.add(BreakdownBucket::Construct, construct);
        breakdown.add(BreakdownBucket::Sync, wait);

        // ---- Scheduling + execution per group ----
        let execute_started = Instant::now();
        let mut execute_in_workers = Duration::ZERO;
        let mut outcomes_per_group = Vec::with_capacity(groups.len());
        let mut decision_of_first_group = None;
        let mut committed = 0usize;
        let mut aborted = 0usize;
        let mut redone_ops = 0usize;
        let mut coarse_unit_builds = 0u64;
        for tpg in groups {
            let Some(tpg) = tpg else {
                outcomes_per_group.push(Vec::new());
                continue;
            };
            // Scheduling: decision model over the TPG properties. The coarse
            // partition is built only if the model needs its cycle flag to
            // choose, or the decision taken is to run on it.
            let explore_start = Instant::now();
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
            breakdown.add(BreakdownBucket::Explore, explore_start.elapsed());
            if decision_of_first_group.is_none() {
                decision_of_first_group = Some(decision);
            }

            // Execution.
            let batch_report = execute_batch_with_units(
                tpg,
                units,
                decision,
                &self.store,
                self.config.num_threads,
            );
            breakdown.merge(&batch_report.breakdown);
            execute_in_workers += batch_report.execute_wall;
            committed += batch_report.committed();
            aborted += batch_report.aborted();
            redone_ops += batch_report.redone_ops;
            outcomes_per_group.push(batch_report.outcomes);
        }

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
        // Checkpoint cue: the construction stage already knows which tables
        // this batch touched, so dirty-marking rides on that set instead of
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
        let execute_interval = (execute_started, Instant::now());
        // Construction time hidden behind the previous batch's execution:
        // zero by construction in the serial engine (the intervals cannot
        // intersect), positive when the pipeline overlapped the stages. The
        // overlap is intersected against the same full-stage interval that
        // `timings.execute` reports, so `overlap <= min(construct, execute)`
        // holds for adjacent batches.
        let overlap = self
            .last_execute
            .map(|prev| interval_overlap((construct_started, construct_finished), prev))
            .unwrap_or(Duration::ZERO);
        self.last_execute = Some(execute_interval);
        // The worker-pool time is a lower bound of the stage wall; the gap is
        // scheduling + post-processing + reclamation overhead.
        debug_assert!(execute_in_workers <= execute_interval.1.duration_since(execute_interval.0));
        let summary = BatchSummary {
            batch: batch_index,
            events: events.len(),
            committed,
            aborted,
            elapsed: batch_started.elapsed(),
            decision: decision_of_first_group.unwrap_or_default(),
            redone_ops,
            coarse_unit_builds,
            reclaim_keys_visited,
            bytes_retained: self.store.bytes_retained(),
            timings: StageTimings {
                construct,
                execute: execute_interval.1.duration_since(execute_interval.0),
                overlap,
            },
        };
        self.session.complete_batch(events, summary, &breakdown);
    }

    /// The stored grouping function, defaulting to a single group.
    fn group_fn(&self) -> GroupFn<A::Event> {
        self.group_of
            .clone()
            .unwrap_or_else(|| Arc::new(|_: &A::Event| 0))
    }
}

impl<A: StreamApp> TxnEngine for MorphStream<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn ingest(&mut self, event: A::Event) {
        // The grouping function is only consulted when a batch is cut, so it
        // is resolved lazily — the per-event path is a plain buffer push.
        let punctuation = self.punctuation_interval();
        if self.session.ingest(event, punctuation) {
            if self.config.pipelined_construction {
                self.process_pending_pipelined();
            } else {
                let group_of = self.group_fn();
                self.process_pending_serial(group_of.as_ref());
            }
        }
    }

    fn flush(&mut self) {
        // A flush is a synchronisation point: the trailing partial batch is
        // processed *and* both pipeline stages are drained, so the report
        // covers every pushed event when this returns.
        if self.config.pipelined_construction {
            self.process_pending_pipelined();
            self.drain_pipeline();
        } else {
            let group_of = self.group_fn();
            self.process_pending_serial(group_of.as_ref());
        }
    }

    fn finish(&mut self) -> RunReport<A::Output> {
        TxnEngine::flush(self);
        self.session.finish()
    }

    fn checkpoint(&mut self, sink: &mut dyn crate::pipeline::CheckpointSink) {
        // The flush is the checkpoint barrier: both pipeline stages drain,
        // so the store reflects every pushed event before it is offered.
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
    fn pipelined_construction_matches_the_serial_engine_exactly() {
        let (ref_store, accounts) = setup(1_000);
        let mut reference = MorphStream::new(
            Transfers { accounts },
            ref_store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(64),
        );
        let expected = reference.run(transfer_events(500));

        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(2)
                .with_punctuation_interval(64)
                .with_pipelined_construction(true),
        );
        let report = engine.run(transfer_events(500));

        assert_eq!(report.events(), expected.events());
        assert_eq!(report.committed, expected.committed);
        assert_eq!(report.aborted, expected.aborted);
        assert_eq!(report.outputs, expected.outputs);
        assert_eq!(report.batches.len(), expected.batches.len());
        // batches completed in punctuation order
        let order: Vec<usize> = report.batches.iter().map(|b| b.batch).collect();
        assert_eq!(order, (0..report.batches.len()).collect::<Vec<_>>());
        assert_eq!(
            store.snapshot_latest(accounts).unwrap(),
            ref_store.snapshot_latest(accounts).unwrap()
        );
        // stage timings were recorded; the serial reference hides nothing
        assert!(report.stage_timings.construct > std::time::Duration::ZERO);
        assert_eq!(expected.stage_timings.overlap, std::time::Duration::ZERO);
    }

    #[test]
    fn pipelined_sessions_stay_reusable_and_flush_drains_both_stages() {
        let (store, accounts) = setup(1_000);
        let mut engine = MorphStream::new(
            Transfers { accounts },
            store,
            EngineConfig::with_threads(2)
                .with_punctuation_interval(32)
                .with_pipelined_construction(true),
        );
        let mut pipeline = engine.pipeline();
        pipeline.push_iter(transfer_events(100));
        pipeline.flush();
        // after a flush both stages are drained: the report is complete
        assert_eq!(pipeline.report().events(), 100);
        let first = pipeline.finish();
        assert_eq!(first.events(), 100);
        let second = engine.run(transfer_events(50));
        assert_eq!(second.events(), 50);
        assert_eq!(second.batches.first().map(|b| b.batch), Some(0));
    }

    #[test]
    fn construction_thread_panics_propagate_with_the_original_payload() {
        struct Exploder {
            accounts: TableId,
        }
        impl StreamApp for Exploder {
            type Event = u64;
            type Output = bool;
            fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
                assert!(*event != 42, "boom on event 42");
                txn.write(self.accounts, *event % 8, udfs::add_delta(1));
            }
            fn post_process(&self, _event: &u64, outcome: &TxnOutcome) -> bool {
                outcome.committed
            }
        }
        let (store, accounts) = setup(100);
        let mut engine = MorphStream::new(
            Exploder { accounts },
            store,
            EngineConfig::with_threads(2)
                .with_punctuation_interval(8)
                .with_pipelined_construction(true),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run((0..64).collect::<Vec<u64>>())
        }));
        let payload = result.expect_err("the app panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("boom on event 42"),
            "panic payload was replaced: {message:?}"
        );
    }

    #[test]
    fn the_planner_follows_the_worker_count_and_halves_it_when_pipelined() {
        let planner_threads = |config: EngineConfig| {
            let (store, accounts) = setup(100);
            MorphStream::new(Transfers { accounts }, store, config)
                .planner
                .threads()
        };
        assert_eq!(planner_threads(EngineConfig::with_threads(3)), 3);
        // Pipelined construction runs beside the execution pool, so the
        // default splits the cores instead of oversubscribing them.
        let pipelined =
            |threads| EngineConfig::with_threads(threads).with_pipelined_construction(true);
        assert_eq!(planner_threads(pipelined(8)), 4);
        assert_eq!(planner_threads(pipelined(1)), 1);
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
