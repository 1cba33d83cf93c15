//! Shared push-based ingestion glue for the baseline engines.
//!
//! All baselines consume the same [`StreamApp`] applications as MorphStream
//! and report the same [`RunReport`] metrics; they differ only in how a batch
//! of transactions is executed. The session mechanics (event buffer,
//! punctuation cuts, batch indexing, hook firing, metric folding, finish-time
//! reset) come from the engine crate's
//! [`SessionState`](morphstream::SessionState) — the same state machine
//! MorphStream itself runs on — so the systems under comparison cannot drift
//! in their bookkeeping. This module adds only what is baseline-specific:
//! turning a chunk of events into a timestamped [`TransactionBatch`] and
//! handing it to the baseline's `execute` closure.

use std::time::Instant;

use morphstream::storage::StateStore;
use morphstream::{
    BatchHook, EngineConfig, PendingBatch, SessionState, StreamApp, TxnBuilder, TxnOutcome,
};
use morphstream_common::metrics::{Breakdown, StageTimings};
use morphstream_common::Timestamp;
use morphstream_tpg::{Transaction, TransactionBatch};

use morphstream::{BatchSummary, RunReport};

/// Result of executing one batch in a baseline engine.
pub(crate) struct ExecutedBatch {
    pub outcomes: Vec<TxnOutcome>,
    pub breakdown: Breakdown,
    pub redone_ops: usize,
}

/// Punctuation-driven ingestion state shared by every baseline: the common
/// [`SessionState`] plus the monotonically increasing event timestamp the
/// baselines stamp their transactions with.
pub(crate) struct IngestState<A: StreamApp> {
    session: SessionState<A::Event, A::Output>,
    next_ts: Timestamp,
}

impl<A: StreamApp> IngestState<A> {
    pub fn new() -> Self {
        Self {
            session: SessionState::new(),
            next_ts: 0,
        }
    }

    /// Buffer `event`; returns `true` when the punctuation interval was
    /// crossed and the caller must cut a batch with [`IngestState::flush`].
    /// Split from the flush so the per-event path stays a plain buffer push
    /// and baselines build their batch executor only when a batch is due.
    pub fn buffer_event(&mut self, event: A::Event, config: &EngineConfig) -> bool {
        let punctuation = config.punctuation_interval.unwrap_or(usize::MAX);
        self.session.ingest(event, punctuation)
    }

    /// Process the buffered events as a (possibly partial) batch; a no-op on
    /// an empty buffer.
    pub fn flush<F>(&mut self, app: &A, store: &StateStore, config: &EngineConfig, execute: F)
    where
        F: FnMut(TransactionBatch, &StateStore, usize) -> ExecutedBatch,
    {
        self.process_pending(app, store, config, execute);
    }

    /// Close the session and return the accumulated report.
    pub fn finish(&mut self) -> RunReport<A::Output> {
        self.session.finish()
    }

    /// The report accumulated so far in the current session.
    pub fn report(&self) -> &RunReport<A::Output> {
        self.session.report()
    }

    /// Install (or clear) the per-batch observability hook.
    pub fn set_batch_hook(&mut self, hook: Option<BatchHook>) {
        self.session.set_batch_hook(hook);
    }

    /// Install (or remove) the output sink (see
    /// [`TxnEngine::set_output_sink`](morphstream::TxnEngine::set_output_sink)).
    pub fn set_output_sink(&mut self, sink: Option<morphstream::OutputSink<A::Output>>) {
        self.session.set_output_sink(sink);
    }

    fn process_pending<F>(
        &mut self,
        app: &A,
        store: &StateStore,
        config: &EngineConfig,
        mut execute: F,
    ) where
        F: FnMut(TransactionBatch, &StateStore, usize) -> ExecutedBatch,
    {
        let Some(PendingBatch {
            events: chunk,
            batch: batch_index,
        }) = self.session.begin_batch()
        else {
            return;
        };
        let batch_started = Instant::now();
        let mut batch =
            TransactionBatch::new().with_expected_abort_ratio(app.expected_abort_ratio());
        for (event_index, event) in chunk.iter().enumerate() {
            self.next_ts += 1;
            let mut builder = TxnBuilder::new();
            app.state_access(event, &mut builder);
            batch.push(
                Transaction::new(self.next_ts, builder.into_ops()).with_event_index(event_index),
            );
        }
        let construct = batch_started.elapsed();

        // The execute stage spans execution, post-processing and reclamation
        // — the same interval the MorphStream engine reports, so the
        // construct/execute split (and the throughput derived from it) is
        // comparable across systems.
        let execute_started = Instant::now();
        let executed = execute(batch, store, config.num_threads);
        let committed = executed.outcomes.iter().filter(|o| o.committed).count();
        let aborted = executed.outcomes.len() - committed;

        for (event, outcome) in chunk.iter().zip(&executed.outcomes) {
            self.session.push_output(app.post_process(event, outcome));
        }

        if config.reclaim_after_batch {
            store.truncate_before(self.next_ts);
        }
        let execute_wall = execute_started.elapsed();
        let summary = BatchSummary {
            batch: batch_index,
            events: chunk.len(),
            committed,
            aborted,
            elapsed: batch_started.elapsed(),
            decision: Default::default(),
            redone_ops: executed.redone_ops,
            // Baselines schedule no units and reclaim the whole store.
            coarse_unit_builds: 0,
            reclaim_keys_visited: 0,
            bytes_retained: store.bytes_retained(),
            // Baselines construct and execute strictly in sequence, so no
            // construction time is ever hidden behind execution.
            timings: StageTimings {
                construct,
                execute: execute_wall,
                overlap: std::time::Duration::ZERO,
            },
        };
        self.session
            .complete_batch(chunk, summary, &executed.breakdown);
    }
}
