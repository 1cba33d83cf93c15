//! Push-based streaming ingestion: the [`TxnEngine`] trait and the
//! [`Pipeline`] session wrapper.
//!
//! The paper's engine is punctuation-driven: events arrive continuously, the
//! ProgressController injects punctuations, and each delimited batch flows
//! through planning → scheduling → execution (Algorithm 4). [`TxnEngine`]
//! captures exactly that contract — events are *ingested* one at a time, the
//! engine cuts a batch internally every time the punctuation interval is
//! crossed, and a [`RunReport`] accumulates until the session is *finished*.
//! [`Pipeline`] is the ergonomic session handle over any such engine.
//!
//! [`TxnEngine::run`] is the one-shot convenience over a whole stream; a
//! session pushes:
//!
//! ```
//! use morphstream::storage::StateStore;
//! use morphstream::{udfs, EngineConfig, MorphStream, StreamApp, TxnBuilder, TxnEngine};
//!
//! /// Counts occurrences of words in a stream.
//! struct WordCount {
//!     words: morphstream_common::TableId,
//! }
//!
//! impl StreamApp for WordCount {
//!     type Event = u64;
//!     type Output = bool;
//!
//!     fn state_access(&self, word: &u64, txn: &mut TxnBuilder) {
//!         txn.write(self.words, *word, udfs::add_delta(1));
//!     }
//!
//!     fn post_process(&self, _word: &u64, outcome: &morphstream::TxnOutcome) -> bool {
//!         outcome.committed
//!     }
//! }
//!
//! let store = StateStore::new();
//! let words = store.create_table("words", 0, true);
//! let mut engine = MorphStream::new(
//!     WordCount { words },
//!     store.clone(),
//!     EngineConfig::with_threads(2).with_punctuation_interval(3),
//! );
//!
//! // Open a push session: every third event crosses a punctuation and is
//! // batch-processed internally; `on_batch` observes each batch as it lands.
//! let mut pipeline = engine.pipeline().on_batch(|batch| {
//!     assert!(batch.events <= 3);
//! });
//! pipeline.push(1);
//! pipeline.push_iter([2, 1, 3, 1]);
//! pipeline.flush(); // force out the trailing partial batch
//! let report = pipeline.finish();
//!
//! assert_eq!(report.committed, 5);
//! assert_eq!(report.batches.len(), 2); // 3 + 2 events
//! assert_eq!(store.read_latest(words, 1).unwrap(), 3);
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use morphstream_common::hash::Fnv1a;
use morphstream_common::metrics::Breakdown;
use morphstream_common::TableId;
use morphstream_storage::StateStore;

use crate::report::{BatchSummary, RunReport};

/// Callback observing every punctuation-delimited batch as it completes, so
/// long-running sessions report progress without waiting for `finish()`.
pub type BatchHook = Box<dyn FnMut(&BatchSummary) + Send>;

/// A pull-side event feed that hands its consumer the next chunk of events:
/// the server's socket decoder implements it, and `morphstream serve` pulls
/// one chunk per engine-lock acquisition. (A generated workload is an
/// ordinary [`Iterator`]; [`Pipeline::push_iter`] takes it directly.)
pub trait EventSource {
    /// The event type this source yields.
    type Event;

    /// Append up to `max` events to `out`, returning how many were appended.
    /// Returning `0` means nothing is ready — the source is exhausted, or a
    /// socket's read timed out. A blocking source may wait for data first.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Self::Event>) -> usize;
}

/// A push-side consumer of items leaving the engine: per-event outputs, or
/// any other stream a component emits downstream.
///
/// The mirror image of [`EventSource`]: where sources are pulled in batches,
/// sinks are pushed one item at a time, with [`EventSink::flush`] as the
/// durability point (a socket sink writes out its buffer there; collectors
/// ignore it).
pub trait EventSink<T> {
    /// Consume one item.
    fn emit(&mut self, item: T);

    /// Make everything emitted so far durable / visible. Default: no-op.
    fn flush(&mut self) {}
}

/// Collecting sink: emitted items are appended in order.
impl<T> EventSink<T> for Vec<T> {
    fn emit(&mut self, item: T) {
        self.push(item);
    }
}

/// Adapter turning a closure into an [`EventSink`] (a direct blanket impl
/// over `FnMut(T)` would collide with the `Vec<T>` impl under coherence).
pub struct FnSink<F>(pub F);

impl<T, F: FnMut(T)> EventSink<T> for FnSink<F> {
    fn emit(&mut self, item: T) {
        (self.0)(item);
    }
}

/// The order-sensitive FNV-1a digest of every `u64` output an engine emits:
/// the equivalence witness of the serve, recovery and failover paths. A
/// handle onto one shared accumulator — the engine's sink feeds it, the
/// holder reads it.
#[derive(Clone)]
pub struct OutputDigest(Arc<Mutex<Fnv1a>>);

impl OutputDigest {
    /// Install the digesting sink on `engine` (outputs then stream into the
    /// digest instead of accumulating in the report) and hand back the
    /// accumulator, starting at `from` — [`Fnv1a::new`] for a fresh stream,
    /// [`Fnv1a::from_state`] to resume one a checkpoint saved.
    pub fn install<E: TxnEngine<Output = u64>>(engine: &mut E, from: Fnv1a) -> Self {
        let digest = Self(Arc::new(Mutex::new(from)));
        let sink = digest.clone();
        engine.set_output_sink(Some(Box::new(FnSink(move |out: u64| {
            sink.lock().update(&out.to_le_bytes());
        }))));
        digest
    }

    /// The digest of every output emitted so far.
    pub fn finish(&self) -> u64 {
        self.lock().finish()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Fnv1a> {
        self.0.lock().expect("digest lock")
    }
}

/// A boxed output sink installable on any [`TxnEngine`] via
/// [`TxnEngine::set_output_sink`]. While installed, per-event outputs are
/// *drained* to the sink as they are produced instead of accumulating in
/// [`RunReport::outputs`] — the difference between a benchmark (collect
/// everything, inspect at the end) and a server (bounded memory over an
/// unbounded stream).
pub type OutputSink<O> = Box<dyn EventSink<O> + Send>;

/// A batch taken out of a [`SessionState`] for processing.
pub struct PendingBatch<E> {
    /// The buffered events forming the batch, in ingestion order.
    pub events: Vec<E>,
    /// Index of the batch within the session.
    pub batch: usize,
}

/// The ingestion state machine shared by every [`TxnEngine`] implementation:
/// the event buffer of at most one punctuation interval, the report
/// accumulated across processed batches, and the per-batch hook.
///
/// The session mechanics — punctuation cuts, batch indexing, hook firing,
/// metric folding, buffer recycling, finish-time reset — live here so
/// MorphStream (and with it every baseline executor) and a whole
/// [`Topology`](crate::Topology) (whose "batch" is a round through its
/// operators) cannot drift. The flow per batch is
/// [`SessionState::ingest`] until it returns `true` →
/// [`SessionState::begin_batch`] → execute, pushing per-event outputs with
/// [`SessionState::push_output`] → [`SessionState::complete_batch`].
///
/// [`SessionState::begin_batch`] moves the events out, so the engine owns the
/// cut batch while it runs (and a topology's threaded driver can hand it to
/// another thread); [`SessionState::complete_batch`] recycles the drained
/// allocation as the buffer when no new event arrived in between.
pub struct SessionState<E, O> {
    buffer: Vec<E>,
    report: RunReport<O>,
    batch_index: usize,
    run_started: Option<Instant>,
    on_batch: Option<BatchHook>,
    output_sink: Option<OutputSink<O>>,
}

impl<E, O> SessionState<E, O> {
    /// Empty session.
    pub fn new() -> Self {
        Self {
            buffer: Vec::new(),
            report: RunReport::new(),
            batch_index: 0,
            run_started: None,
            on_batch: None,
            output_sink: None,
        }
    }

    /// Buffer `event`; returns `true` when the buffer reached `punctuation`
    /// events and the caller must cut a batch.
    pub fn ingest(&mut self, event: E, punctuation: usize) -> bool {
        self.run_started.get_or_insert_with(Instant::now);
        self.buffer.push(event);
        self.buffer.len() >= punctuation.max(1)
    }

    /// Take the buffered events as the next batch to process; `None` when
    /// nothing is buffered (so an empty flush is a no-op).
    pub fn begin_batch(&mut self) -> Option<PendingBatch<E>> {
        if self.buffer.is_empty() {
            return None;
        }
        self.run_started.get_or_insert_with(Instant::now);
        let batch = self.batch_index;
        self.batch_index += 1;
        Some(PendingBatch {
            events: std::mem::take(&mut self.buffer),
            batch,
        })
    }

    /// Deliver one per-event output (in input order): appended to the session
    /// report, or drained to the installed output sink (counted in
    /// [`RunReport::drained_outputs`] so `events()` stays exact).
    pub fn push_output(&mut self, output: O) {
        match self.output_sink.as_mut() {
            Some(sink) => {
                sink.emit(output);
                self.report.drained_outputs += 1;
            }
            None => self.report.outputs.push(output),
        }
    }

    /// Take the outputs retained so far, counting them as drained so
    /// `events()` stays exact: how a holder that forwards outputs batch by
    /// batch (an operator instance of a topology) collects them without a
    /// sink.
    pub fn take_outputs(&mut self) -> Vec<O> {
        let outputs = std::mem::take(&mut self.report.outputs);
        self.report.drained_outputs += outputs.len();
        outputs
    }

    /// Record a processed batch: fire the hook, fold the metrics into the
    /// report, and recycle the batch's buffer allocation so steady-state
    /// ingestion does not re-grow the buffer every punctuation interval.
    pub fn complete_batch(
        &mut self,
        mut events: Vec<E>,
        summary: BatchSummary,
        breakdown: &Breakdown,
    ) {
        if let Some(hook) = self.on_batch.as_mut() {
            hook(&summary);
        }
        let at = self.run_started.map(|s| s.elapsed()).unwrap_or_default();
        self.report.record_batch(summary, breakdown, at);
        events.clear();
        if self.buffer.is_empty() {
            self.buffer = events;
        }
    }

    /// Close the session and return the accumulated report. The caller must
    /// have processed the buffer first (see [`SessionState::begin_batch`]);
    /// an unflushed buffer would silently carry into the next session.
    pub fn finish(&mut self) -> RunReport<O> {
        debug_assert!(self.buffer.is_empty(), "finish() without flush()");
        self.batch_index = 0;
        self.run_started = None;
        self.on_batch = None;
        if let Some(sink) = self.output_sink.as_mut() {
            sink.flush();
        }
        std::mem::take(&mut self.report)
    }

    /// The report accumulated so far in the current session.
    pub fn report(&self) -> &RunReport<O> {
        &self.report
    }

    /// Install (or clear) the per-batch observability hook.
    pub fn set_batch_hook(&mut self, hook: Option<BatchHook>) {
        self.on_batch = hook;
    }

    /// Install (or remove) the output sink. Unlike the batch hook, the sink
    /// survives `finish()` — a server rotates sessions to bound report memory
    /// while the same sink keeps receiving outputs.
    pub fn set_output_sink(&mut self, sink: Option<OutputSink<O>>) {
        self.output_sink = sink;
    }
}

impl<E, O> Default for SessionState<E, O> {
    fn default() -> Self {
        Self::new()
    }
}

/// Receives the state of an engine at a checkpoint barrier: one call per
/// distinct [`StateStore`] the engine operates on, in a stable ordinal order
/// (single-store engines call with ordinal 0; a topology enumerates its
/// deduplicated stores). `dirty` lists the tables whose visible state may
/// have changed since the flags were last taken — the incremental-snapshot
/// set. The sink decides how to serialize; the engine only guarantees it is
/// quiescent (flushed) for the duration of the call.
pub trait CheckpointSink {
    /// Offer one store for snapshotting.
    fn store(&mut self, ordinal: usize, store: &StateStore, dirty: Vec<TableId>);
}

/// Supplies checkpointed state back to an engine at restore time: the mirror
/// of [`CheckpointSink`], called once per store with the same ordinals the
/// checkpoint used. The source seeds the store's tables to their
/// checkpointed visible state.
pub trait CheckpointSource {
    /// Restore one store from the checkpoint.
    fn restore(&mut self, ordinal: usize, store: &StateStore);
}

/// A transactional stream engine driven by pushed events.
///
/// Implemented by [`MorphStream`](crate::MorphStream) — which the three
/// reconstructed baselines are too, each with its own
/// [`BatchExecutor`](crate::BatchExecutor) — and by a
/// [`Topology`](crate::Topology) of them, so benchmarks and applications
/// drive every system through one interface. Events accumulate in an
/// internal buffer of at most one punctuation interval; crossing the
/// interval triggers batch processing, which keeps ingestion memory bounded
/// regardless of stream length.
pub trait TxnEngine {
    /// Input event type.
    type Event;
    /// Per-event output type produced by post-processing.
    type Output;

    /// Push one event into the session. When the pushed event crosses the
    /// punctuation interval, the buffered batch is processed before this
    /// method returns, so [`TxnEngine::report`] is current. The one
    /// exception is a [`Topology`](crate::Topology) on its threaded driver,
    /// which hands the round to its operator threads: its report may trail
    /// the stream until the next flush.
    fn ingest(&mut self, event: Self::Event);

    /// Process whatever is buffered as a (possibly partial) batch. A no-op
    /// when nothing is buffered. This is a synchronisation point: every
    /// pushed event is reflected in [`TxnEngine::report`] when this returns.
    fn flush(&mut self);

    /// Flush, close the session, and return the accumulated [`RunReport`].
    /// The engine is reusable afterwards: a fresh session starts empty (state
    /// and timestamps carry over, as they do across punctuations).
    fn finish(&mut self) -> RunReport<Self::Output>;

    /// The report accumulated so far in the current session.
    fn report(&self) -> &RunReport<Self::Output>;

    /// Install (or clear) the per-batch observability hook. The hook fires
    /// once per processed batch and is cleared when the session finishes.
    fn set_batch_hook(&mut self, hook: Option<BatchHook>);

    /// Install (or remove) a sink that per-event outputs are drained to as
    /// they are produced, instead of accumulating in
    /// [`RunReport::outputs`]. While a sink is installed, `report().outputs`
    /// stays empty and [`RunReport::drained_outputs`] counts deliveries, so
    /// [`RunReport::events`] is unaffected. The sink survives
    /// [`TxnEngine::finish`] (it is flushed, not cleared): a long-lived
    /// server periodically finishes sessions to bound report memory while
    /// the sink keeps streaming outputs.
    fn set_output_sink(&mut self, sink: Option<OutputSink<Self::Output>>);

    /// Pause at a checkpoint barrier and offer every distinct state store to
    /// `sink`. The default implementation flushes (so the checkpoint lands on
    /// a punctuation-aligned, fully quiescent state) and offers nothing —
    /// engines with checkpointable state override this to enumerate their
    /// stores. Callers serialize whatever the sink captured; the engine
    /// resumes streaming afterwards as if the barrier were a plain flush.
    fn checkpoint(&mut self, sink: &mut dyn CheckpointSink) {
        let _ = sink;
        self.flush();
    }

    /// Restore engine state from a checkpoint before any events are pushed:
    /// the inverse of [`TxnEngine::checkpoint`], calling `source` once per
    /// store with the same ordinals. Engines without checkpointable state
    /// ignore it. Must be called on a fresh session (nothing buffered).
    fn restore(&mut self, source: &mut dyn CheckpointSource) {
        let _ = source;
    }

    /// Push every event of `events` in order.
    fn ingest_iter<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = Self::Event>,
        Self: Sized,
    {
        for event in events {
            self.ingest(event);
        }
    }

    /// Convenience: ingest `events` and finish the session.
    fn run<I>(&mut self, events: I) -> RunReport<Self::Output>
    where
        I: IntoIterator<Item = Self::Event>,
        Self: Sized,
    {
        self.ingest_iter(events);
        self.finish()
    }

    /// Open a [`Pipeline`] handle over this engine's session.
    ///
    /// The session state (buffered events, accumulated report, batch hook)
    /// lives in the engine, not the handle: dropping a `Pipeline` without
    /// calling [`Pipeline::finish`] keeps the session open, and the next
    /// `pipeline()` call (or a direct `ingest`/`finish`) resumes it exactly
    /// where it left off. Only [`TxnEngine::finish`] closes a session.
    fn pipeline(&mut self) -> Pipeline<'_, Self>
    where
        Self: Sized,
    {
        Pipeline::new(self)
    }
}

/// A push-based ingestion session over a [`TxnEngine`].
///
/// Created by [`TxnEngine::pipeline`]. Events are pushed one at a time or
/// from any iterator; punctuation-interval crossings trigger batch processing
/// internally, and [`Pipeline::finish`] returns the run report. See the
/// [module documentation](self) for a complete example.
///
/// `Pipeline` is a *handle*, not the session itself: dropping it without
/// [`Pipeline::finish`] leaves the session open on the engine (buffered
/// events and partial report intact), and a later handle resumes it. The
/// batch hook, however, belongs to the handle that installed it — it is
/// cleared when the handle drops, so an abandoned session never fires a
/// stale callback from an unrelated later run. Finish the session before
/// handing the engine to code that expects a fresh run.
pub struct Pipeline<'e, E: TxnEngine> {
    engine: &'e mut E,
}

impl<E: TxnEngine> Drop for Pipeline<'_, E> {
    fn drop(&mut self) {
        self.engine.set_batch_hook(None);
    }
}

impl<'e, E: TxnEngine> Pipeline<'e, E> {
    /// Open a session over `engine`.
    pub fn new(engine: &'e mut E) -> Self {
        Self { engine }
    }

    /// Install a hook observing every processed batch (builder-style). The
    /// hook lives for this session: it is cleared by [`Pipeline::finish`].
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn on_batch(self, hook: impl FnMut(&BatchSummary) + Send + 'static) -> Self {
        self.engine.set_batch_hook(Some(Box::new(hook)));
        self
    }

    /// Push one event; crossing the punctuation interval processes the
    /// buffered batch before returning.
    pub fn push(&mut self, event: E::Event) {
        self.engine.ingest(event);
    }

    /// Push every event yielded by `events`, in order. Accepts any
    /// `IntoIterator`, so lazy sources stream through without materialising a
    /// `Vec` first.
    pub fn push_iter<I: IntoIterator<Item = E::Event>>(&mut self, events: I) {
        self.engine.ingest_iter(events);
    }

    /// Install an output sink on the underlying engine (builder-style); see
    /// [`TxnEngine::set_output_sink`]. Unlike the batch hook, the sink
    /// belongs to the *engine* and deliberately outlives this handle.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn output_sink(self, sink: impl EventSink<E::Output> + Send + 'static) -> Self {
        self.engine.set_output_sink(Some(Box::new(sink)));
        self
    }

    /// Process the buffered events as a (possibly partial) batch now.
    pub fn flush(&mut self) {
        self.engine.flush();
    }

    /// The report accumulated so far (batches processed up to this point).
    pub fn report(&self) -> &RunReport<E::Output> {
        self.engine.report()
    }

    /// Flush the trailing partial batch, close the session, and return the
    /// accumulated report. An empty session returns a well-formed empty
    /// report (zero events, zero batches).
    pub fn finish(self) -> RunReport<E::Output> {
        self.engine.finish()
    }
}
