//! First-class operator topologies: chain transactional operators into a
//! dataflow that is itself a [`TxnEngine`].
//!
//! The paper's programming model covers one transactional operator per
//! engine, but real TSPE applications — S-Store's dataflows of transactional
//! stored procedures, multi-stage fraud detection, enrichment → scoring →
//! settlement chains — are *graphs* of such operators. A [`Topology`] wires
//! several [`StreamApp`](crate::StreamApp)s into a DAG: each operator runs
//! its own MorphStream engine (its own TPG, decision model, and scheduling),
//! every upstream operator's `Output` is routed into downstream operators'
//! `Event`s through a first-class [`Route`] (map / filter / fan-out / keyed),
//! and punctuations propagate downstream on every batch boundary.
//!
//! # One round protocol, two drivers
//!
//! Every entry-punctuation-interval of pushed events is one numbered
//! *round*, and a round visits each operator instance once: the instance
//! waits for its part of the round on every incoming edge (punctuation
//! alignment), ingests the parts in a fixed edge order, flushes, and routes
//! what the batch emitted onward. `flush` and `finish` are rounds that also
//! drain, and close, every operator; each completed round becomes one
//! [`BatchSummary`].
//! [`TopologyConfig::concurrent`](morphstream_common::TopologyConfig) only
//! picks who runs that protocol, with identical digests, outputs and batch
//! summaries either way:
//!
//! * by default the **inline driver** steps the operators on the caller
//!   thread until none has a part waiting, so when `push` returns the round
//!   it closed has passed every operator and the report and live rows are
//!   current;
//! * the **threaded driver** gives every instance its own thread behind a
//!   bounded channel of `channel_capacity` rounds. A slow operator fills its
//!   channel and upstream sends — ultimately `Pipeline::push` — block, so
//!   in-flight memory stays at O(`channel_capacity` × punctuation interval);
//!   per-edge `queue_full_waits` in the [`RunReport`] show where. The report
//!   trails the stream until the next `flush`/`finish`.
//!
//! Operators gain data parallelism through
//! [`OperatorHandle::with_parallelism`]: [`Route::keyed`] hash-partitions the
//! routed events across the `n` parallel instances of the downstream
//! operator, each instance owns its partition's state, and the topology
//! reassembles per-instance outputs into the original event order — so
//! digests and outputs are deterministic regardless of `n`.
//!
//! The assembled `Topology` implements [`TxnEngine`], so
//! [`Pipeline`](crate::Pipeline) sessions, the bench harness's generic drive
//! loop, and trait-driven oracle tests work on a whole dataflow unchanged.
//! Its [`RunReport`] aggregates every operator — per-instance sub-reports
//! (`name#i` under parallelism) are attached as
//! [`OperatorReport`]s when the session finishes, and
//! their commit/abort counts sum to the top-level totals.
//!
//! ```
//! use morphstream::storage::StateStore;
//! use morphstream::{
//!     udfs, EngineConfig, Route, StreamApp, TopologyBuilder, TopologyConfig, TxnBuilder,
//!     TxnEngine, TxnOutcome,
//! };
//! use morphstream_common::TableId;
//!
//! /// Counts word occurrences; emits the word with its committed flag.
//! struct WordCount {
//!     words: TableId,
//! }
//!
//! impl StreamApp for WordCount {
//!     type Event = u64;
//!     type Output = (u64, bool);
//!
//!     fn state_access(&self, word: &u64, txn: &mut TxnBuilder) {
//!         txn.write(self.words, *word, udfs::add_delta(1));
//!     }
//!
//!     fn post_process(&self, word: &u64, outcome: &TxnOutcome) -> (u64, bool) {
//!         (*word, outcome.committed)
//!     }
//! }
//!
//! /// Tallies how many distinct updates each parity class received.
//! struct ParityTally {
//!     parities: TableId,
//! }
//!
//! impl StreamApp for ParityTally {
//!     type Event = u64;
//!     type Output = bool;
//!
//!     fn state_access(&self, word: &u64, txn: &mut TxnBuilder) {
//!         txn.write(self.parities, *word % 2, udfs::add_delta(1));
//!     }
//!
//!     fn post_process(&self, _word: &u64, outcome: &TxnOutcome) -> bool {
//!         outcome.committed
//!     }
//! }
//!
//! let store = StateStore::new();
//! let words = store.create_table("words", 0, true);
//! let parities = store.create_table("parities", 0, true);
//! let config = EngineConfig::with_threads(2).with_punctuation_interval(4);
//!
//! // counter --(committed words, keyed by parity)--> two parallel tallies
//! let mut builder = TopologyBuilder::new();
//! let counter = builder.add_operator("word-count", WordCount { words }, store.clone(), config);
//! let tally = builder
//!     .add_operator("parity-tally", ParityTally { parities }, store.clone(), config)
//!     .with_parallelism(2); // each instance owns one parity class
//! builder.connect(
//!     counter,
//!     tally,
//!     Route::keyed(
//!         |word: &u64| word % 2,
//!         |(word, committed): &(u64, bool)| committed.then_some(*word),
//!     ),
//! );
//! // threaded driver: every operator instance on its own thread
//! let mut topology = builder
//!     .build(counter, tally, TopologyConfig::default().with_concurrent(true))
//!     .unwrap();
//!
//! // The topology is an engine: drive it through the ordinary Pipeline API.
//! let mut pipeline = topology.pipeline();
//! pipeline.push_iter([1u64, 2, 3, 4, 5, 6, 7, 8]);
//! let report = pipeline.finish();
//!
//! assert_eq!(report.outputs.len(), 8);
//! // word-count, parity-tally#0, parity-tally#1
//! assert_eq!(report.operators.len(), 3);
//! // per-instance counts sum to the top-level totals
//! let summed: usize = report.operators.iter().map(|op| op.committed).sum();
//! assert_eq!(report.committed, summed);
//! assert_eq!(store.read_latest(parities, 0).unwrap(), 4); // 2, 4, 6, 8
//! ```

mod builder;
mod node;
mod route;
mod runtime;

pub use builder::{EntryBinding, OperatorHandle, TopologyBuilder, TopologyError};
pub use route::Route;

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use morphstream_scheduler::SchedulingDecision;
use morphstream_storage::StateStore;

use crate::pipeline::{BatchHook, SessionState, TxnEngine};
use crate::report::{
    BatchSummary, EdgeReport, OperatorCounters, OperatorReport, ReclaimVisits, RunReport,
};
use node::{InstanceMsg, InstanceStats, RoundKind, ToTopology};
use route::ErasedRoute;
use runtime::Driver;

/// Per-round accumulator: stats deltas from every operator instance fold in
/// until the round is complete, then the round becomes one [`BatchSummary`].
struct RoundAcc {
    received: usize,
    started: Instant,
    entry_events: usize,
    totals: InstanceStats,
    decision: Option<SchedulingDecision>,
    /// The most workers any instance's batch of the round engaged.
    workers: usize,
}

/// Everything a topology session accumulates on the caller side: the
/// engines' shared [`SessionState`] (entry staging buffer, report, hook,
/// sink), the edge observability rows, and the fold that turns the cores'
/// per-round reports into batch summaries, live rows and finish rows.
struct Session<In, Out> {
    /// Pushed events are staged here — a typed buffer push, no per-event box
    /// or virtual dispatch — and handed to the entry operator(s) one
    /// punctuation interval at a time; terminal outputs and finalized rounds
    /// land in its report.
    state: SessionState<In, Out>,
    /// The distinct state stores of the operators (shared stores counted
    /// once), for per-round memory and reclaim accounting.
    stores: Vec<StateStore>,
    /// Meters the stores' reclaim visits into per-round figures.
    reclaim_visits: ReclaimVisits,
    edge_labels: Vec<(String, String)>,
    edge_waits: Vec<Arc<AtomicU64>>,
    total_instances: usize,
    seq_next: usize,
    rounds: BTreeMap<usize, RoundAcc>,
    /// Highest round sequence whose stats are fully folded in.
    finalized: Option<usize>,
    /// Highest round sequence whose terminal outputs arrived.
    outputs_seq: Option<usize>,
    /// Per-instance reports collected from `Finish` rounds, keyed like
    /// `live_counters`.
    operator_rows: BTreeMap<(usize, usize), OperatorReport>,
    /// Latest cumulative counters per instance (keyed `(node, instance)` so
    /// iteration yields the finish rows' order), refreshed by every round
    /// report.
    live_counters: BTreeMap<(usize, usize), OperatorCounters>,
}

impl<In, Out: 'static> Session<In, Out> {
    fn new(
        stores: Vec<StateStore>,
        edge_labels: Vec<(String, String)>,
        edge_waits: Vec<Arc<AtomicU64>>,
        total_instances: usize,
    ) -> Self {
        Self {
            state: SessionState::new(),
            reclaim_visits: ReclaimVisits::new(&stores),
            stores,
            edge_labels,
            edge_waits,
            total_instances,
            seq_next: 0,
            rounds: BTreeMap::new(),
            finalized: None,
            outputs_seq: None,
            operator_rows: BTreeMap::new(),
            live_counters: BTreeMap::new(),
        }
    }

    fn edge_report(&self) -> Vec<EdgeReport> {
        self.edge_labels
            .iter()
            .zip(&self.edge_waits)
            .map(|((from, to), waits)| EdgeReport {
                from: from.clone(),
                to: to.clone(),
                queue_full_waits: waits.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Open the next round and return its sequence number.
    fn open_round(&mut self) -> usize {
        let seq = self.seq_next;
        self.seq_next += 1;
        self.rounds.insert(
            seq,
            RoundAcc {
                received: 0,
                started: Instant::now(),
                entry_events: 0,
                totals: InstanceStats::default(),
                decision: None,
                workers: 0,
            },
        );
        seq
    }

    /// Whether round `seq` is fully recorded and its terminal outputs
    /// arrived; with `reports`, also whether every instance handed in its
    /// [`OperatorReport`] (the finish path).
    fn settled(&self, seq: usize, reports: bool) -> bool {
        self.finalized >= Some(seq)
            && self.outputs_seq >= Some(seq)
            && (!reports || self.operator_rows.len() == self.total_instances)
    }

    /// Fold one report from the cores into the session.
    fn apply(&mut self, msg: ToTopology) {
        match msg {
            ToTopology::Outputs { seq, outputs } => {
                let outputs = outputs
                    .downcast::<Vec<Out>>()
                    .expect("terminal output type checked by OperatorHandle");
                for output in *outputs {
                    self.state.push_output(output);
                }
                self.outputs_seq = Some(seq);
            }
            ToTopology::Round(round) => {
                let acc = self.rounds.get_mut(&round.seq);
                let acc = acc.expect("round report for an unknown round");
                acc.received += 1;
                if round.is_entry {
                    acc.entry_events += round.delta.events;
                    acc.decision = acc.decision.or(round.decision);
                }
                acc.workers = acc.workers.max(round.workers);
                acc.totals.merge(&round.delta);
                let at = (round.node, round.instance);
                self.live_counters.insert(at, round.live);
                if let Some(report) = round.finished {
                    self.operator_rows.insert(at, report);
                }
                self.finalize_rounds();
            }
        }
    }

    /// Rounds complete in order: turn every leading round all instances have
    /// reported into a [`BatchSummary`]. A round that moved nothing records
    /// nothing, so a trailing flush/finish never appends an empty batch.
    fn finalize_rounds(&mut self) {
        while let Some(entry) = self.rounds.first_entry() {
            if entry.get().received < self.total_instances {
                break;
            }
            let (seq, acc) = entry.remove_entry();
            self.finalized = Some(seq);
            if acc.entry_events == 0 && acc.totals.is_zero() {
                continue;
            }
            let reclaim_keys_visited = self.reclaim_visits.take(&self.stores);
            let summary = BatchSummary {
                batch: self.state.report().batches.len(),
                events: acc.entry_events,
                committed: acc.totals.committed,
                aborted: acc.totals.aborted,
                elapsed: acc.started.elapsed(),
                decision: acc.decision.unwrap_or_default(),
                redone_ops: acc.totals.redone_ops,
                coarse_unit_builds: acc.totals.coarse_unit_builds,
                workers: acc.workers,
                reclaim_keys_visited,
                bytes_retained: self.stores.iter().map(StateStore::bytes_retained).sum(),
                timings: acc.totals.timings,
            };
            // The round's events left with the entry parts: no buffer
            // comes back to recycle.
            self.state
                .complete_batch(Vec::new(), summary, &acc.totals.breakdown);
        }
    }

    /// Close the session: hand out its report with the finish rows attached
    /// and reset everything a new session starts from.
    fn finish(&mut self) -> RunReport<Out> {
        let mut report = self.state.finish();
        report.operators = std::mem::take(&mut self.operator_rows)
            .into_values()
            .collect();
        report.edges = self.edge_report();
        self.live_counters.clear();
        for waits in &self.edge_waits {
            waits.store(0, Ordering::Relaxed);
        }
        report
    }
}

/// A DAG of transactional operators that is itself a [`TxnEngine`]: events
/// pushed into the topology enter the entry operator, every completed batch's
/// outputs are routed downstream with the punctuation, and the terminal
/// operator's outputs become the topology's outputs. Built by
/// [`TopologyBuilder`]; see the [module documentation](self) for the round
/// protocol, its two drivers, and a complete example.
pub struct Topology<In, Out> {
    names: Vec<String>,
    entry_indices: Vec<usize>,
    /// Per-entry dispatch routes (parallel to `entry_indices`) in multi-entry
    /// mode; `None` in the single-entry form, where staged events are handed
    /// to the entry directly.
    dispatch: Option<Vec<ErasedRoute>>,
    terminal_index: usize,
    /// The entry operator's punctuation interval (the smallest across
    /// entries in dispatch mode), captured at build time.
    entry_punctuation: usize,
    session: Session<In, Out>,
    driver: Box<dyn Driver>,
}

impl<In, Out> std::fmt::Debug for Topology<In, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: Vec<&str> = self
            .entry_indices
            .iter()
            .map(|&e| self.names[e].as_str())
            .collect();
        f.debug_struct("Topology")
            .field("operators", &self.names)
            .field("entries", &entries)
            .field("terminal", &self.names[self.terminal_index])
            .field("concurrent", &self.driver.is_threaded())
            .field("rounds", &self.session.seq_next)
            .finish()
    }
}

impl<In, Out> Topology<In, Out>
where
    In: Send + 'static,
    Out: Send + 'static,
{
    /// Number of operators in the dataflow (instances of one parallel
    /// operator count once).
    pub fn operator_count(&self) -> usize {
        self.names.len()
    }

    /// Operator names in the order they were added to the builder.
    pub fn operator_names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// Whether the operators run on threads of their own (the threaded
    /// driver) rather than inline on the caller thread.
    pub fn is_concurrent(&self) -> bool {
        self.driver.is_threaded()
    }

    /// Live per-operator counters and per-edge wait totals of the current
    /// session, for observers that cannot wait for `finish` (e.g. a metrics
    /// scrape), labelled as [`TxnEngine::finish`] labels its rows. An
    /// instance appears once it has processed a round. Under the inline
    /// driver the rows are current whenever a push returned; under the
    /// threaded driver they trail the stream by at most the rounds still in
    /// flight and catch up at every flush.
    pub fn live_rows(&self) -> (Vec<OperatorCounters>, Vec<EdgeReport>) {
        let operators = self.session.live_counters.values().cloned().collect();
        (operators, self.session.edge_report())
    }

    /// Fold whatever the cores reported so far into the session; with
    /// `block`, wait for at least one report.
    fn pump(&mut self, block: bool) {
        let session = &mut self.session;
        self.driver.pump(block, &mut |msg| session.apply(msg));
    }

    /// Ship the staged entry events as one round and return its sequence
    /// number. Under the threaded driver this blocks (back-pressure) while
    /// an entry channel is full; under the inline driver the round has run
    /// through the whole dataflow on return. In dispatch mode every entry
    /// receives one aligned part of the round (possibly empty), keeping the
    /// per-round instance accounting and the downstream punctuation
    /// alignment intact.
    fn feed(&mut self, kind: RoundKind) -> usize {
        // A flush or finish round drains the operators even when nothing is
        // staged.
        let staged = self.session.state.begin_batch();
        let events = staged.map(|batch| batch.events).unwrap_or_default();
        let seq = self.session.open_round();
        let part = |events: Box<dyn Any + Send>, positions, total| InstanceMsg {
            seq,
            kind,
            in_edge: 0,
            events,
            positions,
            total,
        };
        match self.dispatch.as_ref() {
            Some(routes) => {
                let staged: Box<dyn Any + Send> = Box::new(events);
                for (slot, (&entry, route)) in self.entry_indices.iter().zip(routes).enumerate() {
                    // Entries are single-instance, so the route yields
                    // exactly one identity part.
                    let mut routed = route(staged.as_ref(), 1);
                    let events = routed.parts.pop().expect("identity part");
                    let positions = routed.positions.pop().unwrap_or_default();
                    self.driver
                        .send_entry(entry, slot, part(events, positions, routed.total));
                }
            }
            None => {
                let total = events.len();
                let msg = part(Box::new(events), Vec::new(), total);
                self.driver.send_entry(self.entry_indices[0], 0, msg);
            }
        }
        self.pump(false);
        seq
    }

    /// Feed a round of `kind` and block until it is settled (see
    /// [`Session::settled`]).
    fn sync(&mut self, kind: RoundKind) {
        let seq = self.feed(kind);
        while !self.session.settled(seq, kind == RoundKind::Finish) {
            self.pump(true);
        }
    }
}

impl<In, Out> TxnEngine for Topology<In, Out>
where
    In: Send + 'static,
    Out: Send + 'static,
{
    type Event = In;
    type Output = Out;

    fn ingest(&mut self, event: In) {
        // One staged punctuation interval is one round, so the entry engine
        // cuts exactly the batches it would have cut from per-event pushes.
        if self.session.state.ingest(event, self.entry_punctuation) {
            self.feed(RoundKind::Normal);
        }
    }

    fn flush(&mut self) {
        self.sync(RoundKind::Flush);
    }

    fn finish(&mut self) -> RunReport<Out> {
        TxnEngine::flush(self);
        self.sync(RoundKind::Finish);
        self.session.finish()
    }

    fn checkpoint(&mut self, sink: &mut dyn crate::pipeline::CheckpointSink) {
        // Flush is the checkpoint barrier: it returns once the Flush round
        // completed on every operator, so each store is quiescent while the
        // sink walks it.
        TxnEngine::flush(self);
        for (ordinal, store) in self.session.stores.iter().enumerate() {
            sink.store(ordinal, store, store.take_dirty_tables());
        }
    }

    fn restore(&mut self, source: &mut dyn crate::pipeline::CheckpointSource) {
        for (ordinal, store) in self.session.stores.iter().enumerate() {
            source.restore(ordinal, store);
        }
    }

    fn report(&self) -> &RunReport<Out> {
        // Current per punctuation under the inline driver; under the
        // threaded driver it trails the stream until the next flush/finish
        // (rounds complete on worker threads).
        self.session.state.report()
    }

    fn set_batch_hook(&mut self, hook: Option<BatchHook>) {
        self.session.state.set_batch_hook(hook);
    }

    fn set_output_sink(&mut self, sink: Option<crate::pipeline::OutputSink<Out>>) {
        self.session.state.set_output_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::route::partition_of;
    use super::*;
    use crate::{StreamApp, TxnBuilder};
    use morphstream_common::{EngineConfig, TableId, TopologyConfig, Value};
    use morphstream_tpg::udfs;

    /// Doubles the incoming value into a per-key table; output carries the
    /// key and whether the transaction committed.
    struct Doubler {
        table: TableId,
    }

    impl StreamApp for Doubler {
        type Event = u64;
        type Output = (u64, bool);

        fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
            txn.write(self.table, *key, udfs::add_delta(2));
        }

        fn post_process(&self, key: &u64, outcome: &crate::TxnOutcome) -> (u64, bool) {
            (*key, outcome.committed)
        }
    }

    /// Sums routed keys into one accumulator cell per key class.
    struct Summer {
        table: TableId,
    }

    impl StreamApp for Summer {
        type Event = u64;
        type Output = u64;

        fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
            txn.write(self.table, 0, udfs::add_delta(*key as Value));
        }

        fn post_process(&self, key: &u64, _outcome: &crate::TxnOutcome) -> u64 {
            *key
        }
    }

    /// Counts per-key updates (used by keyed-parallelism tests: every key is
    /// owned by exactly one instance).
    struct KeyCounter {
        table: TableId,
    }

    impl StreamApp for KeyCounter {
        type Event = u64;
        type Output = u64;

        fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
            txn.write(self.table, *key, udfs::add_delta(1));
        }

        fn post_process(&self, key: &u64, _outcome: &crate::TxnOutcome) -> u64 {
            *key
        }
    }

    fn two_op_topology(
        punctuation: usize,
        topo: TopologyConfig,
    ) -> (Topology<u64, u64>, StateStore, TableId, TableId) {
        let config = EngineConfig::with_threads(2).with_punctuation_interval(punctuation);
        two_op_topology_with(config, topo)
    }

    fn two_op_topology_with(
        config: EngineConfig,
        topo: TopologyConfig,
    ) -> (Topology<u64, u64>, StateStore, TableId, TableId) {
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let sums = store.create_table("sums", 0, true);
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
        let b = builder.add_operator("summer", Summer { table: sums }, store.clone(), config);
        builder.connect(
            a,
            b,
            Route::filter_map(|(key, committed): &(u64, bool)| committed.then_some(*key)),
        );
        let topology = builder.build(a, b, topo).unwrap();
        (topology, store, doubled, sums)
    }

    #[test]
    fn events_flow_through_both_operators_and_reports_aggregate() {
        let (mut topology, store, doubled, sums) = two_op_topology(4, TopologyConfig::default());
        assert_eq!(topology.operator_count(), 2);
        assert_eq!(topology.operator_names(), vec!["doubler", "summer"]);
        assert!(!topology.is_concurrent());

        let report = topology.run(1..=10u64);
        // terminal outputs: every committed key, in order
        assert_eq!(report.outputs, (1..=10u64).collect::<Vec<_>>());
        // both operators processed all ten events
        assert_eq!(report.operators.len(), 2);
        assert_eq!(report.operators[0].name, "doubler");
        assert_eq!(report.operators[0].events, 10);
        assert_eq!(report.operators[1].events, 10);
        // per-operator counts sum to the topology totals
        let committed: usize = report.operators.iter().map(|op| op.committed).sum();
        let aborted: usize = report.operators.iter().map(|op| op.aborted).sum();
        assert_eq!(report.committed, committed);
        assert_eq!(report.aborted, aborted);
        // 10 entry events reported once (not once per operator)
        assert_eq!(report.events(), 10);
        // edge observability rows: the input feed plus the one routed edge
        assert_eq!(report.edges.len(), 2);
        assert_eq!(report.edges[0].from, "(input)");
        assert_eq!(report.edges[1].to, "summer");
        assert!(report.edges.iter().all(|e| e.queue_full_waits == 0));
        // state reflects both stages
        assert_eq!(store.read_latest(doubled, 3).unwrap(), 2);
        assert_eq!(store.read_latest(sums, 0).unwrap(), 55);
    }

    /// What the round fold recorded per batch: events, committed, aborted,
    /// redone operations.
    fn rounds<O>(report: &RunReport<O>) -> Vec<[usize; 4]> {
        let batches = report.batches.iter();
        batches
            .map(|b| [b.events, b.committed, b.aborted, b.redone_ops])
            .collect()
    }

    #[test]
    fn both_drivers_record_the_same_batch_summaries() {
        // 30 events at punctuation 4 leave a trailing partial batch.
        let config = EngineConfig::with_threads(2).with_punctuation_interval(4);
        let run = |topo: TopologyConfig| {
            let (mut topology, ..) = two_op_topology_with(config, topo);
            topology.ingest_iter(1..=30u64);
            topology.flush();
            let flushed = rounds(topology.report());
            let report = topology.finish();
            // finish after flush moves nothing: no empty trailing batch
            assert_eq!(rounds(&report), flushed);
            flushed
        };
        let inline = run(TopologyConfig::default());
        assert_eq!(inline.iter().map(|r| r[0]).sum::<usize>(), 30);
        assert_eq!(inline.iter().map(|r| r[1]).sum::<usize>(), 60);
        assert_eq!(inline.len(), 8);
        assert_eq!(inline[0], [4, 8, 0, 0]);
        assert_eq!(inline[7], [2, 4, 0, 0]);
        for capacity in [1, 4] {
            let threaded = TopologyConfig::default()
                .with_concurrent(true)
                .with_channel_capacity(capacity);
            assert_eq!(run(threaded), inline, "capacity={capacity}");
        }
    }

    #[test]
    fn inline_driver_is_current_the_moment_a_push_returns() {
        let (mut topology, ..) = two_op_topology(4, TopologyConfig::default());
        for key in 1..=9u64 {
            crate::Pipeline::new(&mut topology).push(key);
            // every closed batch has already passed both operators
            let closed = (key / 4) as usize;
            let report = topology.report();
            assert_eq!(report.batches.len(), closed);
            assert_eq!(report.events(), closed * 4);
            assert_eq!(report.committed, closed * 8);
            assert_eq!(report.outputs.len(), closed * 4);
            let (operators, edges) = topology.live_rows();
            assert_eq!(edges.len(), 2);
            if closed > 0 {
                let names: Vec<&str> = operators.iter().map(|op| op.name.as_str()).collect();
                assert_eq!(names, ["doubler", "summer"]);
                for op in &operators {
                    assert_eq!(op.events, closed as u64 * 4);
                    assert_eq!(op.batches, closed as u64);
                }
            }
        }
        assert_eq!(topology.finish().events(), 9);
    }

    #[test]
    fn threaded_driver_matches_the_inline_driver() {
        let (mut serial, serial_store, _, _) = two_op_topology(4, TopologyConfig::default());
        let expected = serial.run(1..=64u64);

        let concurrent_config = TopologyConfig::default()
            .with_concurrent(true)
            .with_channel_capacity(2);
        let (mut concurrent, store, _, _) = two_op_topology(4, concurrent_config);
        assert!(concurrent.is_concurrent());
        let report = concurrent.run(1..=64u64);

        assert_eq!(report.outputs, expected.outputs);
        assert_eq!(report.committed, expected.committed);
        assert_eq!(report.aborted, expected.aborted);
        assert_eq!(store.state_digest(), serial_store.state_digest());
        assert_eq!(report.operators.len(), 2);
        let committed: usize = report.operators.iter().map(|op| op.committed).sum();
        assert_eq!(report.committed, committed);

        // sessions stay reusable on the same worker threads
        let second = concurrent.run(1..=8u64);
        assert_eq!(second.events(), 8);
        assert_eq!(second.outputs, (1..=8u64).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_parallelism_is_deterministic_across_instance_counts() {
        let run = |parallelism: usize, concurrent: bool| -> (u64, Vec<u64>, usize) {
            let store = StateStore::new();
            let doubled = store.create_table("doubled", 0, true);
            let counts = store.create_table("counts", 0, true);
            let config = EngineConfig::with_threads(2).with_punctuation_interval(8);
            let mut builder = TopologyBuilder::new();
            let a =
                builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
            let b = builder
                .add_operator(
                    "counter",
                    KeyCounter { table: counts },
                    store.clone(),
                    config,
                )
                .with_parallelism(parallelism);
            builder.connect(
                a,
                b,
                Route::keyed(
                    |key: &u64| *key,
                    |(key, committed): &(u64, bool)| committed.then_some(*key),
                ),
            );
            let mut topology = builder
                .build(a, b, TopologyConfig::default().with_concurrent(concurrent))
                .unwrap();
            let events: Vec<u64> = (0..96u64).map(|i| i % 13).collect();
            let report = topology.run(events);
            (store.state_digest(), report.outputs, report.operators.len())
        };

        let (digest1, outputs1, rows1) = run(1, false);
        assert_eq!(rows1, 2);
        for parallelism in [2, 4] {
            for concurrent in [false, true] {
                let (digest, outputs, rows) = run(parallelism, concurrent);
                assert_eq!(
                    digest, digest1,
                    "digest diverged at parallelism={parallelism} concurrent={concurrent}"
                );
                // outputs come back merged into the original event order
                assert_eq!(outputs, outputs1);
                // per-instance rows: doubler + counter#0..#n
                assert_eq!(rows, 1 + parallelism);
            }
        }
    }

    #[test]
    fn parallel_instance_rows_are_named_and_sum_to_totals() {
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let counts = store.create_table("counts", 0, true);
        let config = EngineConfig::with_threads(1).with_punctuation_interval(4);
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
        let b = builder
            .add_operator(
                "counter",
                KeyCounter { table: counts },
                store.clone(),
                config,
            )
            .with_parallelism(2);
        builder.connect(
            a,
            b,
            Route::keyed(|key: &u64| *key, |(key, _): &(u64, bool)| Some(*key)),
        );
        let mut topology = builder.build(a, b, TopologyConfig::default()).unwrap();
        let report = topology.run(0..16u64);
        let names: Vec<&str> = report.operators.iter().map(|op| op.name.as_str()).collect();
        assert_eq!(names, vec!["doubler", "counter#0", "counter#1"]);
        let committed: usize = report.operators.iter().map(|op| op.committed).sum();
        assert_eq!(report.committed, committed);
        // both instances saw work (16 distinct keys across 2 partitions)
        assert!(report.operators[1].events > 0);
        assert!(report.operators[2].events > 0);
        assert_eq!(report.operators[1].events + report.operators[2].events, 16);
    }

    #[test]
    fn punctuation_propagates_on_every_batch_boundary() {
        let (mut topology, _store, _doubled, _sums) = two_op_topology(4, TopologyConfig::default());
        let mut pipeline = topology.pipeline();
        pipeline.push_iter(1..=8u64);
        // two full entry batches have propagated end-to-end without a flush
        assert_eq!(pipeline.report().events(), 8);
        assert_eq!(pipeline.report().batches.len(), 2);
        assert_eq!(pipeline.report().outputs.len(), 8);
        let report = pipeline.finish();
        assert_eq!(report.batches.len(), 2); // no empty trailing batch
    }

    #[test]
    fn batch_hook_fires_once_per_wave_and_sessions_are_reusable() {
        use std::sync::atomic::AtomicUsize;

        let (mut topology, _store, _doubled, _sums) = two_op_topology(4, TopologyConfig::default());
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let mut pipeline = topology.pipeline().on_batch(move |batch| {
            assert!(batch.events <= 4);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        pipeline.push_iter(1..=10u64); // 2 full waves + 1 partial on finish
        let report = pipeline.finish();
        assert_eq!(report.batches.len(), 3);
        assert_eq!(fired.load(Ordering::Relaxed), 3);

        // the topology is reusable: a fresh session starts empty
        let second = topology.run(1..=4u64);
        assert_eq!(second.events(), 4);
        assert_eq!(second.batches.first().map(|b| b.batch), Some(0));
        assert_eq!(second.operators.len(), 2);
    }

    #[test]
    fn fan_out_routes_one_output_to_multiple_downstream_events() {
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let sums = store.create_table("sums", 0, true);
        let config = EngineConfig::with_threads(1).with_punctuation_interval(2);
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
        let b = builder.add_operator("summer", Summer { table: sums }, store.clone(), config);
        // every committed key fans out into two downstream events
        builder.connect(
            a,
            b,
            Route::fan_out(|(key, committed): &(u64, bool)| {
                if *committed {
                    vec![*key, *key]
                } else {
                    Vec::new()
                }
            }),
        );
        let mut topology = builder.build(a, b, TopologyConfig::default()).unwrap();
        let report = topology.run([1u64, 2, 3]);
        assert_eq!(report.outputs, vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(store.read_latest(sums, 0).unwrap(), 12);
        assert_eq!(report.operators[1].events, 6);
    }

    #[test]
    fn route_map_and_is_keyed() {
        let mapped: Route<(u64, bool), u64> = Route::map(|(key, _): &(u64, bool)| *key);
        assert!(!mapped.is_keyed());
        let keyed: Route<(u64, bool), u64> =
            Route::keyed(|key: &u64| *key, |(key, _): &(u64, bool)| Some(*key));
        assert!(keyed.is_keyed());

        // Route::map forwards every output 1:1
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let sums = store.create_table("sums", 0, true);
        let config = EngineConfig::with_threads(1).with_punctuation_interval(4);
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
        let b = builder.add_operator("summer", Summer { table: sums }, store.clone(), config);
        builder.connect(a, b, Route::map(|(key, _): &(u64, bool)| *key));
        let mut topology = builder.build(a, b, TopologyConfig::default()).unwrap();
        let report = topology.run([5u64, 6, 7]);
        assert_eq!(report.outputs, vec![5, 6, 7]);
    }

    #[test]
    fn single_operator_topology_degenerates_to_the_engine() {
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let config = EngineConfig::with_threads(1).with_punctuation_interval(4);
        let mut builder = TopologyBuilder::new();
        let only =
            builder.add_operator("doubler", Doubler { table: doubled }, store.clone(), config);
        let mut topology = builder
            .build(only, only, TopologyConfig::default())
            .unwrap();
        let report = topology.run(0..6u64);
        assert_eq!(report.outputs.len(), 6);
        assert_eq!(report.operators.len(), 1);
        assert_eq!(report.committed, report.operators[0].committed);
        assert_eq!(store.read_latest(doubled, 5).unwrap(), 2);
    }

    #[test]
    fn build_rejects_cycles_unreachable_operators_and_bad_endpoints() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);
        let pass = || Route::map(|key: &u64| *key);

        // cycle downstream of the entry: a -> b -> c -> b, c -> d
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        let c = builder.add_operator("c", Summer { table: t }, store.clone(), config);
        let d = builder.add_operator("d", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        builder.connect(b, c, pass());
        builder.connect(c, b, pass());
        builder.connect(c, d, pass());
        assert_eq!(
            builder.build(a, d, TopologyConfig::default()).unwrap_err(),
            TopologyError::Cycle
        );

        // unreachable: c is never connected
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        let _c = builder.add_operator("stranded", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        assert_eq!(
            builder.build(a, b, TopologyConfig::default()).unwrap_err(),
            TopologyError::Unreachable("stranded".into())
        );

        // entry with an upstream edge
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        assert_eq!(
            builder.build(b, b, TopologyConfig::default()).unwrap_err(),
            TopologyError::EntryHasUpstream("b".into())
        );

        // terminal with a downstream edge
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        assert_eq!(
            builder.build(a, a, TopologyConfig::default()).unwrap_err(),
            TopologyError::TerminalHasDownstream("a".into())
        );
        // errors render as readable messages
        assert!(TopologyError::Cycle.to_string().contains("cycle"));
    }

    #[test]
    fn build_rejects_a_second_entry_with_a_directed_error() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);
        let pass = || Route::map(|key: &u64| *key);

        // two source-like operators both feed the terminal: the second feed
        // must be reported as a multi-entry attempt, not as "unreachable"
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let second =
            builder.add_operator("second-feed", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        builder.connect(second, b, pass());
        let err = builder.build(a, b, TopologyConfig::default()).unwrap_err();
        assert_eq!(
            err,
            TopologyError::MultiEntry {
                entry: "a".into(),
                extra: "second-feed".into(),
            }
        );
        // the message tells the user how to fix it
        let message = err.to_string();
        assert!(message.contains("merge the feeds into one timestamp-ordered stream"));
        assert!(message.contains("build_with_entries"));
    }

    #[test]
    fn build_rejects_parallel_entry_unkeyed_parallel_routes_and_bad_configs() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);

        // a parallel entry has no routed key to partition by
        let mut builder = TopologyBuilder::new();
        let a = builder
            .add_operator("a", Summer { table: t }, store.clone(), config)
            .with_parallelism(2);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, Route::map(|key: &u64| *key));
        assert_eq!(
            builder.build(a, b, TopologyConfig::default()).unwrap_err(),
            TopologyError::ParallelEntry("a".into())
        );

        // an unkeyed route into a parallel operator cannot partition
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder
            .add_operator("b", Summer { table: t }, store.clone(), config)
            .with_parallelism(3);
        builder.connect(a, b, Route::map(|key: &u64| *key));
        assert_eq!(
            builder.build(a, b, TopologyConfig::default()).unwrap_err(),
            TopologyError::UnkeyedParallelRoute {
                from: "a".into(),
                to: "b".into(),
            }
        );
        assert!(TopologyError::UnkeyedParallelRoute {
            from: "a".into(),
            to: "b".into()
        }
        .to_string()
        .contains("Route::keyed"));

        // a zero channel capacity is rejected before any thread spawns
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store, config);
        builder.connect(a, b, Route::map(|key: &u64| *key));
        assert!(matches!(
            builder
                .build(a, b, TopologyConfig::default().with_channel_capacity(0))
                .unwrap_err(),
            TopologyError::InvalidConfig(_)
        ));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_handles_are_rejected() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);
        let mut first = TopologyBuilder::new();
        let foreign = first.add_operator("a", Summer { table: t }, store.clone(), config);
        let mut second = TopologyBuilder::new();
        let local = second.add_operator("b", Summer { table: t }, store, config);
        second.connect(foreign, local, Route::map(|key: &u64| *key));
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_is_rejected() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);
        let mut builder = TopologyBuilder::new();
        let _ = builder
            .add_operator("a", Summer { table: t }, store, config)
            .with_parallelism(0);
    }

    /// Multi-entry test fixture: a tagged event stream dispatched to two
    /// entry operators that both feed one terminal Summer.
    ///
    /// Events are `(feed, key)`; feed 0 goes to a Doubler, feed 1 to a
    /// KeyCounter, and both route their keys into the Summer.
    fn two_entry_topology(
        punctuation: usize,
        topo: TopologyConfig,
    ) -> (Topology<(u8, u64), u64>, StateStore) {
        let store = StateStore::new();
        let doubled = store.create_table("doubled", 0, true);
        let counts = store.create_table("counts", 0, true);
        let sums = store.create_table("sums", 0, true);
        let config = EngineConfig::with_threads(2).with_punctuation_interval(punctuation);
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("left", Doubler { table: doubled }, store.clone(), config);
        let b = builder.add_operator("right", KeyCounter { table: counts }, store.clone(), config);
        let c = builder.add_operator("summer", Summer { table: sums }, store.clone(), config);
        builder.connect(
            a,
            c,
            Route::filter_map(|(key, committed): &(u64, bool)| committed.then_some(*key)),
        );
        builder.connect(b, c, Route::map(|key: &u64| *key));
        let topology = builder
            .build_with_entries(
                vec![
                    EntryBinding::new(
                        a,
                        Route::filter_map(|(feed, key): &(u8, u64)| (*feed == 0).then_some(*key)),
                    ),
                    EntryBinding::new(
                        b,
                        Route::filter_map(|(feed, key): &(u8, u64)| (*feed == 1).then_some(*key)),
                    ),
                ],
                c,
                topo,
            )
            .unwrap();
        (topology, store)
    }

    /// A deterministic merged two-feed stream: feed tag alternates in a
    /// fixed (timestamp-ordered) pattern.
    fn merged_two_feed_stream(count: u64) -> Vec<(u8, u64)> {
        (0..count).map(|i| ((i % 3 == 0) as u8, i % 17)).collect()
    }

    #[test]
    fn multi_entry_topology_runs_and_reports_entry_events_once() {
        let (mut topology, store) = two_entry_topology(8, TopologyConfig::default());
        assert_eq!(topology.operator_count(), 3);
        let events = merged_two_feed_stream(64);
        let report = topology.run(events.clone());
        // every input event lands on exactly one entry
        assert_eq!(report.events(), 64);
        // terminal saw the union of both entries' outputs
        assert_eq!(report.operators.len(), 3);
        let summer = report
            .operators
            .iter()
            .find(|op| op.name == "summer")
            .unwrap();
        assert_eq!(summer.events, 64);
        // edge rows: two input feeds plus two routed edges
        assert_eq!(report.edges.len(), 4);
        assert_eq!(report.edges[0].from, "(input)");
        assert_eq!(report.edges[1].from, "(input)");
        assert_eq!(report.edges[0].to, "left");
        assert_eq!(report.edges[1].to, "right");
        assert!(store.state_digest() != 0);
    }

    #[test]
    fn multi_entry_serial_and_concurrent_agree() {
        let events = merged_two_feed_stream(96);
        let (mut serial, serial_store) = two_entry_topology(8, TopologyConfig::default());
        let expected = serial.run(events.clone());

        for capacity in [1, 4] {
            let (mut concurrent, store) = two_entry_topology(
                8,
                TopologyConfig::default()
                    .with_concurrent(true)
                    .with_channel_capacity(capacity),
            );
            let report = concurrent.run(events.clone());
            assert_eq!(report.outputs, expected.outputs);
            assert_eq!(report.events(), expected.events());
            assert_eq!(report.committed, expected.committed);
            assert_eq!(rounds(&report), rounds(&expected));
            assert_eq!(
                store.state_digest(),
                serial_store.state_digest(),
                "digest diverged at capacity={capacity}"
            );
        }
    }

    #[test]
    fn multi_entry_digest_is_independent_of_feed_interleaving() {
        // The same per-feed event sequences, merged in two different
        // arrival interleavings that preserve each feed's internal order;
        // dispatch happens on the merged stream one round at a time, so
        // rounds must be identical — enforce the round boundary by choosing
        // interleavings that agree per punctuation window.
        let a = merged_two_feed_stream(64);
        let mut b = a.clone();
        for chunk in b.chunks_mut(8) {
            chunk.sort_by_key(|(feed, _)| *feed);
        }
        let run = |events: Vec<(u8, u64)>| {
            let (mut topology, store) = two_entry_topology(8, TopologyConfig::default());
            let report = topology.run(events);
            (store.state_digest(), report.events())
        };
        let (da, ea) = run(a);
        let (db, eb) = run(b);
        assert_eq!(ea, eb);
        assert_eq!(
            da, db,
            "within-round arrival order must not affect the digest"
        );
    }

    #[test]
    fn multi_entry_sessions_are_reusable() {
        let (mut topology, _store) = two_entry_topology(4, TopologyConfig::default());
        let first = topology.run(merged_two_feed_stream(16));
        assert_eq!(first.events(), 16);
        let second = topology.run(merged_two_feed_stream(8));
        assert_eq!(second.events(), 8);
    }

    #[test]
    fn build_with_entries_rejects_duplicates_and_undeclared_feeds() {
        let config = EngineConfig::with_threads(1);
        let store = StateStore::new();
        let t = store.create_table("t", 0, true);
        let pass = || Route::map(|key: &u64| *key);
        let dispatch = || Route::map(|key: &u64| *key);

        // duplicate entry binding
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        let err = builder
            .build_with_entries(
                vec![
                    EntryBinding::new(a, dispatch()),
                    EntryBinding::new(a, dispatch()),
                ],
                b,
                TopologyConfig::default(),
            )
            .unwrap_err();
        assert_eq!(err, TopologyError::DuplicateEntry("a".into()));

        // a feeding source not listed as an entry is still a MultiEntry error
        let mut builder = TopologyBuilder::new();
        let a = builder.add_operator("a", Summer { table: t }, store.clone(), config);
        let second = builder.add_operator("rogue", Summer { table: t }, store.clone(), config);
        let b = builder.add_operator("b", Summer { table: t }, store.clone(), config);
        builder.connect(a, b, pass());
        builder.connect(second, b, pass());
        let err = builder
            .build_with_entries(
                vec![EntryBinding::new(a, dispatch())],
                b,
                TopologyConfig::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::MultiEntry {
                entry: "a".into(),
                extra: "rogue".into(),
            }
        );
        assert!(err.to_string().contains("build_with_entries"));
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for key in 0..1_000u64 {
            let p = partition_of(key, 4);
            assert!(p < 4);
            assert_eq!(p, partition_of(key, 4));
        }
        // all partitions of a small modulus get hit
        let hit: std::collections::HashSet<usize> =
            (0..64u64).map(|k| partition_of(k, 4)).collect();
        assert_eq!(hit.len(), 4);
    }
}
