//! Operator instances and the round cores that drive them.
//!
//! An [`InstanceCore`] wraps one operator instance's engine with everything
//! a propagation round needs — per-in-edge punctuation alignment, ingest,
//! flush-by-[`RoundKind`], the stats delta, routing — as a channel-free
//! `step(message, outbox)` function; a [`MergerCore`] restores the
//! canonical output order of a parallel operator the same way. The drivers
//! in [`super::runtime`] only move messages between cores.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use morphstream_common::metrics::{Breakdown, StageTimings};
use morphstream_common::EngineConfig;
use morphstream_scheduler::SchedulingDecision;
use morphstream_storage::StateStore;

use super::route::ErasedRoute;
use crate::app::StreamApp;
use crate::engine::MorphStream;
use crate::pipeline::TxnEngine;
use crate::report::{BatchSummary, OperatorCounters, OperatorReport};

/// Cumulative session counters of one operator instance's engine. Deltas
/// between two snapshots describe one propagation round.
#[derive(Default, Clone)]
pub(super) struct InstanceStats {
    pub(super) events: usize,
    pub(super) committed: usize,
    pub(super) aborted: usize,
    pub(super) redone_ops: usize,
    pub(super) coarse_unit_builds: u64,
    pub(super) timings: StageTimings,
    pub(super) breakdown: Breakdown,
}

impl InstanceStats {
    fn delta(&self, earlier: &InstanceStats) -> InstanceStats {
        InstanceStats {
            events: self.events.saturating_sub(earlier.events),
            committed: self.committed.saturating_sub(earlier.committed),
            aborted: self.aborted.saturating_sub(earlier.aborted),
            redone_ops: self.redone_ops.saturating_sub(earlier.redone_ops),
            coarse_unit_builds: self
                .coarse_unit_builds
                .saturating_sub(earlier.coarse_unit_builds),
            timings: self.timings.saturating_sub(&earlier.timings),
            breakdown: self.breakdown.saturating_sub(&earlier.breakdown),
        }
    }

    pub(super) fn merge(&mut self, other: &InstanceStats) {
        self.events += other.events;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.redone_ops += other.redone_ops;
        self.coarse_unit_builds += other.coarse_unit_builds;
        self.timings.merge(&other.timings);
        self.breakdown.merge(&other.breakdown);
    }

    pub(super) fn is_zero(&self) -> bool {
        self.events == 0 && self.committed == 0 && self.aborted == 0
    }
}

/// Object-safe view of one operator *instance*: a typed `MorphStream<A>`
/// behind event/output erasure, so the round cores drive heterogeneous
/// instances uniformly (and the threaded driver can move each instance onto
/// its own thread).
pub(super) trait ErasedInstance: Send {
    /// Ingest a batch of events (a boxed `Vec<A::Event>`).
    fn ingest_events(&mut self, events: Box<dyn Any + Send>);
    /// The engine's punctuation interval in events (`usize::MAX` when unset:
    /// one batch per flush).
    fn punctuation_interval(&self) -> usize;
    fn flush(&mut self);
    /// Batches this instance's engine has completed in the current session.
    fn completed_batches(&self) -> usize;
    /// Take what the engine emitted since the last call, as a boxed
    /// `Vec<A::Output>`.
    fn take_outputs(&mut self) -> Box<dyn Any + Send>;
    /// Cumulative session counters of this instance's engine.
    fn stats(&self) -> InstanceStats;
    /// The newest completed batch of the session.
    fn last_batch(&self) -> Option<&BatchSummary>;
    /// Close the instance's session and condense it into a sub-report.
    fn finish_instance(&mut self, name: &str) -> OperatorReport;
}

struct Instance<A: StreamApp> {
    engine: MorphStream<A>,
}

impl<A: StreamApp> ErasedInstance for Instance<A>
where
    A::Output: 'static,
{
    fn ingest_events(&mut self, events: Box<dyn Any + Send>) {
        let events = events
            .downcast::<Vec<A::Event>>()
            .expect("routed event type checked by OperatorHandle");
        for event in *events {
            self.engine.ingest(event);
        }
    }

    fn punctuation_interval(&self) -> usize {
        self.engine.punctuation_interval()
    }

    fn flush(&mut self) {
        self.engine.flush();
    }

    fn completed_batches(&self) -> usize {
        self.engine.report().batches.len()
    }

    fn take_outputs(&mut self) -> Box<dyn Any + Send> {
        Box::new(self.engine.take_outputs())
    }

    fn stats(&self) -> InstanceStats {
        let report = self.engine.report();
        InstanceStats {
            events: report.events(),
            committed: report.committed,
            aborted: report.aborted,
            redone_ops: report.redone_ops,
            coarse_unit_builds: report.coarse_unit_builds,
            timings: report.stage_timings,
            breakdown: report.breakdown.clone(),
        }
    }

    fn last_batch(&self) -> Option<&BatchSummary> {
        self.engine.report().batches.last()
    }

    fn finish_instance(&mut self, name: &str) -> OperatorReport {
        OperatorReport::from_run(name, &self.engine.finish())
    }
}

/// Merge per-instance output batches back into the round's canonical order:
/// takes `(outputs, positions)` per instance plus the round's total
/// size, returns the boxed merged `Vec<A::Output>`. Typed inside, erased at
/// the call sites.
pub(super) type MergeFn = Arc<dyn Fn(Vec<MergePart>, usize) -> Box<dyn Any + Send> + Send + Sync>;
pub(super) type MergePart = (Box<dyn Any + Send>, Vec<usize>);

/// An operator instantiated for a topology: its parallel instances, the
/// output-merge function, and the store it runs over.
pub(super) struct NodeParts {
    pub(super) name: String,
    pub(super) instances: Vec<Box<dyn ErasedInstance>>,
    pub(super) merge: MergeFn,
}

/// Type-erased operator registration: holds the application until
/// [`TopologyBuilder::build`] knows the operator's parallelism and can
/// instantiate the engines.
pub(super) trait ErasedSpec: Send {
    fn name(&self) -> &str;
    fn store(&self) -> &StateStore;
    fn instantiate(self: Box<Self>, parallelism: usize) -> NodeParts;
}

pub(super) struct NodeSpec<A: StreamApp> {
    pub(super) name: String,
    pub(super) app: A,
    pub(super) store: StateStore,
    pub(super) config: EngineConfig,
}

impl<A: StreamApp> ErasedSpec for NodeSpec<A>
where
    A::Output: 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn store(&self) -> &StateStore {
        &self.store
    }

    fn instantiate(self: Box<Self>, parallelism: usize) -> NodeParts {
        let spec = *self;
        // Parallel instances run the same application object; outputs move
        // out of each engine's session, so routed types need no `Clone`.
        let app = Arc::new(spec.app);
        // Parallel instances each stamp their own timestamp domain over the
        // shared tables, so no single instance watermark is safe to truncate
        // with — reclamation stays off above parallelism one.
        let engine_config = if parallelism > 1 {
            spec.config.with_reclaim_after_batch(false)
        } else {
            spec.config
        };
        let instances = (0..parallelism)
            .map(|_| {
                let engine = MorphStream::with_shared_app(
                    Arc::clone(&app),
                    spec.store.clone(),
                    engine_config,
                );
                Box::new(Instance { engine }) as Box<dyn ErasedInstance>
            })
            .collect();
        let merge: MergeFn = Arc::new(|parts: Vec<MergePart>, total: usize| {
            let mut slots: Vec<Option<A::Output>> = Vec::with_capacity(total);
            slots.resize_with(total, || None);
            for (outputs, positions) in parts {
                let outputs = outputs
                    .downcast::<Vec<A::Output>>()
                    .expect("instance output type checked by OperatorHandle");
                debug_assert_eq!(outputs.len(), positions.len(), "outputs desynchronised");
                for (output, position) in outputs.into_iter().zip(positions) {
                    slots[position] = Some(output);
                }
            }
            let merged: Vec<A::Output> = slots
                .into_iter()
                .map(|slot| slot.expect("keyed partition covered every event"))
                .collect();
            Box::new(merged)
        });
        NodeParts {
            name: spec.name,
            instances,
            merge,
        }
    }
}

/// What a propagation round means to the operators it flows through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RoundKind {
    /// An ordinary punctuation: a single-entry topology's entry operator cuts
    /// its batch internally, every other operator flushes on arrival
    /// (punctuation alignment).
    Normal,
    /// A synchronisation round: every operator (the entry included) flushes
    /// its partial batch, so the round drains the whole dataflow.
    Flush,
    /// Flush *and* close every operator session, emitting the per-instance
    /// [`OperatorReport`]s.
    Finish,
}

/// One routed part of a round, addressed to a single operator instance.
pub(super) struct InstanceMsg {
    pub(super) seq: usize,
    pub(super) kind: RoundKind,
    /// Which of the destination's incoming edges this part arrived on, in the
    /// canonical (topological source order) numbering — the alignment slot.
    pub(super) in_edge: usize,
    pub(super) events: Box<dyn Any + Send>,
    /// Canonical positions of `events` within the sending edge's round.
    pub(super) positions: Vec<usize>,
    /// Total events of the sending edge's round (across all instances).
    pub(super) total: usize,
}

/// One instance's processed round, on its way to the operator's merger.
pub(super) struct MergerMsg {
    seq: usize,
    kind: RoundKind,
    instance: usize,
    outputs: Box<dyn Any + Send>,
    positions: Vec<usize>,
    /// Events routed to the whole operator this round (all instances agree).
    total: usize,
}

/// One instance's account of one processed round.
pub(super) struct RoundReport {
    pub(super) seq: usize,
    pub(super) node: usize,
    pub(super) instance: usize,
    /// Entry instances' events count as the topology's input.
    pub(super) is_entry: bool,
    /// What the round added to the instance's session counters.
    pub(super) delta: InstanceStats,
    /// On entry instances, the newest batch's scheduling decision (it labels
    /// the round).
    pub(super) decision: Option<SchedulingDecision>,
    /// Workers the instance's newest batch engaged, when the round completed
    /// one; 0 otherwise.
    pub(super) workers: usize,
    /// The instance's cumulative counters after the round — the live
    /// observability feed behind [`Topology::live_rows`](super::Topology::live_rows).
    pub(super) live: OperatorCounters,
    /// On a `Finish` round, the closed session's report.
    pub(super) finished: Option<OperatorReport>,
}

/// Everything the cores report back to the topology's session fold.
pub(super) enum ToTopology {
    /// The terminal operator's merged outputs for one round (sent every
    /// round, possibly empty, so the caller can await round completion).
    Outputs {
        seq: usize,
        outputs: Box<dyn Any + Send>,
    },
    Round(Box<RoundReport>),
}

/// Where a core's step sends what it produced; the driver's half of a step.
pub(super) trait Outbox {
    /// A routed part for instance `instance` of operator `node`, travelling
    /// over the edge whose observability row is `edge`.
    fn part(&mut self, node: usize, instance: usize, edge: usize, msg: InstanceMsg);
    /// A processed round for operator `node`'s merger.
    fn merge(&mut self, node: usize, msg: MergerMsg);
    fn report(&mut self, report: ToTopology);
}

/// One outgoing edge of an operator.
pub(super) struct OutEdge {
    pub(super) route: ErasedRoute,
    pub(super) dst: usize,
    pub(super) dst_instances: usize,
    pub(super) dst_in_edge: usize,
    /// Row of this edge in the topology's edge report.
    pub(super) row: usize,
}

/// Routes one operator's merged round outputs onward: applies every outgoing
/// edge (partitioning keyed routes across the destination's instances) and,
/// on the terminal operator, hands the outputs to the topology.
pub(super) struct OutRouter {
    pub(super) edges: Vec<OutEdge>,
    pub(super) terminal: bool,
}

impl OutRouter {
    fn route(
        &self,
        seq: usize,
        kind: RoundKind,
        outputs: Box<dyn Any + Send>,
        out: &mut impl Outbox,
    ) {
        for edge in &self.edges {
            let routed = (edge.route)(outputs.as_ref(), edge.dst_instances);
            let parts = routed.parts.into_iter().zip(routed.positions);
            for (instance, (events, positions)) in parts.enumerate() {
                let msg = InstanceMsg {
                    seq,
                    kind,
                    in_edge: edge.dst_in_edge,
                    events,
                    positions,
                    total: routed.total,
                };
                out.part(edge.dst, instance, edge.row, msg);
            }
        }
        if self.terminal {
            out.report(ToTopology::Outputs { seq, outputs });
        }
    }
}

/// One operator instance plus its share of the round protocol.
pub(super) struct InstanceCore {
    pub(super) node: usize,
    pub(super) instance: usize,
    pub(super) label: String,
    /// Whether this instance is an entry operator (its events count as the
    /// topology's input and its decision labels the round).
    pub(super) is_entry: bool,
    /// Whether this entry cuts its own punctuations from the fed stream
    /// (single-entry mode); dispatch-mode entries flush per round instead.
    pub(super) entry_cuts: bool,
    /// Punctuation alignment: parts waiting per incoming edge.
    pub(super) queues: Vec<VecDeque<InstanceMsg>>,
    pub(super) baseline: InstanceStats,
    pub(super) inst: Box<dyn ErasedInstance>,
    /// `None` on a parallel operator: rounds go to the operator's merger.
    pub(super) router: Option<OutRouter>,
}

impl InstanceCore {
    /// Accept one routed part; once every incoming edge delivered its part of
    /// the oldest open round, run that round and send what it produced to
    /// `out`. (Before the call some edge queue was empty, so a part completes
    /// at most one round.)
    pub(super) fn step(&mut self, msg: InstanceMsg, out: &mut impl Outbox) {
        let (seq, kind) = (msg.seq, msg.kind);
        self.queues[msg.in_edge].push_back(msg);
        if self.queues.iter().any(VecDeque::is_empty) {
            return;
        }
        // One part per incoming edge, in the canonical edge order, all of the
        // same round; their positions concatenate into the round's order.
        let mut positions: Vec<usize> = Vec::new();
        let mut total = 0usize;
        for queue in &mut self.queues {
            let part = queue.pop_front().expect("checked non-empty");
            debug_assert!(
                part.seq == seq && part.kind == kind,
                "edge rounds desynchronised"
            );
            positions.extend(part.positions.iter().map(|p| p + total));
            total += part.total;
            self.inst.ingest_events(part.events);
        }
        // A single-mode entry engine cuts its own punctuations from the fed
        // events; every other operator (dispatch-mode entries included)
        // flushes per round so its batches align with upstream boundaries.
        if kind != RoundKind::Normal || !self.entry_cuts {
            self.inst.flush();
        }
        let stats = self.inst.stats();
        let delta = stats.delta(&self.baseline);
        self.baseline = stats;
        let outputs = self.inst.take_outputs();
        match &self.router {
            Some(router) => router.route(seq, kind, outputs, out),
            None => {
                let msg = MergerMsg {
                    seq,
                    kind,
                    instance: self.instance,
                    outputs,
                    positions,
                    total,
                };
                out.merge(self.node, msg);
            }
        }
        let live = OperatorCounters {
            name: self.label.clone(),
            events: self.baseline.events as u64,
            committed: self.baseline.committed as u64,
            aborted: self.baseline.aborted as u64,
            batches: self.inst.completed_batches() as u64,
        };
        let last = self.inst.last_batch();
        let decision = last.filter(|_| self.is_entry).map(|b| b.decision);
        let workers = last.filter(|_| delta.events > 0).map_or(0, |b| b.workers);
        let finished = (kind == RoundKind::Finish).then(|| {
            self.baseline = InstanceStats::default();
            self.inst.finish_instance(&self.label)
        });
        out.report(ToTopology::Round(Box::new(RoundReport {
            seq,
            node: self.node,
            instance: self.instance,
            is_entry: self.is_entry,
            delta,
            decision,
            workers,
            live,
            finished,
        })));
    }
}

/// Merges a parallel operator's per-instance round outputs back into the
/// canonical order and routes them onward.
pub(super) struct MergerCore {
    /// Processed rounds waiting per instance.
    pub(super) queues: Vec<VecDeque<MergerMsg>>,
    pub(super) merge: MergeFn,
    pub(super) router: OutRouter,
}

impl MergerCore {
    /// Accept one instance's processed round; once every instance delivered
    /// the oldest open round, merge and route it.
    pub(super) fn step(&mut self, msg: MergerMsg, out: &mut impl Outbox) {
        let (seq, kind, total) = (msg.seq, msg.kind, msg.total);
        self.queues[msg.instance].push_back(msg);
        if self.queues.iter().any(VecDeque::is_empty) {
            return;
        }
        let parts: Vec<MergePart> = self
            .queues
            .iter_mut()
            .map(|queue| {
                let m = queue.pop_front().expect("checked non-empty");
                debug_assert!(
                    m.seq == seq && m.total == total,
                    "instance rounds desynchronised"
                );
                (m.outputs, m.positions)
            })
            .collect();
        self.router
            .route(seq, kind, (self.merge)(parts, total), out);
    }
}
