//! The two drivers of the round cores.
//!
//! [`launch`] wires a validated operator graph into [`InstanceCore`]s and
//! [`MergerCore`]s and hands them to one [`Driver`]: [`Inline`] steps them on
//! the caller thread off one work queue, [`Threads`] gives each its own
//! thread behind a bounded channel. Neither holds round logic — a driver is
//! the [`Outbox`] a core's `step` sends into, carrying each message to the
//! core (or the session fold) it is addressed to.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use morphstream_common::TopologyConfig;

use super::builder::EdgeSpec;
use super::node::{
    InstanceCore, InstanceMsg, InstanceStats, MergerCore, MergerMsg, NodeParts, OutEdge, OutRouter,
    Outbox, ToTopology,
};

/// A validated operator graph, ready to be wired.
pub(super) struct Plan {
    pub(super) nodes: Vec<NodeParts>,
    pub(super) edges: Vec<Vec<EdgeSpec>>,
    pub(super) topo_order: Vec<usize>,
    pub(super) entries: Vec<usize>,
    /// Single-entry mode: the entry engine cuts its own punctuations from the
    /// fed stream. In dispatch (multi-entry) mode entries flush per round
    /// like every downstream operator.
    pub(super) single_cut: bool,
    pub(super) terminal: usize,
    /// One wait counter per edge row: the first `entries.len()` rows are the
    /// input feeds, then every routed edge in (source, insertion) order.
    pub(super) edge_waits: Vec<Arc<AtomicU64>>,
}

/// Moves round messages between the cores and reports back to the topology.
pub(super) trait Driver: Send {
    /// Hand entry operator `node` its part of a round; `edge` is the row of
    /// that entry's input feed.
    fn send_entry(&mut self, node: usize, edge: usize, msg: InstanceMsg);
    /// Pass every report the cores produced so far to `apply`; with `block`,
    /// wait until there is at least one.
    fn pump(&mut self, block: bool, apply: &mut dyn FnMut(ToTopology));
    /// Whether the cores run on threads of their own.
    fn is_threaded(&self) -> bool;
}

/// The cores of a wired topology: `instances[operator][instance]`, and a
/// merger for every parallel operator.
struct Cores {
    names: Vec<String>,
    instances: Vec<Vec<InstanceCore>>,
    mergers: Vec<Option<MergerCore>>,
}

/// Wire `plan` into cores and start the driver `config` selects.
pub(super) fn launch(plan: Plan, config: &TopologyConfig) -> Box<dyn Driver> {
    let n = plan.nodes.len();
    // Canonical in-edge numbering: a destination's incoming edges are
    // numbered in the topological order of their sources (then insertion
    // order), so a round's parts concatenate in one fixed order whichever
    // way they arrive.
    let mut in_edge_index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut in_count = vec![0usize; n];
    for &src in &plan.topo_order {
        for (local, edge) in plan.edges[src].iter().enumerate() {
            in_edge_index.insert((src, local), in_count[edge.dst]);
            in_count[edge.dst] += 1;
        }
    }

    let instance_counts: Vec<usize> = plan.nodes.iter().map(|n| n.instances.len()).collect();
    let mut cores = Cores {
        names: plan.nodes.iter().map(|node| node.name.clone()).collect(),
        instances: Vec::with_capacity(n),
        mergers: Vec::with_capacity(n),
    };
    let mut row = plan.entries.len();
    for (idx, (node, node_edges)) in plan.nodes.into_iter().zip(plan.edges).enumerate() {
        let out_edges = node_edges.into_iter().enumerate().map(|(local, edge)| {
            row += 1;
            OutEdge {
                route: edge.route,
                dst: edge.dst,
                dst_instances: instance_counts[edge.dst],
                dst_in_edge: in_edge_index[&(idx, local)],
                row: row - 1,
            }
        });
        let mut router = Some(OutRouter {
            edges: out_edges.collect(),
            terminal: idx == plan.terminal,
        });
        let parallel = node.instances.len() > 1;
        let is_entry = plan.entries.contains(&idx);
        // Parallel operators interpose a merger that restores the round's
        // canonical output order before routing onward.
        cores.mergers.push(parallel.then(|| MergerCore {
            queues: node.instances.iter().map(|_| VecDeque::new()).collect(),
            merge: node.merge,
            router: router.take().expect("router built above"),
        }));
        let instances = node.instances.into_iter().enumerate();
        cores.instances.push(
            instances
                .map(|(i, inst)| InstanceCore {
                    node: idx,
                    instance: i,
                    label: match parallel {
                        true => format!("{}#{i}", node.name),
                        false => node.name.clone(),
                    },
                    is_entry,
                    entry_cuts: plan.single_cut && is_entry,
                    // An entry's one slot is its input feed.
                    queues: (0..in_count[idx].max(1)).map(|_| VecDeque::new()).collect(),
                    baseline: InstanceStats::default(),
                    inst,
                    router: router.take(),
                })
                .collect(),
        );
    }

    if config.concurrent {
        let capacity = config.channel_capacity.max(1);
        Box::new(Threads::spawn(
            cores,
            &plan.entries,
            capacity,
            plan.edge_waits,
        ))
    } else {
        Box::new(Inline {
            cores,
            pending: VecDeque::new(),
        })
    }
}

/// A message on the inline driver's work queue.
enum Pending {
    Part {
        node: usize,
        instance: usize,
        msg: InstanceMsg,
    },
    Merge {
        node: usize,
        msg: MergerMsg,
    },
    Report(ToTopology),
}

impl Outbox for VecDeque<Pending> {
    fn part(&mut self, node: usize, instance: usize, _edge: usize, msg: InstanceMsg) {
        self.push_back(Pending::Part {
            node,
            instance,
            msg,
        });
    }

    fn merge(&mut self, node: usize, msg: MergerMsg) {
        self.push_back(Pending::Merge { node, msg });
    }

    fn report(&mut self, report: ToTopology) {
        self.push_back(Pending::Report(report));
    }
}

/// Runs every core on the caller thread: what a step sends waits on one
/// first-in-first-out work queue (so each edge's parts stay in round order)
/// and `pump` steps the addressed cores until it is empty. A round is
/// therefore complete — outputs delivered, report and live rows current —
/// when the call that fed it returns.
struct Inline {
    cores: Cores,
    pending: VecDeque<Pending>,
}

impl Driver for Inline {
    fn send_entry(&mut self, node: usize, edge: usize, msg: InstanceMsg) {
        self.pending.part(node, 0, edge, msg);
    }

    fn pump(&mut self, block: bool, apply: &mut dyn FnMut(ToTopology)) {
        assert!(
            !(block && self.pending.is_empty()),
            "inline topology driver is idle but a round is still open"
        );
        while let Some(next) = self.pending.pop_front() {
            match next {
                Pending::Part {
                    node,
                    instance,
                    msg,
                } => self.cores.instances[node][instance].step(msg, &mut self.pending),
                Pending::Merge { node, msg } => {
                    let merger = self.cores.mergers[node].as_mut();
                    merger
                        .expect("only parallel operators address a merger")
                        .step(msg, &mut self.pending);
                }
                Pending::Report(report) => apply(report),
            }
        }
    }

    fn is_threaded(&self) -> bool {
        false
    }
}

type PanicSlot = Arc<Mutex<Option<Box<dyn Any + Send>>>>;

/// Sent to the collector in place of a report when a worker thread panicked;
/// the payload is in the shared panic slot.
struct WorkerPanicked;

/// The bounded per-instance channels a holder sends parts into, by
/// destination operator, with the per-edge wait counters.
struct Links {
    parts: HashMap<usize, Vec<SyncSender<InstanceMsg>>>,
    waits: Vec<Arc<AtomicU64>>,
}

impl Links {
    /// Links into exactly the operators `nodes` names. A holder gets senders
    /// only for the operators it routes to: a sender kept anywhere else would
    /// keep that operator's channel open after its real upstreams wound down.
    fn to(
        nodes: impl Iterator<Item = usize>,
        txs: &[Vec<SyncSender<InstanceMsg>>],
        waits: &[Arc<AtomicU64>],
    ) -> Self {
        Self {
            parts: nodes.map(|node| (node, txs[node].clone())).collect(),
            waits: waits.to_vec(),
        }
    }

    /// Send with back-pressure accounting: a full channel bumps the edge's
    /// `queue_full_waits` before blocking. Returns `false` when the receiver
    /// hung up (topology drop or worker panic) — the caller winds down.
    fn send_part(&self, node: usize, instance: usize, edge: usize, msg: InstanceMsg) -> bool {
        let tx = &self.parts[&node][instance];
        match tx.try_send(msg) {
            Ok(()) => true,
            Err(TrySendError::Full(msg)) => {
                self.waits[edge].fetch_add(1, Ordering::Relaxed);
                tx.send(msg).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// One worker thread's outbox: every message goes straight onto the channel
/// of the core it is addressed to.
struct Channels {
    links: Links,
    merger: Option<SyncSender<MergerMsg>>,
    collector: Sender<Result<ToTopology, WorkerPanicked>>,
    /// Cleared once a downstream receiver hung up; the worker winds down.
    open: bool,
}

impl Outbox for Channels {
    fn part(&mut self, node: usize, instance: usize, edge: usize, msg: InstanceMsg) {
        self.open = self.open && self.links.send_part(node, instance, edge, msg);
    }

    fn merge(&mut self, _node: usize, msg: MergerMsg) {
        let merger = self.merger.as_ref();
        let merger = merger.expect("a parallel instance holds its merger's sender");
        self.open = self.open && merger.send(msg).is_ok();
    }

    fn report(&mut self, report: ToTopology) {
        let _ = self.collector.send(Ok(report));
    }
}

/// Spawn a worker running `recv → step` until its channel closes, with panic
/// capture: the first panic payload lands in the shared slot and a
/// [`WorkerPanicked`] notice reaches the caller, which re-raises it there
/// with the original payload.
fn spawn_worker<M: Send + 'static>(
    thread_name: String,
    panic_slot: PanicSlot,
    rx: Receiver<M>,
    mut step: impl FnMut(M, &mut Channels) + Send + 'static,
    mut outbox: Channels,
) -> JoinHandle<()> {
    let collector = outbox.collector.clone();
    let body = move || {
        while let Ok(msg) = rx.recv() {
            step(msg, &mut outbox);
            if !outbox.open {
                break;
            }
        }
    };
    std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
                let mut slot = panic_slot.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
                drop(slot);
                let _ = collector.send(Err(WorkerPanicked));
            }
        })
        .expect("failed to spawn topology worker thread")
}

/// Every core on its own thread behind a bounded channel — the back-pressure
/// boundary: a slow operator fills its channel, the upstream send blocks, and
/// ultimately so does the caller's push. Reports come back over an unbounded
/// collector channel.
struct Threads {
    /// Senders into the entry operators (emptied on shutdown so blocked
    /// workers observe the disconnect).
    entry: Links,
    collector_rx: Option<Receiver<Result<ToTopology, WorkerPanicked>>>,
    workers: Vec<JoinHandle<()>>,
    panic_slot: PanicSlot,
}

impl Threads {
    fn spawn(cores: Cores, entries: &[usize], capacity: usize, waits: Vec<Arc<AtomicU64>>) -> Self {
        let mut txs: Vec<Vec<SyncSender<InstanceMsg>>> = Vec::new();
        let mut rxs: Vec<Vec<Receiver<InstanceMsg>>> = Vec::new();
        for node in &cores.instances {
            let (node_txs, node_rxs) = node.iter().map(|_| sync_channel(capacity)).unzip();
            txs.push(node_txs);
            rxs.push(node_rxs);
        }
        let (collector, collector_rx) = channel();
        let panic_slot: PanicSlot = Arc::new(Mutex::new(None));
        let destinations =
            |router: &OutRouter| Links::to(router.edges.iter().map(|e| e.dst), &txs, &waits);

        let mut workers = Vec::new();
        let nodes = cores.names.iter().zip(cores.instances);
        let nodes = nodes.zip(cores.mergers).zip(rxs);
        for (((name, instances), merger), instance_rxs) in nodes {
            let merger_tx = merger.map(|mut merger| {
                let (tx, rx) = sync_channel(capacity * instances.len());
                let outbox = Channels {
                    links: destinations(&merger.router),
                    merger: None,
                    collector: collector.clone(),
                    open: true,
                };
                workers.push(spawn_worker(
                    format!("morph-topo-{name}-merge"),
                    Arc::clone(&panic_slot),
                    rx,
                    move |msg, out: &mut Channels| merger.step(msg, out),
                    outbox,
                ));
                tx
            });
            for (mut core, rx) in instances.into_iter().zip(instance_rxs) {
                let outbox = Channels {
                    links: match &core.router {
                        Some(router) => destinations(router),
                        None => Links::to(std::iter::empty(), &txs, &waits),
                    },
                    merger: merger_tx.clone(),
                    collector: collector.clone(),
                    open: true,
                };
                workers.push(spawn_worker(
                    format!("morph-topo-{}", core.label),
                    Arc::clone(&panic_slot),
                    rx,
                    move |msg, out: &mut Channels| core.step(msg, out),
                    outbox,
                ));
            }
        }
        // Only the workers hold collector senders now, so "all workers gone"
        // surfaces as a disconnect on the caller side.
        drop(collector);
        Self {
            entry: Links::to(entries.iter().copied(), &txs, &waits),
            collector_rx: Some(collector_rx),
            workers,
            panic_slot,
        }
    }

    /// Close the channels and join every worker. Safe to call repeatedly;
    /// also the drop path, so a topology dropped mid-stream winds down
    /// without deadlock (receivers disconnect, blocked senders error out).
    fn shutdown(&mut self) {
        self.entry.parts.clear();
        self.collector_rx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Tear the runtime down and re-raise a worker panic with its original
    /// payload, so an app panic surfaces as it would on the inline driver,
    /// or report the unexpected shutdown.
    fn fail(&mut self) -> ! {
        // Join the workers *first*: a panicking worker's channels drop while
        // it unwinds, so siblings (and this thread) can observe the
        // disconnect before the payload lands in the slot — after the join,
        // the slot is authoritative.
        self.shutdown();
        match self.panic_slot.lock().expect("panic slot poisoned").take() {
            Some(payload) => std::panic::resume_unwind(payload),
            None => panic!("topology worker threads terminated unexpectedly"),
        }
    }
}

impl Driver for Threads {
    fn send_entry(&mut self, node: usize, edge: usize, msg: InstanceMsg) {
        if !self.entry.send_part(node, 0, edge, msg) {
            self.fail();
        }
    }

    fn pump(&mut self, mut block: bool, apply: &mut dyn FnMut(ToTopology)) {
        loop {
            let rx = self.collector_rx.as_ref();
            let rx = rx.expect("collector open while running");
            let received = if block {
                rx.recv().ok()
            } else {
                match rx.try_recv() {
                    Ok(msg) => Some(msg),
                    Err(TryRecvError::Empty) => return,
                    Err(TryRecvError::Disconnected) => None,
                }
            };
            match received {
                Some(Ok(report)) => apply(report),
                Some(Err(WorkerPanicked)) | None => self.fail(),
            }
            block = false;
        }
    }

    fn is_threaded(&self) -> bool {
        true
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.shutdown();
    }
}
