//! Assembling a topology: typed operator handles, entry bindings, graph
//! validation, and the hand-off of the validated graph to a driver.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use morphstream_common::{EngineConfig, TopologyConfig};
use morphstream_storage::StateStore;

use super::node::{ErasedSpec, NodeParts, NodeSpec};
use super::route::{erase_route, ErasedRoute, Route};
use super::runtime::{launch, Plan};
use super::{Session, Topology};
use crate::app::StreamApp;

/// Distinguishes handles of different builders, so a handle can never index
/// into a topology it was not created for.
static NEXT_BUILDER_ID: AtomicU64 = AtomicU64::new(0);

/// Typed reference to an operator added to a [`TopologyBuilder`]: carries the
/// operator's event/output types so [`TopologyBuilder::connect`] and
/// [`TopologyBuilder::build`] are checked at compile time, plus the
/// operator's requested parallelism (see
/// [`OperatorHandle::with_parallelism`]).
pub struct OperatorHandle<E, O> {
    builder: u64,
    index: usize,
    parallelism: usize,
    _marker: PhantomData<fn(E) -> O>,
}

impl<E, O> Clone for OperatorHandle<E, O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E, O> Copy for OperatorHandle<E, O> {}

impl<E, O> OperatorHandle<E, O> {
    /// Request `n` parallel instances of this operator. Every incoming edge
    /// of a parallel operator must be a [`Route::keyed`] route: the routed
    /// events are hash-partitioned by their key across the instances, each
    /// instance owns its partition's state, and the topology merges the
    /// per-instance outputs back into the original event order — digests and
    /// outputs are deterministic regardless of `n`.
    ///
    /// The parallelism is recorded when the handle is passed back into the
    /// builder (`connect` or `build`), so request it before wiring the
    /// operator. Parallel operators keep after-batch version reclamation off:
    /// each instance stamps its own timestamp domain over the shared tables,
    /// so no single instance watermark is safe to truncate with.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use = "builder methods return the updated value instead of mutating in place"]
    pub fn with_parallelism(mut self, n: usize) -> Self {
        assert!(n >= 1, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// The parallelism recorded on this handle.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }
}

impl<E, O> std::fmt::Debug for OperatorHandle<E, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorHandle")
            .field("index", &self.index)
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

/// Why a [`TopologyBuilder::build`] call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The operator graph contains a cycle; punctuation propagation requires
    /// a DAG.
    Cycle,
    /// The named operator cannot receive events: it is not reachable from the
    /// entry operator.
    Unreachable(String),
    /// The entry operator has an incoming edge; entry events arrive only from
    /// the outside.
    EntryHasUpstream(String),
    /// The terminal operator has an outgoing edge; its outputs are the
    /// topology's outputs.
    TerminalHasDownstream(String),
    /// The entry operator requested parallelism above one; entry events are
    /// not routed, so there is no key to partition them by.
    ParallelEntry(String),
    /// An edge into a parallel operator uses a route without a key; only
    /// [`Route::keyed`] routes can partition events across instances.
    UnkeyedParallelRoute {
        /// Upstream operator of the offending edge.
        from: String,
        /// Downstream (parallel) operator of the offending edge.
        to: String,
    },
    /// An operator not declared as an entry has no upstream edge but feeds
    /// the graph — an undeclared entry point. Every feeding source-like
    /// operator must be declared: either merge the feeds ahead of a single
    /// entry into one timestamp-ordered stream (as the dataflow loader's
    /// `build_events` does for a scenario's feeds), or declare every entry
    /// with [`TopologyBuilder::build_with_entries`].
    MultiEntry {
        /// The declared entry operator.
        entry: String,
        /// The operator acting as an undeclared entry.
        extra: String,
    },
    /// The same operator was listed as an entry twice in
    /// [`TopologyBuilder::build_with_entries`]; each entry receives each
    /// round exactly once.
    DuplicateEntry(String),
    /// The [`TopologyConfig`] failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Cycle => write!(f, "operator topology contains a cycle"),
            TopologyError::Unreachable(name) => {
                write!(
                    f,
                    "operator {name:?} is not reachable from the entry operator"
                )
            }
            TopologyError::EntryHasUpstream(name) => {
                write!(f, "entry operator {name:?} has an incoming edge")
            }
            TopologyError::TerminalHasDownstream(name) => {
                write!(f, "terminal operator {name:?} has an outgoing edge")
            }
            TopologyError::ParallelEntry(name) => {
                write!(
                    f,
                    "entry operator {name:?} cannot be parallel: entry events are not keyed"
                )
            }
            TopologyError::UnkeyedParallelRoute { from, to } => {
                write!(
                    f,
                    "edge {from:?} -> {to:?} must use Route::keyed: {to:?} runs parallel instances"
                )
            }
            TopologyError::MultiEntry { entry, extra } => {
                write!(
                    f,
                    "operator {extra:?} acts as an undeclared entry (no upstream edge) besides \
                     {entry:?}; either merge the feeds into one timestamp-ordered stream \
                     ahead of one entry or declare every entry with \
                     TopologyBuilder::build_with_entries"
                )
            }
            TopologyError::DuplicateEntry(name) => {
                write!(f, "operator {name:?} is listed as an entry more than once")
            }
            TopologyError::InvalidConfig(reason) => {
                write!(f, "invalid topology configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// One routed connection between two operators, before instantiation.
pub(super) struct EdgeSpec {
    pub(super) dst: usize,
    keyed: bool,
    pub(super) route: ErasedRoute,
}

/// One entry operator of a multi-entry topology, paired with the dispatch
/// [`Route`] that selects (and converts) this entry's share of the topology's
/// input stream. Pass a list of bindings to
/// [`TopologyBuilder::build_with_entries`].
///
/// The input stream `In` is the *merged* stream of every feed, ordered by
/// timestamp before it reaches the topology; each binding's route then picks
/// out the events belonging to its entry (typically a `Route::filter_map` on
/// a feed tag). Because dispatch operates on the already-merged stream, the
/// resulting state digests are independent of how the individual feeds were
/// interleaved at arrival.
pub struct EntryBinding<In> {
    builder: u64,
    index: usize,
    parallelism: usize,
    route: ErasedRoute,
    _marker: PhantomData<fn(In)>,
}

impl<In: Send + 'static> EntryBinding<In> {
    /// Bind `handle` as an entry fed by `route` applied to the topology's
    /// input events. The route's key (if any) is ignored: entries are
    /// single-instance, so there is nothing to partition.
    pub fn new<E2: Send + 'static, O>(handle: OperatorHandle<E2, O>, route: Route<In, E2>) -> Self {
        let (_keyed, route) = erase_route(route);
        Self {
            builder: handle.builder,
            index: handle.index,
            parallelism: handle.parallelism,
            route,
            _marker: PhantomData,
        }
    }
}

impl<In> std::fmt::Debug for EntryBinding<In> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryBinding")
            .field("index", &self.index)
            .finish()
    }
}

/// Builds a [`Topology`]: add operators, connect them with [`Route`]s, then
/// [`TopologyBuilder::build`] the dataflow with a designated entry and
/// terminal operator and a [`TopologyConfig`].
pub struct TopologyBuilder {
    id: u64,
    specs: Vec<Box<dyn ErasedSpec>>,
    edges: Vec<Vec<EdgeSpec>>,
    parallelism: Vec<usize>,
}

impl Default for TopologyBuilder {
    // Must go through `new()`: a derived default would use builder id 0,
    // colliding with the first allocated id and defeating the foreign-handle
    // check.
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            id: NEXT_BUILDER_ID.fetch_add(1, Ordering::Relaxed),
            specs: Vec::new(),
            edges: Vec::new(),
            parallelism: Vec::new(),
        }
    }

    /// Add a transactional operator: `app` runs as its own MorphStream engine
    /// over `store` with `config` (its own punctuation interval, TPG,
    /// decision model, and worker pool). Returns the typed handle used to
    /// [`connect`](TopologyBuilder::connect) it into the dataflow; call
    /// [`OperatorHandle::with_parallelism`] on the handle to run several
    /// instances of the operator.
    ///
    /// Operators may share a `StateStore` (and must, when downstream
    /// operators read state written upstream), but two operators must never
    /// write the *same table* — each operator assigns its own timestamps, and
    /// interleaving two timestamp domains in one table's version chains would
    /// un-order them. After-batch version reclamation is per-table (each
    /// engine truncates only the tables it writes, with its own watermark),
    /// so sharing a store no longer disables reclamation; tables an operator
    /// itself accesses through windows are pinned automatically and keep
    /// their history.
    ///
    /// **Cross-operator windows need an explicit pin**: when one operator
    /// *writes* a table that a *different* operator window-reads, pin the
    /// table up front with
    /// [`StateStore::pin_table`](morphstream_storage::StateStore::pin_table).
    /// Windowed accesses are discovered per-engine as batches decompose, so
    /// the reader's automatic pin can land only after the writer's first
    /// reclamation already truncated the shared history.
    #[must_use]
    pub fn add_operator<A: StreamApp>(
        &mut self,
        name: impl Into<String>,
        app: A,
        store: StateStore,
        config: EngineConfig,
    ) -> OperatorHandle<A::Event, A::Output>
    where
        A::Output: 'static,
    {
        let index = self.specs.len();
        self.specs.push(Box::new(NodeSpec {
            name: name.into(),
            app,
            store,
            config,
        }));
        self.edges.push(Vec::new());
        self.parallelism.push(1);
        OperatorHandle {
            builder: self.id,
            index,
            parallelism: 1,
            _marker: PhantomData,
        }
    }

    /// Route `from`'s outputs into `to`'s events: after every batch `from`
    /// completes, the [`Route`] is applied to each output in order and every
    /// event it yields is ingested by `to` (then `to` is flushed, propagating
    /// the punctuation). Add several edges from one operator to fan out
    /// across downstream operators. An edge into a parallel operator must use
    /// [`Route::keyed`].
    ///
    /// # Panics
    ///
    /// Panics if either handle does not belong to this builder.
    pub fn connect<E1, O1, E2, O2>(
        &mut self,
        from: OperatorHandle<E1, O1>,
        to: OperatorHandle<E2, O2>,
        route: Route<O1, E2>,
    ) where
        O1: Send + 'static,
        E2: Send + 'static,
    {
        self.note_handle(from.builder, from.index, from.parallelism);
        self.note_handle(to.builder, to.index, to.parallelism);
        let (keyed, route) = erase_route(route);
        self.edges[from.index].push(EdgeSpec {
            dst: to.index,
            keyed,
            route,
        });
    }

    /// Validate a handle and record the parallelism it carries (the highest
    /// request wins, so a handle upgraded with `with_parallelism` takes
    /// effect whenever any copy of it is passed back in).
    fn note_handle(&mut self, builder: u64, index: usize, parallelism: usize) {
        assert!(
            builder == self.id && index < self.specs.len(),
            "operator handle does not belong to this TopologyBuilder"
        );
        self.parallelism[index] = self.parallelism[index].max(parallelism);
    }

    /// Assemble the dataflow: `entry` receives the topology's input events,
    /// `terminal`'s outputs become the topology's outputs (operators that are
    /// neither the terminal nor connected further act as side-effecting
    /// sinks; their outputs are discarded), and `config` selects the driver
    /// — inline on the caller thread by default, or one thread per operator
    /// instance behind bounded channels (see [`TopologyConfig`]).
    ///
    /// Validates that the graph is a DAG, that every operator is reachable
    /// from `entry`, that `entry` has no upstream and is not parallel, that
    /// `terminal` has no downstream, and that every edge into a parallel
    /// operator is keyed. This form declares exactly **one** entry: an
    /// operator that feeds the graph without an upstream of its own is
    /// rejected as [`TopologyError::MultiEntry`] — merge multiple feeds into
    /// one timestamp-ordered stream ahead of the entry, or declare every
    /// entry explicitly with [`TopologyBuilder::build_with_entries`].
    ///
    /// # Panics
    ///
    /// Panics if either handle does not belong to this builder.
    pub fn build<In, EO, TE, Out>(
        mut self,
        entry: OperatorHandle<In, EO>,
        terminal: OperatorHandle<TE, Out>,
        config: TopologyConfig,
    ) -> Result<Topology<In, Out>, TopologyError>
    where
        In: Send + 'static,
        Out: Send + 'static,
    {
        self.note_handle(entry.builder, entry.index, entry.parallelism);
        self.note_handle(terminal.builder, terminal.index, terminal.parallelism);
        self.build_inner(vec![entry.index], None, terminal.index, config)
    }

    /// Assemble a dataflow with **multiple entry operators**. The topology's
    /// input stream `In` is the timestamp-merged union of every feed; each
    /// [`EntryBinding`]'s route picks its entry's share out of that stream
    /// (typically by a feed tag) and converts it to the entry's event type.
    ///
    /// Semantics: events are staged and dispatched one *round* at a time —
    /// every `min(entry punctuation intervals)` staged events, each binding's
    /// route runs over the staged slice and every entry ingests its share and
    /// flushes, so all entries advance in lock-step rounds and downstream
    /// punctuation alignment works exactly as in the single-entry form: every
    /// entry receives one aligned part (possibly empty) of each round. Because
    /// dispatch happens after the feeds were merged into one ordered stream,
    /// digests are independent of the feeds' arrival interleaving.
    ///
    /// Entries must be single-instance (no [`OperatorHandle::with_parallelism`])
    /// and must not appear twice. The same validations as
    /// [`TopologyBuilder::build`] apply, with reachability seeded from every
    /// entry. A single binding is allowed — the topology then behaves like
    /// [`TopologyBuilder::build`] with an input-conversion route, except that
    /// the entry flushes per round instead of cutting its own punctuation.
    ///
    /// # Panics
    ///
    /// Panics if a handle does not belong to this builder or `entries` is
    /// empty.
    pub fn build_with_entries<In, TE, Out>(
        mut self,
        entries: Vec<EntryBinding<In>>,
        terminal: OperatorHandle<TE, Out>,
        config: TopologyConfig,
    ) -> Result<Topology<In, Out>, TopologyError>
    where
        In: Send + 'static,
        Out: Send + 'static,
    {
        assert!(
            !entries.is_empty(),
            "build_with_entries requires at least one entry"
        );
        for entry in &entries {
            self.note_handle(entry.builder, entry.index, entry.parallelism);
        }
        self.note_handle(terminal.builder, terminal.index, terminal.parallelism);
        let mut indices = Vec::with_capacity(entries.len());
        let mut routes = Vec::with_capacity(entries.len());
        for entry in entries {
            indices.push(entry.index);
            routes.push(entry.route);
        }
        self.build_inner(indices, Some(routes), terminal.index, config)
    }

    /// Shared assembly path: `dispatch` is `None` for the single-entry form
    /// (entry events are ingested directly and the entry engine cuts its own
    /// punctuations) and `Some` for the multi-entry form (each round is
    /// dispatched through the per-entry routes and entries flush per round).
    fn build_inner<In, Out>(
        self,
        entries: Vec<usize>,
        dispatch: Option<Vec<ErasedRoute>>,
        terminal: usize,
        config: TopologyConfig,
    ) -> Result<Topology<In, Out>, TopologyError>
    where
        In: Send + 'static,
        Out: Send + 'static,
    {
        if let Err(reason) = config.validate() {
            return Err(TopologyError::InvalidConfig(reason));
        }
        let n = self.specs.len();

        for (i, &e) in entries.iter().enumerate() {
            if entries[..i].contains(&e) {
                return Err(TopologyError::DuplicateEntry(
                    self.specs[e].name().to_string(),
                ));
            }
        }

        let mut in_degree = vec![0usize; n];
        for edges in &self.edges {
            for edge in edges {
                in_degree[edge.dst] += 1;
            }
        }
        for &e in &entries {
            if in_degree[e] != 0 {
                return Err(TopologyError::EntryHasUpstream(
                    self.specs[e].name().to_string(),
                ));
            }
        }
        // A source-like operator — no upstream but feeding the graph — that
        // was not declared as an entry is a multi-entry attempt; report it as
        // such instead of the misleading `Unreachable` the reachability sweep
        // would produce. (An operator with no edges at all is merely stranded
        // and still reports as unreachable below.)
        if let Some(extra) = (0..n)
            .find(|&i| !entries.contains(&i) && in_degree[i] == 0 && !self.edges[i].is_empty())
        {
            return Err(TopologyError::MultiEntry {
                entry: self.specs[entries[0]].name().to_string(),
                extra: self.specs[extra].name().to_string(),
            });
        }
        if !self.edges[terminal].is_empty() {
            return Err(TopologyError::TerminalHasDownstream(
                self.specs[terminal].name().to_string(),
            ));
        }
        for &e in &entries {
            if self.parallelism[e] > 1 {
                return Err(TopologyError::ParallelEntry(
                    self.specs[e].name().to_string(),
                ));
            }
        }
        for (src, edges) in self.edges.iter().enumerate() {
            for edge in edges {
                if self.parallelism[edge.dst] > 1 && !edge.keyed {
                    return Err(TopologyError::UnkeyedParallelRoute {
                        from: self.specs[src].name().to_string(),
                        to: self.specs[edge.dst].name().to_string(),
                    });
                }
            }
        }

        // Kahn's algorithm: the propagation order. A leftover node means a
        // cycle; an unreached node (in-degree never zero *via an entry*) is
        // caught by the reachability check below.
        let mut degree = in_degree.clone();
        let mut ready: Vec<usize> = (0..n).filter(|&i| degree[i] == 0).collect();
        let mut topo_order = Vec::with_capacity(n);
        while let Some(idx) = ready.pop() {
            topo_order.push(idx);
            for edge in &self.edges[idx] {
                degree[edge.dst] -= 1;
                if degree[edge.dst] == 0 {
                    ready.push(edge.dst);
                }
            }
        }
        if topo_order.len() != n {
            return Err(TopologyError::Cycle);
        }

        let mut reachable = vec![false; n];
        let mut frontier = Vec::new();
        for &e in &entries {
            reachable[e] = true;
            frontier.push(e);
        }
        while let Some(idx) = frontier.pop() {
            for edge in &self.edges[idx] {
                if !reachable[edge.dst] {
                    reachable[edge.dst] = true;
                    frontier.push(edge.dst);
                }
            }
        }
        if let Some(stranded) = (0..n).find(|&i| !reachable[i]) {
            return Err(TopologyError::Unreachable(
                self.specs[stranded].name().to_string(),
            ));
        }

        // Deduplicate shared stores so per-round memory accounting counts
        // each underlying store once.
        let mut stores: Vec<StateStore> = Vec::new();
        for store in self.specs.iter().map(|spec| spec.store()) {
            if stores
                .iter()
                .all(|s| s.instance_id() != store.instance_id())
            {
                stores.push(store.clone());
            }
        }

        let names: Vec<String> = self.specs.iter().map(|s| s.name().to_string()).collect();
        // Edge observability rows: the implicit input feeds first (one row
        // per entry), then every routed edge in (source, insertion-order)
        // order.
        let mut edge_labels: Vec<(String, String)> = entries
            .iter()
            .map(|&e| ("(input)".to_string(), names[e].clone()))
            .collect();
        for (src, edges) in self.edges.iter().enumerate() {
            for edge in edges {
                edge_labels.push((names[src].clone(), names[edge.dst].clone()));
            }
        }
        let edge_waits: Vec<Arc<AtomicU64>> = (0..edge_labels.len())
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();

        let total_instances = self.parallelism.iter().sum();
        let specs = self.specs.into_iter().zip(self.parallelism);
        let nodes: Vec<NodeParts> = specs.map(|(spec, p)| spec.instantiate(p)).collect();
        // In dispatch mode the smallest entry interval defines the round
        // size, so no entry's punctuation is ever exceeded by a round.
        let entry_punctuation = entries
            .iter()
            .map(|&e| nodes[e].instances[0].punctuation_interval())
            .min()
            .expect("at least one entry");
        let driver = launch(
            Plan {
                nodes,
                edges: self.edges,
                topo_order,
                single_cut: dispatch.is_none(),
                entries: entries.clone(),
                terminal,
                edge_waits: edge_waits.clone(),
            },
            &config,
        );
        Ok(Topology {
            names,
            entry_indices: entries,
            dispatch,
            terminal_index: terminal,
            entry_punctuation,
            session: Session::new(stores, edge_labels, edge_waits, total_instances),
            driver,
        })
    }
}
