//! The long-running server: TCP event ingress over a two-operator dataflow.
//!
//! `morphstream serve` runs the Streaming Ledger workload as a
//! `ledger → audit` [`Topology`]: the entry operator executes the
//! deposits/transfers, and a downstream `audit` operator tallies commit
//! outcomes into its own table (its per-event cost is the configurable
//! "slow terminal operator" of the back-pressure story). The engine sits in
//! a [`DurableEngine`] — on the `--data-dir` directory, or on none — and
//! [`DurableEngine::ingest`] is the one way in: each accepted connection
//! decodes chunks of events through a [`SocketEventSource`] and ingests them
//! under the engine lock, so the back-pressure chain extends to the socket:
//! a slow operator fills the bounded inter-operator channel, the blocked
//! ingest holds the lock, the handler stops reading, the kernel socket
//! buffer fills, and TCP flow control throttles the client. Memory stays
//! bounded to one punctuation interval plus the channel capacity.
//!
//! Sessions rotate after a configurable number of events so the in-engine
//! [`RunReport`](morphstream::RunReport) never grows without bound; each
//! finished session's [`ReportSnapshot`] folds into the lifetime totals the
//! `/metrics` endpoint serves (see [`crate::metrics`]).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use morphstream::storage::StateStore;
use morphstream::{
    udfs, EngineConfig, EventSource, OutputDigest, ReportSnapshot, StreamApp, Topology,
    TopologyBuilder, TopologyConfig, TxnBuilder, TxnEngine, TxnOutcome, WorkloadConfig,
};
use morphstream_common::hash::Fnv1a;
pub use morphstream_durability::Recovery as RecoveryReport;
use morphstream_durability::{DurableEngine, FsyncPolicy};
use morphstream_replication::{AckMode, Promoted, ReplicationSender, SenderOptions};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::codec::SocketEventSource;
use crate::metrics::{render_prometheus, ServerMetrics};

/// Events decoded per engine-lock acquisition; small enough to interleave
/// connections fairly, large enough to amortise the lock.
const INGEST_CHUNK: usize = 256;

/// Poll interval of the accept loop and the idle tick of quiet connections.
const POLL: Duration = Duration::from_millis(50);

/// Everything `morphstream serve` needs to come up. [`Default`] binds
/// ephemeral ports (for tests); the CLI fills in real addresses and knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Event listener address (TCP; binary or JSON-lines per connection).
    pub event_addr: String,
    /// Metrics listener address (HTTP; `/metrics` and `/healthz`).
    pub metrics_addr: String,
    /// Workload shape of the served Streaming Ledger application
    /// (key space, UDF cost, punctuation interval).
    pub workload: WorkloadConfig,
    /// Serve a declarative TOML scenario instead of the builtin
    /// `ledger → audit` dataflow. The file must declare exactly one entry
    /// stage; wire events enter there and terminal outputs are digested.
    pub topology: Option<std::path::PathBuf>,
    /// Worker threads per operator.
    pub threads: usize,
    /// Per-edge bounded channel capacity, in punctuation batches.
    pub channel_capacity: usize,
    /// Run the topology's threaded driver instead of the inline one.
    pub concurrent: bool,
    /// Per-event cost of the downstream `audit` operator, in microseconds —
    /// raise it to demonstrate back-pressure end to end.
    pub audit_cost_us: u64,
    /// Rotate the engine session after this many ingested events, folding
    /// its report into the lifetime totals (0 = never rotate). The default,
    /// 10M, keeps the in-engine report bounded on an unbounded stream.
    pub session_events: u64,
    /// Durable data directory (checkpoints + write-ahead log). `None`
    /// keeps nothing on disk.
    pub data_dir: Option<std::path::PathBuf>,
    /// Events between checkpoints when durability is on
    /// (0 = checkpoint only at recovery and shutdown).
    pub checkpoint_interval: u64,
    /// When the write-ahead log fsyncs.
    pub fsync: FsyncPolicy,
    /// Superseded checkpoints to keep on disk as history (0 = prune each as
    /// soon as its successor's manifest is published). Recovery only ever
    /// loads the newest checkpoint.
    pub checkpoint_retain: usize,
    /// Ship the WAL to a standby at this replication address (requires
    /// `data_dir`; the WAL files are the replication source of truth).
    pub replicate_to: Option<String>,
    /// Whether ingest waits for standby acknowledgements.
    pub ack: AckMode,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            event_addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            workload: WorkloadConfig::streaming_ledger(),
            topology: None,
            threads: 2,
            channel_capacity: 2,
            concurrent: false,
            audit_cost_us: 0,
            session_events: 10_000_000,
            data_dir: None,
            checkpoint_interval: 100_000,
            fsync: FsyncPolicy::Interval,
            checkpoint_retain: 0,
            replicate_to: None,
            ack: AckMode::Async,
        }
    }
}

/// The downstream operator: tallies commit outcomes (key 0 = aborted,
/// key 1 = committed) into its own `outcomes` table, at a configurable
/// per-event cost. Deliberately trivial — its role is to be the *terminal*
/// of the dataflow, slow on demand, so back-pressure has somewhere to start.
pub struct AuditApp {
    outcomes: morphstream_common::TableId,
    cost_us: u64,
}

impl AuditApp {
    /// Create the app and its `outcomes` table on `store`.
    pub fn new(store: &StateStore, cost_us: u64) -> Self {
        Self {
            outcomes: store.create_table("outcomes", 0, true),
            cost_us,
        }
    }
}

impl StreamApp for AuditApp {
    type Event = u64;
    type Output = u64;

    fn state_access(&self, outcome: &u64, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        txn.write(self.outcomes, (*outcome != 0) as u64, udfs::add_delta(1));
    }

    fn post_process(&self, outcome: &u64, _result: &TxnOutcome) -> u64 {
        *outcome
    }
}

/// The engine `morphstream serve` runs.
pub type ServeEngine = Topology<SlEvent, u64>;

/// Build the served dataflow with the stores returned so callers can digest
/// final state: the builtin `ledger → audit` chain, or — when
/// [`ServeOptions::topology`] names a scenario file — the TOML-declared
/// dataflow from the loader (whose stages all share one store, returned as
/// both digest positions). Shared by the server and the reference
/// (`push_iter`) runs the equivalence tests compare against.
pub fn build_topology(opts: &ServeOptions) -> io::Result<(ServeEngine, StateStore, StateStore)> {
    if let Some(path) = opts.topology.as_deref() {
        let scenario = morphstream_dataflow::load_serve_file(path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        return Ok((scenario.topology, scenario.store.clone(), scenario.store));
    }
    let ledger_store = StateStore::new();
    let audit_store = StateStore::new();
    let engine_config = EngineConfig::with_threads(opts.threads)
        .with_punctuation_interval(opts.workload.txns_per_batch);
    let mut builder = TopologyBuilder::new();
    let ledger = builder.add_operator(
        "ledger",
        StreamingLedgerApp::new(&ledger_store, &opts.workload),
        ledger_store.clone(),
        engine_config,
    );
    let audit = builder.add_operator(
        "audit",
        AuditApp::new(&audit_store, opts.audit_cost_us),
        audit_store.clone(),
        engine_config,
    );
    builder.connect(
        ledger,
        audit,
        morphstream::Route::map(|committed: &bool| *committed as u64),
    );
    let topology = builder
        .build(
            ledger,
            audit,
            TopologyConfig::default()
                .with_channel_capacity(opts.channel_capacity)
                .with_concurrent(opts.concurrent),
        )
        .expect("ledger -> audit is a valid dataflow");
    Ok((topology, ledger_store, audit_store))
}

/// Final accounting returned by [`Server::shutdown`] (and by
/// [`reference_run`], so a TCP-fed run and a `push_iter` run are directly
/// comparable).
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// Lifetime totals: every rotated session plus the final one, folded.
    pub snapshot: ReportSnapshot,
    /// Digest of the ledger operator's final state (the accounts table).
    pub ledger_digest: u64,
    /// Digest of the audit operator's final state (the outcomes table).
    pub audit_digest: u64,
    /// Order-sensitive digest of every output the topology emitted.
    pub output_digest: u64,
    /// Connections accepted (0 for a reference run).
    pub connections: u64,
    /// Wire frames decoded (0 for a reference run).
    pub frames: u64,
    /// Connections closed by a protocol error.
    pub decode_errors: u64,
}

/// Shared state between the accept loop, connection handlers, the metrics
/// responder, and the shutdown path.
struct Shared {
    /// The served engine. One lock: WAL appends and pushes must interleave
    /// in the same order, and a checkpoint is a consistent cut only while
    /// no push is in flight.
    engine: Mutex<DurableEngine<ServeEngine>>,
    metrics: ServerMetrics,
    /// The replication shipping thread, when `--replicate-to` is set. Lives
    /// outside the engine lock: it tails the WAL *files*, so ingest only
    /// nudges it (and, in sync mode, waits for acks) after releasing the
    /// lock.
    sender: Option<ReplicationSender>,
    stop: AtomicBool,
    session_events: u64,
    ingested_since_rotate: AtomicU64,
    /// Events pushed into the engine over the server's lifetime; incremented
    /// after each chunk's pushes complete, so once it reaches a client's send
    /// count a subsequent `flush`/`finish` is guaranteed to cover the stream.
    pushed: AtomicU64,
}

/// A running server; shut it down with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    event_addr: SocketAddr,
    metrics_addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    metrics_thread: JoinHandle<()>,
    ledger_store: StateStore,
    audit_store: StateStore,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Bind both listeners and start accepting. Events flow as soon as this
    /// returns. With a `data_dir`, prior state is recovered first
    /// ([`DurableEngine::open`]) — before the listeners come up.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let (engine, ledger_store, audit_store) = build_topology(&opts)?;
        // Outputs stream into the durable engine's digesting sink instead of
        // accumulating in the report, so a long-lived server retains no
        // per-event data; the digest doubles as the equivalence witness.
        let (durable, recovery) = DurableEngine::open(
            opts.data_dir.as_deref(),
            engine,
            opts.fsync,
            opts.checkpoint_interval,
            opts.checkpoint_retain,
            opts.workload.txns_per_batch as u64,
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        Self::launch(opts, durable, ledger_store, audit_store, recovery)
    }

    /// Start serving on a standby's warm, promoted engine: no topology
    /// build, no recovery pass — the [`DurableEngine`] arrives positioned
    /// at the replicated index and keeps extending the output digest the
    /// standby accumulated.
    pub fn start_promoted(opts: ServeOptions, promoted: Promoted) -> io::Result<Server> {
        let Promoted {
            mut durable,
            stores,
        } = promoted;
        let ledger_store = stores
            .first()
            .cloned()
            .ok_or_else(|| io::Error::other("promoted engine has no state stores"))?;
        let audit_store = stores
            .get(1)
            .cloned()
            .unwrap_or_else(|| ledger_store.clone());
        durable.set_punctuation(opts.workload.txns_per_batch as u64);
        Self::launch(opts, durable, ledger_store, audit_store, None)
    }

    /// Common tail of [`Server::start`] and [`Server::start_promoted`]:
    /// start replication shipping (when configured), bind both listeners,
    /// and spawn the accept + metrics threads.
    fn launch(
        opts: ServeOptions,
        durable: DurableEngine<ServeEngine>,
        ledger_store: StateStore,
        audit_store: StateStore,
        recovery: Option<RecoveryReport>,
    ) -> io::Result<Server> {
        let metrics = ServerMetrics::new();
        if let Some(recovery) = recovery.as_ref() {
            metrics.durability.record_recovery(recovery.replayed_events);
        }
        if opts.data_dir.is_some() {
            metrics.durability.enable();
        }
        metrics.mirror_durable(durable.stats());
        let sender = match opts.replicate_to.as_ref() {
            Some(target) => {
                let dir = opts.data_dir.as_deref().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "--replicate-to requires --data-dir (the WAL is what ships)",
                    )
                })?;
                let sender = ReplicationSender::start(
                    SenderOptions {
                        target: target.clone(),
                        wal_dir: dir.join("wal"),
                        checkpoint_dir: dir.join("checkpoints"),
                        punctuation: opts.workload.txns_per_batch as u64,
                        ack: opts.ack,
                    },
                    durable.next_index(),
                );
                metrics.set_replication(sender.stats());
                Some(sender)
            }
            None => None,
        };

        let event_listener = TcpListener::bind(&opts.event_addr)?;
        let event_addr = event_listener.local_addr()?;
        event_listener.set_nonblocking(true)?;
        let (metrics_listener, metrics_addr) = crate::metrics::bind(&opts.metrics_addr)?;

        let shared = Arc::new(Shared {
            engine: Mutex::new(durable),
            metrics,
            sender,
            stop: AtomicBool::new(false),
            session_events: opts.session_events,
            ingested_since_rotate: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("morphstream-accept".into())
            .spawn(move || accept_loop(event_listener, accept_shared))
            .expect("spawn accept loop");

        let http_shared = Arc::clone(&shared);
        let metrics_thread = thread::Builder::new()
            .name("morphstream-metrics".into())
            .spawn(move || {
                let running = {
                    let shared = Arc::clone(&http_shared);
                    move || !shared.stop.load(Ordering::SeqCst)
                };
                let scrape_body = move || scrape(&http_shared);
                crate::metrics::serve_http(metrics_listener, running, scrape_body);
            })
            .expect("spawn metrics responder");

        Ok(Server {
            shared,
            event_addr,
            metrics_addr,
            accept_thread,
            metrics_thread,
            ledger_store,
            audit_store,
            recovery,
        })
    }

    /// What startup recovery did, when the data directory held prior state.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Address the event listener actually bound (resolves port 0).
    pub fn event_addr(&self) -> SocketAddr {
        self.event_addr
    }

    /// Address the metrics listener actually bound.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Ask the server to stop without waiting; [`Server::shutdown`] joins.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Events pushed into the engine over the server's lifetime. A client
    /// that sent `n` events and half-closed can poll this to `n` before
    /// [`Server::shutdown`] to guarantee the summary accounts for all of
    /// them (shutdown stops *accepting*, it does not wait for connections
    /// that are still in the kernel's accept backlog).
    pub fn events_ingested(&self) -> u64 {
        self.shared.pushed.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let every connection handler
    /// finish its in-flight chunk, take a final checkpoint (with a data
    /// directory) so a clean restart replays nothing, then drain buffered punctuations
    /// (`flush` + `finish`) so nothing pushed before the stop is lost, and
    /// return the lifetime summary.
    pub fn shutdown(self) -> ServerSummary {
        self.request_stop();
        self.accept_thread.join().expect("accept loop panicked");
        self.metrics_thread
            .join()
            .expect("metrics responder panicked");
        let (final_snapshot, tip, output_digest) = {
            let mut durable = self.shared.engine.lock().expect("engine lock");
            if let Err(e) = durable.checkpoint_now() {
                eprintln!("morphstream serve: final checkpoint failed: {e}");
            }
            self.shared.metrics.mirror_durable(durable.stats());
            let snapshot = durable.finish_session().snapshot();
            (snapshot, durable.next_index(), durable.output_digest())
        };
        if let Some(sender) = self.shared.sender.as_ref() {
            // Best-effort drain: give the standby a bounded window to
            // acknowledge everything this server logged (the final
            // checkpoint above covers the tip, so even a late-joining
            // standby can be bootstrapped to it).
            sender.notify(tip);
            let deadline = Instant::now() + Duration::from_secs(5);
            sender.wait_for_ack(tip, &|| Instant::now() >= deadline);
        }
        self.shared.metrics.fold_session(&final_snapshot);
        let snapshot = self
            .shared
            .metrics
            .total_with_live(&ReportSnapshot::default());
        ServerSummary {
            snapshot,
            ledger_digest: self.ledger_store.state_digest(),
            audit_digest: self.audit_store.state_digest(),
            output_digest,
            connections: self.shared.metrics.connections.load(Ordering::Relaxed),
            frames: self.shared.metrics.frames.load(Ordering::Relaxed),
            decode_errors: self.shared.metrics.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// Live lifetime totals: the folded base plus the current session's report,
/// with live operator/edge rows spliced in (the session report only carries
/// rows at `finish`). Also refreshes the stale-scrape cache.
fn live_total(shared: &Shared, engine: &ServeEngine) -> ReportSnapshot {
    let mut live = engine.report().snapshot();
    let (operators, edges) = engine.live_rows();
    live.operators = operators;
    live.edges = edges;
    shared.metrics.total_with_live(&live)
}

/// Render the current lifetime metrics: a live engine snapshot when the
/// engine lock is free, else the last coherent one — a scrape never waits
/// behind the dataflow, and never serves more than one ingest chunk of
/// staleness, because the ingest path refreshes the fallback after every
/// chunk it pushes.
fn scrape(shared: &Shared) -> String {
    let total = match shared.engine.try_lock() {
        Ok(durable) => live_total(shared, durable.engine()),
        Err(_) => shared.metrics.cached_total(),
    };
    render_prometheus(&total, &shared.metrics)
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name(format!("morphstream-conn-{peer}"))
                    .spawn(move || handle_connection(stream, conn_shared))
                    .expect("spawn connection handler");
                handlers.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(e) => {
                eprintln!("morphstream serve: accept failed: {e}");
                thread::sleep(POLL);
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// One connection: decode chunks of events and ingest them through the
/// shared durable engine. The read timeout doubles as the idle tick (flush partial batches,
/// poll the stop flag) and as the guarantee that shutdown never waits on a
/// silent client.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut source: SocketEventSource<SlEvent> = SocketEventSource::new(stream);
    let mut buf: Vec<SlEvent> = Vec::with_capacity(INGEST_CHUNK);
    loop {
        let n = source.next_batch(INGEST_CHUNK, &mut buf);
        if n == 0 {
            if !source.is_open() || shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Quiet interval: process the trailing partial batch so a slow
            // trickle of events still commits without waiting for a full
            // punctuation. try_lock — another connection may be mid-push.
            if let Ok(mut durable) = shared.engine.try_lock() {
                durable.flush();
            }
            continue;
        }
        let (logged, tip) = {
            let mut durable = shared.engine.lock().expect("engine lock");
            let first = durable.next_index();
            if let Err(e) = durable.ingest(buf.drain(..)) {
                eprintln!("morphstream serve: WAL append failed, closing connection: {e}");
            }
            shared.metrics.mirror_durable(durable.stats());
            // Keep the scrape fallback current while the lock is held anyway.
            live_total(&shared, durable.engine());
            let tip = durable.next_index();
            (tip - first, tip)
        };
        shared.pushed.fetch_add(logged, Ordering::SeqCst);
        if let Some(sender) = shared.sender.as_ref() {
            // Nudge the shipping thread outside the engine lock; in sync
            // mode this connection's reads then wait for the standby's
            // acknowledgement — extending the back-pressure chain across
            // machines without ever stalling the engine itself.
            sender.notify(tip);
            if logged > 0 && sender.ack_mode() == AckMode::Sync {
                sender.wait_for_ack(tip, &|| shared.stop.load(Ordering::SeqCst));
            }
        }
        maybe_rotate_session(&shared, logged);
        if logged < n as u64 {
            // A WAL append failed mid-chunk: the unlogged remainder was
            // dropped, so stop reading rather than ingest a gapped stream.
            break;
        }
    }
    if !source.is_open() {
        // The connection ended (EOF or protocol error): process its trailing
        // partial batch now, so a closed stream is fully reflected in state
        // and metrics without waiting for other traffic or shutdown.
        shared.engine.lock().expect("engine lock").flush();
    }
    shared
        .metrics
        .frames
        .fetch_add(source.frames(), Ordering::Relaxed);
    if let Some(e) = source.error() {
        shared.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!("morphstream serve: connection closed by protocol error: {e}");
    }
}

/// Fold the current session into the lifetime totals once enough events have
/// flowed, bounding in-engine report memory on an unbounded stream.
fn maybe_rotate_session(shared: &Shared, just_ingested: u64) {
    if shared.session_events == 0 {
        return;
    }
    let total = shared
        .ingested_since_rotate
        .fetch_add(just_ingested, Ordering::Relaxed)
        + just_ingested;
    if total < shared.session_events {
        return;
    }
    let mut durable = shared.engine.lock().expect("engine lock");
    // Re-check under the lock: another handler may have rotated already.
    if shared.ingested_since_rotate.load(Ordering::Relaxed) < shared.session_events {
        return;
    }
    shared.ingested_since_rotate.store(0, Ordering::Relaxed);
    let snapshot = durable.finish_session().snapshot();
    shared.metrics.fold_session(&snapshot);
}

/// Feed `events` to the same dataflow [`Server::start`] runs, via
/// [`Pipeline::push_iter`](morphstream::Pipeline::push_iter), and summarise
/// identically — the reference side of the TCP-vs-local digest-equivalence
/// guarantee.
pub fn reference_run(opts: &ServeOptions, events: Vec<SlEvent>) -> io::Result<ServerSummary> {
    let (mut engine, ledger_store, audit_store) = build_topology(opts)?;
    let output_digest = OutputDigest::install(&mut engine, Fnv1a::new());
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(events);
    let snapshot = pipeline.finish().snapshot();
    Ok(ServerSummary {
        snapshot,
        ledger_digest: ledger_store.state_digest(),
        audit_digest: audit_store.state_digest(),
        output_digest: output_digest.finish(),
        connections: 0,
        frames: 0,
        decode_errors: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_rotate_the_session_every_ten_million_events() {
        assert_eq!(ServeOptions::default().session_events, 10_000_000);
    }
}
