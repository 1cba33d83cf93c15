//! The long-running server: TCP event ingress over a two-operator dataflow.
//!
//! `morphstream serve` runs the Streaming Ledger workload as a
//! `ledger → audit` [`Topology`]: the entry operator executes the
//! deposits/transfers, and a downstream `audit` operator tallies commit
//! outcomes into its own table (its per-event cost is the configurable
//! "slow terminal operator" of the back-pressure story). One engine thread
//! owns the [`DurableEngine`] (on the `--data-dir` directory, or on none);
//! [`DurableEngine::ingest`] is the one way in. Each connection decodes
//! chunks of events through a [`SocketEventSource`] and hands them over one
//! bounded channel, one in flight: it decodes the next while the engine
//! ingests the current one, and hands it over after the current one's reply.
//! So back-pressure reaches the socket: a slow operator fills the bounded
//! inter-operator channel, the blocked ingest holds back the reply, the
//! handler stops reading, and TCP flow control throttles the client.
//!
//! The engine thread is the one place that sees every arrival in order: it
//! counts what it ingested, publishes the totals `/metrics` serves (see
//! [`crate::metrics`]), flushes the partial batch once the stream goes quiet,
//! and rotates the session after a configurable number of events, folding
//! its [`ReportSnapshot`] into the lifetime totals, so the in-engine
//! [`RunReport`](morphstream::RunReport) stays bounded.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
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

/// Events a connection decodes into one chunk for the engine thread: one
/// `ingest` call and one WAL write. Small enough to interleave connections
/// fairly, large enough to amortise the hand-over.
const INGEST_CHUNK: usize = 256;

/// Chunks that may wait for the engine thread; a connection that finds the
/// channel full blocks, and stops reading its socket.
const HANDOFF_CHUNKS: usize = 4;

/// Poll interval of the accept loop and of quiet connections' reads (they
/// check the stop flag), and how long the engine thread waits for a chunk
/// before it flushes the partial batch.
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

/// State the engine thread, the connection handlers, the metrics responder
/// and shutdown share. The engine is not in it: the engine thread owns it.
struct Shared {
    metrics: ServerMetrics,
    /// The WAL shipping thread (`--replicate-to`): the engine thread nudges
    /// it after each chunk; in sync mode the chunk's connection waits for it.
    sender: Option<ReplicationSender>,
    stop: AtomicBool,
    /// What [`Server::events_ingested`] reads; only the engine thread adds.
    ingested: AtomicU64,
}

/// A decoded chunk on its way to the engine thread, with where its reply
/// goes: the WAL tip after the chunk, or `None` if the log refused it.
type Chunk = (Vec<SlEvent>, mpsc::Sender<Option<u64>>);

/// A running server; shut it down with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    event_addr: SocketAddr,
    metrics_addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    metrics_thread: JoinHandle<()>,
    engine_thread: JoinHandle<ServerSummary>,
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
    /// and spawn the engine, accept and metrics threads.
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
            metrics,
            sender,
            stop: AtomicBool::new(false),
            ingested: AtomicU64::new(0),
        });

        let (chunks, inbox) = mpsc::sync_channel(HANDOFF_CHUNKS);
        let on_engine = Arc::clone(&shared);
        let stores = [ledger_store, audit_store];
        let engine_thread = spawn("morphstream-engine".into(), move || {
            run_engine(durable, inbox, &on_engine, opts.session_events, stores)
        });
        let on_accept = Arc::clone(&shared);
        let accept_thread = spawn("morphstream-accept".into(), move || {
            accept_loop(event_listener, &on_accept, chunks)
        });
        let on_http = Arc::clone(&shared);
        let metrics_thread = spawn("morphstream-metrics".into(), move || {
            let (stop, metrics) = (&on_http.stop, &on_http.metrics);
            crate::metrics::serve_http(
                metrics_listener,
                || !stop.load(Ordering::SeqCst),
                || render_prometheus(&metrics.published_total(), metrics),
            );
        });

        Ok(Server {
            shared,
            event_addr,
            metrics_addr,
            accept_thread,
            metrics_thread,
            engine_thread,
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

    /// Events the engine thread ingested over the server's lifetime. It moves
    /// only after [`DurableEngine::ingest`] returns, before the chunk's
    /// connection hears back, so it covers the stream of a client that
    /// half-closed and read its socket to EOF. [`Server::shutdown`] stops
    /// *accepting*: a client that does not read to EOF polls this first.
    pub fn events_ingested(&self) -> u64 {
        self.shared.ingested.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting and let every connection settle its
    /// in-flight chunk. The engine thread, its last sender gone, then takes
    /// a final checkpoint (so a clean restart replays nothing), drains the
    /// buffered punctuations (`flush` + `finish`) and returns the summary.
    pub fn shutdown(self) -> ServerSummary {
        self.request_stop();
        self.accept_thread.join().expect("accept loop panicked");
        self.metrics_thread.join().expect("metrics thread panicked");
        self.engine_thread.join().expect("engine thread panicked")
    }
}

/// The engine thread: ingest each chunk in arrival order until every
/// sender is gone, then checkpoint, finish the session and summarise. A
/// quiet [`POLL`] flushes the partial batch, but only if a chunk arrived
/// since the last flush: an idle server does nothing.
fn run_engine(
    mut durable: DurableEngine<ServeEngine>,
    inbox: mpsc::Receiver<Chunk>,
    shared: &Shared,
    session_events: u64,
    [ledger_store, audit_store]: [StateStore; 2],
) -> ServerSummary {
    let mut base = ReportSnapshot::default();
    let mut since_rotate = 0;
    let mut unflushed = false;
    publish(&shared.metrics, &base, durable.engine());
    loop {
        let (events, reply) = match inbox.recv_timeout(POLL) {
            Ok(chunk) => chunk,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if unflushed {
                    durable.flush();
                    publish(&shared.metrics, &base, durable.engine());
                    unflushed = false;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let first = durable.next_index();
        let logged = durable.ingest(events).map_err(|e| {
            eprintln!("morphstream serve: WAL append failed, closing connection: {e}");
        });
        let tip = durable.next_index();
        shared.ingested.fetch_add(tip - first, Ordering::SeqCst);
        shared.metrics.mirror_durable(durable.stats());
        publish(&shared.metrics, &base, durable.engine());
        let _ = reply.send(logged.is_ok().then_some(tip));
        if let Some(sender) = shared.sender.as_ref() {
            sender.notify(tip);
        }
        // Fold the session into the lifetime totals once enough events have
        // flowed, bounding in-engine report memory on an unbounded stream.
        since_rotate += tip - first;
        if session_events > 0 && since_rotate >= session_events {
            since_rotate = 0;
            base.fold(&durable.finish_session().snapshot());
        }
        unflushed = true;
    }
    if let Err(e) = durable.checkpoint_now() {
        eprintln!("morphstream serve: final checkpoint failed: {e}");
    }
    base.fold(&durable.finish_session().snapshot());
    let tip = durable.next_index();
    if let Some(sender) = shared.sender.as_ref() {
        // Best-effort drain: give the standby a bounded window to
        // acknowledge everything this server logged (the final checkpoint
        // covers the tip, so even a late-joining standby can be
        // bootstrapped to it).
        sender.notify(tip);
        let deadline = Instant::now() + Duration::from_secs(5);
        sender.wait_for_ack(tip, &|| Instant::now() >= deadline);
    }
    let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
    ServerSummary {
        snapshot: base,
        ledger_digest: ledger_store.state_digest(),
        audit_digest: audit_store.state_digest(),
        output_digest: durable.output_digest(),
        connections: counter(&shared.metrics.connections),
        frames: counter(&shared.metrics.frames),
        decode_errors: counter(&shared.metrics.decode_errors),
    }
}

/// Publish the lifetime totals: the folded sessions plus a live snapshot of
/// the current one, with its live operator/edge rows spliced in (the
/// session report only carries rows at `finish`).
fn publish(metrics: &ServerMetrics, base: &ReportSnapshot, engine: &ServeEngine) {
    let mut live = engine.report().snapshot();
    (live.operators, live.edges) = engine.live_rows();
    let mut total = base.clone();
    total.fold(&live);
    metrics.publish(total);
}

/// Spawn a named thread; failing to is fatal.
fn spawn<T: Send + 'static>(name: String, f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let builder = thread::Builder::new().name(name);
    builder.spawn(f).expect("spawn a server thread")
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, chunks: mpsc::SyncSender<Chunk>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let (shared, chunks) = (Arc::clone(shared), chunks.clone());
                handlers.push(spawn(format!("morphstream-conn-{peer}"), move || {
                    handle_connection(stream, &shared, &chunks)
                }));
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

/// One connection: decode chunks of events and hand them to the engine
/// thread, one in flight at a time — the next chunk is decoded while the
/// engine ingests the current one, and handed over only after the current
/// one's reply. The read timeout polls the stop flag, so shutdown never
/// waits on a silent client. The connection closes only after the reply to
/// its last chunk.
fn handle_connection(stream: TcpStream, shared: &Shared, chunks: &mpsc::SyncSender<Chunk>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut source: SocketEventSource<SlEvent> = SocketEventSource::new(stream);
    let (reply, replies) = mpsc::channel();
    let mut buf: Vec<SlEvent> = Vec::with_capacity(INGEST_CHUNK);
    let mut in_flight = false;
    loop {
        let n = source.next_batch(INGEST_CHUNK, &mut buf);
        if std::mem::take(&mut in_flight) && !settle(&replies, shared) {
            // The WAL refused the chunk: a chunk is logged whole or not at
            // all, so none of it was logged or pushed. Stop reading rather
            // than ingest a gapped stream.
            break;
        }
        if n == 0 {
            if !source.is_open() || shared.stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        }
        let events = std::mem::replace(&mut buf, Vec::with_capacity(INGEST_CHUNK));
        if chunks.send((events, reply.clone())).is_err() {
            break;
        }
        in_flight = true;
    }
    let counters = &shared.metrics;
    counters
        .frames
        .fetch_add(source.frames(), Ordering::Relaxed);
    if let Some(e) = source.error() {
        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!("morphstream serve: connection closed by protocol error: {e}");
    }
}

/// Wait for the reply to a connection's in-flight chunk and, in sync-ack
/// mode, for the standby's acknowledgement of its tip — outside the engine,
/// so the engine never stalls on the standby. False when the WAL refused
/// the chunk.
fn settle(replies: &mpsc::Receiver<Option<u64>>, shared: &Shared) -> bool {
    let Ok(Some(tip)) = replies.recv() else {
        return false;
    };
    let sender = shared.sender.as_ref();
    if let Some(sender) = sender.filter(|s| s.ack_mode() == AckMode::Sync) {
        sender.wait_for_ack(tip, &|| shared.stop.load(Ordering::SeqCst));
    }
    true
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
    use crate::codec::{encode_event, write_preamble};

    #[test]
    fn default_options_rotate_the_session_every_ten_million_events() {
        assert_eq!(ServeOptions::default().session_events, 10_000_000);
    }

    /// The WAL refuses one chunk: its open segment is swapped for a
    /// read-only handle, and the append after the refused one heals it. The
    /// connection that sent the chunk hears the refusal and stops reading,
    /// so its next chunk is never handed over; neither chunk is counted;
    /// and another connection's chunk is still ingested.
    #[test]
    fn a_refused_chunk_stops_its_connection_and_no_other() {
        use morphstream_common::protocol::WireFormat;
        use std::io::Write;

        let dir = std::env::temp_dir().join(format!("morph-serve-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = ServeOptions::default();
        opts.workload = opts
            .workload
            .with_key_space(10_000)
            .with_txns_per_batch(100);
        opts.workload.udf_complexity_us = 0;
        let events = StreamingLedgerApp::generate(&opts.workload, 4 * INGEST_CHUNK, 0.5);
        let (topology, ledger, audit) = build_topology(&opts).expect("topology");
        let (mut durable, _) =
            DurableEngine::open(Some(&dir), topology, FsyncPolicy::Never, 0, 0, 100)
                .expect("open the data directory");
        // One event opens a segment; a read-only handle then takes its place.
        durable
            .ingest(events[..1].iter().cloned())
            .expect("first append");
        let segment = dir.join("wal").join(format!("seg-{:020}.msw", 0));
        let read_only = std::fs::File::open(&segment).expect("open the segment");
        let real = durable.wal_mut().swap_segment(read_only);
        assert!(real.is_some(), "a segment is open");

        let shared = Arc::new(Shared {
            metrics: ServerMetrics::new(),
            sender: None,
            stop: AtomicBool::new(false),
            ingested: AtomicU64::new(0),
        });
        let (chunks, inbox) = mpsc::sync_channel(HANDOFF_CHUNKS);
        let on_engine = Arc::clone(&shared);
        let engine =
            thread::spawn(move || run_engine(durable, inbox, &on_engine, 0, [ledger, audit]));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let connect = |stream: &[SlEvent]| {
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let (mut wire, mut scratch) = (Vec::new(), Vec::new());
            write_preamble(WireFormat::Binary, &mut wire);
            for event in stream {
                encode_event(event, WireFormat::Binary, &mut scratch, &mut wire).unwrap();
            }
            client.write_all(&wire).expect("send");
            let (conn, _) = listener.accept().expect("accept");
            let (shared, chunks) = (Arc::clone(&shared), chunks.clone());
            let handler = thread::spawn(move || handle_connection(conn, &shared, &chunks));
            (client, handler)
        };

        // Three chunks on a connection that stays open: only the refusal
        // ends its handler.
        let (_open, refused) = connect(&events[1..1 + 3 * INGEST_CHUNK]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !refused.is_finished() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let kept_reading = !refused.is_finished();
        shared.stop.store(kept_reading, Ordering::SeqCst);
        refused.join().expect("handler");
        assert!(!kept_reading, "the refused connection kept reading");
        assert_eq!(
            shared.ingested.load(Ordering::SeqCst),
            0,
            "a refused chunk is not counted"
        );

        let accepted = &events[1 + 3 * INGEST_CHUNK..];
        let (client, handler) = connect(accepted);
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        handler.join().expect("handler");
        assert_eq!(
            shared.ingested.load(Ordering::SeqCst),
            accepted.len() as u64
        );

        drop(chunks);
        let summary = engine.join().expect("engine thread");
        let mut logged = vec![events[0].clone()];
        logged.extend_from_slice(accepted);
        let expected = reference_run(&opts, logged).expect("reference run");
        assert_eq!(summary.snapshot.events, expected.snapshot.events);
        assert_eq!(summary.ledger_digest, expected.ledger_digest);
        assert_eq!(summary.output_digest, expected.output_digest);
        drop(real);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
