//! The long-running server: TCP event ingress over a two-operator dataflow.
//!
//! `morphstream serve` runs the Streaming Ledger workload as a
//! `ledger → audit` [`Topology`]: the entry operator executes the
//! deposits/transfers, and a downstream `audit` operator tallies commit
//! outcomes into its own table (its per-event cost is the configurable
//! "slow terminal operator" of the back-pressure story). Each accepted
//! connection decodes events through a [`SocketEventSource`] and pushes them
//! through [`Pipeline::push`](morphstream::Pipeline::push), so the PR 5
//! back-pressure chain extends to the socket: a slow operator fills the
//! bounded inter-operator channel, the blocked push holds the ingestion
//! lock, the handler stops reading, the kernel socket buffer fills, and TCP
//! flow control throttles the client. Memory stays bounded to one
//! punctuation interval plus the channel capacity.
//!
//! Sessions rotate after a configurable number of events so the in-engine
//! [`RunReport`](morphstream::RunReport) never grows without bound; each
//! finished session's [`ReportSnapshot`] folds into the lifetime totals the
//! `/metrics` endpoint serves (see [`crate::metrics`]).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use morphstream::storage::StateStore;
use morphstream::{
    udfs, EngineConfig, EventSource, FnSink, Pipeline, ReportSnapshot, StreamApp, Topology,
    TopologyBuilder, TopologyConfig, TxnBuilder, TxnEngine, TxnOutcome, WorkloadConfig,
};
use morphstream_common::hash::Fnv1a;
use morphstream_common::json::JsonObject;
use morphstream_durability::{
    read_wal, repair_torn_tail, CheckpointBuilder, CheckpointStore, DurabilityError, FsyncPolicy,
    RedirtySink, WalLog, WalState,
};
use morphstream_replication::{AckMode, Promoted, ReplicationSender, SenderOptions};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::codec::SocketEventSource;
use crate::metrics::{render_prometheus, ServerMetrics};

/// Events decoded per engine-lock acquisition; small enough to interleave
/// connections fairly, large enough to amortise the lock.
const INGEST_CHUNK: usize = 256;

/// Poll interval of the accept loop and the idle tick of quiet connections.
const POLL: Duration = Duration::from_millis(50);

/// Ingest chunks between scrape-cache refreshes (~4k events): under sustained
/// back-pressure the engine lock is almost never free at scrape time, so the
/// ingest path itself keeps the fallback totals fresh.
const CACHE_REFRESH_CHUNKS: u64 = 16;

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
    /// its report into the lifetime totals (0 = never rotate).
    pub session_events: u64,
    /// Durable data directory (checkpoints + write-ahead log). `None`
    /// disables durability entirely.
    pub data_dir: Option<std::path::PathBuf>,
    /// Events between incremental checkpoints when durability is on
    /// (0 = checkpoint only at recovery and shutdown).
    pub checkpoint_interval: u64,
    /// When the write-ahead log fsyncs.
    pub fsync: FsyncPolicy,
    /// Superseded checkpoint chains to retain on disk (0 = prune each as
    /// soon as its successor's manifest is published).
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
            session_events: 0,
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

/// The engine plus its durability companion, guarded by one lock: WAL
/// appends and pipeline pushes must interleave in the same order, and a
/// checkpoint is a consistent cut only while no push is in flight.
struct EngineAndLog {
    engine: ServeEngine,
    durable: Option<Durable>,
}

/// The durable half of a serving engine: the write-ahead log events pass
/// through on their way in, and the checkpoint store that periodically
/// absorbs the log.
struct Durable {
    wal: WalLog,
    checkpoints: CheckpointStore,
    /// Events between incremental checkpoints (0 = never on interval).
    interval: u64,
    events_since_checkpoint: u64,
    /// Punctuation interval: WAL markers (and `Interval`-policy fsyncs)
    /// align with the engine's batch boundaries.
    punctuation: u64,
    events_since_marker: u64,
}

impl Durable {
    /// Per-chunk bookkeeping after `logged` events were appended + pushed:
    /// punctuation markers, interval checkpoints, scrape-visible counters.
    fn after_chunk(
        &mut self,
        logged: u64,
        engine: &mut ServeEngine,
        output_digest: &Mutex<Fnv1a>,
        metrics: &ServerMetrics,
    ) {
        self.events_since_marker += logged;
        if self.punctuation > 0 && self.events_since_marker >= self.punctuation {
            self.events_since_marker %= self.punctuation;
            if let Err(e) = self.wal.mark_punctuation() {
                eprintln!("morphstream serve: WAL punctuation marker failed: {e}");
            }
        }
        self.events_since_checkpoint += logged;
        if self.interval > 0 && self.events_since_checkpoint >= self.interval {
            self.checkpoint_now(engine, output_digest, metrics);
        }
        self.publish_wal_stats(metrics);
    }

    /// Take a checkpoint right now: flush the engine to a barrier, snapshot
    /// every table dirtied since the last checkpoint, publish atomically,
    /// then rotate the WAL and drop segments the checkpoint made obsolete.
    fn checkpoint_now(
        &mut self,
        engine: &mut ServeEngine,
        output_digest: &Mutex<Fnv1a>,
        metrics: &ServerMetrics,
    ) {
        self.events_since_checkpoint = 0;
        let started = Instant::now();
        let mut builder = CheckpointBuilder::new();
        TxnEngine::checkpoint(engine, &mut builder);
        // The flush above pushed every appended event through the topology,
        // so the digest state and the WAL index describe the same cut.
        let digest_state = output_digest.lock().expect("digest lock").finish();
        let events_applied = self.wal.next_index();
        let taken_dirty = builder.taken_dirty();
        let checkpoint = builder.build(self.checkpoints.next_id(), events_applied, digest_state);
        match self.checkpoints.save(&checkpoint) {
            Ok(saved) => {
                if let Err(e) = self
                    .wal
                    .rotate()
                    .and_then(|()| self.wal.truncate_before(events_applied).map(|_| ()))
                {
                    eprintln!("morphstream serve: WAL rotation failed: {e}");
                }
                metrics.durability.record_checkpoint(
                    saved.bytes,
                    started.elapsed(),
                    metrics.clock(),
                );
            }
            Err(e) => {
                eprintln!("morphstream serve: checkpoint failed: {e}");
                // The snapshot was never persisted, but the engine already
                // consumed the dirty flags: give them back so the next
                // checkpoint re-captures these tables, and leave the WAL
                // untruncated so replay still covers their writes.
                let mut redirty = RedirtySink::new(taken_dirty);
                TxnEngine::checkpoint(engine, &mut redirty);
            }
        }
        self.publish_wal_stats(metrics);
    }

    /// Mirror the WAL's cumulative totals into the scrape-visible atomics.
    fn publish_wal_stats(&self, metrics: &ServerMetrics) {
        metrics.durability.set_wal(
            self.wal.records_appended(),
            self.wal.bytes_appended(),
            self.wal.segment_count(),
            self.wal.next_index(),
        );
    }
}

/// What startup recovery found and did (present on [`Server`] when
/// `--data-dir` held prior state).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Id of the newest checkpoint restored, if any existed.
    pub checkpoint_id: Option<u64>,
    /// Events the restored checkpoint chain covered.
    pub events_applied: u64,
    /// WAL events replayed through the topology on top of the checkpoint.
    pub replayed_events: u64,
    /// Whether the last WAL segment ended in a torn record (dropped).
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// One JSON object, for startup log lines and smoke-test artifacts.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj = match self.checkpoint_id {
            Some(id) => obj.unsigned("checkpoint_id", id),
            None => obj.raw("checkpoint_id", "null"),
        };
        obj.unsigned("events_applied", self.events_applied)
            .unsigned("replayed_events", self.replayed_events)
            .boolean("torn_tail", self.torn_tail)
            .build()
    }
}

/// Shared state between the accept loop, connection handlers, the metrics
/// responder, and the shutdown path.
struct Shared {
    engine: Mutex<EngineAndLog>,
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
    /// Order-sensitive digest of every output the topology emitted; also
    /// the state checkpoints persist and restarts resume. Shared with the
    /// engine's output sink closure, hence the `Arc`.
    output_digest: Arc<Mutex<Fnv1a>>,
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
    /// returns. With a `data_dir`, prior state is recovered first — restore
    /// the latest checkpoint chain, replay the WAL tail, re-anchor with a
    /// fresh full checkpoint — before the listeners come up.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let (mut engine, ledger_store, audit_store) = build_topology(&opts)?;

        // Outputs stream into a digesting sink instead of accumulating in
        // the report, so a long-lived server retains no per-event data; the
        // digest doubles as the equivalence witness in tests. Installed
        // before recovery so replayed outputs are digested too.
        let output_digest = Arc::new(Mutex::new(Fnv1a::new()));
        let digest = Arc::clone(&output_digest);
        engine.set_output_sink(Some(Box::new(FnSink(move |out: u64| {
            digest
                .lock()
                .expect("digest lock")
                .update(&out.to_le_bytes());
        }))));

        let metrics = ServerMetrics::new();
        let (durable, recovery) = match opts.data_dir.as_deref() {
            Some(dir) => {
                metrics.durability.enable();
                let (durable, recovery) =
                    open_durability(dir, &opts, &mut engine, &output_digest, &metrics)?;
                (Some(durable), recovery)
            }
            None => (None, None),
        };
        Self::launch(
            opts,
            engine,
            ledger_store,
            audit_store,
            output_digest,
            metrics,
            durable,
            recovery,
        )
    }

    /// Start serving on a standby's warm, promoted engine: no topology
    /// build, no recovery pass — the engine, output digest, WAL, and
    /// checkpoint store arrive already positioned at the replicated index.
    /// The engine keeps its standby-installed output sink (it feeds the
    /// same digest accumulator [`Promoted::output_digest`] hands over).
    pub fn start_promoted(opts: ServeOptions, promoted: Promoted) -> io::Result<Server> {
        let Promoted {
            engine,
            stores,
            output_digest,
            wal,
            checkpoints,
            ..
        } = promoted;
        let ledger_store = stores
            .first()
            .cloned()
            .ok_or_else(|| io::Error::other("promoted engine has no state stores"))?;
        let audit_store = stores
            .get(1)
            .cloned()
            .unwrap_or_else(|| ledger_store.clone());
        let metrics = ServerMetrics::new();
        metrics.durability.enable();
        let durable = Durable {
            wal,
            checkpoints,
            interval: opts.checkpoint_interval,
            events_since_checkpoint: 0,
            punctuation: opts.workload.txns_per_batch as u64,
            events_since_marker: 0,
        };
        durable.publish_wal_stats(&metrics);
        Self::launch(
            opts,
            engine,
            ledger_store,
            audit_store,
            output_digest,
            metrics,
            Some(durable),
            None,
        )
    }

    /// Common tail of [`Server::start`] and [`Server::start_promoted`]:
    /// start replication shipping (when configured), bind both listeners,
    /// and spawn the accept + metrics threads.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        opts: ServeOptions,
        engine: ServeEngine,
        ledger_store: StateStore,
        audit_store: StateStore,
        output_digest: Arc<Mutex<Fnv1a>>,
        metrics: ServerMetrics,
        durable: Option<Durable>,
        recovery: Option<RecoveryReport>,
    ) -> io::Result<Server> {
        let sender = match opts.replicate_to.as_ref() {
            Some(target) => {
                let dir = opts.data_dir.as_deref().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "--replicate-to requires --data-dir (the WAL is what ships)",
                    )
                })?;
                let wal_next = durable.as_ref().map(|d| d.wal.next_index()).unwrap_or(0);
                let sender = ReplicationSender::start(
                    SenderOptions {
                        target: target.clone(),
                        wal_dir: dir.join("wal"),
                        checkpoint_dir: dir.join("checkpoints"),
                        punctuation: opts.workload.txns_per_batch as u64,
                        ack: opts.ack,
                    },
                    wal_next,
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
            engine: Mutex::new(EngineAndLog { engine, durable }),
            metrics,
            sender,
            stop: AtomicBool::new(false),
            session_events: opts.session_events,
            ingested_since_rotate: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            output_digest,
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

    /// True once a stop was requested (by [`Server::request_stop`] or a
    /// signal-driven caller flipping the same decision).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
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
    /// finish its in-flight chunk, take a final checkpoint (when durable)
    /// so a clean restart replays nothing, then drain buffered punctuations
    /// (`flush` + `finish`) so nothing pushed before the stop is lost, and
    /// return the lifetime summary.
    pub fn shutdown(self) -> ServerSummary {
        self.request_stop();
        self.accept_thread.join().expect("accept loop panicked");
        self.metrics_thread
            .join()
            .expect("metrics responder panicked");
        let (final_snapshot, wal_tip) = {
            let mut guard = self.shared.engine.lock().expect("engine lock");
            let state = &mut *guard;
            if let Some(durable) = state.durable.as_mut() {
                durable.checkpoint_now(
                    &mut state.engine,
                    &self.shared.output_digest,
                    &self.shared.metrics,
                );
            }
            state.engine.flush();
            let tip = state.durable.as_ref().map(|d| d.wal.next_index());
            (state.engine.finish().snapshot(), tip)
        };
        if let (Some(sender), Some(tip)) = (self.shared.sender.as_ref(), wal_tip) {
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
            output_digest: self
                .shared
                .output_digest
                .lock()
                .expect("digest lock")
                .finish(),
            connections: self.shared.metrics.connections.load(Ordering::Relaxed),
            frames: self.shared.metrics.frames.load(Ordering::Relaxed),
            decode_errors: self.shared.metrics.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// Open (or create) the durable data directory and recover prior state into
/// `engine`: restore the checkpoint chain, resume the output digest, replay
/// the WAL tail, then re-anchor with a fresh full checkpoint so a second
/// restart never replays the same tail again.
fn open_durability(
    dir: &Path,
    opts: &ServeOptions,
    engine: &mut ServeEngine,
    output_digest: &Mutex<Fnv1a>,
    metrics: &ServerMetrics,
) -> io::Result<(Durable, Option<RecoveryReport>)> {
    let to_io = |e: DurabilityError| io::Error::other(e.to_string());
    let checkpoints =
        CheckpointStore::open_with_retention(dir.join("checkpoints"), opts.checkpoint_retain)
            .map_err(to_io)?;
    let mut events_applied = 0u64;
    let mut checkpoint_id = None;
    if let Some(mut loaded) = checkpoints.load_chain().map_err(to_io)? {
        TxnEngine::restore(engine, &mut loaded.restore);
        *output_digest.lock().expect("digest lock") = Fnv1a::from_state(loaded.output_digest);
        events_applied = loaded.events_applied;
        checkpoint_id = Some(loaded.last_id);
    }
    let wal_dir = dir.join("wal");
    let wal_state: WalState<SlEvent> = read_wal(&wal_dir).map_err(to_io)?;
    if wal_state.torn_tail {
        // Seal the torn segment at its valid prefix now: the replay below
        // (plus the re-anchor checkpoint) covers its events, and once new
        // appends start a newer segment the torn one would otherwise read
        // as damage in a sealed segment on the next restart.
        repair_torn_tail::<SlEvent>(&wal_dir).map_err(to_io)?;
    }
    let next_index = wal_state
        .events
        .last()
        .map(|(index, _)| index + 1)
        .unwrap_or(events_applied)
        .max(events_applied);
    let torn_tail = wal_state.torn_tail;
    let tail = wal_state.replay_tail(events_applied);
    let replayed_events = tail.len() as u64;
    let recovered = checkpoint_id.is_some() || replayed_events > 0;
    if recovered {
        {
            let mut pipeline = Pipeline::new(engine);
            for (_, event) in tail {
                pipeline.push(event);
            }
        }
        engine.flush();
        metrics.durability.record_recovery(replayed_events);
    }
    let mut durable = Durable {
        wal: WalLog::open(&wal_dir, opts.fsync, next_index).map_err(to_io)?,
        checkpoints,
        interval: opts.checkpoint_interval,
        events_since_checkpoint: 0,
        punctuation: opts.workload.txns_per_batch as u64,
        events_since_marker: 0,
    };
    if recovered {
        durable.checkpoint_now(engine, output_digest, metrics);
    }
    durable.publish_wal_stats(metrics);
    let report = recovered.then_some(RecoveryReport {
        checkpoint_id,
        events_applied,
        replayed_events,
        torn_tail,
    });
    Ok((durable, report))
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

/// Render the current lifetime metrics, preferring a live engine snapshot
/// but falling back to the last coherent one when the engine lock is held by
/// a push blocked in back-pressure (a scrape must never wait behind the
/// dataflow; the ingest path refreshes the fallback every
/// [`CACHE_REFRESH_CHUNKS`] chunks).
fn scrape(shared: &Shared) -> String {
    for _ in 0..25 {
        if let Ok(state) = shared.engine.try_lock() {
            let total = live_total(shared, &state.engine);
            drop(state);
            return render_prometheus(&total, &shared.metrics);
        }
        thread::sleep(Duration::from_millis(4));
    }
    render_prometheus(&shared.metrics.cached_total(), &shared.metrics)
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

/// One connection: decode chunks of events and push them into the shared
/// engine. The read timeout doubles as the idle tick (flush partial batches,
/// poll the stop flag) and as the guarantee that shutdown never waits on a
/// silent client.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut source: SocketEventSource<SlEvent> = SocketEventSource::new(stream);
    let mut buf: Vec<SlEvent> = Vec::with_capacity(INGEST_CHUNK);
    let mut chunks = 0u64;
    loop {
        let n = source.next_batch(INGEST_CHUNK, &mut buf);
        if n == 0 {
            if !source.is_open() || shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Quiet interval: process the trailing partial batch so a slow
            // trickle of events still commits without waiting for a full
            // punctuation. try_lock — another connection may be mid-push.
            if let Ok(mut state) = shared.engine.try_lock() {
                state.engine.flush();
            }
            continue;
        }
        let (logged, wal_tip) = {
            let mut guard = shared.engine.lock().expect("engine lock");
            let state = &mut *guard;
            let mut logged = 0u64;
            {
                let mut pipeline = Pipeline::new(&mut state.engine);
                if let Some(durable) = state.durable.as_mut() {
                    // Durable ingestion: an event reaches the pipeline only
                    // after its WAL append succeeded, under the same lock
                    // acquisition, so the log is always a superset of what
                    // the engine has seen — in identical order.
                    for event in buf.drain(..) {
                        if let Err(e) = durable.wal.append_event(&event) {
                            eprintln!(
                                "morphstream serve: WAL append failed, closing connection: {e}"
                            );
                            break;
                        }
                        pipeline.push(event);
                        logged += 1;
                    }
                } else {
                    for event in buf.drain(..) {
                        pipeline.push(event);
                        logged += 1;
                    }
                }
            }
            if let Some(durable) = state.durable.as_mut() {
                durable.after_chunk(
                    logged,
                    &mut state.engine,
                    &shared.output_digest,
                    &shared.metrics,
                );
            }
            chunks += 1;
            if chunks.is_multiple_of(CACHE_REFRESH_CHUNKS) {
                live_total(&shared, &state.engine);
            }
            (logged, state.durable.as_ref().map(|d| d.wal.next_index()))
        };
        shared.pushed.fetch_add(logged, Ordering::SeqCst);
        if let (Some(sender), Some(tip)) = (shared.sender.as_ref(), wal_tip) {
            // Nudge the shipping thread outside the engine lock; in sync
            // mode this connection's reads then wait for the standby's
            // acknowledgement — extending the back-pressure chain across
            // machines without ever stalling the engine itself.
            sender.notify(tip);
            if logged > 0 && sender.ack_mode() == AckMode::Sync {
                sender.wait_for_ack(tip, &|| shared.stop.load(Ordering::SeqCst));
            }
        }
        source.ack(logged as usize);
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
        shared.engine.lock().expect("engine lock").engine.flush();
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
    let mut state = shared.engine.lock().expect("engine lock");
    // Re-check under the lock: another handler may have rotated already.
    if shared.ingested_since_rotate.load(Ordering::Relaxed) < shared.session_events {
        return;
    }
    shared.ingested_since_rotate.store(0, Ordering::Relaxed);
    state.engine.flush();
    let snapshot = state.engine.finish().snapshot();
    shared.metrics.fold_session(&snapshot);
}

/// Feed `events` to the same dataflow [`Server::start`] runs, via
/// [`Pipeline::push_iter`], and summarise identically — the reference side
/// of the TCP-vs-local digest-equivalence guarantee.
pub fn reference_run(opts: &ServeOptions, events: Vec<SlEvent>) -> io::Result<ServerSummary> {
    let (mut engine, ledger_store, audit_store) = build_topology(opts)?;
    let output_digest = Arc::new(Mutex::new(Fnv1a::new()));
    let digest = Arc::clone(&output_digest);
    let mut pipeline = engine.pipeline().output_sink(FnSink(move |out: u64| {
        digest
            .lock()
            .expect("digest lock")
            .update(&out.to_le_bytes());
    }));
    pipeline.push_iter(events);
    let snapshot = pipeline.finish().snapshot();
    let output_digest = output_digest.lock().expect("digest lock").finish();
    Ok(ServerSummary {
        snapshot,
        ledger_digest: ledger_store.state_digest(),
        audit_digest: audit_store.state_digest(),
        output_digest,
        connections: 0,
        frames: 0,
        decode_errors: 0,
    })
}
