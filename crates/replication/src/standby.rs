//! The standby side: a listener that accepts the primary's `MSR1` stream,
//! persists it into the standby's *own* durable directory (WAL +
//! checkpoints), and continuously replays it through a live topology so the
//! replica is warm — its state and output digests match the primary's at
//! every punctuation, and promotion is a handoff rather than a recovery.
//!
//! The standby is a state machine over one primary connection at a time:
//!
//! 1. `Hello` → reply [`Frame::Position`] with the standby's durable index
//!    and newest checkpoint id.
//! 2. Either WAL batches start arriving at exactly that index, or the
//!    primary decides the position is unservable and sends
//!    [`Frame::BeginBootstrap`]: the standby discards local state and
//!    rebuilds from the shipped checkpoint before tailing.
//! 3. Every `Batch` goes through [`DurableEngine::ingest`] — the same
//!    log-then-push path the primary's ingest takes — and is acknowledged
//!    with the standby's durable index; `Punct` frames mirror the primary's
//!    punctuation markers and drive the standby's own periodic checkpoints.
//!
//! [`StandbyServer::promote`] stops replication, takes a final checkpoint,
//! and hands the warm [`DurableEngine`] to the caller — the server crate
//! wraps it into a full serving primary.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use morphstream::storage::StateStore;
use morphstream::Topology;
use morphstream_common::protocol::WireCodec;
pub use morphstream_durability::Recovery as StandbyRecovery;
use morphstream_durability::{Checkpoint, DurableEngine, FsyncPolicy};
use morphstream_workloads::SlEvent;

use crate::link::{read_available, send_frame};
use crate::protocol::{Frame, FrameReader, REPL_MAGIC, REPL_VERSION};
use crate::stats::ReplicationStats;

/// The topology type a standby replays (the served Streaming Ledger shape).
pub type StandbyEngine = Topology<SlEvent, u64>;

/// A freshly built engine plus the state stores its operators write, so the
/// standby (and tests) can digest final state after promotion.
pub struct ReplicaEngine {
    /// The topology, without an output sink (the standby installs its own).
    pub engine: StandbyEngine,
    /// Every distinct store, in digest order.
    pub stores: Vec<StateStore>,
}

/// Builds a fresh, empty engine. Called once at startup and again whenever
/// the primary bootstraps the standby from scratch; it must build the same
/// dataflow the primary serves, or replayed digests will diverge.
pub type EngineFactory = Box<dyn FnMut() -> io::Result<ReplicaEngine> + Send>;

/// Configuration for [`StandbyServer::start`].
#[derive(Debug, Clone)]
pub struct StandbyOptions {
    /// Replication listener address (`host:port`; port 0 for ephemeral).
    pub listen: String,
    /// The standby's own durable directory (`wal/` + `checkpoints/`).
    /// Independent of the primary's — nothing is shared via filesystem.
    pub data_dir: PathBuf,
    /// Fsync policy of the standby's WAL.
    pub fsync: FsyncPolicy,
    /// Events between the standby's own checkpoints
    /// (0 = checkpoint only at recovery and promotion).
    pub checkpoint_interval: u64,
    /// Superseded checkpoints to keep as history (0 = prune immediately).
    pub checkpoint_retain: usize,
}

/// The replicated engine with its stores: what the standby keeps warm, and
/// what promotion hands to its new life as a primary.
pub struct Promoted {
    /// The warm engine, state fully applied up to its
    /// [`next_index`](DurableEngine::next_index), carrying the WAL, the
    /// checkpoint store and the output digest it must keep extending.
    pub durable: DurableEngine<StandbyEngine>,
    /// The engine's state stores, in digest order.
    pub stores: Vec<StateStore>,
}

struct Shared {
    stop: AtomicBool,
    stats: Arc<ReplicationStats>,
    /// `None` only after a bootstrap failed half-way (nothing coherent in
    /// memory; the next bootstrap reopens the directory) or once promoted.
    replica: Mutex<Option<Promoted>>,
    /// Mirror of the standby's durable index, readable without the replica lock.
    durable: AtomicU64,
    opts: StandbyOptions,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// A running hot standby; stop it with [`StandbyServer::shutdown`] or flip
/// it into a primary with [`StandbyServer::promote`].
pub struct StandbyServer {
    shared: Arc<Shared>,
    listen_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    recovery: Option<StandbyRecovery>,
}

impl StandbyServer {
    /// Recover whatever the local data directory holds, bind the
    /// replication listener, and start accepting the primary.
    pub fn start(opts: StandbyOptions, mut factory: EngineFactory) -> io::Result<StandbyServer> {
        let (replica, recovery) = open_replica(&opts, &mut factory)?;
        let listener = TcpListener::bind(&opts.listen)?;
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ReplicationStats::new());
        let durable = replica.durable.next_index();
        stats.record_ack(durable);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            stats,
            replica: Mutex::new(Some(replica)),
            durable: AtomicU64::new(durable),
            opts,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("repl-standby".into())
            .spawn(move || accept_loop(listener, accept_shared, factory))
            .expect("spawn standby accept loop");
        Ok(StandbyServer {
            shared,
            listen_addr,
            accept_thread: Some(accept_thread),
            recovery,
        })
    }

    /// Address the replication listener actually bound (resolves port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Counters for `/metrics`.
    pub fn stats(&self) -> Arc<ReplicationStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Events durably replicated (WAL-appended locally) so far.
    pub fn durable_index(&self) -> u64 {
        self.shared.durable.load(Ordering::Relaxed)
    }

    /// What startup recovery did, when the data directory held prior state.
    pub fn recovery(&self) -> Option<&StandbyRecovery> {
        self.recovery.as_ref()
    }

    /// Stop replicating and hand over the warm engine: joins the accept
    /// thread and takes a final checkpoint so the handoff is durable. Fails
    /// only when a bootstrap failed half-way and the standby holds no
    /// coherent state.
    pub fn promote(mut self) -> io::Result<Promoted> {
        self.stop_and_join();
        let mut promoted = self
            .shared
            .replica
            .lock()
            .expect("standby replica lock")
            .take()
            .ok_or_else(|| io::Error::other("standby holds no coherent state (mid-bootstrap)"))?;
        if let Err(e) = promoted.durable.checkpoint_now() {
            eprintln!("morphstream standby: final checkpoint failed: {e}");
        }
        Ok(promoted)
    }

    /// Stop the standby without promoting (local state stays on disk).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for StandbyServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Build a fresh engine and recover the local data directory into it
/// ([`DurableEngine::open`]). Punctuation 0: the standby mirrors the
/// primary's markers instead of writing its own.
fn open_replica(
    opts: &StandbyOptions,
    factory: &mut EngineFactory,
) -> io::Result<(Promoted, Option<StandbyRecovery>)> {
    let ReplicaEngine { engine, stores } = factory()?;
    let (durable, recovery) = DurableEngine::open(
        Some(&opts.data_dir),
        engine,
        opts.fsync,
        opts.checkpoint_interval,
        opts.checkpoint_retain,
        0,
    )
    .map_err(to_io)?;
    Ok((Promoted { durable, stores }, recovery))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, mut factory: EngineFactory) {
    while !shared.stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(e) = handle_primary(&shared, &mut factory, stream) {
                    // EOF / reset is the primary going away (it reconnects
                    // and re-handshakes); only data corruption is loud.
                    if e.kind() == io::ErrorKind::InvalidData {
                        eprintln!("morphstream standby: replication stream error: {e}");
                    }
                }
                shared.stats.set_connected(false);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("morphstream standby: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// In-flight checkpoint transfer state.
struct Bootstrap {
    events_applied: u64,
    buf: Vec<u8>,
}

fn handle_primary(
    shared: &Shared,
    factory: &mut EngineFactory,
    mut stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut magic = [0u8; 4];
    read_exact_or_stop(shared, &mut stream, &mut magic)?;
    if magic != REPL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad replication preamble",
        ));
    }

    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let mut scratch = Vec::new();
    let mut bootstrap: Option<Bootstrap> = None;
    while !shared.stopped() {
        frames.clear();
        read_available(&mut stream, &mut reader, &mut frames)?;
        if frames.is_empty() {
            continue;
        }
        let mut guard = shared.replica.lock().expect("standby replica lock");
        for frame in frames.drain(..) {
            process_frame(
                shared,
                factory,
                &mut guard,
                &mut bootstrap,
                &mut stream,
                &mut scratch,
                frame,
            )?;
        }
    }
    Ok(())
}

fn process_frame(
    shared: &Shared,
    factory: &mut EngineFactory,
    replica: &mut Option<Promoted>,
    bootstrap: &mut Option<Bootstrap>,
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
    frame: Frame,
) -> io::Result<()> {
    match frame {
        Frame::Hello {
            version, wal_next, ..
        } => {
            if version != REPL_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported replication protocol version {version}"),
                ));
            }
            shared.stats.set_connected(true);
            shared.stats.set_wal_next(wal_next);
            let (next_index, checkpoint_id) = match replica.as_ref() {
                Some(r) => (r.durable.next_index(), r.durable.latest_checkpoint_id()),
                None => (0, None),
            };
            send_frame(
                stream,
                &Frame::Position {
                    next_index,
                    checkpoint_id,
                },
                scratch,
            )?;
        }
        Frame::BeginBootstrap {
            chain_len,
            events_applied,
        } => match chain_len {
            // Nothing to ship: the primary itself starts at `events_applied`
            // (0 unless its history was truncated away without any
            // checkpoint, which cannot happen).
            0 => adopt(
                shared,
                factory,
                replica,
                None,
                events_applied,
                stream,
                scratch,
            )?,
            1 => {
                *bootstrap = Some(Bootstrap {
                    events_applied,
                    buf: Vec::new(),
                })
            }
            // A primary ships its newest checkpoint and nothing else.
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bootstrap announces {chain_len} checkpoints, at most 1 is valid"),
                ))
            }
        },
        Frame::CheckpointChunk { last_chunk, data } => {
            let state = bootstrap.as_mut().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint chunk outside bootstrap",
                )
            })?;
            state.buf.extend_from_slice(&data);
            if !last_chunk {
                return Ok(());
            }
            let complete = bootstrap.take().expect("bootstrap in flight");
            let checkpoint = Checkpoint::decode(&complete.buf).map_err(to_io)?;
            adopt(
                shared,
                factory,
                replica,
                Some(&checkpoint),
                complete.events_applied,
                stream,
                scratch,
            )?;
        }
        Frame::Batch {
            first_index,
            events,
        } => {
            let durable = live(replica, bootstrap, "batch")?;
            if first_index != durable.next_index() {
                // Out of sequence (e.g. a stale sender after our state was
                // rebuilt): drop the connection; the primary re-handshakes
                // against our actual position.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "batch at index {first_index}, standby expects {}",
                        durable.next_index()
                    ),
                ));
            }
            let count = events.len() as u64;
            let bytes: u64 = events.iter().map(|e| e.len() as u64).sum();
            let decoded: Vec<SlEvent> = events
                .iter()
                .map(|payload| SlEvent::decode_binary(payload))
                .collect::<Result<_, _>>()
                .map_err(to_io)?;
            durable.ingest(decoded).map_err(to_io)?;
            shared.stats.add_shipped(count, bytes);
            shared.stats.set_wal_next(first_index + count);
            ack(shared, stream, scratch, durable)?;
        }
        Frame::Punct { .. } => {
            let durable = live(replica, bootstrap, "punctuation")?;
            durable.mark_punctuation().map_err(to_io)?;
            ack(shared, stream, scratch, durable)?;
        }
        Frame::Heartbeat { wal_next } => {
            shared.stats.set_wal_next(wal_next);
            if let Some(r) = replica.as_ref() {
                ack(shared, stream, scratch, &r.durable)?;
            }
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected frame from primary: {other:?}"),
            ));
        }
    }
    Ok(())
}

/// The engine a `Batch`/`Punct` applies to. Between `BeginBootstrap` and the
/// last chunk the old state no longer counts: such frames are out of
/// sequence.
fn live<'r>(
    replica: &'r mut Option<Promoted>,
    bootstrap: &Option<Bootstrap>,
    what: &str,
) -> io::Result<&'r mut DurableEngine<StandbyEngine>> {
    replica
        .as_mut()
        .filter(|_| bootstrap.is_none())
        .map(|r| &mut r.durable)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} during bootstrap"),
            )
        })
}

/// Bootstrap complete: discard local state and adopt the shipped checkpoint
/// into a fresh engine ([`DurableEngine::adopt_chain`]), then acknowledge
/// the new position.
fn adopt(
    shared: &Shared,
    factory: &mut EngineFactory,
    replica: &mut Option<Promoted>,
    checkpoint: Option<&Checkpoint>,
    events_applied: u64,
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    let old = match replica.take() {
        Some(old) => old.durable,
        None => open_replica(&shared.opts, factory)?.0.durable,
    };
    let ReplicaEngine { engine, stores } = factory()?;
    let durable = old
        .adopt_chain(engine, checkpoint, events_applied)
        .map_err(to_io)?;
    let adopted = replica.insert(Promoted { durable, stores });
    ack(shared, stream, scratch, &adopted.durable)
}

/// Acknowledge the standby's durable index and mirror it into the stats.
fn ack(
    shared: &Shared,
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
    durable: &DurableEngine<StandbyEngine>,
) -> io::Result<()> {
    let durable_index = durable.next_index();
    // Local bookkeeping first: once the primary sees this ack, observers on
    // this side must already see the same durable index.
    shared.durable.store(durable_index, Ordering::Relaxed);
    shared.stats.record_ack(durable_index);
    send_frame(stream, &Frame::Ack { durable_index }, scratch)?;
    Ok(())
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts (poll the stop
/// flag between them) so shutdown never hangs on a silent socket.
fn read_exact_or_stop(shared: &Shared, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.stopped() {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "standby stopping",
            ));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed before preamble",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
