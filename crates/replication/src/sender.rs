//! The primary side: a background thread that tails the on-disk WAL and
//! streams it to the standby over `MSR1`.
//!
//! Tailing the *files* (rather than an in-memory queue) makes the sender
//! stateless across disconnects: on every (re)connection it handshakes,
//! learns the standby's durable position, and either resumes from that
//! index in the WAL or — when truncation has moved past it, or the standby
//! is fresh or divergent — re-syncs it by shipping its newest checkpoint
//! first ([`Frame::BeginBootstrap`]).
//!
//! The serve ingest path calls [`ReplicationSender::notify`] after each
//! appended chunk; in [`AckMode::Sync`] it then calls
//! [`ReplicationSender::wait_for_ack`], which blocks that connection's
//! reads until the standby has acknowledged the chunk — extending the
//! existing socket → engine back-pressure chain across machines.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use morphstream_durability::{wal_start_index, CheckpointStore, TailError, TailItem, WalTailer};

use crate::link::{read_available, send_frame};
use crate::protocol::{Frame, FrameReader, CHECKPOINT_CHUNK, REPL_MAGIC, REPL_VERSION};
use crate::stats::ReplicationStats;

/// Whether ingest waits for standby acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// Ingest blocks until the standby has durably appended each chunk: no
    /// acknowledged event can be lost by losing the primary alone.
    Sync,
    /// Ingest never waits; the standby trails by whatever the link allows.
    #[default]
    Async,
}

impl AckMode {
    /// Parse a mode name as accepted by `--ack`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sync" => Some(Self::Sync),
            "async" => Some(Self::Async),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`AckMode::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Sync => "sync",
            Self::Async => "async",
        }
    }
}

/// Configuration for [`ReplicationSender::start`].
#[derive(Debug, Clone)]
pub struct SenderOptions {
    /// Standby replication address (`host:port`).
    pub target: String,
    /// Primary's WAL directory (tailed live).
    pub wal_dir: PathBuf,
    /// Primary's checkpoint directory (shipped on bootstrap).
    pub checkpoint_dir: PathBuf,
    /// Punctuation interval, advertised in the handshake.
    pub punctuation: u64,
    /// Whether ingest waits for standby acks.
    pub ack: AckMode,
}

struct Shared {
    stop: AtomicBool,
    /// Primary's WAL tip as published by the ingest path.
    wal_next: AtomicU64,
    stats: Arc<ReplicationStats>,
    acked: Mutex<u64>,
    ack_cond: Condvar,
    wake: Mutex<bool>,
    wake_cond: Condvar,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn complete_ack(&self, durable_index: u64) {
        // Stats first: a waiter released by this ack must already see it in
        // the lag gauges.
        self.stats.record_ack(durable_index);
        let mut acked = self.acked.lock().unwrap();
        if durable_index > *acked {
            *acked = durable_index;
        }
        self.ack_cond.notify_all();
    }

    fn wake(&self) {
        let mut flag = self.wake.lock().unwrap();
        *flag = true;
        self.wake_cond.notify_all();
    }

    /// Sleep up to `dur`, returning early when woken or stopped.
    fn doze(&self, dur: Duration) {
        let mut flag = self.wake.lock().unwrap();
        if !*flag && !self.stopped() {
            let (guard, _) = self.wake_cond.wait_timeout(flag, dur).unwrap();
            flag = guard;
        }
        *flag = false;
    }
}

/// Handle to the background shipping thread on the primary.
pub struct ReplicationSender {
    shared: Arc<Shared>,
    ack: AckMode,
    thread: Option<JoinHandle<()>>,
}

impl ReplicationSender {
    /// Spawn the shipping thread. Connection failures are retried forever
    /// with capped exponential backoff; the handle is usable immediately.
    /// `wal_next` is the primary's current WAL tip.
    pub fn start(opts: SenderOptions, wal_next: u64) -> Self {
        let stats = Arc::new(ReplicationStats::new());
        stats.set_wal_next(wal_next);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            wal_next: AtomicU64::new(wal_next),
            stats,
            acked: Mutex::new(0),
            ack_cond: Condvar::new(),
            wake: Mutex::new(false),
            wake_cond: Condvar::new(),
        });
        let ack = opts.ack;
        let runner = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("repl-sender".into())
            .spawn(move || run(&runner, &opts))
            .expect("spawn replication sender");
        Self {
            shared,
            ack,
            thread: Some(thread),
        }
    }

    /// Counters for `/metrics`.
    pub fn stats(&self) -> Arc<ReplicationStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The configured acknowledgement mode.
    pub fn ack_mode(&self) -> AckMode {
        self.ack
    }

    /// Publish a new WAL tip and nudge the shipping thread. Call after
    /// appending events (the sender also polls, so missing a nudge only
    /// costs latency, never data).
    pub fn notify(&self, wal_next: u64) {
        self.shared.wal_next.fetch_max(wal_next, Ordering::Relaxed);
        self.shared.stats.set_wal_next(wal_next);
        self.shared.wake();
    }

    /// Block until the standby has acknowledged `index` events, the sender
    /// is stopped, or `abort` returns true. Returns whether the ack
    /// arrived.
    pub fn wait_for_ack(&self, index: u64, abort: &dyn Fn() -> bool) -> bool {
        let mut acked = self.shared.acked.lock().unwrap();
        loop {
            if *acked >= index {
                return true;
            }
            if self.shared.stopped() || abort() {
                return false;
            }
            let (guard, _) = self
                .shared
                .ack_cond
                .wait_timeout(acked, Duration::from_millis(50))
                .unwrap();
            acked = guard;
        }
    }

    /// Stop the shipping thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.wake();
        self.shared.ack_cond.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReplicationSender {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn run(shared: &Shared, opts: &SenderOptions) {
    let mut backoff = Duration::from_millis(100);
    while !shared.stopped() {
        if let Ok(stream) = TcpStream::connect(&opts.target) {
            backoff = Duration::from_millis(100);
            let _ = run_connection(shared, opts, stream);
            shared.stats.set_connected(false);
        }
        if shared.stopped() {
            return;
        }
        shared.doze(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(3));
    }
}

fn run_connection(shared: &Shared, opts: &SenderOptions, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut scratch = Vec::new();
    stream.write_all(&REPL_MAGIC)?;
    send_frame(
        &mut stream,
        &Frame::Hello {
            version: REPL_VERSION,
            punctuation: opts.punctuation,
            wal_next: shared.wal_next.load(Ordering::Relaxed),
        },
        &mut scratch,
    )?;

    // Handshake: wait for the standby's position.
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let standby_pos = loop {
        if shared.stopped() {
            return Ok(());
        }
        read_available(&mut stream, &mut reader, &mut frames)?;
        match frames.pop() {
            Some(Frame::Position { next_index, .. }) => break next_index,
            Some(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Position, got {other:?}"),
                ));
            }
            None => {}
        }
    };
    shared.stats.set_connected(true);

    // Tail vs bootstrap: the WAL serves the standby's position only when
    // that position is still on disk (not truncated away) and not past our
    // own tip (a divergent or future standby must be reset).
    let wal_next = shared.wal_next.load(Ordering::Relaxed);
    let wal_start = wal_start_index(&opts.wal_dir).map_err(to_io)?;
    let serves = standby_pos <= wal_next
        && match wal_start {
            Some(start) => standby_pos >= start,
            None => standby_pos == wal_next,
        };
    let start = if serves {
        standby_pos
    } else {
        send_bootstrap(&mut stream, &opts.checkpoint_dir, &mut scratch)?
    };

    ship(shared, opts, &mut stream, reader, start, &mut scratch)
}

/// Ship the newest checkpoint, if there is one; returns the event index it
/// covers.
fn send_bootstrap(
    stream: &mut TcpStream,
    checkpoint_dir: &PathBuf,
    scratch: &mut Vec<u8>,
) -> io::Result<u64> {
    let checkpoints = CheckpointStore::open(checkpoint_dir).map_err(to_io)?;
    let newest = checkpoints.entries().last();
    let events_applied = newest.map_or(0, |e| e.events_applied);
    send_frame(
        stream,
        &Frame::BeginBootstrap {
            chain_len: newest.is_some() as u32,
            events_applied,
        },
        scratch,
    )?;
    if let Some(entry) = newest {
        let bytes = std::fs::read(checkpoints.dir().join(&entry.file))?;
        let mut chunks = bytes.chunks(CHECKPOINT_CHUNK).peekable();
        while let Some(chunk) = chunks.next() {
            send_frame(
                stream,
                &Frame::CheckpointChunk {
                    last_chunk: chunks.peek().is_none(),
                    data: chunk.to_vec(),
                },
                scratch,
            )?;
        }
    }
    Ok(events_applied)
}

fn ship(
    shared: &Shared,
    opts: &SenderOptions,
    stream: &mut TcpStream,
    mut reader: FrameReader,
    start: u64,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(10)))?;
    let mut tailer = WalTailer::new(&opts.wal_dir, start);
    let mut frames = Vec::new();
    let mut items = Vec::new();
    let mut pending: Vec<Vec<u8>> = Vec::new();
    let mut pending_first = 0u64;
    let mut pending_bytes = 0usize;
    let mut last_sent = Instant::now();

    loop {
        if shared.stopped() {
            return Ok(());
        }
        frames.clear();
        read_available(stream, &mut reader, &mut frames)?;
        for frame in frames.drain(..) {
            if let Frame::Ack { durable_index } = frame {
                shared.complete_ack(durable_index);
            }
        }

        items.clear();
        let polled = tailer.poll(&mut items, 1024).map_err(|e| match e {
            TailError::Gap { .. } => io::Error::new(io::ErrorKind::NotFound, e.to_string()),
            TailError::Store(e) => to_io(e),
        })?;
        let mut sent = false;
        for item in items.drain(..) {
            match item {
                TailItem::Event { index, payload } => {
                    if pending.is_empty() {
                        pending_first = index;
                        pending_bytes = 0;
                    }
                    pending_bytes += payload.len();
                    pending.push(payload);
                    if pending_bytes >= CHECKPOINT_CHUNK || pending.len() >= 512 {
                        flush_batch(shared, stream, &mut pending, pending_first, scratch)?;
                        sent = true;
                    }
                }
                TailItem::Punctuation { next_index } => {
                    flush_batch(shared, stream, &mut pending, pending_first, scratch)?;
                    send_frame(stream, &Frame::Punct { next_index }, scratch)?;
                    sent = true;
                }
            }
        }
        if !pending.is_empty() {
            flush_batch(shared, stream, &mut pending, pending_first, scratch)?;
            sent = true;
        }
        if sent {
            last_sent = Instant::now();
            continue;
        }
        if polled > 0 {
            continue;
        }
        if last_sent.elapsed() >= Duration::from_secs(1) {
            send_frame(
                stream,
                &Frame::Heartbeat {
                    wal_next: shared.wal_next.load(Ordering::Relaxed),
                },
                scratch,
            )?;
            last_sent = Instant::now();
        }
        shared.doze(Duration::from_millis(25));
    }
}

fn flush_batch(
    shared: &Shared,
    stream: &mut TcpStream,
    pending: &mut Vec<Vec<u8>>,
    first_index: u64,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    let events = std::mem::take(pending);
    let count = events.len() as u64;
    let bytes: u64 = events.iter().map(|e| e.len() as u64).sum();
    send_frame(
        stream,
        &Frame::Batch {
            first_index,
            events,
        },
        scratch,
    )?;
    shared.stats.add_shipped(count, bytes);
    Ok(())
}

fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
