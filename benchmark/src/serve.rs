//! The serve workloads (`serve_mem`, `serve_durable`): an in-process
//! `Server::start`, one generator (this thread), one TCP connection, events
//! pre-generated and pre-encoded during set-up.
//!
//! Phase A is a closed loop: the generator writes as fast as TCP
//! back-pressure lets it, so its rate is the highest sustainable rate
//! (ingest never drops). Phase B is an open loop at the frozen
//! [`RATE_FIXED_KEPS`], one latency sample per burst (see
//! [`crate::openloop`]).

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use morphstream_common::protocol::WireFormat;
use morphstream_durability::{CheckpointStore, FsyncPolicy};
use morphstream_server::{
    encode_event, reference_run, write_preamble, ServeOptions, Server, ServerSummary,
};
use morphstream_workloads::SlEvent;

use crate::openloop::{backlog_growing, due_ns, Pending};
use crate::rig::{self, Outcome, Scratch, POOL_EVENTS};
use crate::spec::{
    SlShape, Workload, BURST, CHECKPOINT_INTERVAL, CRASH_TAIL_EVENTS, LATENCY_LIMIT_MS,
    RATE_FIXED_KEPS,
};
use crate::stats;

/// Share of `--seconds` spent in phase A; the rest is phase B.
const PHASE_A_SHARE: f64 = 0.5;
/// Bursts per window of the tail latency (see [`stats::windowed_p99`]): one
/// second of phase B, which at the 1.25 s between two checkpoints of
/// `serve_durable` never holds two checkpoint pauses, and in a 5 s phase
/// leaves the five windows the same ten samples beyond their p99s that the
/// guide asks of a reported percentile.
const TAIL_WINDOW: usize = (RATE_FIXED_KEPS * 1e3) as usize / BURST;
/// Events per write in phase A.
const SATURATE_WRITE: usize = 256;
/// Spacing of `events_ingested()` polls (an atomic load): the generator
/// sleeps, never spins, and latency resolves to this.
const POLL: Duration = Duration::from_micros(200);
/// A burst the generator wakes up for later than this is late.
const LATE_NS: u64 = 1_000_000;
/// A phase B with more than this share of late bursts is suspect.
const LATE_SHARE_LIMIT: f64 = 0.10;
/// How long a drain may take before the run is declared stuck.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A pool of events in `MSB1` wire form, one frame per event.
pub struct Wire {
    bytes: Vec<u8>,
    /// Byte offset of every frame, plus the total length.
    offsets: Vec<usize>,
}

impl Wire {
    /// Encode `pool`.
    pub fn encode(pool: &[SlEvent]) -> Wire {
        let mut bytes = Vec::with_capacity(pool.len() * 32);
        let mut offsets = Vec::with_capacity(pool.len() + 1);
        let mut scratch = Vec::new();
        for event in pool {
            offsets.push(bytes.len());
            encode_event(event, WireFormat::Binary, &mut scratch, &mut bytes)
                .expect("ledger events fit a frame");
        }
        offsets.push(bytes.len());
        Wire { bytes, offsets }
    }

    /// The frames of events `first..first + count` of the pool.
    pub fn frames(&self, first: usize, count: usize) -> &[u8] {
        &self.bytes[self.offsets[first]..self.offsets[first + count]]
    }

    /// Events in the pool.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The one client connection: sends the endless stream the pool stands for.
pub struct Generator<'w> {
    wire: &'w Wire,
    conn: TcpStream,
    /// Events sent so far — the server's zero-based index of the next one.
    pub sent: u64,
    /// Time spent blocked in `write_all`.
    pub blocked: Duration,
}

impl<'w> Generator<'w> {
    /// Connect to `server` and send the binary preamble.
    pub fn connect(server: &Server, wire: &'w Wire) -> Generator<'w> {
        let mut conn = TcpStream::connect(server.event_addr()).expect("connect to the server");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        let mut preamble = Vec::new();
        write_preamble(WireFormat::Binary, &mut preamble);
        conn.write_all(&preamble).expect("send preamble");
        Generator {
            wire,
            conn,
            sent: 0,
            blocked: Duration::ZERO,
        }
    }

    /// Send the next `count` events.
    pub fn send(&mut self, mut count: usize) {
        while count > 0 {
            let first = (self.sent % self.wire.len() as u64) as usize;
            let n = count.min(self.wire.len() - first);
            let started = Instant::now();
            self.conn
                .write_all(self.wire.frames(first, n))
                .expect("the server closed the connection mid-stream");
            self.blocked += started.elapsed();
            self.sent += n as u64;
            count -= n;
        }
    }
}

/// Sleep-poll until the server has ingested `target` events.
pub fn wait_ingested(server: &Server, target: u64) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while server.events_ingested() < target {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
    true
}

/// Phase A: saturate the connection for `seconds`, then wait until
/// everything sent is ingested. Returns `(events sent, events ingested per
/// second in thousands, from the first write to all ingested)`. The whole
/// phase, not a window of it: the server slows as its session grows
/// (`RunReport::snapshot` under the engine lock copies and sorts every
/// latency sample), its first seconds vary by 15 % from run to run on a
/// shared host, and over the whole phase those differences mostly cancel.
pub fn saturate(gen: &mut Generator<'_>, server: &Server, seconds: f64) -> (u64, f64) {
    let base = gen.sent;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while started.elapsed() < budget {
        gen.send(SATURATE_WRITE);
    }
    assert!(wait_ingested(server, gen.sent), "phase A never drained");
    let events = gen.sent - base;
    (
        events,
        events as f64 / started.elapsed().as_secs_f64() / 1e3,
    )
}

/// What phase B measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency of every completed burst, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Bursts whose batch never completed within the drain timeout.
    pub unfinished: usize,
    /// Bursts sent.
    pub bursts: usize,
    /// Share of bursts the generator woke up more than 1 ms late for.
    pub late_share: f64,
    /// Highest backlog (events sent minus ingested) seen at a send.
    pub backlog_max: u64,
    /// True when the backlog was still growing over the last third.
    pub backlog_growing: bool,
}

/// Phase B: offer `RATE_FIXED_KEPS` for `seconds` in bursts of [`BURST`]
/// events, then one more punctuation interval of unmeasured bursts on the
/// same schedule, which the last measured bursts need for their proof.
pub fn open_loop(
    gen: &mut Generator<'_>,
    server: &Server,
    seconds: f64,
    punctuation: u64,
) -> OpenLoop {
    let bursts = ((seconds * RATE_FIXED_KEPS * 1e3 / BURST as f64) as usize).max(1);
    let trailing = (punctuation as usize).div_ceil(BURST);
    let mut pending = Pending::default();
    let mut latencies_ns = Vec::with_capacity(bursts);
    let mut backlog = Vec::with_capacity(bursts);
    let mut late = 0usize;
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;
    for k in 0..(bursts + trailing) as u64 {
        let due = due_ns(k, BURST as u64, RATE_FIXED_KEPS);
        let woke = loop {
            pending.observe(server.events_ingested(), now_ns(), &mut latencies_ns);
            let now = now_ns();
            if now >= due {
                break now;
            }
            std::thread::sleep(POLL.min(Duration::from_nanos(due - now)));
        };
        gen.send(BURST);
        if k < bursts as u64 {
            late += (woke - due > LATE_NS) as usize;
            backlog.push(gen.sent - server.events_ingested());
            pending.sent(due, gen.sent - 1, punctuation);
        }
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !pending.is_empty() && Instant::now() < deadline {
        std::thread::sleep(POLL);
        pending.observe(server.events_ingested(), now_ns(), &mut latencies_ns);
    }
    OpenLoop {
        latencies_ms: latencies_ns.iter().map(|ns| *ns as f64 / 1e6).collect(),
        unfinished: pending.len(),
        bursts,
        late_share: late as f64 / bursts as f64,
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        backlog_growing: backlog_growing(&backlog, punctuation),
    }
}

/// Server options of a serve workload; `data_dir` makes it durable.
pub fn options(shape: &SlShape, seed: u64, data_dir: Option<std::path::PathBuf>) -> ServeOptions {
    ServeOptions {
        workload: rig::sl_config(shape, seed),
        threads: rig::nproc().saturating_sub(1).max(1),
        data_dir,
        // The `morphstream serve` default, so the ingest path does what a
        // deployment's does.
        session_events: 10_000_000,
        checkpoint_interval: CHECKPOINT_INTERVAL,
        fsync: FsyncPolicy::Interval,
        ..ServeOptions::default()
    }
}

/// Events the newest checkpoint in `data_dir` covers (0 when there is none).
fn checkpointed_events(data_dir: &std::path::Path) -> u64 {
    CheckpointStore::open(data_dir.join("checkpoints"))
        .expect("read the checkpoint manifest")
        .entries()
        .last()
        .map_or(0, |entry| entry.events_applied)
}

/// Steer the idle durable server to exactly [`CRASH_TAIL_EVENTS`] events
/// past its newest checkpoint, so every crash image replays the same tail.
fn steer_to_crash_point(gen: &mut Generator<'_>, server: &Server, data_dir: &std::path::Path) {
    for _ in 0..4 {
        let tail = gen.sent - checkpointed_events(data_dir);
        if tail == CRASH_TAIL_EVENTS {
            return;
        }
        // Past the point: run up to the next interval checkpoint first.
        let target = if tail < CRASH_TAIL_EVENTS {
            CRASH_TAIL_EVENTS
        } else {
            CHECKPOINT_INTERVAL
        };
        gen.send(target.saturating_sub(tail).max(1) as usize);
        assert!(wait_ingested(server, gen.sent), "top-up never drained");
    }
    panic!("could not steer the server to {CRASH_TAIL_EVENTS} events past a checkpoint");
}

/// `recovery_s` of `serve_durable`: copy the idle server's data directory
/// (a crash image: no shutdown, no final checkpoint) and time `Server::start`
/// on the copy — restore the chain, replay the WAL tail, re-anchor.
fn crash_restart(
    opts: &ServeOptions,
    data_dir: &std::path::Path,
    scratch: &Scratch,
    out: &mut Outcome,
) -> f64 {
    let mut replayed = Vec::new();
    let mut image_no = 0;
    let seconds = rig::fastest_restart(|| {
        image_no += 1;
        let image = scratch.path().join(format!("image-{image_no}"));
        rig::copy_dir(data_dir, &image).expect("copy the data directory");
        let restart_opts = ServeOptions {
            data_dir: Some(image.clone()),
            ..opts.clone()
        };
        let started = Instant::now();
        let restarted = Server::start(restart_opts).expect("restart on the crash image");
        let elapsed = started.elapsed();
        replayed.push(restarted.recovery().map_or(0, |r| r.replayed_events));
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&image);
        elapsed
    });
    out.require(replayed.iter().all(|n| *n == CRASH_TAIL_EVENTS), || {
        format!("crash images replayed {replayed:?} events, expected {CRASH_TAIL_EVENTS}")
    });
    seconds
}

/// `recovery_s` of `serve_mem`: nothing is durable, so a restart is a cold
/// start — bind, build the dataflow, pre-allocate every account — after
/// which the client sends its last [`CRASH_TAIL_EVENTS`] events again.
fn cold_restart(opts: &ServeOptions, wire: &Wire, out: &mut Outcome) -> f64 {
    let mut summarised = Vec::new();
    let seconds = rig::fastest_restart(|| {
        let started = Instant::now();
        let restarted = Server::start(opts.clone()).expect("cold start");
        rig::on_last_core(|| {
            let mut gen = Generator::connect(&restarted, wire);
            gen.send(CRASH_TAIL_EVENTS as usize);
            assert!(
                wait_ingested(&restarted, gen.sent),
                "the tail never drained"
            );
        });
        let elapsed = started.elapsed();
        summarised.push(restarted.shutdown().snapshot.events);
        elapsed
    });
    out.require(summarised.iter().all(|n| *n == CRASH_TAIL_EVENTS), || {
        format!("cold starts summarised {summarised:?} events, expected {CRASH_TAIL_EVENTS}")
    });
    seconds
}

/// The socket-free reference: the first `sent` events of the stream `pool`
/// stands for, through the same dataflow via `Pipeline::push_iter`.
pub fn reference(opts: &ServeOptions, pool: &[SlEvent], sent: u64) -> ServerSummary {
    reference_run(opts, rig::cycled(pool, 0, sent as usize).collect()).expect("reference run")
}

/// Gate: the server's summary equals the reference's, and accounts for
/// every event sent.
pub fn check_against_reference(
    summary: &ServerSummary,
    reference: &ServerSummary,
    sent: u64,
    out: &mut Outcome,
) {
    let expected = (
        rig::reference_digest(reference.ledger_digest),
        reference.audit_digest,
        reference.output_digest,
    );
    let got = (
        summary.ledger_digest,
        summary.audit_digest,
        summary.output_digest,
    );
    out.require(got == expected, || {
        format!("(ledger, audit, output) digests {got:x?}, reference run {expected:x?}")
    });
    out.require(summary.snapshot.events == sent, || {
        format!("{sent} events sent, {} summarised", summary.snapshot.events)
    });
    out.require(summary.frames == sent && summary.decode_errors == 0, || {
        format!(
            "{sent} frames sent, {} decoded, {} decode errors",
            summary.frames, summary.decode_errors
        )
    });
}

/// Run one serve workload end to end.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let shape = workload.sl_shape();
    let punctuation = shape.punctuation as u64;
    let durable = workload == Workload::ServeDurable;
    let mut out = Outcome::default();
    let scratch = Scratch::new(workload.name());
    let data_dir = scratch.path().join("data");
    let opts = options(&shape, seed, durable.then(|| data_dir.clone()));

    // Set-up: events, wire bytes, temp dir, listener, dataflow.
    let ((pool, wire, server), setup_s) = rig::set_up(|| {
        let _ = std::fs::remove_dir_all(&data_dir);
        let pool = rig::sl_pool(&shape, seed, POOL_EVENTS);
        let wire = Wire::encode(&pool);
        let server = Server::start(opts.clone()).expect("start the server");
        (pool, wire, ServerGuard(Some(server)))
    });
    let server = server.into_inner();
    let mut gen = Generator::connect(&server, &wire);

    let ((a_events, a_keps), b) = rig::on_last_core(|| {
        let a = saturate(&mut gen, &server, seconds * PHASE_A_SHARE);
        let b = open_loop(
            &mut gen,
            &server,
            seconds * (1.0 - PHASE_A_SHARE),
            punctuation,
        );
        (a, b)
    });
    assert!(wait_ingested(&server, gen.sent), "phase B never drained");

    let recovery_s = if durable {
        steer_to_crash_point(&mut gen, &server, &data_dir);
        crash_restart(&opts, &data_dir, &scratch, &mut out)
    } else {
        cold_restart(&opts, &wire, &mut out)
    };

    let sent = gen.sent;
    drop(gen);
    let summary = server.shutdown();
    check_against_reference(&summary, &reference(&opts, &pool, sent), sent, &mut out);

    let slow = b
        .latencies_ms
        .iter()
        .filter(|ms| **ms > LATENCY_LIMIT_MS)
        .count();
    out.attempted = sent;
    out.failed =
        sent.saturating_sub(summary.snapshot.events) + ((slow + b.unfinished) * BURST) as u64;
    out.require(b.unfinished == 0, || {
        format!("{} bursts never completed", b.unfinished)
    });
    out.suspect_unless(!b.backlog_growing, || {
        format!("backlog still growing at {RATE_FIXED_KEPS} keps: the rate is not sustained")
    });
    out.suspect_unless(b.late_share <= LATE_SHARE_LIMIT, || {
        format!(
            "generator was late on {:.2}% of bursts",
            b.late_share * 100.0
        )
    });

    let samples = b.latencies_ms.len();
    let tail = stats::windowed_p99(&b.latencies_ms, TAIL_WINDOW);
    let mut sorted = b.latencies_ms;
    stats::sort(&mut sorted);
    let p50 = stats::median(&sorted);
    out.metric("throughput_keps", a_keps);
    out.metric("latency_p50_ms", p50);
    out.metric("latency_p99_ms", tail);
    out.metric("recovery_s", recovery_s);
    out.metric("setup_s", setup_s);
    out.note("engine_threads", opts.threads as u64);
    out.note("phase_a_events", a_events);
    out.note("latency_samples", samples as u64);
    out.note("latency_tail_percentile", stats::TAIL_CAP);
    out.note("latency_tail_window", TAIL_WINDOW as u64);
    out.note("server.gen.late_share", b.late_share);
    out.note("backlog_max_events", b.backlog_max);
    out.note("slow_bursts", slow as u64);
    out
}

/// Shuts a set-up server down when a later set-up repeat replaces it.
struct ServerGuard(Option<Server>);

impl ServerGuard {
    fn into_inner(mut self) -> Server {
        self.0.take().expect("server present until taken")
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}
