//! The library workloads (`sl_paper`, `sl_overhead`, `sl_contended`): a
//! closed-loop batch job through `MorphStream` + `Pipeline::push_iter`, plus
//! the closed-loop driver and the checkpoint restart `topo_fraud` shares.

use std::path::Path;
use std::time::{Duration, Instant};

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, RunReport, TxnEngine};
use morphstream_common::Value;
use morphstream_durability::{CheckpointBuilder, CheckpointStore};
use morphstream_workloads::sl::INITIAL_BALANCE;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::rig::{self, Outcome, Scratch, POOL_EVENTS, PREFIX_EVENTS};
use crate::spec::{SlShape, Workload, CRASH_TAIL_EVENTS};
use crate::stats;

/// What voids a run whose restarts did not end where the live engine is.
pub const RESTART_DIVERGED: &str =
    "state digest after restoring the checkpoint and replaying the tail differs from the live engine's";

/// A Streaming Ledger engine over a fresh store.
pub struct SlEngine {
    /// The store the engine writes.
    pub store: StateStore,
    /// The engine.
    pub engine: MorphStream<StreamingLedgerApp>,
}

impl SlEngine {
    /// Build store, application (pre-allocating every account) and engine.
    pub fn new(shape: &SlShape, seed: u64, threads: usize) -> SlEngine {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &rig::sl_config(shape, seed));
        let config =
            EngineConfig::with_threads(threads).with_punctuation_interval(shape.punctuation);
        SlEngine {
            engine: MorphStream::new(app, store.clone(), config),
            store,
        }
    }
}

/// What [`drive`] measured.
pub struct ClosedLoop<O> {
    /// Events pushed (a multiple of the chunk size).
    pub pushed: usize,
    /// Events completed per second, in thousands: the median over
    /// [`rig::RATE_WINDOW_S`] windows of the wall time from the first push
    /// (the pause in which the prefix state was digested is not wall time).
    pub keps: f64,
    /// The session's report.
    pub report: RunReport<O>,
    /// `(state digest, committed, aborted)` after exactly `prefix` events.
    pub prefix: (u64, usize, usize),
}

/// Closed-loop driver: push `pool` (wrapping around) in chunks of one
/// punctuation interval until `seconds` have passed — and at least `prefix`
/// events — then finish. The caller blocks in `push`, as a batch job does.
pub fn drive<E: TxnEngine>(
    engine: &mut E,
    pool: &[E::Event],
    chunk: usize,
    seconds: f64,
    prefix: usize,
    digest: impl Fn() -> u64,
) -> ClosedLoop<E::Output>
where
    E::Event: Clone,
{
    assert!(pool.len().is_multiple_of(chunk) && prefix.is_multiple_of(chunk));
    let budget = Duration::from_secs_f64(seconds);
    let mut pipeline = engine.pipeline();
    let mut pushed = 0usize;
    let mut paused = Duration::ZERO;
    let mut at_prefix = (0, 0, 0);
    let mut marks = vec![(0.0, 0)];
    let started = Instant::now();
    loop {
        let offset = pushed % pool.len();
        pipeline.push_iter(pool[offset..offset + chunk].iter().cloned());
        pushed += chunk;
        if pushed == prefix {
            let pause = Instant::now();
            // A no-op on a batch boundary of the single-operator engine; on
            // the concurrent topology runtime it waits for the last round.
            pipeline.flush();
            let report = pipeline.report();
            at_prefix = (digest(), report.committed, report.aborted);
            paused += pause.elapsed();
        }
        let elapsed = started.elapsed() - paused;
        marks.push((elapsed.as_secs_f64(), pushed as u64));
        if pushed >= prefix && elapsed >= budget {
            break;
        }
    }
    let report = pipeline.finish();
    ClosedLoop {
        pushed,
        keps: rig::median_rate_keps(&marks),
        report,
        prefix: at_prefix,
    }
}

/// Per-batch latencies of a report, in ms.
pub fn batch_latencies_ms<O>(report: &RunReport<O>) -> Vec<f64> {
    report
        .batches
        .iter()
        .map(|b| b.elapsed.as_secs_f64() * 1e3)
        .collect()
}

/// Record the end-to-end metrics of a closed-loop run: throughput from the
/// driver, latency from the per-batch summaries.
pub fn report<O>(out: &mut Outcome, run: &ClosedLoop<O>, recovery_s: f64, setup_s: f64) {
    let mut latencies = batch_latencies_ms(&run.report);
    stats::sort(&mut latencies);
    let (tail, percentile) = stats::tail(&latencies);
    out.metric("throughput_keps", run.keps);
    out.metric("latency_p50_ms", stats::median(&latencies));
    out.metric("latency_p99_ms", tail);
    out.metric("recovery_s", recovery_s);
    out.metric("setup_s", setup_s);
    out.note("latency_samples", run.report.batches.len() as u64);
    out.note("latency_tail_percentile", percentile);
    out.note("committed", run.report.committed as u64);
    out.note("aborted", run.report.aborted as u64);
}

/// `recovery_s` of a library workload: checkpoint `engine` (whose store is
/// `store`) into `dir` through the durability crate and let it run `tail`,
/// the events a crash right after the checkpoint would have to replay. Then
/// time [`rig::RESTARTS`] restarts: build a fresh engine with `fresh`, load
/// the checkpoint chain, restore it and run the tail. Returns the fastest
/// restart time, and whether every restart ended in the state the engine
/// that never stopped is in.
pub fn checkpoint_restart<E: TxnEngine>(
    engine: &mut E,
    store: &StateStore,
    dir: &Path,
    tail: &[E::Event],
    mut fresh: impl FnMut() -> (E, StateStore),
) -> (f64, bool)
where
    E::Event: Clone,
{
    let mut builder = CheckpointBuilder::new();
    engine.checkpoint(&mut builder);
    let mut checkpoints = CheckpointStore::open(dir).expect("open checkpoint store");
    checkpoints
        .save(&builder.build(checkpoints.next_id(), 0, 0))
        .expect("save checkpoint");
    engine.run(tail.iter().cloned());
    let expected = rig::reference_digest(store.state_digest());
    let mut caught_up = true;
    let seconds = rig::fastest_restart(|| {
        let started = Instant::now();
        let (mut engine, store) = fresh();
        let mut chain = CheckpointStore::open(dir)
            .and_then(|c| c.load_chain())
            .expect("load checkpoint chain")
            .expect("a checkpoint was saved");
        engine.restore(&mut chain.restore);
        engine.run(tail.iter().cloned());
        let elapsed = started.elapsed();
        caught_up &= store.state_digest() == expected;
        elapsed
    });
    (seconds, caught_up)
}

/// Sum of the deposits among the first `count` events of the endless stream
/// `pool` stands for.
fn deposited(pool: &[SlEvent], count: usize) -> Value {
    let sum = |events: &[SlEvent]| -> Value {
        events
            .iter()
            .map(|e| match e {
                SlEvent::Deposit { amount, .. } => *amount,
                SlEvent::Transfer { .. } => 0,
            })
            .sum()
    };
    (count / pool.len()) as Value * sum(pool) + sum(&pool[..count % pool.len()])
}

/// Run one library workload end to end.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let shape = workload.sl_shape();
    let threads = rig::nproc();
    let mut out = Outcome::default();

    let ((pool, mut sl), setup_s) = rig::set_up(|| {
        (
            rig::sl_pool(&shape, seed, POOL_EVENTS),
            SlEngine::new(&shape, seed, threads),
        )
    });

    let store = sl.store.clone();
    let run = drive(
        &mut sl.engine,
        &pool,
        shape.punctuation,
        seconds,
        PREFIX_EVENTS,
        || store.state_digest(),
    );

    // Gate 1: every event pushed is accounted for as committed or aborted.
    let accounted = (run.report.committed + run.report.aborted).min(run.pushed);
    out.attempted = run.pushed as u64;
    out.failed = (run.pushed - accounted) as u64;
    out.require(run.report.events() == run.pushed, || {
        format!(
            "{} events pushed, {} reported",
            run.pushed,
            run.report.events()
        )
    });
    // Gate 2, whole run: deposits never abort and transfers conserve money.
    let app = sl.engine.app();
    let expected_total = shape.key_space as Value * INITIAL_BALANCE + deposited(&pool, run.pushed);
    out.require(app.total_balance(&store) == expected_total, || {
        "ledger total differs from initial balances plus deposits".into()
    });
    // Gate 3, verified prefix: state and counts equal a single-threaded run.
    // UDF busy-work does not touch state, so the reference runs without it.
    let mut reference = SlEngine::new(&SlShape { udf_us: 0, ..shape }, seed, 1);
    let ref_report = reference.engine.run(rig::cycled(&pool, 0, PREFIX_EVENTS));
    let expected = (
        rig::reference_digest(reference.store.state_digest()),
        ref_report.committed,
        ref_report.aborted,
    );
    out.require(run.prefix == expected, || {
        format!(
            "after {PREFIX_EVENTS} events (digest, committed, aborted) = {:x?}, single-threaded reference {:x?}",
            run.prefix, expected
        )
    });

    // Restart: a fresh engine restored from a checkpoint of the final state,
    // then the stream's next events as the tail to replay.
    let scratch = Scratch::new(workload.name());
    let (recovery_s, caught_up) = checkpoint_restart(
        &mut sl.engine,
        &store,
        &scratch.path().join("checkpoints"),
        &rig::cycled(&pool, run.pushed, CRASH_TAIL_EVENTS as usize).collect::<Vec<_>>(),
        || {
            let fresh = SlEngine::new(&shape, seed, threads);
            (fresh.engine, fresh.store)
        },
    );
    out.require(caught_up, || RESTART_DIVERGED.into());

    report(&mut out, &run, recovery_s, setup_s);
    out.note("engine_threads", threads as u64);
    out
}
