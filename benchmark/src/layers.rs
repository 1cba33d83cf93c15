//! The traced run (`--trace 1`): every layer measured from outside, by
//! timing calls into its public functions and reading its public reports.
//!
//! The workload's own event stream is replayed stage by stage through the
//! engine's layers (decompose → TPG build → decide → execute → post-process →
//! reclaim), one span per call; the other layers (codec, WAL, checkpoint,
//! recovery, replication, storage, topology, the served ingest path) run as
//! fixed-size probes so their counts repeat exactly. Spans inside the
//! program are a later issue: every span here is recorded by the benchmark
//! around a call.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morphstream::storage::{MvTable, StateStore};
use morphstream::AbortHandling;
use morphstream::{
    DecisionModel, EngineConfig, ExplorationStrategy, Granularity, MorphStream, RunReport,
    StreamApp, Transaction, TransactionBatch, TxnBuilder, TxnEngine,
};
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_common::protocol::WireFormat;
use morphstream_common::{TableId, Timestamp};
use morphstream_dataflow::apps::FraudEnrichmentStage;
use morphstream_durability::{
    read_wal, Checkpoint, CheckpointBuilder, CheckpointStore, FsyncPolicy, WalLog,
};
use morphstream_executor::execute_batch_with_units;
use morphstream_replication::{
    AckMode, ReplicaEngine, ReplicationSender, SenderOptions, StandbyOptions, StandbyServer,
};
use morphstream_scheduler::{SchedulingDecision, WorkloadObservation};
use morphstream_server::{build_topology, encode_event, write_preamble, Server, SocketEventSource};
use morphstream_tpg::{SchedulingUnits, TpgBuilder};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::alloc::counted;
use crate::library::{batch_latencies_ms, SlEngine};
use crate::rig::{self, Outcome, Scratch};
use crate::serve::{self, Generator, Wire};
use crate::spec::{SlShape, Workload};
use crate::stats;
use crate::topo::{self, Fraud};
use crate::trace::{self, Tracer};

/// Events of every fixed-size Streaming Ledger probe.
const PROBE_EVENTS: usize = 102_400;
/// Events encoded and decoded as JSON lines (an order slower than binary).
const JSON_EVENTS: usize = 20_000;
/// Events appended under `fsync = always` (one disk round-trip each).
const WAL_ALWAYS_EVENTS: usize = 500;
/// Events the fraud topology probe pushes per runtime.
const TOPOLOGY_EVENTS: usize = 25_600;
/// Punctuation batches the replication probe ships and waits for one by one.
const SHIP_BATCHES: usize = 50;
/// Operations per storage micro-loop.
const STORAGE_OPS: usize = 200_000;
/// Versions per key in the windowed-read loop.
const WINDOW_VERSIONS: u64 = 64;

/// State of a traced run: the span recorder, the outcome under
/// construction, and a scratch directory for the probes that touch disk.
struct Probe {
    tracer: Tracer,
    out: Outcome,
    scratch: Scratch,
}

impl Probe {
    /// Time `f` as a top-level span named `name`; returns result and ns.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (result, ns) = self.tracer.time(name, 0, f);
        (result, ns as f64)
    }
}

/// What one stage-by-stage replay of a stream added up to.
#[derive(Default)]
struct Replay {
    events: usize,
    ops: usize,
    edges: usize,
    batches: usize,
    decompose_ns: u64,
    build_ns: u64,
    decide_ns: u64,
    execute_ns: u64,
    post_ns: u64,
    reclaim_ns: u64,
    build_allocs: (u64, u64),
    execute_allocs: u64,
    aborted: usize,
    redone_ops: usize,
    breakdown: Breakdown,
    wall_ns: u64,
}

impl Replay {
    fn layer_ns(&self) -> u64 {
        self.decompose_ns
            + self.build_ns
            + self.decide_ns
            + self.execute_ns
            + self.post_ns
            + self.reclaim_ns
    }
}

/// Replay `events` through the engine's layers, one punctuation batch at a
/// time, calling exactly what `MorphStream` calls per batch — but from here,
/// with a span around each call. With `count_allocs`, allocations of the
/// build and execute calls are counted (and the timings are then not used).
fn replay<A: StreamApp>(
    app: &A,
    store: &StateStore,
    events: &[A::Event],
    punctuation: usize,
    threads: usize,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Replay {
    let planner = TpgBuilder::new().with_threads(threads);
    let model = DecisionModel::new();
    let mut totals = Replay::default();
    let wall = Instant::now();
    for (index, batch_events) in events.chunks(punctuation).enumerate() {
        let batch_no = index as u32;
        let root = tracer.open("engine.batch", batch_no);
        let ts_base = (index * punctuation) as Timestamp + 1;

        let ((batch, written), ns) = tracer.time("tpg.decompose", batch_no, || {
            let mut batch =
                TransactionBatch::new().with_expected_abort_ratio(app.expected_abort_ratio());
            let mut written: Vec<TableId> = Vec::new();
            for (i, event) in batch_events.iter().enumerate() {
                let mut builder = TxnBuilder::new();
                app.state_access(event, &mut builder);
                let ops = builder.into_ops();
                for op in &ops {
                    if op.kind.is_write() && !written.contains(&op.table) {
                        written.push(op.table);
                    }
                }
                batch.push(Transaction::new(ts_base + i as Timestamp, ops).with_event_index(i));
            }
            (batch, written)
        });
        totals.decompose_ns += ns;

        let (tpg, ns) = tracer.time("tpg.build", batch_no, || {
            if count_allocs {
                let (tpg, allocs, bytes) = counted(|| planner.build(batch));
                totals.build_allocs.0 += allocs;
                totals.build_allocs.1 += bytes;
                tpg
            } else {
                planner.build(batch)
            }
        });
        totals.build_ns += ns;
        let stats = tpg.stats();
        totals.ops += stats.num_ops;
        totals.edges += stats.ld_edges + stats.td_edges + stats.pd_edges;
        let tpg = Arc::new(tpg);

        let ((decision, units), ns) = tracer.time("scheduler.decide", batch_no, || {
            let coarse = SchedulingUnits::coarse(&tpg);
            let observation = WorkloadObservation::new(tpg.stats().clone(), coarse.had_cycles);
            let decision = model.decide(&observation);
            let units = match decision.granularity {
                Granularity::Coarse => coarse,
                Granularity::Fine => SchedulingUnits::fine(&tpg),
            };
            (decision, units)
        });
        totals.decide_ns += ns;

        let (report, ns) = tracer.time("executor.execute", batch_no, || {
            let execute = || execute_batch_with_units(tpg, units, decision, store, threads);
            if count_allocs {
                let (report, allocs, _) = counted(execute);
                totals.execute_allocs += allocs;
                report
            } else {
                execute()
            }
        });
        totals.execute_ns += ns;
        totals.aborted += report.aborted();
        totals.redone_ops += report.redone_ops;
        totals.breakdown.merge(&report.breakdown);

        let ((), ns) = tracer.time("engine.post_process", batch_no, || {
            for (event, outcome) in batch_events.iter().zip(&report.outcomes) {
                std::hint::black_box(app.post_process(event, outcome));
            }
        });
        totals.post_ns += ns;

        let watermark = ts_base + batch_events.len() as Timestamp - 1;
        let ((), ns) = tracer.time("storage.reclaim", batch_no, || {
            store.mark_tables_dirty(&written);
            store.truncate_tables_before(&written, watermark);
        });
        totals.reclaim_ns += ns;

        tracer.close(root);
        totals.events += batch_events.len();
        totals.batches += 1;
    }
    totals.wall_ns = wall.elapsed().as_nanos() as u64;
    totals
}

/// Share of `decisions` for which `pick` holds.
fn share(decisions: &[SchedulingDecision], pick: impl Fn(&SchedulingDecision) -> bool) -> f64 {
    decisions.iter().filter(|d| pick(d)).count() as f64 / decisions.len().max(1) as f64
}

/// The engine layers on the workload's own stream: a warm-up and four
/// replays (traced, untraced, allocation-counting, single-threaded) and two
/// runs of the real engine (all threads, one thread) over the same events.
fn engine_layers<A: StreamApp>(
    probe: &mut Probe,
    make_app: &dyn Fn(&StateStore) -> A,
    events: &[A::Event],
    punctuation: usize,
) where
    A::Event: Clone,
{
    let threads = rig::nproc();
    let pass = |tracer: &mut Tracer, threads: usize, count_allocs: bool| {
        let store = StateStore::new();
        let app = make_app(&store);
        replay(
            &app,
            &store,
            events,
            punctuation,
            threads,
            tracer,
            count_allocs,
        )
    };
    // Once unmeasured, so first-touch page faults and cold caches land on
    // no pass in particular.
    pass(&mut Tracer::new(false), threads, false);
    let traced = pass(&mut probe.tracer, threads, false);
    let untraced = pass(&mut Tracer::new(false), threads, false);
    let allocs = pass(&mut Tracer::new(false), threads, true);
    let single = pass(&mut Tracer::new(false), 1, false);

    let run_engine = |threads: usize| -> (RunReport<A::Output>, f64) {
        let store = StateStore::new();
        let config = EngineConfig::with_threads(threads).with_punctuation_interval(punctuation);
        let mut engine = MorphStream::new(make_app(&store), store, config);
        let started = Instant::now();
        let report = engine.run(events.iter().cloned());
        (report, started.elapsed().as_secs_f64())
    };
    let ((report, wall_s), _) = probe.time("engine.run", || run_engine(threads));
    let ((_, wall_1t_s), _) = probe.time("engine.run_1t", || run_engine(1));

    let (events_f, ops_f) = (traced.events as f64, traced.ops as f64);
    let out = &mut probe.out;
    out.metric(
        "tpg.decompose_ns_per_event",
        traced.decompose_ns as f64 / events_f,
    );
    out.metric("tpg.build_ns_per_op", traced.build_ns as f64 / ops_f);
    out.metric(
        "tpg.build_allocs_per_event",
        allocs.build_allocs.0 as f64 / events_f,
    );
    out.metric(
        "tpg.build_alloc_bytes_per_event",
        allocs.build_allocs.1 as f64 / events_f,
    );
    out.metric("tpg.edges_per_op", traced.edges as f64 / ops_f);
    out.metric(
        "scheduler.decide_ns_per_batch",
        traced.decide_ns as f64 / traced.batches as f64,
    );
    let decisions: Vec<SchedulingDecision> = report.batches.iter().map(|b| b.decision).collect();
    out.metric(
        "scheduler.share_coarse",
        share(&decisions, |d| d.granularity == Granularity::Coarse),
    );
    out.metric(
        "scheduler.share_lazy_abort",
        share(&decisions, |d| d.abort_handling == AbortHandling::Lazy),
    );
    out.metric(
        "scheduler.share_nonstructured",
        share(&decisions, |d| {
            d.exploration == ExplorationStrategy::NonStructured
        }),
    );
    out.metric(
        "executor.execute_ns_per_op",
        traced.execute_ns as f64 / ops_f,
    );
    out.metric(
        "executor.execute_1t_ns_per_op",
        single.execute_ns as f64 / ops_f,
    );
    out.metric(
        "executor.redone_ops_per_kevent",
        traced.redone_ops as f64 / events_f * 1e3,
    );
    out.metric("executor.abort_share", traced.aborted as f64 / events_f);
    for (name, bucket) in [
        ("executor.breakdown.useful_share", BreakdownBucket::Useful),
        ("executor.breakdown.sync_share", BreakdownBucket::Sync),
        ("executor.breakdown.lock_share", BreakdownBucket::Lock),
        ("executor.breakdown.explore_share", BreakdownBucket::Explore),
        ("executor.breakdown.abort_share", BreakdownBucket::Abort),
    ] {
        out.metric(name, traced.breakdown.fraction(bucket));
    }
    out.metric(
        "executor.allocs_per_event",
        allocs.execute_allocs as f64 / events_f,
    );
    out.metric(
        "storage.peak_bytes_retained",
        report.memory.peak_bytes() as f64,
    );
    let mut latencies = batch_latencies_ms(&report);
    stats::sort(&mut latencies);
    let (tail, percentile) = stats::tail(&latencies);
    out.metric("engine.batch_p50_ms", stats::median(&latencies));
    out.metric("engine.batch_tail_ms", tail);
    out.note("engine.batch_tail_percentile", percentile);
    out.note("engine.batch_samples", latencies.len() as u64);
    out.metric("engine.keps_1t", events_f / wall_1t_s / 1e3);
    // What no layer owns: session bookkeeping, buffer hand-over, the
    // per-batch `bytes_retained` walk, report folding. The engine's own
    // construct and execute stage timings span exactly the calls the replay
    // makes (decompose and build; decide, execute, post-process, reclaim),
    // so what they leave of the same run's wall time is the glue — taken
    // from one pass, where a replay's time against another pass's wall
    // came out negative whenever the host sped up in between.
    let stages = report.stage_timings;
    let in_stages = (stages.construct + stages.execute).saturating_sub(stages.overlap);
    out.metric("engine.glue_share", 1.0 - in_stages.as_secs_f64() / wall_s);
    out.metric(
        "engine.construct_overlap_share",
        report.construction_overlap_fraction(),
    );
    out.metric(
        "trace.overhead_share",
        (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns as f64,
    );
    out.note("replay_events", traced.events as u64);
    // The replayed wall must be explained by the layer spans.
    let coverage = traced.layer_ns() as f64 / traced.wall_ns as f64;
    out.note("replay_span_coverage", coverage);
    out.require(coverage >= 0.9, || {
        format!("layer spans cover only {coverage:.3} of the replayed wall")
    });
    out.require(report.events() == traced.events, || {
        "engine run and replay disagree on the event count".into()
    });
}

/// `MvTable` micro-loops over the workload's key distribution.
fn storage_layers(probe: &mut Probe, keys: &[u64], key_space: u64) {
    let table = MvTable::new(TableId(0), "probe", 0, false);
    table.preallocate_range(key_space);
    let ops = keys.len() as f64;

    let (((), allocs, _), ns) = probe.time("storage.write", || {
        counted(|| {
            for (i, key) in keys.iter().enumerate() {
                let ts = i as Timestamp + 1;
                table
                    .write(*key, ts, 0, ts, i as i64)
                    .expect("preallocated key");
            }
        })
    });
    probe.out.metric("storage.write_ns", ns / ops);
    probe
        .out
        .metric("storage.write_allocs_per_op", allocs as f64 / ops);

    let ((), ns) = probe.time("storage.read_before", || {
        for (i, key) in keys.iter().enumerate() {
            std::hint::black_box(table.read_before(*key, i as Timestamp + 1, 0).ok());
        }
    });
    probe.out.metric("storage.read_before_ns", ns / ops);

    // Abort rollback: remove the version each write above produced.
    let (removed, ns) = probe.time("storage.rollback", || {
        keys.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(i, key)| {
                let ts = i as Timestamp + 1;
                table.rollback_writer_at(*key, ts, ts)
            })
            .sum::<usize>()
    });
    probe
        .out
        .metric("storage.rollback_ns", ns / removed.max(1) as f64);
    probe.out.require(removed == keys.len() / 2, || {
        format!("rollback removed {removed} versions of {}", keys.len() / 2)
    });

    let before = table.version_count();
    let ((), ns) = probe.time("storage.truncate", || {
        table.truncate_before(keys.len() as Timestamp + 1)
    });
    let dropped = (before - table.version_count()).max(1);
    probe
        .out
        .metric("storage.truncate_ns_per_version", ns / dropped as f64);

    // Windowed read over a fixed 64-version history per key.
    let windowed = MvTable::new(TableId(1), "windowed", 0, false);
    let window_keys = key_space.min(1_024);
    windowed.preallocate_range(window_keys);
    for ts in 1..=WINDOW_VERSIONS {
        for key in 0..window_keys {
            windowed
                .write(key, ts, 0, ts, ts as i64)
                .expect("preallocated key");
        }
    }
    let (seen, ns) = probe.time("storage.window", || {
        keys.iter()
            .map(|key| {
                windowed
                    .window(key % window_keys, 1, WINDOW_VERSIONS)
                    .map_or(0, |versions| versions.len())
            })
            .sum::<usize>()
    });
    probe.out.metric("storage.window_ns", ns / ops);
    probe
        .out
        .require(seen == keys.len() * WINDOW_VERSIONS as usize, || {
            "windowed reads did not return 64 versions each".into()
        });
}

/// Codec: decode through `SocketEventSource::next_batch` over pre-encoded
/// bytes, encode through `encode_event`.
fn codec_layers(probe: &mut Probe, pool: &[SlEvent]) {
    let mut encode = |format: WireFormat, events: &[SlEvent], name: &'static str| {
        let mut bytes = Vec::new();
        write_preamble(format, &mut bytes);
        let mut scratch = Vec::new();
        let ((), ns) = probe.time(name, || {
            for event in events {
                encode_event(event, format, &mut scratch, &mut bytes).expect("event encodes");
            }
        });
        (bytes, ns / events.len() as f64)
    };
    let (binary, encode_ns) = encode(
        WireFormat::Binary,
        &pool[..PROBE_EVENTS],
        "server.codec.encode_bin",
    );
    let (json, _) = encode(
        WireFormat::JsonLines,
        &pool[..JSON_EVENTS],
        "server.codec.encode_json",
    );
    probe
        .out
        .metric("server.codec.encode_bin_ns_per_event", encode_ns);

    let mut decode = |bytes: &[u8], expected: usize, name: &'static str| {
        let mut source: SocketEventSource<SlEvent, &[u8]> = SocketEventSource::new(bytes);
        let mut buffer = Vec::with_capacity(256);
        let (decoded, ns) = probe.time(name, || {
            let mut decoded = 0;
            loop {
                buffer.clear();
                let n = morphstream::EventSource::next_batch(&mut source, 256, &mut buffer);
                if n == 0 {
                    return decoded;
                }
                decoded += n;
                std::hint::black_box(&buffer);
            }
        });
        probe.out.require(decoded == expected, || {
            format!("{name}: decoded {decoded} of {expected} events")
        });
        ns / expected as f64
    };
    let bin_ns = decode(&binary, PROBE_EVENTS, "server.codec.decode_bin");
    let json_ns = decode(&json, JSON_EVENTS, "server.codec.decode_json");
    probe
        .out
        .metric("server.codec.decode_bin_ns_per_event", bin_ns);
    probe
        .out
        .metric("server.codec.decode_json_ns_per_event", json_ns);
}

/// WAL append under each fsync policy: `open` + `append_event` +
/// `mark_punctuation` every T + `sync`.
fn wal_layers(probe: &mut Probe, pool: &[SlEvent], punctuation: usize) {
    let mut append = |policy: FsyncPolicy, count: usize, name: &'static str| {
        let dir = probe.scratch.path().join(name);
        let ((bytes, records), ns) = probe.time(name, || {
            let mut wal = WalLog::open(&dir, policy, 0).expect("open WAL");
            for (i, event) in pool[..count].iter().enumerate() {
                wal.append_event(event).expect("append");
                if (i + 1) % punctuation == 0 {
                    wal.mark_punctuation().expect("punctuation marker");
                }
            }
            wal.sync().expect("sync");
            (wal.bytes_appended(), wal.records_appended())
        });
        let _ = std::fs::remove_dir_all(&dir);
        std::hint::black_box(records);
        (ns / count as f64, bytes as f64 / count as f64)
    };
    let (interval_ns, bytes_per_event) = append(
        FsyncPolicy::Interval,
        PROBE_EVENTS,
        "durability.wal.append_interval",
    );
    let (never_ns, _) = append(
        FsyncPolicy::Never,
        PROBE_EVENTS,
        "durability.wal.append_never",
    );
    let (always_ns, _) = append(
        FsyncPolicy::Always,
        WAL_ALWAYS_EVENTS,
        "durability.wal.append_always",
    );
    let out = &mut probe.out;
    out.metric("durability.wal.append_interval_ns_per_event", interval_ns);
    out.metric("durability.wal.append_never_ns_per_event", never_ns);
    out.metric("durability.wal.append_always_us_per_event", always_ns / 1e3);
    out.metric("durability.wal.bytes_per_event", bytes_per_event);
}

/// Checkpoint and recovery, part by part: a ledger engine logs and runs
/// `PROBE_EVENTS`, takes a full checkpoint, runs half as many again, takes
/// an incremental one, then logs a WAL tail; a fresh engine recovers.
fn durability_layers(probe: &mut Probe, shape: &SlShape, seed: u64, pool: &[SlEvent]) {
    let dir = probe.scratch.path().join("durable");
    let threads = rig::nproc();
    let mut live = SlEngine::new(shape, seed, threads);
    let mut wal = WalLog::open(dir.join("wal"), FsyncPolicy::Never, 0).expect("open WAL");
    let mut checkpoints = CheckpointStore::open(dir.join("checkpoints")).expect("open store");
    let half = PROBE_EVENTS / 2;
    let log_and_push = |live: &mut SlEngine, wal: &mut WalLog, events: &[SlEvent]| {
        for event in events {
            wal.append_event(event).expect("append");
            live.engine.ingest(event.clone());
        }
    };

    log_and_push(&mut live, &mut wal, &pool[..PROBE_EVENTS]);
    let mut capture = |probe: &mut Probe, live: &mut SlEngine, wal: &WalLog, name: &'static str| {
        let (builder, capture_ns) = probe.time(name, || {
            let mut builder = CheckpointBuilder::new();
            live.engine.checkpoint(&mut builder);
            builder
        });
        let checkpoint: Checkpoint = builder.build(checkpoints.next_id(), wal.next_index(), 0);
        let (encoded, encode_ns) =
            probe.time("durability.checkpoint.encode", || checkpoint.encode().len());
        let (saved, save_ns) = probe.time("durability.checkpoint.save", || {
            checkpoints.save(&checkpoint).expect("save checkpoint")
        });
        std::hint::black_box(saved);
        (capture_ns, encode_ns, save_ns, encoded)
    };
    let (capture_ns, encode_ns, save_ns, bytes) =
        capture(probe, &mut live, &wal, "durability.checkpoint.capture");
    wal.rotate().expect("rotate");
    log_and_push(
        &mut live,
        &mut wal,
        &pool[PROBE_EVENTS..PROBE_EVENTS + half],
    );
    let (capture_incr_ns, ..) =
        capture(probe, &mut live, &wal, "durability.checkpoint.capture_incr");
    wal.rotate().expect("rotate");
    let applied = wal.next_index();
    log_and_push(
        &mut live,
        &mut wal,
        &pool[PROBE_EVENTS + half..2 * PROBE_EVENTS],
    );
    wal.sync().expect("sync");
    live.engine.flush();
    let expected = live.store.state_digest();

    // Recovery, part by part, into a fresh engine.
    let mut fresh = SlEngine::new(shape, seed, threads);
    let ((), load_ns) = probe.time("durability.recovery.load_chain", || {
        let mut chain = CheckpointStore::open(dir.join("checkpoints"))
            .and_then(|store| store.load_chain())
            .expect("load chain")
            .expect("two checkpoints were saved");
        fresh.engine.restore(&mut chain.restore);
    });
    let (state, read_ns) = probe.time("durability.recovery.read_wal", || {
        read_wal::<SlEvent>(dir.join("wal")).expect("read WAL")
    });
    let logged = state.events.len();
    let tail = state.replay_tail(applied);
    let replayed = tail.len();
    let ((), replay_ns) = probe.time("durability.recovery.replay", || {
        for (_, event) in tail {
            fresh.engine.ingest(event);
        }
        fresh.engine.flush();
    });
    let out = &mut probe.out;
    out.require(
        fresh.store.state_digest() == rig::reference_digest(expected),
        || "recovered state differs from the state that was logged".into(),
    );
    out.require(replayed == half, || {
        format!("replayed {replayed} WAL events, expected {half}")
    });
    out.metric("durability.checkpoint.capture_ms", capture_ns / 1e6);
    out.metric(
        "durability.checkpoint.capture_incr_ms",
        capture_incr_ns / 1e6,
    );
    out.metric("durability.checkpoint.encode_ms", encode_ns / 1e6);
    out.metric("durability.checkpoint.save_ms", save_ns / 1e6);
    out.metric("durability.checkpoint.bytes", bytes as f64);
    out.metric("durability.recovery.load_chain_ms", load_ns / 1e6);
    out.metric(
        "durability.recovery.read_wal_ms_per_kevent",
        read_ns / 1e6 / (logged as f64 / 1e3),
    );
    out.metric(
        "durability.recovery.replay_ms_per_kevent",
        replay_ns / 1e6 / (replayed as f64 / 1e3),
    );
}

/// Replication, alone on loopback: catch-up over a pre-written WAL, then
/// `notify(tip)` → `wait_for_ack(tip)` once per punctuation.
fn replication_layers(probe: &mut Probe, shape: &SlShape, seed: u64, pool: &[SlEvent]) {
    let primary = probe.scratch.path().join("repl-primary");
    let standby_dir = probe.scratch.path().join("repl-standby");
    let punctuation = shape.punctuation;
    let opts = serve::options(shape, seed, None);
    let factory_opts = opts.clone();
    let standby = StandbyServer::start(
        StandbyOptions {
            listen: "127.0.0.1:0".into(),
            data_dir: standby_dir,
            fsync: FsyncPolicy::Never,
            checkpoint_interval: 0,
            checkpoint_retain: 0,
        },
        Box::new(move || {
            let (engine, ledger, audit) = build_topology(&factory_opts)?;
            Ok(ReplicaEngine {
                engine,
                stores: vec![ledger, audit],
            })
        }),
    )
    .expect("start standby");

    let mut wal = WalLog::open(primary.join("wal"), FsyncPolicy::Never, 0).expect("open WAL");
    std::fs::create_dir_all(primary.join("checkpoints")).expect("create checkpoint dir");
    let append_batch = |wal: &mut WalLog, batch: usize| {
        for event in &pool[batch * punctuation..(batch + 1) * punctuation] {
            wal.append_event(event).expect("append");
        }
        wal.mark_punctuation().expect("punctuation marker");
    };
    let backlog_batches = PROBE_EVENTS / punctuation;
    for batch in 0..backlog_batches {
        append_batch(&mut wal, batch);
    }
    wal.sync().expect("sync");

    let deadline = Instant::now() + Duration::from_secs(60);
    let expired = || Instant::now() > deadline;
    let (sender, ship_ns) = probe.time("replication.catch_up", || {
        let sender = ReplicationSender::start(
            SenderOptions {
                target: standby.listen_addr().to_string(),
                wal_dir: primary.join("wal"),
                checkpoint_dir: primary.join("checkpoints"),
                punctuation: punctuation as u64,
                ack: AckMode::Sync,
            },
            wal.next_index(),
        );
        sender.notify(wal.next_index());
        let acked = sender.wait_for_ack(wal.next_index(), &expired);
        assert!(acked, "standby never acknowledged the catch-up");
        sender
    });

    let mut ack_ns = 0.0;
    for batch in backlog_batches..backlog_batches + SHIP_BATCHES {
        append_batch(&mut wal, batch);
        wal.sync().expect("sync");
        let tip = wal.next_index();
        let (acked, ns) = probe.time("replication.ship_ack", || {
            sender.notify(tip);
            sender.wait_for_ack(tip, &expired)
        });
        assert!(acked, "standby never acknowledged batch {batch}");
        ack_ns += ns;
    }
    let shipped = standby.durable_index();
    sender.shutdown();
    standby.shutdown();
    let out = &mut probe.out;
    out.require(shipped == wal.next_index(), || {
        format!("standby holds {shipped} of {} events", wal.next_index())
    });
    out.metric(
        "replication.ship_keps",
        PROBE_EVENTS as f64 / (ship_ns / 1e9) / 1e3,
    );
    out.metric(
        "replication.ship_ack_us_per_batch",
        ack_ns / 1e3 / SHIP_BATCHES as f64,
    );
}

/// The fraud topology on both runtimes over the same events.
fn topology_layers(probe: &mut Probe, seed: u64) {
    let events = topo::pool(seed, TOPOLOGY_EVENTS);
    let run = |probe: &mut Probe, concurrent: bool, name: &'static str| {
        let mut fraud = Fraud::load(Some(concurrent));
        let (report, ns) = probe.time(name, || fraud.topology.run(events.iter().cloned()));
        (fraud, report, ns / 1e9)
    };
    let (fraud, report, wall_s) = run(probe, true, "engine.topology.concurrent");
    let (serial, _, serial_wall_s) = run(probe, false, "engine.topology.serial");
    let out = &mut probe.out;
    out.require(
        fraud.digest() == rig::reference_digest(serial.digest()),
        || "concurrent and serial runtimes disagree on state or outputs".into(),
    );
    let keps = |wall_s: f64| TOPOLOGY_EVENTS as f64 / wall_s / 1e3;
    out.metric("engine.topology.concurrent_keps", keps(wall_s));
    out.metric("engine.topology.serial_keps", keps(serial_wall_s));
    out.metric(
        "engine.topology.queue_full_waits",
        report.edges.iter().map(|e| e.queue_full_waits).sum::<u64>() as f64,
    );
    // Busy share of a stage: construct + execute time of its instances,
    // averaged over them, as a share of the run's wall time. The stage that
    // is busy while those before it wait is the bottleneck.
    for (name, stage) in [
        ("engine.topology.busy_share.enrichment", "enrichment"),
        ("engine.topology.busy_share.scoring", "scoring"),
        ("engine.topology.busy_share.settlement", "settlement"),
    ] {
        let instances: Vec<f64> = report
            .operators
            .iter()
            .filter(|op| op.name == stage || op.name.starts_with(&format!("{stage}#")))
            .map(|op| (op.stage_timings.construct + op.stage_timings.execute).as_secs_f64())
            .collect();
        let busy = instances.iter().sum::<f64>() / instances.len().max(1) as f64;
        out.metric(name, busy / wall_s);
    }
    out.metric("dataflow.load_ms", fraud.load_seconds * 1e3);
}

/// One `GET /metrics`; returns how long it took and the body.
fn scrape(addr: SocketAddr) -> std::io::Result<(Duration, String)> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut body = String::new();
    conn.read_to_string(&mut body)?;
    Ok((started.elapsed(), body))
}

/// Value of the first sample of `family` (optionally `{label}`-qualified)
/// in a Prometheus text body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|line| line.starts_with(series))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

/// The served ingest path, traced: a short run of the two phases with one
/// `/metrics` scrape per second, the socket-free reference for the gap, and
/// the self-check the latency definition rests on.
fn serve_layers(probe: &mut Probe, workload: Workload, seed: u64, seconds: f64, pool: &[SlEvent]) {
    let shape = workload.sl_shape();
    let punctuation = shape.punctuation as u64;
    // Durable unless the workload is the in-memory server itself.
    let data_dir =
        (workload != Workload::ServeMem).then(|| probe.scratch.path().join("serve-data"));
    let opts = serve::options(&shape, seed, data_dir);
    let wire = Wire::encode(pool);
    let server = Server::start(opts.clone()).expect("start the server");
    let metrics_addr = server.metrics_addr();
    let mut gen = Generator::connect(&server, &wire);

    let span = probe.tracer.open("server.phase_a", 0);
    let started = Instant::now();
    let (a_events, _) = rig::on_last_core(|| serve::saturate(&mut gen, &server, seconds * 0.1));
    let a_wall = started.elapsed();
    probe.tracer.close(span);
    let blocked_share = gen.blocked.as_secs_f64() / a_wall.as_secs_f64();

    // The assumption the latency definition rests on: whatever cut the
    // batches, fewer than T of the events `events_ingested()` counts have
    // yet to pass the terminal operator.
    let ingested = server.events_ingested();
    let (_, body) = scrape(metrics_addr).expect("scrape /metrics");
    let terminal = sample(
        &body,
        "morphstream_operator_events_total{operator=\"audit\"}",
    );
    let proven = terminal
        .is_some_and(|seen| seen <= ingested as f64 && ingested as f64 - seen < punctuation as f64);
    probe.out.require(proven, || {
        format!("{ingested} events ingested but the terminal operator reports {terminal:?}")
    });

    let stop = AtomicBool::new(false);
    let span = probe.tracer.open("server.phase_b", 0);
    let (b, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut took = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if let Ok((elapsed, _)) = scrape(metrics_addr) {
                    took.push(elapsed.as_secs_f64() * 1e3);
                }
                let wake = Instant::now() + Duration::from_secs(1);
                while Instant::now() < wake && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            took
        });
        let b =
            rig::on_last_core(|| serve::open_loop(&mut gen, &server, seconds * 0.3, punctuation));
        stop.store(true, Ordering::SeqCst);
        (b, scraper.join().expect("scraper thread"))
    });
    probe.tracer.close(span);
    assert!(
        serve::wait_ingested(&server, gen.sent),
        "phase B never drained"
    );
    let (_, body) = scrape(metrics_addr).expect("scrape /metrics");
    let sent = gen.sent;
    drop(gen);
    let summary = server.shutdown();

    let (reference, reference_ns) =
        probe.time("server.engine_only", || serve::reference(&opts, pool, sent));
    serve::check_against_reference(&summary, &reference, sent, &mut probe.out);

    let mut scrapes = scrapes;
    stats::sort(&mut scrapes);
    let out = &mut probe.out;
    out.require(b.unfinished == 0, || {
        format!("{} bursts never completed", b.unfinished)
    });
    out.metric(
        "server.engine_only_keps",
        sent as f64 / (reference_ns / 1e9) / 1e3,
    );
    out.metric("server.ingest.write_blocked_share", blocked_share);
    out.metric("server.ingest.backlog_max_events", b.backlog_max as f64);
    out.metric("server.gen.late_share", b.late_share);
    out.metric(
        "server.metrics.scrape_p50_ms",
        if scrapes.is_empty() {
            0.0
        } else {
            stats::median(&scrapes)
        },
    );
    out.metric("server.frames", summary.frames as f64);
    out.metric("server.decode_errors", summary.decode_errors as f64);
    out.metric(
        "durability.serve.checkpoints_total",
        sample(&body, "morphstream_checkpoints_total").unwrap_or(0.0),
    );
    out.metric(
        "durability.serve.wal_segments",
        sample(&body, "morphstream_wal_segments").unwrap_or(0.0),
    );
    out.note("serve_probe_phase_a_events", a_events);
    out.note("serve_probe_latency_samples", b.latencies_ms.len() as u64);
}

/// `(VmRSS, VmHWM)` of this process in MB.
fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|line| line.starts_with(name))
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// The traced run of `workload`: every per-layer metric, and the span file.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let shape = workload.sl_shape();
    let pool = rig::sl_pool(&shape, seed, 2 * PROBE_EVENTS);
    let mut probe = Probe {
        tracer: Tracer::new(true),
        out: Outcome::default(),
        scratch: Scratch::new(&format!("trace-{}", workload.name())),
    };
    let (rss_after_setup, _) = memory_mb();

    // The fixed-size probes, on the workload's Streaming Ledger stream; the
    // disk- and socket-bound ones run it the way the server would (small
    // batches, no UDF busy-work, which would only pad their replay parts).
    let plain = SlShape {
        udf_us: 0,
        punctuation: Workload::ServeDurable.sl_shape().punctuation,
        ..shape
    };
    codec_layers(&mut probe, &pool);
    wal_layers(&mut probe, &pool, shape.punctuation);
    durability_layers(&mut probe, &plain, seed, &pool);
    replication_layers(&mut probe, &plain, seed, &pool);
    topology_layers(&mut probe, seed);
    let served = if workload.is_serve() {
        workload
    } else {
        Workload::ServeDurable
    };
    serve_layers(&mut probe, served, seed, seconds, &pool);

    // Engine layers on the workload's own stream, last: a fresh process on
    // the shared host runs its second thread at a crawl for a second or two
    // (measured: the first 600 ms of a two-thread replay ran at one thread's
    // speed), which the probes above absorb. Large batches take few replayed
    // batches; small ones take a hundred.
    let batches = if shape.punctuation >= 4_096 { 4 } else { 100 };
    if workload == Workload::TopoFraud {
        let events = topo::pool(seed, TOPOLOGY_EVENTS);
        let punctuation = Fraud::load(None).punctuation;
        engine_layers(
            &mut probe,
            &|store| FraudEnrichmentStage::new(store, "enrichment"),
            &events,
            punctuation,
        );
        let keys: Vec<u64> = events
            .iter()
            .cycle()
            .take(STORAGE_OPS)
            .map(|e| e.key)
            .collect();
        let key_space = keys.iter().max().map_or(1, |k| k + 1);
        storage_layers(&mut probe, &keys, key_space);
    } else {
        let config = rig::sl_config(&shape, seed);
        engine_layers(
            &mut probe,
            &|store| StreamingLedgerApp::new(store, &config),
            &pool[..batches * shape.punctuation],
            shape.punctuation,
        );
        let keys: Vec<u64> = pool
            .iter()
            .cycle()
            .take(STORAGE_OPS)
            .map(|event| match event {
                SlEvent::Deposit { account, .. } => *account,
                SlEvent::Transfer { from, .. } => *from,
            })
            .collect();
        storage_layers(&mut probe, &keys, shape.key_space);
    }

    let (_, peak) = memory_mb();
    probe
        .out
        .metric("process.rss_growth_mb", peak - rss_after_setup);

    let path = rig::out_dir().join(format!("trace_{}.json", workload.name()));
    let document = trace::to_json(workload.name(), seed, probe.tracer.spans());
    std::fs::write(&path, document.to_string()).expect("write the span file");
    probe.out.note("span_file", path.display().to_string());
    probe.out.note("spans", probe.tracer.spans().len() as u64);
    probe.out.attempted = probe.tracer.spans().len() as u64;
    probe.out
}
