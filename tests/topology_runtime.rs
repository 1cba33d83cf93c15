//! Runtime behaviour of a topology: under the threaded driver bounded
//! channels give real back-pressure (a slow downstream operator blocks
//! `Pipeline::push` and memory stays bounded) and dropping a topology
//! mid-stream joins every worker thread without deadlock; under both drivers
//! operator panics propagate with their original payload, and per-table
//! version reclamation lets shared-store operators
//! reclaim again without touching a sibling's windowed state.

use morphstream::storage::StateStore;
use morphstream::{
    udfs, EngineConfig, Route, StreamApp, TopologyBuilder, TopologyConfig, TxnBuilder, TxnEngine,
    TxnOutcome,
};
use morphstream_common::config::test_threads;
use morphstream_common::{TableId, Value};

/// Fast upstream stage: one version per event into `table`.
struct FastCounter {
    table: TableId,
}

impl StreamApp for FastCounter {
    type Event = u64;
    type Output = u64;

    fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
        txn.write(self.table, *key % 64, udfs::add_delta(1));
    }

    fn post_process(&self, key: &u64, _outcome: &TxnOutcome) -> u64 {
        *key
    }
}

/// Slow downstream stage: an emulated UDF cost per event throttles the
/// operator, so routed batches pile up against the bounded channel.
struct SlowSink {
    table: TableId,
    cost_us: u64,
}

impl StreamApp for SlowSink {
    type Event = u64;
    type Output = bool;

    fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        txn.write(self.table, *key % 8, udfs::add_delta(1));
    }

    fn post_process(&self, _key: &u64, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }
}

fn slow_sink_topology(
    reclaim: bool,
    capacity: usize,
) -> (morphstream::Topology<u64, bool>, StateStore) {
    let store = StateStore::new();
    let src = store.create_table("src", 0, true);
    let sink = store.create_table("sink", 0, true);
    let config = EngineConfig::with_threads(test_threads(2))
        .with_punctuation_interval(64)
        .with_reclaim_after_batch(reclaim);
    let mut builder = TopologyBuilder::new();
    let fast = builder.add_operator("fast", FastCounter { table: src }, store.clone(), config);
    let slow = builder.add_operator(
        "slow",
        SlowSink {
            table: sink,
            cost_us: 150,
        },
        store.clone(),
        config,
    );
    builder.connect(fast, slow, Route::map(|key: &u64| *key));
    let topology = builder
        .build(
            fast,
            slow,
            TopologyConfig::default()
                .with_concurrent(true)
                .with_channel_capacity(capacity),
        )
        .expect("valid dataflow");
    (topology, store)
}

#[test]
fn slow_downstream_applies_back_pressure_and_memory_stays_bounded() {
    // With per-table reclamation on and a capacity-1 channel, the fast stage
    // cannot run ahead of the slow sink: pushes block on the bounded channel
    // (observable through queue_full_waits) and the retained versions stay
    // at O(channel_capacity × punctuation interval) instead of O(stream).
    let (mut bounded, _store) = slow_sink_topology(true, 1);
    let report = bounded.run(0..2_048u64);
    assert_eq!(report.events(), 2_048);
    let total_waits: u64 = report.edges.iter().map(|e| e.queue_full_waits).sum();
    assert!(
        total_waits > 0,
        "a slow sink must fill the bounded channels: {:?}",
        report.edges
    );
    let bounded_peak = report.memory.peak_bytes();

    // The same stream with reclamation off retains every version — the
    // O(stream) cliff the bounded run must stay well under.
    let (mut unbounded, _store) = slow_sink_topology(false, 1);
    let unbounded_report = unbounded.run(0..2_048u64);
    let unbounded_peak = unbounded_report.memory.peak_bytes();
    assert!(
        bounded_peak * 2 < unbounded_peak,
        "bounded peak {bounded_peak} should be well under the O(stream) peak {unbounded_peak}"
    );
}

#[test]
fn dropping_a_topology_mid_stream_joins_all_workers_without_deadlock() {
    // Push a prefix of the stream (several batches deep into the slow sink's
    // backlog), never flush, and drop the topology: every worker thread must
    // wind down and join. A deadlock here hangs the test suite, so plain
    // completion is the assertion.
    let (mut topology, _store) = slow_sink_topology(true, 1);
    {
        let mut pipeline = topology.pipeline();
        pipeline.push_iter(0..512u64);
        // pipeline dropped without finish: the session stays open
    }
    drop(topology);

    // Same, but with an explicit mid-stream flush before the drop.
    let (mut topology, _store) = slow_sink_topology(true, 2);
    let mut pipeline = topology.pipeline();
    pipeline.push_iter(0..256u64);
    pipeline.flush();
    assert_eq!(pipeline.report().events(), 256);
    drop(pipeline);
    drop(topology);
}

#[test]
fn operator_panics_propagate_with_their_original_payload() {
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// Panics when it sees the poison event, noting the thread it ran on.
    struct Exploder {
        table: TableId,
        ran_on: Arc<Mutex<Option<ThreadId>>>,
    }
    impl StreamApp for Exploder {
        type Event = u64;
        type Output = bool;
        fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
            *self.ran_on.lock().unwrap() = Some(std::thread::current().id());
            assert!(*key != 97, "boom on event 97");
            txn.write(self.table, *key % 8, udfs::add_delta(1));
        }
        fn post_process(&self, _key: &u64, outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    for concurrent in [false, true] {
        let store = StateStore::new();
        let src = store.create_table("src", 0, true);
        let boom = store.create_table("boom", 0, true);
        let ran_on = Arc::new(Mutex::new(None));
        let config = EngineConfig::with_threads(1).with_punctuation_interval(16);
        let mut builder = TopologyBuilder::new();
        let fast = builder.add_operator("fast", FastCounter { table: src }, store.clone(), config);
        let exploder = Exploder {
            table: boom,
            ran_on: Arc::clone(&ran_on),
        };
        let exploding = builder.add_operator("exploding", exploder, store.clone(), config);
        builder.connect(fast, exploding, Route::map(|key: &u64| *key));
        let mut topology = builder
            .build(
                fast,
                exploding,
                TopologyConfig::default().with_concurrent(concurrent),
            )
            .expect("valid dataflow");

        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| topology.run(0..256u64)));
        let payload = result.expect_err("the operator panic must surface on the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("boom on event 97"),
            "panic payload was replaced (concurrent={concurrent}): {message:?}"
        );
        // The inline driver unwinds straight through the caller: the operator
        // ran on this thread, so there is no worker to leave behind. The
        // threaded driver ran it on a worker, joined before the re-raise.
        let here = std::thread::current().id();
        assert_eq!(*ran_on.lock().unwrap() == Some(here), !concurrent);
        drop(topology);
    }
}

/// Appends every event to a log cell and window-reads its full history; the
/// windowed table must survive reclamation (its history *is* its state).
struct WindowedLog {
    log: TableId,
}

impl StreamApp for WindowedLog {
    type Event = u64;
    type Output = Value;

    fn state_access(&self, _key: &u64, txn: &mut TxnBuilder) {
        txn.write(self.log, 0, udfs::add_delta(1));
        txn.window_read(self.log, 0, 1 << 40, udfs::window_sum());
    }

    fn post_process(&self, _key: &u64, outcome: &TxnOutcome) -> Value {
        outcome.committed as Value
    }
}

#[test]
fn sibling_watermarks_reclaim_their_own_tables_but_not_windowed_state() {
    // Regression for the per-table reclamation redesign: two operators share
    // one store with reclamation ON. The high-volume counter's watermark must
    // reclaim *its* table (shared-store operators can reclaim again — PR 4
    // disabled this wholesale) while the sibling's windowed log keeps every
    // version, even though the counter's watermark races far past the log's
    // timestamp domain.
    for concurrent in [false, true] {
        let store = StateStore::new();
        let hot = store.create_table("hot", 0, true);
        let log = store.create_table("log", 0, true);
        let config = EngineConfig::with_threads(test_threads(2))
            .with_punctuation_interval(32)
            .with_reclaim_after_batch(true);
        let mut builder = TopologyBuilder::new();
        let counter =
            builder.add_operator("counter", FastCounter { table: hot }, store.clone(), config);
        let windowed = builder.add_operator("windowed", WindowedLog { log }, store.clone(), config);
        // only every 16th event reaches the windowed stage, so the counter's
        // watermark runs ~16x ahead of the log's timestamps
        builder.connect(
            counter,
            windowed,
            Route::filter_map(|key: &u64| key.is_multiple_of(16).then_some(*key)),
        );
        let mut topology = builder
            .build(
                counter,
                windowed,
                TopologyConfig::default().with_concurrent(concurrent),
            )
            .expect("valid dataflow");
        let report = topology.run(0..1_024u64);
        // the filter forwards 64 of the 1024 events to the windowed terminal
        assert_eq!(report.outputs.len(), 64);

        // the counter's table was reclaimed down to ~one version per key...
        let hot_versions = store.table(hot).unwrap().version_count();
        assert!(
            hot_versions <= 64 + 32,
            "hot table must be reclaimed on a shared store, kept {hot_versions} (concurrent={concurrent})"
        );
        // ...while the windowed log retains its entire history: one version
        // per routed event (plus nothing truncated by the sibling watermark)
        let log_history = store.window_values(log, 0, 1, u64::MAX).unwrap();
        assert_eq!(
            log_history.len(),
            64,
            "sibling watermark truncated windowed state (concurrent={concurrent})"
        );
        // the final window sum proves the full history stayed readable
        assert_eq!(
            store.read_latest(log, 0).unwrap(),
            64,
            "an increment was lost (concurrent={concurrent})"
        );
    }
}

/// Window-reads the full history of a table *written by the sibling*
/// operator — the cross-operator window case, which requires the table to be
/// pinned up front (the reader's automatic pin would land only after the
/// writer's first reclamation).
struct CrossWindowProbe {
    hot: TableId,
    out: TableId,
}

impl StreamApp for CrossWindowProbe {
    type Event = u64;
    type Output = Value;

    fn state_access(&self, _key: &u64, txn: &mut TxnBuilder) {
        txn.window_read(self.hot, 0, 1 << 40, udfs::window_sum());
        txn.write(self.out, 0, udfs::add_delta(1));
    }

    fn post_process(&self, _key: &u64, outcome: &TxnOutcome) -> Value {
        outcome.committed as Value
    }
}

#[test]
fn cross_operator_windows_survive_when_the_table_is_pinned_up_front() {
    // Operator A writes `hot`; operator B window-reads `hot` without ever
    // writing it. A's per-table reclamation would truncate `hot` before B's
    // engine ever sees a windowed access (pins are discovered per-engine,
    // per-batch), so the documented contract is an explicit up-front pin.
    let store = StateStore::new();
    let hot = store.create_table("hot", 0, true);
    let out = store.create_table("out", 0, true);
    store
        .pin_table(hot)
        .expect("cross-operator windowed tables are pinned before the run");
    let config = EngineConfig::with_threads(test_threads(2))
        .with_punctuation_interval(32)
        .with_reclaim_after_batch(true);
    let mut builder = TopologyBuilder::new();
    // writes one version of hot[0] per event
    struct HotWriter {
        hot: TableId,
    }
    impl StreamApp for HotWriter {
        type Event = u64;
        type Output = u64;
        fn state_access(&self, _key: &u64, txn: &mut TxnBuilder) {
            txn.write(self.hot, 0, udfs::add_delta(1));
        }
        fn post_process(&self, key: &u64, _outcome: &TxnOutcome) -> u64 {
            *key
        }
    }
    let writer = builder.add_operator("writer", HotWriter { hot }, store.clone(), config);
    let probe = builder.add_operator(
        "probe",
        CrossWindowProbe { hot, out },
        store.clone(),
        config,
    );
    builder.connect(
        writer,
        probe,
        Route::filter_map(|key: &u64| key.is_multiple_of(64).then_some(*key)),
    );
    let mut topology = builder
        .build(writer, probe, TopologyConfig::default())
        .expect("valid dataflow");
    let report = topology.run(0..256u64);
    assert_eq!(report.outputs.len(), 4);

    // the pin kept every version the writer appended, despite the writer's
    // own per-batch reclamation running with reclaim_after_batch(true)
    let history = store.window_values(hot, 0, 1, u64::MAX).unwrap();
    assert_eq!(
        history.len(),
        256,
        "writer reclamation truncated a pinned cross-operator window table"
    );
}
