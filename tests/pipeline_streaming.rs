//! Integration tests of the push-based `Pipeline` ingestion API: pushed
//! sessions must match the legacy `process()` wrapper exactly, the
//! `on_batch` hook must fire once per punctuation, every engine driven
//! through the unified `TxnEngine` trait must agree on final state, and all
//! of them — a whole topology included — keep one session contract.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, EventSink, MorphStream, TxnEngine};
use morphstream_baselines::{LockedSpeEngine, SStoreEngine, TStreamEngine};
use morphstream_common::config::test_threads;
use morphstream_common::{Value, WorkloadConfig};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

fn config() -> WorkloadConfig {
    WorkloadConfig::streaming_ledger()
        .with_key_space(512)
        .with_udf_complexity_us(0)
        .with_abort_ratio(0.1)
        .with_txns_per_batch(128)
}

fn events() -> Vec<SlEvent> {
    StreamingLedgerApp::generate(&config(), 1_500, 0.7)
}

fn engine_config() -> EngineConfig {
    EngineConfig::with_threads(test_threads(4)).with_punctuation_interval(config().txns_per_batch)
}

/// Final per-key balances of a freshly built engine's store after `run`.
fn balances(store: &StateStore, app: &StreamingLedgerApp) -> Vec<Value> {
    let snapshot = store.snapshot_latest(app.accounts_table()).unwrap();
    (0..config().key_space).map(|k| snapshot[&k]).collect()
}

#[test]
fn pushing_across_uneven_boundaries_matches_process_exactly() {
    let config = config();
    let events = events();

    // Reference: the legacy pull-style wrapper.
    let ref_store = StateStore::new();
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let mut reference = MorphStream::new(ref_app, ref_store.clone(), engine_config());
    let expected = reference.run(events.clone());

    // Pushed session: same events arrive in chunks deliberately misaligned
    // with the punctuation interval of 128.
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(app, store.clone(), engine_config());
    let mut pipeline = engine.pipeline();
    let mut stream = events.into_iter();
    for chunk in [1usize, 7, 130, 64, 500, usize::MAX] {
        pipeline.push_iter(stream.by_ref().take(chunk));
    }
    let report = pipeline.finish();

    // Identical batching, counts, outputs, and store state.
    assert_eq!(report.events(), expected.events());
    assert_eq!(report.committed, expected.committed);
    assert_eq!(report.aborted, expected.aborted);
    assert_eq!(report.outputs, expected.outputs);
    assert_eq!(report.batches.len(), expected.batches.len());
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let app = StreamingLedgerApp::new(&store, &config);
    assert_eq!(balances(&store, &app), balances(&ref_store, &ref_app));
}

#[test]
fn explicit_flushes_change_batching_but_not_final_state() {
    let config = config();
    let events = events();

    let ref_store = StateStore::new();
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let mut reference = MorphStream::new(ref_app, ref_store.clone(), engine_config());
    let expected = reference.run(events.clone());

    // Flush after every uneven chunk: partial batches everywhere. Batch
    // boundaries differ, but batches execute in timestamp order, so the
    // final store state must still match byte for byte.
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(app, store.clone(), engine_config());
    let mut pipeline = engine.pipeline();
    let mut stream = events.into_iter();
    for chunk in [3usize, 100, 41, 999, usize::MAX] {
        pipeline.push_iter(stream.by_ref().take(chunk));
        pipeline.flush();
    }
    let report = pipeline.finish();

    assert_eq!(report.events(), expected.events());
    assert_eq!(report.committed, expected.committed);
    assert_eq!(report.aborted, expected.aborted);
    assert!(report.batches.len() > expected.batches.len());
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let app = StreamingLedgerApp::new(&store, &config);
    assert_eq!(balances(&store, &app), balances(&ref_store, &ref_app));
}

#[test]
fn on_batch_hook_fires_once_per_punctuation() {
    let config = config();
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(app, store, engine_config());

    let fired = Arc::new(AtomicUsize::new(0));
    let seen_events = Arc::new(AtomicUsize::new(0));
    let (fired_in_hook, seen_in_hook) = (fired.clone(), seen_events.clone());
    let mut pipeline = engine.pipeline().on_batch(move |batch| {
        fired_in_hook.fetch_add(1, Ordering::Relaxed);
        seen_in_hook.fetch_add(batch.events, Ordering::Relaxed);
    });
    pipeline.push_iter(StreamingLedgerApp::source(&config, 1_000, 0.7));
    // Mid-session observability: batches processed so far are visible.
    assert_eq!(pipeline.report().batches.len(), 1_000 / 128);
    let report = pipeline.finish();

    // 1000 events at a punctuation interval of 128: 7 full + 1 partial batch.
    assert_eq!(report.batches.len(), 8);
    assert_eq!(fired.load(Ordering::Relaxed), 8);
    assert_eq!(seen_events.load(Ordering::Relaxed), 1_000);
}

#[test]
fn punctuation_interval_of_one_batches_every_event() {
    let config = config();
    let events = StreamingLedgerApp::generate(&config, 50, 0.7);

    let ref_store = StateStore::new();
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let mut reference = MorphStream::new(ref_app, ref_store.clone(), engine_config());
    let expected = reference.run(events.clone());

    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(
        app,
        store.clone(),
        EngineConfig::with_threads(test_threads(4)).with_punctuation_interval(1),
    );
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(events);
    let report = pipeline.finish();

    // one batch per event, every batch a singleton, nothing buffered at finish
    assert_eq!(report.batches.len(), 50);
    assert!(report.batches.iter().all(|b| b.events == 1));
    assert_eq!(report.events(), 50);
    // batching differs from the reference but the state must not
    assert_eq!(report.committed, expected.committed);
    assert_eq!(report.aborted, expected.aborted);
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let app = StreamingLedgerApp::new(&store, &config);
    assert_eq!(balances(&store, &app), balances(&ref_store, &ref_app));
}

#[test]
fn empty_pipeline_finishes_with_an_empty_report() {
    let config = config();
    for punctuation in [None, Some(64)] {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine_config = EngineConfig::with_threads(2);
        engine_config.punctuation_interval = punctuation;
        let mut engine = MorphStream::new(app, store, engine_config);
        let mut pipeline = engine.pipeline();
        pipeline.flush(); // flushing an empty buffer is a no-op
        let report = pipeline.finish();
        assert_eq!(report.events(), 0);
        assert_eq!(report.committed, 0);
        assert_eq!(report.aborted, 0);
        assert!(report.outputs.is_empty());
        assert!(report.batches.is_empty());
        assert!(report.decision_trace().is_empty());
        assert_eq!(report.k_events_per_second(), 0.0);
    }
}

/// Drive any engine through the unified trait and return the final balances.
fn run_via_trait<E>(mut engine: E, store: &StateStore, events: Vec<SlEvent>) -> (usize, Vec<Value>)
where
    E: TxnEngine<Event = SlEvent, Output = bool>,
{
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = fired.clone();
    let mut pipeline = engine.pipeline().on_batch(move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    pipeline.push_iter(events);
    let report = pipeline.finish();
    assert_eq!(fired.load(Ordering::Relaxed), report.batches.len());
    let app = StreamingLedgerApp::new(store, &config());
    (report.events(), balances(store, &app))
}

#[test]
fn all_engines_agree_on_final_state_through_the_trait() {
    let config = config();
    let events = events();

    let ref_store = StateStore::new();
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let reference = run_via_trait(
        MorphStream::new(ref_app, ref_store.clone(), engine_config()),
        &ref_store,
        events.clone(),
    );
    assert_eq!(reference.0, events.len());

    let ts_store = StateStore::new();
    let ts_app = StreamingLedgerApp::new(&ts_store, &config);
    let tstream = run_via_trait(
        TStreamEngine::new(ts_app, ts_store.clone(), engine_config()),
        &ts_store,
        events.clone(),
    );
    assert_eq!(tstream, reference, "TStream diverged from MorphStream");

    let ss_store = StateStore::new();
    let ss_app = StreamingLedgerApp::new(&ss_store, &config);
    let sstore = run_via_trait(
        SStoreEngine::new(ss_app, ss_store.clone(), engine_config()),
        &ss_store,
        events,
    );
    assert_eq!(sstore, reference, "S-Store diverged from MorphStream");
}

/// Counts what reaches an installed output sink.
struct CountingSink {
    emitted: Arc<AtomicUsize>,
    flushed: Arc<AtomicUsize>,
}

impl<T> EventSink<T> for CountingSink {
    fn emit(&mut self, _item: T) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&mut self) {
        self.flushed.fetch_add(1, Ordering::Relaxed);
    }
}

/// What every `TxnEngine` owes its callers about a session, whatever runs
/// its batches: an empty finish is a well-formed empty report; a flush or a
/// finish with nothing buffered appends no batch; the hook fires once per
/// batch and is cleared by finish; an output sink survives finish, is
/// flushed by it, and `events()` stays exact while it drains; a dropped
/// `Pipeline` handle leaves the session open; and, unless `trails_push`, a
/// push is reflected in the report when it returns. Only a topology on its
/// threaded driver may trail. `engine` cuts a punctuation every 128 events.
fn session_contract<E: TxnEngine<Event = SlEvent>>(name: &str, mut engine: E, trails_push: bool) {
    let config = config();
    let stream = |events: usize| StreamingLedgerApp::source(&config, events, 0.7);

    // Nothing pushed: flushes are no-ops, finish hands out an empty report.
    engine.flush();
    engine.flush();
    assert_eq!(engine.report().batches.len(), 0, "{name}");
    let report = engine.finish();
    assert_eq!(report.events(), 0, "{name}");
    assert_eq!((report.committed, report.aborted), (0, 0), "{name}");
    assert!(
        report.outputs.is_empty() && report.batches.is_empty(),
        "{name}"
    );
    assert!(report.decision_trace().is_empty(), "{name}");
    assert_eq!(report.k_events_per_second(), 0.0, "{name}");

    // Exactly two punctuation intervals: the crossings cut both batches, so
    // neither the flush nor the finish behind them has a batch to add. The
    // hook saw both.
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = fired.clone();
    let mut pipeline = engine.pipeline().on_batch(move |batch| {
        assert_eq!(batch.events, 128);
        counter.fetch_add(1, Ordering::Relaxed);
    });
    pipeline.push_iter(stream(256));
    if !trails_push {
        assert_eq!(
            pipeline.report().batches.len(),
            2,
            "{name}: current on push"
        );
    }
    pipeline.flush();
    assert_eq!(pipeline.report().batches.len(), 2, "{name}");
    let report = pipeline.finish();
    assert_eq!(report.batches.len(), 2, "{name}");
    assert_eq!(report.events(), 256, "{name}");
    assert_eq!(
        report.outputs.len(),
        256,
        "{name}: no sink, outputs retained"
    );
    assert_eq!(fired.load(Ordering::Relaxed), 2, "{name}");

    // Finish cleared the hook, and the next session starts from batch 0.
    let report = engine.run(stream(128));
    assert_eq!(report.batches.len(), 1, "{name}");
    assert_eq!(report.batches[0].batch, 0, "{name}");
    assert_eq!(fired.load(Ordering::Relaxed), 2, "{name}: stale hook fired");

    // A sink drains the outputs; the report counts them instead.
    let (emitted, flushed) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    engine.set_output_sink(Some(Box::new(CountingSink {
        emitted: emitted.clone(),
        flushed: flushed.clone(),
    })));
    engine.ingest_iter(stream(300));
    engine.flush();
    assert_eq!(engine.report().events(), 300, "{name}");
    assert!(engine.report().outputs.is_empty(), "{name}");
    assert_eq!(emitted.load(Ordering::Relaxed), 300, "{name}");
    assert_eq!(flushed.load(Ordering::Relaxed), 0, "{name}");
    let report = engine.finish();
    assert_eq!(
        (report.events(), report.drained_outputs),
        (300, 300),
        "{name}"
    );
    // (a dataflow counts every operator's transactions)
    assert_eq!((report.committed + report.aborted) % 300, 0, "{name}");
    assert_eq!(flushed.load(Ordering::Relaxed), 1, "{name}: finish flushes");
    // ... and it is still installed for the next session.
    let report = engine.run(stream(200));
    assert_eq!((report.events(), report.outputs.len()), (200, 0), "{name}");
    assert_eq!(emitted.load(Ordering::Relaxed), 500, "{name}");
    assert_eq!(flushed.load(Ordering::Relaxed), 2, "{name}");
    engine.set_output_sink(None);
    let report = engine.run(stream(10));
    assert_eq!(
        (report.outputs.len(), report.drained_outputs),
        (10, 0),
        "{name}"
    );
    assert_eq!(emitted.load(Ordering::Relaxed), 500, "{name}");

    // The session lives on the engine, not on the handle.
    let mut events = stream(500);
    {
        let mut first = engine.pipeline();
        first.push_iter(events.by_ref().take(200)); // 128 processed, 72 buffered
    } // dropped without finish()
    let mut second = engine.pipeline();
    second.push_iter(events);
    let report = second.finish();
    assert_eq!(report.events(), 500, "{name}");
    assert_eq!(report.batches.len(), 4, "{name}: 3 x 128 + 116");
}

#[test]
fn every_engine_keeps_the_session_contract() {
    let config = config();
    let ledger = || {
        let store = StateStore::new();
        (StreamingLedgerApp::new(&store, &config), store)
    };
    let (app, store) = ledger();
    let morph = MorphStream::new(app, store, engine_config());
    session_contract("MorphStream", morph, false);
    let (app, store) = ledger();
    let tstream = TStreamEngine::new(app, store, engine_config());
    session_contract("TStream", tstream, false);
    let (app, store) = ledger();
    let sstore = SStoreEngine::new(app, store, engine_config());
    session_contract("S-Store", sstore, false);
    let (app, store) = ledger();
    let locked = LockedSpeEngine::with_locks(app, store, engine_config());
    session_contract("locked SPE", locked, false);

    // A whole dataflow is an engine like the others: the served two-operator
    // `ledger -> audit` topology, under either driver.
    for concurrent in [false, true] {
        let options = morphstream_server::ServeOptions {
            workload: config,
            threads: test_threads(2),
            concurrent,
            ..Default::default()
        };
        let (topology, ..) = morphstream_server::build_topology(&options).unwrap();
        assert_eq!(topology.operator_count(), 2);
        assert_eq!(topology.is_concurrent(), concurrent);
        let name = if concurrent { "threaded" } else { "inline" };
        session_contract(&format!("topology, {name} driver"), topology, concurrent);
    }
}

#[test]
fn dropping_a_pipeline_handle_keeps_the_session_resumable() {
    let config = config();
    let events = events();

    let ref_store = StateStore::new();
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let mut reference = MorphStream::new(ref_app, ref_store.clone(), engine_config());
    let expected = reference.run(events.clone());

    // The session lives on the engine: dropping a handle mid-stream and
    // opening a new one continues exactly where the first left off.
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(app, store.clone(), engine_config());
    let mut stream = events.into_iter();
    {
        let mut first = engine.pipeline();
        first.push_iter(stream.by_ref().take(200)); // 128 processed, 72 buffered
    } // dropped without finish()
    let mut second = engine.pipeline();
    second.push_iter(stream);
    let report = second.finish();

    assert_eq!(report.events(), expected.events());
    assert_eq!(report.committed, expected.committed);
    assert_eq!(report.aborted, expected.aborted);
    assert_eq!(report.batches.len(), expected.batches.len());
    let ref_app = StreamingLedgerApp::new(&ref_store, &config);
    let app = StreamingLedgerApp::new(&store, &config);
    assert_eq!(balances(&store, &app), balances(&ref_store, &ref_app));
}

#[test]
fn lazy_source_reports_its_size_and_streams_through() {
    let config = config();
    let source = StreamingLedgerApp::source(&config, 256, 0.5);
    assert_eq!(source.size_hint(), (256, Some(256)));

    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(app, store, engine_config());
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(source);
    assert_eq!(pipeline.finish().events(), 256);
}
