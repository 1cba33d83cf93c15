//! Equivalence and determinism proof for the operator-topology runtime: a
//! fused single-operator TP application and its two-operator topology split
//! must produce identical `state_digest()`s and identical per-event outputs,
//! across worker-thread counts (`MORPH_TEST_THREADS`), the inline vs the
//! threaded topology driver, keyed statistics parallelism 1 vs 4, and with
//! or without a checkpoint every four batches — while the
//! topology is driven exclusively through the *generic* `TxnEngine` surface
//! (`Pipeline::push_iter`, `TxnEngine::checkpoint` and `TxnEngine::run`),
//! never through topology-specific calls.

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, RunReport, TopologyConfig, TxnEngine};
use morphstream_common::config::test_threads;
use morphstream_common::WorkloadConfig;
use morphstream_durability::CheckpointBuilder;
use morphstream_workloads::{TollProcessingApp, TpEvent};

fn config() -> WorkloadConfig {
    WorkloadConfig::toll_processing()
        .with_key_space(512)
        .with_udf_complexity_us(0)
        .with_abort_ratio(0.15)
        .with_txns_per_batch(128)
}

fn events() -> Vec<TpEvent> {
    TollProcessingApp::generate(&config(), 1_200)
}

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig::with_threads(threads).with_punctuation_interval(config().txns_per_batch)
}

/// Run the fused single-operator app; returns the store digest and report.
fn run_fused(threads: usize) -> (u64, RunReport<bool>) {
    let store = StateStore::new();
    let app = TollProcessingApp::new(&store, &config());
    let mut engine = MorphStream::new(app, store.clone(), engine_config(threads));
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(events());
    let report = pipeline.finish();
    (store.state_digest(), report)
}

/// Run the two-operator split through the generic `Pipeline` session.
fn run_topology(threads: usize) -> (u64, RunReport<bool>) {
    run_topology_with(threads, false, 1, false)
}

/// The split with explicit driver choices: inline vs per-operator
/// threads, keyed statistics parallelism, and whether to take a checkpoint
/// every four batches. Taking one flushes the open batch; it must change
/// neither the state nor the outputs.
fn run_topology_with(
    threads: usize,
    concurrent: bool,
    parallelism: usize,
    checkpointed: bool,
) -> (u64, RunReport<bool>) {
    let store = StateStore::new();
    let mut topology = TollProcessingApp::topology_with(
        &store,
        &config(),
        engine_config(threads),
        TopologyConfig::default().with_concurrent(concurrent),
        parallelism,
    );
    let events = events();
    let chunk = if checkpointed {
        4 * config().txns_per_batch
    } else {
        events.len()
    };
    for events in events.chunks(chunk) {
        topology.pipeline().push_iter(events.iter().cloned());
        if checkpointed {
            let mut checkpoint = CheckpointBuilder::new();
            TxnEngine::checkpoint(&mut topology, &mut checkpoint);
            assert!(checkpoint.table_count() > 0);
        }
    }
    let report = topology.finish();
    (store.state_digest(), report)
}

#[test]
fn split_topology_matches_the_fused_app_across_thread_counts() {
    let (expected_digest, expected) = run_fused(1);
    assert_eq!(expected.events(), 1_200);
    assert!(expected.aborted > 0, "the workload must exercise aborts");

    for threads in [1, test_threads(4)] {
        // the fused app itself is deterministic across thread counts
        let (fused_digest, fused) = run_fused(threads);
        assert_eq!(
            fused_digest, expected_digest,
            "fused run diverged at threads={threads}"
        );
        assert_eq!(fused.outputs, expected.outputs);

        // ... and the topology split reproduces it bit for bit
        let (digest, report) = run_topology(threads);
        assert_eq!(
            digest, expected_digest,
            "topology diverged at threads={threads}"
        );
        assert_eq!(
            report.outputs, expected.outputs,
            "topology outputs diverged at threads={threads}"
        );
        assert_eq!(report.events(), expected.events());
    }
}

#[test]
fn threaded_driver_and_keyed_parallelism_match_the_inline_driver() {
    // The acceptance matrix of the concurrent-runtime redesign: digests and
    // outputs must be identical across {serial, concurrent} × parallelism
    // {1, 4} × threads {1, MORPH_TEST_THREADS} × checkpoints {off, on}.
    let (expected_digest, expected) = run_fused(1);
    for (concurrent, checkpointed) in [(false, false), (true, false), (false, true), (true, true)] {
        for parallelism in [1usize, 4] {
            for threads in [1, test_threads(4)] {
                let (digest, report) =
                    run_topology_with(threads, concurrent, parallelism, checkpointed);
                let label = format!(
                    "concurrent={concurrent} parallelism={parallelism} threads={threads} \
                     checkpointed={checkpointed}"
                );
                assert_eq!(digest, expected_digest, "digest diverged at {label}");
                assert_eq!(
                    report.outputs, expected.outputs,
                    "outputs diverged at {label}"
                );
                assert_eq!(report.events(), expected.events());
                // per-instance rows: toll-charge + road-stats{#i}
                assert_eq!(report.operators.len(), 1 + parallelism, "{label}");
                let committed: usize = report.operators.iter().map(|op| op.committed).sum();
                assert_eq!(report.committed, committed, "{label}");
                // edge rows are always present; back-pressure counters
                // only tick under the concurrent runtime
                assert_eq!(report.edges.len(), 2);
                if !concurrent {
                    assert!(report.edges.iter().all(|e| e.queue_full_waits == 0));
                }
            }
        }
    }
}

#[test]
fn per_operator_reports_sum_to_the_topology_totals() {
    let (_, report) = run_topology(test_threads(4));

    assert_eq!(report.operators.len(), 2);
    assert_eq!(report.operators[0].name, "toll-charge");
    assert_eq!(report.operators[1].name, "road-stats");

    // every operator saw every event (the charge outcome rides along instead
    // of being filtered out, so the streams stay 1:1)
    assert_eq!(report.operators[0].events, 1_200);
    assert_eq!(report.operators[1].events, 1_200);

    // per-operator counts sum to the top-level counts
    let committed: usize = report.operators.iter().map(|op| op.committed).sum();
    let aborted: usize = report.operators.iter().map(|op| op.aborted).sum();
    assert_eq!(report.committed, committed);
    assert_eq!(report.aborted, aborted);

    // the aborts all come from the charge operator; the statistics operator
    // only applies no-op deltas for uncharged events
    assert_eq!(report.operators[1].aborted, 0);
    assert_eq!(report.aborted, report.operators[0].aborted);

    // stage timings aggregate too
    let summed: std::time::Duration = report
        .operators
        .iter()
        .map(|op| op.stage_timings.construct)
        .sum();
    assert_eq!(report.stage_timings.construct, summed);
}

#[test]
fn topology_runs_through_the_generic_bench_drive_loop() {
    let fused_store = StateStore::new();
    let fused_app = TollProcessingApp::new(&fused_store, &config());
    let mut fused = MorphStream::new(
        fused_app,
        fused_store.clone(),
        engine_config(test_threads(4)),
    );
    let fused_report = fused.run(events());

    let store = StateStore::new();
    let mut topology =
        TollProcessingApp::topology(&store, &config(), engine_config(test_threads(4)));
    // the very same generic `TxnEngine::run` loop the bench harness drives
    let report = topology.run(events());

    assert_eq!(store.state_digest(), fused_store.state_digest());
    assert_eq!(report.aborted, fused_report.aborted);
    assert!(report.k_events_per_second() > 0.0);
    // committed counts both operators, so it is the fused count plus one
    // (always-committing) statistics transaction per event
    assert_eq!(report.committed, fused_report.committed + 1_200);
}

#[test]
fn topology_sessions_are_reusable_and_flush_aligned_with_punctuations() {
    let store = StateStore::new();
    let mut topology =
        TollProcessingApp::topology(&store, &config(), engine_config(test_threads(4)));

    // First session: uneven chunks with explicit mid-stream flushes.
    let mut pipeline = topology.pipeline();
    let mut stream = events().into_iter();
    pipeline.push_iter(stream.by_ref().take(300));
    pipeline.flush();
    assert_eq!(pipeline.report().events(), 300);
    pipeline.push_iter(stream);
    let first = pipeline.finish();
    assert_eq!(first.events(), 1_200);
    assert_eq!(first.operators.len(), 2);

    // Second session starts fresh on the same topology.
    let second = topology.run(events());
    assert_eq!(second.events(), 1_200);
    assert_eq!(second.batches.first().map(|b| b.batch), Some(0));

    // Both sessions applied the same stream to the same store; the digest is
    // a pure function of the (deterministic) applied updates.
    let reference = {
        let store = StateStore::new();
        let mut topology = TollProcessingApp::topology(&store, &config(), engine_config(1));
        topology.run(events());
        topology.run(events());
        store.state_digest()
    };
    assert_eq!(store.state_digest(), reference);
}
