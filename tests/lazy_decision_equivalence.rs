//! The engine builds the coarse scheduling units only when the decision
//! model asks for their cycle flag (or two or more workers run on them). That is an
//! evaluation-order change: on every batch the decision must equal the one
//! the eager form takes — coarse units first, then `decide` — and the build
//! must happen exactly when the TD/PD-per-operation test leaves `c-schedule`
//! open. Checked batch by batch on the benchmark's streams, on the fig18–20
//! sweep points of `crates/bench`, and on crafted streams that take the
//! branches none of those do (`Coarse` picked; `Coarse` vetoed by a cycle).
//!
//! Only a batch that engages two or more workers takes a decision: a
//! one-worker batch runs serially, plans no graph and builds no units. So
//! every stream declares enough UDF work per operation ([`COST_US`]) that
//! its batches engage two workers, the engine runs on at least two threads,
//! and the engine's decisions are compared on the batches that engaged two.

use std::path::PathBuf;

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, StreamApp, TxnBuilder, TxnEngine, TxnOutcome};
use morphstream_common::config::test_threads;
use morphstream_common::{Timestamp, WorkloadConfig, WORK_PER_WORKER_US};
use morphstream_dataflow::apps::FraudEnrichmentStage;
use morphstream_dataflow::{build_events, ScenarioSpec};
use morphstream_scheduler::{DecisionModel, Granularity, WorkloadObservation};
use morphstream_tpg::{SchedulingUnits, TpgBuilder, Transaction, TransactionBatch};
use morphstream_workloads::{GrepSumApp, GsEvent, StreamingLedgerApp};

/// UDF work every operation of a checked stream declares, µs: a 512-event
/// batch of single-operation transactions — the smallest checked here —
/// then declares past one worker's share, so the batches engage two
/// workers and take a decision. The model reads cost only against 50 µs,
/// so the streams decide as they do at C = 0.
const COST_US: u64 = 5;

/// `A`, with every operation declaring [`COST_US`]: for the apps that
/// declare no cost of their own.
struct Costed<A>(A);

impl<A: StreamApp> StreamApp for Costed<A> {
    type Event = A::Event;
    type Output = A::Output;

    fn state_access(&self, event: &A::Event, txn: &mut TxnBuilder) {
        txn.set_cost_us(COST_US);
        self.0.state_access(event, txn);
    }

    fn post_process(&self, event: &A::Event, outcome: &TxnOutcome) -> A::Output {
        self.0.post_process(event, outcome)
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.0.expected_abort_ratio()
    }
}

/// What one stream's batches that engaged two or more workers added up to.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    batches: usize,
    /// Batches on which the model asked for the cycle flag.
    asked: usize,
    /// Batches scheduled coarse-grained.
    coarse: usize,
}

/// Plan every batch of `events` as the engine does and compare the lazy
/// decision with the eager one; then run the engine itself over the same
/// events and compare what it decided and how many coarse partitions it
/// built on the batches that engaged two or more workers — there must be
/// some. The tally counts those batches.
fn check<A: StreamApp>(
    label: &str,
    make_app: impl Fn(&StateStore) -> A,
    events: &[A::Event],
    punctuation: usize,
) -> Tally
where
    A::Event: Clone,
{
    let model = DecisionModel::new();
    let planner = TpgBuilder::new().with_threads(2);
    let store = StateStore::new();
    let app = make_app(&store);
    let mut decisions = Vec::new();
    for (index, batch_events) in events.chunks(punctuation).enumerate() {
        let ts_base = (index * punctuation) as Timestamp + 1;
        let mut batch =
            TransactionBatch::new().with_expected_abort_ratio(app.expected_abort_ratio());
        for (i, event) in batch_events.iter().enumerate() {
            let mut builder = TxnBuilder::new();
            app.state_access(event, &mut builder);
            let txn = Transaction::new(ts_base + i as Timestamp, builder.into_ops());
            batch.push(txn.with_event_index(i));
        }
        let tpg = planner.build(batch);
        let stats = tpg.stats();

        let coarse = SchedulingUnits::coarse(&tpg);
        let eager = model.decide(&WorkloadObservation::new(stats.clone(), coarse.had_cycles));
        let mut asked = false;
        let lazy = model.decide_with(stats, || {
            asked = true;
            SchedulingUnits::coarse(&tpg).had_cycles
        });
        assert_eq!(lazy, eager, "{label}, batch {index}");

        // c-schedule is left open when an acyclic partition would take it.
        let open = model
            .decide(&WorkloadObservation::new(stats.clone(), false))
            .granularity
            == Granularity::Coarse;
        assert_eq!(asked, open, "{label}, batch {index}: {stats:?}");
        if eager.granularity == Granularity::Coarse {
            assert!(asked && !coarse.had_cycles, "{label}, batch {index}");
        }
        decisions.push((eager, asked));
    }

    let store = StateStore::new();
    let threads = test_threads(2).max(2);
    let config = EngineConfig::with_threads(threads).with_punctuation_interval(punctuation);
    let mut engine = MorphStream::new(make_app(&store), store, config);
    let report = engine.run(events.iter().cloned());
    assert_eq!(report.batches.len(), decisions.len(), "{label}");
    let mut tally = Tally::default();
    for (index, (batch, (eager, asked))) in report.batches.iter().zip(decisions).enumerate() {
        if batch.workers < 2 {
            assert_eq!(batch.coarse_unit_builds, 0, "{label}, batch {index}");
            continue;
        }
        assert_eq!(
            batch.decision, eager,
            "{label}, batch {index}: the decision"
        );
        assert_eq!(
            batch.coarse_unit_builds,
            u64::from(asked),
            "{label}, batch {index}: coarse builds"
        );
        tally.batches += 1;
        tally.asked += asked as usize;
        tally.coarse += (eager.granularity == Granularity::Coarse) as usize;
    }
    assert!(tally.batches > 0, "{label}: no batch engaged two workers");
    assert_eq!(report.coarse_unit_builds, tally.asked as u64, "{label}");
    tally
}

/// The benchmark's Streaming Ledger shapes (`benchmark/src/spec.rs`):
/// `(name, θ, abort ratio, punctuation, keys, transfer ratio)`. The fourth,
/// served by `serve_mem` / `serve_durable`, is `sl_overhead`'s.
const SL_SHAPES: [(&str, f64, f64, usize, u64, f64); 3] = [
    ("sl_paper", 0.2, 0.01, 10_240, 100_000, 0.6),
    ("sl_overhead and serve_*", 0.2, 0.01, 1_024, 100_000, 0.6),
    ("sl_contended", 1.0, 0.2, 1_024, 10_000, 1.0),
];

/// Events of each benchmark stream the decisions are checked on.
const STREAM_EVENTS: usize = 20_480;

fn sl_config(theta: f64, abort_ratio: f64, punctuation: usize, keys: u64) -> WorkloadConfig {
    WorkloadConfig::streaming_ledger()
        .with_zipf_theta(theta)
        .with_abort_ratio(abort_ratio)
        .with_udf_complexity_us(COST_US)
        .with_txns_per_batch(punctuation)
        .with_key_space(keys)
        .with_seed(0xD5EE_D001)
}

#[test]
fn benchmark_streams_decide_as_the_eager_form_and_build_no_coarse_units() {
    for (name, theta, abort_ratio, punctuation, keys, transfer_ratio) in SL_SHAPES {
        let config = sl_config(theta, abort_ratio, punctuation, keys);
        let events = StreamingLedgerApp::generate(&config, STREAM_EVENTS, transfer_ratio);
        let tally = check(
            name,
            |store| StreamingLedgerApp::new(store, &config),
            &events,
            punctuation,
        );
        // `scheduler.share_coarse` is 0.0 on every benchmark workload, and
        // the TD/PD test alone settles it: the partition is never built.
        assert_eq!((tally.asked, tally.coarse), (0, 0), "{name}");
    }

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmark/scenarios/fraud_bench.toml");
    let text = std::fs::read_to_string(&path).expect("the benchmark's fraud scenario");
    let mut spec = ScenarioSpec::parse(&text, "fraud_bench.toml").expect("valid");
    let feeds = spec.feeds.len();
    for feed in &mut spec.feeds {
        feed.events = STREAM_EVENTS / feeds;
    }
    let events = build_events(&spec).expect("feeds generate");
    assert!(spec.punctuation as u64 * COST_US >= WORK_PER_WORKER_US);
    let tally = check(
        "topo_fraud entry",
        |store| Costed(FraudEnrichmentStage::new(store, "enrichment")),
        &events,
        spec.punctuation,
    );
    assert_eq!(tally.coarse, 0);
}

/// Grep&Sum base of the decision sweeps (`figs::gs_config` in
/// `crates/bench`): Table 6's C = 10 µs, so at two threads the engine runs
/// its batches on two workers.
fn gs_base() -> WorkloadConfig {
    WorkloadConfig::grep_sum()
        .with_key_space(20_000)
        .with_txns_per_batch(1_024)
}

#[test]
fn decision_sweep_points_decide_as_the_eager_form() {
    const COUNT: usize = 4_096;
    let mut points: Vec<(String, WorkloadConfig, Vec<GsEvent>)> = Vec::new();
    let mut point = |label: String, config: WorkloadConfig| {
        let events = GrepSumApp::generate(&config, COUNT);
        points.push((label, config, events));
    };
    // fig18: punctuation interval and skew
    for interval in [512, 1_024, 4_096] {
        let config = gs_base().with_txns_per_batch(interval);
        point(format!("fig18 T={interval}"), config.with_abort_ratio(0.0));
    }
    for theta in [0.0, 0.5, 1.0] {
        let config = gs_base().with_zipf_theta(theta).with_abort_ratio(0.0);
        point(format!("fig18 theta={theta}"), config);
    }
    // fig19: acyclic / cyclic accesses and punctuation interval
    for states in [1, 3] {
        let config = gs_base().with_states_per_op(states).with_abort_ratio(0.0);
        point(format!("fig19 r={states}"), config);
    }
    for interval in [512, 1_024, 4_096] {
        let config = gs_base().with_states_per_op(1).with_abort_ratio(0.0);
        point(
            format!("fig19 r=1 T={interval}"),
            config.with_txns_per_batch(interval),
        );
    }
    // fig20: UDF cost and abort ratio (C = 0 declares `COST_US`)
    for cost in [COST_US, 20, 50] {
        let config = gs_base().with_udf_complexity_us(cost).with_abort_ratio(0.4);
        point(format!("fig20 C={cost}"), config);
    }
    for percent in [10, 50, 90] {
        let config = gs_base().with_udf_complexity_us(COST_US);
        point(
            format!("fig20 a={percent}%"),
            config.with_abort_ratio(percent as f64 / 100.0),
        );
    }
    // fig19 (c): single- and multi-state updates mixed at a ratio
    let config = gs_base().with_abort_ratio(0.0);
    let multi = GrepSumApp::generate(&config.with_states_per_op(3), COUNT);
    let single = GrepSumApp::generate(&config.with_states_per_op(1), COUNT);
    for ratio in [10, 50, 90] {
        let pick = |i: usize| {
            if i % 100 < ratio {
                &multi[i]
            } else {
                &single[i]
            }
        };
        let events = (0..COUNT).map(|i| pick(i).clone()).collect();
        points.push((format!("fig19 multi={ratio}%"), config, events));
    }

    for (label, config, events) in &points {
        check(
            label,
            |store| GrepSumApp::new(store, config),
            events,
            config.txns_per_batch,
        );
    }
}

#[test]
fn chain_heavy_streams_take_the_coarse_branch_and_the_cycle_veto() {
    // Deposits only, over sixteen accounts: long independent operation
    // chains, no parametric dependencies — the case `c-schedule` is for.
    let config = sl_config(0.0, 0.0, 1_024, 16);
    let deposits = StreamingLedgerApp::generate(&config, 8 * 1_024, 0.0);
    let tally = check(
        "deposits over 16 accounts",
        |store| StreamingLedgerApp::new(store, &config),
        &deposits,
        1_024,
    );
    assert_eq!(tally.asked, tally.batches);
    assert_eq!(tally.coarse, tally.batches);

    // One transfer in twenty among the same accounts keeps the PD count
    // under the threshold but ties the chains into cycles: the flag is
    // asked for, and it vetoes.
    let mixed = StreamingLedgerApp::generate(&config, 8 * 1_024, 0.05);
    let tally = check(
        "deposits with a few transfers",
        |store| StreamingLedgerApp::new(store, &config),
        &mixed,
        1_024,
    );
    assert_eq!(tally.asked, tally.batches);
    assert_eq!(tally.coarse, 0);

    // A fixed fine-grained decision builds no coarse partition at all, and
    // a fixed coarse-grained one builds exactly the one it runs on. Only a
    // batch on two or more workers runs on units: at 0 µs per operation a
    // batch declares no UDF work and builds none; at 3 µs it declares a
    // second worker's share and builds one.
    for cost_us in [0, 3] {
        for granularity in [Granularity::Fine, Granularity::Coarse] {
            let store = StateStore::new();
            let app = StreamingLedgerApp::new(&store, &config.with_udf_complexity_us(cost_us));
            let engine_config =
                EngineConfig::with_threads(test_threads(2)).with_punctuation_interval(1_024);
            let decision = morphstream::SchedulingDecision {
                granularity,
                ..Default::default()
            };
            let mut engine =
                MorphStream::new(app, store, engine_config).with_fixed_decision(decision);
            let report = engine.run(mixed.iter().cloned());
            let spread = report.batches.iter().filter(|b| b.workers > 1).count() as u64;
            if cost_us == 0 {
                assert_eq!(spread, 0);
            }
            let builds = match granularity {
                Granularity::Fine => 0,
                Granularity::Coarse => spread,
            };
            assert_eq!(
                report.coarse_unit_builds, builds,
                "{granularity:?} at {cost_us} µs"
            );
        }
    }
}
