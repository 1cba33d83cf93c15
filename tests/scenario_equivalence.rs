//! Digest equivalence for the TOML scenario catalog: every multi-stage
//! scenario, loaded from its `scenarios/*.toml` file and run as a topology,
//! must produce the exact `state_digest()` of a *fused* single-operator
//! oracle that performs all stages' writes inside one transaction per event
//! over the merged feed — across the inline vs the threaded topology
//! driver and worker-thread counts. For `adclick.toml` this proves the
//! multi-entry dispatch (two feeds entering through different entry stages)
//! is equivalent to a single merged feed; for `exchange.toml` it proves
//! cross-stage abort semantics (an unfilled sell must not be tallied) match
//! a fused withdraw-and-tally transaction that relies on full-transaction
//! rollback.

use std::path::PathBuf;

use morphstream::app::result_or_zero;
use morphstream::storage::StateStore;
use morphstream::{udfs, EngineConfig, MorphStream, StreamApp, TxnBuilder, TxnEngine, TxnOutcome};
use morphstream_common::config::test_threads;
use morphstream_common::TableId;
use morphstream_dataflow::{load_file, EventKind, LoadOverrides, ScenarioEvent};

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

/// Load `scenarios/<name>` with the given runtime overrides, run it to
/// completion, and return `(state_digest, terminal_outputs, aborted)`.
fn run_scenario(name: &str, threads: usize, concurrent: bool) -> (u64, usize, usize) {
    let overrides = LoadOverrides {
        threads: Some(threads),
        concurrent: Some(concurrent),
    };
    let mut loaded = load_file(&scenario_path(name), &overrides).expect("scenario loads");
    let events = std::mem::take(&mut loaded.events);
    let mut pipeline = loaded.topology.pipeline();
    pipeline.push_iter(events);
    let report = pipeline.finish();
    (loaded.store.state_digest(), report.events(), report.aborted)
}

/// The merged, timestamp-sorted event feed of `scenarios/<name>` — exactly
/// what the loader hands the topology's dispatcher.
fn merged_events(name: &str) -> Vec<ScenarioEvent> {
    load_file(&scenario_path(name), &LoadOverrides::default())
        .expect("scenario loads")
        .events
}

/// Run a fused oracle app serially over the merged feed with the same
/// punctuation interval the scenario uses.
fn run_oracle<A>(
    store: &StateStore,
    app: A,
    events: Vec<ScenarioEvent>,
    punctuation: usize,
) -> (u64, usize, usize)
where
    A: StreamApp<Event = ScenarioEvent> + 'static,
    A::Output: Send + 'static,
{
    let config = EngineConfig::with_threads(1).with_punctuation_interval(punctuation);
    let mut engine = MorphStream::new(app, store.clone(), config);
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(events);
    let report = pipeline.finish();
    (store.state_digest(), report.events(), report.aborted)
}

// ---------------------------------------------------------------------------
// adclick.toml — two feeds, two entry stages, windowed join at the terminal
// ---------------------------------------------------------------------------

/// Fuses `imp-tally` + `click-tally` + `attribution` into one operator: an
/// impression counts into the impression tally and accumulates spend; a
/// click counts into the click tally, reads the impression window, and
/// records the attribution — all in a single transaction. Tables are created
/// in the loader's stage-declaration order so table ids line up with the
/// topology store.
struct AdClickOracle {
    imp_counts: TableId,
    click_counts: TableId,
    impressions: TableId,
    attributed: TableId,
    window: u64,
}

impl AdClickOracle {
    fn new(store: &StateStore, window: u64) -> Self {
        Self {
            imp_counts: store.create_table("imp-tally.counts", 0, true),
            click_counts: store.create_table("click-tally.counts", 0, true),
            impressions: store.create_table("attribution.impressions", 0, true),
            attributed: store.create_table("attribution.attributed", 0, true),
            window,
        }
    }
}

impl StreamApp for AdClickOracle {
    type Event = ScenarioEvent;
    type Output = bool;

    fn state_access(&self, ev: &ScenarioEvent, txn: &mut TxnBuilder) {
        if ev.kind == EventKind::Click {
            txn.write(self.click_counts, ev.key, udfs::add_delta(1));
            txn.window_read(self.impressions, ev.key, self.window, udfs::window_sum());
            txn.write(self.attributed, ev.key, udfs::add_delta(1));
        } else {
            txn.write(self.imp_counts, ev.key, udfs::add_delta(1));
            txn.write(self.impressions, ev.key, udfs::add_delta(ev.amount));
        }
    }

    fn post_process(&self, _ev: &ScenarioEvent, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }
}

#[test]
fn adclick_topology_matches_the_fused_merged_feed_oracle_on_both_runtimes() {
    let events = merged_events("adclick.toml");
    assert_eq!(events.len(), 4096);
    // Both entry ordinals are represented in the merged feed.
    assert!(events.iter().any(|ev| ev.feed == 0));
    assert!(events.iter().any(|ev| ev.feed == 1));

    let oracle_store = StateStore::new();
    let oracle = AdClickOracle::new(&oracle_store, 512);
    let (oracle_digest, oracle_events, oracle_aborted) =
        run_oracle(&oracle_store, oracle, events, 256);
    assert_eq!(oracle_events, 4096);
    assert_eq!(oracle_aborted, 0);

    for concurrent in [false, true] {
        for threads in [1, test_threads(4)] {
            let (digest, outputs, _) = run_scenario("adclick.toml", threads, concurrent);
            assert_eq!(
                digest, oracle_digest,
                "adclick digest diverged from fused oracle (concurrent={concurrent}, threads={threads})"
            );
            // Every event reaches the terminal through the forward routes.
            assert_eq!(outputs, 4096);
        }
    }
}

// ---------------------------------------------------------------------------
// exchange.toml — merged buy/sell feeds, aborting book, committed-only tally
// ---------------------------------------------------------------------------

/// Fuses `book` + `trade-tally`: the book write and the per-trader trade
/// count share one transaction, so an unfilled sell (withdraw abort) rolls
/// the tally increment back — mirroring the topology's `committed` route,
/// which only forwards executed orders to the tally stage.
struct ExchangeOracle {
    book: TableId,
    counts: TableId,
}

impl ExchangeOracle {
    fn new(store: &StateStore, restock: i64) -> Self {
        Self {
            book: store.create_table("book.book", restock, true),
            counts: store.create_table("trade-tally.counts", 0, true),
        }
    }
}

impl StreamApp for ExchangeOracle {
    type Event = ScenarioEvent;
    type Output = i64;

    fn state_access(&self, ev: &ScenarioEvent, txn: &mut TxnBuilder) {
        if ev.kind == EventKind::Sell {
            txn.write(self.book, ev.key2, udfs::withdraw(ev.amount));
        } else {
            txn.write(self.book, ev.key2, udfs::add_delta(ev.amount));
        }
        txn.write(self.counts, ev.key, udfs::add_delta(1));
    }

    fn post_process(&self, _ev: &ScenarioEvent, outcome: &TxnOutcome) -> i64 {
        result_or_zero(outcome, 0)
    }
}

#[test]
fn exchange_topology_matches_the_fused_oracle_and_aborts_unfilled_sells() {
    let events = merged_events("exchange.toml");
    assert_eq!(events.len(), 4096);

    let oracle_store = StateStore::new();
    let oracle = ExchangeOracle::new(&oracle_store, 120);
    let (oracle_digest, oracle_events, oracle_aborted) =
        run_oracle(&oracle_store, oracle, events, 256);
    assert_eq!(oracle_events, 4096);
    assert!(
        oracle_aborted > 0,
        "the restock level must leave some sells unfilled for the test to bite"
    );

    for concurrent in [false, true] {
        for threads in [1, test_threads(4)] {
            let (digest, outputs, aborted) = run_scenario("exchange.toml", threads, concurrent);
            assert_eq!(
                digest, oracle_digest,
                "exchange digest diverged from fused oracle (concurrent={concurrent}, threads={threads})"
            );
            // The `committed` route drops exactly the aborted orders.
            assert_eq!(outputs, 4096 - oracle_aborted);
            assert_eq!(aborted, oracle_aborted);
        }
    }
}
