//! Cross-crate integration tests: every engine (MorphStream under all fixed
//! scheduling decisions plus the correct baselines) must produce the same
//! final state as a sequential oracle on the same workload.

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, SchedulingDecision, TxnEngine};
use std::time::Duration;

use morphstream_baselines::{LockedSpe, SStore, TStream};
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

/// Sequential oracle: apply the ledger semantics one event at a time.
fn oracle_balances(config: &WorkloadConfig, events: &[SlEvent]) -> Vec<Value> {
    let mut balances = vec![morphstream_workloads::sl::INITIAL_BALANCE; config.key_space as usize];
    for event in events {
        match event {
            SlEvent::Deposit { account, amount } => balances[*account as usize] += amount,
            SlEvent::Transfer { from, to, amount } => {
                if balances[*from as usize] >= *amount {
                    balances[*from as usize] -= amount;
                    balances[*to as usize] += amount;
                }
            }
        }
    }
    balances
}

fn final_balances(
    store: &StateStore,
    app: &StreamingLedgerApp,
    config: &WorkloadConfig,
) -> Vec<Value> {
    let snapshot = store.snapshot_latest(app.accounts_table()).unwrap();
    (0..config.key_space).map(|k| snapshot[&k]).collect()
}

#[test]
fn morphstream_adaptive_matches_the_sequential_oracle() {
    let config = config();
    let events = events();
    let expected = oracle_balances(&config, &events);

    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = MorphStream::new(
        app,
        store.clone(),
        EngineConfig::with_threads(test_threads(4))
            .with_punctuation_interval(config.txns_per_batch),
    );
    let report = engine.run(events);
    assert!(report.aborted > 0, "the workload must exercise aborts");
    let app = StreamingLedgerApp::new(&store, &config);
    assert_eq!(final_balances(&store, &app, &config), expected);
}

#[test]
fn every_fixed_scheduling_decision_matches_the_oracle() {
    let config = config();
    let events = events();
    let expected = oracle_balances(&config, &events);

    for decision in SchedulingDecision::all() {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = MorphStream::new(
            app,
            store.clone(),
            EngineConfig::with_threads(test_threads(4))
                .with_punctuation_interval(config.txns_per_batch),
        )
        .with_fixed_decision(decision);
        engine.run(events.clone());
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "decision {decision} diverged from the oracle"
        );
    }
}

#[test]
fn tstream_and_sstore_baselines_match_the_oracle() {
    let config = config();
    let events = events();
    let expected = oracle_balances(&config, &events);

    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = TStream::engine(
            app,
            store.clone(),
            EngineConfig::with_threads(test_threads(4))
                .with_punctuation_interval(config.txns_per_batch),
        );
        engine.run(events.clone());
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "TStream diverged"
        );
    }
    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = SStore::engine(
            app,
            store.clone(),
            EngineConfig::with_threads(test_threads(4))
                .with_punctuation_interval(config.txns_per_batch),
        );
        engine.run(events.clone());
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "S-Store diverged"
        );
    }
}

/// Push `events` one by one through the unified [`TxnEngine`] trait — the
/// same driver loop regardless of which system is underneath.
fn push_through_trait<E: TxnEngine<Event = SlEvent>>(engine: &mut E, events: &[SlEvent])
where
    SlEvent: Clone,
{
    let mut pipeline = engine.pipeline();
    for event in events.iter().cloned() {
        pipeline.push(event);
    }
    let report = pipeline.finish();
    assert_eq!(report.events(), events.len());
}

#[test]
fn engines_pushed_through_the_txn_engine_trait_match_the_oracle() {
    let config = config();
    let events = events();
    let expected = oracle_balances(&config, &events);
    let engine_config = EngineConfig::with_threads(test_threads(4))
        .with_punctuation_interval(config.txns_per_batch);

    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = MorphStream::new(app, store.clone(), engine_config);
        push_through_trait(&mut engine, &events);
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "MorphStream (pushed) diverged"
        );
    }
    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = TStream::engine(app, store.clone(), engine_config);
        push_through_trait(&mut engine, &events);
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "TStream (pushed) diverged"
        );
    }
    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = SStore::engine(app, store.clone(), engine_config);
        push_through_trait(&mut engine, &events);
        let app = StreamingLedgerApp::new(&store, &config);
        assert_eq!(
            final_balances(&store, &app, &config),
            expected,
            "S-Store (pushed) diverged"
        );
    }
    {
        // The locked conventional SPE is serializable but not event-time
        // ordered (see below): pushed through the same trait it must still
        // conserve money.
        let deposits: Value = events
            .iter()
            .filter_map(|e| match e {
                SlEvent::Deposit { amount, .. } => Some(*amount),
                _ => None,
            })
            .sum();
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = LockedSpe::with_locks(app, store.clone(), engine_config, Duration::ZERO);
        push_through_trait(&mut engine, &events);
        let app = StreamingLedgerApp::new(&store, &config);
        let total: Value = final_balances(&store, &app, &config).iter().sum();
        assert_eq!(
            total,
            config.key_space as Value * morphstream_workloads::sl::INITIAL_BALANCE + deposits,
            "locked SPE (pushed) lost or created money"
        );
    }
}

#[test]
fn locked_spe_with_locks_conserves_money_but_unlocked_may_not() {
    let config = config();
    let events = events();
    // The locked conventional SPE is serializable but does not enforce the
    // event-timestamp order the TSPEs (and the oracle) use, so per-account
    // balances may differ. The invariant it must uphold is conservation:
    // deposits never abort and transfers move money without creating it.
    let deposits: Value = events
        .iter()
        .filter_map(|e| match e {
            SlEvent::Deposit { amount, .. } => Some(*amount),
            _ => None,
        })
        .sum();
    let expected_total: Value =
        config.key_space as Value * morphstream_workloads::sl::INITIAL_BALANCE + deposits;

    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = LockedSpe::with_locks(
        app,
        store.clone(),
        EngineConfig::with_threads(test_threads(4))
            .with_punctuation_interval(config.txns_per_batch),
        Duration::ZERO,
    );
    engine.run(events.clone());
    let app = StreamingLedgerApp::new(&store, &config);
    let balances = final_balances(&store, &app, &config);
    assert!(balances.iter().all(|b| *b >= 0));
    assert_eq!(balances.iter().sum::<Value>(), expected_total);

    // The unlocked variant processes everything but gives no serializability
    // guarantee: it must not crash, must report every event, and its races
    // stay within what lost updates can do (checked below).
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, &config);
    let mut engine = LockedSpe::without_locks(
        app,
        store.clone(),
        EngineConfig::with_threads(test_threads(4))
            .with_punctuation_interval(config.txns_per_batch),
        Duration::ZERO,
    );
    let transfers: Value = events
        .iter()
        .filter_map(|e| match e {
            SlEvent::Transfer { amount, .. } => Some(*amount),
            _ => None,
        })
        .sum();
    let report = engine.run(events);
    assert_eq!(report.events(), 1_500);
    // Every account is still readable, and each final balance is the initial
    // one plus some subset of the deltas its writers computed (a lost update
    // drops deltas, it never invents one). A lost debit keeps its credit, so
    // the racy total can exceed the serializable one — by at most every
    // transfer's amount; losing every deposit and every credit bounds it
    // from below.
    let app = StreamingLedgerApp::new(&store, &config);
    let unlocked_total: Value = final_balances(&store, &app, &config).iter().sum();
    assert!(unlocked_total <= expected_total + transfers);
    assert!(unlocked_total >= expected_total - deposits - transfers);
}
