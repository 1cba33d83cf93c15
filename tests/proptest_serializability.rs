//! Property-based end-to-end test: for arbitrary small ledger workloads and
//! arbitrary scheduling decisions, the committed state MorphStream produces
//! equals the state of a sequential oracle, and aborted transactions leave no
//! trace.

use proptest::prelude::*;

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, EngineConfig, ExplorationStrategy, Granularity, MorphStream, SchedulingDecision,
    StreamApp, TxnBuilder, TxnEngine, TxnOutcome,
};
use morphstream_common::{StateRef, TableId, Value};
use morphstream_tpg::udfs;

#[derive(Debug, Clone)]
enum Op {
    Deposit { account: u64, amount: Value },
    Transfer { from: u64, to: u64, amount: Value },
}

struct Ledger {
    accounts: TableId,
}

impl StreamApp for Ledger {
    type Event = Op;
    type Output = bool;

    fn state_access(&self, event: &Op, txn: &mut TxnBuilder) {
        match event {
            Op::Deposit { account, amount } => {
                txn.write(self.accounts, *account, udfs::add_delta(*amount));
            }
            Op::Transfer { from, to, amount } => {
                txn.write(self.accounts, *from, udfs::withdraw(*amount));
                txn.write_with_params(
                    self.accounts,
                    *to,
                    vec![StateRef::new(self.accounts, *from)],
                    udfs::credit_if_param_at_least(*amount, *amount),
                );
            }
        }
    }

    fn post_process(&self, _event: &Op, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }
}

const ACCOUNTS: u64 = 8;
const INITIAL: Value = 50;

/// Sequential oracle: final balances plus the commit/abort outcome of every
/// event in timestamp order (the serializable history the engine must match).
fn oracle_full(events: &[Op]) -> (Vec<Value>, Vec<bool>) {
    let mut balances = vec![INITIAL; ACCOUNTS as usize];
    let mut outcomes = Vec::with_capacity(events.len());
    for event in events {
        match event {
            Op::Deposit { account, amount } => {
                balances[*account as usize] += amount;
                outcomes.push(true);
            }
            Op::Transfer { from, to, amount } => {
                let ok = *from != *to && balances[*from as usize] >= *amount;
                if ok {
                    balances[*from as usize] -= amount;
                    balances[*to as usize] += amount;
                }
                outcomes.push(ok);
            }
        }
    }
    (balances, outcomes)
}

fn oracle(events: &[Op]) -> Vec<Value> {
    oracle_full(events).0
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ACCOUNTS, 1..30i64).prop_map(|(account, amount)| Op::Deposit { account, amount }),
        (0..ACCOUNTS, 0..ACCOUNTS, 1..60i64)
            .prop_filter_map("self transfer", |(from, to, amount)| {
                (from != to).then_some(Op::Transfer { from, to, amount })
            }),
    ]
}

fn decision_strategy() -> impl Strategy<Value = SchedulingDecision> {
    (
        prop_oneof![
            Just(ExplorationStrategy::StructuredBfs),
            Just(ExplorationStrategy::StructuredDfs),
            Just(ExplorationStrategy::NonStructured),
        ],
        prop_oneof![Just(Granularity::Fine), Just(Granularity::Coarse)],
        prop_oneof![Just(AbortHandling::Eager), Just(AbortHandling::Lazy)],
    )
        .prop_map(
            |(exploration, granularity, abort_handling)| SchedulingDecision {
                exploration,
                granularity,
                abort_handling,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn committed_state_matches_sequential_oracle(
        events in proptest::collection::vec(op_strategy(), 1..80),
        decision in decision_strategy(),
        threads in 1usize..4,
        punctuation in 1usize..40,
    ) {
        let expected = oracle(&events);

        let store = StateStore::new();
        let accounts = store.create_table("accounts", INITIAL, false);
        store.preallocate_range(accounts, ACCOUNTS).unwrap();
        let mut engine = MorphStream::new(
            Ledger { accounts },
            store.clone(),
            EngineConfig::with_threads(threads).with_punctuation_interval(punctuation),
        )
        .with_fixed_decision(decision);
        let report = engine.run(events.clone());

        prop_assert_eq!(report.events(), events.len());
        let snapshot = store.snapshot_latest(accounts).unwrap();
        let got: Vec<Value> = (0..ACCOUNTS).map(|k| snapshot[&k]).collect();
        prop_assert_eq!(got, expected);

        // money conservation: total = initial + committed deposits
        let committed_deposits: Value = events
            .iter()
            .zip(&report.outputs)
            .filter_map(|(event, committed)| match (event, committed) {
                (Op::Deposit { amount, .. }, true) => Some(*amount),
                _ => None,
            })
            .sum();
        let total: Value = snapshot.values().sum();
        prop_assert_eq!(total, INITIAL * ACCOUNTS as Value + committed_deposits);
    }

    /// Random batches pushed through a `Pipeline` session's `push_iter`
    /// with arbitrary chunking and punctuation boundaries, across the
    /// {1,2,4,8} thread matrix, must all reach the identical final
    /// `StateStore` snapshot and the identical serializable per-event
    /// history.
    #[test]
    fn pushed_pipelined_sessions_match_the_oracle_across_thread_counts(
        events in proptest::collection::vec(op_strategy(), 1..80),
        punctuation in 1usize..40,
        threads_idx in 0usize..4,
        chunk in 1usize..50,
    ) {
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (expected, expected_outcomes) = oracle_full(&events);

        let store = StateStore::new();
        let accounts = store.create_table("accounts", INITIAL, false);
        store.preallocate_range(accounts, ACCOUNTS).unwrap();
        let mut engine = MorphStream::new(
            Ledger { accounts },
            store.clone(),
            EngineConfig::with_threads(threads).with_punctuation_interval(punctuation),
        );
        let mut pipeline = engine.pipeline();
        for part in events.chunks(chunk) {
            pipeline.push_iter(part.iter().cloned());
        }
        let report = pipeline.finish();

        prop_assert_eq!(report.events(), events.len());
        // serializable history: per-event outcomes equal the sequential oracle
        prop_assert_eq!(&report.outputs, &expected_outcomes);
        let snapshot = store.snapshot_latest(accounts).unwrap();
        let got: Vec<Value> = (0..ACCOUNTS).map(|k| snapshot[&k]).collect();
        prop_assert_eq!(got, expected);
    }
}
