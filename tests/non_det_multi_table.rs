//! Non-deterministic accesses on one table, interleaved with real reads and
//! writes on two tables and parameters that cross them, on several workers:
//! a non-det operation must be ordered against every list of its own table
//! (and against the parameters read from that table), never against another
//! table's. Every mode — adaptive MorphStream, each fixed decision, TStream
//! and S-Store — at two and four threads must leave the state and outputs of
//! the one-worker run. Every batch of MorphStream and TStream engages at
//! least two workers. S-Store engages exactly one: every batch holds a
//! non-deterministic access, which names every partition, so its partitions
//! merge into one serial loop.

use std::sync::Arc;

use morphstream::storage::StateStore;
use morphstream::{
    EngineConfig, MorphStream, SchedulingDecision, StreamApp, TxnBuilder, TxnEngine, TxnOutcome,
    Udf, UdfInput, UdfOutcome,
};
use morphstream_baselines::{SStore, TStream};
use morphstream_common::{effective_workers, StateRef, TableId, Value};

const KEYS: u64 = 8;
const EVENTS: u64 = 384;
const PER_BATCH: usize = 96;
/// Declared cost per operation: a batch of 96 events declares ≈ 9 ms, so
/// two and four threads engage two and four workers.
const COST_US: u64 = 40;

/// Tables A and B. A takes non-det writes and reads (their keys a function
/// of the timestamp) and real writes; B takes real writes only; parameters
/// read A from B's writes and B from A's.
struct TwoTables {
    a: TableId,
    b: TableId,
}

/// A write whose value depends on the order it sees its inputs in.
fn mix() -> Udf {
    Arc::new(|input: &UdfInput| {
        let params: Value = input.params.iter().sum();
        Ok(UdfOutcome::Value(
            (input.target * 3 + params + 1).rem_euclid(1_000_003),
        ))
    })
}

/// Whether the transaction committed, and what each of its operations read
/// or wrote.
type Output = (bool, Vec<Option<Value>>);

impl StreamApp for TwoTables {
    type Event = u64;
    type Output = Output;

    fn state_access(&self, &i: &u64, txn: &mut TxnBuilder) {
        let (a, b) = (self.a, self.b);
        let key = i % KEYS;
        txn.set_cost_us(COST_US);
        match i % 4 {
            0 => txn
                .non_det_write(
                    a,
                    Arc::new(|ts| ts * 5 % KEYS),
                    vec![StateRef::new(b, key)],
                    mix(),
                )
                .write(b, (key + 1) % KEYS, mix()),
            1 => txn
                .non_det_read(a, Arc::new(|ts| ts * 3 % KEYS), None)
                .write_with_params(b, key, vec![StateRef::new(a, (i * 7) % KEYS)], mix()),
            2 => txn.write(a, key, mix()).non_det_write(
                a,
                Arc::new(|ts| ts % KEYS),
                vec![StateRef::new(a, (key + 3) % KEYS)],
                mix(),
            ),
            _ => txn.read(a, (i * 5) % KEYS).write_with_params(
                a,
                (key + 2) % KEYS,
                vec![StateRef::new(b, key)],
                mix(),
            ),
        };
    }

    fn post_process(&self, _: &u64, outcome: &TxnOutcome) -> Output {
        let results = outcome.op_results.iter().map(|(_, v)| *v).collect();
        (outcome.committed, results)
    }
}

type MakeEngine = Box<dyn Fn(TwoTables, StateStore, EngineConfig) -> MorphStream<TwoTables>>;

/// Every mode, named, and whether its batches run as serial loops over
/// merged partitions (S-Store) rather than on the engaged workers.
fn modes() -> Vec<(String, MakeEngine, bool)> {
    let mut modes: Vec<(String, MakeEngine, bool)> = vec![(
        "adaptive MorphStream".into(),
        Box::new(MorphStream::new),
        false,
    )];
    for decision in SchedulingDecision::all() {
        modes.push((
            format!("MorphStream under {decision}"),
            Box::new(move |app, store, config| {
                MorphStream::new(app, store, config).with_fixed_decision(decision)
            }),
            false,
        ));
    }
    modes.push(("TStream".into(), Box::new(TStream::engine), false));
    modes.push(("S-Store".into(), Box::new(SStore::engine), true));
    modes
}

/// Digest, outputs and the workers of every batch of one run.
fn run(make: &MakeEngine, threads: usize) -> (u64, Vec<Output>, Vec<usize>) {
    let store = StateStore::new();
    let (a, b) = (
        store.create_table("a", 1, false),
        store.create_table("b", 2, false),
    );
    store.preallocate_range(a, KEYS).unwrap();
    store.preallocate_range(b, KEYS).unwrap();
    let config = EngineConfig::with_threads(threads).with_punctuation_interval(PER_BATCH);
    let report = make(TwoTables { a, b }, store.clone(), config).run(0..EVENTS);
    let workers = report.batches.iter().map(|s| s.workers).collect();
    (store.state_digest(), report.outputs, workers)
}

#[test]
fn non_det_accesses_on_one_of_two_tables_agree_with_one_worker_in_every_mode() {
    assert_eq!(effective_workers(4, PER_BATCH as u64 * 2 * COST_US), 4);
    let modes = modes();
    let (digest, outputs, workers) = run(&modes[0].1, 1);
    assert_eq!(workers, vec![1; EVENTS as usize / PER_BATCH]);
    assert!(outputs.iter().all(|(committed, _)| *committed));
    for (name, make, by_partition) in &modes {
        for threads in [2, 4] {
            let (d, o, workers) = run(make, threads);
            let label = format!("{name} at {threads} threads");
            if *by_partition {
                assert!(workers.iter().all(|&w| w == 1), "{label}: {workers:?}");
            } else {
                assert!(workers.iter().all(|&w| w >= 2), "{label}: {workers:?}");
            }
            assert_eq!(d, digest, "{label}: state");
            assert!(o == outputs, "{label}: outputs");
        }
    }
}
