//! A one-worker batch is a plain loop over its transactions in timestamp
//! order, whatever decision it runs under: the order the multi-version
//! store sees versions in is a schedule of every TPG. Stated as orders and
//! counts, so the gate means the same on any host:
//!
//! * the UDFs record `(ts, stmt)` as they are evaluated, and the first
//!   `num_ops` evaluations come in that order;
//! * a failing transaction is undone at once and no other transaction has
//!   read its writes, so the batch redoes nothing and evaluates each
//!   operation exactly once, under every decision, TStream's and S-Store's
//!   included;
//! * the state and the outputs equal those of a run on four workers.
//!
//! Every fifth transaction fails in its second write after its first write
//! ran, so each batch rolls back executed writes. The modes are adaptive
//! MorphStream, every fixed decision, TStream and S-Store, at one configured
//! thread and at two; MorphStream engages one worker at two threads too,
//! because the batch declares no UDF work. TStream keeps both threads, so at
//! two it is held to the state and outputs only. S-Store engages one worker
//! at every thread count, its four-worker reference included: every credit
//! writes account 0, so every transaction names account 0's partition and
//! the batch is one serial loop.

use std::sync::{Arc, Mutex};

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, EngineConfig, MorphStream, SchedulingDecision, StreamApp, TxnBuilder, TxnEngine,
    TxnOutcome, Udf, UdfInput, UdfOutcome,
};
use morphstream_baselines::{SStore, TStream};
use morphstream_common::{effective_workers, AbortReason, StateRef, TableId, Timestamp};

const EVENTS: u64 = 200;
const KEYS: u64 = 16;
/// Operations per batch: two per event, one punctuation for the stream.
const NUM_OPS: usize = 2 * EVENTS as usize;
/// Declared cost per operation that engages four workers for the reference.
const REFERENCE_COST_US: u64 = 20;

/// `(ts, stmt)` of every UDF evaluation, in evaluation order.
type Log = Arc<Mutex<Vec<(Timestamp, u32)>>>;

/// Transfers over `KEYS` accounts: withdraw one from `from`, then credit
/// account 0 with a function of `from` — a write that fails on every fifth
/// event. Every credit queues on account 0's chain, so an explorer reaches
/// the failing credit only after it ran later withdrawals from the same
/// `from`, which the abort must then redo.
struct Transfers {
    table: TableId,
    cost_us: u64,
    log: Log,
}

impl Transfers {
    /// `body` as a UDF that first logs its `(ts, stmt)`.
    fn logged(
        &self,
        stmt: u32,
        body: impl Fn(&UdfInput) -> Result<UdfOutcome, AbortReason> + Send + Sync + 'static,
    ) -> Udf {
        let log = self.log.clone();
        Arc::new(move |input: &UdfInput| {
            log.lock()
                .expect("a UDF panicked while logging")
                .push((input.ts, stmt));
            body(input)
        })
    }
}

impl StreamApp for Transfers {
    type Event = u64;
    type Output = bool;

    fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
        let (from, to) = (1 + event % (KEYS - 1), 0);
        let fails = event.is_multiple_of(5);
        let withdraw = self.logged(0, |input| Ok(UdfOutcome::Value(input.target - 1)));
        let credit = self.logged(1, move |input| {
            if fails {
                Err(AbortReason::Injected)
            } else {
                Ok(UdfOutcome::Value(input.target + input.params[0] % 7))
            }
        });
        txn.set_cost_us(self.cost_us)
            .write(self.table, from, withdraw)
            .write_with_params(
                self.table,
                to,
                vec![StateRef::new(self.table, from)],
                credit,
            );
    }

    fn post_process(&self, _event: &u64, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }
}

type MakeEngine = Box<dyn Fn(Transfers, StateStore, EngineConfig) -> MorphStream<Transfers>>;

/// What one run of the stream left behind.
struct Run {
    digest: u64,
    outputs: Vec<bool>,
    log: Vec<(Timestamp, u32)>,
    workers: usize,
    redone_ops: usize,
    abort_handling: AbortHandling,
}

/// Run the stream as one punctuation on `make`'s engine at `threads`, every
/// operation declaring `cost_us`.
fn run(make: &MakeEngine, threads: usize, cost_us: u64) -> Run {
    let store = StateStore::new();
    let table = store.create_table("accounts", 1_000, false);
    store.preallocate_range(table, KEYS).unwrap();
    let log = Log::default();
    let app = Transfers {
        table,
        cost_us,
        log: log.clone(),
    };
    let config = EngineConfig::with_threads(threads).with_punctuation_interval(EVENTS as usize);
    let report = make(app, store.clone(), config).run(0..EVENTS);
    assert_eq!(report.batches.len(), 1);
    assert_eq!(report.aborted, EVENTS.div_ceil(5) as usize);
    let batch = &report.batches[0];
    let log = log.lock().unwrap().clone();
    Run {
        digest: store.state_digest(),
        outputs: report.outputs,
        log,
        workers: batch.workers,
        redone_ops: batch.redone_ops,
        abort_handling: batch.decision.abort_handling,
    }
}

/// How a mode's batch engages workers.
#[derive(Clone, Copy, PartialEq)]
enum Engages {
    /// The workers its declared UDF work pays for: MorphStream.
    DeclaredWork,
    /// Every configured thread: TStream.
    Threads,
    /// One per merged group of partitions, here one: S-Store.
    OneLoop,
}

/// Every mode, named, and how it engages workers.
fn modes() -> Vec<(String, MakeEngine, Engages)> {
    let mut modes: Vec<(String, MakeEngine, Engages)> = vec![(
        "adaptive MorphStream".into(),
        Box::new(MorphStream::new),
        Engages::DeclaredWork,
    )];
    for decision in SchedulingDecision::all() {
        modes.push((
            format!("MorphStream under {decision}"),
            Box::new(move |app, store, config| {
                MorphStream::new(app, store, config).with_fixed_decision(decision)
            }),
            Engages::DeclaredWork,
        ));
    }
    modes.push((
        "TStream".into(),
        Box::new(TStream::engine),
        Engages::Threads,
    ));
    modes.push(("S-Store".into(), Box::new(SStore::engine), Engages::OneLoop));
    modes
}

#[test]
fn a_one_worker_batch_evaluates_in_timestamp_order_and_redoes_nothing_eagerly() {
    assert_eq!(effective_workers(4, NUM_OPS as u64 * REFERENCE_COST_US), 4);
    for (name, make, engages) in modes() {
        let reference = run(&make, 4, REFERENCE_COST_US);
        let reference_workers = if engages == Engages::OneLoop { 1 } else { 4 };
        assert_eq!(
            reference.workers, reference_workers,
            "{name}: the reference run"
        );
        for threads in [1, 2] {
            let one = run(&make, threads, 0);
            let label = format!("{name} at {threads} threads");
            assert_eq!(one.digest, reference.digest, "{label}: state");
            assert_eq!(one.outputs, reference.outputs, "{label}: outputs");
            if engages != Engages::Threads {
                assert_eq!(one.workers, 1, "{label}: workers engaged");
            }
            if one.workers > 1 {
                continue;
            }
            assert!(
                one.log.len() >= NUM_OPS,
                "{label}: {} evaluations",
                one.log.len()
            );
            let main_loop = &one.log[..NUM_OPS];
            let out_of_order = main_loop.windows(2).position(|w| w[0] >= w[1]);
            assert_eq!(
                out_of_order,
                None,
                "{label}: evaluation {:?} then {:?}",
                out_of_order.map(|i| main_loop[i]),
                out_of_order.map(|i| main_loop[i + 1])
            );
            assert_eq!(
                one.redone_ops, 0,
                "{label}: redone under {:?}",
                one.abort_handling
            );
            assert_eq!(one.log.len(), NUM_OPS, "{label}: evaluations");
        }
    }
}
