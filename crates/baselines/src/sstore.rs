//! S-Store reconstruction (Section 2.2).
//!
//! S-Store partitions the shared mutable state and schedules *whole state
//! transactions*: each partition is owned by one single-threaded site that
//! runs its transactions serially in timestamp order, operations inside a
//! transaction serially as well. This preserves every dependency type
//! trivially and makes aborts cheap, at the price of very limited
//! parallelism whenever transactions span partitions.
//!
//! The reconstruction plans no graph at any thread count. A key's partition
//! is `key % threads`. Every target key and parameter key of a transaction
//! names its partition, and a non-deterministic target, whose key is known
//! only when it runs, names every partition. A transaction that names
//! several partitions merges them for the batch, and each merged group of
//! partitions is one serial loop on its own worker
//! ([`execute_serial_groups`]): a batch whose transactions stay inside
//! their partitions runs one worker per partition it touches, one with a
//! non-deterministic access runs on one. Everything around the batch is
//! MorphStream's own punctuation path ([`SStore::engine`]).

use std::time::Instant;

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, BatchExecutor, EngineConfig, ExecutedBatch, ExplorationStrategy, Granularity,
    MorphStream, SchedulingDecision, StreamApp, Transaction, TransactionBatch,
};
use morphstream_executor::execute_serial_groups;

/// S-Store's one way to run a batch: whole transactions, dispatched as
/// their partitions free up, aborts resolved as they happen.
pub(crate) const DECISION: SchedulingDecision = SchedulingDecision {
    exploration: ExplorationStrategy::NonStructured,
    granularity: Granularity::Coarse,
    abort_handling: AbortHandling::Eager,
};

/// The S-Store batch executor: one serial loop per group of state
/// partitions the batch's transactions span.
pub struct SStore;

impl SStore {
    /// A MorphStream engine for `app` over `store` that runs every batch the
    /// S-Store way.
    pub fn engine<A: StreamApp>(app: A, store: StateStore, config: EngineConfig) -> MorphStream<A> {
        MorphStream::new(app, store, config).with_executor(SStore)
    }
}

impl BatchExecutor for SStore {
    fn execute(
        &mut self,
        batch: TransactionBatch,
        store: &StateStore,
        threads: usize,
    ) -> ExecutedBatch {
        let plan_started = Instant::now();
        let txns = batch.into_sorted();
        let groups = partition_groups(&txns, threads.max(1));
        let plan = plan_started.elapsed();
        let report = execute_serial_groups(&txns, &groups, store, DECISION);
        ExecutedBatch {
            outcomes: report.outcomes,
            breakdown: report.breakdown,
            redone_ops: report.redone_ops,
            plan,
            decision: Some(DECISION),
            coarse_unit_builds: 0,
            workers: groups.len(),
        }
    }
}

/// The transactions of `txns` grouped by the partitions they span, out of
/// `partitions`: each group lists its transactions in the order of `txns`,
/// and no two groups name a common partition. Groups come in the order of
/// their first transaction, so the split is a pure function of the batch.
fn partition_groups(txns: &[Transaction], partitions: usize) -> Vec<Vec<usize>> {
    // Union-find over the partitions, each root the smallest of its set.
    let mut parent: Vec<usize> = (0..partitions).collect();
    fn root(parent: &mut [usize], mut p: usize) -> usize {
        while parent[p] != p {
            parent[p] = parent[parent[p]];
            p = parent[p];
        }
        p
    }
    let of_key = |key: u64| (key % partitions as u64) as usize;
    // Each transaction merges every partition it names into the first it
    // names; one with no operation names partition 0.
    let firsts: Vec<usize> = txns
        .iter()
        .map(|txn| {
            let mut named = txn.ops.iter().flat_map(|op| {
                let target = op.target.known().map_or(0..partitions, |key| {
                    let p = of_key(key);
                    p..p + 1
                });
                target.chain(op.params.iter().map(|param| of_key(param.key)))
            });
            let first = named.next().unwrap_or(0);
            for p in named {
                let (a, b) = (root(&mut parent, first), root(&mut parent, p));
                parent[a.max(b)] = a.min(b);
            }
            first
        })
        .collect();

    let mut group_of_root = vec![None; partitions];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (txn, first) in firsts.into_iter().enumerate() {
        let group = *group_of_root[root(&mut parent, first)].get_or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(txn);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};

    use morphstream::{udfs, TxnBuilder, TxnEngine, TxnOutcome, UdfInput, UdfOutcome};
    use morphstream_common::{StateRef, TableId, Timestamp, Value, WorkloadConfig};
    use morphstream_workloads::{GrepSumApp, StreamingLedgerApp};

    struct Transfers {
        accounts: TableId,
    }

    impl StreamApp for Transfers {
        type Event = (u64, u64, Value);
        type Output = bool;

        fn state_access(&self, (from, to, amount): &(u64, u64, Value), txn: &mut TxnBuilder) {
            txn.write(self.accounts, *from, udfs::withdraw(*amount));
            txn.write_with_params(
                self.accounts,
                *to,
                vec![StateRef::new(self.accounts, *from)],
                udfs::credit_if_param_at_least(*amount, *amount),
            );
        }

        fn post_process(&self, _e: &(u64, u64, Value), outcome: &TxnOutcome) -> bool {
            outcome.committed
        }
    }

    #[test]
    fn sstore_preserves_total_balance_under_transfers() {
        let store = StateStore::new();
        let accounts = store.create_table("accounts", 1_000, false);
        store.preallocate_range(accounts, 32).unwrap();
        let mut engine = SStore::engine(
            Transfers { accounts },
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(64),
        );
        let events: Vec<(u64, u64, Value)> =
            (0..200).map(|i| (i % 32, (i * 7 + 1) % 32, 5)).collect();
        let report = engine.run(events);
        assert_eq!(report.events(), 200);
        let total: Value = store.snapshot_latest(accounts).unwrap().values().sum();
        assert_eq!(total, 32 * 1_000);
        assert!(report.k_events_per_second() > 0.0);
    }

    /// An application's transactions, with the outcome of each as its output.
    struct Outcomes<A>(A);

    impl<A: StreamApp> StreamApp for Outcomes<A> {
        type Event = A::Event;
        type Output = TxnOutcome;

        fn state_access(&self, event: &A::Event, txn: &mut TxnBuilder) {
            self.0.state_access(event, txn);
        }

        fn post_process(&self, _event: &A::Event, outcome: &TxnOutcome) -> TxnOutcome {
            outcome.clone()
        }
    }

    /// Events per punctuation in the streams below.
    const PER_BATCH: usize = 32;

    /// State digest, outcomes and per-batch workers of `events` on S-Store.
    fn run_outcomes<A: StreamApp>(
        app: impl FnOnce(&StateStore) -> A,
        events: &[A::Event],
        threads: usize,
    ) -> (u64, Vec<TxnOutcome>, Vec<usize>)
    where
        A::Event: Clone,
    {
        let store = StateStore::new();
        let app = Outcomes(app(&store));
        let config = EngineConfig::with_threads(threads).with_punctuation_interval(PER_BATCH);
        let report = SStore::engine(app, store.clone(), config).run(events.to_vec());
        let workers = report.batches.iter().map(|b| b.workers).collect();
        (store.state_digest(), report.outputs, workers)
    }

    /// `a` and `b` in alternating punctuation-sized chunks.
    fn alternate<E>(a: Vec<E>, b: Vec<E>) -> Vec<E> {
        let (mut a, mut b) = (a.into_iter(), b.into_iter());
        let mut out = Vec::new();
        loop {
            let before = out.len();
            out.extend(a.by_ref().take(PER_BATCH));
            out.extend(b.by_ref().take(PER_BATCH));
            if out.len() == before {
                return out;
            }
        }
    }

    fn assert_thread_independent<A: StreamApp>(
        name: &str,
        app: impl Fn(&StateStore) -> A,
        events: &[A::Event],
    ) where
        A::Event: Clone,
    {
        let (digest, outcomes, workers) = run_outcomes(&app, events, 1);
        assert!(workers.iter().all(|&w| w == 1), "{name}: {workers:?}");
        assert!(
            outcomes.iter().any(|o| !o.committed),
            "{name}: nothing aborted"
        );
        for threads in [2, 4] {
            let (d, o, workers) = run_outcomes(&app, events, threads);
            let label = format!("{name} at {threads} threads");
            assert!(workers.iter().any(|&w| w >= 2), "{label}: {workers:?}");
            assert!(workers.contains(&1), "{label}: {workers:?}");
            assert_eq!(d, digest, "{label}: state");
            assert!(o == outcomes, "{label}: outcomes");
        }
    }

    /// Commit flags, abort reasons and every operation's id and value are
    /// those of the one-worker run at any thread count: on a Streaming
    /// Ledger stream whose deposit batches split and whose transfer batches
    /// merge, and on a GrepSum stream of window reads, reads across
    /// partitions and non-deterministic writes.
    #[test]
    fn outcomes_do_not_depend_on_the_thread_count() {
        let config = WorkloadConfig::streaming_ledger()
            .with_key_space(64)
            .with_abort_ratio(0.2)
            .with_udf_complexity_us(0);
        let sl = alternate(
            StreamingLedgerApp::generate(&config, 128, 0.0),
            StreamingLedgerApp::generate(&config.with_seed(7), 128, 1.0),
        );
        assert_thread_independent("SL", |store| StreamingLedgerApp::new(store, &config), &sl);

        let config = WorkloadConfig::grep_sum()
            .with_key_space(64)
            .with_states_per_op(2)
            .with_abort_ratio(0.2)
            .with_udf_complexity_us(0);
        let gs = alternate(
            GrepSumApp::generate_windowed(&config, 128, 8, 1, 40),
            GrepSumApp::generate_non_deterministic(&config, 128, 2)
                .into_iter()
                .chain(GrepSumApp::generate(&config, 64))
                .collect(),
        );
        assert_thread_independent("GS", |store| GrepSumApp::new(store, &config), &gs);
    }

    /// One state access per event; each UDF logs its key, timestamp and
    /// thread.
    #[derive(Clone, Copy)]
    enum Access {
        Write(u64),
        /// Write the first key, reading the second.
        WriteReading(u64, u64),
        NonDet,
    }

    type Log = Arc<Mutex<Vec<(u64, Timestamp, ThreadId)>>>;

    struct Probe {
        table: TableId,
        log: Log,
    }

    impl StreamApp for Probe {
        type Event = Access;
        type Output = ();

        fn state_access(&self, access: &Access, txn: &mut TxnBuilder) {
            let log = self.log.clone();
            let udf = Arc::new(move |input: &UdfInput| {
                let key = input.target as u64;
                log.lock()
                    .unwrap()
                    .push((key, input.ts, thread::current().id()));
                Ok(UdfOutcome::Value(input.target))
            });
            match *access {
                Access::Write(key) => txn.write(self.table, key, udf),
                Access::WriteReading(key, param) => txn.write_with_params(
                    self.table,
                    key,
                    vec![StateRef::new(self.table, param)],
                    udf,
                ),
                Access::NonDet => txn.non_det_write(self.table, Arc::new(|ts| ts % 8), vec![], udf),
            };
        }

        fn post_process(&self, _access: &Access, _outcome: &TxnOutcome) {}
    }

    /// Run `accesses` as one punctuation at `threads`: the workers it
    /// engaged and the UDF log.
    fn probe(accesses: &[Access], threads: usize) -> (usize, Vec<(u64, Timestamp, ThreadId)>) {
        let store = StateStore::new();
        let table = store.create_table("probe", 0, false);
        // Each key's value is the key, so a UDF's target names its key.
        for key in 0..8 {
            store.seed(table, key, key as Value).unwrap();
        }
        let log = Log::default();
        let app = Probe {
            table,
            log: log.clone(),
        };
        let config = EngineConfig::with_threads(threads).with_punctuation_interval(accesses.len());
        let report = SStore::engine(app, store, config).run(accesses.iter().copied());
        assert_eq!(report.batches.len(), 1);
        let log = log.lock().unwrap().clone();
        (report.batches[0].workers, log)
    }

    #[test]
    fn keys_of_one_partition_run_on_one_worker_in_timestamp_order() {
        use Access::Write;
        let accesses = [
            Write(4),
            Write(1),
            Write(0),
            Write(5),
            Write(4),
            Write(2),
            Write(0),
        ];
        let (workers, log) = probe(&accesses, 4);
        // partitions 0 (keys 0, 4), 1 (keys 1, 5) and 2 (key 2)
        assert_eq!(workers, 3);
        let partition_0: Vec<_> = log.iter().filter(|(key, ..)| key % 4 == 0).collect();
        assert_eq!(partition_0.len(), 4);
        assert!(
            partition_0.iter().all(|(.., t)| *t == partition_0[0].2),
            "{log:?}"
        );
        let order: Vec<(u64, Timestamp)> = partition_0.iter().map(|&&(k, ts, _)| (k, ts)).collect();
        assert!(order.is_sorted_by_key(|&(_, ts)| ts), "{order:?}");
        assert_eq!(
            order.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            [4, 0, 4, 0]
        );
    }

    #[test]
    fn a_transaction_that_spans_partitions_merges_them() {
        use Access::{NonDet, Write, WriteReading};
        let disjoint = [Write(0), Write(1), Write(2), Write(3)];
        assert_eq!(probe(&disjoint, 2).0, 2);
        // a parameter key names its partition …
        let reading = [Write(0), Write(1), WriteReading(2, 3)];
        assert_eq!(probe(&reading, 2).0, 1);
        // … and a non-deterministic target names every partition
        let non_det = [Write(0), Write(1), Write(2), NonDet, Write(3)];
        assert_eq!(probe(&non_det, 2).0, 1);
        assert_eq!(
            probe(&[Write(0), Write(1), Write(2), Write(3), Write(5)], 4).0,
            4
        );
    }
}
