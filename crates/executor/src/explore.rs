//! Exploration drivers: how worker threads traverse the scheduling units of a
//! TPG (Section 5.1).
//!
//! Exploration is for two or more workers: a one-worker batch runs its
//! transactions in timestamp order without a TPG
//! ([`execute_serial`](crate::execute_serial)) and never reaches these
//! drivers.
//!
//! The workers operate on the unit partition produced by the
//! granularity decision (fine = one operation per unit, coarse = operation
//! chains). The drivers differ in how ready units are discovered:
//!
//! * **structured BFS** — units are stratified by their longest dependency
//!   path; all threads process one stratum and synchronise on a barrier
//!   before moving to the next (barrier wait is accounted as `sync` time);
//! * **structured DFS** — units are statically assigned to threads; a thread
//!   spins until the dependencies of its next unit resolve (spin time is
//!   accounted as `explore` time);
//! * **non-structured** — a shared ready queue plus per-unit dependency
//!   counters; finishing a unit asynchronously enqueues its newly-ready
//!   children (queue wait is accounted as `explore` time).
//!
//! Every driver fans out through [`fan_out`]: the calling thread is worker
//! 0 and only workers `1..num_threads` get a thread of their own.
//!
//! `useful` time is read once per unit, as the wall time spent running
//! operations less what aborts took meanwhile.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use morphstream_common::fan_out;
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_scheduler::ExplorationStrategy;
use morphstream_tpg::{SchedulingUnits, Tpg};

use crate::context::ExecContext;

/// Run every operation of the batch with `num_threads` workers, merging
/// per-worker breakdowns into `breakdown`: build the units with `partition`
/// — time charged to `explore` — and traverse them following `strategy`.
pub fn run(
    ctx: &ExecContext,
    strategy: ExplorationStrategy,
    num_threads: usize,
    partition: impl FnOnce(&Tpg) -> SchedulingUnits,
    breakdown: &mut Breakdown,
) {
    let started = Instant::now();
    let units = partition(ctx.tpg());
    breakdown.add(BreakdownBucket::Explore, started.elapsed());
    if units.num_units() == 0 {
        return;
    }
    let partials = match strategy {
        ExplorationStrategy::StructuredBfs => run_bfs(ctx, &units, num_threads),
        ExplorationStrategy::StructuredDfs => run_dfs(ctx, &units, num_threads),
        ExplorationStrategy::NonStructured => run_ns(ctx, &units, num_threads),
    };
    for partial in partials {
        breakdown.merge(&partial);
    }
}

/// Run `work`, charging its wall time less what it charged to `abort` to the
/// `useful` bucket.
fn charge_useful(breakdown: &mut Breakdown, work: impl FnOnce(&mut Breakdown)) {
    let started = Instant::now();
    let aborting_before = breakdown.get(BreakdownBucket::Abort);
    work(breakdown);
    let aborting = breakdown.get(BreakdownBucket::Abort) - aborting_before;
    breakdown.add(
        BreakdownBucket::Useful,
        started.elapsed().saturating_sub(aborting),
    );
}

/// Process one unit: run its operations in timestamp order.
fn process_unit(
    ctx: &ExecContext,
    units: &SchedulingUnits,
    unit: usize,
    breakdown: &mut Breakdown,
) {
    charge_useful(breakdown, |breakdown| {
        for &op in units.unit_ops(unit) {
            ctx.run_op(op, breakdown);
        }
    });
}

/// The units grouped by their longest dependency path over the unit DAG:
/// stratum `r` lists, in ascending order, the units whose longest chain of
/// ancestors is `r` units long.
fn unit_strata(units: &SchedulingUnits) -> Vec<Vec<usize>> {
    let n = units.num_units();
    let mut rank = vec![0usize; n];
    let mut indegree: Vec<usize> = (0..n).map(|u| units.parents(u).len()).collect();
    let mut queue: VecDeque<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
    let mut num_strata = 0;
    let mut visited = 0;
    while let Some(u) = queue.pop_front() {
        visited += 1;
        num_strata = num_strata.max(rank[u] + 1);
        for &c in units.children(u) {
            rank[c] = rank[c].max(rank[u] + 1);
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push_back(c);
            }
        }
    }
    debug_assert_eq!(visited, n, "unit graph must be acyclic after merging");
    let mut strata = vec![Vec::new(); num_strata];
    for (unit, &r) in rank.iter().enumerate() {
        strata[r].push(unit);
    }
    strata
}

// ---------------------------------------------------------------------------
// structured BFS
// ---------------------------------------------------------------------------

fn run_bfs(ctx: &ExecContext, units: &SchedulingUnits, num_threads: usize) -> Vec<Breakdown> {
    let strata = unit_strata(units);
    let barrier = Barrier::new(num_threads);
    fan_out(num_threads, |worker| {
        let mut breakdown = Breakdown::new();
        for stratum in &strata {
            // every worker takes an interleaved slice of the stratum
            for unit in stratum.iter().skip(worker).step_by(num_threads) {
                process_unit(ctx, units, *unit, &mut breakdown);
            }
            let wait = Instant::now();
            barrier.wait();
            breakdown.add(BreakdownBucket::Sync, wait.elapsed());
        }
        breakdown
    })
}

// ---------------------------------------------------------------------------
// structured DFS
// ---------------------------------------------------------------------------

fn run_dfs(ctx: &ExecContext, units: &SchedulingUnits, num_threads: usize) -> Vec<Breakdown> {
    // Deal the units round-robin in stratum order, so that every worker
    // processes its own units in topological order.
    let order = unit_strata(units).concat();

    // remaining[unit] counts the unit's unfinished parent units.
    let remaining: Vec<AtomicUsize> = (0..units.num_units())
        .map(|u| AtomicUsize::new(units.parents(u).len()))
        .collect();

    fan_out(num_threads, |worker| {
        let mut breakdown = Breakdown::new();
        for &unit in order.iter().skip(worker).step_by(num_threads) {
            // spin until the unit's dependencies are settled; the clock runs
            // only when the unit was not ready on the first look
            let unsettled = || remaining[unit].load(Ordering::Acquire) > 0;
            if unsettled() {
                let wait = Instant::now();
                while unsettled() {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                breakdown.add(BreakdownBucket::Explore, wait.elapsed());
            }
            process_unit(ctx, units, unit, &mut breakdown);
            for &child in units.children(unit) {
                remaining[child].fetch_sub(1, Ordering::AcqRel);
            }
        }
        breakdown
    })
}

// ---------------------------------------------------------------------------
// non-structured
// ---------------------------------------------------------------------------

/// The units ready to run, and how many workers sleep waiting for one.
struct Ready {
    units: VecDeque<usize>,
    sleepers: usize,
}

struct ReadyQueue {
    ready: Mutex<Ready>,
    available: Condvar,
    settled: AtomicUsize,
    total: usize,
}

impl ReadyQueue {
    /// Enqueue a ready unit and wake a sleeper, if there is one. A notify
    /// is a futex syscall even when nobody waits, so a team whose members
    /// are all busy skips it. A worker counts itself a sleeper under the
    /// lock before it waits, so none is missed.
    fn push(&self, unit: usize) {
        let mut ready = self.ready.lock();
        ready.units.push_back(unit);
        let wake = ready.sleepers > 0;
        drop(ready);
        if wake {
            self.available.notify_one();
        }
    }

    /// Pop the next ready unit; returns `None` when every unit has settled.
    /// Time spent waiting for a unit is added to the `explore` bucket; the
    /// clock starts only once the first look finds nothing ready.
    fn pop(&self, breakdown: &mut Breakdown) -> Option<usize> {
        let mut ready = self.ready.lock();
        let mut waiting_since = None;
        let unit = loop {
            if let Some(unit) = ready.units.pop_front() {
                break Some(unit);
            }
            if self.settled.load(Ordering::Acquire) >= self.total {
                break None;
            }
            waiting_since.get_or_insert_with(Instant::now);
            ready.sleepers += 1;
            self.available
                .wait_for(&mut ready, std::time::Duration::from_millis(1));
            ready.sleepers -= 1;
        };
        if let Some(since) = waiting_since {
            breakdown.add(BreakdownBucket::Explore, since.elapsed());
        }
        unit
    }

    fn mark_settled(&self) {
        if self.settled.fetch_add(1, Ordering::AcqRel) + 1 >= self.total {
            // Look for sleepers under the lock: a worker in `pop` checks
            // `settled` and counts itself a sleeper without releasing that
            // lock in between, so it either sees the count or is counted
            // here and gets this wake-up. Looking without the lock could
            // land between the two and leave it asleep until its poll times
            // out.
            let ready = self.ready.lock();
            if ready.sleepers > 0 {
                self.available.notify_all();
            }
        }
    }
}

fn run_ns(ctx: &ExecContext, units: &SchedulingUnits, num_threads: usize) -> Vec<Breakdown> {
    let n = units.num_units();
    let remaining: Vec<AtomicUsize> = (0..n)
        .map(|u| AtomicUsize::new(units.parents(u).len()))
        .collect();
    let ready = ReadyQueue {
        ready: Mutex::new(Ready {
            units: (0..n).filter(|&u| units.parents(u).is_empty()).collect(),
            sleepers: 0,
        }),
        available: Condvar::new(),
        settled: AtomicUsize::new(0),
        total: n,
    };

    fan_out(num_threads, |_| {
        let mut breakdown = Breakdown::new();
        while let Some(unit) = ready.pop(&mut breakdown) {
            process_unit(ctx, units, unit, &mut breakdown);
            // asynchronously notify dependents (the signal-holder of the
            // paper's ns-explore)
            for &child in units.children(unit) {
                if remaining[child].fetch_sub(1, Ordering::AcqRel) == 1 {
                    ready.push(child);
                }
            }
            ready.mark_settled();
        }
        breakdown
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use morphstream_common::{StateRef, TableId, Value};
    use morphstream_scheduler::{AbortHandling, Granularity, SchedulingDecision};
    use morphstream_storage::StateStore;
    use morphstream_tpg::{udfs, OperationSpec, TpgBuilder, Transaction, TransactionBatch};
    use std::sync::Arc;

    const T: TableId = TableId(0);

    fn transfer_workload(num_accounts: u64, num_txns: u64) -> TransactionBatch {
        let mut batch = TransactionBatch::new();
        for ts in 1..=num_txns {
            let from = ts % num_accounts;
            let to = (ts * 7 + 3) % num_accounts;
            if from == to {
                batch.push(Transaction::new(
                    ts,
                    vec![OperationSpec::write(T, from, vec![], udfs::add_delta(1))],
                ));
            } else {
                batch.push(Transaction::new(
                    ts,
                    vec![
                        OperationSpec::write(T, from, vec![], udfs::withdraw(10)),
                        OperationSpec::write(
                            T,
                            to,
                            vec![StateRef::new(T, from)],
                            udfs::credit_if_param_at_least(10, 10),
                        ),
                    ],
                ));
            }
        }
        batch
    }

    fn fresh_store(accounts: u64, balance: Value) -> StateStore {
        let store = StateStore::new();
        let t = store.create_table("accounts", balance, false);
        store.preallocate_range(t, accounts).unwrap();
        store
    }

    fn total_balance(store: &StateStore, accounts: u64) -> Value {
        (0..accounts)
            .map(|k| store.read_latest(T, k).unwrap())
            .sum()
    }

    const STRATEGIES: [ExplorationStrategy; 3] = [
        ExplorationStrategy::StructuredBfs,
        ExplorationStrategy::StructuredDfs,
        ExplorationStrategy::NonStructured,
    ];

    fn partition(coarse: bool) -> impl FnOnce(&Tpg) -> SchedulingUnits {
        move |tpg| {
            if coarse {
                SchedulingUnits::coarse(tpg)
            } else {
                SchedulingUnits::fine(tpg)
            }
        }
    }

    /// Run the transfer workload through `execute_tpg`; the partition is
    /// built only from two workers on.
    fn run_with(
        strategy: ExplorationStrategy,
        coarse: bool,
        threads: usize,
    ) -> (StateStore, Value) {
        const ACCOUNTS: u64 = 32;
        const TXNS: u64 = 200;
        let store = fresh_store(ACCOUNTS, 1_000);
        let initial = total_balance(&store, ACCOUNTS);
        let tpg = Arc::new(TpgBuilder::new().build(transfer_workload(ACCOUNTS, TXNS)));
        let decision = SchedulingDecision {
            exploration: strategy,
            granularity: if coarse {
                Granularity::Coarse
            } else {
                Granularity::Fine
            },
            abort_handling: AbortHandling::Eager,
        };
        let mut partitioned = false;
        let units = |tpg: &Tpg| {
            partitioned = true;
            partition(coarse)(tpg)
        };
        crate::execute_tpg(tpg, decision, &store, threads, units);
        assert_eq!(partitioned, threads > 1, "{threads} workers");
        (store, initial)
    }

    #[test]
    fn bfs_exploration_preserves_total_balance() {
        let (store, initial) = run_with(ExplorationStrategy::StructuredBfs, false, 4);
        assert_eq!(total_balance(&store, 32), initial);
    }

    #[test]
    fn dfs_exploration_preserves_total_balance() {
        let (store, initial) = run_with(ExplorationStrategy::StructuredDfs, false, 4);
        assert_eq!(total_balance(&store, 32), initial);
    }

    #[test]
    fn ns_exploration_preserves_total_balance() {
        let (store, initial) = run_with(ExplorationStrategy::NonStructured, false, 4);
        assert_eq!(total_balance(&store, 32), initial);
    }

    #[test]
    fn coarse_units_preserve_total_balance_across_strategies() {
        for strategy in STRATEGIES {
            let (store, initial) = run_with(strategy, true, 4);
            assert_eq!(total_balance(&store, 32), initial, "strategy {strategy}");
        }
    }

    /// One worker runs the serial loop whatever the strategy and granularity
    /// asked for.
    #[test]
    fn single_threaded_execution_works_for_all_strategies() {
        for strategy in STRATEGIES {
            for coarse in [false, true] {
                let (store, initial) = run_with(strategy, coarse, 1);
                assert_eq!(total_balance(&store, 32), initial, "strategy {strategy}");
            }
        }
    }

    /// Each strategy's loop at its smallest team.
    #[test]
    fn two_workers_run_every_strategy_over_both_granularities() {
        for strategy in STRATEGIES {
            for coarse in [false, true] {
                let (store, initial) = run_with(strategy, coarse, 2);
                assert_eq!(
                    total_balance(&store, 32),
                    initial,
                    "strategy {strategy}, coarse {coarse}"
                );
            }
        }
    }

    /// The builder's tie batch — timestamps tied across transactions and
    /// statements, a non-deterministic write among them — plus a tied
    /// transaction whose second write fails after its first one ran.
    fn tie_batch() -> TransactionBatch {
        let mut b = TransactionBatch::new();
        for ts in [2u64, 1, 2, 1, 3] {
            b.push(Transaction::new(
                ts,
                vec![
                    OperationSpec::write(T, ts % 3, vec![], udfs::add_delta(1)),
                    OperationSpec::write(
                        T,
                        (ts + 1) % 3,
                        vec![StateRef::new(T, (ts + 1) % 3), StateRef::new(T, ts % 3)],
                        udfs::sum_params(),
                    ),
                ],
            ));
        }
        b.push(Transaction::new(
            2,
            vec![OperationSpec::non_det_write(
                T,
                Arc::new(|ts| ts),
                vec![],
                udfs::set_value(9),
            )],
        ));
        b.push(Transaction::new(
            2,
            vec![
                OperationSpec::write(T, 1, vec![], udfs::add_delta(100)),
                OperationSpec::write(T, 3, vec![], udfs::always_abort()),
            ],
        ));
        b
    }

    #[test]
    fn one_worker_reaches_the_explorers_state_under_timestamp_ties() {
        // Op-id order — the serial loop's, transaction by transaction — is
        // no topological order here: some edge runs from a higher id to a
        // lower one. Such an edge orders two accesses at one timestamp,
        // which read strictly before it and so do not see each other.
        let tpg = TpgBuilder::new().build(tie_batch());
        assert!((0..tpg.num_ops()).any(|op| tpg.parents(op).iter().any(|(p, _)| *p > op)));

        let run_ties = |decision: SchedulingDecision, threads: usize| {
            let store = fresh_store(4, 10);
            let tpg = Arc::new(TpgBuilder::new().build(tie_batch()));
            let coarse = decision.granularity == Granularity::Coarse;
            let report = crate::execute_tpg(tpg, decision, &store, threads, partition(coarse));
            let committed: Vec<_> = report
                .outcomes
                .into_iter()
                .map(|o| (o.committed, o.committed.then_some(o.op_results)))
                .collect();
            (store.state_digest(), committed)
        };
        for decision in SchedulingDecision::all() {
            let (digest, outcomes) = run_ties(decision, 1);
            assert_eq!(outcomes.iter().filter(|(c, _)| !c).count(), 1);
            assert_eq!(
                (digest, outcomes),
                run_ties(decision, 4),
                "{decision}: one worker against four"
            );
        }
    }

    #[test]
    fn strata_ranks_respect_unit_dependencies() {
        let tpg = Arc::new(TpgBuilder::new().build(transfer_workload(8, 50)));
        let units = SchedulingUnits::coarse(&tpg);
        let strata = unit_strata(&units);
        assert!(!strata.is_empty());
        let mut stratum_of = vec![usize::MAX; units.num_units()];
        for (r, stratum) in strata.iter().enumerate() {
            assert!(stratum.windows(2).all(|w| w[0] < w[1]));
            for &unit in stratum {
                stratum_of[unit] = r;
            }
        }
        assert!(stratum_of.iter().all(|&r| r != usize::MAX));
        for unit in 0..units.num_units() {
            for &parent in units.parents(unit) {
                assert!(stratum_of[parent] < stratum_of[unit]);
            }
        }
    }

    #[test]
    fn empty_unit_partition_is_a_no_op() {
        let tpg = Arc::new(TpgBuilder::new().build(TransactionBatch::new()));
        let store = fresh_store(1, 0);
        let ctx = ExecContext::new(tpg, store, AbortHandling::Eager);
        let mut breakdown = Breakdown::new();
        for threads in [1, 4] {
            let strategy = ExplorationStrategy::NonStructured;
            run(
                &ctx,
                strategy,
                threads,
                SchedulingUnits::fine,
                &mut breakdown,
            );
        }
    }
}
