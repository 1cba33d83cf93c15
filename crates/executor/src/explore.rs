//! Exploration drivers: how worker threads traverse the scheduling units of a
//! TPG (Section 5.1).
//!
//! All three drivers operate on the unit partition produced by the
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
//! 0 and only workers `1..num_threads` get a thread of their own, so a
//! one-worker batch runs entirely on the caller and spawns nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use morphstream_common::fan_out;
use morphstream_common::metrics::{Breakdown, BreakdownBucket};
use morphstream_scheduler::ExplorationStrategy;
use morphstream_tpg::SchedulingUnits;

use crate::context::ExecContext;

/// Run every unit of the batch with `num_threads` workers following the given
/// exploration strategy, merging per-worker breakdowns into `breakdown`.
pub fn run(
    ctx: &ExecContext,
    units: &SchedulingUnits,
    strategy: ExplorationStrategy,
    num_threads: usize,
    breakdown: &mut Breakdown,
) {
    if units.num_units() == 0 {
        return;
    }
    let partials = match strategy {
        ExplorationStrategy::StructuredBfs => run_bfs(ctx, units, num_threads),
        ExplorationStrategy::StructuredDfs => run_dfs(ctx, units, num_threads),
        ExplorationStrategy::NonStructured => run_ns(ctx, units, num_threads),
    };
    for partial in partials {
        breakdown.merge(&partial);
    }
}

/// Process one unit: run its operations in timestamp order.
fn process_unit(
    ctx: &ExecContext,
    units: &SchedulingUnits,
    unit: usize,
    breakdown: &mut Breakdown,
) {
    for &op in units.unit_ops(unit) {
        ctx.run_op(op, breakdown);
    }
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
            // spin until the unit's dependencies are settled
            let wait = Instant::now();
            while remaining[unit].load(Ordering::Acquire) > 0 {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            breakdown.add(BreakdownBucket::Explore, wait.elapsed());
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

struct ReadyQueue {
    queue: Mutex<VecDeque<usize>>,
    available: Condvar,
    settled: AtomicUsize,
    total: usize,
}

impl ReadyQueue {
    fn push(&self, unit: usize) {
        self.queue.lock().push_back(unit);
        self.available.notify_one();
    }

    /// Pop the next ready unit; returns `None` when every unit has settled.
    /// The wait time is added to the `explore` bucket.
    fn pop(&self, breakdown: &mut Breakdown) -> Option<usize> {
        let wait = Instant::now();
        let mut queue = self.queue.lock();
        loop {
            if let Some(unit) = queue.pop_front() {
                breakdown.add(BreakdownBucket::Explore, wait.elapsed());
                return Some(unit);
            }
            if self.settled.load(Ordering::Acquire) >= self.total {
                breakdown.add(BreakdownBucket::Explore, wait.elapsed());
                return None;
            }
            self.available
                .wait_for(&mut queue, std::time::Duration::from_millis(1));
        }
    }

    fn mark_settled(&self) {
        if self.settled.fetch_add(1, Ordering::AcqRel) + 1 >= self.total {
            // Notify under the queue lock: a worker in `pop` checks `settled`
            // and starts waiting without releasing that lock in between, so
            // it is either before its check (and sees the count) or already
            // waiting (and gets this wake-up). Notifying without the lock
            // could land between the two and leave it asleep until its poll
            // times out.
            let _queue = self.queue.lock();
            self.available.notify_all();
        }
    }
}

fn run_ns(ctx: &ExecContext, units: &SchedulingUnits, num_threads: usize) -> Vec<Breakdown> {
    let n = units.num_units();
    let remaining: Vec<AtomicUsize> = (0..n)
        .map(|u| AtomicUsize::new(units.parents(u).len()))
        .collect();
    let ready = ReadyQueue {
        queue: Mutex::new((0..n).filter(|&u| units.parents(u).is_empty()).collect()),
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
    use morphstream_scheduler::AbortHandling;
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
        let units = if coarse {
            morphstream_tpg::SchedulingUnits::coarse(&tpg)
        } else {
            morphstream_tpg::SchedulingUnits::fine(&tpg)
        };
        let ctx = ExecContext::new(tpg, store.clone(), AbortHandling::Eager);
        let mut breakdown = Breakdown::new();
        run(&ctx, &units, strategy, threads, &mut breakdown);
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
        for strategy in [
            ExplorationStrategy::StructuredBfs,
            ExplorationStrategy::StructuredDfs,
            ExplorationStrategy::NonStructured,
        ] {
            let (store, initial) = run_with(strategy, true, 4);
            assert_eq!(total_balance(&store, 32), initial, "strategy {strategy}");
        }
    }

    #[test]
    fn single_threaded_execution_works_for_all_strategies() {
        for strategy in [
            ExplorationStrategy::StructuredBfs,
            ExplorationStrategy::StructuredDfs,
            ExplorationStrategy::NonStructured,
        ] {
            let (store, initial) = run_with(strategy, false, 1);
            assert_eq!(total_balance(&store, 32), initial, "strategy {strategy}");
        }
    }

    #[test]
    fn strata_ranks_respect_unit_dependencies() {
        let tpg = Arc::new(TpgBuilder::new().build(transfer_workload(8, 50)));
        let units = morphstream_tpg::SchedulingUnits::coarse(&tpg);
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
        let units = morphstream_tpg::SchedulingUnits::fine(&tpg);
        let store = fresh_store(1, 0);
        let ctx = ExecContext::new(tpg, store, AbortHandling::Eager);
        let mut breakdown = Breakdown::new();
        run(
            &ctx,
            &units,
            ExplorationStrategy::NonStructured,
            4,
            &mut breakdown,
        );
    }
}
