//! The one place a batch fans its work out over threads, the rule for how
//! many threads a batch's declared work pays for, and the spin that
//! emulates declared work.

use std::time::{Duration, Instant};

/// Declared UDF work, in µs, that pays for one more worker. The calling
/// thread is worker 0 and is always engaged; every further worker costs the
/// batch a spawn, barrier or wake-up round trips, and cache lines that
/// bounce between cores, and below this much real work per extra worker one
/// worker doing it all wins. Fixed by the sweep `figs 21 --workers`
/// (ROADMAP item 5): on the Streaming Ledger shapes a second worker first
/// pays between 2.05 and 3.27 ms of declared work.
pub const WORK_PER_WORKER_US: u64 = 2_500;

/// The workers a batch engages: the caller, plus one per
/// [`WORK_PER_WORKER_US`] of the UDF work the batch declares
/// (`declared_cost_us`, the sum of its operations' `cost_us`), at most
/// `threads`. A pure function of the batch, so a replayed, recovered or
/// promoted batch engages the same count.
pub fn effective_workers(threads: usize, declared_cost_us: u64) -> usize {
    let extra = usize::try_from(declared_cost_us / WORK_PER_WORKER_US).unwrap_or(usize::MAX);
    extra.saturating_add(1).min(threads.max(1))
}

/// Spin on the calling thread for `duration`: the emulated cost of a UDF
/// (the paper's `C`), of a remote-state round trip, or of a redo. Returns at
/// once on zero.
#[inline]
pub fn spin_for(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Run `work(w)` for every worker `w` in `0..workers` and return the results
/// in worker order.
///
/// The caller is worker 0: it runs `work(0)` itself while workers
/// `1..workers` run on scoped threads, so a one-worker call spawns nothing
/// and is `vec![work(0)]`. `workers == 0` counts as one. A panic in any
/// worker is re-raised on the caller once every worker has stopped.
pub fn fan_out<R, F>(workers: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers.max(1))
            .map(|w| scope.spawn(move || work(w)))
            .collect();
        let mut results = Vec::with_capacity(others.len() + 1);
        results.push(work(0));
        results.extend(others.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    fn on(worker: usize) -> (usize, ThreadId) {
        (worker, thread::current().id())
    }

    #[test]
    fn one_worker_runs_on_the_caller() {
        assert_eq!(fan_out(1, on), vec![(0, thread::current().id())]);
    }

    #[test]
    fn zero_workers_behave_as_one() {
        assert_eq!(fan_out(0, on), vec![(0, thread::current().id())]);
    }

    #[test]
    fn results_come_back_in_worker_order_with_worker_zero_on_the_caller() {
        let caller = thread::current().id();
        let results = fan_out(3, on);
        let workers: Vec<usize> = results.iter().map(|(w, _)| *w).collect();
        assert_eq!(workers, [0, 1, 2]);
        let threads: Vec<ThreadId> = results.iter().map(|(_, t)| *t).collect();
        assert_eq!(threads[0], caller);
        assert!(threads[1] != caller && threads[2] != caller);
        assert_ne!(threads[1], threads[2]);
    }

    #[test]
    fn a_batch_engages_one_more_worker_per_share_of_declared_work() {
        const SHARE: u64 = WORK_PER_WORKER_US;
        // (threads, declared cost in µs) → workers
        let table: [(usize, u64, usize); 13] = [
            (1, 0, 1),
            (1, 100 * SHARE, 1),
            (2, 0, 1),
            (2, SHARE - 1, 1),
            (2, SHARE, 2),
            (2, 1_000 * SHARE, 2),
            (4, 2 * SHARE - 1, 2),
            (4, 2 * SHARE, 3),
            (4, 3 * SHARE, 4),
            (4, 4 * SHARE, 4),
            (8, u64::MAX, 8),
            (0, 0, 1),
            (0, 10 * SHARE, 1),
        ];
        for (threads, cost, workers) in table {
            assert_eq!(
                effective_workers(threads, cost),
                workers,
                "{threads} threads, {cost} µs declared"
            );
        }
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn a_worker_panic_reaches_the_caller() {
        fan_out(3, |w| assert!(w != 2, "worker {w} failed"));
    }
}
