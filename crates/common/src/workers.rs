//! The one place a batch fans its work out over threads.

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
    #[should_panic(expected = "worker 2 failed")]
    fn a_worker_panic_reaches_the_caller() {
        fan_out(3, |w| assert!(w != 2, "worker {w} failed"));
    }
}
