//! S-TPG execution — the *execution* stage of MorphStream.
//!
//! Given a planned [`Tpg`](morphstream_tpg::Tpg), a
//! [`SchedulingDecision`](morphstream_scheduler::SchedulingDecision) and the
//! multi-version [`StateStore`](morphstream_storage::StateStore), the executor
//! runs every operation of the batch on `num_threads` workers while
//! maintaining the finite-state machine of Section 6.1 (BLK → RDY → EXE /
//! ABT) for every vertex. Aborted transactions are rolled back through the
//! multi-version table and their dependents are redone (Section 6.3.2), either
//! eagerly as failures occur or lazily after the graph has been fully
//! explored, according to the abort-handling decision.
//!
//! That machinery is for two or more workers. A one-worker batch needs no
//! graph: [`execute_serial`] runs its transactions on the calling thread,
//! one at a time in timestamp order, with no TPG, no [`ExecContext`] and no
//! per-operation lock, and redoes nothing under any decision (see
//! [`serial`]). [`execute_tpg`] at one worker runs that loop over the
//! planned operations, and [`execute_serial_groups`] runs key-disjoint
//! groups of a batch as one such loop per worker.

#![warn(missing_docs)]

pub mod context;
pub mod explore;
pub mod report;
pub mod serial;
mod tables;

pub use context::{ExecContext, OpState};
pub use report::{BatchReport, TxnOutcome};
pub use serial::{execute_serial, execute_serial_groups};

use std::sync::Arc;

use morphstream_common::metrics::Breakdown;
use morphstream_scheduler::{AbortHandling, SchedulingDecision};
use morphstream_storage::StateStore;
use morphstream_tpg::{SchedulingUnits, Tpg};

/// Execute one batch (one TPG) against `store` with `num_threads` workers,
/// following `decision`. `partition` builds the scheduling units the workers
/// explore; it is called only when two or more workers do. One worker runs
/// the operations through [`execute_serial`], transaction by transaction.
///
/// Returns the per-transaction outcomes plus the runtime breakdown gathered
/// while executing.
pub fn execute_tpg(
    tpg: Arc<Tpg>,
    decision: SchedulingDecision,
    store: &StateStore,
    num_threads: usize,
    partition: impl FnOnce(&Tpg) -> SchedulingUnits,
) -> BatchReport {
    if num_threads <= 1 {
        // Op ids run `0..num_ops` across the transactions in id order, the
        // numbering `execute_serial` hands out.
        let txns = (0..tpg.num_txns()).map(|txn| {
            let ops = tpg.txn_ops(txn).iter().map(|&op| &tpg.op(op).spec);
            (tpg.txn_ts(txn), ops)
        });
        return execute_serial(txns, store, decision);
    }
    let ctx = ExecContext::new(tpg, store.clone(), decision.abort_handling);

    let mut breakdown = Breakdown::new();
    explore::run(
        &ctx,
        decision.exploration,
        num_threads,
        partition,
        &mut breakdown,
    );

    // Lazy abort handling: clean up every logged failure now that the TPG has
    // been fully explored.
    if decision.abort_handling == AbortHandling::Lazy {
        ctx.resolve_lazy_aborts(&mut breakdown);
    }

    ctx.into_report(breakdown, decision)
}

/// [`execute_tpg`] over an already built partition `units`.
pub fn execute_batch_with_units(
    tpg: Arc<Tpg>,
    units: SchedulingUnits,
    decision: SchedulingDecision,
    store: &StateStore,
    num_threads: usize,
) -> BatchReport {
    execute_tpg(tpg, decision, store, num_threads, |_| units)
}
