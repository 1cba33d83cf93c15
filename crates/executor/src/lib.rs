//! S-TPG execution — the *execution* stage of MorphStream.
//!
//! Given a planned [`Tpg`](morphstream_tpg::Tpg), a
//! [`SchedulingDecision`](morphstream_scheduler::SchedulingDecision) and the
//! multi-version [`StateStore`](morphstream_storage::StateStore), the executor
//! runs every operation of the batch on `num_threads` workers — the calling
//! thread is worker 0, so a one-worker batch spawns no thread — while
//! maintaining the finite-state machine of Section 6.1 (BLK → RDY → EXE /
//! ABT) for every vertex. Aborted transactions are rolled back through the
//! multi-version table and their dependents are redone (Section 6.3.2), either
//! eagerly as failures occur or lazily after the graph has been fully
//! explored, according to the abort-handling decision.

#![warn(missing_docs)]

pub mod context;
pub mod explore;
pub mod report;

pub use context::{ExecContext, OpState};
pub use report::{BatchReport, TxnOutcome};

use std::sync::Arc;

use morphstream_common::metrics::Breakdown;
use morphstream_scheduler::{AbortHandling, SchedulingDecision};
use morphstream_storage::StateStore;
use morphstream_tpg::{SchedulingUnits, Tpg};

/// Execute one batch (one TPG) partitioned into `units` against `store` with
/// `num_threads` workers, following `decision`.
///
/// Returns the per-transaction outcomes plus the runtime breakdown gathered
/// while executing.
pub fn execute_batch_with_units(
    tpg: Arc<Tpg>,
    units: SchedulingUnits,
    decision: SchedulingDecision,
    store: &StateStore,
    num_threads: usize,
) -> BatchReport {
    let num_threads = num_threads.max(1);
    let ctx = ExecContext::new(tpg.clone(), store.clone(), decision.abort_handling);

    let mut breakdown = Breakdown::new();
    explore::run(
        &ctx,
        &units,
        decision.exploration,
        num_threads,
        &mut breakdown,
    );

    // Lazy abort handling: clean up every logged failure now that the TPG has
    // been fully explored.
    if decision.abort_handling == AbortHandling::Lazy {
        ctx.resolve_lazy_aborts(&mut breakdown);
    }

    ctx.into_report(breakdown, decision)
}
