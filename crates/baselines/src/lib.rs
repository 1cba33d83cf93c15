//! Baseline transactional stream processors reconstructed for comparison.
//!
//! The paper compares MorphStream against three kinds of systems:
//!
//! * **S-Store** — shared state is partitioned; the whole state transaction is
//!   the unit of scheduling, and each group of partitions the batch's
//!   transactions span runs as one serial loop in timestamp order, with no
//!   graph ([`SStore`]).
//! * **TStream** — transactions are decomposed into per-key operation chains
//!   executed in parallel; aborts are only handled once the whole batch has
//!   been processed, which forces re-processing of the batch. It runs
//!   MorphStream's planned path under one fixed decision ([`TStream`]).
//! * **A conventional SPE with external state (Flink + Redis)** — every state
//!   access is a round trip to an external store guarded by a distributed
//!   lock ([`LockedSpe`]); disabling the lock is fast but incorrect.
//!
//! None of these systems is available as a Rust artefact, so they are
//! reconstructed here on top of the same transaction descriptors, the same
//! state store, and the same workloads as MorphStream. Each is a
//! [`BatchExecutor`](morphstream::BatchExecutor): what differs between the
//! systems is how a decomposed batch is planned and executed, and that is all
//! an executor does. Everything around it — timestamps, decomposition,
//! post-processing, pinning windowed tables, reclamation, the batch summary,
//! checkpoints — is MorphStream's own punctuation path, so the systems under
//! comparison cannot drift in their bookkeeping. Each baseline's constructor
//! returns a [`MorphStream`](morphstream::MorphStream) running its executor,
//! driven through the same [`TxnEngine`](morphstream::TxnEngine) trait as
//! every other engine.

#![warn(missing_docs)]

pub mod locked_spe;
pub mod sstore;
pub mod tstream;

pub use locked_spe::LockedSpe;
pub use sstore::SStore;
pub use tstream::TStream;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use morphstream::storage::StateStore;
    use morphstream::{
        udfs, EngineConfig, MorphStream, RunReport, StreamApp, TxnBuilder, TxnEngine, TxnOutcome,
    };
    use morphstream_common::metrics::BreakdownBucket;
    use morphstream_common::{TableId, Value};

    /// Writes a hot counter table every event; every fourth event also
    /// appends to a log table and window-reads its full history.
    #[derive(Clone, Copy)]
    struct WindowedTail {
        hot: TableId,
        log: TableId,
    }

    impl StreamApp for WindowedTail {
        type Event = u64;
        type Output = Value;
        fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
            txn.write(self.hot, *event % 8, udfs::add_delta(1));
            if event.is_multiple_of(4) {
                txn.write(self.log, 0, udfs::add_delta(1));
                txn.window_read(self.log, 0, 1 << 30, udfs::window_sum());
            }
        }
        fn post_process(&self, _event: &u64, outcome: &TxnOutcome) -> Value {
            outcome.committed as Value
        }
    }

    /// How each system under test builds its engine.
    type Build = fn(WindowedTail, StateStore, EngineConfig) -> MorphStream<WindowedTail>;

    /// Run 256 events, eight punctuations of 32, through a fresh engine.
    fn run_windowed_tail(build: Build) -> (StateStore, WindowedTail, RunReport<Value>) {
        let store = StateStore::new();
        let app = WindowedTail {
            hot: store.create_table("hot", 0, true),
            log: store.create_table("log", 0, true),
        };
        let config = EngineConfig::with_threads(2)
            .with_punctuation_interval(32)
            .with_reclaim_after_batch(true);
        let report = build(app, store.clone(), config).run(0..256u64);
        (store, app, report)
    }

    #[test]
    fn reclamation_is_per_table_and_pins_windowed_tables() {
        // (name, engine, whether the hot table's old versions are reclaimable)
        let systems: [(&str, Build, bool); 4] = [
            ("MorphStream", MorphStream::new, true),
            ("TStream", TStream::engine, true),
            ("S-Store", SStore::engine, true),
            (
                "locked SPE",
                |app, store, config| LockedSpe::with_locks(app, store, config, Duration::ZERO),
                false,
            ),
        ];
        for (name, build, reclaimable) in systems {
            let (store, WindowedTail { hot, log }, report) = run_windowed_tail(build);
            assert_eq!(report.committed, 256, "{name}");
            // the windowed log was pinned: its full history survives …
            assert!(store.table(log).unwrap().is_pinned(), "{name}");
            assert_eq!(
                store.window_values(log, 0, 1, u64::MAX).unwrap().len(),
                64, // one log append per 4 events
                "{name}"
            );
            // … while the hot table was reclaimed down to roughly one version
            // per key. The locked SPE writes at its execution clock, above
            // every event-time watermark, so none of its versions is
            // reclaimable.
            if reclaimable {
                assert!(store.table(hot).unwrap().version_count() < 32, "{name}");
            }
        }
    }

    #[test]
    fn tstream_and_sstore_charge_planning_to_construct_and_report_their_decision() {
        let systems: [(&str, Build, _); 2] = [
            ("TStream", TStream::engine, tstream::DECISION),
            ("S-Store", SStore::engine, sstore::DECISION),
        ];
        for (name, build, decision) in systems {
            let (_, _, report) = run_windowed_tail(build);
            let construct = report.breakdown.get(BreakdownBucket::Construct);
            assert!(construct > Duration::ZERO, "{name}");
            assert_eq!(construct, report.stage_timings.construct, "{name}");
            assert_eq!(report.batches.len(), 8, "{name}");
            assert!(
                report.batches.iter().all(|b| b.decision == decision),
                "{name}: {:?}",
                report.decision_trace()
            );
        }
    }
}
