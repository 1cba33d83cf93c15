//! # MorphStream
//!
//! A transactional stream processing engine (TSPE) that executes *state
//! transactions* — the shared-mutable-state accesses triggered by input
//! events — with adaptive, TPG-based scheduling on multicores. This crate is
//! the public face of the reproduction: applications implement the
//! [`StreamApp`] trait (the paper's three-step programming model of
//! pre-process / state access / post-process), feed events to a
//! [`MorphStream`] engine, and receive per-event outputs plus a rich
//! [`RunReport`] with throughput, latency, runtime breakdown, and the
//! scheduling decisions the engine morphed through.
//!
//! Ingestion is push-based: [`TxnEngine::pipeline`] opens a session whose
//! `push`/`push_iter` calls trigger punctuation-delimited batch processing
//! internally (see the [`pipeline`] module for the full lifecycle). The
//! [`TxnEngine::run`] call below is the one-shot convenience over that
//! session API: ingest a whole stream, finish the session.
//!
//! ```
//! use morphstream::{MorphStream, StreamApp, TxnBuilder, TxnEngine, EngineConfig};
//! use morphstream::storage::StateStore;
//! use morphstream_common::TableId;
//!
//! /// Counts occurrences of words in a stream.
//! struct WordCount {
//!     words: TableId,
//! }
//!
//! impl StreamApp for WordCount {
//!     type Event = u64;      // word id
//!     type Output = bool;    // committed?
//!
//!     fn state_access(&self, word: &u64, txn: &mut TxnBuilder) {
//!         txn.write(self.words, *word, morphstream::udfs::add_delta(1));
//!     }
//!
//!     fn post_process(&self, _word: &u64, outcome: &morphstream::TxnOutcome) -> bool {
//!         outcome.committed
//!     }
//! }
//!
//! let store = StateStore::new();
//! let words = store.create_table("words", 0, true);
//! let app = WordCount { words };
//! let mut engine = MorphStream::new(app, store.clone(), EngineConfig::with_threads(2));
//! let report = engine.run(vec![1, 2, 1, 3, 1]);
//! assert_eq!(report.committed, 5);
//! assert_eq!(store.read_latest(words, 1).unwrap(), 3);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod engine;
pub mod pipeline;
pub mod report;
pub mod topology;

pub use app::{StreamApp, TxnBuilder};
pub use engine::{BatchExecutor, ExecutedBatch, MorphStream, SchedulingMode};
pub use pipeline::{
    BatchHook, CheckpointSink, CheckpointSource, EventSink, EventSource, FnSink, OutputDigest,
    OutputSink, PendingBatch, Pipeline, SessionState, TxnEngine,
};
pub use report::{
    BatchSummary, EdgeReport, OperatorCounters, OperatorReport, ReportSnapshot, RunReport,
};
pub use topology::{EntryBinding, OperatorHandle, Route, Topology, TopologyBuilder, TopologyError};

pub use morphstream_common::{AbortReason, EngineConfig, TopologyConfig, WorkloadConfig};
pub use morphstream_executor::TxnOutcome;
pub use morphstream_scheduler::{
    AbortHandling, DecisionModel, ExplorationStrategy, Granularity, SchedulingDecision,
};
pub use morphstream_tpg::udfs;
pub use morphstream_tpg::{
    KeyResolver, OperationSpec, Transaction, TransactionBatch, Udf, UdfInput, UdfOutcome,
};

/// Re-export of the storage crate for applications that create tables.
pub mod storage {
    pub use morphstream_storage::*;
}
