//! Benchmark workloads for transactional stream processing.
//!
//! The paper evaluates MorphStream with three micro-benchmark applications
//! taken from the TStream benchmark suite — Streaming Ledger ([`sl`]),
//! GrepSum ([`gs`]) and Toll Processing ([`tp`]) — a dynamically changing
//! 4-phase workload ([`dynamic`]), and two real-world case studies: Online
//! Social Event Detection ([`osed`]) and Stock Exchange Analysis ([`sea`]).
//!
//! All generators are deterministic functions of a [`WorkloadConfig`]
//! seed, so every figure can be regenerated bit-for-bit, and every
//! application implements [`morphstream::StreamApp`] so it can run unchanged
//! on MorphStream and on the reconstructed baselines. The SL and GS
//! generators are iterators underneath (`StreamingLedgerApp::source`,
//! `GrepSumApp::source`) that yield events one at a time for push-based
//! ingestion with bounded memory.

#![warn(missing_docs)]

pub mod dynamic;
pub mod gs;
pub mod osed;
pub mod sea;
pub mod sl;
pub mod tp;
pub mod wire;

pub use dynamic::{DynamicPhase, DynamicWorkload};
pub use gs::{GrepSumApp, GsEvent, GsSource};
pub use osed::{OsedApp, OsedReport, Tweet, TweetGenerator};
pub use sea::{SeaApp, SeaEvent, SeaGenerator};
pub use sl::{SlEvent, SlSource, StreamingLedgerApp};
pub use tp::{RoadStatsApp, TollChargeApp, TollProcessingApp, TpCharged, TpEvent};

pub use morphstream_common::protocol::WireCodec;
pub use morphstream_common::WorkloadConfig;
