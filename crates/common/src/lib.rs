//! Shared foundation for the MorphStream reproduction.
//!
//! This crate contains the vocabulary types used across the workspace
//! (keys, values, timestamps, transaction identifiers), the workload
//! configuration knobs of the paper's Table 6, deterministic random number
//! generation and Zipfian sampling used by the workload generators, the
//! measurement infrastructure (throughput, latency distributions, and the
//! runtime breakdown of Figure 16a), [`fan_out`], the one helper that
//! spreads a batch's work over worker threads, [`effective_workers`], the
//! rule for how many of them a batch's declared work pays for, and
//! [`spin_for`], the spin that emulates that work.
//!
//! Nothing in this crate knows about transactions or scheduling; it exists so
//! that the planning, scheduling, execution, and benchmarking crates agree on
//! primitive representations without depending on each other.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod rng;
pub mod toml;
pub mod types;
mod workers;
pub mod zipf;

pub use config::{EngineConfig, TopologyConfig, WorkloadConfig};
pub use error::{AbortReason, MorphError};
pub use types::{Key, OpId, StateRef, TableId, Timestamp, TxnId, Value};
pub use workers::{effective_workers, fan_out, spin_for, WORK_PER_WORKER_US};
