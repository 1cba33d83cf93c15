//! Benchmark harness regenerating every table and figure of the MorphStream
//! evaluation (Section 8 of the paper).
//!
//! Each `figXX` module exposes a `run(scale)` function that executes the
//! experiment and prints the same rows/series the paper reports; the
//! `src/bin/figXX_*.rs` binaries are thin wrappers around these functions.
//!
//! Absolute numbers depend on the host; what the harness preserves is the
//! *shape* of every figure — which system wins, by roughly what factor, and
//! where the crossovers fall.

#![warn(missing_docs)]

pub mod figs;
pub mod harness;
pub mod workers;

pub use harness::{Scale, SystemReport};
