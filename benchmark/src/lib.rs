//! The repo's benchmark: six workloads measured end to end, and every layer
//! measured from outside through its public functions. `README.md` defines
//! each workload and metric; `src/spec.rs` is the table `BENCHMARK.json` is
//! printed from.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod layers;
pub mod library;
pub mod openloop;
pub mod rig;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod topo;
pub mod trace;
