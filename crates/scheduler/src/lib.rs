//! Scheduling decisions — the *scheduling* stage of MorphStream.
//!
//! MorphStream decomposes the scheduling strategy into three dimensions
//! (Section 5, Table 1):
//!
//! * [`ExplorationStrategy`] — how threads traverse the TPG looking for work
//!   (structured BFS/DFS with strata, or non-structured with asynchronous
//!   dependency notifications);
//! * [`Granularity`] — whether the unit of scheduling is a single operation
//!   (`f-schedule`) or a per-state group of operations (`c-schedule`);
//! * [`AbortHandling`] — whether aborts are processed eagerly as they occur
//!   (`e-abort`) or lazily after the whole TPG has been explored (`l-abort`).
//!
//! The [`DecisionModel`] implements the lightweight heuristic of Figure 7: it
//! looks at the TPG properties of Table 2 and picks a decision per dimension.
//! The engine re-evaluates the model for every batch (and per transaction
//! group in the nested configuration of Figure 13), which is what lets
//! MorphStream "morph" between strategies as the workload drifts.

#![warn(missing_docs)]

pub mod decision;
pub mod model;

pub use decision::{AbortHandling, ExplorationStrategy, Granularity, SchedulingDecision};
pub use model::{DecisionModel, WorkloadObservation};
