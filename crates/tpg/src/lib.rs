//! Task Precedence Graph (TPG) construction — the *planning* stage of
//! MorphStream.
//!
//! A batch of state transactions is decomposed into atomic state access
//! operations; the operations become the vertices of the TPG and the three
//! dependency types of the paper become its edges:
//!
//! * **TD — temporal dependency**: two operations of different transactions
//!   access the same state and one has a later timestamp (Section 2.1.2);
//! * **PD — parametric dependency**: a write's value is a function of states
//!   written by an earlier operation (tracked through *virtual operations*);
//! * **LD — logical dependency**: operations of the same transaction must
//!   abort together (it does not constrain execution order).
//!
//! Construction follows the paper's two-phase process (Section 4.2): the
//! *stream processing phase* sorts the possibly out-of-order transactions and
//! fills per-key timestamp-sorted operation lists, and the *transaction
//! processing phase* derives TD/PD edges from those lists. Both phases are
//! shardable by state key ([`sorted_list::shard_of`]) and run on the
//! [`TpgBuilder`]'s configured worker count. Window operations (Section 4.3)
//! take the generalized window rule; a non-deterministic state access
//! (Section 4.4) is ordered against every sorted list of its own table.

#![warn(missing_docs)]

pub mod builder;
mod flat;
pub mod graph;
pub mod operation;
pub mod sorted_list;
pub mod txn;
pub mod units;

pub use builder::TpgBuilder;
pub use graph::{DepKind, Tpg, TpgStats};
pub use operation::udfs;
pub use operation::{
    AccessKind, KeyResolver, KeySpec, Operation, OperationSpec, Udf, UdfInput, UdfOutcome,
};
pub use txn::{Transaction, TransactionBatch};
pub use units::SchedulingUnits;
