//! Multi-versioning shared mutable state for MorphStream.
//!
//! The execution stage of MorphStream (Section 6 of the paper) relies on a
//! *multi-versioning state table*: every write appends a timestamped version
//! of the record instead of overwriting it, which
//!
//! * lets speculative execution read the exact version produced by the
//!   operation it temporally depends on,
//! * makes aborts cheap — rolling back an operation removes only the versions
//!   it appended, exposing the latest prior version again, and
//! * supports windowed reads, which retrieve every version whose timestamp
//!   falls inside the window range.
//!
//! The store is organised as named tables ([`StateStore`]), each a sharded
//! hash map of per-key version chains protected by `parking_lot` locks.
//! A chain keeps up to two versions inside its map slot — a key's committed
//! version plus the one write a batch gives it before the after-batch
//! reclaim — so most state accesses touch no heap; a third version spills
//! the chain to a heap `Vec` whose capacity it keeps for the next spill.

#![warn(missing_docs)]

pub mod store;
pub mod table;
pub mod version;

pub use store::StateStore;
pub use table::MvTable;
pub use version::{Version, VersionChain, WriterId, INITIAL_WRITER};
