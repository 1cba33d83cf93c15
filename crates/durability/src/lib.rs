//! # Durability: checkpoints + write-ahead input log
//!
//! Crash recovery for MorphStream engines, built from two halves that meet
//! at punctuation boundaries:
//!
//! * [`checkpoint`] — snapshots of [`StateStore`] state. Each checkpoint
//!   captures every table of every store, serialized in the versioned
//!   `MSC1` binary format and published atomically (temp file + rename +
//!   directory fsync), and supersedes the one before it.
//! * [`wal`] — a write-ahead log of input events, appended *before* events
//!   reach the engine, framed into `MSW1` segments with a CRC per
//!   record and a configurable [`FsyncPolicy`]. Segments rotate at
//!   checkpoints and are garbage-collected once a checkpoint covers them.
//!
//! [`DurableEngine`] composes the two around an engine — log-then-push
//! ingest, flush-barrier checkpoints that rotate and truncate the log, and
//! restore → replay → re-anchor recovery — and is where that protocol is
//! specified; the serving primary and the hot standby both run it.
//!
//! The engine side of the contract is `TxnEngine::checkpoint` /
//! `TxnEngine::restore` (see `morphstream::pipeline`), implemented by both
//! the single-operator engine and whole topologies; this crate provides
//! the [`CheckpointSink`]/[`CheckpointSource`] implementations that bridge
//! those hooks to disk.
//!
//! [`StateStore`]: morphstream_storage::StateStore
//! [`CheckpointSink`]: morphstream::pipeline::CheckpointSink
//! [`CheckpointSource`]: morphstream::pipeline::CheckpointSource

#![warn(missing_docs)]

pub mod checkpoint;
pub mod durable;
pub mod error;
pub mod wal;

pub use checkpoint::{
    Checkpoint, CheckpointBuilder, CheckpointStore, LoadedChain, ManifestEntry, SavedCheckpoint,
    StoreSection, TableSnapshot, CHECKPOINT_MAGIC, MANIFEST_NAME,
};
pub use durable::{DurableEngine, DurableStats, Recovery};
pub use error::DurabilityError;
pub use wal::{
    decode_segment, read_wal, wal_start_index, DecodedSegment, FsyncPolicy, TailError, TailItem,
    WalLog, WalState, WalTailer, WAL_MAGIC,
};

/// fsync a directory so just-created or just-renamed entries survive power
/// loss (the file's own fsync does not cover its directory entry).
pub(crate) fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_data()
}

#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("morph-dur-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
