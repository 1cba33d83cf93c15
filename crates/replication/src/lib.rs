//! Primary→standby replication for MorphStream.
//!
//! Layered directly on the durability formats — the primary's `MSW1`
//! write-ahead log and `MSC1` checkpoints are the replication *source of
//! truth*, shipped over a TCP wire protocol (`MSR1`, [`protocol`]) rather
//! than a shared filesystem:
//!
//! * [`ReplicationSender`] (primary): a background thread that tails the
//!   WAL files and streams batches + punctuation markers to the standby,
//!   bootstrapping it from the newest checkpoint when its position is not
//!   servable from the log. [`AckMode::Sync`] extends the ingest
//!   back-pressure chain across machines: each connection's reads wait for
//!   the standby's acknowledgement.
//! * [`StandbyServer`] (standby): accepts the stream, persists it into its
//!   *own* WAL + checkpoint directory, and replays it through a live
//!   topology continuously — a warm replica whose state and output digests
//!   match the primary's at every punctuation. [`StandbyServer::promote`]
//!   turns it into a serving primary without a recovery pass.
//!
//! The server crate wires both ends to `morphstream serve --replicate-to`
//! and `morphstream standby`.

#![warn(missing_docs)]

pub mod protocol;
pub mod sender;
pub mod standby;
pub mod stats;

mod link;

pub use protocol::{
    Frame, FrameReader, CHECKPOINT_CHUNK, MAX_REPL_FRAME, REPL_MAGIC, REPL_VERSION,
};
pub use sender::{AckMode, ReplicationSender, SenderOptions};
pub use standby::{
    EngineFactory, Promoted, ReplicaEngine, StandbyEngine, StandbyOptions, StandbyRecovery,
    StandbyServer,
};
pub use stats::ReplicationStats;
