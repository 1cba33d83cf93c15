//! [`DurableEngine`]: an engine, its write-ahead log, its checkpoint store
//! and its output digest, advancing as one consistent cut. The one place the
//! log → push → checkpoint → recover protocol is written down, and the one
//! door events enter a served engine by: `morphstream serve` holds one with
//! or without `--data-dir`, `morphstream standby` holds one, and the kill
//! and failover matrices drive it directly. No method pushes an event past
//! the log.
//!
//! * **Ingest** — every event is appended to the WAL *before* it is pushed
//!   into the engine, under the caller's one lock, so the log is always a
//!   superset of what the engine has seen, in identical order. Punctuation
//!   markers frame the log (the fsync point under [`FsyncPolicy::Interval`]):
//!   a primary writes its own every `punctuation` events, a replica mirrors
//!   its primary's with [`DurableEngine::mark_punctuation`].
//! * **Checkpoint** — flush the engine to a barrier; capture every table
//!   with the WAL index and output-digest state of the same cut; publish
//!   atomically, superseding the previous checkpoint; rotate the WAL and
//!   delete the segments the checkpoint covers. If the publish fails, the
//!   WAL is left alone: the next checkpoint captures everything again, and
//!   replay still covers the writes.
//! * **Recover** ([`DurableEngine::open`]) — restore the newest checkpoint,
//!   resume the output digest from its saved state, walk the WAL once
//!   (sealing a torn or headerless last segment where the walk stopped),
//!   replay the events the checkpoint does not cover, and
//!   re-anchor with a fresh checkpoint so a second restart replays nothing.
//!   Punctuation placement does not affect final state or outputs
//!   (timestamps follow ingestion order, MVCC resolves by timestamp), so the
//!   replayed run converges to digest-identical state even when the crash —
//!   or a checkpoint's flush — cut a batch in half.
//!
//! Opened on no directory, a `DurableEngine` keeps nothing on disk: ingest
//! only pushes and counts, a checkpoint is a no-op, and there is nothing to
//! recover. Dropping one opened on a directory without a final
//! [`DurableEngine::checkpoint_now`] leaves on disk what `kill -9` would.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use morphstream::{OutputDigest, RunReport, TxnEngine};
use morphstream_common::hash::Fnv1a;
use morphstream_common::json::JsonObject;
use morphstream_common::protocol::WireCodec;

use crate::checkpoint::{Checkpoint, CheckpointBuilder, CheckpointStore};
use crate::error::DurabilityError;
use crate::wal::{recover_wal, FsyncPolicy, WalLog};

/// What [`DurableEngine::open`] found in the data directory and did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Id of the newest checkpoint restored, if any existed.
    pub checkpoint_id: Option<u64>,
    /// Events the restored checkpoint covered.
    pub events_applied: u64,
    /// WAL events replayed through the engine on top of the checkpoint.
    pub replayed_events: u64,
    /// Whether the last WAL segment ended in a torn record (dropped, and
    /// the segment repaired on disk).
    pub torn_tail: bool,
}

impl Recovery {
    /// One JSON object, for startup log lines and smoke-test artifacts.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj = match self.checkpoint_id {
            Some(id) => obj.unsigned("checkpoint_id", id),
            None => obj.raw("checkpoint_id", "null"),
        };
        obj.unsigned("events_applied", self.events_applied)
            .unsigned("replayed_events", self.replayed_events)
            .boolean("torn_tail", self.torn_tail)
            .build()
    }
}

/// Cumulative counters of one [`DurableEngine`], for a metrics layer to
/// mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Events ingested: the WAL's next index.
    pub next_index: u64,
    /// WAL records appended (events + punctuation markers).
    pub wal_records: u64,
    /// WAL bytes appended, including framing.
    pub wal_bytes: u64,
    /// WAL segment files on disk.
    pub wal_segments: u64,
    /// Checkpoints published.
    pub checkpoints: u64,
    /// Bytes of every published checkpoint.
    pub checkpoint_bytes: u64,
    /// How long the most recent published checkpoint took.
    pub last_checkpoint: Duration,
}

/// An engine made durable; the [module documentation](self) specifies the
/// protocol. Callers serialise access with one lock of their own: a
/// checkpoint is a consistent cut only while no ingest is in flight.
pub struct DurableEngine<E: TxnEngine<Output = u64>>
where
    E::Event: WireCodec,
{
    engine: E,
    output_digest: OutputDigest,
    /// Events ingested; on disk, the WAL's next index.
    next_index: u64,
    /// The data directory's log and checkpoints; `None` keeps nothing on
    /// disk.
    disk: Option<Disk>,
}

/// A data directory: the WAL, the checkpoint store, and when to write each.
struct Disk {
    dir: PathBuf,
    wal: WalLog,
    checkpoints: CheckpointStore,
    fsync: FsyncPolicy,
    checkpoint_retain: usize,
    /// Events between interval checkpoints (0 = never on interval).
    checkpoint_interval: u64,
    since_checkpoint: u64,
    /// Events between self-written punctuation markers (0 = the caller
    /// mirrors someone else's).
    punctuation: u64,
    since_marker: u64,
    /// The checkpoint counters (the WAL handle owns the WAL ones).
    stats: DurableStats,
}

impl Disk {
    /// Account `logged` just-appended events: write a punctuation marker if
    /// one is due, and say whether an interval checkpoint is.
    fn logged(&mut self, logged: u64) -> bool {
        self.since_checkpoint += logged;
        if self.punctuation == 0 {
            return false;
        }
        self.since_marker += logged;
        if self.since_marker >= self.punctuation {
            self.since_marker %= self.punctuation;
            if let Err(e) = self.wal.mark_punctuation() {
                eprintln!("morphstream durability: WAL punctuation marker failed: {e}");
            }
        }
        self.checkpoint_due()
    }

    fn checkpoint_due(&self) -> bool {
        self.checkpoint_interval > 0 && self.since_checkpoint >= self.checkpoint_interval
    }
}

impl<E: TxnEngine<Output = u64>> DurableEngine<E>
where
    E::Event: WireCodec,
{
    /// Open (or create) the data directory `dir` (`wal/` + `checkpoints/`)
    /// and recover whatever it holds into the fresh `engine`, whose output
    /// sink becomes the digest. `punctuation` is the engine's punctuation
    /// interval, or 0 for a replica that mirrors its primary's markers.
    /// With no `dir` nothing is created and the recovery is `None`.
    pub fn open(
        dir: Option<&Path>,
        mut engine: E,
        fsync: FsyncPolicy,
        checkpoint_interval: u64,
        checkpoint_retain: usize,
        punctuation: u64,
    ) -> Result<(Self, Option<Recovery>), DurabilityError> {
        let Some(dir) = dir else {
            let output_digest = OutputDigest::install(&mut engine, Fnv1a::new());
            let durable = Self {
                engine,
                output_digest,
                next_index: 0,
                disk: None,
            };
            return Ok((durable, None));
        };
        let checkpoints =
            CheckpointStore::open_with_retention(dir.join("checkpoints"), checkpoint_retain)?;
        let mut events_applied = 0;
        let mut checkpoint_id = None;
        let mut digest = Fnv1a::new();
        if let Some(mut loaded) = checkpoints.load_chain()? {
            engine.restore(&mut loaded.restore);
            digest = Fnv1a::from_state(loaded.restore.output_digest);
            events_applied = loaded.restore.events_applied;
            checkpoint_id = Some(loaded.restore.id);
        }
        // Installed before the replay so replayed outputs are digested too.
        let output_digest = OutputDigest::install(&mut engine, digest);

        let wal_dir = dir.join("wal");
        // One walk of the log: it frames and checksums every record, decodes
        // the events the checkpoint does not cover, and seals the newest segment
        // where it stops being whole — the replay below (plus the re-anchor)
        // covers its events, and once new appends start a newer segment a
        // torn one would otherwise read as damage in a sealed segment on the
        // next restart.
        let wal_state = recover_wal::<E::Event>(&wal_dir, events_applied)?;
        let torn_tail = wal_state.torn_tail;
        let tail = wal_state.events;
        let next_index = tail.last().map_or(events_applied, |(index, _)| index + 1);
        let replayed_events = tail.len() as u64;
        for (_, event) in tail {
            engine.ingest(event);
        }
        let mut durable = Self {
            engine,
            output_digest,
            next_index,
            disk: Some(Disk {
                dir: dir.to_path_buf(),
                wal: WalLog::open(&wal_dir, fsync, next_index)?,
                checkpoints,
                fsync,
                checkpoint_retain,
                checkpoint_interval,
                since_checkpoint: 0,
                punctuation,
                since_marker: 0,
                stats: DurableStats::default(),
            }),
        };
        let recovery = (checkpoint_id.is_some() || replayed_events > 0).then_some(Recovery {
            checkpoint_id,
            events_applied,
            replayed_events,
            torn_tail,
        });
        if recovery.is_some() {
            durable.engine.flush();
            // Re-anchor, so a second restart never replays this tail again.
            durable.checkpoint_or_warn();
        }
        Ok((durable, recovery))
    }

    /// Log then push `events`, in order; stops at the first event the WAL
    /// refuses (it and the rest are dropped, never pushed unlogged) and
    /// returns that error. Either way the logged prefix is accounted:
    /// [`DurableEngine::next_index`] advanced by it, a due punctuation
    /// marker written, a due interval checkpoint taken.
    pub fn ingest(
        &mut self,
        events: impl IntoIterator<Item = E::Event>,
    ) -> Result<(), DurabilityError> {
        let first = self.next_index;
        let mut result = Ok(());
        for event in events {
            if let Some(disk) = self.disk.as_mut() {
                if let Err(e) = disk.wal.append_event(&event) {
                    result = Err(e);
                    break;
                }
            }
            self.engine.ingest(event);
            self.next_index += 1;
        }
        let logged = self.next_index - first;
        if self.disk.as_mut().is_some_and(|disk| disk.logged(logged)) {
            self.checkpoint_or_warn();
        }
        result
    }

    /// Mirror a punctuation marker the primary wrote (replicas only), then
    /// take the interval checkpoint if one is due: a replica checkpoints on
    /// its primary's punctuation boundaries.
    pub fn mark_punctuation(&mut self) -> Result<(), DurabilityError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(());
        };
        disk.wal.mark_punctuation()?;
        if disk.checkpoint_due() {
            self.checkpoint_or_warn();
        }
        Ok(())
    }

    /// From now on write a punctuation marker every `punctuation` ingested
    /// events instead of mirroring a primary's: what promotion does to a
    /// replica's engine.
    pub fn set_punctuation(&mut self, punctuation: u64) {
        if let Some(disk) = self.disk.as_mut() {
            disk.punctuation = punctuation;
            disk.since_marker = 0;
        }
    }

    /// A checkpoint nobody waits on (interval, re-anchor): a failure costs
    /// nothing but the retry at the next one.
    fn checkpoint_or_warn(&mut self) {
        if let Err(e) = self.checkpoint_now() {
            eprintln!("morphstream durability: checkpoint failed: {e}");
        }
    }

    /// Take a checkpoint right now (the module documentation has the
    /// steps). `Err` means it was not published, or that it was but the WAL
    /// could not be trimmed.
    /// Without a data directory there is nothing to take: `Ok(())`.
    pub fn checkpoint_now(&mut self) -> Result<(), DurabilityError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(());
        };
        disk.since_checkpoint = 0;
        let started = Instant::now();
        let mut builder = CheckpointBuilder::new();
        self.engine.checkpoint(&mut builder);
        // The flush inside `checkpoint` pushed every appended event through
        // the engine, so the digest state and the WAL index describe the
        // same cut as the captured tables.
        let events_applied = self.next_index;
        let checkpoint = builder.build(
            disk.checkpoints.next_id(),
            events_applied,
            self.output_digest.finish(),
        );
        // On failure the WAL stays untruncated, so replay still covers
        // what the checkpoint would have.
        let saved = disk.checkpoints.save(&checkpoint)?;
        disk.stats.checkpoints += 1;
        disk.stats.checkpoint_bytes += saved.bytes;
        disk.stats.last_checkpoint = started.elapsed();
        disk.wal.rotate()?;
        disk.wal.truncate_before(events_applied)?;
        Ok(())
    }

    /// Discard all local state — engine, WAL, checkpoints — and adopt the
    /// checkpoint a primary shipped, which must cover exactly
    /// `events_applied` events (no checkpoint is the empty state at 0).
    /// The old handles are dropped before their files are deleted; the
    /// checkpoint is then written out and recovered like any other directory
    /// ([`DurableEngine::open`], re-anchor included) into the fresh
    /// `engine`. On error nothing of the old state remains in memory, and
    /// whatever reached the disk is what the next `open` recovers. Needs a
    /// data directory to write the checkpoint to.
    pub fn adopt_chain(
        self,
        engine: E,
        checkpoint: Option<&Checkpoint>,
        events_applied: u64,
    ) -> Result<Self, DurabilityError> {
        let covered = checkpoint.map_or(0, |c| c.events_applied);
        if covered != events_applied {
            return Err(DurabilityError::corrupt(format!(
                "shipped checkpoint covers {covered} events, primary announced {events_applied}"
            )));
        }
        let disk = self.disk.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "adopting a checkpoint needs a data directory",
            )
        })?;
        let (dir, fsync, interval, retain, punctuation) = (
            disk.dir.clone(),
            disk.fsync,
            disk.checkpoint_interval,
            disk.checkpoint_retain,
            disk.punctuation,
        );
        drop(self);
        for sub in ["wal", "checkpoints"] {
            match std::fs::remove_dir_all(dir.join(sub)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        let mut shipped = CheckpointStore::open_with_retention(dir.join("checkpoints"), retain)?;
        if let Some(checkpoint) = checkpoint {
            shipped.save(checkpoint)?;
        }
        Ok(Self::open(Some(&dir), engine, fsync, interval, retain, punctuation)?.0)
    }

    /// The engine, for reads (reports, live rows).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Process whatever the engine has buffered as a (possibly partial)
    /// batch ([`TxnEngine::flush`]).
    pub fn flush(&mut self) {
        self.engine.flush();
    }

    /// Flush, then close the engine's session and return its report
    /// ([`TxnEngine::finish`]); outputs keep streaming into the digest.
    pub fn finish_session(&mut self) -> RunReport<u64> {
        self.engine.flush();
        self.engine.finish()
    }

    /// The log, for fault injection in tests ([`WalLog::swap_segment`]).
    /// Panics without a data directory.
    #[doc(hidden)]
    pub fn wal_mut(&mut self) -> &mut WalLog {
        &mut self.disk.as_mut().expect("a data directory").wal
    }

    /// Events ingested so far; on disk, the WAL's next index.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Order-sensitive digest of every output emitted so far, across
    /// restarts.
    pub fn output_digest(&self) -> u64 {
        self.output_digest.finish()
    }

    /// Id of the newest checkpoint, if any.
    pub fn latest_checkpoint_id(&self) -> Option<u64> {
        let disk = self.disk.as_ref()?;
        disk.checkpoints.entries().last().map(|e| e.id)
    }

    /// The cumulative counters, as of now.
    pub fn stats(&self) -> DurableStats {
        let Some(disk) = self.disk.as_ref() else {
            return DurableStats {
                next_index: self.next_index,
                ..DurableStats::default()
            };
        };
        DurableStats {
            next_index: self.next_index,
            wal_records: disk.wal.records_appended(),
            wal_bytes: disk.wal.bytes_appended(),
            wal_segments: disk.wal.segment_count(),
            ..disk.stats
        }
    }
}
