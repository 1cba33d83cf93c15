//! [`DurableEngine`]: an engine, its write-ahead log, its checkpoint store
//! and its output digest, advancing as one consistent cut. The one place the
//! log → push → checkpoint → recover protocol is written down: `morphstream
//! serve --data-dir` and `morphstream standby` each hold one, and the kill
//! and failover matrices drive it directly.
//!
//! * **Ingest** — every event is appended to the WAL *before* it is pushed
//!   into the engine, under the caller's one lock, so the log is always a
//!   superset of what the engine has seen, in identical order. Punctuation
//!   markers frame the log (the fsync point under [`FsyncPolicy::Interval`]):
//!   a primary writes its own every `punctuation` events, a replica mirrors
//!   its primary's with [`DurableEngine::mark_punctuation`].
//! * **Checkpoint** — flush the engine to a barrier; capture the tables
//!   dirtied since the last checkpoint with the WAL index and output-digest
//!   state of the same cut; publish atomically; rotate the WAL and delete
//!   the segments the checkpoint covers. If the publish fails, the dirty
//!   flags the capture consumed are handed back and the WAL is left alone:
//!   the next checkpoint re-captures, and replay still covers the writes.
//! * **Recover** ([`DurableEngine::open`]) — restore the newest checkpoint
//!   chain, resume the output digest from its saved state, walk the WAL
//!   once (sealing a torn or headerless last segment where the walk
//!   stopped), replay the events the chain does not cover, and
//!   re-anchor with a fresh checkpoint so a second restart replays nothing.
//!   Punctuation placement does not affect final state or outputs
//!   (timestamps follow ingestion order, MVCC resolves by timestamp), so the
//!   replayed run converges to digest-identical state even when the crash —
//!   or a checkpoint's flush — cut a batch in half.
//!
//! Dropping a `DurableEngine` without a final
//! [`DurableEngine::checkpoint_now`] leaves on disk what `kill -9` would.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use morphstream::{OutputDigest, TxnEngine};
use morphstream_common::hash::Fnv1a;
use morphstream_common::json::JsonObject;
use morphstream_common::protocol::WireCodec;

use crate::checkpoint::{Checkpoint, CheckpointBuilder, CheckpointStore, RedirtySink};
use crate::error::DurabilityError;
use crate::wal::{recover_wal, FsyncPolicy, WalLog};

/// What [`DurableEngine::open`] found in the data directory and did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Id of the newest checkpoint restored, if any existed.
    pub checkpoint_id: Option<u64>,
    /// Events the restored checkpoint chain covered.
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
    /// Events durably logged: the WAL's next index.
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
    wal: WalLog,
    checkpoints: CheckpointStore,
    output_digest: OutputDigest,
    dir: PathBuf,
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

impl<E: TxnEngine<Output = u64>> DurableEngine<E>
where
    E::Event: WireCodec,
{
    /// Open (or create) the data directory `dir` (`wal/` + `checkpoints/`)
    /// and recover whatever it holds into the fresh `engine`, whose output
    /// sink becomes the digest. `punctuation` is the engine's punctuation
    /// interval, or 0 for a replica that mirrors its primary's markers.
    pub fn open(
        dir: impl AsRef<Path>,
        mut engine: E,
        fsync: FsyncPolicy,
        checkpoint_interval: u64,
        checkpoint_retain: usize,
        punctuation: u64,
    ) -> Result<(Self, Option<Recovery>), DurabilityError> {
        let dir = dir.as_ref().to_path_buf();
        let checkpoints =
            CheckpointStore::open_with_retention(dir.join("checkpoints"), checkpoint_retain)?;
        let mut events_applied = 0;
        let mut checkpoint_id = None;
        let mut digest = Fnv1a::new();
        if let Some(mut loaded) = checkpoints.load_chain()? {
            engine.restore(&mut loaded.restore);
            digest = Fnv1a::from_state(loaded.output_digest);
            events_applied = loaded.events_applied;
            checkpoint_id = Some(loaded.last_id);
        }
        // Installed before the replay so replayed outputs are digested too.
        let output_digest = OutputDigest::install(&mut engine, digest);

        let wal_dir = dir.join("wal");
        // One walk of the log: it frames and checksums every record, decodes
        // the events the chain does not cover, and seals the newest segment
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
            wal: WalLog::open(&wal_dir, fsync, next_index)?,
            checkpoints,
            output_digest,
            dir,
            fsync,
            checkpoint_retain,
            checkpoint_interval,
            since_checkpoint: 0,
            punctuation,
            since_marker: 0,
            stats: DurableStats::default(),
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
        let first = self.wal.next_index();
        let mut result = Ok(());
        for event in events {
            if let Err(e) = self.wal.append_event(&event) {
                result = Err(e);
                break;
            }
            self.engine.ingest(event);
        }
        let logged = self.wal.next_index() - first;
        self.since_checkpoint += logged;
        if self.punctuation > 0 {
            self.since_marker += logged;
            if self.since_marker >= self.punctuation {
                self.since_marker %= self.punctuation;
                if let Err(e) = self.wal.mark_punctuation() {
                    eprintln!("morphstream durability: WAL punctuation marker failed: {e}");
                }
            }
            self.checkpoint_if_due();
        }
        result
    }

    /// Mirror a punctuation marker the primary wrote (replicas only), then
    /// take the interval checkpoint if one is due: a replica checkpoints on
    /// its primary's punctuation boundaries.
    pub fn mark_punctuation(&mut self) -> Result<(), DurabilityError> {
        self.wal.mark_punctuation()?;
        self.checkpoint_if_due();
        Ok(())
    }

    /// From now on write a punctuation marker every `punctuation` ingested
    /// events instead of mirroring a primary's: what promotion does to a
    /// replica's engine.
    pub fn set_punctuation(&mut self, punctuation: u64) {
        self.punctuation = punctuation;
        self.since_marker = 0;
    }

    fn checkpoint_if_due(&mut self) {
        if self.checkpoint_interval > 0 && self.since_checkpoint >= self.checkpoint_interval {
            self.checkpoint_or_warn();
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
    /// steps). `Err` means it was not published — the dirty flags were
    /// handed back — or that it was but the WAL could not be trimmed.
    pub fn checkpoint_now(&mut self) -> Result<(), DurabilityError> {
        self.since_checkpoint = 0;
        let started = Instant::now();
        let mut builder = CheckpointBuilder::new();
        self.engine.checkpoint(&mut builder);
        // The flush inside `checkpoint` pushed every appended event through
        // the engine, so the digest state and the WAL index describe the
        // same cut as the captured tables.
        let events_applied = self.wal.next_index();
        let taken_dirty = builder.taken_dirty();
        let checkpoint = builder.build(
            self.checkpoints.next_id(),
            events_applied,
            self.output_digest.finish(),
        );
        let saved = match self.checkpoints.save(&checkpoint) {
            Ok(saved) => saved,
            Err(e) => {
                // Never persisted, but the engine already consumed the dirty
                // flags: give them back so the next checkpoint re-captures
                // these tables, and leave the WAL untruncated so replay
                // still covers their writes.
                self.engine.checkpoint(&mut RedirtySink::new(taken_dirty));
                return Err(e);
            }
        };
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += saved.bytes;
        self.stats.last_checkpoint = started.elapsed();
        self.wal.rotate()?;
        self.wal.truncate_before(events_applied)?;
        Ok(())
    }

    /// Discard all local state — engine, WAL, checkpoints — and adopt the
    /// checkpoint chain a primary shipped, which must cover exactly
    /// `events_applied` events (an empty chain is the empty state at 0).
    /// The old handles are dropped before their files are deleted; the
    /// chain is then written out and recovered like any other directory
    /// ([`DurableEngine::open`], re-anchor included) into the fresh
    /// `engine`. On error nothing of the old state remains in memory, and
    /// whatever reached the disk is what the next `open` recovers.
    pub fn adopt_chain(
        self,
        engine: E,
        chain: &[Checkpoint],
        events_applied: u64,
    ) -> Result<Self, DurabilityError> {
        let covered = chain.last().map_or(0, |c| c.events_applied);
        if covered != events_applied {
            return Err(DurabilityError::corrupt(format!(
                "shipped chain covers {covered} events, primary announced {events_applied}"
            )));
        }
        let (dir, fsync, interval, retain, punctuation) = (
            self.dir.clone(),
            self.fsync,
            self.checkpoint_interval,
            self.checkpoint_retain,
            self.punctuation,
        );
        drop(self);
        for sub in ["wal", "checkpoints"] {
            match std::fs::remove_dir_all(dir.join(sub)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        let mut shipped = CheckpointStore::open_with_retention(dir.join("checkpoints"), retain)?;
        for checkpoint in chain {
            shipped.save(checkpoint)?;
        }
        Ok(Self::open(dir, engine, fsync, interval, retain, punctuation)?.0)
    }

    /// The engine, for reads (reports, live rows).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The engine, for session control (`flush`, `finish`). Events pushed
    /// here bypass the log; use [`DurableEngine::ingest`].
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The log, for fault injection in tests ([`WalLog::swap_segment`]).
    #[doc(hidden)]
    pub fn wal_mut(&mut self) -> &mut WalLog {
        &mut self.wal
    }

    /// Events durably logged so far: the WAL's next index.
    pub fn next_index(&self) -> u64 {
        self.wal.next_index()
    }

    /// Order-sensitive digest of every output emitted so far, across
    /// restarts.
    pub fn output_digest(&self) -> u64 {
        self.output_digest.finish()
    }

    /// Id of the newest checkpoint in the live chain, if any.
    pub fn latest_checkpoint_id(&self) -> Option<u64> {
        self.checkpoints.entries().last().map(|e| e.id)
    }

    /// The cumulative counters, as of now.
    pub fn stats(&self) -> DurableStats {
        DurableStats {
            next_index: self.wal.next_index(),
            wal_records: self.wal.records_appended(),
            wal_bytes: self.wal.bytes_appended(),
            wal_segments: self.wal.segment_count(),
            ..self.stats
        }
    }
}
