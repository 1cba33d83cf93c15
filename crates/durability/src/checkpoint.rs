//! Punctuation-aligned checkpoints of [`StateStore`] state.
//!
//! A checkpoint is a snapshot of every table of every store, captured at a
//! flush barrier so no in-flight batch straddles the cut. Each one
//! supersedes every checkpoint before it, so recovery loads exactly one
//! file, then replays the write-ahead log from its `events_applied`.
//!
//! # The `MSC1` on-disk format
//!
//! Checkpoints serialize with the same total-decoder discipline as the
//! `MSB1` wire codec: version-tagged magic, bounded counts, a trailing
//! FNV-1a integrity word, and trailing-byte rejection. Layout (integers
//! little-endian):
//!
//! ```text
//! "MSC1"
//! u64 id                      monotonically increasing checkpoint id
//! u64 events_applied          input events covered by this checkpoint
//! u64 output_digest           FNV-1a state of the output stream so far
//! u8  full                    always 1; 0 marks an incremental checkpoint
//!                             of an older build, which decoding refuses
//! u32 store_count
//!   u32 ordinal               store position in TxnEngine::checkpoint order
//!   u32 table_count
//!     u32 name_len, name bytes (UTF-8)
//!     i64 default_value
//!     u8  auto_create
//!     u64 entry_count
//!       (u64 key, i64 value) * entry_count      sorted by key
//! u64 fnv                     FNV-1a over every preceding byte
//! ```
//!
//! Decoding never panics: counts are bounded by the bytes that remain, the
//! checksum is verified before the payload is trusted, and trailing bytes
//! are rejected.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use morphstream::pipeline::{CheckpointSink, CheckpointSource};
use morphstream_common::hash::Fnv1a;
use morphstream_common::json::{self, JsonObject};
use morphstream_common::protocol::{PayloadReader, ProtocolError};
use morphstream_common::{Key, Value};
use morphstream_storage::StateStore;

use crate::error::DurabilityError;
use crate::sync_dir;

/// Version-tagged magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"MSC1";

/// Manifest file name inside the checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Full latest-value snapshot of one table, as carried by a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Table name (the restore key: ids are reassigned on restart).
    pub name: String,
    /// Default value for newly created keys.
    pub default_value: Value,
    /// Whether keys materialise on first access.
    pub auto_create: bool,
    /// Latest value per key, sorted by key for deterministic bytes.
    pub entries: Vec<(Key, Value)>,
}

/// Every table of one store, identified by its checkpoint ordinal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSection {
    /// Position of the store in the engine's `checkpoint` enumeration. The
    /// topology enumerates deduplicated stores in builder order, which is
    /// deterministic across restarts of the same topology.
    pub ordinal: u32,
    /// Snapshots of the store's tables, in table-id order.
    pub tables: Vec<TableSnapshot>,
}

/// One checkpoint: a consistent cut of engine state at a flush barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonically increasing id (also orders the files on disk).
    pub id: u64,
    /// Number of input events the snapshot covers; WAL replay resumes here.
    pub events_applied: u64,
    /// FNV-1a state of the output digest at the cut (resumed on restore).
    pub output_digest: u64,
    /// Per-store sections, in checkpoint-ordinal order.
    pub stores: Vec<StoreSection>,
}

impl Checkpoint {
    /// Serialize to the `MSC1` binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.events_applied.to_le_bytes());
        out.extend_from_slice(&self.output_digest.to_le_bytes());
        out.push(1); // full: every checkpoint is
        out.extend_from_slice(&(self.stores.len() as u32).to_le_bytes());
        for store in &self.stores {
            out.extend_from_slice(&store.ordinal.to_le_bytes());
            out.extend_from_slice(&(store.tables.len() as u32).to_le_bytes());
            for table in &store.tables {
                out.extend_from_slice(&(table.name.len() as u32).to_le_bytes());
                out.extend_from_slice(table.name.as_bytes());
                out.extend_from_slice(&table.default_value.to_le_bytes());
                out.push(table.auto_create as u8);
                out.extend_from_slice(&(table.entries.len() as u64).to_le_bytes());
                for (key, value) in &table.entries {
                    out.extend_from_slice(&key.to_le_bytes());
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
        }
        Fnv1a::seal(&mut out, 0);
        out
    }

    /// Decode an `MSC1` image. Total: corrupt or truncated input yields an
    /// error, never a panic, and trailing bytes are rejected.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 8 {
            return Err(ProtocolError::Truncated);
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(ProtocolError::Malformed(
                "bad checkpoint magic (expected MSC1)".into(),
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        if !Fnv1a::verify(body, trailer) {
            return Err(ProtocolError::Malformed(
                "checkpoint checksum mismatch".into(),
            ));
        }
        let mut r = PayloadReader::new(&body[4..]);
        let id = r.u64()?;
        let events_applied = r.u64()?;
        let output_digest = r.u64()?;
        match r.u8()? {
            1 => {}
            0 => {
                return Err(ProtocolError::Malformed(
                    "incremental checkpoint (written by an older build)".into(),
                ))
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        }
        let raw_stores = r.u32()? as usize;
        let store_count = r.bounded_count(raw_stores, 8, "stores")?;
        let mut stores = Vec::with_capacity(store_count);
        for _ in 0..store_count {
            let ordinal = r.u32()?;
            let raw_tables = r.u32()? as usize;
            let table_count = r.bounded_count(raw_tables, 21, "tables")?;
            let mut tables = Vec::with_capacity(table_count);
            for _ in 0..table_count {
                let raw_name_len = r.u32()? as usize;
                let name_len = r.bounded_count(raw_name_len, 1, "table name")?;
                let name = String::from_utf8(r.bytes(name_len)?.to_vec())
                    .map_err(|_| ProtocolError::Malformed("table name is not UTF-8".into()))?;
                let default_value = r.i64()?;
                let auto_create = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(ProtocolError::UnknownTag(other)),
                };
                let raw_entries = r.u64()? as usize;
                let entry_count = r.bounded_count(raw_entries, 16, "entries")?;
                let mut entries = Vec::with_capacity(entry_count);
                for _ in 0..entry_count {
                    let key = r.u64()?;
                    let value = r.i64()?;
                    entries.push((key, value));
                }
                tables.push(TableSnapshot {
                    name,
                    default_value,
                    auto_create,
                    entries,
                });
            }
            stores.push(StoreSection { ordinal, tables });
        }
        r.finish()?;
        Ok(Self {
            id,
            events_applied,
            output_digest,
            stores,
        })
    }
}

/// [`CheckpointSink`] that captures every table of every store an engine
/// exposes, then builds a [`Checkpoint`] from them.
#[derive(Debug, Default)]
pub struct CheckpointBuilder {
    sections: Vec<StoreSection>,
}

impl CheckpointBuilder {
    /// Empty builder; pass to `TxnEngine::checkpoint`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of table snapshots captured.
    pub fn table_count(&self) -> usize {
        self.sections.iter().map(|s| s.tables.len()).sum()
    }

    /// Finish into a [`Checkpoint`] carrying the given cut metadata.
    pub fn build(self, id: u64, events_applied: u64, output_digest: u64) -> Checkpoint {
        Checkpoint {
            id,
            events_applied,
            output_digest,
            stores: self.sections,
        }
    }
}

impl CheckpointSink for CheckpointBuilder {
    fn store(&mut self, ordinal: usize, store: &StateStore) {
        let tables = store
            .tables()
            .iter()
            .map(|table| {
                let mut entries: Vec<(Key, Value)> = table.snapshot_latest().into_iter().collect();
                entries.sort_unstable_by_key(|(key, _)| *key);
                TableSnapshot {
                    name: table.name().to_string(),
                    default_value: table.default_value(),
                    auto_create: table.is_auto_create(),
                    entries,
                }
            })
            .collect();
        self.sections.push(StoreSection {
            ordinal: ordinal as u32,
            tables,
        });
    }
}

/// A checkpoint restores itself: each store gets the tables of its section.
impl CheckpointSource for Checkpoint {
    fn restore(&mut self, ordinal: usize, store: &StateStore) {
        let Some(section) = self.stores.iter().find(|s| s.ordinal as usize == ordinal) else {
            return;
        };
        for snap in &section.tables {
            // Idempotent: returns the existing id when the application
            // already created the table during construction.
            let id = store.create_table(&snap.name, snap.default_value, snap.auto_create);
            for (key, value) in &snap.entries {
                let _ = store.seed(id, *key, *value);
            }
        }
    }
}

/// One line of the checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Checkpoint id; equals the id inside the referenced file.
    pub id: u64,
    /// File name (relative to the checkpoint directory).
    pub file: String,
    /// Input events the checkpoint covers.
    pub events_applied: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// True when the entry was superseded by a later checkpoint but is kept
    /// as bounded history under a retention policy. Recovery never loads a
    /// retained entry.
    pub retained: bool,
}

impl ManifestEntry {
    fn to_json(&self) -> String {
        JsonObject::new()
            .unsigned("id", self.id)
            .string("file", &self.file)
            .boolean("full", true)
            .unsigned("events_applied", self.events_applied)
            .unsigned("bytes", self.bytes)
            .boolean("retained", self.retained)
            .build()
    }

    fn from_json(line: &str) -> Result<Self, DurabilityError> {
        let fields = json::parse_object(line)
            .map_err(|e| DurabilityError::corrupt(format!("manifest line: {e}")))?;
        let unsigned = |key: &str| -> Result<u64, DurabilityError> {
            fields
                .get(key)
                .and_then(json::JsonValue::as_u64)
                .ok_or_else(|| DurabilityError::corrupt(format!("manifest field {key}")))
        };
        let file = fields
            .get("file")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| DurabilityError::corrupt("manifest field file"))?
            .to_string();
        if file.contains(['/', '\\']) || file.contains("..") {
            return Err(DurabilityError::corrupt("manifest file escapes directory"));
        }
        if fields.get("full") != Some(&json::JsonValue::Bool(true)) {
            return Err(DurabilityError::corrupt(format!(
                "{file} is an incremental checkpoint (written by an older build)"
            )));
        }
        Ok(Self {
            id: unsigned("id")?,
            file,
            events_applied: unsigned("events_applied")?,
            bytes: unsigned("bytes")?,
            retained: fields.get("retained") == Some(&json::JsonValue::Bool(true)),
        })
    }
}

/// Result of persisting one checkpoint.
#[derive(Debug, Clone)]
pub struct SavedCheckpoint {
    /// Encoded size in bytes (what `checkpoint_bytes` counters report).
    pub bytes: u64,
    /// Path of the published file.
    pub path: PathBuf,
}

/// The newest checkpoint, loaded and ready to seed an engine.
pub struct LoadedChain {
    /// The checkpoint; pass to `TxnEngine::restore`. Its `events_applied`
    /// is where WAL replay resumes, its `output_digest` the FNV-1a state
    /// the output digest resumes from.
    pub restore: Checkpoint,
}

/// Directory of checkpoint files plus the manifest that orders them.
///
/// Publication is atomic: the checkpoint is written to a temp file, fsynced,
/// renamed into place, and the directory fsynced — only then is the manifest
/// rewritten (also via temp + rename), and only after *that* are any
/// superseded checkpoint files deleted. A crash at any point leaves either
/// the old manifest (plus an orphan new file) or the new manifest (plus
/// stale old files); recovery ignores files the manifest does not
/// reference, so both are benign.
pub struct CheckpointStore {
    dir: PathBuf,
    /// The newest checkpoint, the one recovery loads.
    live: Option<ManifestEntry>,
    /// Superseded history kept under the retention policy, oldest first.
    retained: Vec<ManifestEntry>,
    /// How many superseded checkpoints to keep; 0 deletes each as soon as
    /// its successor is published (the default).
    retain: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory and read the
    /// manifest. A missing manifest means a fresh store. Superseded
    /// checkpoints are deleted as soon as they are unreferenced; see
    /// [`CheckpointStore::open_with_retention`] to keep bounded history.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        Self::open_with_retention(dir, 0)
    }

    /// Open like [`CheckpointStore::open`], but keep up to `retain`
    /// superseded checkpoints as history: each save marks the checkpoint it
    /// displaces `retained` in the manifest instead of deleting it, and only
    /// entries beyond the bound are pruned (always after the new manifest is
    /// published).
    pub fn open_with_retention(
        dir: impl Into<PathBuf>,
        retain: usize,
    ) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_NAME);
        let mut live = None;
        let mut retained = Vec::new();
        match fs::read_to_string(&manifest) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let entry = ManifestEntry::from_json(line)?;
                    if entry.retained {
                        retained.push(entry);
                    } else if live.replace(entry).is_some() {
                        return Err(DurabilityError::corrupt(
                            "manifest lists more than one live checkpoint",
                        ));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(Self {
            dir,
            live,
            retained,
            retain,
        })
    }

    /// Id the next checkpoint should carry (one past the newest on disk).
    pub fn next_id(&self) -> u64 {
        self.live
            .as_ref()
            .or(self.retained.last())
            .map(|e| e.id + 1)
            .unwrap_or(0)
    }

    /// The manifest entry of the newest checkpoint, or none: zero or one
    /// entry. Retained history is listed by
    /// [`CheckpointStore::retained_entries`].
    pub fn entries(&self) -> &[ManifestEntry] {
        self.live.as_slice()
    }

    /// Superseded checkpoints kept as history, oldest first.
    pub fn retained_entries(&self) -> &[ManifestEntry] {
        &self.retained
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist a checkpoint and publish it in the manifest. It supersedes
    /// the one before it, and only once the new manifest is durably
    /// published is the superseded file deleted — a crash in between leaves
    /// a stale file no manifest references, which recovery ignores. The
    /// reverse order would let a crash strand a manifest pointing at a
    /// deleted file, bricking startup.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<SavedCheckpoint, DurabilityError> {
        let encoded = checkpoint.encode();
        let file = format!("chk-{:08}.msc", checkpoint.id);
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&encoded)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;

        let entry = ManifestEntry {
            id: checkpoint.id,
            file,
            events_applied: checkpoint.events_applied,
            bytes: encoded.len() as u64,
            retained: false,
        };
        let superseded = self.live.replace(entry);
        let pruned: Vec<ManifestEntry> = if self.retain == 0 {
            superseded.into_iter().collect()
        } else {
            self.retained.extend(superseded.map(|mut e| {
                e.retained = true;
                e
            }));
            let over = self.retained.len().saturating_sub(self.retain);
            self.retained.drain(..over).collect()
        };
        self.rewrite_manifest()?;
        // Only now — the new manifest no longer references these files.
        for old in &pruned {
            let _ = fs::remove_file(self.dir.join(&old.file));
        }
        Ok(SavedCheckpoint {
            bytes: encoded.len() as u64,
            path,
        })
    }

    fn rewrite_manifest(&self) -> Result<(), DurabilityError> {
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            for entry in self.retained.iter().chain(&self.live) {
                writeln!(f, "{}", entry.to_json())?;
            }
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST_NAME))?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Load the newest checkpoint. Returns `None` when none exists. A
    /// manifest that references a missing or corrupt file is a hard error:
    /// publication order guarantees referenced files are complete, so damage
    /// here means the data is actually lost.
    pub fn load_chain(&self) -> Result<Option<LoadedChain>, DurabilityError> {
        let Some(entry) = &self.live else {
            return Ok(None);
        };
        let mut bytes = Vec::new();
        File::open(self.dir.join(&entry.file))?.read_to_end(&mut bytes)?;
        let checkpoint = Checkpoint::decode(&bytes)
            .map_err(|e| DurabilityError::corrupt(format!("{}: {e}", entry.file)))?;
        if checkpoint.id != entry.id {
            return Err(DurabilityError::corrupt(format!(
                "{}: id {} does not match manifest id {}",
                entry.file, checkpoint.id, entry.id
            )));
        }
        Ok(Some(LoadedChain {
            restore: checkpoint,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use morphstream::udfs;
    use morphstream::TxnEngine;
    use morphstream::{EngineConfig, MorphStream, StreamApp, TxnBuilder};
    use morphstream_common::TableId;

    struct Counter {
        table: TableId,
    }

    impl StreamApp for Counter {
        type Event = u64;
        type Output = bool;

        fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
            txn.write(self.table, *key, udfs::add_delta(1));
        }

        fn post_process(&self, _key: &u64, outcome: &morphstream::TxnOutcome) -> bool {
            outcome.committed
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            id: 7,
            events_applied: 123,
            output_digest: 0xdead_beef_cafe_f00d,
            stores: vec![StoreSection {
                ordinal: 0,
                tables: vec![TableSnapshot {
                    name: "accounts".into(),
                    default_value: 100,
                    auto_create: false,
                    entries: vec![(0, 17), (3, -2), (9, 100)],
                }],
            }],
        }
    }

    #[test]
    fn checkpoint_round_trips_through_msc1() {
        let chk = sample_checkpoint();
        let bytes = chk.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), chk);
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let bytes = sample_checkpoint().encode();
        // Truncation at every prefix length.
        for len in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..len]).is_err());
        }
        // Any single bit flip trips the checksum (or an earlier check).
        for i in 0..bytes.len() {
            let mut dented = bytes.clone();
            dented[i] ^= 1;
            assert!(Checkpoint::decode(&dented).is_err(), "bit flip at {i}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Checkpoint::decode(&extended).is_err());
    }

    #[test]
    fn every_checkpoint_captures_every_table() {
        let store = StateStore::new();
        let hot = store.create_table("hot", 0, true);
        let cold: Vec<TableId> = (0..7)
            .map(|i| store.create_table(format!("cold{i}"), 0, true))
            .collect();
        for key in 0..64 {
            store.seed(hot, key, 1).unwrap();
            for table in &cold {
                store.seed(*table, key, 1).unwrap();
            }
        }
        let capture = |id| {
            let mut builder = CheckpointBuilder::new();
            CheckpointSink::store(&mut builder, 0, &store);
            builder.build(id, 0, 0)
        };
        let first = capture(0);

        // Touch only `hot`: the next checkpoint still carries all eight
        // tables, in id order, and `hot` at its new value.
        store.seed(hot, 5, 42).unwrap();
        let second = capture(1);
        let names: Vec<&str> = second.stores[0]
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["hot", "cold0", "cold1", "cold2", "cold3", "cold4", "cold5", "cold6"]
        );
        assert_eq!(second.stores[0].tables[0].entries[5], (5, 42));
        assert_eq!(second.stores[0].tables[1..], first.stores[0].tables[1..]);
    }

    #[test]
    fn a_checkpoint_chain_of_an_older_build_is_refused() {
        // The file: the `full` byte (after magic, id, events, digest) is 0.
        let mut bytes = sample_checkpoint().encode();
        bytes.truncate(bytes.len() - 8);
        bytes[28] = 0;
        Fnv1a::seal(&mut bytes, 0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(ProtocolError::Malformed(_))
        ));

        // The manifest: a live entry not marked full, or two live entries.
        let line = |id: u64, full: bool| {
            format!(
                "{{\"id\":{id},\"file\":\"chk-{id:08}.msc\",\"full\":{full},\
                 \"events_applied\":0,\"bytes\":0,\"retained\":false}}\n"
            )
        };
        let dir = test_dir("chk-older");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), line(0, true)).unwrap();
        assert_eq!(CheckpointStore::open(&dir).unwrap().entries().len(), 1);
        for manifest in [line(0, false), line(0, true) + &line(1, true)] {
            fs::write(dir.join(MANIFEST_NAME), manifest).unwrap();
            assert!(matches!(
                CheckpointStore::open(&dir),
                Err(DurabilityError::Corrupt(_))
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_publishes_atomically_and_supersedes_on_full() {
        let dir = test_dir("chk-store");
        let mut cs = CheckpointStore::open(&dir).unwrap();
        assert_eq!(cs.next_id(), 0);

        let mut first = sample_checkpoint();
        first.id = 0;
        cs.save(&first).unwrap();
        let mut second = sample_checkpoint();
        second.id = 1;
        second.events_applied = 200;
        cs.save(&second).unwrap();
        // The second supersedes the first, whose file is gone.
        assert_eq!(cs.entries().len(), 1);
        assert!(!dir.join("chk-00000000.msc").exists());
        assert!(dir.join("chk-00000001.msc").exists());

        // Reopen: the newest checkpoint survives and loads.
        let cs2 = CheckpointStore::open(&dir).unwrap();
        assert_eq!(cs2.next_id(), 2);
        let loaded = cs2.load_chain().unwrap().unwrap();
        assert_eq!(loaded.restore, second);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_files_outside_the_manifest_are_ignored() {
        // A crash after the manifest is published but before superseded
        // files are deleted leaves stale .msc files; they must not affect
        // open or load_chain.
        let dir = test_dir("chk-stale");
        let mut cs = CheckpointStore::open(&dir).unwrap();
        let mut full = sample_checkpoint();
        full.id = 0;
        cs.save(&full).unwrap();
        let mut stale = sample_checkpoint();
        stale.id = 99;
        fs::write(dir.join("chk-00000099.msc"), stale.encode()).unwrap();

        let cs2 = CheckpointStore::open(&dir).unwrap();
        assert_eq!(cs2.entries().len(), 1);
        let loaded = cs2.load_chain().unwrap().unwrap();
        assert_eq!(loaded.restore.id, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_bounded_history_and_prunes_after_publish() {
        let dir = test_dir("chk-retain");
        // Every file the on-disk manifest references must exist — checked
        // after each save, which is exactly the "prune only after the new
        // manifest is published" invariant made observable.
        let manifest_entries = |dir: &std::path::Path| -> Vec<ManifestEntry> {
            fs::read_to_string(dir.join(MANIFEST_NAME))
                .unwrap()
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| ManifestEntry::from_json(l).unwrap())
                .collect()
        };
        let assert_consistent = |dir: &std::path::Path| {
            for entry in manifest_entries(dir) {
                assert!(
                    dir.join(&entry.file).exists(),
                    "manifest references missing file {}",
                    entry.file
                );
            }
        };

        let mut cs = CheckpointStore::open_with_retention(&dir, 1).unwrap();
        for id in 0..2u64 {
            let mut chk = sample_checkpoint();
            chk.id = id;
            chk.events_applied = 100 * (id + 1);
            cs.save(&chk).unwrap();
            assert_consistent(&dir);
        }
        // The superseded checkpoint is retained, not deleted.
        assert_eq!(cs.entries().len(), 1);
        assert_eq!(cs.retained_entries().len(), 1);
        assert_eq!(cs.retained_entries()[0].id, 0);
        assert!(dir.join("chk-00000000.msc").exists());
        // Recovery still loads only the live checkpoint.
        assert_eq!(cs.load_chain().unwrap().unwrap().restore.id, 1);

        // A third checkpoint overflows the bound: the oldest retained
        // file is pruned, the newer one kept.
        let mut chk = sample_checkpoint();
        chk.id = 2;
        chk.events_applied = 300;
        cs.save(&chk).unwrap();
        assert_consistent(&dir);
        assert!(!dir.join("chk-00000000.msc").exists());
        assert!(dir.join("chk-00000001.msc").exists());
        let listed = manifest_entries(&dir);
        assert!(
            listed.iter().all(|e| e.id != 0),
            "pruned entry still listed"
        );
        assert!(listed.iter().any(|e| e.id == 1 && e.retained));

        // Reopen: retained history and id space survive.
        let cs2 = CheckpointStore::open_with_retention(&dir, 1).unwrap();
        assert_eq!(cs2.next_id(), 3);
        assert_eq!(cs2.retained_entries().len(), 1);
        assert_eq!(cs2.load_chain().unwrap().unwrap().restore.id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_checkpoint_restore_round_trip_preserves_state_digest() {
        let store = StateStore::new();
        let table = store.create_table("counts", 0, true);
        let app = Counter { table };
        let mut engine = MorphStream::new(app, store.clone(), EngineConfig::with_threads(2));
        engine.run(vec![1, 2, 1, 3, 1, 2]);

        let mut builder = CheckpointBuilder::new();
        TxnEngine::checkpoint(&mut engine, &mut builder);
        let mut chk = builder.build(0, 6, 0);
        let digest_before = store.state_digest();

        // Fresh store + engine, restore, compare digests.
        let store2 = StateStore::new();
        let table2 = store2.create_table("counts", 0, true);
        let app2 = Counter { table: table2 };
        let mut engine2 = MorphStream::new(app2, store2.clone(), EngineConfig::with_threads(2));
        TxnEngine::restore(&mut engine2, &mut chk);
        assert_eq!(store2.state_digest(), digest_before);
    }
}
