//! Write-ahead input log: every event is appended (and optionally fsynced)
//! *before* it reaches the engine, so the log is always a superset of
//! what the engine has seen, in identical order. Recovery replays the tail
//! of the log — events with index ≥ the latest checkpoint's
//! `events_applied` — through the same pipeline.
//!
//! Appends come in chunks ([`WalLog::append_chunk`]): the records of a
//! chunk's events, and the punctuation marker that falls due after them,
//! are framed into one buffer and written with one `write` — and, where the
//! policy asks for it, one fsync. A chunk is logged whole or not at all.
//! The bytes are the same however the events were chunked: one event per
//! call ([`WalLog::append_event`]) writes the same log.
//!
//! # The `MSW1` segment format
//!
//! The log is a directory of segment files named `seg-<first_index>.msw`.
//! Each segment starts with a header and carries a sequence of records:
//!
//! ```text
//! "MSW1"  u64 first_index          global index of the first event record
//! record := u8 tag                 1 = event, 2 = punctuation marker
//!           u32 len                payload length (bounded)
//!           payload                tag 1: the event's MSB1 wire encoding
//!                                  tag 2: u64 events appended so far
//!           u64 fnv                FNV-1a over [tag, len bytes, payload]
//! ```
//!
//! One walk reads that format — header check, record framing, tag
//! classification — for the live [`WalTailer`], for recovery ([`read_wal`])
//! and for [`decode_segment`] alike.
//!
//! A crash can tear the record being written when power fails, or land
//! between a segment's creation and its header, so the *last* segment is
//! read leniently: the valid prefix is kept and the torn tail dropped, and a
//! file too short for its header is a segment nothing was logged to. Damage
//! in any earlier segment (which was sealed by a later rotation) is a hard
//! error — that data is really gone. Reading is total either way: corrupt
//! bytes produce errors or a clean torn-prefix, never a panic. Recovery
//! then seals the newest segment on disk at the offset its walk stopped at
//! (a headerless one is deleted): once the server appends new events a
//! newer segment exists, the torn one counts as sealed, and un-repaired
//! damage would turn into a hard error on the *next* restart.
//!
//! The append side keeps the same invariant while it runs: a record that
//! could not be written whole is cut off again before anything else is
//! appended behind it (see [`WalLog`]).
//!
//! Segments rotate at checkpoints; once a checkpoint covers index `n`,
//! every segment whose successor starts at or below `n` is obsolete and
//! [`WalLog::truncate_before`] deletes it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use morphstream_common::hash::Fnv1a;
use morphstream_common::protocol::{WireCodec, MAX_FRAME_LEN};

use crate::error::DurabilityError;

/// Version-tagged magic prefix of a WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"MSW1";

/// Bytes of a segment header: the magic, then `u64 first_index`.
const SEGMENT_HEADER: usize = WAL_MAGIC.len() + 8;

const REC_EVENT: u8 = 1;
const REC_PUNCTUATION: u8 = 2;
/// Bytes before a record's payload: `u8 tag` + `u32 len`.
const RECORD_HEADER: usize = 5;
/// Bytes after a record's payload: the `u64` FNV-1a trailer.
const RECORD_TRAILER: usize = 8;

/// When the log fsyncs, trading durability against append latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every append: no acknowledged event is ever lost, at the
    /// cost of one disk round-trip per appended chunk (per
    /// `DurableEngine::ingest` call).
    Always,
    /// fsync at punctuation markers and checkpoints: a crash can lose at
    /// most the current punctuation interval of acknowledged events.
    #[default]
    Interval,
    /// Never fsync explicitly (the OS flushes when it pleases): fastest,
    /// loses whatever the page cache held. For benchmarks and tests.
    Never,
}

impl FsyncPolicy {
    /// Parse a policy name as accepted by `--fsync`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "always" => Some(Self::Always),
            "interval" => Some(Self::Interval),
            "never" => Some(Self::Never),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`FsyncPolicy::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Interval => "interval",
            Self::Never => "never",
        }
    }
}

/// The segment appends go to.
struct Tip {
    path: PathBuf,
    file: File,
    /// Length of the header plus every record written whole: the offset a
    /// failed append is cut back to.
    len: u64,
    /// Set by a failed append: part of a record may sit behind `len`.
    suspect: bool,
}

impl Tip {
    /// Append `records` whole (and fsync them when `sync`), or leave the
    /// segment marked suspect: a record whose sync failed is cut off like
    /// one whose write did.
    fn append(&mut self, records: &[u8], sync: bool) -> io::Result<()> {
        let mut written = self.file.write_all(records);
        if sync && written.is_ok() {
            written = self.file.sync_data();
        }
        match written {
            Ok(()) => self.len += records.len() as u64,
            Err(_) => self.suspect = true,
        }
        written
    }

    /// Cut the segment back to its last whole record, through a fresh
    /// handle — where the old one's cursor stands after a failed write is
    /// anyone's guess.
    fn heal(&mut self) -> io::Result<()> {
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(self.len)?;
        file.seek(SeekFrom::Start(self.len))?;
        self.file = file;
        self.suspect = false;
        Ok(())
    }
}

/// Append half of the write-ahead log.
///
/// An append whose write or fsync fails may leave part of its chunk at the
/// end of the open segment. Nothing is ever written behind it: the next
/// append (or the rotation that would seal the segment) first cuts the
/// segment back to where the last whole chunk ended, and fails in its turn
/// for as long as that cannot be done — acknowledged events never sit
/// behind bytes that recovery would stop at or replay.
pub struct WalLog {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// Open segment, if any; a new one is started lazily on first append
    /// after open or rotation.
    current: Option<Tip>,
    /// Global index of the next event to append.
    next_index: u64,
    records_appended: u64,
    bytes_appended: u64,
    /// Segment files on disk: counted at open, kept current by
    /// `ensure_segment` and `truncate_before`.
    segments: u64,
    scratch: Vec<u8>,
}

impl WalLog {
    /// Open the log directory (creating it if needed). `next_index` is the
    /// global index the next appended event will carry — 0 on a fresh
    /// start, or the recovered event count on restart.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        next_index: u64,
    ) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?.len() as u64;
        Ok(Self {
            dir,
            policy,
            current: None,
            next_index,
            records_appended: 0,
            bytes_appended: 0,
            segments,
            scratch: Vec::new(),
        })
    }

    /// Global index of the next event to append (= events covered so far).
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Records appended through this handle (events + punctuation markers).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Bytes appended through this handle, including framing.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> u64 {
        self.segments
    }

    /// The open segment, cut back to its last whole record first if a
    /// failed append left it suspect.
    fn healed_tip(&mut self) -> Result<Option<&mut Tip>, DurabilityError> {
        let Some(tip) = self.current.as_mut() else {
            return Ok(None);
        };
        if tip.suspect {
            tip.heal()?;
        }
        Ok(Some(tip))
    }

    fn ensure_segment(&mut self) -> Result<&mut Tip, DurabilityError> {
        if self.healed_tip()?.is_none() {
            let path = self.dir.join(segment_name(self.next_index));
            // An eventless segment of the same name (a crash right after
            // its creation) is overwritten in place, not added.
            let replaced = path.exists();
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            let mut header = [0u8; SEGMENT_HEADER];
            header[..WAL_MAGIC.len()].copy_from_slice(&WAL_MAGIC);
            header[WAL_MAGIC.len()..].copy_from_slice(&self.next_index.to_le_bytes());
            file.write_all(&header)?;
            // Make the directory entry durable too: fsyncing record bytes is
            // worthless if the file itself vanishes with the dir on power
            // loss. Once per segment, so cheap under any policy.
            if self.policy != FsyncPolicy::Never {
                crate::sync_dir(&self.dir)?;
            }
            self.bytes_appended += SEGMENT_HEADER as u64;
            self.segments += u64::from(!replaced);
            self.current = Some(Tip {
                path,
                file,
                len: SEGMENT_HEADER as u64,
                suspect: false,
            });
        }
        Ok(self.current.as_mut().expect("segment just ensured"))
    }

    /// Frame one record at the end of `scratch`: tag, `u32` length, the
    /// payload `encode` appends, FNV-1a trailer.
    fn frame(&mut self, tag: u8, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), DurabilityError> {
        let start = self.scratch.len();
        self.scratch.extend_from_slice(&[tag, 0, 0, 0, 0]);
        encode(&mut self.scratch);
        let payload_len = self.scratch.len() - start - RECORD_HEADER;
        if payload_len > MAX_FRAME_LEN {
            return Err(DurabilityError::corrupt(format!(
                "WAL record of {payload_len} bytes exceeds the frame limit"
            )));
        }
        self.scratch[start + 1..start + RECORD_HEADER]
            .copy_from_slice(&(payload_len as u32).to_le_bytes());
        Fnv1a::seal(&mut self.scratch, start);
        Ok(())
    }

    /// Append the `events` records framed in `scratch`, plus the
    /// punctuation marker behind them when `punctuate`, with a single
    /// `write_all` (and at most one fsync): a concurrent [`WalTailer`] may
    /// still observe the write half-done, but the log pays one syscall per
    /// call. All or nothing: a failed write or sync advances no counter and
    /// leaves the segment to be cut back before the next append. Returns the
    /// global index of the first event.
    fn append_framed(&mut self, events: u64, punctuate: bool) -> Result<u64, DurabilityError> {
        let first = self.next_index;
        let mut records = events;
        if punctuate {
            let covered = first + events;
            self.frame(REC_PUNCTUATION, |out| {
                out.extend_from_slice(&covered.to_le_bytes())
            })?;
            records += 1;
        }
        if records == 0 {
            return Ok(first);
        }
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval => punctuate,
            FsyncPolicy::Never => false,
        };
        let chunk = std::mem::take(&mut self.scratch);
        let written = self
            .ensure_segment()
            .and_then(|tip| Ok(tip.append(&chunk, sync)?));
        self.scratch = chunk;
        written?;
        self.next_index += events;
        self.records_appended += records;
        self.bytes_appended += self.scratch.len() as u64;
        Ok(first)
    }

    /// Append `events` and, when `punctuate`, the punctuation marker that
    /// frames them, as one write: the chunk is logged whole or not at all.
    /// Each record is what [`WalLog::append_event`] writes for that event
    /// and the marker what [`WalLog::mark_punctuation`] writes after them, so
    /// the bytes on disk do not depend on how appends are chunked. With
    /// [`FsyncPolicy::Always`] (or a marker under
    /// [`FsyncPolicy::Interval`]) the chunk is durable on return. Returns the
    /// global index of the first event.
    pub fn append_chunk<T: WireCodec>(
        &mut self,
        events: &[T],
        punctuate: bool,
    ) -> Result<u64, DurabilityError> {
        self.scratch.clear();
        for event in events {
            self.frame(REC_EVENT, |out| event.encode_binary(out))?;
        }
        self.append_framed(events.len() as u64, punctuate)
    }

    /// Append one event: [`WalLog::append_chunk`] of one. Returns the global
    /// index it was assigned.
    pub fn append_event<T: WireCodec>(&mut self, event: &T) -> Result<u64, DurabilityError> {
        self.append_chunk(std::slice::from_ref(event), false)
    }

    /// Append a punctuation marker framing the events appended so far. With
    /// [`FsyncPolicy::Interval`] this is also the fsync point.
    pub fn mark_punctuation(&mut self) -> Result<(), DurabilityError> {
        self.scratch.clear();
        self.append_framed(0, true).map(drop)
    }

    /// fsync the open segment (no-op when nothing is open).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        if let Some(tip) = self.current.as_mut() {
            tip.file.sync_data()?;
        }
        Ok(())
    }

    /// Seal the current segment; the next append starts a fresh one. Called
    /// at checkpoints so [`WalLog::truncate_before`] can delete whole
    /// segments that a checkpoint has made obsolete.
    pub fn rotate(&mut self) -> Result<(), DurabilityError> {
        if let Some(tip) = self.healed_tip()? {
            tip.file.sync_data()?;
        }
        self.current = None;
        Ok(())
    }

    /// Delete segments fully covered by a checkpoint at `events_applied`: a
    /// segment is obsolete when the *next* segment starts at or below that
    /// index. The newest segment is never deleted.
    pub fn truncate_before(&mut self, events_applied: u64) -> Result<u64, DurabilityError> {
        let segments = list_segments(&self.dir)?;
        let mut deleted = 0;
        for pair in segments.windows(2) {
            if pair[1].0 <= events_applied {
                fs::remove_file(&pair[0].1)?;
                deleted += 1;
            }
        }
        self.segments = segments.len() as u64 - deleted;
        Ok(deleted)
    }

    /// Fault injection for tests: put `file` in place of the open segment's
    /// handle and return the real one (`None` when no segment is open).
    #[doc(hidden)]
    pub fn swap_segment(&mut self, file: File) -> Option<File> {
        let tip = self.current.as_mut()?;
        Some(std::mem::replace(&mut tip.file, file))
    }
}

/// Try to decode one record at the head of `bytes`: its tag, its payload
/// and its framed length. `None` when the bytes are truncated, oversized,
/// or fail the checksum.
fn decode_record(bytes: &[u8]) -> Option<(u8, &[u8], usize)> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let tag = bytes[0];
    let len = u32::from_le_bytes(bytes[1..RECORD_HEADER].try_into().expect("4")) as usize;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let total = RECORD_HEADER + len + RECORD_TRAILER;
    if bytes.len() < total {
        return None;
    }
    let (region, trailer) = bytes[..total].split_at(RECORD_HEADER + len);
    Fnv1a::verify(region, trailer).then_some((tag, &region[RECORD_HEADER..], total))
}

/// One record, as the walk classifies it.
enum Record<'a> {
    /// An event record: the global index the writer gave it, and its MSB1
    /// payload.
    Event { index: u64, payload: &'a [u8] },
    /// A punctuation marker: the writer's `next_index` at mark time.
    Punctuation(u64),
}

/// The one walk over a segment's bytes — header, `[tag][len][payload][fnv]`
/// framing, tag classification — whoever reads them: a [`WalTailer`]
/// following a file that is still growing, recovery running to the end of
/// one that is not, or [`decode_segment`] over an image in memory.
struct SegmentWalk<R> {
    src: R,
    /// The header's `first_index`.
    first_index: u64,
    /// Global index of the next event record the walk will see.
    index: u64,
    /// Bytes read from `src`; past `walked`, not yet walked (they may end
    /// mid-record while the writer is inside its `write_all`).
    carry: Vec<u8>,
    walked: usize,
    /// Segment offset of the first unwalked byte: the length of the header
    /// plus every record walked so far.
    valid_len: u64,
}

impl<R: Read> SegmentWalk<R> {
    /// Read and check the header. `Ok(None)` when `src` ends before a whole
    /// one: a segment whose writer has not got that far (yet).
    fn open(mut src: R) -> Result<Option<Self>, DurabilityError> {
        let mut header = [0u8; SEGMENT_HEADER];
        let mut got = 0;
        while got < header.len() {
            match src.read(&mut header[got..])? {
                0 => return Ok(None),
                n => got += n,
            }
        }
        let (magic, first_index) = header.split_at(WAL_MAGIC.len());
        if magic != WAL_MAGIC {
            return Err(DurabilityError::corrupt(
                "bad WAL segment magic (expected MSW1)",
            ));
        }
        let first_index = u64::from_le_bytes(first_index.try_into().expect("8-byte index"));
        Ok(Some(Self {
            src,
            first_index,
            index: first_index,
            carry: Vec::new(),
            walked: 0,
            valid_len: SEGMENT_HEADER as u64,
        }))
    }

    /// Read whatever more `src` holds by now; returns the byte count.
    fn fill(&mut self) -> io::Result<usize> {
        self.carry.drain(..self.walked);
        self.walked = 0;
        self.src.read_to_end(&mut self.carry)
    }

    /// Whether bytes are buffered that the walk has not got past.
    fn pending(&self) -> bool {
        self.walked < self.carry.len()
    }

    /// Step over the next record. `Ok(None)` when the buffered bytes do not
    /// hold a whole one: they end mid-record, or fail the length bound or
    /// the checksum. A checksummed record this build cannot classify is an
    /// error; the walk does not step over it.
    fn next(&mut self) -> Result<Option<Record<'_>>, DurabilityError> {
        let Some((tag, payload, frame)) = decode_record(&self.carry[self.walked..]) else {
            return Ok(None);
        };
        let record = match tag {
            REC_EVENT => Record::Event {
                index: self.index,
                payload,
            },
            REC_PUNCTUATION => {
                let bytes: [u8; 8] = payload.try_into().map_err(|_| {
                    DurabilityError::corrupt("punctuation marker payload is not 8 bytes")
                })?;
                Record::Punctuation(u64::from_le_bytes(bytes))
            }
            other => {
                return Err(DurabilityError::corrupt(format!(
                    "unknown WAL record tag {other}"
                )))
            }
        };
        self.index += u64::from(tag == REC_EVENT);
        self.walked += frame;
        self.valid_len += frame as u64;
        Ok(Some(record))
    }

    /// Run the walk to the end of `src`, decoding the events at or past
    /// global index `from` into `events`. Returns whether it stopped short
    /// of the end — at a torn, damaged or unknown record, or at a payload
    /// its checksum vouches for but `T` cannot decode (another codec wrote
    /// it: the same trust boundary). Nothing after such a record can be
    /// trusted; `valid_len` is where it starts.
    fn run<T: WireCodec>(
        &mut self,
        from: u64,
        events: &mut Vec<(u64, T)>,
    ) -> Result<bool, DurabilityError> {
        self.fill()?;
        loop {
            match self.next() {
                Ok(Some(Record::Event { index, payload })) if index >= from => {
                    match T::decode_binary(payload) {
                        Ok(event) => events.push((index, event)),
                        Err(_) => {
                            let frame = RECORD_HEADER + payload.len() + RECORD_TRAILER;
                            self.valid_len -= frame as u64;
                            return Ok(true);
                        }
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => return Ok(self.pending()),
                Err(_) => return Ok(true),
            }
        }
    }
}

impl SegmentWalk<File> {
    /// [`SegmentWalk::open`] on the segment file at `path`, whose name says
    /// it starts at global index `name_index`; errors name the file.
    fn open_file(path: &Path, name_index: u64) -> Result<Option<Self>, DurabilityError> {
        let corrupt =
            |what: String| DurabilityError::corrupt(format!("{}: {what}", path.display()));
        let walk = Self::open(File::open(path)?).map_err(|e| match e {
            DurabilityError::Corrupt(what) => corrupt(what),
            io => io,
        })?;
        match walk {
            Some(walk) if walk.first_index != name_index => Err(corrupt(format!(
                "header index {} does not match file name",
                walk.first_index
            ))),
            walk => Ok(walk),
        }
    }

    /// [`SegmentWalk::fill`] for a segment its writer may still cut back (a
    /// failed append is healed by truncating to the last whole record):
    /// bytes the walk could not step over are read again from `valid_len`,
    /// not kept with new bytes appended behind them. Returns whether the
    /// buffered bytes changed.
    fn refill(&mut self) -> io::Result<bool> {
        if !self.pending() {
            return Ok(self.fill()? > 0);
        }
        let held = self.carry.split_off(self.walked);
        self.carry.clear();
        self.walked = 0;
        self.src.seek(SeekFrom::Start(self.valid_len))?;
        self.src.read_to_end(&mut self.carry)?;
        Ok(self.carry != held)
    }
}

/// One decoded segment: the valid record prefix plus whether a torn or
/// corrupt tail was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSegment<T> {
    /// Global index of the first event record.
    pub first_index: u64,
    /// Events in append order.
    pub events: Vec<T>,
    /// True when trailing bytes after the last valid record were dropped.
    pub torn: bool,
    /// Byte length of the valid prefix (header plus every valid record);
    /// when `torn`, the damage starts at this offset.
    pub valid_len: usize,
}

/// Decode one segment image. Total: a malformed or incomplete header is an
/// error; any damage after it truncates to the valid record prefix with
/// `torn` set (nothing after a bad record can be trusted). Never panics.
pub fn decode_segment<T: WireCodec>(bytes: &[u8]) -> Result<DecodedSegment<T>, DurabilityError> {
    let mut walk = SegmentWalk::open(bytes)?
        .ok_or_else(|| DurabilityError::corrupt("WAL segment shorter than its header"))?;
    let mut events = Vec::new();
    let torn = walk.run(0, &mut events)?;
    Ok(DecodedSegment {
        first_index: walk.first_index,
        events: events.into_iter().map(|(_, event)| event).collect(),
        torn,
        valid_len: walk.valid_len as usize,
    })
}

/// Everything recovered from a WAL directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalState<T> {
    /// `(global index, event)` pairs in append order.
    pub events: Vec<(u64, T)>,
    /// Number of segment files read.
    pub segments: u64,
    /// True when the last segment had a torn tail (dropped).
    pub torn_tail: bool,
}

impl<T> WalState<T> {
    /// Events with index ≥ `events_applied` — the replay tail after a
    /// checkpoint covering `events_applied` events.
    pub fn replay_tail(self, events_applied: u64) -> Vec<(u64, T)> {
        self.events
            .into_iter()
            .filter(|(index, _)| *index >= events_applied)
            .collect()
    }
}

/// Read every segment of a WAL directory, oldest first. Only the *last*
/// segment may be torn or headerless; damage anywhere else is an error. A
/// missing directory reads as empty, and nothing on disk is changed.
pub fn read_wal<T: WireCodec>(dir: impl AsRef<Path>) -> Result<WalState<T>, DurabilityError> {
    walk_wal(dir.as_ref(), 0, false)
}

/// [`read_wal`] for recovery: only the events at or past global index `from`
/// are decoded (every record is still framed and checksummed), and the
/// newest segment is sealed on disk where its walk stopped — a torn tail is
/// cut off (the dropped events are covered by the re-anchor checkpoint), a
/// headerless file deleted. Without that, the first append after recovery
/// starts a newer segment, the torn one becomes "sealed", and the next
/// restart would refuse to start over damage that no longer matters.
pub(crate) fn recover_wal<T: WireCodec>(
    dir: &Path,
    from: u64,
) -> Result<WalState<T>, DurabilityError> {
    walk_wal(dir, from, true)
}

fn walk_wal<T: WireCodec>(
    dir: &Path,
    from: u64,
    seal: bool,
) -> Result<WalState<T>, DurabilityError> {
    let segments = list_segments_or_empty(dir)?;
    let mut state = WalState {
        events: Vec::new(),
        segments: segments.len() as u64,
        torn_tail: false,
    };
    let last = segments.len().saturating_sub(1);
    for (i, (name_index, path)) in segments.iter().enumerate() {
        let sealed = |what: &str| {
            DurabilityError::corrupt(format!("{}: {what} in a sealed segment", path.display()))
        };
        let Some(mut walk) = SegmentWalk::open_file(path, *name_index)? else {
            // The writer died before the header was whole: nothing was ever
            // logged to this file.
            if i != last {
                return Err(sealed("incomplete header"));
            }
            if seal {
                fs::remove_file(path)?;
                crate::sync_dir(dir)?;
            }
            break;
        };
        if walk.run(from, &mut state.events)? {
            if i != last {
                return Err(sealed("damaged record"));
            }
            state.torn_tail = true;
            if seal {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(walk.valid_len)?;
                // sync_all: the truncated length is metadata, sync_data may
                // skip it.
                file.sync_all()?;
                crate::sync_dir(dir)?;
            }
        }
    }
    Ok(state)
}

/// One record observed by a [`WalTailer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailItem {
    /// An event record: its global index and raw MSB1 payload bytes.
    Event {
        /// Global index the writer assigned to this event.
        index: u64,
        /// The event's wire encoding, exactly as appended.
        payload: Vec<u8>,
    },
    /// A punctuation marker carrying the writer's `next_index` at mark time.
    Punctuation {
        /// Events appended when the marker was written.
        next_index: u64,
    },
}

/// Why a [`WalTailer::poll`] could not make progress.
#[derive(Debug)]
pub enum TailError {
    /// The requested position was truncated away: the oldest record still on
    /// disk starts at `available`. The reader must re-sync from a checkpoint.
    Gap {
        /// Index the tailer needed next.
        requested: u64,
        /// Smallest index the log still holds.
        available: u64,
    },
    /// The log itself is damaged or unreadable.
    Store(DurabilityError),
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Gap {
                requested,
                available,
            } => write!(
                f,
                "WAL gap: index {requested} truncated away (oldest on disk: {available})"
            ),
            Self::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TailError {}

impl From<DurabilityError> for TailError {
    fn from(e: DurabilityError) -> Self {
        Self::Store(e)
    }
}

impl From<std::io::Error> for TailError {
    fn from(e: std::io::Error) -> Self {
        Self::Store(DurabilityError::Io(e))
    }
}

/// Incremental reader over a live WAL directory: follows appends, segment
/// rotations, and truncations made by a concurrent [`WalLog`] writer in the
/// same process or another one on the same filesystem.
///
/// A record being written can be observed half-complete; the tailer reads
/// the partial bytes again on the next [`WalTailer::poll`] — a short read is
/// "try again later", never an error, and stray bytes of a failed append the
/// writer has since cut off are replaced by what it wrote over them. When
/// truncation has deleted
/// the segment holding the requested position, `poll` reports
/// [`TailError::Gap`] and the reader must re-sync from a checkpoint.
pub struct WalTailer {
    dir: PathBuf,
    /// Next event index to emit.
    next_index: u64,
    current: Option<SegmentWalk<File>>,
}

impl WalTailer {
    /// Tail `dir` starting at global event index `from`. The directory may
    /// be empty or not yet exist; records appear as the writer produces
    /// them.
    pub fn new(dir: impl Into<PathBuf>, from: u64) -> Self {
        Self {
            dir: dir.into(),
            next_index: from,
            current: None,
        }
    }

    /// Next event index [`WalTailer::poll`] will emit.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Append up to `max` new items to `out`; returns how many were added.
    /// Zero means no complete new records are on disk yet.
    pub fn poll(&mut self, out: &mut Vec<TailItem>, max: usize) -> Result<usize, TailError> {
        let mut emitted = 0;
        while emitted < max {
            if self.current.is_none() && !self.open_segment()? {
                return Ok(emitted);
            }
            emitted += self.drain_carry(out, max - emitted)?;
            if emitted >= max {
                return Ok(emitted);
            }
            let seg = self.current.as_mut().expect("segment is open");
            if seg.refill()? {
                continue;
            }
            // EOF on the current segment: either the writer is still on it
            // (wait for more) or it rotated to a newer one.
            let segments = list_segments_or_empty(&self.dir)?;
            let Some(&(next_first, _)) = segments.iter().find(|(f, _)| *f > seg.first_index) else {
                return Ok(emitted);
            };
            // Re-read once: the writer may have completed a half-observed
            // record between our EOF read and the rotation we just listed.
            if seg.refill()? {
                continue;
            }
            if seg.pending() {
                return Err(DurabilityError::corrupt(format!(
                    "WAL segment {} sealed with a torn tail",
                    segment_name(seg.first_index)
                ))
                .into());
            }
            if next_first > seg.index {
                return Err(TailError::Gap {
                    requested: seg.index,
                    available: next_first,
                });
            }
            self.current = None;
        }
        Ok(emitted)
    }

    /// Walk the complete records buffered so far, emitting at most `max`.
    fn drain_carry(&mut self, out: &mut Vec<TailItem>, max: usize) -> Result<usize, TailError> {
        let seg = self.current.as_mut().expect("segment is open");
        let mut emitted = 0;
        while emitted < max {
            match seg.next()? {
                None => break,
                Some(Record::Event { index, payload }) => {
                    if index >= self.next_index {
                        out.push(TailItem::Event {
                            index,
                            payload: payload.to_vec(),
                        });
                        emitted += 1;
                        self.next_index = index + 1;
                    }
                }
                Some(Record::Punctuation(next_index)) => {
                    if next_index >= self.next_index {
                        out.push(TailItem::Punctuation { next_index });
                        emitted += 1;
                    }
                }
            }
        }
        Ok(emitted)
    }

    /// Open the segment containing `next_index`. `Ok(false)` when nothing
    /// usable is on disk yet (empty dir, or a header still being written).
    fn open_segment(&mut self) -> Result<bool, TailError> {
        let segments = list_segments_or_empty(&self.dir)?;
        let Some(&(first, ref path)) = segments.iter().rev().find(|(f, _)| *f <= self.next_index)
        else {
            if let Some(&(available, _)) = segments.first() {
                return Err(TailError::Gap {
                    requested: self.next_index,
                    available,
                });
            }
            return Ok(false);
        };
        self.current = SegmentWalk::open_file(path, first)?;
        Ok(self.current.is_some())
    }
}

/// Smallest event index still present in the WAL directory; `None` when the
/// directory is empty or missing. Lets a shipper decide whether a peer's
/// position can be served from the log or needs a checkpoint re-sync first.
pub fn wal_start_index(dir: impl AsRef<Path>) -> Result<Option<u64>, DurabilityError> {
    Ok(list_segments_or_empty(dir.as_ref())?
        .first()
        .map(|(first, _)| *first))
}

/// `list_segments`, but a missing directory reads as empty.
fn list_segments_or_empty(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    match list_segments(dir) {
        Ok(s) => Ok(s),
        Err(DurabilityError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

fn segment_name(first_index: u64) -> String {
    // Zero-padded so lexicographic file order is index order.
    format!("seg-{first_index:020}.msw")
}

/// `(first_index, path)` for every segment file, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".msw"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use morphstream_common::protocol::ProtocolError;

    /// Minimal event codec for tests: one u64, MSB1-style framing.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Probe(u64);

    impl WireCodec for Probe {
        fn encode_binary(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0.to_le_bytes());
        }

        fn decode_binary(payload: &[u8]) -> Result<Self, ProtocolError> {
            let bytes: [u8; 8] = payload.try_into().map_err(|_| ProtocolError::Truncated)?;
            Ok(Self(u64::from_le_bytes(bytes)))
        }

        fn encode_json(&self) -> String {
            unimplemented!("not used by WAL tests")
        }

        fn decode_json(_line: &str) -> Result<Self, ProtocolError> {
            unimplemented!("not used by WAL tests")
        }
    }

    #[test]
    fn wal_round_trips_events_and_punctuations() {
        let dir = test_dir("wal-roundtrip");
        let mut log = WalLog::open(&dir, FsyncPolicy::Interval, 0).unwrap();
        for i in 0..5u64 {
            assert_eq!(log.append_event(&Probe(i)).unwrap(), i);
        }
        log.mark_punctuation().unwrap();
        log.append_event(&Probe(5)).unwrap();
        log.sync().unwrap();

        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.segments, 1);
        assert_eq!(
            state.events,
            (0..6).map(|i| (i, Probe(i))).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_last_segment_keeps_the_valid_prefix() {
        let dir = test_dir("wal-torn");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        for i in 0..4u64 {
            log.append_event(&Probe(i)).unwrap();
        }
        log.rotate().unwrap();
        drop(log);

        // Tear the (single) segment: chop bytes off its tail.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(
            state.events,
            (0..3).map(|i| (i, Probe(i))).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repaired_torn_tail_stays_readable_once_sealed_by_a_newer_segment() {
        let dir = test_dir("wal-repair");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        for i in 0..4u64 {
            log.append_event(&Probe(i)).unwrap();
        }
        log.rotate().unwrap();
        drop(log);

        // Tear the segment mid-record, as a crash would.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        // Recovery: read the valid prefix, then seal the segment where the
        // walk stopped.
        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.events.len(), 3);
        assert!(recover_wal::<Probe>(&dir, 0).unwrap().torn_tail);
        // Sealed where the walk stopped: the next walk finds nothing torn.
        assert!(!recover_wal::<Probe>(&dir, 0).unwrap().torn_tail);

        // The server appends again, sealing the repaired segment behind a
        // newer one; the next restart must still read the whole log.
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 3).unwrap();
        assert_eq!(log.append_event(&Probe(3)).unwrap(), 3);
        log.sync().unwrap();
        drop(log);
        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(
            state.events,
            (0..4).map(|i| (i, Probe(i))).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between a segment's creation and its header leaves a newest
    /// file of 0–11 bytes. Nothing was logged to it: it reads as empty, the
    /// repair removes it, and the log goes on under the same name. Behind a
    /// newer segment the same file is damage.
    #[test]
    fn a_headerless_last_segment_reads_as_empty_and_is_removed() {
        for header_bytes in [0, 4, 11] {
            let dir = test_dir("wal-headerless");
            let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
            for i in 0..3u64 {
                log.append_event(&Probe(i)).unwrap();
            }
            log.rotate().unwrap();
            drop(log);
            let mut header = WAL_MAGIC.to_vec();
            header.extend_from_slice(&3u64.to_le_bytes());
            let headerless = dir.join(segment_name(3));
            fs::write(&headerless, &header[..header_bytes]).unwrap();

            // the live tailer has always read that file as "nothing yet"
            let mut items = Vec::new();
            assert_eq!(WalTailer::new(&dir, 0).poll(&mut items, 100).unwrap(), 3);

            let state = read_wal::<Probe>(&dir).expect("a read gets past it");
            assert!(headerless.exists(), "and changes nothing");
            assert_eq!(
                recover_wal::<Probe>(&dir, 0).expect("so does recovery"),
                state
            );
            assert!(!headerless.exists(), "which removes it");
            assert_eq!(state.segments, 2);
            assert!(!state.torn_tail, "no record was dropped");
            assert_eq!(
                state.events,
                (0..3).map(|i| (i, Probe(i))).collect::<Vec<_>>()
            );

            let mut log = WalLog::open(&dir, FsyncPolicy::Never, 3).unwrap();
            assert_eq!(log.append_event(&Probe(3)).unwrap(), 3);
            assert_eq!(log.segment_count(), 2);
            log.rotate().unwrap();
            assert_eq!(read_wal::<Probe>(&dir).unwrap().events.len(), 4);

            // sealed behind a newer segment, a short header stays an error
            fs::write(dir.join(segment_name(2)), &header[..header_bytes]).unwrap();
            assert!(read_wal::<Probe>(&dir).is_err());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A record that could not be written whole must not end up *inside*
    /// the log: the segment is cut back to its last whole record before the
    /// next append (or the rotation that would seal it) writes anything.
    #[test]
    fn a_failed_append_is_cut_off_before_anything_is_written_behind_it() {
        for seal in [false, true] {
            let dir = test_dir("wal-failed-append");
            let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
            for i in 0..3u64 {
                log.append_event(&Probe(i)).unwrap();
            }
            // The disk takes 7 bytes of the next record, then says no. What
            // a `write_all` cut short leaves behind — the bytes, and the
            // handle's cursor past them — is done to the real handle by
            // hand; the append itself meets one whose writes fail (it is
            // read-only).
            let segment = dir.join(segment_name(0));
            let whole = fs::metadata(&segment).unwrap().len();
            let mut real = log.swap_segment(File::open(&segment).unwrap()).unwrap();
            real.write_all(&[REC_EVENT, 8, 0, 0, 0, 9, 9]).unwrap();
            // A live tailer reads the stray bytes before they are cut off.
            let mut tailer = WalTailer::new(&dir, 0);
            let mut tailed = Vec::new();
            assert_eq!(tailer.poll(&mut tailed, 100).unwrap(), 3);
            assert!(log.append_event(&Probe(99)).is_err());
            assert_eq!(log.next_index(), 3, "the failed event was not counted");
            assert_eq!(fs::metadata(&segment).unwrap().len(), whole + 7);
            drop(real);

            if seal {
                log.rotate().unwrap();
            }
            for i in 3..6u64 {
                assert_eq!(log.append_event(&Probe(i)).unwrap(), i);
            }
            // It goes on from the cut: the records written over the stray
            // bytes arrive without waiting for a rotation.
            tailed.clear();
            assert_eq!(tailer.poll(&mut tailed, 100).unwrap(), 3);
            assert_eq!(
                tailed,
                (3..6u64)
                    .map(|i| TailItem::Event {
                        index: i,
                        payload: i.to_le_bytes().to_vec()
                    })
                    .collect::<Vec<_>>()
            );
            log.rotate().unwrap();
            log.append_event(&Probe(6)).unwrap();
            log.sync().unwrap();

            let state: WalState<Probe> = read_wal(&dir).expect("no damage was sealed in");
            assert!(!state.torn_tail);
            assert_eq!(
                state.events,
                (0..7).map(|i| (i, Probe(i))).collect::<Vec<_>>()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A chunk whose fsync fails is not logged either: no index or counter
    /// moves, and the segment is cut back before the next append. (fsync on
    /// `/dev/null` fails with EINVAL on Linux; the write to it succeeds.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_chunk_whose_sync_fails_is_not_logged() {
        let dir = test_dir("wal-failed-sync");
        let mut log = WalLog::open(&dir, FsyncPolicy::Always, 0).unwrap();
        log.append_chunk(&[Probe(0), Probe(1)], false).unwrap();
        let counted = (log.records_appended(), log.bytes_appended());
        let null = OpenOptions::new().write(true).open("/dev/null").unwrap();
        let real = log.swap_segment(null).unwrap();
        assert!(log.append_chunk(&[Probe(2), Probe(3)], true).is_err());
        assert_eq!(log.next_index(), 2, "the chunk was not logged");
        assert_eq!((log.records_appended(), log.bytes_appended()), counted);
        drop(real);

        assert_eq!(log.append_chunk(&[Probe(2)], false).unwrap(), 2);
        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(
            state.events,
            (0..3).map(|i| (i, Probe(i))).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_in_a_sealed_segment_is_a_hard_error() {
        let dir = test_dir("wal-sealed");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        log.append_event(&Probe(1)).unwrap();
        log.rotate().unwrap();
        log.append_event(&Probe(2)).unwrap();
        log.rotate().unwrap();
        drop(log);

        let (_, first) = list_segments(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&first, &bytes).unwrap();

        assert!(read_wal::<Probe>(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_truncation_drop_covered_segments() {
        let dir = test_dir("wal-rotate");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        log.append_event(&Probe(0)).unwrap();
        log.append_event(&Probe(1)).unwrap();
        log.rotate().unwrap();
        log.append_event(&Probe(2)).unwrap();
        log.rotate().unwrap();
        log.append_event(&Probe(3)).unwrap();
        log.sync().unwrap();
        assert_eq!(log.segment_count(), 3);

        // Checkpoint covering 3 events: the first two segments (indices 0-1
        // and 2) are fully covered because their successors start at ≤ 3.
        assert_eq!(log.truncate_before(3).unwrap(), 2);
        assert_eq!(log.segment_count(), 1);
        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert_eq!(state.events, vec![(3, Probe(3))]);
        assert!(state.replay_tail(3).len() == 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_the_index_space() {
        let dir = test_dir("wal-reopen");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        log.append_event(&Probe(0)).unwrap();
        log.rotate().unwrap();
        drop(log);

        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 1).unwrap();
        assert_eq!(log.append_event(&Probe(1)).unwrap(), 1);
        log.sync().unwrap();
        let state: WalState<Probe> = read_wal(&dir).unwrap();
        assert_eq!(state.events, vec![(0, Probe(0)), (1, Probe(1))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_follows_appends_rotations_and_markers() {
        let dir = test_dir("wal-tail");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        let mut tailer = WalTailer::new(&dir, 0);
        let mut out = Vec::new();

        // Nothing on disk yet: poll is a clean zero, not an error.
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 0);

        log.append_event(&Probe(0)).unwrap();
        log.append_event(&Probe(1)).unwrap();
        log.mark_punctuation().unwrap();
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 3);
        assert_eq!(
            out,
            vec![
                TailItem::Event {
                    index: 0,
                    payload: 0u64.to_le_bytes().to_vec()
                },
                TailItem::Event {
                    index: 1,
                    payload: 1u64.to_le_bytes().to_vec()
                },
                TailItem::Punctuation { next_index: 2 },
            ]
        );

        // Rotation: the tailer crosses into the new segment transparently.
        log.rotate().unwrap();
        log.append_event(&Probe(2)).unwrap();
        out.clear();
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 1);
        assert_eq!(
            out,
            vec![TailItem::Event {
                index: 2,
                payload: 2u64.to_le_bytes().to_vec()
            }]
        );
        assert_eq!(tailer.next_index(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_buffers_a_half_written_record() {
        let dir = test_dir("wal-tail-partial");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        log.append_event(&Probe(7)).unwrap();
        log.sync().unwrap();

        // Simulate catching the writer mid-record: copy a truncated image
        // aside, tail it, then restore the full bytes.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();

        let mut tailer = WalTailer::new(&dir, 0);
        let mut out = Vec::new();
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 0);

        fs::write(&path, &full).unwrap();
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 1);
        assert_eq!(
            out,
            vec![TailItem::Event {
                index: 0,
                payload: 7u64.to_le_bytes().to_vec()
            }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_skips_to_its_start_position() {
        let dir = test_dir("wal-tail-skip");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        for i in 0..6u64 {
            log.append_event(&Probe(i)).unwrap();
        }
        log.mark_punctuation().unwrap();

        let mut tailer = WalTailer::new(&dir, 4);
        let mut out = Vec::new();
        assert_eq!(tailer.poll(&mut out, 100).unwrap(), 3);
        assert_eq!(
            out,
            vec![
                TailItem::Event {
                    index: 4,
                    payload: 4u64.to_le_bytes().to_vec()
                },
                TailItem::Event {
                    index: 5,
                    payload: 5u64.to_le_bytes().to_vec()
                },
                TailItem::Punctuation { next_index: 6 },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_reports_a_gap_after_truncation() {
        let dir = test_dir("wal-tail-gap");
        let mut log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        log.append_event(&Probe(0)).unwrap();
        log.append_event(&Probe(1)).unwrap();
        log.rotate().unwrap();
        log.append_event(&Probe(2)).unwrap();
        log.sync().unwrap();
        log.truncate_before(2).unwrap();
        assert_eq!(wal_start_index(&dir).unwrap(), Some(2));

        let mut tailer = WalTailer::new(&dir, 0);
        let mut out = Vec::new();
        match tailer.poll(&mut out, 100) {
            Err(TailError::Gap {
                requested: 0,
                available: 2,
            }) => {}
            other => panic!("expected a gap, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_names_round_trip() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Interval,
            FsyncPolicy::Never,
        ] {
            assert_eq!(FsyncPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(FsyncPolicy::from_name("sometimes"), None);
    }
}
