//! The `MSR1` replication wire protocol.
//!
//! The primary is the TCP *client*: it dials the standby's listener, writes
//! the 4-byte magic preamble, and then both sides exchange length-prefixed
//! frames. Layout (integers little-endian):
//!
//! ```text
//! preamble := "MSR1"                      primary → standby, once
//! frame    := u32 len                     body length, bounded
//!             body                        u8 tag + tag-specific payload
//!             u64 fnv                     FNV-1a over the body bytes
//! ```
//!
//! Frame kinds:
//!
//! | tag | frame             | direction         | payload |
//! |-----|-------------------|-------------------|---------|
//! | 1   | `Hello`           | primary → standby | protocol version, punctuation interval, WAL tip |
//! | 2   | `Position`        | standby → primary | durable index, newest checkpoint id |
//! | 3   | `BeginBootstrap`  | primary → standby | checkpoints that follow (0 or 1), events covered |
//! | 4   | `CheckpointChunk` | primary → standby | file-complete flag, raw `MSC1` bytes |
//! | 5   | `Batch`           | primary → standby | first index + raw `MSB1` event payloads |
//! | 6   | `Punct`           | primary → standby | the WAL punctuation marker value |
//! | 7   | `Heartbeat`       | primary → standby | WAL tip (keeps lag observable when idle) |
//! | 8   | `Ack`             | standby → primary | standby's durable index |
//!
//! Decoding follows the same total-decoder discipline as `MSB1`/`MSC1`:
//! bounded lengths and counts, checksum verified before the body is
//! trusted, trailing bytes rejected, errors instead of panics. A frame cut
//! short by the socket is "incomplete, read more", not an error.

use morphstream_common::hash::Fnv1a;
use morphstream_common::protocol::{PayloadReader, ProtocolError, MAX_FRAME_LEN};

/// Magic preamble the primary writes after connecting.
pub const REPL_MAGIC: [u8; 4] = *b"MSR1";

/// Protocol version carried in [`Frame::Hello`].
pub const REPL_VERSION: u32 = 1;

/// Upper bound on one frame body. Checkpoint files are chunked and event
/// batches cut to stay under it; anything larger on the wire is corrupt.
pub const MAX_REPL_FRAME: usize = 256 * 1024;

/// Chunk size for checkpoint file transfer (comfortably under the frame
/// bound even with framing overhead).
pub const CHECKPOINT_CHUNK: usize = 128 * 1024;

const TAG_HELLO: u8 = 1;
const TAG_POSITION: u8 = 2;
const TAG_BEGIN_BOOTSTRAP: u8 = 3;
const TAG_CHECKPOINT_CHUNK: u8 = 4;
const TAG_BATCH: u8 = 5;
const TAG_PUNCT: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_ACK: u8 = 8;

/// Sentinel encoding of "no checkpoint yet" in [`Frame::Position`].
const NO_CHECKPOINT: u64 = u64::MAX;

/// One `MSR1` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Primary's opening frame after the magic preamble.
    Hello {
        /// Protocol version ([`REPL_VERSION`]); the standby rejects others.
        version: u32,
        /// Primary's punctuation interval (events per marker).
        punctuation: u64,
        /// Primary's WAL tip (next event index) at connect time.
        wal_next: u64,
    },
    /// Standby's reply: where it stands, so the primary can pick tail vs
    /// bootstrap.
    Position {
        /// Next event index the standby needs (its durable count).
        next_index: u64,
        /// Newest checkpoint id the standby holds, if any.
        checkpoint_id: Option<u64>,
    },
    /// The standby cannot be served from the primary's WAL: discard local
    /// state and receive the primary's newest checkpoint instead.
    BeginBootstrap {
        /// Number of checkpoint files that will follow: 0 or 1. The field
        /// is a `u32` on the wire; a standby refuses any value above 1.
        chain_len: u32,
        /// Event index the checkpoint covers; WAL shipping resumes there.
        events_applied: u64,
    },
    /// A slice of one checkpoint file.
    CheckpointChunk {
        /// True when this chunk completes the current file.
        last_chunk: bool,
        /// Raw `MSC1` bytes.
        data: Vec<u8>,
    },
    /// Consecutive WAL event records.
    Batch {
        /// Global index of the first event in the batch.
        first_index: u64,
        /// Raw `MSB1` event payloads, in index order.
        events: Vec<Vec<u8>>,
    },
    /// A WAL punctuation marker (batch framing on the standby's log).
    Punct {
        /// The marker value: events appended when it was written.
        next_index: u64,
    },
    /// Keep-alive while the primary has nothing to ship.
    Heartbeat {
        /// Primary's WAL tip, so standby-side lag stays current.
        wal_next: u64,
    },
    /// Standby's durable progress (also the reply to a heartbeat).
    Ack {
        /// Events the standby has appended to its own WAL.
        durable_index: u64,
    },
}

impl Frame {
    /// Append the encoded frame (length prefix + body + checksum) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]); // length back-patched below
        let body_start = out.len();
        match self {
            Self::Hello {
                version,
                punctuation,
                wal_next,
            } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&punctuation.to_le_bytes());
                out.extend_from_slice(&wal_next.to_le_bytes());
            }
            Self::Position {
                next_index,
                checkpoint_id,
            } => {
                out.push(TAG_POSITION);
                out.extend_from_slice(&next_index.to_le_bytes());
                out.extend_from_slice(&checkpoint_id.unwrap_or(NO_CHECKPOINT).to_le_bytes());
            }
            Self::BeginBootstrap {
                chain_len,
                events_applied,
            } => {
                out.push(TAG_BEGIN_BOOTSTRAP);
                out.extend_from_slice(&chain_len.to_le_bytes());
                out.extend_from_slice(&events_applied.to_le_bytes());
            }
            Self::CheckpointChunk { last_chunk, data } => {
                out.push(TAG_CHECKPOINT_CHUNK);
                out.push(*last_chunk as u8);
                out.extend_from_slice(data);
            }
            Self::Batch {
                first_index,
                events,
            } => {
                out.push(TAG_BATCH);
                out.extend_from_slice(&first_index.to_le_bytes());
                out.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for event in events {
                    out.extend_from_slice(&(event.len() as u32).to_le_bytes());
                    out.extend_from_slice(event);
                }
            }
            Self::Punct { next_index } => {
                out.push(TAG_PUNCT);
                out.extend_from_slice(&next_index.to_le_bytes());
            }
            Self::Heartbeat { wal_next } => {
                out.push(TAG_HEARTBEAT);
                out.extend_from_slice(&wal_next.to_le_bytes());
            }
            Self::Ack { durable_index } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&durable_index.to_le_bytes());
            }
        }
        let body_len = out.len() - body_start;
        debug_assert!(body_len <= MAX_REPL_FRAME, "frame built over the bound");
        out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
        Fnv1a::seal(out, body_start);
    }

    /// Encoded bytes of this frame alone.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Try to decode one frame at the head of `bytes`. `Ok(None)` means the
    /// bytes end mid-frame (read more); `Ok(Some((frame, consumed)))` is a
    /// complete frame; `Err` means the stream is corrupt and cannot be
    /// resynchronized. Total: never panics.
    pub fn decode(bytes: &[u8]) -> Result<Option<(Frame, usize)>, ProtocolError> {
        if bytes.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4")) as usize;
        if len == 0 {
            return Err(ProtocolError::Malformed("empty frame body".into()));
        }
        if len > MAX_REPL_FRAME {
            return Err(ProtocolError::Oversized { len });
        }
        let total = 4 + len + 8;
        if bytes.len() < total {
            return Ok(None);
        }
        let (body, trailer) = bytes[4..total].split_at(len);
        if !Fnv1a::verify(body, trailer) {
            return Err(ProtocolError::Malformed("frame checksum mismatch".into()));
        }
        let frame = Self::decode_body(body)?;
        Ok(Some((frame, total)))
    }

    /// Decode a checksum-verified frame body.
    fn decode_body(body: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = PayloadReader::new(&body[1..]);
        let frame = match body[0] {
            TAG_HELLO => Frame::Hello {
                version: r.u32()?,
                punctuation: r.u64()?,
                wal_next: r.u64()?,
            },
            TAG_POSITION => Frame::Position {
                next_index: r.u64()?,
                checkpoint_id: match r.u64()? {
                    NO_CHECKPOINT => None,
                    id => Some(id),
                },
            },
            TAG_BEGIN_BOOTSTRAP => Frame::BeginBootstrap {
                chain_len: r.u32()?,
                events_applied: r.u64()?,
            },
            TAG_CHECKPOINT_CHUNK => Frame::CheckpointChunk {
                last_chunk: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(ProtocolError::UnknownTag(other)),
                },
                data: r.rest().to_vec(),
            },
            TAG_BATCH => {
                let first_index = r.u64()?;
                let raw_count = r.u32()? as usize;
                let count = r.bounded_count(raw_count, 4, "batch events")?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = r.u32()? as usize;
                    if len > MAX_FRAME_LEN {
                        return Err(ProtocolError::Oversized { len });
                    }
                    events.push(r.bytes(len)?.to_vec());
                }
                Frame::Batch {
                    first_index,
                    events,
                }
            }
            TAG_PUNCT => Frame::Punct {
                next_index: r.u64()?,
            },
            TAG_HEARTBEAT => Frame::Heartbeat { wal_next: r.u64()? },
            TAG_ACK => Frame::Ack {
                durable_index: r.u64()?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Incremental frame decoder over a byte stream: feed it whatever the
/// socket yields, pull complete frames out. Tolerates frames split across
/// arbitrarily many reads.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if the buffer holds one.
    #[allow(clippy::should_implement_trait)] // fallible pop, not an Iterator
    pub fn next(&mut self) -> Result<Option<Frame>, ProtocolError> {
        match Frame::decode(&self.buf)? {
            Some((frame, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: REPL_VERSION,
                punctuation: 50,
                wal_next: 1234,
            },
            Frame::Position {
                next_index: 77,
                checkpoint_id: Some(3),
            },
            Frame::Position {
                next_index: 0,
                checkpoint_id: None,
            },
            Frame::BeginBootstrap {
                chain_len: 2,
                events_applied: 500,
            },
            Frame::CheckpointChunk {
                last_chunk: true,
                data: vec![1, 2, 3, 4, 5],
            },
            Frame::Batch {
                first_index: 9,
                events: vec![vec![0xAA; 17], vec![], vec![0x01, 0x02]],
            },
            Frame::Punct { next_index: 100 },
            Frame::Heartbeat { wal_next: 42 },
            Frame::Ack { durable_index: 41 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in samples() {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::decode(&bytes).unwrap().unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_not_errors() {
        for frame in samples() {
            let bytes = frame.to_bytes();
            for len in 0..bytes.len() {
                match Frame::decode(&bytes[..len]) {
                    Ok(None) => {}
                    other => panic!("prefix of {len} bytes: expected incomplete, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bit_flips_error_never_panic() {
        for frame in samples() {
            let bytes = frame.to_bytes();
            for i in 0..bytes.len() {
                let mut dented = bytes.clone();
                dented[i] ^= 1;
                // Must terminate without panicking; a flip in the length
                // prefix may legitimately read as incomplete.
                let _ = Frame::decode(&dented);
            }
        }
    }

    #[test]
    fn reader_reassembles_split_frames() {
        let mut wire = Vec::new();
        for frame in samples() {
            frame.encode(&mut wire);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for chunk in wire.chunks(3) {
            reader.extend(chunk);
            while let Some(frame) = reader.next().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, samples());
        assert_eq!(reader.buffered(), 0);
    }
}
