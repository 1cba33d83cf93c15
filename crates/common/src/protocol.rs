//! Network wire protocol: framing and event codecs for `morphstream serve`.
//!
//! Two self-describing wire formats carry events over a byte stream:
//!
//! * **length-prefixed binary** — the connection opens with the 4-byte magic
//!   [`BINARY_MAGIC`], followed by frames of a little-endian `u32` payload
//!   length and the payload itself. Payload layouts are defined per event
//!   type by a [`WireCodec`] implementation (fixed-width little-endian
//!   integers behind a one-byte variant tag, by convention).
//! * **JSON lines** — one flat JSON object per `\n`-terminated line (see
//!   [`crate::json::parse_object`]); the first byte of the connection is `{`,
//!   which is how the server tells the two formats apart without
//!   configuration.
//!
//! The framing layer is deliberately strict: oversized frames, truncated
//! payloads, unknown tags, and malformed JSON are all [`ProtocolError`]s —
//! never panics — so a misbehaving client cannot take the server down, and
//! never silently skipped, so a protocol bug cannot drop events.

use std::io::{self, Read, Write};

use crate::json::JsonParseError;

/// Magic bytes opening a binary-protocol connection ("MorphStream Binary 1").
pub const BINARY_MAGIC: [u8; 4] = *b"MSB1";

/// Hard upper bound on one frame's payload, protecting the server from a
/// hostile or corrupt length prefix. Large enough for any event the
/// workloads define (a GrepSum event with hundreds of keys is still < 4 KiB).
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Why a frame or event failed to decode.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying byte stream failed.
    Io(io::Error),
    /// A binary frame announced a payload larger than [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// The payload ended before the event was fully decoded.
    Truncated,
    /// The payload decoded but violates the event layout.
    Malformed(String),
    /// The payload's leading variant tag is not one the event type defines.
    UnknownTag(u8),
    /// A JSON-lines frame failed to parse.
    Json(JsonParseError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "wire i/o error: {e}"),
            ProtocolError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"
                )
            }
            ProtocolError::Truncated => write!(f, "frame payload truncated"),
            ProtocolError::Malformed(reason) => write!(f, "malformed event: {reason}"),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown event tag {tag:#04x}"),
            ProtocolError::Json(e) => write!(f, "malformed JSON event: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<JsonParseError> for ProtocolError {
    fn from(e: JsonParseError) -> Self {
        ProtocolError::Json(e)
    }
}

/// The two wire formats of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Length-prefixed binary frames behind the [`BINARY_MAGIC`] preamble.
    Binary,
    /// One flat JSON object per newline-terminated line.
    JsonLines,
}

impl WireFormat {
    /// Parse a command-line name (`binary` / `json`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "binary" => Some(WireFormat::Binary),
            "json" | "jsonl" | "json-lines" => Some(WireFormat::JsonLines),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Binary => "binary",
            WireFormat::JsonLines => "json",
        }
    }
}

/// Write one length-prefixed binary frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len: payload.len() });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one length-prefixed binary frame into `buf` (cleared first).
///
/// Returns `Ok(false)` on a clean end of stream (EOF *between* frames);
/// EOF in the middle of a frame is [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::Eof => return Ok(false),
        ReadOutcome::Partial => return Err(ProtocolError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len });
    }
    buf.clear();
    buf.resize(len, 0);
    match read_exact_or_eof(r, buf)? {
        ReadOutcome::Full => Ok(true),
        _ => Err(ProtocolError::Truncated),
    }
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes "no bytes at all" (EOF between frames)
/// from "some bytes then EOF" (a truncated frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// An event type that can travel over both wire formats.
///
/// Implemented by the workload event types (`SlEvent`, `GsEvent`); the
/// server decodes whichever event type its configured application expects,
/// and the load generator encodes the same type — both through this one
/// trait, so a new workload only has to implement `WireCodec` to become
/// servable.
pub trait WireCodec: Sized {
    /// Append the binary payload of this event to `out` (no length prefix).
    fn encode_binary(&self, out: &mut Vec<u8>);

    /// Decode one event from a binary frame payload. Must consume the whole
    /// payload; trailing bytes are an error.
    fn decode_binary(payload: &[u8]) -> Result<Self, ProtocolError>;

    /// Render this event as one flat JSON object (no trailing newline).
    fn encode_json(&self) -> String;

    /// Decode one event from a JSON-lines frame.
    fn decode_json(line: &str) -> Result<Self, ProtocolError>;
}

/// Little-endian payload cursor with totality guarantees (bounds checks,
/// bounded counts, trailing-byte rejection): the one byte reader behind the
/// [`WireCodec`] implementations, `MSC1` checkpoints and `MSR1` frames.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Cursor over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Take the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `u32` count followed by that many `u64`s. The count is bounded
    /// by the remaining payload, so a corrupt count cannot trigger a huge
    /// allocation.
    pub fn u64_list(&mut self) -> Result<Vec<u64>, ProtocolError> {
        let count = self.u32()? as usize;
        if count > (self.bytes.len() - self.pos) / 8 {
            return Err(ProtocolError::Truncated);
        }
        (0..count).map(|_| self.u64()).collect()
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Reject a `count` of `what` that could not possibly fit in the
    /// remaining bytes (each element needs at least `min_element_bytes`), so
    /// a corrupt count cannot trigger a huge allocation.
    pub fn bounded_count(
        &self,
        count: usize,
        min_element_bytes: usize,
        what: &str,
    ) -> Result<usize, ProtocolError> {
        let remaining = self.bytes.len() - self.pos;
        if count.saturating_mul(min_element_bytes) > remaining {
            return Err(ProtocolError::Malformed(format!(
                "{what} count {count} exceeds remaining payload"
            )));
        }
        Ok(count)
    }

    /// Assert the payload is fully consumed (codecs call this last, so a
    /// frame cannot smuggle trailing bytes).
    pub fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Append a `u32` count and the listed `u64`s (inverse of
/// [`PayloadReader::u64_list`]).
pub fn put_u64_list(out: &mut Vec<u8>, items: &[u64]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        out.extend_from_slice(&item.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"world!");
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &huge),
            Err(ProtocolError::Oversized { .. })
        ));
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(wire), &mut Vec::new()),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging() {
        // length says 10 bytes, stream carries 3
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut io::Cursor::new(wire), &mut Vec::new()),
            Err(ProtocolError::Truncated)
        ));
        // EOF inside the length prefix itself
        assert!(matches!(
            read_frame(&mut io::Cursor::new(vec![1u8, 0]), &mut Vec::new()),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn payload_reader_guards_counts_and_trailing_bytes() {
        let mut payload = Vec::new();
        payload.push(7u8);
        payload.extend_from_slice(&42u64.to_le_bytes());
        put_u64_list(&mut payload, &[1, 2, 3]);
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u64_list().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();

        // a count larger than the remaining payload must not allocate
        let mut corrupt = Vec::new();
        corrupt.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            PayloadReader::new(&corrupt).u64_list(),
            Err(ProtocolError::Truncated)
        ));

        // trailing bytes are an error, not silently ignored
        let mut r = PayloadReader::new(&payload);
        let _ = r.u8().unwrap();
        assert!(matches!(r.finish(), Err(ProtocolError::Malformed(_))));

        // raw access: short reads are Truncated, impossible counts Malformed,
        // and `rest` consumes whatever is left
        assert_eq!(r.bytes(8).unwrap(), 42u64.to_le_bytes());
        assert!(matches!(r.bytes(99), Err(ProtocolError::Truncated)));
        assert_eq!(r.bounded_count(3, 8, "items").unwrap(), 3);
        assert!(matches!(
            r.bounded_count(4, 8, "items"),
            Err(ProtocolError::Malformed(_))
        ));
        assert_eq!(r.rest().len(), 4 + 3 * 8);
        r.finish().unwrap();
    }

    #[test]
    fn wire_format_names_round_trip() {
        assert_eq!(WireFormat::from_name("binary"), Some(WireFormat::Binary));
        assert_eq!(WireFormat::from_name("json"), Some(WireFormat::JsonLines));
        assert_eq!(WireFormat::from_name("nope"), None);
        assert_eq!(WireFormat::Binary.name(), "binary");
        assert_eq!(WireFormat::JsonLines.name(), "json");
    }
}
