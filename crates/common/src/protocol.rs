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

use std::io;

use crate::json::JsonParseError;

/// Magic bytes opening a binary-protocol connection ("MorphStream Binary 1").
pub const BINARY_MAGIC: [u8; 4] = *b"MSB1";

/// Hard upper bound on one frame's payload, protecting the server from a
/// hostile or corrupt length prefix. Far larger than any event the served
/// workload defines (a Streaming Ledger transfer is 25 bytes).
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

/// An event type that can travel over both wire formats.
///
/// Implemented by the served workload's event type (`SlEvent`); the server
/// decodes it and the load generator encodes it, both through this one
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_reader_guards_counts_and_trailing_bytes() {
        let mut payload = Vec::new();
        payload.push(7u8);
        payload.extend_from_slice(&42u64.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes());
        for item in [1u64, 2, 3] {
            payload.extend_from_slice(&item.to_le_bytes());
        }
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.i64().unwrap(), 1);
        assert_eq!(r.bytes(16).unwrap().len(), 16);
        r.finish().unwrap();

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
