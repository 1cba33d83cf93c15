//! The server-side socket decoder: an [`EventSource`] over a byte stream.
//!
//! [`SocketEventSource`] wraps any [`Read`] (a [`TcpStream`] in production,
//! an in-memory cursor in tests), auto-detects the wire format from the
//! first byte of the connection (`{` → JSON lines, otherwise the
//! [`BINARY_MAGIC`] preamble must follow), and decodes complete events
//! incrementally. Each connection handler pulls chunks from it with
//! [`EventSource::next_batch`] and hands them to the served engine's one
//! door, `DurableEngine::ingest`; another feed (a partitioned log, say)
//! would slot in behind the same trait without touching the engine.
//!
//! Buffered bytes are bounded: the decoder only reads from the socket when
//! no complete event is parseable, so at most one partial frame plus one
//! read chunk (4 KiB) is ever retained. Everything upstream of that sits in
//! the kernel socket buffer, which is where TCP flow control takes over —
//! the end of the back-pressure chain described in the crate docs.

use std::io::{self, Read};
use std::marker::PhantomData;
use std::net::TcpStream;

use morphstream::EventSource;
use morphstream_common::protocol::{
    ProtocolError, WireCodec, WireFormat, BINARY_MAGIC, MAX_FRAME_LEN,
};

/// Bytes pulled from the underlying stream per read call.
const READ_CHUNK: usize = 4096;

/// Incremental event decoder over a byte stream; see the module docs.
///
/// The generic `R` is a [`TcpStream`] in the server; tests substitute an
/// in-memory reader. Decoding is *total*: malformed input closes the source
/// with a [`ProtocolError`] retrievable via [`SocketEventSource::error`],
/// never a panic.
pub struct SocketEventSource<T, R = TcpStream> {
    reader: R,
    /// Received bytes not yet parsed; `start` is the parse offset.
    pending: Vec<u8>,
    start: usize,
    format: Option<WireFormat>,
    error: Option<ProtocolError>,
    eof: bool,
    frames: u64,
    _event: PhantomData<fn() -> T>,
}

impl<T: WireCodec, R: Read> SocketEventSource<T, R> {
    /// Decode events of type `T` from `reader`. The wire format is detected
    /// from the first byte received.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            pending: Vec::with_capacity(READ_CHUNK),
            start: 0,
            format: None,
            error: None,
            eof: false,
            frames: 0,
            _event: PhantomData,
        }
    }

    /// The detected wire format (`None` until the first byte arrives).
    pub fn format(&self) -> Option<WireFormat> {
        self.format
    }

    /// Complete frames decoded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// True while the stream may still yield events. `false` after a clean
    /// EOF or a protocol error. A [`SocketEventSource::next_batch`] that
    /// returns `0` while this is still `true` means a read timeout elapsed
    /// with no data — the caller's chance to flush idle batches and poll its
    /// shutdown flag.
    pub fn is_open(&self) -> bool {
        !self.eof && self.error.is_none()
    }

    /// The protocol error that closed the stream, if any.
    pub fn error(&self) -> Option<&ProtocolError> {
        self.error.as_ref()
    }

    fn unparsed(&self) -> &[u8] {
        &self.pending[self.start..]
    }

    /// Drop consumed bytes once the prefix gets large, keeping the buffer
    /// bounded without an O(n) shift per event.
    fn compact(&mut self) {
        if self.start > READ_CHUNK {
            self.pending.drain(..self.start);
            self.start = 0;
        }
    }

    fn fail(&mut self, e: ProtocolError) {
        self.error = Some(e);
    }

    /// Parse one complete event from the buffered bytes, if available.
    /// `Ok(None)` means "need more bytes" (or EOF / error already latched).
    fn parse_one(&mut self) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        let format = match self.format {
            Some(f) => f,
            None => {
                let first = *self.unparsed().first()?;
                let f = if first == b'{' {
                    WireFormat::JsonLines
                } else {
                    WireFormat::Binary
                };
                self.format = Some(f);
                f
            }
        };
        match format {
            WireFormat::Binary => self.parse_binary(),
            WireFormat::JsonLines => self.parse_json_line(),
        }
    }

    fn parse_binary(&mut self) -> Option<T> {
        // Consume the connection preamble before the first frame.
        if self.frames == 0 && self.start == 0 {
            let bytes = self.unparsed();
            if bytes.len() < BINARY_MAGIC.len() {
                if bytes != &BINARY_MAGIC[..bytes.len()] {
                    self.fail(ProtocolError::Malformed(
                        "connection does not start with the MSB1 magic or '{'".into(),
                    ));
                }
                return None;
            }
            if bytes[..4] != BINARY_MAGIC {
                self.fail(ProtocolError::Malformed(
                    "connection does not start with the MSB1 magic or '{'".into(),
                ));
                return None;
            }
            self.start += BINARY_MAGIC.len();
        }
        let bytes = self.unparsed();
        if bytes.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            self.fail(ProtocolError::Oversized { len });
            return None;
        }
        if bytes.len() < 4 + len {
            return None;
        }
        let payload = &bytes[4..4 + len];
        match T::decode_binary(payload) {
            Ok(event) => {
                self.start += 4 + len;
                self.frames += 1;
                self.compact();
                Some(event)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn parse_json_line(&mut self) -> Option<T> {
        let bytes = self.unparsed();
        let newline = bytes.iter().position(|&b| b == b'\n')?;
        let line = &bytes[..newline];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let parsed = match std::str::from_utf8(line) {
            Ok(text) => {
                let text = text.trim();
                if text.is_empty() {
                    // Blank line between events: skip it, try again.
                    self.start += newline + 1;
                    self.compact();
                    return self.parse_one();
                }
                T::decode_json(text)
            }
            Err(_) => Err(ProtocolError::Malformed(
                "JSON line is not valid UTF-8".into(),
            )),
        };
        match parsed {
            Ok(event) => {
                self.start += newline + 1;
                self.frames += 1;
                self.compact();
                Some(event)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

impl<T: WireCodec, R: Read> EventSource for SocketEventSource<T, R> {
    type Event = T;

    /// Append up to `max` decoded events. Returns `0` at clean EOF, on a
    /// protocol error (see [`SocketEventSource::error`]), or — when the
    /// underlying stream has a read timeout — after a quiet interval with no
    /// data, distinguishable via [`SocketEventSource::is_open`]. Only reads
    /// from the stream when no buffered event is parseable, so one call never
    /// buffers more than a frame beyond what it returns.
    fn next_batch(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        let mut produced = 0;
        loop {
            while produced < max {
                match self.parse_one() {
                    Some(event) => {
                        out.push(event);
                        produced += 1;
                    }
                    None => break,
                }
            }
            if produced > 0 || self.eof || self.error.is_some() {
                return produced;
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    if !self.unparsed().is_empty() {
                        // EOF mid-frame: the client died between length
                        // prefix and payload (or mid-line).
                        self.fail(ProtocolError::Truncated);
                    }
                    return 0;
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return 0;
                }
                Err(e) => {
                    self.fail(ProtocolError::Io(e));
                    return 0;
                }
            }
        }
    }
}

/// Encode one event in `format` onto the wire: a length-prefixed frame, or a
/// JSON line. The binary connection preamble ([`BINARY_MAGIC`]) is written
/// separately, once, by the client — see [`write_preamble`].
pub fn encode_event<T: WireCodec>(
    event: &T,
    format: WireFormat,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    match format {
        WireFormat::Binary => {
            scratch.clear();
            event.encode_binary(scratch);
            if scratch.len() > MAX_FRAME_LEN {
                return Err(ProtocolError::Oversized { len: scratch.len() });
            }
            out.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
            out.extend_from_slice(scratch);
        }
        WireFormat::JsonLines => {
            out.extend_from_slice(event.encode_json().as_bytes());
            out.push(b'\n');
        }
    }
    Ok(())
}

/// Append the connection preamble for `format` (the binary magic; nothing
/// for JSON lines, whose first `{` is self-describing).
pub fn write_preamble(format: WireFormat, out: &mut Vec<u8>) {
    if format == WireFormat::Binary {
        out.extend_from_slice(&BINARY_MAGIC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream_workloads::SlEvent;

    fn events() -> Vec<SlEvent> {
        vec![
            SlEvent::Deposit {
                account: 1,
                amount: 50,
            },
            SlEvent::Transfer {
                from: 2,
                to: 3,
                amount: 7,
            },
            // Largest JSON-safe integer, so the fixture crosses both wire
            // formats (full 64-bit range is covered by the wire.rs tests).
            SlEvent::Deposit {
                account: (1 << 53) - 1,
                amount: -1,
            },
        ]
    }

    fn encode_stream(events: &[SlEvent], format: WireFormat) -> Vec<u8> {
        let mut wire = Vec::new();
        write_preamble(format, &mut wire);
        let mut scratch = Vec::new();
        for e in events {
            encode_event(e, format, &mut scratch, &mut wire).unwrap();
        }
        wire
    }

    fn drain<R: Read>(source: &mut SocketEventSource<SlEvent, R>) -> Vec<SlEvent> {
        let mut out = Vec::new();
        while source.next_batch(2, &mut out) > 0 {}
        out
    }

    #[test]
    fn decodes_binary_and_json_streams_with_format_autodetect() {
        for format in [WireFormat::Binary, WireFormat::JsonLines] {
            let wire = encode_stream(&events(), format);
            let mut source = SocketEventSource::new(io::Cursor::new(wire));
            let decoded = drain(&mut source);
            assert_eq!(decoded, events(), "{format:?}");
            assert_eq!(source.format(), Some(format));
            assert_eq!(source.frames(), 3);
            assert!(!source.is_open());
            assert!(source.error().is_none(), "clean EOF is not an error");
        }
    }

    #[test]
    fn resumes_across_arbitrarily_split_reads() {
        // A reader that returns one byte at a time exercises every partial
        // state of the incremental parser.
        struct OneByte(io::Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let wire = encode_stream(&events(), WireFormat::Binary);
        let mut source = SocketEventSource::new(OneByte(io::Cursor::new(wire)));
        assert_eq!(drain(&mut source), events());
    }

    #[test]
    fn bad_magic_and_midframe_eof_close_with_an_error() {
        let mut source: SocketEventSource<SlEvent, _> =
            SocketEventSource::new(io::Cursor::new(b"XXXX".to_vec()));
        assert_eq!(source.next_batch(8, &mut Vec::new()), 0);
        assert!(matches!(source.error(), Some(ProtocolError::Malformed(_))));

        // Magic + length prefix announcing more bytes than the stream holds.
        let mut wire = Vec::new();
        wire.extend_from_slice(&BINARY_MAGIC);
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let mut source: SocketEventSource<SlEvent, _> =
            SocketEventSource::new(io::Cursor::new(wire));
        assert_eq!(source.next_batch(8, &mut Vec::new()), 0);
        assert!(matches!(source.error(), Some(ProtocolError::Truncated)));
        assert!(!source.is_open());

        // Magic + length prefix above the frame cap: refused before any
        // payload is buffered.
        let mut wire = Vec::new();
        wire.extend_from_slice(&BINARY_MAGIC);
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut source: SocketEventSource<SlEvent, _> =
            SocketEventSource::new(io::Cursor::new(wire));
        assert_eq!(source.next_batch(8, &mut Vec::new()), 0);
        assert!(matches!(
            source.error(),
            Some(ProtocolError::Oversized { len }) if *len == MAX_FRAME_LEN + 1
        ));
        assert!(!source.is_open());
    }

    #[test]
    fn encode_refuses_a_payload_above_the_frame_cap() {
        /// An event whose binary payload is one byte over the cap.
        struct Huge;
        impl WireCodec for Huge {
            fn encode_binary(&self, out: &mut Vec<u8>) {
                out.resize(MAX_FRAME_LEN + 1, 0);
            }
            fn decode_binary(_: &[u8]) -> Result<Self, ProtocolError> {
                Ok(Huge)
            }
            fn encode_json(&self) -> String {
                "{}".into()
            }
            fn decode_json(_: &str) -> Result<Self, ProtocolError> {
                Ok(Huge)
            }
        }
        let mut out = Vec::new();
        assert!(matches!(
            encode_event(&Huge, WireFormat::Binary, &mut Vec::new(), &mut out),
            Err(ProtocolError::Oversized { len }) if len == MAX_FRAME_LEN + 1
        ));
        assert!(
            out.is_empty(),
            "nothing of a refused frame reaches the wire"
        );
    }

    #[test]
    fn malformed_json_line_closes_with_an_error() {
        let wire = b"{\"type\":\"deposit\",\"account\":1,\"amount\":5}\nnot json\n".to_vec();
        let mut source: SocketEventSource<SlEvent, _> =
            SocketEventSource::new(io::Cursor::new(wire));
        let mut out = Vec::new();
        assert_eq!(source.next_batch(8, &mut out), 1);
        assert_eq!(source.next_batch(8, &mut out), 0);
        assert!(source.error().is_some());
    }
}
