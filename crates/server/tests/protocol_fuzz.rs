//! Property tests of the wire protocol (vendored proptest shim): arbitrary
//! SL events round-trip both formats bit-exactly, and arbitrary byte soup fed
//! to the socket decoder errors instead of panicking — the server-facing
//! totality guarantee.

use std::io::Cursor;

use proptest::prelude::*;

use morphstream::EventSource;
use morphstream_common::protocol::{WireCodec, WireFormat};
use morphstream_server::{encode_event, write_preamble, SocketEventSource};
use morphstream_workloads::SlEvent;

/// Largest integer JSON carries exactly (the parser goes through `f64`).
const JSON_MAX: u64 = (1 << 53) - 1;

fn sl_event(key_bound: u64, amount_bound: i64) -> impl Strategy<Value = SlEvent> {
    prop_oneof![
        (0..key_bound, -amount_bound..amount_bound)
            .prop_map(|(account, amount)| { SlEvent::Deposit { account, amount } }),
        (0..key_bound, 0..key_bound, 0..amount_bound)
            .prop_map(|(from, to, amount)| { SlEvent::Transfer { from, to, amount } }),
    ]
}

/// Encode one event as a full wire stream and decode it back through the
/// socket decoder.
fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(event: &T, format: WireFormat) {
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    write_preamble(format, &mut wire);
    encode_event(event, format, &mut scratch, &mut wire).expect("encode");
    let mut source: SocketEventSource<T, _> = SocketEventSource::new(Cursor::new(wire));
    let mut out = Vec::new();
    assert_eq!(source.next_batch(4, &mut out), 1, "{format:?}");
    assert_eq!(&out[0], event, "{format:?}");
    assert_eq!(source.next_batch(4, &mut out), 0, "stream is exhausted");
    assert!(source.error().is_none(), "{:?}", source.error());
}

/// Feed arbitrary bytes to the decoder: it must terminate without panicking,
/// and never fabricate trailing events after an error.
fn fuzz_decode(wire: Vec<u8>) {
    let mut source: SocketEventSource<SlEvent, _> = SocketEventSource::new(Cursor::new(wire));
    let mut out = Vec::new();
    while source.next_batch(64, &mut out) > 0 {
        assert!(source.error().is_none(), "events after an error");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sl_events_round_trip_binary_at_full_range(event in sl_event(u64::MAX, i64::MAX)) {
        round_trip(&event, WireFormat::Binary);
    }

    #[test]
    fn sl_events_round_trip_json_in_the_safe_integer_range(
        event in sl_event(JSON_MAX, JSON_MAX as i64)
    ) {
        round_trip(&event, WireFormat::JsonLines);
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_decoder(
        wire in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512)
    ) {
        fuzz_decode(wire.clone());

        // The same soup behind a valid binary preamble: exercises the frame
        // parser instead of failing at the magic check.
        let mut framed = b"MSB1".to_vec();
        framed.extend_from_slice(&wire);
        fuzz_decode(framed);

        // And as a "JSON" connection: a `{` forces the line parser.
        let mut json = b"{".to_vec();
        json.extend_from_slice(&wire);
        fuzz_decode(json);
    }

    #[test]
    fn corrupted_valid_frames_error_instead_of_panicking(
        event in sl_event(u64::MAX, i64::MAX),
        flip in 0usize..64,
        bite in 0usize..16,
    ) {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_preamble(WireFormat::Binary, &mut wire);
        encode_event(&event, WireFormat::Binary, &mut scratch, &mut wire).expect("encode");
        // Flip one byte somewhere in the stream...
        let at = flip % wire.len();
        wire[at] ^= 1 << (bite % 8);
        fuzz_decode(wire.clone());
        // ...and also truncate at an arbitrary point.
        wire.truncate(flip % (wire.len() + 1));
        fuzz_decode(wire);
    }
}
