//! The [`WireCodec`] implementation for Streaming Ledger events, the one
//! event type `morphstream serve` carries over its two wire formats.
//!
//! The binary layout is a one-byte variant tag followed by fixed-width
//! little-endian fields (`u64` accounts, `i64` amounts); JSON lines are flat
//! objects discriminated by a `"type"` field. Both decoders are total:
//! malformed bytes or JSON produce a [`ProtocolError`], never a panic, and
//! both reject trailing content so one frame is exactly one event.

use std::collections::BTreeMap;

use morphstream_common::json::{parse_object, JsonObject, JsonValue};
use morphstream_common::protocol::{PayloadReader, ProtocolError, WireCodec};

use crate::sl::SlEvent;

// Binary variant tags.
const SL_DEPOSIT: u8 = 0;
const SL_TRANSFER: u8 = 1;

fn field<'m>(
    map: &'m BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<&'m JsonValue, ProtocolError> {
    map.get(key)
        .ok_or_else(|| ProtocolError::Malformed(format!("missing field {key:?}")))
}

fn u64_field(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, ProtocolError> {
    field(map, key)?
        .as_u64()
        .ok_or_else(|| ProtocolError::Malformed(format!("field {key:?} is not a u64")))
}

fn i64_field(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<i64, ProtocolError> {
    field(map, key)?
        .as_i64()
        .ok_or_else(|| ProtocolError::Malformed(format!("field {key:?} is not an integer")))
}

impl WireCodec for SlEvent {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            SlEvent::Deposit { account, amount } => {
                out.push(SL_DEPOSIT);
                out.extend_from_slice(&account.to_le_bytes());
                out.extend_from_slice(&amount.to_le_bytes());
            }
            SlEvent::Transfer { from, to, amount } => {
                out.push(SL_TRANSFER);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&amount.to_le_bytes());
            }
        }
    }

    fn decode_binary(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = PayloadReader::new(payload);
        let event = match r.u8()? {
            SL_DEPOSIT => SlEvent::Deposit {
                account: r.u64()?,
                amount: r.i64()?,
            },
            SL_TRANSFER => SlEvent::Transfer {
                from: r.u64()?,
                to: r.u64()?,
                amount: r.i64()?,
            },
            tag => return Err(ProtocolError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(event)
    }

    fn encode_json(&self) -> String {
        match self {
            SlEvent::Deposit { account, amount } => JsonObject::new()
                .string("type", "deposit")
                .unsigned("account", *account)
                .number("amount", *amount)
                .build(),
            SlEvent::Transfer { from, to, amount } => JsonObject::new()
                .string("type", "transfer")
                .unsigned("from", *from)
                .unsigned("to", *to)
                .number("amount", *amount)
                .build(),
        }
    }

    fn decode_json(line: &str) -> Result<Self, ProtocolError> {
        let map = parse_object(line)?;
        match field(&map, "type")?.as_str() {
            Some("deposit") => Ok(SlEvent::Deposit {
                account: u64_field(&map, "account")?,
                amount: i64_field(&map, "amount")?,
            }),
            Some("transfer") => Ok(SlEvent::Transfer {
                from: u64_field(&map, "from")?,
                to: u64_field(&map, "to")?,
                amount: i64_field(&map, "amount")?,
            }),
            other => Err(ProtocolError::Malformed(format!(
                "unknown SL event type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingLedgerApp;
    use morphstream_common::WorkloadConfig;

    fn binary_round_trip<E: WireCodec + PartialEq + std::fmt::Debug>(event: &E) {
        let mut payload = Vec::new();
        event.encode_binary(&mut payload);
        assert_eq!(&E::decode_binary(&payload).unwrap(), event);
    }

    fn json_round_trip<E: WireCodec + PartialEq + std::fmt::Debug>(event: &E) {
        let line = event.encode_json();
        assert_eq!(&E::decode_json(&line).unwrap(), event, "line: {line}");
    }

    #[test]
    fn generated_sl_events_round_trip_both_formats() {
        let config = WorkloadConfig::streaming_ledger().with_key_space(1 << 20);
        for event in StreamingLedgerApp::source(&config, 200, 0.5) {
            binary_round_trip(&event);
            json_round_trip(&event);
        }
    }

    #[test]
    fn malformed_binary_payloads_error_without_panicking() {
        // empty payload, unknown tag, truncated fields, trailing bytes
        assert!(SlEvent::decode_binary(&[]).is_err());
        assert!(matches!(
            SlEvent::decode_binary(&[9]),
            Err(ProtocolError::UnknownTag(9))
        ));
        assert!(SlEvent::decode_binary(&[SL_DEPOSIT, 1, 2]).is_err());
        let mut ok = Vec::new();
        SlEvent::Deposit {
            account: 1,
            amount: 2,
        }
        .encode_binary(&mut ok);
        ok.push(0xFF);
        assert!(matches!(
            SlEvent::decode_binary(&ok),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_json_lines_error_without_panicking() {
        for bad in [
            "",
            "{}",
            r#"{"type":"teleport"}"#,
            r#"{"type":"deposit","account":-1,"amount":5}"#,
            r#"{"type":"deposit","account":1}"#,
            r#"{"type":"transfer","from":1,"to":2,"amount":"lots"}"#,
            r#"{"type":"deposit","account":[1],"amount":5}"#,
            "not json",
        ] {
            assert!(SlEvent::decode_json(bad).is_err(), "SL accepted {bad:?}");
        }
    }
}
