//! Minimal hand-rolled JSON support shared across the workspace.
//!
//! The offline build environment has no registry access, so `serde` is
//! feature-gated off everywhere; this module is the single serialization
//! path used by the bench harness's `BENCH_*.json` artifacts, the engine's
//! report snapshots, and the server's wire protocol — instead of each crate
//! hand-formatting its own JSON.
//!
//! Two halves:
//!
//! * [`JsonObject`] — an ordered string/number field writer producing one
//!   compact JSON object (the only shape the workspace emits);
//! * [`parse_object`] — a strict parser for one *flat* JSON object (string,
//!   number, and boolean values; no nesting except arrays of numbers), which
//!   is exactly the shape the JSON-lines wire protocol accepts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builder for one compact JSON object with ordered fields.
///
/// ```
/// use morphstream_common::json::JsonObject;
/// let row = JsonObject::new()
///     .string("system", "MorphStream")
///     .number("committed", 42)
///     .fixed("rate", 1.5, 3)
///     .build();
/// assert_eq!(row, r#"{"system":"MorphStream","committed":42,"rate":1.500}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a string field (escaped).
    #[must_use]
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Append an integer field.
    #[must_use]
    pub fn number(mut self, key: &str, value: impl Into<i128>) -> Self {
        self.fields
            .push((key.to_string(), value.into().to_string()));
        self
    }

    /// Append an unsigned integer field.
    #[must_use]
    pub fn unsigned(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a float field with `decimals` fractional digits. Non-finite
    /// values (not representable in JSON) are written as `null`.
    #[must_use]
    pub fn fixed(mut self, key: &str, value: f64, decimals: usize) -> Self {
        let rendered = if value.is_finite() {
            format!("{value:.decimals$}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Append a boolean field.
    #[must_use]
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a pre-rendered JSON value (object, array, or `null`) verbatim.
    #[must_use]
    pub fn raw(mut self, key: &str, rendered: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), rendered.into()));
        self
    }

    /// Append an array of pre-rendered JSON values.
    #[must_use]
    pub fn array(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let body: Vec<String> = items.into_iter().collect();
        self.raw(key, format!("[{}]", body.join(",")))
    }

    /// Render the object.
    pub fn build(self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(key), value);
        }
        out.push('}');
        out
    }
}

/// A value inside a flat JSON object (see [`parse_object`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string.
    String(String),
    /// A number (parsed as f64; integral values round-trip exactly up to
    /// 2^53).
    Number(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of numbers (the only nested shape the parser accepts).
    Numbers(Vec<f64>),
}

impl JsonValue {
    /// The value as an unsigned integer, when it is a non-negative integral
    /// number that fits losslessly in an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, when it is an integral number that fits
    /// losslessly in an `f64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Why [`parse_object`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the first problem found.
    pub reason: String,
    /// Byte offset of the problem in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, reason: impl Into<String>) -> JsonParseError {
        JsonParseError {
            reason: reason.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so
                    // resynchronising on char boundaries is safe.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.error("empty input"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let value: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(self.error("non-finite number"))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Numbers(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_number()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Numbers(items));
                        }
                        _ => return Err(self.error("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => Ok(JsonValue::Number(self.parse_number()?)),
            Some(b'{') => Err(self.error("nested objects are not supported")),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_keyword(
        &mut self,
        keyword: &str,
        value: JsonValue,
    ) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {keyword:?}")))
        }
    }
}

/// Parse one flat JSON object (`{"key": value, ...}`) into a key → value map.
///
/// Values may be strings, numbers, booleans, `null`, or arrays of numbers;
/// nested objects are rejected. Trailing content after the closing brace is
/// rejected, so a JSON-lines frame cannot smuggle a second message.
pub fn parse_object(input: &str) -> Result<BTreeMap<String, JsonValue>, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            let value = p.parse_value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(p.error("expected ',' or '}' in object")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after object"));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_renders_ordered_fields() {
        let row = JsonObject::new()
            .string("name", "a\"b")
            .number("n", -3)
            .unsigned("u", 7)
            .fixed("f", 0.125, 3)
            .boolean("ok", true)
            .raw("nested", "null")
            .array("xs", ["1".to_string(), "2".to_string()])
            .build();
        assert_eq!(
            row,
            r#"{"name":"a\"b","n":-3,"u":7,"f":0.125,"ok":true,"nested":null,"xs":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(
            JsonObject::new().fixed("x", f64::NAN, 2).build(),
            r#"{"x":null}"#
        );
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn parses_flat_objects() {
        let map = parse_object(
            r#" {"type":"transfer", "from": 1, "to": 2, "amount": -5, "keys": [1, 2, 3], "b": true, "z": null} "#,
        )
        .unwrap();
        assert_eq!(map["type"].as_str(), Some("transfer"));
        assert_eq!(map["from"].as_u64(), Some(1));
        assert_eq!(map["amount"].as_i64(), Some(-5));
        assert_eq!(map["keys"], JsonValue::Numbers(vec![1.0, 2.0, 3.0]));
        assert_eq!(map["b"], JsonValue::Bool(true));
        assert_eq!(map["z"], JsonValue::Null);
    }

    #[test]
    fn builder_output_round_trips_through_the_parser() {
        let rendered = JsonObject::new()
            .string("type", "deposit")
            .unsigned("account", 42)
            .number("amount", 17)
            .build();
        let map = parse_object(&rendered).unwrap();
        assert_eq!(map["type"].as_str(), Some("deposit"));
        assert_eq!(map["account"].as_u64(), Some(42));
        assert_eq!(map["amount"].as_i64(), Some(17));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{}}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":[1,"x"]}"#,
            r#"{"a":1}{"b":2}"#,
            r#"{"a":1e999}"#,
            r#"{"a":"unterminated}"#,
            "not json at all",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_round_trip_in_strings() {
        let map = parse_object(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(map["s"].as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn integer_extraction_guards_range_and_fraction() {
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_i64(), Some(-1));
        assert_eq!(JsonValue::String("1".into()).as_u64(), None);
    }
}
