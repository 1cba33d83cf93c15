//! A zero-dependency parser for the small TOML subset used by declarative
//! topology files (`scenarios/*.toml`).
//!
//! The workspace is offline and vendoring the full `toml` crate (and its
//! serde stack) for flat configuration files would be out of proportion, so
//! this module implements exactly what the dataflow loader needs:
//!
//! * top-level key/value pairs, `[table]` sections and `[[array-of-tables]]`
//!   entries (file order is preserved for both);
//! * basic strings with `\" \\ \n \t \r` escapes, integers (with `_`
//!   separators), floats, booleans, and single-line homogeneous arrays of
//!   those primitives;
//! * `#` comments and blank lines.
//!
//! Dotted keys, inline tables, multi-line strings, dates, and nested arrays
//! are *not* supported and fail with a line-numbered [`TomlError`] — the
//! loader surfaces that to the user with the file name attached. Malformed
//! input of any kind must produce an error, never a panic; the proptest
//! suite in `tests/` feeds this parser arbitrary byte soup to keep that
//! guarantee honest.

use std::fmt;

/// A parsed TOML value (the subset's scalar and array types).
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string (escapes already resolved).
    String(String),
    /// A 64-bit signed integer.
    Integer(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Boolean(bool),
    /// A single-line array of primitive values.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            TomlValue::Integer(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float; integers widen losslessly enough for config
    /// knobs (`theta = 0.6` and `theta = 1` both parse).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            TomlValue::Float(f) => Some(*f),
            TomlValue::Integer(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// An insertion-ordered table of key/value pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    entries: Vec<(String, TomlValue)>,
}

impl TomlTable {
    /// Look up `key`.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate `(key, value)` pairs in file order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TomlValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a pair. Does not look for an earlier one of the same key: the
    /// parser rejects duplicates before it inserts.
    pub fn insert(&mut self, key: impl Into<String>, value: TomlValue) {
        self.entries.push((key.into(), value));
    }
}

/// A parsed document: the top-level table, named `[table]` sections, and
/// `[[name]]` array-of-tables entries, all in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDocument {
    /// Key/value pairs appearing before any section header.
    pub root: TomlTable,
    /// `[name]` sections in file order.
    pub tables: Vec<(String, TomlTable)>,
    /// `[[name]]` entries in file order (one element per occurrence).
    pub arrays: Vec<(String, TomlTable)>,
}

impl TomlDocument {
    /// Parse `input`; on failure the error carries the 1-based line number.
    pub fn parse(input: &str) -> Result<TomlDocument, TomlError> {
        Parser::new(input).run()
    }

    /// The first `[name]` section, if present.
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All `[[name]]` entries, in file order.
    pub fn array_of(&self, name: &str) -> impl Iterator<Item = &TomlTable> {
        let name = name.to_string();
        self.arrays
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, t)| t)
    }
}

/// A parse error with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Where key/value pairs are currently being collected.
enum Section {
    Root,
    Table(usize),
    Array(usize),
}

struct Parser<'a> {
    input: &'a str,
    doc: TomlDocument,
    section: Section,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            doc: TomlDocument::default(),
            section: Section::Root,
        }
    }

    fn run(mut self) -> Result<TomlDocument, TomlError> {
        for (idx, raw) in self.input.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| err(line_no, "unterminated [[array-of-tables]] header"))?
                    .trim();
                check_name(name, line_no)?;
                self.doc
                    .arrays
                    .push((name.to_string(), TomlTable::default()));
                self.section = Section::Array(self.doc.arrays.len() - 1);
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(line_no, "unterminated [table] header"))?
                    .trim();
                check_name(name, line_no)?;
                if self.doc.tables.iter().any(|(n, _)| n == name) {
                    return Err(err(line_no, format!("duplicate table [{name}]")));
                }
                self.doc
                    .tables
                    .push((name.to_string(), TomlTable::default()));
                self.section = Section::Table(self.doc.tables.len() - 1);
            } else {
                let (key, value) = parse_key_value(line, line_no)?;
                let table = match self.section {
                    Section::Root => &mut self.doc.root,
                    Section::Table(i) => &mut self.doc.tables[i].1,
                    Section::Array(i) => &mut self.doc.arrays[i].1,
                };
                if table.contains(&key) {
                    return Err(err(line_no, format!("duplicate key {key:?}")));
                }
                table.insert(key, value);
            }
        }
        Ok(self.doc)
    }
}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Strip a `#` comment, honouring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn check_name(name: &str, line: usize) -> Result<(), TomlError> {
    if name.is_empty() {
        return Err(err(line, "empty table name"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
    {
        return Err(err(line, format!("invalid table name {name:?}")));
    }
    Ok(())
}

fn parse_key_value(line: &str, line_no: usize) -> Result<(String, TomlValue), TomlError> {
    let eq = line
        .find('=')
        .ok_or_else(|| err(line_no, format!("expected `key = value`, got {line:?}")))?;
    let key = line[..eq].trim();
    if key.is_empty() {
        return Err(err(line_no, "empty key"));
    }
    if !key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
    {
        return Err(err(
            line_no,
            format!("invalid key {key:?} (bare keys only: [A-Za-z0-9_-])"),
        ));
    }
    let raw_value = line[eq + 1..].trim();
    let (value, rest) = parse_value(raw_value, line_no)?;
    if !rest.trim().is_empty() {
        return Err(err(
            line_no,
            format!("trailing characters after value: {:?}", rest.trim()),
        ));
    }
    Ok((key.to_string(), value))
}

/// Parse one value at the start of `input`; returns it plus the unconsumed
/// tail (used for array elements).
fn parse_value(input: &str, line_no: usize) -> Result<(TomlValue, &str), TomlError> {
    let input = input.trim_start();
    if input.is_empty() {
        return Err(err(line_no, "missing value"));
    }
    if let Some(rest) = input.strip_prefix('"') {
        return parse_string(rest, line_no);
    }
    if let Some(rest) = input.strip_prefix('[') {
        return parse_array(rest, line_no);
    }
    // Bare token: runs until a delimiter that can follow a value.
    let end = input
        .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
        .unwrap_or(input.len());
    let (token, rest) = input.split_at(end);
    if token == "true" {
        return Ok((TomlValue::Boolean(true), rest));
    }
    if token == "false" {
        return Ok((TomlValue::Boolean(false), rest));
    }
    parse_number(token, line_no).map(|v| (v, rest))
}

fn parse_string(body: &str, line_no: usize) -> Result<(TomlValue, &str), TomlError> {
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((TomlValue::String(out), &body[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => {
                    return Err(err(line_no, format!("unsupported escape \\{other}")))
                }
                None => return Err(err(line_no, "unterminated escape")),
            },
            c => out.push(c),
        }
    }
    Err(err(line_no, "unterminated string"))
}

fn parse_array(body: &str, line_no: usize) -> Result<(TomlValue, &str), TomlError> {
    let mut items = Vec::new();
    let mut rest = body.trim_start();
    loop {
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((TomlValue::Array(items), after));
        }
        if rest.is_empty() {
            return Err(err(line_no, "unterminated array"));
        }
        if rest.starts_with('[') {
            return Err(err(line_no, "nested arrays are not supported"));
        }
        let (value, after) = parse_value(rest, line_no)?;
        items.push(value);
        rest = after.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.starts_with(']') {
            return Err(err(line_no, "expected `,` or `]` in array"));
        }
    }
}

fn parse_number(token: &str, line_no: usize) -> Result<TomlValue, TomlError> {
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    // Reject `_` in positions plain `parse` would accept after stripping
    // (leading/trailing/double separators are invalid TOML).
    if token.contains("__")
        || token.starts_with('_')
        || token.ends_with('_')
        || token.contains("_.")
        || token.contains("._")
    {
        return Err(err(line_no, format!("malformed number {token:?}")));
    }
    if let Ok(n) = cleaned.parse::<i64>() {
        return Ok(TomlValue::Integer(n));
    }
    if cleaned.contains(['.', 'e', 'E']) && !cleaned.contains("0x") {
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.is_finite() {
                return Ok(TomlValue::Float(f));
            }
        }
    }
    Err(err(line_no, format!("unrecognised value {token:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_section_kinds() {
        let doc = TomlDocument::parse(
            r#"
            # a scenario
            title = "demo"

            [topology]
            name = "fraud"
            concurrent = false

            [[stages]]
            id = "enrich"
            parallelism = 1

            [[stages]]
            id = "score"
            inputs = ["enrich"]
            "#,
        )
        .unwrap();
        assert_eq!(doc.root.get("title").unwrap().as_str(), Some("demo"));
        let topo = doc.table("topology").unwrap();
        assert_eq!(topo.get("name").unwrap().as_str(), Some("fraud"));
        assert_eq!(topo.get("concurrent").unwrap().as_bool(), Some(false));
        let stages: Vec<_> = doc.array_of("stages").collect();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("id").unwrap().as_str(), Some("enrich"));
        let inputs = stages[1].get("inputs").unwrap().as_array().unwrap();
        assert_eq!(inputs[0].as_str(), Some("enrich"));
    }

    #[test]
    fn scalar_types_parse() {
        let doc = TomlDocument::parse(
            "i = 42\nneg = -7\nsep = 1_000_000\nf = 0.75\nexp = 1e3\nb = true\ns = \"a\\nb\"\narr = [1, 2, 3]\n",
        )
        .unwrap();
        assert_eq!(doc.root.get("i").unwrap().as_integer(), Some(42));
        assert_eq!(doc.root.get("neg").unwrap().as_integer(), Some(-7));
        assert_eq!(doc.root.get("sep").unwrap().as_integer(), Some(1_000_000));
        assert_eq!(doc.root.get("f").unwrap().as_float(), Some(0.75));
        assert_eq!(doc.root.get("exp").unwrap().as_float(), Some(1000.0));
        assert_eq!(doc.root.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(doc.root.get("s").unwrap().as_str(), Some("a\nb"));
        assert_eq!(doc.root.get("arr").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn comments_and_quoted_hashes() {
        let doc = TomlDocument::parse("s = \"a#b\" # trailing\n").unwrap();
        assert_eq!(doc.root.get("s").unwrap().as_str(), Some("a#b"));
    }

    #[test]
    fn integers_widen_to_float_on_demand() {
        let doc = TomlDocument::parse("theta = 1\n").unwrap();
        assert_eq!(doc.root.get("theta").unwrap().as_float(), Some(1.0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = TomlDocument::parse("ok = 1\nbad line\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = TomlDocument::parse("x = \"unterminated\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = TomlDocument::parse("[broken\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = TomlDocument::parse("x = [1, 2\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn duplicates_are_rejected() {
        assert!(TomlDocument::parse("a = 1\na = 2\n").is_err());
        assert!(TomlDocument::parse("[t]\n[t]\n").is_err());
        // Two [[t]] entries are fine — that is the point of arrays-of-tables.
        assert!(TomlDocument::parse("[[t]]\na = 1\n[[t]]\na = 2\n").is_ok());
    }

    #[test]
    fn unsupported_constructs_error_cleanly() {
        assert!(TomlDocument::parse("x = [[1]]\n").is_err());
        assert!(TomlDocument::parse("x = {a = 1}\n").is_err());
        assert!(TomlDocument::parse("x = 1979-05-27\n").is_err());
        assert!(TomlDocument::parse("x = 1 trailing\n").is_err());
        // Underscores are fine in keys, just not leading/trailing in numbers.
        assert!(TomlDocument::parse("_key = 1\n").is_ok());
        assert!(TomlDocument::parse("x = _1\n").is_err());
        assert!(TomlDocument::parse("x = 1_\n").is_err());
    }
}
