//! Property tests for the zero-dependency TOML-subset parser behind the
//! scenario loader: arbitrary byte soup must produce a parse error, never a
//! panic, and any document assembled through the table API and written out
//! by this file's own writer must parse back unchanged.

use proptest::prelude::*;

use morphstream_common::rng::DetRng;
use morphstream_common::toml::{TomlDocument, TomlTable, TomlValue};

/// Tokens that steer random input toward the parser's deep paths (section
/// headers, escapes, half-finished literals) faster than raw bytes do.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "[[",
    "]]",
    "=",
    "\"",
    "\\",
    "#",
    "\n",
    " ",
    ",",
    ".",
    "-",
    "key",
    "table",
    "true",
    "false",
    "0",
    "9999999999999999999999",
    "1.5",
    "1e309",
    "\"unterminated",
    "\\q",
    "\u{7}",
    "é",
    "[a.b]",
    "= =",
];

fn printable_string(rng: &mut DetRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '_', '-', '.', ',', '/', '(', ')', '#', '[', ']', '=', '\'', '"', '\\',
        '\n', '\t', 'é', '→',
    ];
    let len = rng.next_below(12) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn bare_key(rng: &mut DetRng, ordinal: usize) -> String {
    const STEMS: &[&str] = &["key", "threads", "window", "seed-2", "IDS", "a_b"];
    format!(
        "{}{ordinal}",
        STEMS[rng.next_below(STEMS.len() as u64) as usize]
    )
}

fn scalar(rng: &mut DetRng) -> TomlValue {
    match rng.next_below(4) {
        0 => TomlValue::Integer(rng.next_u64() as i64),
        1 => TomlValue::Boolean(rng.next_bool(0.5)),
        // Multiples of 1/256 are exactly representable, so Display output
        // re-parses to the identical f64 (no NaN/inf, which do not re-parse).
        2 => TomlValue::Float((rng.next_range(0, 2_000_000) as i64 - 1_000_000) as f64 / 256.0),
        _ => TomlValue::String(printable_string(rng)),
    }
}

fn value(rng: &mut DetRng) -> TomlValue {
    if rng.next_bool(0.25) {
        TomlValue::Array((0..rng.next_below(5)).map(|_| scalar(rng)).collect())
    } else {
        scalar(rng)
    }
}

fn table(rng: &mut DetRng) -> TomlTable {
    let mut table = TomlTable::default();
    for ordinal in 0..rng.next_below(6) as usize {
        table.insert(bare_key(rng, ordinal), value(rng));
    }
    table
}

/// `doc` as TOML text, in the shape the parser documents: the root table's
/// keys, then the `[section]` tables, then the `[[array]]` entries.
fn render(doc: &TomlDocument) -> String {
    let mut out = String::new();
    write_table_body(&mut out, &doc.root);
    let sections = doc.tables.iter().map(|(name, t)| (format!("[{name}]"), t));
    let entries = doc
        .arrays
        .iter()
        .map(|(name, t)| (format!("[[{name}]]"), t));
    for (header, table) in sections.chain(entries) {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&header);
        out.push('\n');
        write_table_body(&mut out, table);
    }
    out
}

fn write_table_body(out: &mut String, table: &TomlTable) {
    for (key, value) in table.iter() {
        out.push_str(key);
        out.push_str(" = ");
        write_value(out, value);
        out.push('\n');
    }
}

fn write_value(out: &mut String, value: &TomlValue) {
    match value {
        TomlValue::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        TomlValue::Integer(n) => out.push_str(&n.to_string()),
        TomlValue::Float(f) => {
            // Keep a decimal point (or exponent) so the value re-parses as a
            // float rather than collapsing to an integer.
            let s = format!("{f}");
            let is_float = s.contains(['.', 'e']);
            out.push_str(&s);
            if !is_float {
                out.push_str(".0");
            }
        }
        TomlValue::Boolean(b) => out.push_str(if *b { "true" } else { "false" }),
        TomlValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
    }
}

/// An arbitrary document in the writer's canonical shape: a root table,
/// then uniquely-named `[section]` tables, then `[[array]]` entries.
fn document(seed: u64) -> TomlDocument {
    let mut rng = DetRng::new(seed);
    let mut doc = TomlDocument {
        root: table(&mut rng),
        ..TomlDocument::default()
    };
    for ordinal in 0..rng.next_below(4) as usize {
        doc.tables
            .push((format!("section-{ordinal}"), table(&mut rng)));
    }
    let arrays = rng.next_below(4) as usize;
    for ordinal in 0..arrays {
        // Repeated [[name]] entries are legal; reuse one name for half.
        let name = format!("entry-{}", ordinal.min(arrays / 2));
        doc.arrays.push((name, table(&mut rng)));
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (as lossy UTF-8) may fail to parse, but must never
    /// panic, hang, or return through anything but `Result`.
    #[test]
    fn byte_soup_errors_instead_of_panicking(
        bytes in proptest::collection::vec(0u16..256, 0..256),
    ) {
        let soup: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        let text = String::from_utf8_lossy(&soup);
        let _ = TomlDocument::parse(&text);
    }

    /// Token soup reaches the structured error paths (section headers,
    /// escapes, oversized literals) that uniform bytes rarely hit.
    #[test]
    fn token_soup_errors_instead_of_panicking(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|i| TOKENS[*i]).collect();
        let _ = TomlDocument::parse(&text);
    }

    /// A document built through the table API, written out, parses back to
    /// the identical document — keys, section order, value types, escapes,
    /// and float precision all preserved.
    #[test]
    fn writer_documents_round_trip_through_the_parser(seed in 0u64..u64::MAX) {
        let doc = document(seed);
        let text = render(&doc);
        let reparsed = TomlDocument::parse(&text)
            .unwrap_or_else(|e| panic!("round trip failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(doc, reparsed);
    }
}
