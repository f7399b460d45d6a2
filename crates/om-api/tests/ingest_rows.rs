//! The ingest table against the tree decode it stands in for.
//!
//! [`LabelRows::decode`] must accept a `/v1/ingest` body exactly when
//! `Json::parse` then [`IngestRequest::from_json`] accepts it, yield
//! the same rows, and refuse with the same message; its fast pass must
//! borrow every label written without an escape; and [`encode_rows`]
//! must write the bytes [`IngestRequest::encode`] writes. Bodies are
//! canonical encodings, the same rows re-spelled (whitespace, `\u`
//! escapes and surrogate pairs, `\/`, an escaped key), shapes the
//! schema refuses (unknown, duplicate or missing keys, non-string
//! labels, flat rows, trailing bytes), and every truncation and
//! single-bit flip of a valid body.

use std::borrow::Cow;
use std::fmt::Write as _;

use om_api::{encode_rows, IngestRequest, Json, LabelRows};
use proptest::prelude::*;

/// What the tree decode makes of `body`: rows, or the refusal message.
fn tree(body: &str) -> Result<Vec<Vec<String>>, String> {
    let json = Json::parse(body).map_err(|e| e.to_string())?;
    IngestRequest::from_json(&json).map(|req| req.rows)
}

/// What the table decode makes of `body`, in the same terms.
fn table(body: &str) -> Result<Vec<Vec<String>>, String> {
    LabelRows::decode(body).map(|rows| rows.to_rows())
}

/// Labels with what a schema's values hold: quotes, backslashes,
/// controls, tabs, `é`, `/`, astral characters, and plain ASCII.
fn label() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "a", "ph1", "morning", "x y", "\"", "\\", "\t", "\n", "\u{1}", "\u{1f}", "é", "/", "😀",
        "\u{7f}", "\u{2028}", "[", "]", ",", "{", ":",
    ];
    collection::vec(0..PIECES.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// Ragged rows: each row has its own length, empty rows included.
fn rows() -> impl Strategy<Value = Vec<Vec<String>>> {
    collection::vec(collection::vec(label(), 0..5), 0..6)
}

/// Whether the wire writer escapes any character of `s`.
fn needs_escape(s: &str) -> bool {
    s.chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

/// A cursor over random choices, so one drawn vector steers a whole
/// re-spelling.
struct Noise<'a> {
    choices: &'a [u8],
    at: usize,
}

impl Noise<'_> {
    fn next(&mut self) -> u8 {
        let c = self
            .choices
            .get(self.at % self.choices.len().max(1))
            .copied();
        self.at += 1;
        c.unwrap_or(0)
    }

    /// Whitespace the grammar allows between tokens, or none.
    fn ws(&mut self, out: &mut String) {
        out.push_str(match self.next() % 8 {
            0 => " ",
            1 => "\t",
            2 => "\r\n",
            3 => "  \n ",
            _ => "",
        });
    }

    /// `s` as a JSON string literal, each character spelled one of the
    /// ways the grammar allows; whether any was spelled as an escape.
    fn string(&mut self, out: &mut String, s: &str) -> bool {
        let start = out.len();
        out.push('"');
        for c in s.chars() {
            let pick = self.next() % 4;
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' if pick == 0 => out.push_str("\\/"),
                c if (c as u32) < 0x20 || pick == 1 => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if self.next().is_multiple_of(2) {
                            let _ = write!(out, "\\u{unit:04x}");
                        } else {
                            let _ = write!(out, "\\u{unit:04X}");
                        }
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out.get(start..).is_some_and(|lit| lit.contains('\\'))
    }
}

/// How a body departs from a valid one.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Valid,
    EscapedKey,
    UnknownKey,
    ExtraKey,
    DuplicateKey,
    MissingKey,
    NumberLabel,
    NullLabel,
    FlatRow,
    NullRows,
    TopArray,
    TrailingBytes,
    TrailingComma,
}

const SHAPES: [Shape; 13] = [
    Shape::Valid,
    Shape::EscapedKey,
    Shape::UnknownKey,
    Shape::ExtraKey,
    Shape::DuplicateKey,
    Shape::MissingKey,
    Shape::NumberLabel,
    Shape::NullLabel,
    Shape::FlatRow,
    Shape::NullRows,
    Shape::TopArray,
    Shape::TrailingBytes,
    Shape::TrailingComma,
];

/// Spell `rows` as an ingest body of `shape`, steered by `noise`;
/// `escaped` gets, label by label, whether the spelling used an escape.
fn spell(
    rows: &[Vec<String>],
    shape: Shape,
    noise: &mut Noise<'_>,
    escaped: &mut Vec<bool>,
) -> String {
    let mut out = String::new();
    noise.ws(&mut out);
    if matches!(shape, Shape::TopArray) {
        out.push('[');
    } else {
        out.push('{');
    }
    noise.ws(&mut out);
    match shape {
        Shape::EscapedKey => out.push_str("\"\\u0072ows\""),
        Shape::UnknownKey => out.push_str("\"row\""),
        Shape::MissingKey => {
            out.push('}');
            return out;
        }
        _ => out.push_str("\"rows\""),
    }
    noise.ws(&mut out);
    out.push(':');
    noise.ws(&mut out);
    if matches!(shape, Shape::NullRows) {
        out.push_str("null");
    } else {
        out.push('[');
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            noise.ws(&mut out);
            if i == 0 && matches!(shape, Shape::FlatRow) {
                out.push_str("\"flat\"");
                continue;
            }
            out.push('[');
            for (j, field) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                noise.ws(&mut out);
                match shape {
                    Shape::NumberLabel if j == 0 => out.push('1'),
                    Shape::NullLabel if j == 0 => out.push_str("null"),
                    _ => escaped.push(noise.string(&mut out, field)),
                }
                noise.ws(&mut out);
            }
            out.push(']');
            noise.ws(&mut out);
        }
        if matches!(shape, Shape::TrailingComma) {
            out.push(',');
        }
        out.push(']');
    }
    noise.ws(&mut out);
    match shape {
        Shape::ExtraKey => out.push_str(",\"x\":1"),
        Shape::DuplicateKey => out.push_str(",\"rows\":[]"),
        _ => {}
    }
    out.push(if matches!(shape, Shape::TopArray) {
        ']'
    } else {
        '}'
    });
    noise.ws(&mut out);
    if matches!(shape, Shape::TrailingBytes) {
        out.push_str("{}");
    }
    out
}

/// The same verdict, rows and message on both decodes.
fn same_verdict(body: &str) {
    assert_eq!(table(body), tree(body), "body {body:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_bodies_decode_to_their_rows_borrowing_plain_labels(rows in rows()) {
        let body = IngestRequest { rows: rows.clone() }.encode();
        let decoded = LabelRows::decode(&body).unwrap();
        prop_assert_eq!(decoded.to_rows(), rows.clone());
        prop_assert_eq!(IngestRequest::parse(&body).unwrap().rows, rows.clone());
        for (got, want) in decoded.iter().zip(&rows) {
            for (field, label) in got.iter().zip(want) {
                prop_assert_eq!(
                    matches!(field, Cow::Borrowed(_)),
                    !needs_escape(label),
                    "label {:?}",
                    label
                );
            }
        }
    }

    #[test]
    fn the_writer_matches_the_request_encoder(rows in rows()) {
        let table = LabelRows::borrowing(&rows);
        prop_assert_eq!(encode_rows(table.iter()), IngestRequest { rows: rows.clone() }.encode());
        let body = encode_rows(rows.iter().map(Vec::as_slice));
        prop_assert_eq!(encode_rows(LabelRows::decode(&body).unwrap().iter()), body);
    }

    #[test]
    fn respelled_and_misshapen_bodies_get_the_tree_decodes_verdict(
        rows in rows(),
        shape in 0..SHAPES.len(),
        choices in collection::vec(0u8..=255, 1..64),
    ) {
        let mut noise = Noise { choices: &choices, at: 0 };
        let shape = SHAPES[shape];
        let mut escaped = Vec::new();
        let body = spell(&rows, shape, &mut noise, &mut escaped);
        same_verdict(&body);
        let refused = match shape {
            Shape::Valid | Shape::EscapedKey => false,
            Shape::FlatRow => !rows.is_empty(),
            Shape::NumberLabel | Shape::NullLabel => rows.iter().any(|r| !r.is_empty()),
            _ => true,
        };
        if refused {
            prop_assert!(table(&body).is_err(), "accepted {:?}", body);
        } else {
            prop_assert_eq!(table(&body), Ok(rows.clone()));
            // The one pass took the body: exactly the labels spelled
            // without an escape are borrowed.
            let decoded = LabelRows::decode(&body).unwrap();
            let borrowed: Vec<bool> = decoded
                .iter()
                .flatten()
                .map(|f| matches!(f, Cow::Borrowed(_)))
                .collect();
            let unescaped: Vec<bool> = escaped.iter().map(|e| !e).collect();
            prop_assert_eq!(borrowed, unescaped, "body {:?}", body);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_truncation_and_bit_flip_gets_the_tree_decodes_verdict(rows in rows()) {
        let body = IngestRequest { rows }.encode();
        for end in 0..body.len() {
            if let Some(prefix) = body.get(..end) {
                same_verdict(prefix);
            }
        }
        for at in 0..body.len() {
            for bit in 0..8 {
                let mut bytes = body.clone().into_bytes();
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
                // A body that is not UTF-8 never reaches a decoder: the
                // HTTP layer refuses it first.
                if let Ok(flipped) = String::from_utf8(bytes) {
                    same_verdict(&flipped);
                }
            }
        }
    }
}

/// The batch perfbench and the paper-scale ingest post: 2 048 rows of
/// 37 escape-free labels. Every label of the table is the body's own
/// bytes, so decoding allocates the table's two vectors (grown by
/// doubling: O(log rows) allocations) and no string per field.
#[test]
fn a_plain_batch_borrows_every_label_from_the_body() {
    let rows: Vec<Vec<String>> = (0..2048)
        .map(|r| {
            (0..37)
                .map(|a| format!("a{a}_v{}", (r * 7 + a) % 11))
                .collect()
        })
        .collect();
    let body = IngestRequest { rows: rows.clone() }.encode();
    let decoded = LabelRows::decode(&body).unwrap();
    assert_eq!(decoded.len(), 2048);
    let span = body.as_bytes().as_ptr_range();
    let mut fields = 0;
    for row in decoded.iter() {
        for field in row {
            let Cow::Borrowed(label) = field else {
                panic!("label {field:?} was copied");
            };
            assert!(
                span.contains(&label.as_ptr()),
                "label {label:?} is not in the body"
            );
            fields += 1;
        }
    }
    assert_eq!(fields, 2048 * 37);
    assert_eq!(decoded.to_rows(), rows);
}
