//! A tiny JSON value type with a strict parser and a writer with one
//! fixed formatting — the wire format of every `/v1` body:
//! finite floats render via Rust's shortest round-trip `Display`,
//! non-finite floats render as `null`, and strings escape `"`, `\`,
//! `\n`, `\r`, `\t` plus all other control characters as `\u00XX`.
//!
//! Objects preserve insertion order, so encode(decode(s)) reproduces a
//! canonically-encoded document byte for byte.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

use crate::wire::Wire;

/// Maximum nesting depth the parser accepts (arrays + objects).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are held as `f64`; integers are exact up to
    /// 2^53, which comfortably covers every count this API carries.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (duplicates rejected by the
    /// parser).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte position plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Escape a string for a JSON string literal: `"`, `\`, `\n`, `\r`,
/// `\t` by name, every other control character as `\u00XX`.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `s` as a JSON string literal.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Format a float for the wire: shortest round-trip representation,
/// `null` for non-finite values (JSON has no NaN/Inf).
#[must_use]
pub fn num(x: f64) -> String {
    let mut out = String::new();
    x.write(&mut out);
    out
}

impl Json {
    /// Strict parse: one value, nothing but whitespace after it.
    ///
    /// # Errors
    /// [`JsonError`] with the byte position of the first offense.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if !p.at_end() {
            return Err(p.err("trailing content after the JSON value"));
        }
        Ok(value)
    }

    /// Serialize canonically (insertion order, [`num`] float formatting)
    /// with the writer every wire type uses.
    #[must_use]
    pub fn encode(&self) -> String {
        crate::wire::encode(self)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, with `null` reading as NaN (the encoding of a
    /// non-finite float).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// A non-negative integer that survived the f64 round trip exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Whether every byte of the input has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    pub(crate) fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.list(|p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// An array `[item, ...]`, each element read by `item`: the one
    /// array grammar of the tree parse and the ingest table.
    pub(crate) fn list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_byte(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A string literal, borrowed from the input when it holds no
    /// escape and decoded into an owned copy when it does.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_byte(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // A run of bytes that stand for themselves. The input is a
            // `str` and every byte that ends a run is ASCII, so the run
            // is whole characters.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    })
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    let Some(escaped) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    };
                    out.push(c);
                }
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // \uXXXX with a low surrogate.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut value = 0u32;
        for &b in slice {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("malformed number bytes"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparsable number {text:?}")))?;
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1.5",
            "1e3",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            let enc = v.encode();
            assert_eq!(Json::parse(&enc).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.encode(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn floats_format_shortest_round_trip_or_null() {
        assert_eq!(Json::Num(0.5).encode(), "0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
        assert_eq!(num(2.0), "2");
    }

    #[test]
    fn escapes_follow_the_wire_rules() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_owned());
        assert_eq!(v.encode(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn unicode_and_surrogates_parse() {
        assert_eq!(
            Json::parse("\"\\u00e9 caf\u{e9} \\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{e9} caf\u{e9} \u{1f600}".to_owned())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn strictness() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("nul").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let e = Json::parse("{\"a\" 1}").unwrap_err();
        assert_eq!(e.pos, 5);
        assert!(e.to_string().contains("byte 5"));
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"nil\":null}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("nil").unwrap().as_f64().unwrap().is_nan());
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
