//! A hand-rolled Rust lexer: just enough tokenization for lint checks.
//!
//! Emits a flat token stream with line numbers. Comments are kept as
//! trivia tokens (suppression comments live there); checks that only
//! care about code filter them out with [`Tok::is_trivia`]. The lexer
//! understands the lexical shapes that would otherwise corrupt a naive
//! scan: nested block comments, raw strings with hash fences, byte
//! strings, char literals vs lifetimes. It does not parse — item
//! structure is recovered by `scan`.

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// `'a` lifetime (not a char literal).
    Lifetime,
    /// Numeric literal (integer or float; exponent signs split off).
    Num,
    /// String literal; `text` is the *inner* content, quotes stripped.
    Str,
    /// Char or byte literal, content stripped.
    Char,
    /// Single punctuation character; `text` is that character.
    Punct,
    /// `//`-style comment, including `///` and `//!`; text keeps the slashes.
    LineComment,
    /// `/* */` comment (nesting handled); text keeps the delimiters.
    BlockComment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Comments carry no code.
    #[must_use]
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Is this punctuation token exactly `c`?
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Is this an identifier token spelling `word`?
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }
}

/// Lex `source` into a token stream. Never fails: unterminated
/// constructs consume to end-of-file, which is good enough for linting
/// (rustc will reject such files anyway).
#[must_use]
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(b) = self.peek(0) {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'"' => self.string(line),
                b'\'' => self.char_or_lifetime(line),
                b'0'..=b'9' => self.number(line),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(line),
                _ => {
                    self.bump();
                    // Multi-byte UTF-8: swallow continuation bytes into
                    // one punct token (em dashes in comments never reach
                    // here, but string-adjacent unicode punctuation can).
                    let start = self.pos - 1;
                    while self.peek(0).is_some_and(|n| n & 0b1100_0000 == 0b1000_0000) {
                        self.bump();
                    }
                    let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.push(TokKind::Punct, text, line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokKind::BlockComment, text, line);
    }

    /// Ordinary (or byte) string starting at the opening quote.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.push(TokKind::Str, text, line);
    }

    /// Raw string starting at the first `#` or `"` after `r`/`br`.
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let start = self.pos;
        let end;
        'outer: loop {
            match self.peek(0) {
                None => {
                    end = self.pos;
                    break;
                }
                Some(b'"') => {
                    for i in 0..hashes {
                        if self.peek(1 + i) != Some(b'#') {
                            self.bump();
                            continue 'outer;
                        }
                    }
                    end = self.pos;
                    self.bump(); // quote
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // 'x' or '\n' is a char literal; 'ident (no closing quote) is a
        // lifetime. Disambiguate by looking past the next character.
        let is_char = matches!(
            (self.peek(1), self.peek(2)),
            (Some(b'\\'), _) | (Some(_), Some(b'\''))
        );
        self.bump(); // the quote
        if is_char {
            let start = self.pos;
            while let Some(b) = self.peek(0) {
                match b {
                    b'\\' => {
                        self.bump();
                        self.bump();
                    }
                    b'\'' => break,
                    _ => {
                        self.bump();
                    }
                }
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.bump(); // closing quote
            self.push(TokKind::Char, text, line);
        } else {
            let start = self.pos;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.push(TokKind::Lifetime, text, line);
        }
    }

    fn number(&mut self, line: u32) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        // One fractional part, but never eat a `..` range operator.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokKind::Num, text, line);
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        // Raw / byte-string prefixes glue to the literal that follows.
        let next = self.peek(0);
        if (text == "r" || text == "br") && matches!(next, Some(b'"' | b'#')) {
            self.raw_string(line);
            return;
        }
        if text == "b" && next == Some(b'"') {
            self.string(line);
            return;
        }
        if text == "b" && next == Some(b'\'') {
            self.char_or_lifetime(line);
            return;
        }
        // `r#ident` raw identifiers: keep the word, drop the fence.
        if text == "r" && next == Some(b'#') {
            self.bump();
            self.ident(line);
            return;
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn basic_tokens() {
        let toks = kinds("fn main() { x.unwrap(); }");
        assert!(toks.contains(&(TokKind::Ident, "unwrap".into())));
        assert!(toks.contains(&(TokKind::Punct, "{".into())));
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "a.unwrap() \" // not a comment";"#);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("unwrap"));
        assert!(!toks.iter().any(|t| t.0 == TokKind::LineComment));
    }

    #[test]
    fn raw_strings_ignore_backslash_quote() {
        let toks = kinds(r###"let re = r"\d+\"; let after = 1;"###);
        assert!(toks.iter().any(|t| t.0 == TokKind::Str && t.1 == r"\d+\"));
        assert!(toks.iter().any(|t| t.1 == "after"));
    }

    #[test]
    fn hashed_raw_strings() {
        let toks = kinds(r####"let s = r#"say "hi" now"#; let t = 2;"####);
        assert!(toks
            .iter()
            .any(|t| t.0 == TokKind::Str && t.1 == r#"say "hi" now"#));
        assert!(toks.iter().any(|t| t.1 == "t"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks.iter().any(|t| t.0 == TokKind::Lifetime && t.1 == "a"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Char && t.1 == "x"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ let x = 1;");
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::BlockComment).count(),
            1
        );
        assert!(toks.iter().any(|t| t.1 == "x"));
    }

    #[test]
    fn ranges_do_not_merge_into_floats() {
        let toks = kinds("for i in 0..10 {}");
        assert!(toks.iter().any(|t| t.0 == TokKind::Num && t.1 == "0"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Num && t.1 == "10"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c");
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(2));
        assert_eq!(find("c"), Some(3));
    }
}
