//! `panic-path`: no panicking constructs on request-serving code.
//!
//! Scopes (configurable, see [`crate::CheckConfig::panic_scopes`]):
//! om-server request routing, om-api decode, om-ingest WAL replay, and
//! om-exec worker bodies. Inside those files — outside `#[cfg(test)]`
//! regions — the following are findings:
//!
//! - `.unwrap()` / `.expect(...)`
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//! - slice/array indexing `expr[...]` (except the infallible full-range
//!   `[..]`), the silent panic path the WAL replay bug class lives in
//!
//! Sites that are genuinely infallible by construction carry an
//! `om-lint: allow(panic-path) — <why>` suppression.

use crate::checks::Check;
use crate::lexer::TokKind;
use crate::{Finding, Role, Workspace};

pub struct PanicPath;

const NAME: &str = "panic-path";
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

impl Check for PanicPath {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/slice-index in request-path crates"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for src in &ws.sources {
            if src.role != Role::Src
                || !ws
                    .config
                    .panic_scopes
                    .iter()
                    .any(|s| src.rel.starts_with(s))
            {
                continue;
            }
            let code = &src.info.code;
            for (i, t) in code.iter().enumerate() {
                if src.info.in_test_region(t.line) {
                    continue;
                }
                match t.kind {
                    TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                        let method_call = i > 0
                            && code[i - 1].is_punct('.')
                            && code.get(i + 1).is_some_and(|n| n.is_punct('('));
                        if method_call {
                            out.push(Finding::new(
                                NAME,
                                &src.rel,
                                t.line,
                                format!(
                                    ".{}() on a request path; return a typed error \
                                     or annotate why it cannot fire",
                                    t.text
                                ),
                            ));
                        }
                    }
                    TokKind::Ident
                        if PANIC_MACROS.contains(&t.text.as_str())
                            && code.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
                    {
                        out.push(Finding::new(
                            NAME,
                            &src.rel,
                            t.line,
                            format!("{}! on a request path", t.text),
                        ));
                    }
                    TokKind::Punct if t.is_punct('[') => {
                        if let Some(f) = index_site(src, i) {
                            out.push(f);
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

/// Is the `[` at code index `i` an index expression that can panic?
fn index_site(src: &crate::SourceFile, i: usize) -> Option<Finding> {
    let code = &src.info.code;
    let prev = code.get(i.checked_sub(1)?)?;
    // Indexing follows a value: `ident[`, `)[`, `][`. Anything else
    // (`= [`, `: [`, `&[`, `#[`) is a literal, a type, or an attribute.
    let follows_value = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
        || prev.is_punct(')')
        || prev.is_punct(']');
    if !follows_value {
        return None;
    }
    // `[..]` — taking a full-range slice never panics.
    if code.get(i + 1).is_some_and(|a| a.is_punct('.'))
        && code.get(i + 2).is_some_and(|b| b.is_punct('.'))
        && code.get(i + 3).is_some_and(|c| c.is_punct(']'))
    {
        return None;
    }
    Some(Finding::new(
        NAME,
        &src.rel,
        code[i].line,
        "slice/array index on a request path can panic; use .get(..) \
         or annotate the bound invariant",
    ))
}

/// Keywords that can directly precede `[` without being an indexable
/// value (`return [..]`, `in [..]`, `else [` never happens, but be safe).
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "return"
            | "in"
            | "if"
            | "else"
            | "match"
            | "break"
            | "continue"
            | "await"
            | "move"
            | "mut"
            | "ref"
            | "as"
            | "where"
            | "let"
            | "for"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, CheckConfig, SourceFile};

    fn src_file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.into(),
            role: Role::Src,
            info: scan::scan(&crate::lexer::lex(text)),
        }
    }

    fn run_on(rel: &str, text: &str) -> Vec<Finding> {
        let ws = Workspace {
            root: std::path::PathBuf::new(),
            sources: vec![src_file(rel, text)],
            manifests: vec![],
            config: CheckConfig::default(),
            analysis: std::sync::OnceLock::new(),
        };
        PanicPath.run(&ws)
    }

    #[test]
    fn flags_unwrap_in_scope() {
        let f = run_on(
            "crates/om-server/src/router.rs",
            "fn handle() { let x = q.unwrap(); }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unwrap"));
    }

    #[test]
    fn ignores_out_of_scope_and_tests() {
        assert!(run_on("crates/om-compare/src/rank.rs", "fn f() { x.unwrap(); }").is_empty());
        let f = run_on(
            "crates/om-server/src/router.rs",
            "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn flags_indexing_but_not_full_range_or_literals() {
        let f = run_on(
            "crates/om-api/src/wire.rs",
            "fn f(b: &[u8]) { let x = b[0]; let all = &b[..]; let arr = [0u8; 4]; }\n\
             impl W for [u64; 2] {}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("index"));
    }

    #[test]
    fn flags_panic_macros() {
        let f = run_on(
            "crates/om-exec/src/pool.rs",
            "fn f() { unreachable!(\"no\"); }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn expect_as_parser_method_name_is_still_flagged_only_as_method_call() {
        // `self.expect(b'[')` is a method *call* — flagged; a bare path
        // `Parser::expect` as a definition is not.
        let f = run_on(
            "crates/om-api/src/json.rs",
            "impl P { fn expect_byte(&mut self, b: u8) {} }\nfn f(p: &mut P) { p.expect_byte(b'x'); }",
        );
        assert!(f.is_empty());
    }
}
