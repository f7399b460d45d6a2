//! Lightweight structure recovery over the token stream: `#[cfg(test)]`
//! regions, function spans, loops, and `om-lint` suppression comments.
//! No AST — brace matching and local patterns only, which is robust to
//! everything the checks need.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};

/// A function item: name plus the token range and line range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token indices (into the *code* token vec) of the body, braces included.
    pub body: (usize, usize),
    pub start_line: u32,
    /// Self type of the enclosing `impl`/`trait` block, if any: the last
    /// path segment (`EngineBackend` for `impl EngineOps for
    /// EngineBackend<'_>`). `None` for free functions.
    pub owner: Option<String>,
    /// Trait being implemented (or declared) by the enclosing block:
    /// `Some("EngineOps")` inside `impl EngineOps for X` and inside
    /// `trait EngineOps { ... }`; `None` for inherent impls and free fns.
    pub trait_impl: Option<String>,
}

/// What kind of loop a [`LoopSpan`] is — budget-coverage treats `for`
/// heads (evaluated once) differently from `while`/`loop` heads
/// (re-evaluated every iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    For,
    While,
    Loop,
}

/// One loop in a function body: the keyword token, the head range, and
/// the braced body.
#[derive(Debug, Clone)]
pub struct LoopSpan {
    pub kind: LoopKind,
    /// Line of the loop keyword.
    pub line: u32,
    /// Code-token index of the `for`/`while`/`loop` keyword.
    pub kw: usize,
    /// Token indices of the body, braces included.
    pub body: (usize, usize),
}

/// One suppression comment: `// om-lint: allow(check[, check]) — reason`.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub checks: Vec<String>,
    pub reason: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// First code line at or after the comment — the line it silences.
    pub applies_line: u32,
}

/// Everything the checks want to know about one file beyond raw tokens.
#[derive(Debug, Default)]
pub struct ScanInfo {
    /// Code tokens only (trivia stripped); checks index into this.
    pub code: Vec<Tok>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// All function items, outermost first.
    pub fns: Vec<FnSpan>,
    /// Every `for`/`while`/`loop` in the file, in token order.
    pub loops: Vec<LoopSpan>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// check name -> suppressed lines.
    suppressed_lines: BTreeMap<String, Vec<u32>>,
}

impl ScanInfo {
    /// Is `line` inside a `#[cfg(test)]` item?
    #[must_use]
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Is a finding of `check` at `line` silenced by a suppression?
    #[must_use]
    pub fn is_suppressed(&self, check: &str, line: u32) -> bool {
        self.suppressed_lines
            .get(check)
            .is_some_and(|lines| lines.contains(&line))
    }
}

/// Build [`ScanInfo`] from the full (trivia-included) token stream.
#[must_use]
pub fn scan(all_toks: &[Tok]) -> ScanInfo {
    let mut info = ScanInfo {
        code: all_toks
            .iter()
            .filter(|t| !t.is_trivia())
            .cloned()
            .collect(),
        ..ScanInfo::default()
    };
    find_test_regions(&mut info);
    let owners = find_owner_regions(&info.code);
    find_fns(&mut info, &owners);
    find_loops(&mut info);
    find_suppressions(all_toks, &mut info);
    info
}

/// An `impl`/`trait` block: body token range plus the names that fns
/// inside it inherit.
struct OwnerRegion {
    body: (usize, usize),
    owner: String,
    trait_impl: Option<String>,
}

/// Skip a balanced `<...>` generic-argument group starting at `i`
/// (which must point at `<`); returns the index just past the matching
/// `>`. `->` inside the group is tolerated by clamping depth at zero.
fn skip_generics(code: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < code.len() {
        if code[j].is_punct('<') {
            depth += 1;
        } else if code[j].is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if code[j].is_punct('{') || code[j].is_punct(';') {
            return j; // malformed header: bail before item structure
        }
        j += 1;
    }
    j
}

/// Parse a type path starting at `i`, returning the last path-segment
/// ident and the index just past the path (generics skipped). Leading
/// `&`, lifetimes, `dyn` and `mut` are skipped.
fn parse_type_path(code: &[Tok], mut i: usize) -> (Option<String>, usize) {
    while i < code.len()
        && (code[i].is_punct('&')
            || code[i].kind == TokKind::Lifetime
            || code[i].is_ident("dyn")
            || code[i].is_ident("mut"))
    {
        i += 1;
    }
    let mut last = None;
    while i < code.len() {
        if code[i].kind == TokKind::Ident && !code[i].is_ident("for") && !code[i].is_ident("where")
        {
            last = Some(code[i].text.clone());
            i += 1;
            if i < code.len() && code[i].is_punct('<') {
                i = skip_generics(code, i);
            }
            // `::` continues the path; anything else ends it.
            if i + 1 < code.len() && code[i].is_punct(':') && code[i + 1].is_punct(':') {
                i += 2;
                continue;
            }
        }
        break;
    }
    (last, i)
}

/// Find every `impl`/`trait` block and the owner names it confers.
fn find_owner_regions(code: &[Tok]) -> Vec<OwnerRegion> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        if t.is_ident("impl") {
            let mut j = i + 1;
            if j < code.len() && code[j].is_punct('<') {
                j = skip_generics(code, j);
            }
            let (first, after) = parse_type_path(code, j);
            let (owner, trait_impl) = if code.get(after).is_some_and(|t| t.is_ident("for")) {
                let (second, _) = parse_type_path(code, after + 1);
                (second, first)
            } else {
                (first, None)
            };
            if let Some(owner) = owner {
                if let Some((open, true)) = find_body_open(code, i + 1) {
                    let close = match_braces(code, open);
                    regions.push(OwnerRegion {
                        body: (open, close),
                        owner,
                        trait_impl,
                    });
                    i += 1;
                    continue;
                }
            }
        } else if t.is_ident("trait") && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let name = code[i + 1].text.clone();
            if let Some((open, true)) = find_body_open(code, i + 2) {
                let close = match_braces(code, open);
                regions.push(OwnerRegion {
                    body: (open, close),
                    owner: name.clone(),
                    trait_impl: Some(name),
                });
                i += 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Record every `for`/`while`/`loop` with a braced body. `for` is only
/// a loop when an `in` appears between the keyword and the body at
/// paren/bracket depth zero — `impl X for Y` and `for<'a>` bounds have
/// none.
fn find_loops(info: &mut ScanInfo) {
    let code = &info.code;
    let mut loops = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let kind = if t.is_ident("for") {
            LoopKind::For
        } else if t.is_ident("while") {
            LoopKind::While
        } else if t.is_ident("loop") {
            LoopKind::Loop
        } else {
            continue;
        };
        // Find the body `{` at paren/bracket depth 0. Angle brackets are
        // ignored (comparison operators make them unmatchable).
        let mut depth = 0i64;
        let mut open = None;
        let mut saw_in = false;
        for (j, u) in code.iter().enumerate().skip(i + 1) {
            if u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                depth -= 1;
            } else if depth == 0 {
                if u.is_punct('{') {
                    open = Some(j);
                    break;
                }
                if u.is_punct(';') || u.is_punct('}') {
                    break; // not a loop head after all
                }
                if u.is_ident("in") {
                    saw_in = true;
                }
            }
        }
        let Some(open) = open else { continue };
        if kind == LoopKind::For && !saw_in {
            continue;
        }
        let close = match_braces(code, open);
        loops.push(LoopSpan {
            kind,
            line: t.line,
            kw: i,
            body: (open, close),
        });
    }
    info.loops = loops;
}

/// Walk forward from `start` (an index into `code` pointing at `{`) to
/// its matching close brace; returns the index of the closing token.
pub(crate) fn match_braces(code: &[Tok], start: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in code.iter().enumerate().skip(start) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Index of the first `{` or terminating `;` at attribute depth zero,
/// starting from `from`. Skips `#[...]` attribute groups so brackets in
/// attribute arguments never look like item structure.
fn find_body_open(code: &[Tok], from: usize) -> Option<(usize, bool)> {
    let mut i = from;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('#') && code.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let mut depth = 0i64;
            i += 1;
            while i < code.len() {
                if code[i].is_punct('[') {
                    depth += 1;
                } else if code[i].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
        } else if t.is_punct('{') {
            return Some((i, true));
        } else if t.is_punct(';') {
            return Some((i, false));
        }
        i += 1;
    }
    None
}

/// Does the attribute group starting at `#` (index `hash`) mention
/// `test` inside a `cfg(...)`? Matches `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` and friends.
fn is_cfg_test_attr(code: &[Tok], hash: usize) -> Option<usize> {
    if !code.get(hash)?.is_punct('#') || !code.get(hash + 1)?.is_punct('[') {
        return None;
    }
    let mut depth = 0i64;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut i = hash + 1;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (saw_cfg && saw_test).then_some(i);
            }
        } else if t.is_ident("cfg") {
            saw_cfg = true;
        } else if t.is_ident("test") && saw_cfg {
            saw_test = true;
        }
        i += 1;
    }
    None
}

fn find_test_regions(info: &mut ScanInfo) {
    let code = &info.code;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(close) = is_cfg_test_attr(code, i) {
            // The attribute gates the next item; find its body.
            if let Some((open, is_brace)) = find_body_open(code, close + 1) {
                let end = if is_brace {
                    match_braces(code, open)
                } else {
                    open
                };
                regions.push((code[i].line, code[end].line));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    info.test_regions = regions;
}

fn find_fns(info: &mut ScanInfo, owners: &[OwnerRegion]) {
    let code = &info.code;
    let mut fns = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        if let Some((open, true)) = find_body_open(code, i + 2) {
            let close = match_braces(code, open);
            // Innermost enclosing impl/trait block, if any.
            let region = owners
                .iter()
                .filter(|r| r.body.0 < open && close <= r.body.1)
                .max_by_key(|r| r.body.0);
            fns.push(FnSpan {
                name: name.text.clone(),
                body: (open, close),
                start_line: t.line,
                owner: region.map(|r| r.owner.clone()),
                trait_impl: region.and_then(|r| r.trait_impl.clone()),
            });
        }
    }
    info.fns = fns;
}

/// Parse `om-lint: allow(...)` comments out of the trivia stream and map
/// each to the first code line at or after it.
fn find_suppressions(all_toks: &[Tok], info: &mut ScanInfo) {
    let code_lines: Vec<u32> = info.code.iter().map(|t| t.line).collect();
    for t in all_toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Doc comments never suppress — they describe the allow syntax
        // without invoking it.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(rest) = t.text.split("om-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            continue;
        };
        let args = args.trim_start();
        let Some(open) = args.strip_prefix('(') else {
            continue;
        };
        let Some(close_at) = open.find(')') else {
            continue;
        };
        let checks: Vec<String> = open[..close_at]
            .split(',')
            .map(|c| c.trim().to_owned())
            .filter(|c| !c.is_empty())
            .collect();
        // Everything after the closing paren, minus dash/colon
        // separators, is the mandatory reason.
        let reason = open[close_at + 1..]
            .trim_start_matches([' ', '\t'])
            .trim_start_matches(['—', '–', '-', ':'])
            .trim()
            .to_owned();
        let applies_line = code_lines
            .iter()
            .copied()
            .find(|&l| l >= t.line)
            .unwrap_or(t.line);
        for check in &checks {
            info.suppressed_lines
                .entry(check.clone())
                .or_default()
                .push(applies_line);
        }
        info.suppressions.push(Suppression {
            checks,
            reason,
            comment_line: t.line,
            applies_line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        let info = scan(&lex(src));
        assert_eq!(info.test_regions.len(), 1);
        assert!(info.in_test_region(4));
        assert!(!info.in_test_region(1));
    }

    #[test]
    fn suppression_maps_to_next_code_line() {
        let src = "// om-lint: allow(lock-across-io) — startup only\nlet x = v.unwrap();\n\
                   let y = w.unwrap(); // om-lint: allow(lock-across-io) — trailing\n";
        let info = scan(&lex(src));
        assert!(info.is_suppressed("lock-across-io", 2));
        assert!(info.is_suppressed("lock-across-io", 3));
        assert!(
            !info.is_suppressed("lock-across-io", 1)
                || info.code.first().map(|t| t.line) == Some(1)
        );
        assert_eq!(info.suppressions.len(), 2);
        assert_eq!(info.suppressions[0].reason, "startup only");
    }

    #[test]
    fn bare_suppression_has_empty_reason() {
        let src = "// om-lint: allow(lock-across-io)\nlet x = v.unwrap();\n";
        let info = scan(&lex(src));
        assert_eq!(info.suppressions.len(), 1);
        assert!(info.suppressions[0].reason.is_empty());
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "fn a() { inner(); }\nfn b() { let x = 1; }\n";
        let info = scan(&lex(src));
        assert_eq!(info.fns.len(), 2);
        assert_eq!(info.fns[0].name, "a");
        let (open, close) = info.fns[0].body;
        assert!(info.code[open].is_punct('{'));
        assert!(info.code[close].is_punct('}'));
    }
}
