//! `envelope-codes`: the `/v1` error-code vocabulary must agree between
//! `om_api::ErrorCode` and the table in `docs/api.md`.
//!
//! From the source file it recovers, lexically:
//! - `as_str`: `ErrorCode::Variant => "wire_code"` pairs,
//! - `http_status`: `ErrorCode::A | ErrorCode::B => NNN` arms,
//!
//! and from the doc, table rows of the form `| `code` | NNN | ... |`.
//! Findings: codes missing from the doc, codes documented but unknown,
//! and status numbers that disagree.

use std::collections::BTreeMap;

use crate::checks::Check;
use crate::lexer::TokKind;
use crate::{Finding, Workspace};

pub struct EnvelopeCodes;

const NAME: &str = "envelope-codes";

impl Check for EnvelopeCodes {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "om-api error codes and statuses match the table in docs/api.md"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let Some(src) = ws
            .sources
            .iter()
            .find(|s| s.rel == ws.config.envelope_source)
        else {
            return Vec::new(); // nothing to check in this tree
        };
        let code = &src.info.code;

        // Variant -> wire code, from the as_str body.
        let mut wire: BTreeMap<String, (String, u32)> = BTreeMap::new();
        if let Some(body) = fn_body(src, "as_str") {
            let mut i = body.0;
            while i + 4 <= body.1 {
                if code[i].is_ident("ErrorCode")
                    && code[i + 1].is_punct(':')
                    && code[i + 2].is_punct(':')
                    && code[i + 3].kind == TokKind::Ident
                {
                    // ... => "literal"
                    if let Some(lit) = code[i + 4..=body.1.min(i + 7)]
                        .iter()
                        .find(|t| t.kind == TokKind::Str)
                    {
                        wire.insert(
                            code[i + 3].text.clone(),
                            (lit.text.clone(), code[i + 3].line),
                        );
                    }
                    i += 4;
                } else {
                    i += 1;
                }
            }
        }

        // Wire code -> status, from the http_status body.
        let mut status: BTreeMap<String, u16> = BTreeMap::new();
        if let Some(body) = fn_body(src, "http_status") {
            let mut arm_variants: Vec<String> = Vec::new();
            let mut i = body.0;
            while i <= body.1 {
                if code[i].is_ident("ErrorCode")
                    && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && code.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    arm_variants.push(code[i + 3].text.clone());
                    i += 4;
                    continue;
                }
                if code[i].kind == TokKind::Num && !arm_variants.is_empty() {
                    if let Ok(n) = code[i].text.parse::<u16>() {
                        for v in arm_variants.drain(..) {
                            if let Some((w, _)) = wire.get(&v) {
                                status.insert(w.clone(), n);
                            }
                        }
                    }
                }
                i += 1;
            }
        }

        // Doc table rows.
        let mut documented: BTreeMap<String, (u16, u32)> = BTreeMap::new();
        let doc = ws.docs.iter().find(|d| d.rel == ws.config.envelope_doc);
        if let Some(doc) = doc {
            for (idx, line) in doc.text.lines().enumerate() {
                let Some((c, s)) = parse_table_row(line) else {
                    continue;
                };
                let line_no = u32::try_from(idx).unwrap_or(u32::MAX - 1) + 1;
                documented.insert(c, (s, line_no));
            }
        }

        let mut out = Vec::new();
        if wire.is_empty() {
            return out; // envelope source present but shape unrecognized: stay quiet
        }
        let doc_rel = doc.map_or(ws.config.envelope_doc.clone(), |d| d.rel.clone());
        for (variant, (w, line)) in &wire {
            match documented.get(w) {
                None => out.push(Finding::new(
                    NAME,
                    &src.rel,
                    *line,
                    format!(
                        "error code {w:?} (ErrorCode::{variant}) is not documented in the \
                         {doc_rel} code table"
                    ),
                )),
                Some((doc_status, doc_line)) => {
                    if let Some(code_status) = status.get(w) {
                        if code_status != doc_status {
                            out.push(Finding::new(
                                NAME,
                                &doc_rel,
                                *doc_line,
                                format!(
                                    "error code {w:?} documented as HTTP {doc_status} but \
                                     http_status() maps it to {code_status}"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        for (w, (_, doc_line)) in &documented {
            if !wire.values().any(|(code, _)| code == w) {
                out.push(Finding::new(
                    NAME,
                    &doc_rel,
                    *doc_line,
                    format!("documented error code {w:?} does not exist in om_api::ErrorCode"),
                ));
            }
        }
        out
    }
}

/// Token range (inclusive) of the body of `fn name` in this file.
fn fn_body(src: &crate::SourceFile, name: &str) -> Option<(usize, usize)> {
    src.info.fns.iter().find(|f| f.name == name).map(|f| f.body)
}

/// Parse `| `code` | 404 | ... |` into ("code", 404).
fn parse_table_row(line: &str) -> Option<(String, u16)> {
    let line = line.trim();
    if !line.starts_with('|') {
        return None;
    }
    let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
    if cells.len() < 2 {
        return None;
    }
    let code = cells[0].strip_prefix('`')?.strip_suffix('`')?;
    if code.is_empty() || !code.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
        return None;
    }
    let status: u16 = cells[1].parse().ok()?;
    Some((code.to_owned(), status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, CheckConfig, Role, SourceFile, TextFile};

    const SRC: &str = r#"
impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
        }
    }
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::Overloaded => 503,
        }
    }
}
"#;

    fn ws(doc: &str) -> Workspace {
        Workspace {
            root: std::path::PathBuf::new(),
            sources: vec![SourceFile {
                rel: "crates/om-api/src/error.rs".into(),
                role: Role::Src,
                info: scan::scan(&crate::lexer::lex(SRC)),
            }],
            manifests: vec![],
            docs: vec![TextFile {
                rel: "docs/api.md".into(),
                text: doc.into(),
            }],
            config: CheckConfig::default(),
            analysis: std::sync::OnceLock::new(),
        }
    }

    #[test]
    fn matching_table_is_clean() {
        let w = ws("| `bad_request` | 400 | x |\n| `overloaded` | 503 | y |\n");
        assert!(EnvelopeCodes.run(&w).is_empty());
    }

    #[test]
    fn missing_and_unknown_and_mismatch() {
        let w = ws("| `bad_request` | 418 | x |\n| `gone` | 410 | y |\n");
        let f = EnvelopeCodes.run(&w);
        assert!(
            f.iter().any(|f| f.message.contains("\"overloaded\"")),
            "{f:?}"
        );
        assert!(f.iter().any(|f| f.message.contains("\"gone\"")));
        assert!(f.iter().any(|f| f.message.contains("418")));
    }
}
