//! Machine-readable findings output: a hand-rolled JSON emitter (the
//! workspace vendors no serde), stable field order, findings pre-sorted
//! by the caller. CI archives this as `target/om-lint.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Finding;

/// Render the findings report:
/// `{"version":1,"findings":[...],"counts":{"<check>":n}}`.
#[must_use]
pub fn render(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(&f.check).or_default() += 1;
    }
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"check\":{},\"message\":{}}}",
            escape(&f.file),
            f.line,
            escape(&f.check),
            escape(&f.message),
        );
    }
    out.push_str("],\"counts\":{");
    for (i, (check, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{n}", escape(check));
    }
    out.push_str("}}");
    out.push('\n');
    out
}

/// JSON string literal, quotes included.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report() {
        assert_eq!(
            render(&[]),
            "{\"version\":1,\"findings\":[],\"counts\":{}}\n"
        );
    }

    #[test]
    fn findings_and_counts() {
        let fs = vec![
            Finding::new("lock-across-io", "a.rs", 3, "x"),
            Finding::new("lock-across-io", "b.rs", 7, "y"),
            Finding::new("unused-suppression", "c.rs", 1, "z"),
        ];
        let json = render(&fs);
        assert!(json.contains("\"counts\":{\"lock-across-io\":2,\"unused-suppression\":1}"));
        assert!(json.contains("\"file\":\"a.rs\",\"line\":3"));
    }

    #[test]
    fn strings_are_escaped() {
        let f = Finding::new("c", "a.rs", 1, "say \"hi\"\nback\\slash");
        let json = render(&[f]);
        assert!(json.contains(r#""say \"hi\"\nback\\slash""#));
    }
}
