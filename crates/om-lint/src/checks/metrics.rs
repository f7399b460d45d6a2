//! `metrics-registered`: the `/metrics` exposition, the docs, and the
//! tests must agree on the `om_*` counter set.
//!
//! The render set is every metric name appearing in a string literal of
//! the configured render files (the server `Metrics::render` and the
//! ingest stats exposition). Two invariants:
//!
//! 1. every metric referenced anywhere else — test assertions, docs —
//!    is actually rendered (no phantom counters), and
//! 2. every rendered metric is documented in `docs/` (no silent series).

use std::collections::BTreeMap;

use crate::checks::{line_of_offset, metric_names, Check};
use crate::lexer::TokKind;
use crate::{Finding, Workspace};

pub struct MetricsRegistered;

const NAME: &str = "metrics-registered";

impl Check for MetricsRegistered {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "every om_* metric referenced is rendered by /metrics, and every rendered one is documented"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        // name -> first (file, line) seen, for anchored findings.
        let mut rendered: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut referenced: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut documented: BTreeMap<String, (String, u32)> = BTreeMap::new();

        for src in &ws.sources {
            let is_render = ws.config.metrics_render_files.contains(&src.rel);
            for t in &src.info.code {
                if t.kind != TokKind::Str {
                    continue;
                }
                // `#[cfg(test)]` fixtures in library code (om-lint's own
                // check tests, most prominently) fabricate metric-shaped
                // strings; integration-test files (Role::Test) still
                // count, so chaos-suite assertions stay checked.
                if !is_render && src.info.in_test_region(t.line) {
                    continue;
                }
                for (name, _) in metric_names(&t.text) {
                    let slot = if is_render {
                        &mut rendered
                    } else {
                        &mut referenced
                    };
                    slot.entry(name)
                        .or_insert_with(|| (src.rel.clone(), t.line));
                }
            }
        }
        for doc in &ws.docs {
            for (name, off) in metric_names(&doc.text) {
                documented
                    .entry(name)
                    .or_insert_with(|| (doc.rel.clone(), line_of_offset(&doc.text, off)));
            }
        }

        let mut out = Vec::new();
        for (name, (file, line)) in referenced.iter().chain(documented.iter()) {
            if !rendered.contains_key(name) {
                out.push(Finding::new(
                    NAME,
                    file,
                    *line,
                    format!("metric {name:?} is referenced here but never rendered by /metrics"),
                ));
            }
        }
        for (name, (file, line)) in &rendered {
            if !documented.contains_key(name) {
                out.push(Finding::new(
                    NAME,
                    file,
                    *line,
                    format!("metric {name:?} is rendered by /metrics but not documented in docs/"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, CheckConfig, Role, SourceFile, TextFile};

    fn ws(render: &str, test: &str, doc: &str) -> Workspace {
        let mk = |rel: &str, text: &str, role| SourceFile {
            rel: rel.into(),
            role,
            info: scan::scan(&crate::lexer::lex(text)),
        };
        Workspace {
            root: std::path::PathBuf::new(),
            sources: vec![
                mk("crates/om-server/src/metrics.rs", render, Role::Src),
                mk("crates/om-server/tests/chaos.rs", test, Role::Test),
            ],
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
    fn agreement_is_clean() {
        let w = ws(
            r#"fn render() { out.push_str("om_shed_total 0"); }"#,
            r#"fn t() { assert!(text.contains("om_shed_total")); }"#,
            "`om_shed_total` counts sheds",
        );
        assert!(MetricsRegistered.run(&w).is_empty());
    }

    #[test]
    fn phantom_reference_is_flagged() {
        let w = ws(
            r#"fn render() { out.push_str("om_shed_total 0"); }"#,
            r#"fn t() { assert!(text.contains("om_shedd_total")); }"#,
            "`om_shed_total` and `om_shedd_total`",
        );
        let f = MetricsRegistered.run(&w);
        assert!(f.iter().any(|f| f.message.contains("om_shedd_total")));
    }

    #[test]
    fn undocumented_render_is_flagged() {
        let w = ws(
            r#"fn render() { out.push_str("om_secret_total 0"); }"#,
            "",
            "nothing here",
        );
        let f = MetricsRegistered.run(&w);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not documented"));
    }
}
