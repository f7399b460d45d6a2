//! `unused-suppression`: an `// om-lint: allow(<check>)` whose target
//! line no longer triggers that check is itself a finding.
//!
//! Suppressions are point-in-time waivers; when the code under one is
//! fixed or refactored, the stale comment silently licenses the next
//! regression. This pass runs in the driver *before* suppressions are
//! applied: it sees every raw finding, so "the next code line no longer
//! triggers `<check>`" is a plain set lookup. Only names of real
//! catalog checks are considered — unknown names are already flagged by
//! suppression hygiene, and hygiene's own findings (`suppression`)
//! anchor to comment lines, not code lines, so they are skipped too.

use crate::{Finding, Workspace};

pub const NAME: &str = "unused-suppression";
pub const DESCRIPTION: &str =
    "every om-lint allow() still silences a live finding on its target line";

/// Run against the raw (pre-suppression) findings of every real check.
pub(crate) fn run(ws: &Workspace, raw: &[Finding]) -> Vec<Finding> {
    let known: Vec<&'static str> = super::all().iter().map(|c| c.name()).collect();
    let mut out = Vec::new();
    for src in &ws.sources {
        for sup in &src.info.suppressions {
            for check in &sup.checks {
                if !known.contains(&check.as_str()) {
                    continue;
                }
                let still_fires = raw
                    .iter()
                    .any(|f| f.check == *check && f.file == src.rel && f.line == sup.applies_line);
                if !still_fires {
                    out.push(Finding::new(
                        NAME,
                        &src.rel,
                        sup.comment_line,
                        format!(
                            "allow({check}) no longer silences anything — line {} does not \
                             trigger `{check}`; delete the stale suppression",
                            sup.applies_line
                        ),
                    ));
                }
            }
        }
    }
    out
}
