//! The check framework and the six repo-specific checks.
//!
//! A check is a pure function of the loaded [`Workspace`]; per-file
//! checks iterate `ws.sources`, workspace-wide checks correlate across
//! files, manifests and docs. Findings carry the check's kebab-case
//! name, which is also the suppression key.

mod budget_coverage;
mod envelope;
mod lock_across_io;
mod lock_order_interproc;
mod metrics;
mod panic_path;
pub(crate) mod unused_suppression;

use crate::{Finding, Workspace};

/// One named invariant over the workspace.
pub trait Check {
    /// Kebab-case name; used in output and `allow(...)` suppressions.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` style output and docs.
    fn description(&self) -> &'static str;
    /// Produce findings (suppressions are applied by the driver).
    fn run(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Every check, in catalog order.
#[must_use]
pub fn all() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(panic_path::PanicPath),
        Box::new(metrics::MetricsRegistered),
        Box::new(envelope::EnvelopeCodes),
        Box::new(lock_across_io::LockAcrossIo),
        Box::new(lock_order_interproc::LockOrderInterproc),
        Box::new(budget_coverage::BudgetCoverage),
    ]
}

/// Driver-level passes that are not [`Check`] impls but still produce
/// suppressible findings: suppression hygiene and the stale-suppression
/// scan (which needs the raw findings of every other check, so it runs
/// in `Workspace::run_checks`). `(name, description)` pairs, for the
/// `checks` listing and the known-name validation.
#[must_use]
pub fn driver_passes() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "suppression",
            "every om-lint allow() carries a reason and names a known check",
        ),
        (unused_suppression::NAME, unused_suppression::DESCRIPTION),
    ]
}

/// Extract `om_*` metric-looking names from a chunk of text. Real
/// metric names have at least two underscores in total
/// (`om_requests_total`, `om_queue_depth`), which filters out crate
/// idents like `om_compare`. Names immediately followed by `::` are
/// Rust paths, not metrics.
pub(crate) fn metric_names(text: &str) -> Vec<(String, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("om_") {
        let start = i + at;
        // Must not be the tail of a longer identifier.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            i = start + 3;
            continue;
        }
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let name = &text[start..end];
        let followed_by_path = text[end..].starts_with("::");
        if name.matches('_').count() >= 2 && !followed_by_path {
            out.push((name.to_owned(), start));
        }
        i = end.max(start + 3);
    }
    out
}

/// 1-based line of byte `offset` in `text`.
pub(crate) fn line_of_offset(text: &str, offset: usize) -> u32 {
    u32::try_from(
        text[..offset.min(text.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count(),
    )
    .unwrap_or(u32::MAX - 1)
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_extraction() {
        let names: Vec<String> = metric_names(
            "om_requests_total{endpoint=\"x\"} plus om_compare::drill and om_queue_depth, om_ingest",
        )
        .into_iter()
        .map(|(n, _)| n)
        .collect();
        assert_eq!(names, vec!["om_requests_total", "om_queue_depth"]);
    }

    #[test]
    fn offsets_to_lines() {
        let text = "a\nbb\nccc";
        assert_eq!(line_of_offset(text, 0), 1);
        assert_eq!(line_of_offset(text, 2), 2);
        assert_eq!(line_of_offset(text, 6), 3);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        names.extend(driver_passes().iter().map(|(n, _)| *n));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, 8, "6 catalog checks + 2 driver passes");
    }
}
