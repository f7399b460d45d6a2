//! The check framework and the three interprocedural checks.
//!
//! A check is a pure function of the loaded [`Workspace`]; all three
//! read the call graph and effect summaries it builds once
//! ([`Workspace::analysis`]). Findings carry the check's kebab-case
//! name, which is also the suppression key.

mod budget_coverage;
mod lock_across_io;
mod lock_order_interproc;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        names.extend(driver_passes().iter().map(|(n, _)| *n));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, 5, "3 catalog checks + 2 driver passes");
    }
}
