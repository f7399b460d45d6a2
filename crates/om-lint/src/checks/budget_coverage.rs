//! `budget-coverage`: every loop on the request path must poll a
//! `Budget` or failpoint seam — the "never an unbounded scan" contract.
//!
//! Roots are the `/v1` handler functions ([`crate::CheckConfig::handler_files`])
//! and every `EngineOps` method (both backends implement the trait, so
//! trait membership is the reachability anchor). Any function reachable
//! from a root over the call graph is on the request path; inside those
//! functions, in the crates named by
//! [`crate::CheckConfig::budget_scopes`], a loop must poll when it can
//! run long:
//!
//! - a loop whose range reaches **blocking** work (intrinsic or through
//!   a callee) must poll — it waits on the outside world;
//! - a bare `loop` whose range makes any resolved workspace call must
//!   poll — it only exits via `break`, so composed work inside it has
//!   no structural bound at all;
//! - `for` and `while` loops with no blocking reach are exempt: they
//!   walk a condition toward a bound doing CPU work (bit scans, varint
//!   decodes, two-pointer merges), which the deadline check at the next
//!   poll site upstream already bounds.
//!
//! For `for` loops the head is excluded from the scan (its iterator
//! expression is evaluated once); `while`/`loop` heads are re-evaluated
//! every iteration and count.

use super::Check;
use crate::scan::LoopKind;
use crate::{Finding, Workspace};

pub struct BudgetCoverage;

impl Check for BudgetCoverage {
    fn name(&self) -> &'static str {
        "budget-coverage"
    }

    fn description(&self) -> &'static str {
        "loops reachable from /v1 handlers or EngineOps methods poll a Budget/failpoint seam"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let a = ws.analysis();
        let roots: Vec<usize> = a
            .graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.trait_impl.as_deref() == Some("EngineOps")
                    || ws
                        .config
                        .handler_files
                        .iter()
                        .any(|h| ws.sources[n.file].rel == *h)
            })
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            return Vec::new();
        }
        let reachable = a.graph.reachable(&roots);

        let mut out = Vec::new();
        for &n in &reachable {
            let node = &a.graph.nodes[n];
            let src = &ws.sources[node.file];
            if !ws
                .config
                .budget_scopes
                .iter()
                .any(|p| src.rel.starts_with(p))
            {
                continue;
            }
            for lp in &src.info.loops {
                // Innermost-fn attribution: the loop belongs to us only
                // if no nested fn owns it.
                if !(node.body.0 < lp.body.0 && lp.body.1 < node.body.1)
                    || a.graph.fn_at(node.file, lp.body.0) != Some(n)
                {
                    continue;
                }
                let range = match lp.kind {
                    LoopKind::For => (lp.body.0, lp.body.1),
                    LoopKind::While | LoopKind::Loop => (lp.kw, lp.body.1),
                };
                if a.range_polls(n, range) {
                    continue;
                }
                let blocking = a.first_blocking_in(n, range);
                let composed = lp.kind == LoopKind::Loop && a.range_has_call(n, range);
                if let Some((_, witness)) = blocking {
                    out.push(Finding::new(
                        self.name(),
                        &src.rel,
                        lp.line,
                        format!(
                            "loop in request-path fn `{}` reaches blocking work ({witness}) \
                             without polling a Budget or failpoint seam",
                            node.name
                        ),
                    ));
                } else if composed {
                    out.push(Finding::new(
                        self.name(),
                        &src.rel,
                        lp.line,
                        format!(
                            "bare loop in request-path fn `{}` does composed work without \
                             polling a Budget or failpoint seam; add budget.check() or a \
                             fail::inject(Seam::..) to bound it",
                            node.name
                        ),
                    ));
                }
            }
        }
        out
    }
}
