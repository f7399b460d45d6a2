//! `lock-order-interproc`: inconsistent lock acquisition order across
//! call chains — the interprocedural deadlock detector.
//!
//! Supersedes the old per-function `lock-order` sequence heuristic.
//! Edges now come from the effect analysis: while a guard for declared
//! lock `A` is *live* (liveness-tracked, not just textually earlier),
//! acquiring declared lock `B` — directly or by calling any function
//! whose summary says it may acquire `B` — adds `A → B`. A cycle in
//! that graph means two code paths can interleave into a deadlock even
//! when the two acquisitions never appear in one function. Acquiring a
//! lock that is already held (an `A → A` edge) is reported immediately:
//! `std::sync::Mutex` self-deadlocks on re-entry.

use std::collections::{BTreeMap, BTreeSet};

use crate::checks::Check;
use crate::{Finding, Workspace};

pub struct LockOrderInterproc;

const NAME: &str = "lock-order-interproc";

impl Check for LockOrderInterproc {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "lock acquisition order is consistent across call chains (no cycles, no re-entry)"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let a = ws.analysis();
        // edge (A, B) -> witness site "file:line (fn name)".
        let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
        let mut out = Vec::new();
        for (n, fx) in a.locals.iter().enumerate() {
            let node = &a.graph.nodes[n];
            let rel = &ws.sources[node.file].rel;
            for acq in &fx.acqs {
                let Some(held) = &acq.lock else { continue };
                let range = (acq.tok + 1, acq.live.1);
                let in_range = |k: usize| k >= range.0 && k <= range.1;
                // Direct nested acquisitions while `held` is live.
                for other in &fx.acqs {
                    let Some(inner) = &other.lock else { continue };
                    if !in_range(other.tok) {
                        continue;
                    }
                    if inner == held {
                        out.push(Finding::new(
                            NAME,
                            rel,
                            other.line,
                            format!(
                                "lock `{held}` re-acquired while its guard from line {} \
                                 is still live — std mutexes self-deadlock on re-entry",
                                acq.line
                            ),
                        ));
                    } else {
                        edges
                            .entry((held.clone(), inner.clone()))
                            .or_insert_with(|| format!("{rel}:{} (fn {})", other.line, node.name));
                    }
                }
                // Acquisitions reached through calls made under the guard.
                for site in &a.graph.calls[n] {
                    if !in_range(site.tok) {
                        continue;
                    }
                    for &t in &site.targets {
                        for inner in a.summaries[t].acquires.keys() {
                            if inner == held {
                                out.push(Finding::new(
                                    NAME,
                                    rel,
                                    site.line,
                                    format!(
                                        "call to {} may re-acquire `{held}` while the guard \
                                         from line {} is still live — std mutexes \
                                         self-deadlock on re-entry",
                                        site.name, acq.line
                                    ),
                                ));
                            } else {
                                edges
                                    .entry((held.clone(), inner.clone()))
                                    .or_insert_with(|| {
                                        format!(
                                            "{rel}:{} (fn {}, via call to {})",
                                            site.line, node.name, site.name
                                        )
                                    });
                            }
                        }
                    }
                }
            }
        }

        // Pairwise (2-cycle) reports.
        let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
        for ((la, lb), site_ab) in &edges {
            let Some(site_ba) = edges.get(&(lb.clone(), la.clone())) else {
                continue;
            };
            let key = if la < lb {
                (la.clone(), lb.clone())
            } else {
                (lb.clone(), la.clone())
            };
            if !reported.insert(key) {
                continue;
            }
            let (file, line) = split_site(site_ab);
            out.push(Finding::new(
                NAME,
                &file,
                line,
                format!(
                    "inconsistent lock order: `{la}` then `{lb}` at {site_ab}, but \
                     `{lb}` then `{la}` at {site_ba} — opposite orders can deadlock"
                ),
            ));
        }
        out.extend(long_cycles(&edges, &reported));
        out
    }
}

fn split_site(site: &str) -> (String, u32) {
    let mut it = site.split(':');
    let file = it.next().unwrap_or("?").to_owned();
    let line = it
        .next()
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(1);
    (file, line)
}

/// Report one representative cycle of length ≥ 3 per strongly-connected
/// component not already covered by a pairwise report.
fn long_cycles(
    edges: &BTreeMap<(String, String), String>,
    reported_pairs: &BTreeSet<(String, String)>,
) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut out = Vec::new();
    let mut seen_cycle_nodes: BTreeSet<String> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        if seen_cycle_nodes.contains(start) {
            continue;
        }
        let mut on_path: Vec<&str> = Vec::new();
        if let Some(cycle) = dfs(start, &adj, &mut on_path) {
            if cycle.len() == 2 {
                continue; // covered by the pairwise pass
            }
            let covered = cycle.windows(2).any(|w| {
                let key = if w[0] < w[1] {
                    (w[0].clone(), w[1].clone())
                } else {
                    (w[1].clone(), w[0].clone())
                };
                reported_pairs.contains(&key)
            });
            if covered {
                continue;
            }
            for n in &cycle {
                seen_cycle_nodes.insert(n.clone());
            }
            let site = edges
                .get(&(cycle[0].clone(), cycle[1].clone()))
                .cloned()
                .unwrap_or_default();
            let (file, line) = split_site(&site);
            out.push(Finding::new(
                NAME,
                &file,
                line,
                format!(
                    "lock-order cycle {} — acquisition orders around this loop can deadlock \
                     (first edge at {site})",
                    cycle.join(" → "),
                ),
            ));
        }
    }
    out
}

/// DFS from `node`; returns the node list of the first cycle found.
fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    on_path: &mut Vec<&'a str>,
) -> Option<Vec<String>> {
    if let Some(pos) = on_path.iter().position(|n| *n == node) {
        return Some(on_path[pos..].iter().map(|s| (*s).to_owned()).collect());
    }
    if on_path.len() > 32 {
        return None; // pathological graphs: give up quietly
    }
    on_path.push(node);
    if let Some(nexts) = adj.get(node) {
        for next in nexts {
            if let Some(c) = dfs(next, adj, on_path) {
                on_path.pop();
                return Some(c);
            }
        }
    }
    on_path.pop();
    None
}
