//! Workspace-wide call graph over the scanned token streams.
//!
//! Nodes are production functions (vendor trees, test files and
//! `#[cfg(test)]` regions excluded); edges come from name resolution
//! scoped by crate visibility (a caller in crate `C` can only reach
//! crates in `C`'s transitive `om-*` dependency closure, mined from the
//! `Cargo.toml` manifests) and by impl block (`self.m(...)` prefers
//! methods of the caller's own type; `Q::m(...)` prefers methods of
//! `Q`). Resolution is **conservative on ambiguity**: a method call
//! that several visible types implement gets an edge to every
//! candidate. Methods whose names shadow ubiquitous std APIs
//! ([`OPAQUE_METHODS`]: `get`, `insert`, `parse`, `lock`, ...) are
//! never resolved by bare name — a distinctive method name is the price
//! of interprocedural visibility, which is why e.g. `ShardClient`
//! exposes `call` rather than relying on `get`/`post` call sites
//! resolving. Calls through closures, function pointers and trait
//! objects whose concrete type never appears at the call site are
//! invisible (documented under-approximation in docs/lint.md).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::{Role, Workspace};

/// One production function in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into `ws.sources`.
    pub file: usize,
    /// Index into `sources[file].info.fns`.
    pub fn_idx: usize,
    /// Crate the file belongs to (`om-cluster`, ..., `root`).
    pub krate: String,
    pub name: String,
    /// Self type of the enclosing impl/trait block.
    pub owner: Option<String>,
    /// Trait implemented by the enclosing block.
    pub trait_impl: Option<String>,
    /// Body token range (braces included) into the file's code tokens.
    pub body: (usize, usize),
    pub line: u32,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Code-token index of the callee name.
    pub tok: usize,
    pub line: u32,
    pub name: String,
    /// Candidate callee nodes (every visible candidate on ambiguity).
    pub targets: Vec<usize>,
}

/// The workspace call graph: nodes plus per-node resolved call sites.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `calls[n]` = resolved call sites inside `nodes[n]`, token order.
    pub calls: Vec<Vec<CallSite>>,
}

/// Method names too generic to resolve by name: each shadows a std
/// collection/iterator/sync API that production code calls constantly,
/// so a bare-name edge would wire every `map.get(...)` to every
/// workspace `get`. Sync/channel/io names are here too — those sites
/// are classified as lock acquisitions or blocking intrinsics by the
/// effect pass instead of as calls.
pub const OPAQUE_METHODS: &[&str] = &[
    "append",
    "as_str",
    "check",
    "clear",
    "clone",
    "cloned",
    "collect",
    "compare_exchange",
    "contains",
    "contains_key",
    "default",
    "drain",
    "entry",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "find",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "open",
    "parse",
    "peek",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "send",
    "set",
    "sort",
    "split",
    "store",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "unwrap_or",
    "write",
];

/// Keywords that can directly precede `(` without being a call.
const HEAD_KEYWORDS: &[&str] = &[
    "as", "box", "break", "continue", "dyn", "else", "fn", "for", "if", "impl", "in", "let",
    "loop", "match", "move", "mut", "ref", "return", "unsafe", "where", "while",
];

/// Crate a workspace-relative path belongs to.
#[must_use]
pub fn crate_of(rel: &str) -> String {
    for prefix in ["crates/", "vendor/"] {
        if let Some(rest) = rel.strip_prefix(prefix) {
            if let Some((name, _)) = rest.split_once('/') {
                return name.to_owned();
            }
        }
    }
    "root".to_owned()
}

/// Crate dependency sets mined from the manifests: crate name →
/// transitive closure of its `om-*`/path dependencies (self included).
/// Crates without a manifest (fixture mini-workspaces) are absent and
/// treated as seeing everything.
fn dependency_closure(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in &ws.manifests {
        let krate = if m.rel == "Cargo.toml" {
            "root".to_owned()
        } else {
            crate_of(&m.rel)
        };
        if m.rel.starts_with("vendor/") {
            continue;
        }
        let mut in_deps = false;
        let mut deps = BTreeSet::new();
        for line in m.text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line.contains("dependencies");
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !name.is_empty() {
                deps.insert(name);
            }
        }
        deps.insert(krate.clone());
        direct.insert(krate, deps);
    }
    // Transitive closure (the workspace dep graph is tiny).
    let mut closed = direct.clone();
    loop {
        let mut changed = false;
        for (_, set) in closed.iter_mut() {
            let mut add = BTreeSet::new();
            for dep in set.iter() {
                if let Some(sub) = direct.get(dep) {
                    add.extend(sub.iter().cloned());
                }
            }
            for d in add {
                changed |= set.insert(d);
            }
        }
        if !changed {
            break;
        }
    }
    closed
}

impl CallGraph {
    /// Build the graph for `ws`.
    #[must_use]
    pub fn build(ws: &Workspace) -> Self {
        let mut nodes = Vec::new();
        for (fi, src) in ws.sources.iter().enumerate() {
            if src.role != Role::Src || src.rel.starts_with("vendor/") {
                continue;
            }
            for (gi, f) in src.info.fns.iter().enumerate() {
                if src.info.in_test_region(f.start_line) {
                    continue;
                }
                nodes.push(FnNode {
                    file: fi,
                    fn_idx: gi,
                    krate: crate_of(&src.rel),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    trait_impl: f.trait_impl.clone(),
                    body: f.body,
                    line: f.start_line,
                });
            }
        }

        // Resolution tables.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut owned: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    methods.entry(&n.name).or_default().push(i);
                    owned
                        .entry((o.as_str(), n.name.as_str()))
                        .or_default()
                        .push(i);
                }
                None => frees.entry(&n.name).or_default().push(i),
            }
        }
        let deps = dependency_closure(ws);
        let visible = |caller: &str, callee: &str| -> bool {
            caller == callee || deps.get(caller).is_none_or(|set| set.contains(callee))
        };

        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); nodes.len()];
        for (ni, n) in nodes.iter().enumerate() {
            let src = &ws.sources[n.file];
            let code = &src.info.code;
            // Token ranges of fns nested inside this one get attributed
            // to the inner fn, not to us.
            let nested: Vec<(usize, usize)> = src
                .info
                .fns
                .iter()
                .filter(|g| g.body.0 > n.body.0 && g.body.1 < n.body.1)
                .map(|g| g.body)
                .collect();
            let mut k = n.body.0 + 1;
            while k < n.body.1 {
                if let Some(&(_, close)) = nested.iter().find(|&&(open, _)| open == k) {
                    k = close + 1;
                    continue;
                }
                let t = &code[k];
                let is_call_head = t.kind == TokKind::Ident
                    && !HEAD_KEYWORDS.contains(&t.text.as_str())
                    && code.get(k + 1).is_some_and(|u| u.is_punct('('));
                if !is_call_head {
                    k += 1;
                    continue;
                }
                let name = t.text.as_str();
                let prev_dot = k >= 1 && code[k - 1].is_punct('.');
                let prev_path = k >= 2 && code[k - 1].is_punct(':') && code[k - 2].is_punct(':');
                let mut targets: Vec<usize> = Vec::new();
                if prev_dot {
                    if !OPAQUE_METHODS.contains(&name) {
                        // `self.m(...)` prefers the caller's own type.
                        let recv_self = k >= 2 && code[k - 2].is_ident("self");
                        let own = n
                            .owner
                            .as_deref()
                            .filter(|_| recv_self)
                            .and_then(|o| owned.get(&(o, name)).filter(|v| !v.is_empty()));
                        let pool = own.or_else(|| methods.get(name));
                        if let Some(pool) = pool {
                            targets.extend(
                                pool.iter()
                                    .copied()
                                    .filter(|&m| visible(&n.krate, &nodes[m].krate)),
                            );
                        }
                    }
                } else if prev_path {
                    let qualifier = code
                        .get(k.wrapping_sub(3))
                        .filter(|q| q.kind == TokKind::Ident);
                    if let Some(q) = qualifier {
                        let owner_name = if q.is_ident("Self") {
                            n.owner.clone()
                        } else {
                            Some(q.text.clone())
                        };
                        if let Some(o) = owner_name {
                            if let Some(pool) = owned.get(&(o.as_str(), name)) {
                                targets.extend(
                                    pool.iter()
                                        .copied()
                                        .filter(|&m| visible(&n.krate, &nodes[m].krate)),
                                );
                            }
                        }
                        // `module::free_fn(...)`: the qualifier is a
                        // module, not a type — fall back to free fns.
                        if targets.is_empty() && !OPAQUE_METHODS.contains(&name) {
                            if let Some(pool) = frees.get(name) {
                                targets.extend(
                                    pool.iter()
                                        .copied()
                                        .filter(|&m| visible(&n.krate, &nodes[m].krate)),
                                );
                            }
                        }
                    }
                } else if !(k >= 1 && code[k - 1].is_ident("fn")) {
                    if let Some(pool) = frees.get(name) {
                        targets.extend(
                            pool.iter()
                                .copied()
                                .filter(|&m| visible(&n.krate, &nodes[m].krate)),
                        );
                    }
                }
                if !targets.is_empty() {
                    targets.sort_unstable();
                    targets.dedup();
                    calls[ni].push(CallSite {
                        tok: k,
                        line: t.line,
                        name: name.to_owned(),
                        targets,
                    });
                }
                k += 1;
            }
        }
        Self { nodes, calls }
    }

    /// Node index of the innermost production fn containing code-token
    /// `tok` of file `file`.
    #[must_use]
    pub fn fn_at(&self, file: usize, tok: usize) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.body.0 <= tok && tok <= n.body.1)
            .max_by_key(|(_, n)| n.body.0)
            .map(|(i, _)| i)
    }

    /// All nodes reachable from `roots` (inclusive) over call edges.
    #[must_use]
    pub fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut stack: Vec<usize> = roots.to_vec();
        while let Some(n) = stack.pop() {
            for site in &self.calls[n] {
                for &t in &site.targets {
                    if seen.insert(t) {
                        stack.push(t);
                    }
                }
            }
        }
        seen
    }
}

/// Render a node as `file.rs:line fn_name` for witnesses and messages.
#[must_use]
pub fn describe(ws: &Workspace, g: &CallGraph, n: usize) -> String {
    let node = &g.nodes[n];
    let rel = &ws.sources[node.file].rel;
    let short = rel.rsplit('/').next().unwrap_or(rel);
    format!("{} ({short}:{})", node.name, node.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;
    use crate::{lexer, CheckConfig, SourceFile, TextFile};
    use std::path::PathBuf;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        ws_with_manifests(files, Vec::new())
    }

    fn ws_with_manifests(files: Vec<(&str, &str)>, manifests: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: PathBuf::from("/x"),
            sources: files
                .into_iter()
                .map(|(rel, text)| SourceFile {
                    rel: rel.to_owned(),
                    role: Role::Src,
                    info: scan::scan(&lexer::lex(text)),
                })
                .collect(),
            manifests: manifests
                .into_iter()
                .map(|(rel, text)| TextFile {
                    rel: rel.to_owned(),
                    text: text.to_owned(),
                })
                .collect(),
            config: CheckConfig::default(),
            analysis: std::sync::OnceLock::new(),
        }
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = node(g, from);
        let t = node(g, to);
        g.calls[f].iter().any(|s| s.targets.contains(&t))
    }

    #[test]
    fn cross_crate_edges_respect_manifest_visibility() {
        let files = vec![
            ("crates/a/src/lib.rs", "pub fn caller() { helper(); }\n"),
            ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/c/src/lib.rs", "pub fn lone() { helper(); }\n"),
        ];
        let manifests = vec![
            (
                "crates/a/Cargo.toml",
                "[dependencies]\nb = { path = \"../b\" }\n",
            ),
            ("crates/b/Cargo.toml", "[dependencies]\n"),
            ("crates/c/Cargo.toml", "[dependencies]\n"),
        ];
        let g = CallGraph::build(&ws_with_manifests(files, manifests));
        assert!(
            edge(&g, "caller", "helper"),
            "a depends on b: edge expected"
        );
        assert!(
            !edge(&g, "lone", "helper"),
            "c does not depend on b: no edge"
        );
    }

    #[test]
    fn method_vs_free_fn_disambiguation() {
        let src = "struct A;\nimpl A {\n  fn work(&self) { self.step(); step(); }\n  fn step(&self) {}\n}\nfn step() {}\n";
        let g = CallGraph::build(&ws(vec![("crates/x/src/lib.rs", src)]));
        let work = node(&g, "work");
        let self_step = g
            .nodes
            .iter()
            .position(|n| n.name == "step" && n.owner.as_deref() == Some("A"))
            .unwrap();
        let free_step = g
            .nodes
            .iter()
            .position(|n| n.name == "step" && n.owner.is_none())
            .unwrap();
        let method_site = &g.calls[work][0];
        assert_eq!(
            method_site.targets,
            vec![self_step],
            "self.step() binds to A::step"
        );
        let free_site = &g.calls[work][1];
        assert_eq!(
            free_site.targets,
            vec![free_step],
            "bare step() binds to the free fn"
        );
    }

    #[test]
    fn recursion_terminates_reachability() {
        let src = "fn a() { b(); }\nfn b() { a(); }\n";
        let g = CallGraph::build(&ws(vec![("crates/x/src/lib.rs", src)]));
        let reach = g.reachable(&[node(&g, "a")]);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn ambiguous_method_gets_every_candidate() {
        // Trait-object conservatism: `pop.fetch()` could be either impl,
        // so both get edges.
        let src = "struct A;\nstruct B;\nimpl A { fn fetch(&self) {} }\nimpl B { fn fetch(&self) {} }\nfn drive() { pop.fetch(); }\n";
        let g = CallGraph::build(&ws(vec![("crates/x/src/lib.rs", src)]));
        let drive = node(&g, "drive");
        assert_eq!(g.calls[drive][0].targets.len(), 2);
    }

    #[test]
    fn opaque_methods_resolve_to_nothing() {
        let src = "struct A;\nimpl A { fn get(&self) {} }\nfn drive() { m.get(); }\n";
        let g = CallGraph::build(&ws(vec![("crates/x/src/lib.rs", src)]));
        let drive = node(&g, "drive");
        assert!(
            g.calls[drive].is_empty(),
            "std-shadowed names never resolve"
        );
    }

    #[test]
    fn qualified_calls_bind_by_type_then_module() {
        let src = "struct A;\nimpl A { fn open() {} }\nmod util {}\nfn helper() {}\nfn drive() { A::open(); util::helper(); }\n";
        let g = CallGraph::build(&ws(vec![("crates/x/src/lib.rs", src)]));
        assert!(edge(&g, "drive", "open"));
        assert!(edge(&g, "drive", "helper"));
    }
}
