//! Per-function effect summaries propagated over the call graph.
//!
//! For every production function the local pass records:
//!
//! - **lock acquisitions** — zero-arg `.lock()` always counts (aliases
//!   like `slot.lock()` included); zero-arg `.read()`/`.write()` count
//!   only when the receiver tail names a declared `Mutex`/`RwLock`
//!   field or static. Guard liveness follows Rust drop rules closely
//!   enough to lint: a `let`-bound guard lives to the end of its
//!   enclosing block (or an explicit `drop(binding)`); a temporary in
//!   an `if let`/`while let`/`match` head lives through the whole
//!   construct including `else` chains; a plain statement temporary
//!   dies at its `;`.
//! - **blocking sites** — socket/file intrinsics (`TcpStream::*`,
//!   `File::*`, `fs::*`, `connect*`, `accept`, `read`/`write` with
//!   arguments, `read_exact`/`write_all`/`flush`/`sync_*`), channel
//!   waits (`recv`, `recv_timeout`, `wait`), `sleep`, and zero-arg
//!   `.join()` on thread handles.
//! - **budget/failpoint polls** — `budget.check()` (any receiver whose
//!   name contains `budget`) and `inject(Seam::…)`.
//!
//! The fixpoint then propagates *blocks*, *polls* and *acquires* over
//! call edges until stable. Over-approximations: a guard bound by a
//! pattern we don't model lives to its construct end; ambiguous calls
//! taint every candidate. Under-approximations: guards returned from
//! helper functions (e.g. a `fn lock() -> MutexGuard` wrapper) are only
//! tracked inside the helper; iterating a channel receiver with `for`
//! blocks without any visible call. Both are documented in docs/lint.md.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::{Role, Workspace};

/// One lock acquisition with its live token range.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Crate-qualified declared lock name (`om-ingest/state`), if the
    /// receiver tail matched a declaration; `None` for aliased guards.
    pub lock: Option<String>,
    /// Receiver-tail text, for messages (`state`, `slot`, ...).
    pub recv: String,
    /// Code-token index of the `lock`/`read`/`write` ident.
    pub tok: usize,
    pub line: u32,
    /// Inclusive code-token range the guard is live over.
    pub live: (usize, usize),
}

/// Effects observed directly in one function body.
#[derive(Debug, Clone, Default)]
pub struct LocalEffects {
    pub acqs: Vec<Acquisition>,
    /// (token, line, description) of every blocking intrinsic.
    pub blocking: Vec<(usize, u32, String)>,
    /// Token indices of budget/failpoint polls.
    pub polls: Vec<usize>,
}

/// The propagated summary of one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// `Some(witness)` if the function may block (directly or through
    /// any callee); the witness names the chain for messages.
    pub blocks: Option<String>,
    /// Does the function poll a budget or failpoint seam (directly or
    /// through any callee)?
    pub polls: bool,
    /// Declared locks this function may acquire, directly or through
    /// callees, with a witness each.
    pub acquires: BTreeMap<String, String>,
}

/// Everything the interprocedural checks consume, built once per run.
#[derive(Debug, Default)]
pub struct Analysis {
    pub graph: CallGraph,
    /// Indexed like `graph.nodes`.
    pub locals: Vec<LocalEffects>,
    /// Indexed like `graph.nodes`.
    pub summaries: Vec<FnSummary>,
    /// Declared lock names, crate-qualified.
    pub locks: BTreeSet<String>,
}

/// Blocking method names that block with arguments allowed.
const BLOCKING_METHODS: &[&str] = &[
    "accept",
    "connect",
    "connect_timeout",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "wait",
    "wait_timeout",
    "write_all",
];

/// Type qualifiers whose associated calls are blocking I/O.
const BLOCKING_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "fs",
];

/// Mine `name: Mutex<...>` / `name: RwLock<...>` declarations (fields
/// and statics, through wrappers like `Vec<Mutex<..>>`) plus
/// `let name = Mutex::new(...)` locals, crate-qualified.
#[must_use]
pub fn declared_locks(ws: &Workspace) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for src in &ws.sources {
        if src.role != Role::Src || src.rel.starts_with("vendor/") {
            continue;
        }
        let krate = crate::callgraph::crate_of(&src.rel);
        let code = &src.info.code;
        for (i, t) in code.iter().enumerate() {
            if !(t.is_ident("Mutex") || t.is_ident("RwLock"))
                || !code.get(i + 1).is_some_and(|u| u.is_punct('<'))
            {
                // `let x = Mutex::new(..)` declares too.
                if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                    && code.get(i + 1).is_some_and(|u| u.is_punct(':'))
                    && i >= 2
                    && code[i - 1].is_punct('=')
                    && code[i - 2].kind == TokKind::Ident
                {
                    out.insert(format!("{krate}/{}", code[i - 2].text));
                }
                continue;
            }
            // Walk back over `Wrapper<` pairs to the `name:` ascription.
            let mut j = i;
            while j >= 2 && code[j - 1].is_punct('<') && code[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            if j >= 2
                && code[j - 1].is_punct(':')
                && !code.get(j.wrapping_sub(2)).is_some_and(|u| u.is_punct(':'))
            {
                // Reject `path::Mutex<` (j-1 is the second colon of `::`).
                if code[j - 2].kind == TokKind::Ident {
                    out.insert(format!("{krate}/{}", code[j - 2].text));
                }
            }
        }
    }
    out
}

/// Is `code[k]` the head of a zero-arg call `.name()`?
fn zero_arg_method(code: &[Tok], k: usize) -> bool {
    k >= 1
        && code[k - 1].is_punct('.')
        && code.get(k + 1).is_some_and(|u| u.is_punct('('))
        && code.get(k + 2).is_some_and(|u| u.is_punct(')'))
}

/// Liveness end for a `let`-bound guard: the close of the enclosing
/// block, or an earlier `drop(binding)`.
fn let_bound_end(code: &[Tok], from: usize, close_cap: usize, binding: &str) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j <= close_cap {
        let t = &code[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_ident("drop")
            && code.get(j + 1).is_some_and(|u| u.is_punct('('))
            && code.get(j + 2).is_some_and(|u| u.is_ident(binding))
            && code.get(j + 3).is_some_and(|u| u.is_punct(')'))
        {
            return j;
        }
        j += 1;
    }
    close_cap
}

/// Liveness end for a temporary guard: its statement `;`, or — when the
/// temporary sits in an `if let`/`while let`/`match` head — the end of
/// the whole construct including `else` chains.
fn temp_end(code: &[Tok], from: usize, close_cap: usize) -> usize {
    let mut paren = 0i64;
    let mut j = from;
    while j <= close_cap {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if paren <= 0 {
            // `;` ends a statement temporary; `,` ends a match-arm or
            // argument-position temporary.
            if t.is_punct(';') || t.is_punct(',') {
                return j;
            }
            if t.is_punct('}') {
                return j; // enclosing block closes first
            }
            if t.is_punct('{') {
                // Construct head: the scrutinee temporary lives through
                // the body and any `else`/`else if` continuation.
                let mut end = crate::scan::match_braces(code, j);
                while code.get(end + 1).is_some_and(|u| u.is_ident("else")) {
                    let mut k = end + 2;
                    // `else if ...` — skip the condition to its `{`.
                    let mut p = 0i64;
                    while k <= close_cap {
                        if code[k].is_punct('(') || code[k].is_punct('[') {
                            p += 1;
                        } else if code[k].is_punct(')') || code[k].is_punct(']') {
                            p -= 1;
                        } else if p == 0 && code[k].is_punct('{') {
                            break;
                        }
                        k += 1;
                    }
                    if k > close_cap {
                        break;
                    }
                    end = crate::scan::match_braces(code, k);
                }
                return end.min(close_cap);
            }
        }
        j += 1;
    }
    close_cap
}

/// Compute the local effects of node `n`.
fn local_effects(
    ws: &Workspace,
    g: &CallGraph,
    n: usize,
    locks: &BTreeSet<String>,
) -> LocalEffects {
    let node = &g.nodes[n];
    let src = &ws.sources[node.file];
    let code = &src.info.code;
    let (open, close) = node.body;
    let nested: Vec<(usize, usize)> = src
        .info
        .fns
        .iter()
        .filter(|f| f.body.0 > open && f.body.1 < close)
        .map(|f| f.body)
        .collect();
    // Argument extents of `thread::scope(|s| …)` calls: channel waits
    // and joins inside them are structured-concurrency gathers bounded
    // by the scope's own workers, not waits on the outside world.
    let mut scoped: Vec<(usize, usize)> = Vec::new();
    for k in open + 1..close {
        if code[k].is_ident("scope") && code.get(k + 1).is_some_and(|u| u.is_punct('(')) {
            let mut depth = 0i64;
            let mut j = k + 1;
            while j < close {
                if code[j].is_punct('(') {
                    depth += 1;
                } else if code[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            scoped.push((k + 1, j));
        }
    }
    let mut fx = LocalEffects::default();
    let mut k = open + 1;
    while k < close {
        if let Some(&(_, nclose)) = nested.iter().find(|&&(nopen, _)| nopen == k) {
            k = nclose + 1;
            continue;
        }
        let t = &code[k];
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let name = t.text.as_str();
        let next_open = code.get(k + 1).is_some_and(|u| u.is_punct('('));
        let prev_dot = k >= 1 && code[k - 1].is_punct('.');

        // Lock acquisitions: zero-arg `.lock()`, and `.read()`/`.write()`
        // on a declared lock.
        if matches!(name, "lock" | "read" | "write") && zero_arg_method(code, k) {
            let recv = if k >= 2 && code[k - 2].kind == TokKind::Ident {
                code[k - 2].text.clone()
            } else {
                String::new()
            };
            let declared = format!("{}/{recv}", node.krate);
            let lock = locks.contains(&declared).then_some(declared);
            if name == "lock" || lock.is_some() {
                // Binding: `let [mut] b = <receiver-chain>.lock();`
                let mut rs = k - 1; // walk to receiver-chain start
                while rs >= 1 && (code[rs - 1].kind == TokKind::Ident || code[rs - 1].is_punct('.'))
                {
                    rs -= 1;
                }
                // The binding holds the guard only when the lock call
                // ends the assigned expression (`.unwrap()`/`.expect(..)`
                // tails allowed). If the chain continues —
                // `let v = cache.read().get(k).cloned();` — the guard is
                // a statement temporary and `v` binds the copied value.
                let mut chain_end = k + 2; // the `)` of the zero-arg call
                loop {
                    if code.get(chain_end + 1).is_some_and(|u| u.is_punct('.'))
                        && code
                            .get(chain_end + 2)
                            .is_some_and(|u| u.is_ident("unwrap"))
                        && code.get(chain_end + 3).is_some_and(|u| u.is_punct('('))
                        && code.get(chain_end + 4).is_some_and(|u| u.is_punct(')'))
                    {
                        chain_end += 4;
                    } else if code.get(chain_end + 1).is_some_and(|u| u.is_punct('.'))
                        && code
                            .get(chain_end + 2)
                            .is_some_and(|u| u.is_ident("expect"))
                        && code.get(chain_end + 3).is_some_and(|u| u.is_punct('('))
                        && code.get(chain_end + 5).is_some_and(|u| u.is_punct(')'))
                    {
                        chain_end += 5;
                    } else {
                        break;
                    }
                }
                let ends_stmt = code.get(chain_end + 1).is_some_and(|u| u.is_punct(';'));
                let binding = if ends_stmt
                    && rs >= 2
                    && code[rs - 1].is_punct('=')
                    && code[rs - 2].kind == TokKind::Ident
                    && (code
                        .get(rs.wrapping_sub(3))
                        .is_some_and(|u| u.is_ident("let"))
                        || (code
                            .get(rs.wrapping_sub(3))
                            .is_some_and(|u| u.is_ident("mut"))
                            && code
                                .get(rs.wrapping_sub(4))
                                .is_some_and(|u| u.is_ident("let"))))
                {
                    Some(code[rs - 2].text.clone())
                } else {
                    None
                };
                let end = match &binding {
                    Some(b) => let_bound_end(code, k + 3, close, b),
                    None => temp_end(code, k + 3, close),
                };
                fx.acqs.push(Acquisition {
                    lock,
                    recv,
                    tok: k,
                    line: t.line,
                    live: (k, end),
                });
                k += 1;
                continue;
            }
        }

        // Blocking intrinsics. om-fault is exempt: its delay actions
        // sleep *by design* to simulate slow I/O at a seam; charging
        // that simulated hazard to every caller that polls a failpoint
        // would double-count the seam (a poll is the mitigation, not
        // the hazard).
        let blocking = if node.krate == "om-fault" {
            None
        } else if BLOCKING_TYPES.contains(&name)
            && code.get(k + 1).is_some_and(|u| u.is_punct(':'))
            && code.get(k + 2).is_some_and(|u| u.is_punct(':'))
            && code.get(k + 3).is_some_and(|u| u.kind == TokKind::Ident)
        {
            Some(format!("{name}::{}", code[k + 3].text))
        } else if prev_dot && next_open && BLOCKING_METHODS.contains(&name) {
            // Channel waits and thread joins inside a `thread::scope`
            // closure are structured concurrency: the scope's own
            // workers are the only producers, the job queue is finite,
            // and the wait is bounded by local compute (the cube
            // builders use exactly this shape). Skip those; everything
            // the workers *call* is still summarized normally.
            if matches!(name, "recv" | "recv_timeout" | "wait" | "wait_timeout")
                && scoped.iter().any(|&(s, e)| k > s && k < e)
            {
                None
            } else {
                Some(format!(".{name}()"))
            }
        } else if prev_dot && next_open && name == "flush" && zero_arg_method(code, k) {
            Some(".flush()".to_owned())
        } else if prev_dot
            && name == "join"
            && zero_arg_method(code, k)
            && !scoped.iter().any(|&(s, e)| k > s && k < e)
        {
            Some(".join()".to_owned())
        } else if name == "sleep" && next_open {
            Some("sleep(..)".to_owned())
        } else {
            None
        };
        if let Some(what) = blocking {
            fx.blocking.push((k, t.line, what));
            k += 1;
            continue;
        }

        // Budget / failpoint polls: `inject(Seam::…)` or `budget.check()`.
        let is_poll =
            (name == "inject" && next_open && code.get(k + 2).is_some_and(|u| u.is_ident("Seam")))
                || (name == "check"
                    && zero_arg_method(code, k)
                    && k >= 2
                    && code[k - 2].text.to_ascii_lowercase().contains("budget"));
        if is_poll {
            fx.polls.push(k);
        }
        k += 1;
    }
    fx
}

/// Build the full analysis: graph, locals, and the propagated fixpoint.
#[must_use]
pub fn analyze(ws: &Workspace) -> Analysis {
    let graph = CallGraph::build(ws);
    let locks = declared_locks(ws);
    let locals: Vec<LocalEffects> = (0..graph.nodes.len())
        .map(|n| local_effects(ws, &graph, n, &locks))
        .collect();

    let mut summaries: Vec<FnSummary> = locals
        .iter()
        .enumerate()
        .map(|(n, fx)| {
            let node = &graph.nodes[n];
            let rel = &ws.sources[node.file].rel;
            let short = rel.rsplit('/').next().unwrap_or(rel);
            FnSummary {
                blocks: fx
                    .blocking
                    .first()
                    .map(|(_, line, what)| format!("{what} at {short}:{line}")),
                polls: !fx.polls.is_empty(),
                acquires: fx
                    .acqs
                    .iter()
                    .filter_map(|a| a.lock.clone().map(|l| (l, format!("{short}:{}", a.line))))
                    .collect(),
            }
        })
        .collect();

    // Propagate to a fixpoint. Every field is monotone over a finite
    // domain, so this terminates even through recursion.
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            for site in &graph.calls[n] {
                for &t in &site.targets {
                    if summaries[n].blocks.is_none() {
                        if let Some(w) = &summaries[t].blocks {
                            let mut witness = format!("via {}: {w}", graph.nodes[t].name);
                            if witness.len() > 200 {
                                witness = witness.chars().take(200).collect();
                            }
                            summaries[n].blocks = Some(witness);
                            changed = true;
                        }
                    }
                    if summaries[t].polls && !summaries[n].polls {
                        summaries[n].polls = true;
                        changed = true;
                    }
                    let add: Vec<(String, String)> = summaries[t]
                        .acquires
                        .iter()
                        .filter(|(l, _)| !summaries[n].acquires.contains_key(*l))
                        .map(|(l, _)| (l.clone(), format!("via {}", graph.nodes[t].name)))
                        .collect();
                    for (l, w) in add {
                        summaries[n].acquires.insert(l, w);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    Analysis {
        graph,
        locals,
        summaries,
        locks,
    }
}

/// Effects-layer helpers shared by the interprocedural checks.
impl Analysis {
    /// Does token range `range` of node `n` contain a poll — an
    /// intrinsic poll site, or a call with a candidate that polls
    /// transitively?
    #[must_use]
    pub fn range_polls(&self, n: usize, range: (usize, usize)) -> bool {
        let in_range = |k: usize| k >= range.0 && k <= range.1;
        self.locals[n].polls.iter().any(|&k| in_range(k))
            || self.graph.calls[n].iter().any(|site| {
                in_range(site.tok) && site.targets.iter().any(|&t| self.summaries[t].polls)
            })
    }

    /// First blocking site inside `range` of node `n`: an intrinsic or
    /// a call to a callee that may block. Returns (token line, witness).
    #[must_use]
    pub fn first_blocking_in(&self, n: usize, range: (usize, usize)) -> Option<(u32, String)> {
        let in_range = |k: usize| k >= range.0 && k <= range.1;
        let intrinsic = self.locals[n]
            .blocking
            .iter()
            .filter(|(k, _, _)| in_range(*k))
            .map(|(k, line, what)| (*k, *line, what.clone()))
            .next();
        let call = self.graph.calls[n]
            .iter()
            .filter(|site| in_range(site.tok))
            .find_map(|site| {
                site.targets.iter().find_map(|&t| {
                    self.summaries[t]
                        .blocks
                        .as_ref()
                        .map(|w| (site.tok, site.line, format!("call to {}: {w}", site.name)))
                })
            });
        match (intrinsic, call) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { (a.1, a.2) } else { (b.1, b.2) }),
            (Some(a), None) => Some((a.1, a.2)),
            (None, Some(b)) => Some((b.1, b.2)),
            (None, None) => None,
        }
    }

    /// Does `range` of node `n` contain any resolved workspace call?
    #[must_use]
    pub fn range_has_call(&self, n: usize, range: (usize, usize)) -> bool {
        self.graph.calls[n]
            .iter()
            .any(|site| site.tok >= range.0 && site.tok <= range.1)
    }
}
