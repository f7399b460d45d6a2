//! om-lint: a zero-dependency workspace invariant checker.
//!
//! Two of the workspace's production guarantees — lock discipline and
//! budgeted request loops — are not expressible to the compiler (the
//! third, panic-free request paths, is clippy's: see docs/lint.md).
//! This crate mines those rules out of the source tree and enforces
//! them: a hand-rolled Rust lexer ([`lexer`]), a lightweight item
//! scanner ([`scan`]), a workspace call graph with per-function effect
//! summaries ([`callgraph`], [`effects`]), and three interprocedural
//! checks ([`checks`]) that report `file:line` findings (optionally as
//! JSON) and honor inline suppressions:
//!
//! ```text
//! // om-lint: allow(lock-across-io) — startup only: no request holds this lock
//! ```
//!
//! Run as `cargo run -p om-lint -- check [--json] [paths…]`, or
//! `cargo run -p om-lint -- fixtures` for the self-test corpus.

pub mod callgraph;
pub mod checks;
pub mod effects;
pub mod fixtures;
pub mod jsonout;
pub mod lexer;
pub mod scan;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use scan::ScanInfo;

/// One lint finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    pub line: u32,
    /// The check that produced it (kebab-case, suppressible by name).
    pub check: String,
    pub message: String,
}

impl Finding {
    #[must_use]
    pub fn new(check: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Self {
            file: file.to_owned(),
            line,
            check: check.to_owned(),
            message: message.into(),
        }
    }
}

/// What kind of target a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library / binary source: production invariants apply in full.
    Src,
    /// Tests, benches, examples: outside the call graph.
    Test,
}

/// One lexed + scanned Rust source file.
#[derive(Debug)]
pub struct SourceFile {
    pub rel: String,
    pub role: Role,
    pub info: ScanInfo,
}

/// One raw text file (manifests are parsed line-wise).
#[derive(Debug)]
pub struct TextFile {
    pub rel: String,
    pub text: String,
}

/// Paths each check anchors to. Defaults name the real repo layout;
/// fixture mini-workspaces mirror the same shape so the checks run
/// unmodified against them.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Path prefixes where `budget-coverage` requires request-path
    /// loops to poll a Budget/failpoint seam.
    pub budget_scopes: Vec<String>,
    /// Files whose fns are `/v1` handler roots for reachability.
    pub handler_files: Vec<String>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            budget_scopes: vec![
                "crates/om-server/src/".into(),
                "crates/om-cluster/src/".into(),
                "crates/om-exec/src/".into(),
                "crates/om-explore/src/".into(),
                "crates/om-compare/src/".into(),
                "crates/om-gi/src/".into(),
                "crates/om-engine/src/".into(),
                "crates/om-cube/src/".into(),
                "crates/om-ingest/src/".into(),
                // om-api is deliberately out of scope: its parsers are
                // pure, size-capped codecs with no I/O to get stuck on.
            ],
            handler_files: vec!["crates/om-server/src/v1.rs".into()],
        }
    }
}

/// The loaded workspace: every Rust file lexed and scanned, manifests
/// as text.
pub struct Workspace {
    pub root: PathBuf,
    pub sources: Vec<SourceFile>,
    pub manifests: Vec<TextFile>,
    pub config: CheckConfig,
    /// Lazily built interprocedural analysis, shared by every check
    /// that needs the call graph (built once per run, not per check).
    pub analysis: OnceLock<effects::Analysis>,
}

/// Directories scanned for sources/manifests, relative to the root.
const SCAN_DIRS: [&str; 5] = ["crates", "vendor", "src", "tests", "examples"];

impl Workspace {
    /// Load every relevant file under `root`.
    ///
    /// # Errors
    /// I/O failures reading the tree.
    pub fn load(root: &Path, config: CheckConfig) -> Result<Self, String> {
        let mut sources = Vec::new();
        let mut manifests = Vec::new();

        for top in SCAN_DIRS {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(&dir, root, &mut sources, &mut manifests)?;
            }
        }
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            manifests.push(load_text(&root_manifest, root)?);
        }

        sources.sort_by(|a, b| a.rel.cmp(&b.rel));
        manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Self {
            root: root.to_owned(),
            sources,
            manifests,
            config,
            analysis: OnceLock::new(),
        })
    }

    /// The interprocedural analysis (call graph + effect summaries),
    /// built on first use and cached for the rest of the run.
    #[must_use]
    pub fn analysis(&self) -> &effects::Analysis {
        self.analysis.get_or_init(|| effects::analyze(self))
    }

    /// Run every check plus suppression hygiene; returns findings sorted
    /// by file, line, check, with suppressed findings removed.
    #[must_use]
    pub fn run_checks(&self) -> Vec<Finding> {
        let mut findings: Vec<Finding> = Vec::new();
        for check in checks::all() {
            findings.extend(check.run(self));
        }
        // Stale-suppression detection needs the raw findings *before*
        // suppressions erase them.
        findings.extend(checks::unused_suppression::run(self, &findings));
        findings.extend(self.suppression_hygiene());
        // Apply suppressions.
        let by_file: BTreeMap<&str, &ScanInfo> = self
            .sources
            .iter()
            .map(|s| (s.rel.as_str(), &s.info))
            .collect();
        findings.retain(|f| {
            by_file
                .get(f.file.as_str())
                .is_none_or(|info| !info.is_suppressed(&f.check, f.line))
        });
        findings.sort();
        findings.dedup();
        findings
    }

    /// Every `allow` must carry a reason and name a known check.
    fn suppression_hygiene(&self) -> Vec<Finding> {
        let mut known: Vec<&str> = checks::all().iter().map(|c| c.name()).collect();
        known.extend(checks::driver_passes().iter().map(|(n, _)| *n));
        let mut out = Vec::new();
        for src in &self.sources {
            for sup in &src.info.suppressions {
                if sup.reason.is_empty() {
                    out.push(Finding::new(
                        "suppression",
                        &src.rel,
                        sup.comment_line,
                        "om-lint allow without a reason; write \
                         `// om-lint: allow(<check>) — <why this is safe>`",
                    ));
                }
                for c in &sup.checks {
                    if !known.contains(&c.as_str()) {
                        out.push(Finding::new(
                            "suppression",
                            &src.rel,
                            sup.comment_line,
                            format!("om-lint allow names unknown check {c:?}"),
                        ));
                    }
                }
            }
        }
        out
    }
}

fn load_text(path: &Path, root: &Path) -> Result<TextFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(TextFile {
        rel: rel_path(path, root),
        text,
    })
}

fn rel_path(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn walk(
    dir: &Path,
    root: &Path,
    sources: &mut Vec<SourceFile>,
    manifests: &mut Vec<TextFile>,
) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(&path, root);
        // The lint's own fixture corpus is seeded with violations on
        // purpose; never lint it as part of the real workspace.
        if rel.contains("tests/fixtures") || rel.contains("/target/") || rel.ends_with("/target") {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, sources, manifests)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let role = if rel.contains("/tests/")
                || rel.contains("/benches/")
                || rel.contains("/examples/")
                || rel.starts_with("tests/")
                || rel.starts_with("examples/")
            {
                Role::Test
            } else {
                Role::Src
            };
            sources.push(SourceFile {
                rel,
                role,
                info: scan::scan(&lexer::lex(&text)),
            });
        } else if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            manifests.push(load_text(&path, root)?);
        }
    }
    Ok(())
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_owned());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_owned);
    }
    None
}
