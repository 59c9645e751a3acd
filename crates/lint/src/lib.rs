//! # neo-lint — token-stream static analysis for the workspace
//!
//! The linting engine behind `neo-xtask lint` and ci.sh gate 3, a
//! three-layer pipeline:
//!
//! 1. **tokens** — every source file is tokenized once ([`token`]) and
//!    wrapped in a [`SourceFile`] with derived code/comment/test line
//!    views and waiver spans ([`source`]);
//! 2. **symbols** — a cross-crate [`SymbolIndex`] ([`symbols`]) records
//!    every fn (with its visibility) and struct;
//! 3. **call graph** — per-function call sites resolve against the
//!    symbol index into a workspace-wide [`callgraph::CallGraph`] with
//!    deterministic, cycle-tolerant transitive reachability.
//!
//! [`lint`] runs the two rules (see DESIGN.md for the full table) and
//! [`output`] renders the report as text, JSON (`neo-lint/1`), the CI
//! waiver baseline, or the call-graph artifact (`neo-callgraph/1`):
//!
//! 1. **hot_path_alloc** — no heap allocation reachable through the call
//!    graph from the per-iteration kernel roots in
//!    tensor/embeddings/collectives ([`hotpath`]);
//! 2. **stale_waiver** — every `// lint: allow(..)` annotation names a
//!    real rule and still suppresses something.
//!
//! What the compiler, cargo and clippy can check is not linted here. The
//! root `Cargo.toml`'s `[workspace.lints]` forbids `unsafe` and denies
//! warnings in every member that inherits it, and a neo-xtask test fails
//! on a member manifest that does not. ci.sh gate 2 runs clippy with the
//! root `clippy.toml`: `clippy::{unwrap_used, expect_used, panic, ..}`
//! over library and bin code, `disallowed-types` for hash containers and
//! `std::sync` locks, `disallowed-methods` for clock and thread-identity
//! reads, and `unused_must_use` plus `clippy::let_underscore_must_use`
//! for dropped `Result`s. Those sites are waived with
//! `#[expect(.., reason = ..)]`, which rustc reports as unfulfilled once
//! the code outgrows it. The collective ops are `neo_collectives::Op`,
//! which the collectives property suite matches with no wildcard arm, so
//! a new collective does not compile untested. The telemetry vocabulary
//! is `neo-telemetry`'s `Phase` and `Metric` enums and its `#[must_use]`
//! guards. Lock order is `neo-sync`'s ranked `LockClass`, checked on
//! every acquisition in debug builds.
//!
//! Findings are waived in place with `// lint: allow(<rule>) — <reason>`;
//! waiver consumption is tracked per token span so the `stale_waiver`
//! rule can retire annotations the code has outgrown.

pub mod callgraph;
pub mod hotpath;
pub mod output;
pub mod source;
pub mod symbols;
pub mod token;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use callgraph::CallGraph;
pub use source::{Diagnostic, SourceFile};
pub use symbols::SymbolIndex;

/// Every rule name, in documentation order. `stale_waiver` runs after
/// `hot_path_alloc` so it sees which waivers fired.
pub const RULE_NAMES: &[&str] = &["hot_path_alloc", "stale_waiver"];

/// Rule metadata for reports (the JSON `rules` array).
#[derive(Debug, Clone)]
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Metadata for both rules, in [`RULE_NAMES`] order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hot_path_alloc",
        summary: "no heap allocation (clone/collect/to_vec/vec!/Box) reachable from per-iteration kernels",
    },
    RuleInfo {
        name: "stale_waiver",
        summary: "every lint waiver names a real rule and still suppresses a finding",
    },
];

/// The parsed workspace: every crate's sources tokenized once, plus the
/// workspace call graph resolved against the cross-crate symbol index.
pub struct Workspace {
    /// `(crate directory name, parsed files)`, sorted by crate name.
    pub crates: Vec<(String, Vec<SourceFile>)>,
    pub graph: CallGraph,
}

impl Workspace {
    /// Loads every `crates/*` directory with a `src/` (plus the root
    /// facade package when `root` has both `Cargo.toml` and `src/`).
    /// Paths in diagnostics are relative to `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut crate_dirs = Vec::new();
        let crates_dir = root.join("crates");
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
            let path = entry.path();
            if path.is_dir() && path.join("src").is_dir() {
                crate_dirs.push(path);
            }
        }
        if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
            crate_dirs.push(root.to_path_buf());
        }
        crate_dirs.sort();

        let mut crates = Vec::new();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_owned();
            let src = dir.join("src");
            let mut paths = Vec::new();
            collect_rs(&src, &mut paths).map_err(|e| format!("walking {}: {e}", src.display()))?;
            paths.sort();
            let mut files = Vec::new();
            for path in &paths {
                files.push(load_file(root, path)?);
            }
            crates.push((name, files));
        }
        Ok(Workspace::new(crates))
    }

    /// The workspace of already-parsed `crates`, its call graph built.
    pub(crate) fn new(crates: Vec<(String, Vec<SourceFile>)>) -> Workspace {
        let graph = CallGraph::build(&crates, &SymbolIndex::build(&crates));
        Workspace { crates, graph }
    }

    /// All parsed files.
    pub fn files(&self) -> impl Iterator<Item = &SourceFile> {
        self.crates.iter().flat_map(|(_, files)| files)
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_file(root: &Path, path: &Path) -> Result<SourceFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    Ok(SourceFile::parse(rel, &text))
}

/// The finished lint run: diagnostics sorted by (path, line, rule), the
/// count of findings each rule's waivers suppressed, and the size of
/// each interprocedural rule's reachable set (tracked in the baseline so
/// a silent resolver regression shows up as drift).
pub struct LintReport {
    pub diags: Vec<Diagnostic>,
    pub waived: BTreeMap<String, usize>,
    pub reachable: BTreeMap<String, usize>,
}

/// Runs `hot_path_alloc`, then the `stale_waiver` pass over the waivers
/// it left unconsumed.
pub fn lint(ws: &Workspace) -> LintReport {
    let mut diags = hotpath::check_hot_path_alloc(ws);
    for file in ws.files() {
        diags.extend(file.stale_waivers(RULE_NAMES));
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let mut waived: BTreeMap<String, usize> = BTreeMap::new();
    for file in ws.files() {
        for rule in file.consumed_waivers() {
            *waived.entry(rule).or_default() += 1;
        }
    }
    let reachable = hotpath::reachable_set_sizes(ws);
    LintReport {
        diags,
        waived,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_metadata_matches_rule_names() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(names, RULE_NAMES);
        assert!(RULES.iter().all(|r| !r.summary.is_empty()));
    }
}
