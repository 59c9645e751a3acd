//! # neo-lint — token-stream static analysis for the workspace
//!
//! The linting engine behind `neo-xtask lint` and ci.sh gate 3, a
//! three-layer pipeline shared by every rule:
//!
//! 1. **tokens** — every source file is tokenized once ([`token`]) and
//!    wrapped in a [`SourceFile`] with derived code/comment/test line
//!    views and waiver spans ([`source`]);
//! 2. **symbols** — a cross-crate [`SymbolIndex`] ([`symbols`]) records
//!    every fn (visibility, Result-ness) and struct;
//! 3. **call graph** — per-function call sites resolve against the
//!    symbol index into a workspace-wide [`callgraph::CallGraph`] with
//!    deterministic, cycle-tolerant transitive reachability.
//!
//! Rules implement [`Rule`] and are registered in [`all_rules`];
//! [`lint`] runs them all plus the trailing `stale_waiver` pass, and
//! [`output`] renders the report as text, JSON (`neo-lint/1`), the CI
//! waiver baseline, or the call-graph artifact (`neo-callgraph/1`).
//!
//! The seven rules (see DESIGN.md for the full table; rules marked ⇄
//! are interprocedural — they consume call-graph reachability):
//!
//! 1. **crate_header** — crate roots (`src/lib.rs`, `src/main.rs`,
//!    `src/bin/*.rs`) carry `#![forbid(unsafe_code)]` +
//!    `#![deny(warnings)]`
//! 2. **props_cover** — every pub fn of the collectives group API is
//!    named in the property-test suite
//! 3. **lock_order** ⇄ — global lock-acquisition graph stays acyclic,
//!    with transitive held-guard expansion across crate boundaries
//! 4. **comm_lane_blocking** ⇄ — nothing blocking reachable (full
//!    transitive closure) from the comm-lane worker entry points
//! 5. **hot_path_alloc** ⇄ — no heap allocation reachable from the
//!    per-iteration kernel roots in tensor/embeddings/collectives
//! 6. **panic_path** ⇄ — no panicking call reachable from fns whose
//!    signature already promises a `Result`
//! 7. **stale_waiver** — every `// lint: allow(..)` annotation names a
//!    real rule and still suppresses something
//!
//! What the compiler and clippy can check on resolved types is not
//! linted here. ci.sh gate 2 runs clippy with the root `clippy.toml`:
//! `clippy::{unwrap_used, expect_used, panic, ..}` over library and bin
//! code, `disallowed-types` for hash containers and `std::sync` locks,
//! `disallowed-methods` for clock and thread-identity reads, and
//! `unused_must_use` plus `clippy::let_underscore_must_use` for dropped
//! `Result`s. Those sites are waived with `#[expect(.., reason = ..)]`,
//! which rustc reports as unfulfilled once the code outgrows it. The
//! telemetry vocabulary is not linted either: `neo-telemetry`'s `Phase`
//! and `Metric` enums and its `#[must_use]` guards make the compiler
//! reject a misspelt or inline name and a guard dropped where it is made.
//!
//! Findings are waived in place with `// lint: allow(<rule>) — <reason>`;
//! waiver consumption is tracked per token span so the `stale_waiver`
//! rule can retire annotations the code has outgrown.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod callgraph;
pub mod hotpath;
pub mod lockorder;
pub mod output;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod token;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use callgraph::CallGraph;
pub use source::{Diagnostic, SourceFile};
pub use symbols::SymbolIndex;

/// Every rule name, in documentation order. `stale_waiver` runs inside
/// [`lint`] after the other six so it sees which waivers fired.
pub const RULE_NAMES: &[&str] = &[
    "crate_header",
    "props_cover",
    "lock_order",
    "comm_lane_blocking",
    "hot_path_alloc",
    "panic_path",
    "stale_waiver",
];

/// Rule metadata for reports (the JSON `rules` array).
#[derive(Debug, Clone)]
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Metadata for all seven rules, in [`RULE_NAMES`] order.
pub fn rule_infos() -> Vec<RuleInfo> {
    let mut infos: Vec<RuleInfo> = all_rules()
        .iter()
        .map(|r| RuleInfo {
            name: r.name(),
            summary: r.summary(),
        })
        .collect();
    infos.push(RuleInfo {
        name: "stale_waiver",
        summary: "every lint waiver names a real rule and still suppresses a finding",
    });
    infos
}

/// The parsed workspace: every crate's sources tokenized once, plus the
/// cross-crate symbol index, the workspace call graph, and the
/// collectives property-test suite.
pub struct Workspace {
    pub root: PathBuf,
    /// `(crate directory name, parsed files)`, sorted by crate name.
    pub crates: Vec<(String, Vec<SourceFile>)>,
    pub symbols: SymbolIndex,
    /// Whole-workspace call graph resolved against `symbols`.
    pub graph: CallGraph,
    /// `crates/collectives/tests/props.rs`, when present.
    pub props: Option<SourceFile>,
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

        let props_path = root.join("crates/collectives/tests/props.rs");
        let props = if props_path.is_file() {
            Some(load_file(root, &props_path)?)
        } else {
            None
        };

        let symbols = SymbolIndex::build(&crates);
        let graph = CallGraph::build(&crates, &symbols);
        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
            symbols,
            graph,
            props,
        })
    }

    /// All parsed files, props suite included.
    pub fn files(&self) -> impl Iterator<Item = &SourceFile> {
        self.crates
            .iter()
            .flat_map(|(_, files)| files)
            .chain(self.props.iter())
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

/// One lint rule over the whole workspace.
pub trait Rule {
    fn name(&self) -> &'static str;
    /// One-line summary for reports.
    fn summary(&self) -> &'static str;
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

struct CrateHeaderRule;
impl Rule for CrateHeaderRule {
    fn name(&self) -> &'static str {
        "crate_header"
    }
    fn summary(&self) -> &'static str {
        "crate roots (lib.rs, main.rs, bin/*.rs) carry #![forbid(unsafe_code)] and #![deny(warnings)]"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        ws.crates
            .iter()
            .flat_map(|(_, files)| files)
            .filter(|f| {
                let bin_root = f.path.parent().is_some_and(|d| d.ends_with("src/bin"));
                f.path.ends_with("src/lib.rs") || f.path.ends_with("src/main.rs") || bin_root
            })
            .flat_map(rules::check_crate_header)
            .collect()
    }
}

struct PropsCoverRule;
impl Rule for PropsCoverRule {
    fn name(&self) -> &'static str {
        "props_cover"
    }
    fn summary(&self) -> &'static str {
        "every pub fn of the collectives group API is exercised by the property suite"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let group_path = Path::new("crates/collectives/src/group.rs");
        let Some(group) = ws.files().find(|f| f.path == group_path) else {
            return Vec::new();
        };
        match &ws.props {
            Some(props) => rules::check_props_coverage(group, props),
            None => vec![Diagnostic {
                path: group_path.to_path_buf(),
                line: 1,
                rule: "props_cover",
                message: "crates/collectives/tests/props.rs is missing".into(),
            }],
        }
    }
}

struct LockOrderRule;
impl Rule for LockOrderRule {
    fn name(&self) -> &'static str {
        "lock_order"
    }
    fn summary(&self) -> &'static str {
        "the workspace lock-acquisition graph stays acyclic (no written deadlock)"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        lockorder::check_lock_order(&ws.crates, &ws.graph)
    }
}

struct CommLaneRule;
impl Rule for CommLaneRule {
    fn name(&self) -> &'static str {
        "comm_lane_blocking"
    }
    fn summary(&self) -> &'static str {
        "nothing blocking (recv/sleep/wait/nested locking) reachable from the comm-lane worker"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        lockorder::check_comm_lane_blocking(&ws.crates, &ws.graph)
    }
}

struct HotPathAllocRule;
impl Rule for HotPathAllocRule {
    fn name(&self) -> &'static str {
        "hot_path_alloc"
    }
    fn summary(&self) -> &'static str {
        "no heap allocation (clone/collect/to_vec/vec!/Box) reachable from per-iteration kernels"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        hotpath::check_hot_path_alloc(ws)
    }
}

struct PanicPathRule;
impl Rule for PanicPathRule {
    fn name(&self) -> &'static str {
        "panic_path"
    }
    fn summary(&self) -> &'static str {
        "no panicking call reachable from fns whose signature returns a Result"
    }
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        hotpath::check_panic_path(ws)
    }
}

/// The six registered rules, in [`RULE_NAMES`] order. `stale_waiver`
/// is not in the registry: it must run after every other rule has marked
/// the waivers it consumed, so [`lint`] runs it as a trailing pass.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(CrateHeaderRule),
        Box::new(PropsCoverRule),
        Box::new(LockOrderRule),
        Box::new(CommLaneRule),
        Box::new(HotPathAllocRule),
        Box::new(PanicPathRule),
    ]
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

/// Runs every registered rule plus the trailing `stale_waiver` pass.
pub fn lint(ws: &Workspace) -> LintReport {
    let mut diags = Vec::new();
    for rule in all_rules() {
        diags.extend(rule.check(ws));
    }
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
    fn registry_matches_rule_names() {
        let mut names: Vec<&str> = all_rules().iter().map(|r| r.name()).collect();
        names.push("stale_waiver");
        assert_eq!(names, RULE_NAMES, "registry order drifted from RULE_NAMES");
        let infos = rule_infos();
        assert_eq!(infos.len(), RULE_NAMES.len());
        for (info, name) in infos.iter().zip(RULE_NAMES) {
            assert_eq!(info.name, *name);
            assert!(!info.summary.is_empty());
        }
    }
}
