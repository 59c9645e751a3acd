//! `neo-xtask` — workspace invariant linter and artifact checker.
//!
//! `cargo run -p neo-xtask -- lint` runs the `neo-lint` analysis engine
//! over every library source file in the workspace (crates/*/src plus
//! the root facade src/). The engine is a three-layer pipeline — lossless
//! token stream, cross-crate symbol index, and a whole-workspace call
//! graph with transitive reachability — feeding two rules (the full
//! table lives in DESIGN.md and `neo_lint`'s crate docs):
//!
//! 1. **hot_path_alloc** — no heap allocation (`clone`/`collect`/
//!    `to_vec`/`vec!`/`Box::new`/`format!`) in any fn reachable from the
//!    per-iteration kernel roots (the GEMM/MLP kernels, pooled embedding
//!    kernels, sparse optimizer, quantization); setup-time sites carry
//!    `// lint: allow(hot_path_alloc) — <reason>` waivers.
//! 2. **stale_waiver** — every `// lint: allow(<rule>) — <reason>`
//!    annotation must name a known rule and actually suppress a finding;
//!    waivers that no longer fire are flagged so they cannot rot in place.
//!
//! What cargo, rustc and clippy check needs no rule here. The root
//! manifest's `[workspace.lints]` forbids `unsafe` and denies warnings,
//! and this crate's `member_manifests_inherit_workspace_lints` test
//! fails on a member manifest without `[lints] workspace = true`. ci.sh
//! gate 2 runs clippy with the root `clippy.toml` for panicking calls in
//! library and bin code, hash containers, `std::sync` locks, clock and
//! thread-identity reads, and dropped `#[must_use]` values; those sites
//! carry `#[expect(.., reason = ..)]`. The collective ops are
//! `neo_collectives::Op`, matched with no wildcard arm by the collectives
//! property suite, so a new collective does not compile untested. Spans
//! and metrics are named by the `Phase` and `Metric` enums, and the span
//! and iteration guards are `#[must_use]`, so the compiler rejects a
//! misspelt name, an inline string and a guard dropped where it is made.
//! Lock order: every `neo-sync` lock carries a ranked `LockClass`, and
//! debug builds check each acquisition against the classes its thread
//! holds.
//!
//! Flags: `--json FILE` writes the machine-readable `neo-lint/1` report,
//! `--callgraph FILE` dumps the `neo-callgraph/1` artifact (nodes, edges,
//! the rule's root set and reachable-set size) for offline analysis,
//! `--baseline FILE` diffs waived-finding counts against the committed
//! `neo-lint-baseline/2` baseline (growth fails the gate even though the
//! findings are waived; reachable-set drift is reported as a note), and
//! `--write-baseline FILE` regenerates that baseline after review.
//!
//! `cargo run -p neo-xtask -- interleave [--seeds N] [--seed S]
//! [--iters K]` runs the seeded schedule-perturbation harness: for each
//! seed it arms the `neo-sync` chaos layer, trains the overlapped (Fig. 9)
//! trainer at w ∈ {2, 4}, and asserts the result is bitwise identical to a
//! serial reference and free of deadlock (watchdog); on the dev profile
//! the lock-class check runs on every perturbed schedule. See
//! `interleave.rs`.
//!
//! `cargo run -p neo-xtask -- check <files...>` (no flags) validates every
//! artifact the workspace writes, dispatching on its schema tag; the rules
//! are in `check.rs`.
//!
//! `cargo run --release -p neo-xtask -- overhead` (no flags) prices the
//! live monitor and the workload profiler as interleaved off/on training
//! pairs, prints every pair with its min / quartiles / median, and fails
//! (exit 1) when an arm's minimum paired overhead exceeds its 3% budget.
//! See `overhead.rs`; throughput and per-layer numbers live in
//! `benchmark/`.
//!
//! `shims/` is excluded from linting: those crates are offline stand-ins
//! for third-party dependencies and follow upstream APIs, not this repo's
//! conventions.
//!
//! Exit status: 0 when clean, 1 with diagnostics on violations, 2 on usage
//! or I/O errors.

mod check;
mod interleave;
mod overhead;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: neo-xtask lint [--root <dir>] [--json FILE] \
       [--callgraph FILE] [--baseline FILE] [--write-baseline FILE] \
     | neo-xtask check <files...> \
     | neo-xtask overhead \
     | neo-xtask interleave [--seeds N] [--seed S] [--iters K]";

/// Dispatches to a subcommand; returns the number of problems found.
fn run(args: &[String]) -> Result<usize, String> {
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("check") => check::run_check(&args[1..]),
        Some("overhead") => overhead::run_overhead(&args[1..]),
        Some("interleave") => interleave::run_interleave(&args[1..]),
        _ => Err(USAGE.into()),
    }
}

/// Runs the `neo-lint` engine, prints diagnostics, writes the requested
/// report artifacts; returns the count of findings plus baseline
/// regressions.
fn run_lint(args: &[String]) -> Result<usize, String> {
    let mut root = None;
    let mut json_out: Option<PathBuf> = None;
    let mut callgraph_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path_arg = |flag: &str| -> Result<PathBuf, String> {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{flag} requires a path argument"))
        };
        match a.as_str() {
            "--root" => root = Some(path_arg("--root")?),
            "--json" => json_out = Some(path_arg("--json")?),
            "--callgraph" => callgraph_out = Some(path_arg("--callgraph")?),
            "--baseline" => baseline = Some(path_arg("--baseline")?),
            "--write-baseline" => write_baseline = Some(path_arg("--write-baseline")?),
            other => return Err(format!("unknown argument `{other}` ({USAGE})")),
        }
    }
    let root = match root {
        Some(r) => r,
        // compiled-in manifest dir: crates/xtask -> crates -> workspace root
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .ok_or("cannot locate workspace root")?
            .to_path_buf(),
    };

    let ws = neo_lint::Workspace::load(&root)?;
    let report = neo_lint::lint(&ws);
    for d in &report.diags {
        println!("{d}");
    }

    let write = |path: &Path, text: String, what: &str| -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("neo-xtask lint: wrote {what} {}", path.display());
        Ok(())
    };
    if let Some(path) = &json_out {
        write(path, neo_lint::output::to_json(&report), "report")?;
    }
    if let Some(path) = &callgraph_out {
        write(path, neo_lint::output::callgraph_json(&ws), "call graph")?;
    }
    if let Some(path) = &write_baseline {
        write(path, neo_lint::output::baseline_json(&report), "baseline")?;
    }

    let mut baseline_problems = 0usize;
    if let Some(path) = &baseline {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let diff = neo_lint::output::diff_baseline(&report, &text)?;
        for p in &diff.problems {
            println!("baseline: {p}");
        }
        for n in &diff.notes {
            println!("baseline note: {n}");
        }
        baseline_problems = diff.problems.len();
    }

    let waived: usize = report.waived.values().sum();
    if report.diags.is_empty() && baseline_problems == 0 {
        println!(
            "neo-xtask lint: ok ({} rules, {waived} waived finding(s))",
            neo_lint::RULES.len()
        );
    } else {
        println!(
            "neo-xtask lint: {} violation(s), {baseline_problems} baseline regression(s)",
            report.diags.len()
        );
    }
    Ok(report.diags.len() + baseline_problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a miniature workspace on disk and asserts the CLI catches a
    /// seeded violation, passes a clean tree, and emits parseable JSON,
    /// call-graph and baseline artifacts — the end-to-end contract `ci.sh`
    /// gate 3 relies on. Rule-by-rule coverage lives in
    /// `crates/lint/tests/fixtures.rs`.
    #[test]
    fn seeded_violation_yields_diagnostics_and_clean_tree_passes() {
        let base = std::env::temp_dir().join(format!("neo-xtask-lint-{}", std::process::id()));
        let src = base.join("crates/tensor/src");
        fs::create_dir_all(&src).unwrap();
        fs::write(base.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(
            src.parent().unwrap().join("Cargo.toml"),
            "[package]\nname=\"tensor\"\n",
        )
        .unwrap();
        let arg = |p: &Path| p.to_string_lossy().into_owned();
        let root_args = ["--root".to_owned(), arg(&base)];

        // the kernel root `matmul` reaches an allocation in `g`
        let dirty = "pub fn matmul(out: &mut [f32], a: &[f32]) {\n    g(out, a);\n}\n\
                     fn g(out: &mut [f32], a: &[f32]) {\n    let s = a.to_vec();\n    \
                     out.copy_from_slice(&s);\n}\n";
        fs::write(src.join("lib.rs"), dirty).unwrap();
        let json_path = base.join("out/lint.json");
        let graph_path = base.join("out/callgraph.json");
        let n = run_lint(&[
            root_args[0].clone(),
            root_args[1].clone(),
            "--json".into(),
            arg(&json_path),
            "--callgraph".into(),
            arg(&graph_path),
        ])
        .unwrap();
        assert_eq!(n, 1, "exactly the seeded hot_path_alloc finding");
        let report = neo_telemetry::json::parse(&fs::read_to_string(&json_path).unwrap())
            .expect("JSON report parses");
        let findings = report.get("findings").and_then(|f| f.as_array()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(|r| r.as_str()),
            Some("hot_path_alloc")
        );
        let graph = neo_telemetry::json::parse(&fs::read_to_string(&graph_path).unwrap())
            .expect("call-graph artifact parses");
        assert_eq!(
            graph.get("schema").and_then(|s| s.as_str()),
            Some("neo-callgraph/1")
        );
        let nodes = graph.get("nodes").and_then(|n| n.as_array()).unwrap();
        assert_eq!(nodes.len(), 2, "the fixture fns `matmul` and `g`");
        assert!(graph.get("roots").and_then(|r| r.as_object()).is_some());

        let clean = "pub fn matmul(out: &mut [f32], a: &[f32]) {\n    g(out, a);\n}\n\
                     fn g(out: &mut [f32], a: &[f32]) {\n    out.copy_from_slice(a);\n}\n";
        fs::write(src.join("lib.rs"), clean).unwrap();
        let baseline_path = base.join("out/lint_baseline.json");
        let wrote = run_lint(&[
            root_args[0].clone(),
            root_args[1].clone(),
            "--write-baseline".into(),
            arg(&baseline_path),
        ])
        .unwrap();
        assert_eq!(wrote, 0);
        // a clean tree diffs clean against its own baseline
        let diffed = run_lint(&[
            root_args[0].clone(),
            root_args[1].clone(),
            "--baseline".into(),
            arg(&baseline_path),
        ])
        .unwrap();
        assert_eq!(diffed, 0);

        // a waiver the baseline does not allow fails the gate even though
        // the finding itself is suppressed
        let waived = "pub fn matmul(out: &mut [f32], a: &[f32]) {\n    g(out, a);\n}\n\
                      fn g(out: &mut [f32], a: &[f32]) {\n    \
                      // lint: allow(hot_path_alloc) — demo waiver for the baseline gate\n    \
                      let s = a.to_vec();\n    out.copy_from_slice(&s);\n}\n";
        fs::write(src.join("lib.rs"), waived).unwrap();
        let regressed = run_lint(&[
            root_args[0].clone(),
            root_args[1].clone(),
            "--baseline".into(),
            arg(&baseline_path),
        ])
        .unwrap();
        assert_eq!(regressed, 1, "waived-count growth is a baseline regression");

        fs::remove_dir_all(&base).unwrap();
    }

    /// Member manifests of the workspace at `root` — the root package and
    /// every `<dir>/*/Cargo.toml` its `members = ["<dir>/*", ..]` globs
    /// name — and those of them without `[lints] workspace = true`.
    fn members_without_workspace_lints(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
        let text = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let members = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("members = "))
            .expect("the root manifest lists its members on one line");
        let mut manifests = vec![root.join("Cargo.toml")];
        for glob in members.trim_matches(['[', ']']).split(',') {
            let dir = glob.trim().trim_matches('"');
            let dir = dir.strip_suffix("/*").expect("members are `<dir>/*` globs");
            for entry in fs::read_dir(root.join(dir)).unwrap() {
                let manifest = entry.unwrap().path().join("Cargo.toml");
                if manifest.is_file() {
                    manifests.push(manifest);
                }
            }
        }
        manifests.sort();
        let inherits = |m: &PathBuf| {
            let mut in_lints = false;
            fs::read_to_string(m).unwrap().lines().any(|l| {
                let l = l.trim();
                if l.starts_with('[') {
                    in_lints = l == "[lints]";
                }
                in_lints && l.replace(' ', "") == "workspace=true"
            })
        };
        let missing = manifests.iter().filter(|m| !inherits(m)).cloned().collect();
        (manifests, missing)
    }

    /// The root manifest's `[workspace.lints]` (no `unsafe`, no warnings)
    /// binds only the members that opt in: every one must.
    #[test]
    fn member_manifests_inherit_workspace_lints() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = here.ancestors().nth(2).unwrap();
        let (manifests, missing) = members_without_workspace_lints(root);
        assert!(
            manifests.contains(&here.join("Cargo.toml")),
            "{manifests:?}"
        );
        assert!(manifests.iter().any(|m| m.starts_with(root.join("shims"))));
        assert!(
            missing.is_empty(),
            "no `[lints] workspace = true` in {missing:?}"
        );
    }

    /// The seeded failing case: of three members, the one without a
    /// `[lints]` table and the one with `workspace = false` are named.
    #[test]
    fn a_member_without_workspace_lints_is_named() {
        let base = std::env::temp_dir().join(format!("neo-xtask-lints-{}", std::process::id()));
        let member = |name: &str, tail: &str| {
            let dir = base.join("crates").join(name);
            fs::create_dir_all(&dir).unwrap();
            let text = format!("[package]\nname = \"{name}\"\n{tail}");
            fs::write(dir.join("Cargo.toml"), text).unwrap();
        };
        fs::create_dir_all(&base).unwrap();
        let root = "[workspace]\nmembers = [\"crates/*\"]\n\n[lints]\nworkspace = true\n";
        fs::write(base.join("Cargo.toml"), root).unwrap();
        member("good", "\n[lints]\nworkspace = true\n");
        member("bare", "workspace = true\n");
        member("opted_out", "\n[lints]\nworkspace = false\n");
        let (manifests, missing) = members_without_workspace_lints(&base);
        assert_eq!(manifests.len(), 4);
        let crates = base.join("crates");
        assert_eq!(
            missing,
            vec![
                crates.join("bare/Cargo.toml"),
                crates.join("opted_out/Cargo.toml")
            ]
        );
        fs::remove_dir_all(&base).unwrap();
    }
}
