//! `neo-xtask` — workspace invariant linter and artifact checker.
//!
//! `cargo run -p neo-xtask -- lint` runs the `neo-lint` analysis engine
//! over every library source file in the workspace (crates/*/src plus
//! the root facade src/) and enforces the correctness contract behind
//! the paper's §4.1.2 reproducibility claim. The engine is a three-layer
//! pipeline — lossless token stream, cross-crate symbol index, and a
//! whole-workspace call graph with transitive reachability — feeding
//! seven rules (the full table lives in DESIGN.md and `neo_lint`'s
//! crate docs):
//!
//! 1. **crate_header** — `#![forbid(unsafe_code)]` and `#![deny(warnings)]`
//!    in every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
//! 2. **props_cover** — every `pub fn` in `crates/collectives/src/group.rs`
//!    is named by a property test in `crates/collectives/tests/props.rs`.
//! 3. **lock_order** — every nested `Mutex`/`RwLock` acquisition (with
//!    calls made while a guard is held expanded transitively through the
//!    workspace call graph, across crate boundaries) must respect a single
//!    global lock order; an edge that closes a cycle in the
//!    lock-acquisition graph is a potential deadlock and is rejected unless
//!    waived with `// lint: allow(lock_order) — <reason>`.
//! 4. **comm_lane_blocking** — nothing blocking (channel `recv`, `sleep`,
//!    condvar waits, lock acquisition while holding a guard) anywhere in
//!    the call-graph reachable set of the comm-lane worker in
//!    `collectives/nonblocking.rs`, whatever crate it lives in; the lane
//!    exists to hide collective latency.
//! 5. **hot_path_alloc** — no heap allocation (`clone`/`collect`/
//!    `to_vec`/`vec!`/`Box::new`/`format!`) in any fn reachable from the
//!    per-iteration kernel roots (the GEMM/MLP kernels, pooled embedding
//!    kernels, sparse optimizer, quantization); setup-time sites carry
//!    `// lint: allow(hot_path_alloc) — <reason>` waivers.
//! 6. **panic_path** — no panicking token in a non-`Result` fn that a
//!    `Result`-returning fn transitively reaches: a signature that
//!    promises `Err` must not abort through a helper instead.
//! 7. **stale_waiver** — every `// lint: allow(<rule>) — <reason>`
//!    annotation must name a known rule and actually suppress a finding;
//!    waivers that no longer fire are flagged so they cannot rot in place.
//!
//! What clippy checks on resolved types needs no rule here: ci.sh gate 2
//! runs it with the root `clippy.toml` for panicking calls in library
//! and bin code, hash containers, `std::sync` locks, clock and
//! thread-identity reads, and dropped `#[must_use]` values; those sites
//! carry `#[expect(.., reason = ..)]`. Nor does the telemetry
//! vocabulary: spans and metrics are named by the `Phase` and `Metric`
//! enums, and the span and iteration guards are `#[must_use]`, so the
//! compiler rejects a misspelt name, an inline string and a guard
//! dropped where it is made.
//!
//! Flags: `--json FILE` writes the machine-readable `neo-lint/1` report,
//! `--callgraph FILE` dumps the `neo-callgraph/1` artifact (nodes, edges,
//! per-rule root sets and reachable-set sizes) for offline analysis,
//! `--baseline FILE` diffs waived-finding counts against the committed
//! `neo-lint-baseline/2` baseline (growth fails the gate even though the
//! findings are waived; reachable-set drift is reported as a note), and
//! `--write-baseline FILE` regenerates that baseline after review.
//!
//! `cargo run --release -p neo-xtask -- interleave [--seeds N] [--seed S]
//! [--iters K]` runs the seeded schedule-perturbation harness: for each
//! seed it arms the `neo-sync` chaos layer, trains the overlapped (Fig. 9)
//! trainer at w ∈ {2, 4}, and asserts the result is bitwise identical to a
//! serial reference and free of deadlock (watchdog) and of runtime
//! lock-order violations. See `interleave.rs`.
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

#![forbid(unsafe_code)]
#![deny(warnings)]

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
    let infos = neo_lint::rule_infos();
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
        write(path, neo_lint::output::to_json(&report, &infos), "report")?;
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
            infos.len()
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
        let src = base.join("crates/demo/src");
        fs::create_dir_all(&src).unwrap();
        fs::write(base.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(
            src.parent().unwrap().join("Cargo.toml"),
            "[package]\nname=\"demo\"\n",
        )
        .unwrap();
        let arg = |p: &Path| p.to_string_lossy().into_owned();
        let root_args = ["--root".to_owned(), arg(&base)];

        let dirty = "#![forbid(unsafe_code)]\n#![deny(warnings)]\n\
                     pub fn f(x: Option<u32>) -> Result<u32, String> {\n    Ok(g(x))\n}\n\
                     fn g(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
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
        assert_eq!(n, 1, "exactly the seeded panic_path finding");
        let report = neo_telemetry::json::parse(&fs::read_to_string(&json_path).unwrap())
            .expect("JSON report parses");
        let findings = report.get("findings").and_then(|f| f.as_array()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(|r| r.as_str()),
            Some("panic_path")
        );
        let graph = neo_telemetry::json::parse(&fs::read_to_string(&graph_path).unwrap())
            .expect("call-graph artifact parses");
        assert_eq!(
            graph.get("schema").and_then(|s| s.as_str()),
            Some("neo-callgraph/1")
        );
        let nodes = graph.get("nodes").and_then(|n| n.as_array()).unwrap();
        assert_eq!(nodes.len(), 2, "the fixture fns `f` and `g`");
        assert!(graph.get("roots").and_then(|r| r.as_object()).is_some());

        let clean = "#![forbid(unsafe_code)]\n#![deny(warnings)]\n\
                     pub fn f(x: Option<u32>) -> Result<u32, String> {\n    Ok(g(x))\n}\n\
                     fn g(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
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
        let waived = "#![forbid(unsafe_code)]\n#![deny(warnings)]\n\
                      pub fn f(x: Option<u32>) -> Result<u32, String> {\n    Ok(g(x))\n}\n\
                      fn g(x: Option<u32>) -> u32 {\n    \
                      // lint: allow(panic_path) — demo waiver for the baseline gate\n    \
                      x.unwrap()\n}\n";
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
}
