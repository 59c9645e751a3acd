//! `neo-xtask` — workspace invariant linter and telemetry-artifact checker.
//!
//! `cargo run -p neo-xtask -- lint` runs the `neo-lint` analysis engine
//! over every library source file in the workspace (crates/*/src plus
//! the root facade src/) and enforces the correctness contract behind
//! the paper's §4.1.2 reproducibility claim. The engine is a three-layer
//! pipeline — lossless token stream, cross-crate symbol index, and a
//! whole-workspace call graph with transitive reachability — feeding
//! fifteen rules (the full table lives in DESIGN.md and `neo_lint`'s
//! crate docs):
//!
//! 1. **panic** — no `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/
//!    `unimplemented!` in non-test library code unless the line carries a
//!    `// lint: allow(panic) — <reason>` annotation.
//! 2. **hash_iter** — no `HashMap`/`HashSet` iteration in the
//!    determinism-critical crates (collectives, sharding, embeddings,
//!    trainer); hash order varies run to run and breaks bitwise
//!    reproducibility.
//! 3. **crate_header** — `#![forbid(unsafe_code)]` and `#![deny(warnings)]`
//!    in every crate root.
//! 4. **props_cover** — every `pub fn` in `crates/collectives/src/group.rs`
//!    is named by a property test in `crates/collectives/tests/props.rs`.
//! 5. **span_balance** — telemetry span guards are bound rather than
//!    dropped on creation, and `begin_iteration`/`end_iteration` calls pair
//!    up within each file.
//! 6. **metric_names** — metric registrations name their metric via the
//!    constants/helpers in `crates/telemetry/src/metric.rs`, never an
//!    inline string literal.
//! 7. **lock_order** — every nested `Mutex`/`RwLock` acquisition (with
//!    calls made while a guard is held expanded transitively through the
//!    workspace call graph, across crate boundaries) must respect a single
//!    global lock order; an edge that closes a cycle in the
//!    lock-acquisition graph is a potential deadlock and is rejected unless
//!    waived with `// lint: allow(lock_order) — <reason>`.
//! 8. **lock_unwrap** — no `.lock().unwrap()` / `.read().expect(...)` /
//!    `PoisonError::into_inner` poison-propagation idioms outside
//!    `crates/sync`; code must use the `OrderedMutex`/`OrderedRwLock`
//!    wrappers, whose `lock()` recovers from poisoning by construction.
//! 9. **determinism** — no hidden run-varying inputs (`Instant::now`,
//!    `SystemTime`, thread ids, randomized hashing, host parallelism
//!    probes, order-sensitive folds over hash iteration) outside the
//!    measurement crates (telemetry, prof, bench, xtask) and the seeded
//!    chaos module.
//! 10. **comm_lane_blocking** — nothing blocking (channel `recv`, `sleep`,
//!     condvar waits, lock acquisition while holding a guard) anywhere in
//!     the call-graph reachable set of the comm-lane worker in
//!     `collectives/nonblocking.rs`, whatever crate it lives in; the lane
//!     exists to hide collective latency.
//! 11. **telemetry_taxonomy** — every `phase::X` / `metric::X` reference
//!     resolves against `neo-telemetry`'s taxonomy exports, and
//!     `.span(..)` never takes a raw string literal.
//! 12. **discarded_result** — no `let _ =` or bare-statement drops of a
//!     `Result` returned by the public collectives/trainer/dataio APIs.
//! 13. **hot_path_alloc** — no heap allocation (`clone`/`collect`/
//!     `to_vec`/`vec!`/`Box::new`/`format!`) in any fn reachable from the
//!     per-iteration kernel roots (the GEMM/MLP kernels, pooled embedding
//!     kernels, sparse optimizer, quantization); setup-time sites carry
//!     `// lint: allow(hot_path_alloc) — <reason>` waivers.
//! 14. **panic_path** — no panicking token in a non-`Result` fn that a
//!     `Result`-returning fn transitively reaches: a signature that
//!     promises `Err` must not abort through a helper instead.
//! 15. **stale_waiver** — every `// lint: allow(<rule>) — <reason>`
//!     annotation must name a known rule and actually suppress a finding;
//!     waivers that no longer fire are flagged so they cannot rot in place.
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
//! `cargo run -p neo-xtask -- json-check [--min-phases N] <files...>`
//! validates telemetry exports produced by `--telemetry`: each file must
//! parse as JSON; a metrics summary (object with a `spans` key) must carry
//! at least N distinct span phase names and no pair of spans that
//! partially overlaps on the same `(rank, lane)` — spans within one
//! execution lane come from scoped guards and may only nest, while the
//! overlapped trainer's posted collectives interleave with compute
//! legally because they run on a separate comm lane with its own
//! Chrome-trace tid. A Chrome trace (object with a `traceEvents` key)
//! must give every event a name and phase, every "X" event a timestamp
//! and duration, and must label the process (`process_name`) and every
//! thread — each rank's main lane and any comm lanes — with
//! `thread_name` metadata events.
//!
//! `cargo run -p neo-xtask -- monitor-check [--expect-clean]
//! [--expect-stall RANK,LANE] <file.jsonl>` validates a `neo-monitor`
//! event log: every line is a schema-v1 `frame` or `event` object, frame
//! numbers are sequential, sample timestamps never run backwards, and
//! each `(rank, lane)` heartbeat slot's `beats`/`iter` counters are
//! monotonically non-decreasing across frames. `--expect-clean` fails on
//! any health event (the clean-run gate); `--expect-stall RANK,LANE`
//! requires a stall event blaming exactly that slot (the chaos-injection
//! gate). A sibling `.prom` exposition, when present, is parsed with the
//! real Prometheus text-format checker in `neo_monitor::prom`:
//! metric-name and label syntax, value/timestamp grammar, `# TYPE` /
//! `# HELP` metadata placement, and no duplicate series.
//!
//! `cargo run -p neo-xtask -- workload-check <workload.json>` validates a
//! `neo-workload` artifact produced by `quickstart --workload`: the
//! schema parses, per-table pooling mass and bag counts are conserved
//! against the lookup counters, shard-level lookups sum (or, for
//! column-sharded tables, replicate) to the table totals, the hot-row
//! top-K is supported by the count-min sketch, unique-row traffic is
//! bounded by both the lookup count and the table size, and
//! model-parallel index traffic is consistent with the trainer's
//! `comm.*` byte counters.
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
     | neo-xtask json-check [--min-phases N] <files...> \
     | neo-xtask monitor-check [--expect-clean] [--expect-stall RANK,LANE] <file.jsonl> \
     | neo-xtask workload-check <workload.json> \
     | neo-xtask overhead \
     | neo-xtask interleave [--seeds N] [--seed S] [--iters K]";

/// Dispatches to a subcommand; returns the number of problems found.
fn run(args: &[String]) -> Result<usize, String> {
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("json-check") => run_json_check(&args[1..]),
        Some("monitor-check") => run_monitor_check(&args[1..]),
        Some("workload-check") => run_workload_check(&args[1..]),
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

/// Validates telemetry export files; returns the number of bad files.
fn run_json_check(args: &[String]) -> Result<usize, String> {
    let mut min_phases = 0usize;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--min-phases" => {
                let v = it.next().ok_or("--min-phases requires a number")?;
                min_phases = v
                    .parse()
                    .map_err(|_| format!("invalid --min-phases value `{v}`"))?;
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        return Err(format!("json-check needs at least one file ({USAGE})"));
    }
    let mut problems = 0usize;
    for path in &files {
        let shown = path.display();
        let text = fs::read_to_string(path).map_err(|e| format!("reading {shown}: {e}"))?;
        let doc = match neo_telemetry::json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                println!("{shown}: invalid JSON: {e}");
                problems += 1;
                continue;
            }
        };
        if let Some(spans) = doc.get("spans").and_then(|s| s.as_array()) {
            let mut names: Vec<&str> = spans
                .iter()
                .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
                .collect();
            let total = spans.len();
            names.sort_unstable();
            names.dedup();
            let tangled = tangled_spans(spans);
            if names.len() < min_phases {
                println!(
                    "{shown}: only {} distinct span phase(s), need at least {min_phases}",
                    names.len()
                );
                problems += 1;
            } else if tangled > 0 {
                println!(
                    "{shown}: {tangled} span pair(s) partially overlap on the same \
                     (rank, lane); spans may only nest within a lane (overlapped \
                     collectives belong on their own comm lane)"
                );
                problems += 1;
            } else {
                println!(
                    "{shown}: ok ({} distinct phases across {total} spans)",
                    names.len()
                );
            }
        } else if let Some(events) = doc.get("traceEvents").and_then(|e| e.as_array()) {
            let mut bad = Vec::new();
            let malformed = events
                .iter()
                .filter(|e| {
                    let ph = e.get("ph").and_then(|p| p.as_str());
                    e.get("name").and_then(|n| n.as_str()).is_none()
                        || ph.is_none()
                        || (ph == Some("X")
                            && (e.get("ts").and_then(|t| t.as_f64()).is_none()
                                || e.get("dur").and_then(|d| d.as_f64()).is_none()))
                })
                .count();
            if malformed > 0 {
                bad.push(format!(
                    "{malformed} trace event(s) missing name/ph (or ts/dur on \"X\" events)"
                ));
            }
            let meta_names: Vec<&str> = events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
                .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
                .collect();
            if !meta_names.contains(&"process_name") {
                bad.push("no process_name metadata event".into());
            }
            let thread_tids: Vec<u64> = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("M")
                        && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                })
                .filter_map(|e| e.get("tid").and_then(|t| t.as_f64()))
                .map(|t| t as u64)
                .collect();
            let unlabeled = events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .filter_map(|e| e.get("tid").and_then(|t| t.as_f64()))
                .map(|t| t as u64)
                .filter(|tid| !thread_tids.contains(tid))
                .count();
            if unlabeled > 0 {
                bad.push(format!(
                    "{unlabeled} span event(s) on ranks without a thread_name metadata event"
                ));
            }
            if bad.is_empty() {
                println!("{shown}: ok ({} trace events)", events.len());
            } else {
                for b in &bad {
                    println!("{shown}: {b}");
                }
                problems += 1;
            }
        } else {
            println!("{shown}: ok (parsed, no span payload)");
        }
    }
    Ok(problems)
}

/// Counts span pairs that *partially* overlap while sharing a `(rank,
/// lane)` — a malformed timeline. Spans on one execution lane come from
/// scoped guards, so they may nest but never cross; the overlapped
/// (Fig. 9) trainer's posted collectives interleave with compute
/// legally because they run on a separate comm lane (`lane > 0`, its
/// own Chrome-trace tid), which this check deliberately permits. Span
/// records without a `lane` key are lane 0 (pre-lane exports).
fn tangled_spans(spans: &[neo_telemetry::json::Json]) -> usize {
    type LaneIntervals = Vec<((u64, u64), Vec<(f64, f64)>)>;
    let mut by_lane: LaneIntervals = Vec::new();
    for s in spans {
        let rank = s.get("rank").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let lane = s.get("lane").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let (Some(start), Some(end)) = (
            s.get("start_ns").and_then(|v| v.as_f64()),
            s.get("end_ns").and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        let key = (rank, lane);
        match by_lane.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push((start, end)),
            None => by_lane.push((key, vec![(start, end)])),
        }
    }
    let mut tangled = 0usize;
    for (_, mut iv) in by_lane {
        // sort by start ascending, longest first on ties so parents precede
        iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<f64> = Vec::new();
        for (start, end) in iv {
            while stack.last().is_some_and(|&e| e <= start) {
                stack.pop();
            }
            if stack.last().is_some_and(|&e| end > e) {
                tangled += 1; // starts inside an open span, ends after it
            }
            stack.push(end);
        }
    }
    tangled
}

/// Validates a `neo-monitor` JSONL event log (and its sibling `.prom`
/// exposition when present): every line is schema-v1 `frame`/`event`,
/// frame numbers are sequential, sample timestamps never run backwards,
/// and each `(rank, lane)` heartbeat slot's `beats` and `iter` counters
/// are monotonically non-decreasing across frames. `--expect-clean`
/// additionally fails on any health event; `--expect-stall RANK,LANE`
/// requires a stall event blaming exactly that slot. Returns the number
/// of problems found.
fn run_monitor_check(args: &[String]) -> Result<usize, String> {
    let mut expect_clean = false;
    let mut expect_stall: Option<(u64, u64)> = None;
    let mut file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--expect-clean" => expect_clean = true,
            "--expect-stall" => {
                let v = it.next().ok_or("--expect-stall requires RANK,LANE")?;
                let (r, l) = v
                    .split_once(',')
                    .ok_or_else(|| format!("invalid --expect-stall value `{v}`"))?;
                let parse = |s: &str| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --expect-stall value `{v}`"))
                };
                expect_stall = Some((parse(r)?, parse(l)?));
            }
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}` ({USAGE})")),
        }
    }
    let path = file.ok_or_else(|| format!("monitor-check needs a JSONL file ({USAGE})"))?;
    let shown = path.display();
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {shown}: {e}"))?;

    let mut problems = 0usize;
    let mut bad = |msg: String| {
        println!("{msg}");
        problems += 1;
    };
    let num = |j: &neo_telemetry::json::Json, key: &str| -> Option<u64> {
        j.get(key).and_then(|v| v.as_f64()).map(|v| v as u64)
    };
    let mut frames = 0u64;
    let mut events = 0usize;
    let mut last_t_ns = 0u64;
    let mut stall_seen = false;
    // per-(rank, lane): (beats, iter) from the previous frame
    let mut slots: Vec<((u64, u64), (u64, u64))> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = format!("{shown}:{}", lineno + 1);
        let doc = match neo_telemetry::json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                bad(format!("{at}: invalid JSON: {e}"));
                continue;
            }
        };
        if num(&doc, "v") != Some(1) {
            bad(format!("{at}: missing or unsupported schema version"));
            continue;
        }
        let t_ns = num(&doc, "t_ns");
        match t_ns {
            Some(t) if t >= last_t_ns => last_t_ns = t,
            Some(t) => bad(format!("{at}: t_ns {t} runs backwards (< {last_t_ns})")),
            None => bad(format!("{at}: missing t_ns")),
        }
        match doc.get("kind").and_then(|k| k.as_str()) {
            Some("frame") => {
                if num(&doc, "frame") != Some(frames) {
                    bad(format!("{at}: expected frame number {frames}"));
                }
                frames += 1;
                let Some(hbs) = doc.get("heartbeats").and_then(|h| h.as_array()) else {
                    bad(format!("{at}: frame without heartbeats array"));
                    continue;
                };
                for h in hbs {
                    let (Some(rank), Some(lane), Some(iter), Some(beats)) = (
                        num(h, "rank"),
                        num(h, "lane"),
                        num(h, "iter"),
                        num(h, "beats"),
                    ) else {
                        bad(format!("{at}: heartbeat missing rank/lane/iter/beats"));
                        continue;
                    };
                    let state = h.get("state").and_then(|s| s.as_str()).unwrap_or("");
                    if !["idle", "iterating", "span", "exchange"].contains(&state) {
                        bad(format!("{at}: unknown heartbeat state `{state}`"));
                    }
                    match slots.iter_mut().find(|(k, _)| *k == (rank, lane)) {
                        Some((_, prev)) => {
                            if beats < prev.0 || iter < prev.1 {
                                bad(format!(
                                    "{at}: heartbeat (rank {rank}, lane {lane}) went \
                                     backwards: beats {} -> {beats}, iter {} -> {iter}",
                                    prev.0, prev.1
                                ));
                            }
                            *prev = (beats, iter);
                        }
                        None => slots.push(((rank, lane), (beats, iter))),
                    }
                }
            }
            Some("event") => {
                events += 1;
                let kind = doc.get("event").and_then(|e| e.as_str()).unwrap_or("");
                if !["stall", "hang", "straggler"].contains(&kind) {
                    bad(format!("{at}: unknown event kind `{kind}`"));
                }
                let rank = num(&doc, "rank");
                if rank.is_none() {
                    bad(format!("{at}: event without a rank"));
                }
                if expect_clean {
                    bad(format!(
                        "{at}: unexpected health event on a clean run: {line}"
                    ));
                }
                if let Some((r, l)) = expect_stall {
                    if kind == "stall" && rank == Some(r) && num(&doc, "lane") == Some(l) {
                        stall_seen = true;
                    }
                }
            }
            other => bad(format!("{at}: unknown line kind {other:?}")),
        }
    }
    if frames == 0 {
        bad(format!("{shown}: no frames recorded"));
    }
    if let Some((r, l)) = expect_stall {
        if !stall_seen {
            bad(format!(
                "{shown}: expected a stall event blaming rank {r} lane {l}, found none"
            ));
        }
    }

    let prom = path.with_extension("prom");
    if prom.exists() {
        let ptext =
            fs::read_to_string(&prom).map_err(|e| format!("reading {}: {e}", prom.display()))?;
        for problem in neo_monitor::prom::check_exposition(&ptext) {
            bad(format!("{}: {problem}", prom.display()));
        }
    }

    if problems == 0 {
        println!(
            "{shown}: ok ({frames} frame(s), {events} event(s), {} heartbeat slot(s))",
            slots.len()
        );
    }
    Ok(problems)
}

/// Validates a `neo-workload` artifact (`workload.json` from
/// `quickstart --workload`): schema, per-table count conservation
/// (pooling mass == lookups, bags == pooling samples), kind-aware
/// shard-to-table conservation (column slices replicate the stream, all
/// other kinds partition it), hot-row top-K supported by the count-min
/// sketch, unique-row bounds, and index-traffic consistency with the
/// trainer's `comm.*` byte counters. Returns the number of problems.
fn run_workload_check(args: &[String]) -> Result<usize, String> {
    let [file] = args else {
        return Err(format!("workload-check needs exactly one file ({USAGE})"));
    };
    let path = PathBuf::from(file);
    let shown = path.display();
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {shown}: {e}"))?;
    let report =
        neo_workload::WorkloadReport::parse(&text).map_err(|e| format!("parsing {shown}: {e}"))?;

    let mut problems = 0usize;
    let mut bad = |msg: String| {
        println!("{shown}: {msg}");
        problems += 1;
    };
    for t in &report.tables {
        let tag = format!("table {}", t.table);
        if t.pooling.sum != t.lookups {
            bad(format!(
                "{tag}: pooling mass {} != lookups {} (lengths and indices disagree)",
                t.pooling.sum, t.lookups
            ));
        }
        if t.pooling.total != t.bags {
            bad(format!(
                "{tag}: pooling samples {} != bags {}",
                t.pooling.total, t.bags
            ));
        }
        if t.unique_rows > t.lookups.min(t.rows) {
            bad(format!(
                "{tag}: unique_rows {} exceeds min(lookups {}, rows {})",
                t.unique_rows, t.lookups, t.rows
            ));
        }
        if t.lookups > 0 && t.unique_rows == 0 {
            bad(format!("{tag}: traffic recorded but no unique rows"));
        }
        if t.sketch_total != t.lookups {
            bad(format!(
                "{tag}: sketch total {} != lookups {} (top-K support is stale)",
                t.sketch_total, t.lookups
            ));
        }
        for &(row, est) in &t.top_rows {
            if est == 0 || est > t.sketch_total {
                bad(format!(
                    "{tag}: top row {row} estimate {est} outside the sketch support \
                     (1..={})",
                    t.sketch_total
                ));
            }
            if row >= t.rows {
                bad(format!(
                    "{tag}: top row {row} outside the table (rows {})",
                    t.rows
                ));
            }
        }
        // shard-to-table conservation, kind-aware: column slices each see
        // the identical replicated index stream; every other kind
        // partitions it
        let shards: Vec<_> = report
            .shards
            .iter()
            .filter(|s| s.table == t.table)
            .collect();
        if shards.is_empty() {
            bad(format!("{tag}: no shard samples"));
        } else if shards
            .iter()
            .any(|s| s.kind == neo_workload::ShardKind::Col)
        {
            for s in &shards {
                if s.lookups != t.lookups {
                    bad(format!(
                        "{tag}: column slice {} saw {} lookups, table saw {} \
                         (replicated streams must match)",
                        s.shard, s.lookups, t.lookups
                    ));
                }
            }
        } else {
            let sum: u64 = shards.iter().map(|s| s.lookups).sum();
            if sum != t.lookups {
                bad(format!(
                    "{tag}: shard lookups sum to {sum}, table saw {} \
                     (partitioned streams must conserve)",
                    t.lookups
                ));
            }
        }
    }
    // Every model-parallel lookup moved one u64 index over the wire, so
    // the trainer's comm.* byte counters bound the index traffic from
    // below. (comm_bytes also carries pooled embeddings and gradients;
    // equality is not expected.)
    let mp_index_bytes: u64 = report
        .shards
        .iter()
        .filter(|s| s.kind != neo_workload::ShardKind::Dp)
        .map(|s| s.lookups * 8)
        .sum();
    if report.comm_bytes > 0 && mp_index_bytes > report.comm_bytes {
        bad(format!(
            "index traffic {mp_index_bytes} B exceeds total collective traffic {} B",
            report.comm_bytes
        ));
    }
    if problems == 0 {
        let imb = report.imbalance();
        println!(
            "{shown}: ok ({} table(s), {} shard(s), lookup imbalance {:.3})",
            report.tables.len(),
            report.shards.len(),
            imb.lookup_max_over_mean
        );
    }
    Ok(problems)
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
                     pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
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
        assert_eq!(n, 1, "exactly the seeded panic finding");
        let report = neo_telemetry::json::parse(&fs::read_to_string(&json_path).unwrap())
            .expect("JSON report parses");
        let findings = report.get("findings").and_then(|f| f.as_array()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(|r| r.as_str()),
            Some("panic")
        );
        let graph = neo_telemetry::json::parse(&fs::read_to_string(&graph_path).unwrap())
            .expect("call-graph artifact parses");
        assert_eq!(
            graph.get("schema").and_then(|s| s.as_str()),
            Some("neo-callgraph/1")
        );
        let nodes = graph.get("nodes").and_then(|n| n.as_array()).unwrap();
        assert_eq!(nodes.len(), 1, "the single fixture fn `f`");
        assert!(graph.get("roots").and_then(|r| r.as_object()).is_some());

        let clean = "#![forbid(unsafe_code)]\n#![deny(warnings)]\n\
                     pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
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
                      // lint: allow(panic) — demo waiver for the baseline gate\n\
                      pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
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

    #[test]
    fn json_check_validates_exports_and_counts_phases() {
        let base = std::env::temp_dir().join(format!("neo-xtask-json-{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();
        let good = base.join("summary.json");
        fs::write(
            &good,
            r#"{"counters": {}, "gauges": {}, "histograms": {}, "spans": [
                {"rank": 0, "iter": 0, "name": "iteration", "start_ns": 0, "end_ns": 5},
                {"rank": 0, "iter": 0, "name": "emb_lookup", "start_ns": 1, "end_ns": 2}
            ]}"#,
        )
        .unwrap();
        let trace = base.join("trace.json");
        fs::write(
            &trace,
            r#"{"displayTimeUnit": "ms", "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 0,
                 "args": {"name": "neo-dlrm training"}},
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": "rank 0"}},
                {"name": "iteration", "cat": "neo", "ph": "X", "ts": 0.0, "dur": 5.0,
                 "pid": 0, "tid": 0, "args": {"iter": 0}}
            ]}"#,
        )
        .unwrap();
        // span events present but no metadata at all: must be flagged
        let unlabeled = base.join("unlabeled.json");
        fs::write(
            &unlabeled,
            r#"{"traceEvents": [
                {"name": "iteration", "cat": "neo", "ph": "X", "ts": 0.0, "dur": 5.0,
                 "pid": 0, "tid": 0, "args": {"iter": 0}}
            ]}"#,
        )
        .unwrap();
        let bad = base.join("bad.json");
        fs::write(&bad, "{not json").unwrap();

        // comm-lane spans interleaving with main-lane compute: legal
        let lanes = base.join("lanes.json");
        fs::write(
            &lanes,
            r#"{"counters": {}, "gauges": {}, "histograms": {}, "spans": [
                {"rank": 0, "iter": 0, "name": "iteration", "lane": 0, "start_ns": 0, "end_ns": 50},
                {"rank": 0, "iter": 0, "name": "emb_lookup", "lane": 0, "start_ns": 0, "end_ns": 30},
                {"rank": 0, "iter": 0, "name": "input_a2a", "lane": 1, "start_ns": 10, "end_ns": 40}
            ]}"#,
        )
        .unwrap();
        // the same interleave on ONE lane: malformed
        let tangled = base.join("tangled.json");
        fs::write(
            &tangled,
            r#"{"counters": {}, "gauges": {}, "histograms": {}, "spans": [
                {"rank": 0, "iter": 0, "name": "emb_lookup", "lane": 0, "start_ns": 0, "end_ns": 30},
                {"rank": 0, "iter": 0, "name": "input_a2a", "lane": 0, "start_ns": 10, "end_ns": 40}
            ]}"#,
        )
        .unwrap();

        let arg = |p: &Path| p.to_string_lossy().into_owned();
        let ok =
            run_json_check(&["--min-phases".into(), "2".into(), arg(&good), arg(&trace)]).unwrap();
        assert_eq!(ok, 0);
        let lane_ok = run_json_check(&["--min-phases".into(), "3".into(), arg(&lanes)]).unwrap();
        assert_eq!(lane_ok, 0, "cross-lane interleaving is legal");
        let lane_bad = run_json_check(&[arg(&tangled)]).unwrap();
        assert_eq!(lane_bad, 1, "same-lane partial overlap is flagged");
        let too_few = run_json_check(&["--min-phases".into(), "8".into(), arg(&good)]).unwrap();
        assert_eq!(too_few, 1);
        let no_meta = run_json_check(&[arg(&unlabeled)]).unwrap();
        assert_eq!(no_meta, 1);
        let unparsable = run_json_check(&[arg(&bad)]).unwrap();
        assert_eq!(unparsable, 1);

        fs::remove_dir_all(&base).unwrap();
    }

    /// `monitor-check` accepts a well-formed clean log, flags heartbeat
    /// regressions and schema breaks, and enforces the
    /// `--expect-clean` / `--expect-stall` contracts ci.sh gate 10 and
    /// the chaos-stall integration test rely on.
    #[test]
    fn monitor_check_validates_frames_heartbeats_and_expectations() {
        let base = std::env::temp_dir().join(format!("neo-xtask-monitor-{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();
        let arg = |p: &Path| p.to_string_lossy().into_owned();

        let hb = |beats: u64, iter: u64| {
            format!(
                "{{\"rank\":0,\"lane\":0,\"iter\":{iter},\"state\":\"iterating\",\
                 \"phase\":null,\"beats\":{beats},\"last_beat_ns\":10,\"last_iter_ns\":5}}"
            )
        };
        let frame = |n: u64, t: u64, hbs: &str| {
            format!(
                "{{\"v\":1,\"kind\":\"frame\",\"frame\":{n},\"t_ns\":{t},\
                 \"heartbeats\":[{hbs}],\"counters\":{{}},\"gauges\":{{}}}}"
            )
        };
        let stall = "{\"v\":1,\"kind\":\"event\",\"t_ns\":90,\"event\":\"stall\",\
                     \"rank\":1,\"lane\":1,\"iter\":4,\"phase\":\"allreduce_top\",\
                     \"quiet_ms\":300}";

        let clean = base.join("clean.jsonl");
        fs::write(
            &clean,
            format!("{}\n{}\n", frame(0, 10, &hb(3, 1)), frame(1, 20, &hb(5, 2))),
        )
        .unwrap();
        fs::write(
            clean.with_extension("prom"),
            "# TYPE neo_monitor_samples counter\nneo_monitor_samples 2\n",
        )
        .unwrap();
        assert_eq!(
            run_monitor_check(&["--expect-clean".into(), arg(&clean)]).unwrap(),
            0
        );

        let stalled = base.join("stalled.jsonl");
        fs::write(&stalled, format!("{}\n{stall}\n", frame(0, 10, &hb(3, 1)))).unwrap();
        assert_eq!(
            run_monitor_check(&["--expect-stall".into(), "1,1".into(), arg(&stalled)]).unwrap(),
            0
        );
        // the same log fails the clean-run contract
        assert_eq!(
            run_monitor_check(&["--expect-clean".into(), arg(&stalled)]).unwrap(),
            1
        );
        // ...and the wrong blamed slot fails the stall contract
        assert_eq!(
            run_monitor_check(&["--expect-stall".into(), "2,1".into(), arg(&stalled)]).unwrap(),
            1
        );

        // heartbeat counters running backwards are flagged
        let backwards = base.join("backwards.jsonl");
        fs::write(
            &backwards,
            format!("{}\n{}\n", frame(0, 10, &hb(5, 2)), frame(1, 20, &hb(3, 1))),
        )
        .unwrap();
        assert_eq!(run_monitor_check(&[arg(&backwards)]).unwrap(), 1);

        // out-of-order frame numbers and an empty log are flagged
        let misnumbered = base.join("misnumbered.jsonl");
        fs::write(&misnumbered, format!("{}\n", frame(7, 10, &hb(1, 1)))).unwrap();
        assert_eq!(run_monitor_check(&[arg(&misnumbered)]).unwrap(), 1);
        let empty = base.join("empty.jsonl");
        fs::write(&empty, "").unwrap();
        assert_eq!(run_monitor_check(&[arg(&empty)]).unwrap(), 1);

        fs::remove_dir_all(&base).unwrap();
    }

    /// `workload-check` accepts a conserved artifact built through the
    /// real collector path and flags one whose table counters were
    /// tampered with — the acceptance contract for ci.sh gate 11.
    #[test]
    fn workload_check_accepts_conserved_artifacts_and_flags_corruption() {
        use neo_workload::{ShardCollector, ShardKind, TableMeta, WorkloadReport};
        let base = std::env::temp_dir().join(format!("neo-xtask-workload-{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();
        let arg = |p: &Path| p.to_string_lossy().into_owned();

        // one table, two row shards partitioning a 64-row space at row 32
        let mut lo = ShardCollector::new(0, 0, 0, ShardKind::Row, 8, 0, 64, true);
        lo.record(&[2, 1], &[0, 1, 0]);
        let mut hi = ShardCollector::new(1, 0, 1, ShardKind::Row, 8, 32, 64, true);
        hi.record(&[1, 1], &[0, 5]); // global rows 32 and 37
        let samples = vec![lo.finish(64 * 8 * 4, None), hi.finish(64 * 8 * 4, None)];
        let report =
            WorkloadReport::from_samples(2, 1, 4, 4096, &[TableMeta { rows: 64, dim: 8 }], samples);
        let good = base.join("workload.json");
        fs::write(&good, report.to_json()).unwrap();
        assert_eq!(run_workload_check(&[arg(&good)]).unwrap(), 0);

        // tamper with the table lookup counter: conservation breaks in
        // several places at once
        let mut broken = report.clone();
        broken.tables[0].lookups += 1;
        let bad = base.join("broken.json");
        fs::write(&bad, broken.to_json()).unwrap();
        assert!(run_workload_check(&[arg(&bad)]).unwrap() >= 1);

        // and a top-K row outside the sketch support is flagged
        let mut stale = report.clone();
        stale.tables[0].top_rows.push((63, 0));
        let stale_path = base.join("stale.json");
        fs::write(&stale_path, stale.to_json()).unwrap();
        assert!(run_workload_check(&[arg(&stale_path)]).unwrap() >= 1);

        assert!(
            run_workload_check(&[]).is_err(),
            "usage error without a file"
        );
        fs::remove_dir_all(&base).unwrap();
    }
}
