//! Rules `lock_order` and `comm_lane_blocking`: the concurrency half of
//! the workspace invariants. Poison propagation needs no rule: the root
//! `clippy.toml` disallows the `std::sync` lock types outside `neo-sync`,
//! and its `Ordered*` wrappers' `lock()` already returns the guard.
//!
//! `lock_order` extracts every `Mutex`/`RwLock`/`Condvar` (and
//! `OrderedMutex`/`OrderedRwLock`) field or binding in the workspace,
//! then scans each function body for **nested acquisitions**: taking
//! lock `B` while a guard for lock `A` is still live records the
//! order-graph edge `A → B`. Calls made while a guard is held are
//! expanded **transitively** through the workspace call graph
//! ([`crate::callgraph`]): if `f` calls `g` while holding `A` and
//! anything `g` may (transitively, across crate boundaries) reach
//! acquires `B`, the edge `A → B` is recorded at the call site. Edges
//! are inserted into one global graph in deterministic (path, line)
//! order; the first edge that closes a cycle — two code paths that nest
//! the same locks in opposite orders, i.e. a potential deadlock — is
//! diagnosed at its source line, waivable with
//! `// lint: allow(lock_order) — <reason>`.
//!
//! This is the static face of the runtime validator in `neo-sync`: the
//! linter proves the *written* nesting acyclic on every path it can see,
//! the `sanitize`-armed [`neo_sync::OrderedMutex`] wrappers check the
//! *executed* nesting (including through trait objects and closures the
//! token scan cannot follow).
//!
//! Known over/under-approximations, deliberate for a token-level linter:
//! guards returned from helper functions are not tracked as held by the
//! caller (under); a callee's acquisitions are assumed reachable on
//! every call (over — waive the edge if a runtime invariant rules the
//! path out); and a `let` that **shadows** a guard binding with a
//! non-guard value ends the guard's tracked liveness (under — the real
//! guard lives until scope end, but treating it as held is the
//! false-positive class this rule used to produce).
//!
//! `comm_lane_blocking` guards the Fig. 9 overlap: the comm-lane worker
//! in `collectives/nonblocking.rs` is the thread that hides collective
//! latency behind compute, so anything that can block it — a channel
//! `recv`, a `sleep`, a condvar wait, or acquiring a lock while already
//! holding a guard — re-serializes exactly the communication the
//! overlapped schedule exists to hide. The reachable set is true
//! transitive reachability in the workspace call graph from the fns
//! defined in `nonblocking.rs`, so a blocking call buried two crates
//! deep under the lane is found at its definition site, in whatever
//! crate it lives. The lane's own job-queue `recv` *is* its idle state
//! and carries a standing waiver.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::rules::{is_ident_char, token_match, trailing_ident};
use crate::source::{Diagnostic, SourceFile};

/// Types whose fields/bindings become lock-order graph nodes.
const LOCK_TYPES: &[&str] = &[
    "OrderedMutex",
    "OrderedRwLock",
    "Mutex",
    "RwLock",
    "Condvar",
];

/// Guard-producing acquisition calls on a known lock binding.
const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Calls that park the executing thread (rule `comm_lane_blocking`).
const BLOCKING_TOKENS: &[&str] = &[
    ".recv()",
    ".recv_timeout(",
    "thread::sleep(",
    ".wait(",
    ".wait_while(",
    ".wait_timeout(",
];

/// Shortest directed path `from -> .. -> to` in `edges` (BFS), if any.
pub fn path_between<N: PartialEq + Copy>(edges: &[(N, N)], from: N, to: N) -> Option<Vec<N>> {
    let mut frontier = vec![vec![from]];
    let mut seen = vec![from];
    while let Some(trail) = frontier.pop() {
        let last = *trail.last()?;
        if last == to {
            return Some(trail);
        }
        for &(a, b) in edges {
            if a == last && !seen.contains(&b) {
                seen.push(b);
                let mut next = trail.clone();
                next.push(b);
                frontier.insert(0, next);
            }
        }
    }
    None
}

/// Whether adding the edge `from -> to` to `edges` would close a cycle.
pub fn closes_cycle<N: PartialEq + Copy>(edges: &[(N, N)], from: N, to: N) -> bool {
    from == to || path_between(edges, to, from).is_some()
}

/// One candidate order-graph edge with its source location.
struct EdgeSite<'a> {
    /// Crate-qualified lock names, `crate/field`.
    from: String,
    to: String,
    file: &'a SourceFile,
    /// 0-based line of the acquisition (or call) that creates the edge.
    line: usize,
    /// Human-readable call chain when the edge comes from transitive
    /// call expansion (the direct callee, plus the reached acquirer when
    /// it is more than one hop away).
    via: Option<String>,
}

/// Everything the per-crate scan learns.
#[derive(Default)]
struct CrateScan {
    /// fn name → lock idents it acquires directly in its body.
    fn_acquires: BTreeMap<String, BTreeSet<String>>,
    /// Nested-acquisition edges: (held, acquired, file idx, 0-based line).
    edges: Vec<(String, String, usize, usize)>,
    /// Calls to workspace fns (any crate) made while ≥1 guard was held:
    /// (held locks, callee, file idx, 0-based line).
    calls: Vec<(Vec<String>, String, usize, usize)>,
}

/// Rule `lock_order`: builds the global lock-acquisition graph over every
/// crate's sources and diagnoses the first edge closing each cycle.
/// Calls made while a guard is held are expanded through `graph`: every
/// fn the callee transitively reaches — across crate boundaries —
/// contributes its direct acquisitions as candidate edges at the call
/// site.
pub fn check_lock_order(
    crates: &[(String, Vec<SourceFile>)],
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    // calls-while-held may target any workspace fn, not just same-crate
    let all_fns: BTreeSet<String> = graph.nodes.iter().map(|n| n.name.clone()).collect();

    // phase 1: scan crates that bind locks. Crates without lock bindings
    // cannot acquire or hold, so they need no scan — but their fns still
    // exist in `graph`, which carries transitivity *through* them.
    let mut scans: Vec<(usize, CrateScan)> = Vec::new();
    for (ci, (_, files)) in crates.iter().enumerate() {
        let fields = lock_fields(files);
        if fields.is_empty() {
            continue;
        }
        let mut scan = CrateScan::default();
        for (idx, file) in files.iter().enumerate() {
            scan_file(idx, file, &fields, &all_fns, &mut scan);
        }
        scans.push((ci, scan));
    }

    // phase 2: graph node → crate-qualified locks it acquires directly
    let mut acquires_of: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (ci, scan) in &scans {
        let krate = &crates[*ci].0;
        for (fname, locks) in &scan.fn_acquires {
            let Some(node) = graph.node_of(krate, fname) else {
                continue;
            };
            acquires_of
                .entry(node)
                .or_default()
                .extend(locks.iter().map(|l| format!("{krate}/{l}")));
        }
    }

    // phase 3: direct edges, plus transitive expansion at call sites
    let mut candidates: Vec<EdgeSite<'_>> = Vec::new();
    for (ci, scan) in &scans {
        let (krate, files) = &crates[*ci];
        let qual = |lock: &str| format!("{krate}/{lock}");
        for (from, to, fi, ln) in &scan.edges {
            candidates.push(EdgeSite {
                from: qual(from),
                to: qual(to),
                file: &files[*fi],
                line: *ln,
                via: None,
            });
        }
        for (held, callee, fi, ln) in &scan.calls {
            let targets = graph.resolve_call(krate, callee);
            if targets.is_empty() {
                continue;
            }
            for node in graph.reachable_from(&targets) {
                let Some(acquired) = acquires_of.get(&node) else {
                    continue;
                };
                let via = if targets.contains(&node) {
                    callee.clone()
                } else {
                    format!("{callee}`, reaching `{}", graph.label(node))
                };
                for to in acquired {
                    for from in held {
                        candidates.push(EdgeSite {
                            from: qual(from),
                            to: to.clone(),
                            file: &files[*fi],
                            line: *ln,
                            via: Some(via.clone()),
                        });
                    }
                }
            }
        }
    }

    // deterministic insertion order so the diagnosed closing edge is stable
    candidates.sort_by(|a, b| {
        (&a.file.path, a.line, &a.from, &a.to).cmp(&(&b.file.path, b.line, &b.from, &b.to))
    });

    let mut edges: Vec<(String, String)> = Vec::new();
    let mut out = Vec::new();
    for c in candidates {
        if edges.iter().any(|(f, t)| *f == c.from && *t == c.to) {
            continue;
        }
        let view: Vec<(&str, &str)> = edges
            .iter()
            .map(|(f, t)| (f.as_str(), t.as_str()))
            .collect();
        if closes_cycle(&view, c.from.as_str(), c.to.as_str())
            && !c.file.allows(c.line, "lock_order")
        {
            let via = match &c.via {
                Some(callee) => format!(" (via call to `{callee}`)"),
                None => String::new(),
            };
            let message = if c.from == c.to {
                format!(
                    "acquires `{}` while already holding it{via}; a non-reentrant \
                     lock self-deadlocks here",
                    c.to
                )
            } else {
                let mut cyc: Vec<&str> = path_between(&view, c.to.as_str(), c.from.as_str())
                    .unwrap_or_else(|| vec![c.to.as_str(), c.from.as_str()]);
                cyc.push(c.to.as_str());
                format!(
                    "acquiring `{}` while holding `{}` closes the lock-order cycle \
                     {}{via}; another interleaving of these paths deadlocks — nest \
                     in one global order or add `// lint: allow(lock_order) — <reason>`",
                    c.to,
                    c.from,
                    cyc.join(" -> "),
                )
            };
            out.push(Diagnostic {
                path: c.file.path.clone(),
                line: c.line + 1,
                rule: "lock_order",
                message,
            });
            continue; // keep the graph acyclic so later diagnostics stay precise
        }
        edges.push((c.from, c.to));
    }
    out
}

/// Rule `comm_lane_blocking`: no blocking call — channel `recv`, `sleep`,
/// condvar wait, or lock acquisition while already holding a guard — in a
/// function reachable from the comm-lane worker. The reachable set is
/// true call-graph reachability from the fns defined in
/// `collectives/nonblocking.rs`, so every crate's files are scanned: a
/// blocking helper the lane reaches two crates away is flagged where it
/// is defined.
pub fn check_comm_lane_blocking(
    crates: &[(String, Vec<SourceFile>)],
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    let roots = crate::hotpath::comm_lane_root_nodes(graph);
    if roots.is_empty() {
        return Vec::new(); // no comm lane in this workspace
    }
    let reachable = graph.reachable_from(&roots);

    let no_calls = BTreeSet::new();
    let mut out = Vec::new();
    for (krate, files) in crates {
        let fields = lock_fields(files);
        for file in files {
            let mut depth = 0usize;
            let mut pending_fn: Option<String> = None;
            let mut open_fns: Vec<(String, usize)> = Vec::new();
            let mut guards: Vec<Guard> = Vec::new();

            let on_lane = |open_fns: &[(String, usize)]| {
                open_fns
                    .last()
                    .and_then(|(n, _)| graph.node_of(krate, n))
                    .is_some_and(|id| reachable.contains(&id))
            };

            for (ln, code) in file.code.iter().enumerate() {
                let mut events = if file.in_test[ln] {
                    brace_events(code)
                } else {
                    line_events(code, &fields, &no_calls, None)
                };
                if !file.in_test[ln] {
                    for tok in BLOCKING_TOKENS {
                        let mut from = 0;
                        while let Some(rel) = code[from..].find(tok) {
                            let at = from + rel;
                            from = at + tok.len();
                            events.push((at, Event::Blocking(tok)));
                        }
                    }
                    events.sort_by_key(|(i, _)| *i);
                }
                for (_, ev) in events {
                    match ev {
                        Event::Open => {
                            depth += 1;
                            if let Some(name) = pending_fn.take() {
                                open_fns.push((name, depth));
                            }
                        }
                        Event::Close => {
                            depth = depth.saturating_sub(1);
                            guards.retain(|g| g.depth <= depth);
                            open_fns.retain(|(_, d)| *d <= depth);
                        }
                        Event::Semi => pending_fn = None,
                        Event::FnDef(name) => pending_fn = Some(name),
                        Event::Acquire { lock, var } => {
                            if on_lane(&open_fns)
                                && !guards.is_empty()
                                && !file.allows(ln, "comm_lane_blocking")
                            {
                                let fname = open_fns.last().map(|(n, _)| n.as_str()).unwrap_or("?");
                                out.push(Diagnostic {
                                    path: file.path.clone(),
                                    line: ln + 1,
                                    rule: "comm_lane_blocking",
                                    message: format!(
                                        "acquires `{lock}` while already holding a guard in \
                                         `{fname}`, which is reachable from the comm-lane \
                                         worker; a contended lock here stalls the lane and \
                                         re-exposes the communication the overlap hides — \
                                         restructure, or add \
                                         `// lint: allow(comm_lane_blocking) — <reason>`"
                                    ),
                                });
                            }
                            if var.is_some() {
                                guards.push(Guard { var, lock, depth });
                            }
                        }
                        Event::Let(name) => {
                            guards.retain(|g| g.var.as_deref() != Some(name.as_str()));
                        }
                        Event::Drop(var) => {
                            guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                        }
                        Event::Blocking(tok) => {
                            if !on_lane(&open_fns) {
                                continue;
                            }
                            if file.allows(ln, "comm_lane_blocking") {
                                continue;
                            }
                            let fname = open_fns.last().map(|(n, _)| n.as_str()).unwrap_or("?");
                            out.push(Diagnostic {
                                path: file.path.clone(),
                                line: ln + 1,
                                rule: "comm_lane_blocking",
                                message: format!(
                                    "`{tok}` blocks `{fname}`, which is reachable from the \
                                     comm-lane worker; the lane must stay non-blocking to \
                                     hide collective latency (Fig. 9 overlap) — move the \
                                     wait off-lane, or add \
                                     `// lint: allow(comm_lane_blocking) — <reason>`"
                                ),
                            });
                        }
                        Event::Call(_) => {}
                    }
                }
            }
        }
    }
    out
}

/// Identifiers bound to a lock type anywhere in `files`: struct fields,
/// statics, params, and let bindings (`name: Mutex<..>` / `name =
/// Mutex::new(..)`), with qualified-path and `&`/`&mut` prefixes walked
/// back.
fn lock_fields(files: &[SourceFile]) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    for file in files {
        for (ln, code) in file.code.iter().enumerate() {
            if file.in_test[ln] {
                continue;
            }
            for ty in LOCK_TYPES {
                let mut from = 0;
                while let Some(rel) = code[from..].find(ty) {
                    let at = from + rel;
                    from = at + ty.len();
                    // boundary: `Mutex` inside `OrderedMutex` is not a match
                    if code[..at].chars().next_back().is_some_and(is_ident_char)
                        || code[at + ty.len()..]
                            .chars()
                            .next()
                            .is_some_and(is_ident_char)
                    {
                        continue;
                    }
                    if let Some(name) = binding_before(&code[..at]) {
                        fields.insert(name);
                    }
                }
            }
        }
    }
    fields
}

/// The identifier bound at the end of `prefix` when it shapes like
/// `.. name: <TY` or `.. name = <TY`, walking back over qualified-path
/// segments (`std::sync::`) and reference sigils.
fn binding_before(prefix: &str) -> Option<String> {
    let mut prefix = prefix.trim_end();
    while let Some(p) = prefix.strip_suffix("::") {
        let seg = p.trim_end();
        let start = seg
            .rfind(|c: char| !is_ident_char(c))
            .map(|i| i + 1)
            .unwrap_or(0);
        if start == seg.len() {
            return None; // `::` not preceded by an identifier segment
        }
        prefix = seg[..start].trim_end();
    }
    loop {
        let before = prefix;
        prefix = prefix.trim_end_matches(['&', ' ']).trim_end();
        if let Some(p) = prefix.strip_suffix("mut") {
            if p.is_empty() || p.ends_with([' ', '&', '(']) {
                prefix = p.trim_end();
            }
        }
        if prefix == before {
            break;
        }
    }
    let lead = prefix
        .strip_suffix(':')
        .or_else(|| prefix.strip_suffix('='))?;
    trailing_ident(lead)
}

/// A live guard binding inside a function body.
struct Guard {
    /// Bound variable, when the acquisition was a `let`; temporaries are
    /// released within their own statement and never enter the stack.
    var: Option<String>,
    lock: String,
    /// Brace depth the binding lives at; popped when its block closes.
    depth: usize,
}

/// Positional events on one source line, processed left to right.
enum Event {
    Open,
    Close,
    Semi,
    FnDef(String),
    Acquire {
        lock: String,
        var: Option<String>,
    },
    Call(String),
    Drop(String),
    /// A non-acquisition `let <name> = …` — shadows (and for tracking
    /// purposes releases) any live guard bound to the same name.
    Let(String),
    /// A blocking call token (only emitted by `comm_lane_blocking`).
    Blocking(&'static str),
}

/// Scans one file's function bodies for nested acquisitions and
/// calls-while-held, accumulating into `scan`.
fn scan_file(
    file_idx: usize,
    file: &SourceFile,
    fields: &BTreeSet<String>,
    fns: &BTreeSet<String>,
    scan: &mut CrateScan,
) {
    let mut depth = 0usize;
    let mut pending_fn: Option<String> = None;
    // (fn name, depth of its body's opening brace)
    let mut open_fns: Vec<(String, usize)> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();

    for (ln, code) in file.code.iter().enumerate() {
        let events = if file.in_test[ln] {
            // depth bookkeeping only: test items still open/close braces
            brace_events(code)
        } else {
            line_events(code, fields, fns, open_fns.last().map(|(n, _)| n.as_str()))
        };
        for (_, ev) in events {
            match ev {
                Event::Open => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        open_fns.push((name, depth));
                    }
                }
                Event::Close => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    open_fns.retain(|(_, d)| *d <= depth);
                }
                Event::Semi => {
                    pending_fn = None; // trait/extern signature without a body
                }
                Event::FnDef(name) => pending_fn = Some(name),
                Event::Acquire { lock, var } => {
                    if open_fns.is_empty() {
                        continue;
                    }
                    let mut held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
                    held.dedup();
                    for h in held {
                        scan.edges.push((h.to_owned(), lock.clone(), file_idx, ln));
                    }
                    if let Some((fname, _)) = open_fns.last() {
                        scan.fn_acquires
                            .entry(fname.clone())
                            .or_default()
                            .insert(lock.clone());
                    }
                    if var.is_some() {
                        guards.push(Guard { var, lock, depth });
                    }
                }
                Event::Call(callee) => {
                    if guards.is_empty() {
                        continue;
                    }
                    let mut held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
                    held.dedup();
                    scan.calls.push((held, callee, file_idx, ln));
                }
                Event::Let(name) => {
                    // a later `let` of the same name shadows the guard
                    // binding; stop tracking it (documented under-approx.)
                    guards.retain(|g| g.var.as_deref() != Some(name.as_str()));
                }
                Event::Drop(var) => {
                    guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
                Event::Blocking(_) => {}
            }
        }
    }
}

/// Brace positions only (for `#[cfg(test)]` regions).
fn brace_events(code: &str) -> Vec<(usize, Event)> {
    code.char_indices()
        .filter_map(|(i, c)| match c {
            '{' => Some((i, Event::Open)),
            '}' => Some((i, Event::Close)),
            _ => None,
        })
        .collect()
}

/// All events on `code`, sorted by column. `current_fn` suppresses
/// self-recursive call edges.
fn line_events(
    code: &str,
    fields: &BTreeSet<String>,
    fns: &BTreeSet<String>,
    current_fn: Option<&str>,
) -> Vec<(usize, Event)> {
    let mut events = brace_events(code);
    for (i, c) in code.char_indices() {
        if c == ';' {
            events.push((i, Event::Semi));
        }
    }

    // fn definitions
    let mut from = 0;
    while let Some(rel) = token_match(&code[from..], "fn ") {
        let at = from + rel + "fn ".len();
        from = at;
        let name: String = code[at..]
            .chars()
            .take_while(|c| is_ident_char(*c))
            .collect();
        if !name.is_empty() {
            events.push((at, Event::FnDef(name)));
        }
    }

    // acquisitions on known lock bindings
    let mut acquire_at: Vec<usize> = Vec::new();
    let mut acquired_vars: Vec<String> = Vec::new();
    for tok in ACQUIRE_TOKENS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(tok) {
            let at = from + rel;
            from = at + tok.len();
            let Some(recv) = trailing_ident(&code[..at]) else {
                continue;
            };
            if !fields.contains(&recv) {
                continue;
            }
            acquire_at.push(at);
            let var = let_binding_before(code, at);
            if let Some(v) = &var {
                acquired_vars.push(v.clone());
            }
            events.push((at, Event::Acquire { lock: recv, var }));
        }
    }

    // shadowing `let` rebinds: a `let name = …` whose value is NOT a lock
    // acquisition ends the tracked liveness of a same-named guard
    let mut from = 0;
    while let Some(rel) = token_match(&code[from..], "let ") {
        let at = from + rel;
        from = at + "let ".len();
        let Some(eq) = non_comparison_eq(&code[at..]) else {
            continue;
        };
        let Some(name) = trailing_ident(&code[at..at + eq]) else {
            continue;
        };
        if acquired_vars.contains(&name) {
            continue; // the Acquire event already manages this binding
        }
        events.push((at, Event::Let(name)));
    }

    // drop(var) releases
    let mut from = 0;
    while let Some(rel) = token_match(&code[from..], "drop(") {
        let at = from + rel + "drop(".len();
        from = at;
        let var: String = code[at..]
            .chars()
            .take_while(|c| is_ident_char(*c))
            .collect();
        if !var.is_empty() && code[at + var.len()..].starts_with(')') {
            events.push((at, Event::Drop(var)));
        }
    }

    // calls to known fns, free `f(..)` and method `.f(..)` forms, in one
    // pass: `fns` is workspace-wide, so a per-name scan would be
    // O(names × line)
    let cs: Vec<(usize, char)> = code.char_indices().collect();
    let mut k = 0;
    while k < cs.len() {
        let (bi, c) = cs[k];
        if !(c.is_ascii_alphabetic() || c == '_') || (k > 0 && is_ident_char(cs[k - 1].1)) {
            k += 1;
            continue;
        }
        let start = k;
        while k < cs.len() && is_ident_char(cs[k].1) {
            k += 1;
        }
        // only `name(` shapes are calls
        if cs.get(k).map(|&(_, ch)| ch) != Some('(') {
            continue;
        }
        let end = cs[k].0;
        let name = &code[bi..end];
        if Some(name) == current_fn {
            continue; // recursion: the callee's locks are this fn's own
        }
        if !fns.contains(name) {
            continue;
        }
        if code[..bi].ends_with("fn ") {
            continue; // the definition, not a call
        }
        // method form at an acquisition position: `.lock()` on a lock
        // field where some crate also defines `fn lock` is an Acquire
        if start > 0 && cs[start - 1].1 == '.' && acquire_at.contains(&cs[start - 1].0) {
            continue;
        }
        events.push((bi, Event::Call(name.to_owned())));
    }

    events.sort_by_key(|(i, _)| *i);
    events
}

/// Byte offset (within `stmt`) of the first `=` that is a plain
/// assignment, skipping `==`, `>=`, `<=`, `!=`, and `=>`.
fn non_comparison_eq(stmt: &str) -> Option<usize> {
    let eq = stmt.find('=')?;
    let next = stmt[eq + 1..].chars().next();
    let prev = stmt[..eq].chars().next_back();
    if next == Some('=') || next == Some('>') || matches!(prev, Some('=' | '>' | '<' | '!')) {
        return None;
    }
    Some(eq)
}

/// When the statement containing column `at` binds its value (`let name =
/// ...<at>`), the bound variable name.
fn let_binding_before(code: &str, at: usize) -> Option<String> {
    // statement starts after the last `;` or `{` before `at`
    let prefix = &code[..at];
    let start = prefix.rfind([';', '{']).map(|i| i + 1).unwrap_or(0);
    let stmt = &prefix[start..];
    let let_at = token_match(stmt, "let ")?;
    let eq = non_comparison_eq(&stmt[let_at..]).map(|i| let_at + i)?;
    trailing_ident(&stmt[..eq])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{any, collection, proptest, Strategy};
    use std::path::Path;

    fn krate(name: &str, texts: &[&str]) -> (String, Vec<SourceFile>) {
        let files = texts
            .iter()
            .enumerate()
            .map(|(i, t)| SourceFile::parse(Path::new(&format!("crates/{name}/src/f{i}.rs")), t))
            .collect();
        (name.to_owned(), files)
    }

    fn collectives(texts: &[(&str, &str)]) -> (String, Vec<SourceFile>) {
        let files = texts
            .iter()
            .map(|(fname, t)| {
                SourceFile::parse(Path::new(&format!("crates/collectives/src/{fname}")), t)
            })
            .collect();
        ("collectives".to_owned(), files)
    }

    fn graph_of(crates: &[(String, Vec<SourceFile>)]) -> CallGraph {
        CallGraph::build(crates, &crate::symbols::SymbolIndex::build(crates))
    }

    fn lock_order(crates: &[(String, Vec<SourceFile>)]) -> Vec<Diagnostic> {
        check_lock_order(crates, &graph_of(crates))
    }

    fn comm_lane(crates: &[(String, Vec<SourceFile>)]) -> Vec<Diagnostic> {
        check_comm_lane_blocking(crates, &graph_of(crates))
    }

    const TWO_LOCKS: &str = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn opposite_nesting_closes_a_cycle() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}}\n"
        );
        let diags = lock_order(&[krate("demo", &[&src])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lock_order");
        assert_eq!(diags[0].line, 8, "closing edge in fn two");
        assert!(diags[0].message.contains("demo/a"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("demo/a -> demo/b -> demo/a"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn consistent_nesting_and_sequential_blocks_are_clean() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}}\n\
             fn seq(s: &S) {{\n    {{ let g = s.a.lock(); }}\n    {{ let g = s.a.lock(); }}\n}}\n"
        );
        assert!(lock_order(&[krate("demo", &[&src])]).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let ga = s.a.lock();\n    drop(ga);\n    let gb = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let gb = s.b.lock();\n    drop(gb);\n    let ga = s.a.lock();\n}}\n"
        );
        assert!(lock_order(&[krate("demo", &[&src])]).is_empty());
    }

    /// The PR 6 false-positive class: a guard binding shadowed by a later
    /// non-guard `let` of the same name is no longer tracked as held.
    #[test]
    fn non_guard_shadowing_let_releases_the_guard() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let g = s.a.lock();\n    let g = extract(g);\n    \
             let h = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}}\n"
        );
        let diags = lock_order(&[krate("demo", &[&src])]);
        assert!(
            diags.is_empty(),
            "shadowed guard must not contribute an a->b edge: {diags:?}"
        );
    }

    /// A shadowing `let` that is *itself* an acquisition keeps tracking:
    /// re-locking through the same name still records edges.
    #[test]
    fn guard_shadowed_by_another_acquisition_stays_tracked() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let g = s.a.lock();\n    let g = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let g = s.b.lock();\n    let g = s.a.lock();\n}}\n"
        );
        let diags = lock_order(&[krate("demo", &[&src])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_cycle() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let g1 = s.a.lock();\n    let g2 = s.a.lock();\n}}\n"
        );
        let diags = lock_order(&[krate("demo", &[&src])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("while already holding it"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn single_hop_call_expansion_finds_the_cycle() {
        // `inverted` establishes b -> a directly (earlier line); `outer`
        // holds a across a call to `helper`, which acquires b — the call
        // edge a -> b closes the cycle at the call site.
        let src = format!(
            "{TWO_LOCKS}\
             fn inverted(s: &S) {{\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}}\n\
             fn helper(s: &S) {{\n    let gb = s.b.lock();\n}}\n\
             fn outer(s: &S) {{\n    let ga = s.a.lock();\n    helper(s);\n}}\n"
        );
        let diags = lock_order(&[krate("demo", &[&src])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("via call to `helper`"),
            "{}",
            diags[0].message
        );
        assert_eq!(diags[0].line, 11, "diagnosed at the call site");
    }

    #[test]
    fn transitive_cross_crate_expansion_finds_the_cycle() {
        // alpha::outer holds `a` across a call to beta::relay (hop 1),
        // which calls alpha::deep_acquire (hop 2), which acquires `b` —
        // the a -> b edge lands at outer's call site and closes the cycle
        // that alpha::inverted's direct b -> a nesting opened. The old
        // one-level expansion could not see past `relay` (beta binds no
        // locks at all).
        let alpha = format!(
            "{TWO_LOCKS}\
             fn inverted(s: &S) {{\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}}\n\
             pub fn deep_acquire(s: &S) {{\n    let gb = s.b.lock();\n}}\n\
             fn outer(s: &S) {{\n    let ga = s.a.lock();\n    relay(s);\n}}\n"
        );
        let beta = "pub fn relay(s: &S) {\n    neo_alpha::deep_acquire(s);\n}\n";
        let diags = lock_order(&[krate("alpha", &[&alpha]), krate("beta", &[beta])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 11, "diagnosed at outer's call site");
        assert!(
            diags[0]
                .message
                .contains("via call to `relay`, reaching `alpha::deep_acquire`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn comm_lane_reachability_crosses_crates() {
        // worker -> neo_sync::pause (another crate, another file): the
        // sleep inside `pause` is on the lane even though neo-sync has
        // nothing to do with nonblocking.rs. `idle` is not reachable.
        let lane = "pub fn worker(q: &Queue) {\n\
                    \x20   neo_sync::pause();\n\
                    }\n";
        let sync = "pub fn pause() {\n\
                    \x20   std::thread::sleep(D);\n\
                    }\n\
                    pub fn idle() {\n\
                    \x20   std::thread::sleep(D);\n\
                    }\n";
        let crates = vec![
            collectives(&[("nonblocking.rs", lane)]),
            krate("sync", &[sync]),
        ];
        let diags = comm_lane(&crates);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].path.ends_with("f0.rs"), "flagged where defined");
        assert!(diags[0].message.contains("`pause`"), "{}", diags[0].message);
    }

    #[test]
    fn waiver_on_the_closing_edge_suppresses() {
        let src = format!(
            "{TWO_LOCKS}\
             fn one(s: &S) {{\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}}\n\
             fn two(s: &S) {{\n    let gb = s.b.lock();\n\
             \x20   // lint: allow(lock_order) — b is private to this fn here\n\
             \x20   let ga = s.a.lock();\n}}\n"
        );
        assert!(lock_order(&[krate("demo", &[&src])]).is_empty());
    }

    #[test]
    fn crates_do_not_share_lock_names() {
        // the same field name in two crates is two graph nodes
        let one = format!(
            "{TWO_LOCKS}\
             fn f(s: &S) {{\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}}\n"
        );
        let two = format!(
            "{TWO_LOCKS}\
             fn f(s: &S) {{\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}}\n"
        );
        let diags = lock_order(&[krate("left", &[&one]), krate("right", &[&two])]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rwlock_and_static_bindings_are_tracked() {
        let src = "static REG: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
                   struct S { table: RwLock<u32> }\n\
                   fn f(s: &S) {\n    let g = s.table.read();\n    let r = REG.lock();\n}\n\
                   fn g(s: &S) {\n    let r = REG.lock();\n    let g = s.table.write();\n}\n";
        let diags = lock_order(&[krate("demo", &[src])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("demo/REG"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn comm_lane_flags_blocking_calls_in_lane_fns() {
        let lane = "pub fn worker(rx: &Receiver<Job>) {\n\
                    \x20   while let Ok(job) = rx.recv() {\n\
                    \x20       run(job);\n\
                    \x20   }\n\
                    }\n";
        let other = "pub fn run(job: Job) {\n\
                     \x20   std::thread::sleep(job.delay);\n\
                     }\n\
                     pub fn unrelated(rx: &Receiver<Job>) {\n\
                     \x20   let _ = rx.recv();\n\
                     }\n";
        let diags = comm_lane(&[collectives(&[
            ("nonblocking.rs", lane),
            ("group.rs", other),
        ])]);
        // worker's recv + run's sleep (one call level); `unrelated` is not
        // reachable from the lane and stays unflagged
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains(".recv()")));
        assert!(diags.iter().any(|d| d.message.contains("thread::sleep(")));
        assert!(
            !diags
                .iter()
                .any(|d| d.line == 4 && d.path.ends_with("group.rs")),
            "unreachable fn must not be flagged: {diags:?}"
        );
    }

    #[test]
    fn comm_lane_flags_lock_while_held_and_respects_waivers() {
        let lane = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                    pub fn worker(s: &S, rx: &Receiver<Job>) {\n\
                    \x20   // lint: allow(comm_lane_blocking) — the job-queue recv IS the idle state\n\
                    \x20   while let Ok(job) = rx.recv() {\n\
                    \x20       let ga = s.a.lock();\n\
                    \x20       let gb = s.b.lock();\n\
                    \x20   }\n\
                    }\n";
        let diags = comm_lane(&[collectives(&[("nonblocking.rs", lane)])]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            diags[0].line, 6,
            "the nested acquisition, not the waived recv"
        );
        assert!(diags[0].message.contains("while already holding"));
    }

    #[test]
    fn comm_lane_ignores_crates_without_a_lane() {
        let src = "pub fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }\n";
        let diags = comm_lane(&[collectives(&[("group.rs", src)])]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Independent reachability oracle: boolean transitive closure.
    fn reachable(n: usize, edges: &[(usize, usize)], from: usize, to: usize) -> bool {
        let mut reach = vec![vec![false; n]; n];
        for &(a, b) in edges {
            reach[a][b] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        reach[from][to]
    }

    proptest! {
        /// Random acquisition DAG (every edge i < j, so acyclic by
        /// construction) plus one extra edge (u, v): `closes_cycle`
        /// reports a cycle iff u == v or v already reaches u — verified
        /// against an independent transitive-closure oracle.
        #[test]
        fn closing_edge_detected_iff_it_closes_a_cycle(
            pairs in collection::vec((0usize..8, 0usize..8), 0..24),
            u in 0usize..8,
            v in 0usize..8,
        ) {
            let n = 8;
            let dag: Vec<(usize, usize)> = pairs
                .into_iter()
                .filter(|(a, b)| a < b)
                .collect();
            let want = u == v || reachable(n, &dag, v, u);
            proptest::prop_assert_eq!(closes_cycle(&dag, u, v), want);
            // and the path a cycle report is built from actually exists
            if let Some(p) = path_between(&dag, v, u) {
                proptest::prop_assert_eq!(p[0], v);
                proptest::prop_assert_eq!(*p.last().unwrap(), u);
                for w in p.windows(2) {
                    proptest::prop_assert!(dag.contains(&(w[0], w[1])));
                }
            }
        }
    }

    // keep the imports exercised even if proptest internals change
    #[test]
    fn strategy_shim_smoke() {
        let _ = any::<bool>();
        let _ = (0usize..4).prop_map(|x| x + 1);
    }
}
