//! Whole-workspace call graph.
//!
//! The third layer of the engine: layer one is the shared token stream
//! (`token`/`source`), layer two the cross-crate [`SymbolIndex`], and
//! this module resolves per-function call sites against that index into
//! a workspace-wide directed graph with transitive reachability.
//! Interprocedural rules (`lock_order`, `comm_lane_blocking`,
//! `hot_path_alloc`, `panic_path`) query it instead of hand-rolling
//! one-level call expansions.
//!
//! # Model
//!
//! A node is a `(crate, fn name)` pair. Token-level analysis cannot
//! disambiguate two same-named fns inside one crate (method receivers
//! carry no type information), so their definition sites merge into one
//! node; reachability over-approximates accordingly. Every fn
//! definition is a node — free fns, inherent methods, trait-impl fns,
//! and private helpers alike (the extended symbol index records them
//! all with an `is_pub` flag).
//!
//! # Call-site resolution
//!
//! Each `ident(` occurrence on a code line (comments and literals
//! already blanked by the `SourceFile` views, so string contents never
//! fabricate calls) is resolved:
//!
//! - `crate::f(...)` / `self::f(...)` / `Self::f(...)`: same crate.
//! - `neo_foo::f(...)`: crate `foo`, `pub` fns only.
//! - `Type::f(...)` where `Type` is a struct/enum of some workspace
//!   crate: that crate (the caller's crate wins when both define it).
//! - Any other qualified path (`Vec::new`, `std::mem::take`, `f32::max`)
//!   is std/external: **no edge** — this is what keeps the graph from
//!   drowning in false std edges.
//! - Unqualified and method calls resolve to the caller's crate when it
//!   defines the name; otherwise to every crate exporting a `pub` fn of
//!   that name, unless the name is on [`AMBIGUOUS_CALL_NAMES`] (std
//!   collisions like `push`/`get`/`new`, where a cross-crate edge would
//!   be noise far more often than signal).
//!
//! Both directions of imprecision are deliberate and documented: edges
//! may over-approximate (same-crate name collisions, std-colliding
//! method names defined locally) and under-approximate (fn pointers,
//! closures passed across crates, macro-generated calls). Rules treat
//! reachability as "may reach".
//!
//! Iteration order is deterministic everywhere: nodes are interned in
//! crate-then-definition order (crates arrive sorted from
//! `Workspace::load`), adjacency sets are `BTreeSet`s, and
//! breadth-first walks visit neighbors in sorted id order. Cycles
//! (recursion, mutual recursion) are tolerated by the visited-set in
//! every walk.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

use crate::source::SourceFile;
use crate::symbols::SymbolIndex;
use crate::token::is_ident_char;

/// Method/free-fn names that collide with std so hard that an
/// *unqualified cross-crate* edge is almost always a false positive:
/// ubiquitous std/inherent methods (`Barrier::wait`, `Vec::append`,
/// channel `send`, …) plus pervasive container/iterator/conversion
/// names. Same-crate resolution is NOT gated by this list: a crate that
/// defines `get` and calls `.get(` may mean its own, and the graph
/// over-approximates on purpose.
pub const AMBIGUOUS_CALL_NAMES: &[&str] = &[
    "wait",
    "append",
    "finish",
    "send",
    "recv",
    "join",
    "push",
    "insert",
    "write",
    "read",
    "next",
    "take",
    "get",
    "new",
    "open",
    "create",
    "load",
    "save",
    "split",
    "concat",
    "len",
    "is_empty",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "contains",
    "contains_key",
    "clear",
    "drain",
    "extend",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "drop",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "to_vec",
    "to_string",
    "to_owned",
    "index",
    "lock",
    "try_lock",
    "flush",
    "min",
    "max",
    "abs",
    "sum",
    "count",
    "all",
    "any",
    "map",
    "filter",
    "find",
    "fold",
    "position",
    "last",
    "first",
    "rev",
    "zip",
    "chain",
    "collect",
    "with_capacity",
    "resize",
    "reserve",
    "truncate",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "binary_search",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "and_then",
    "or_else",
    "name",
];

/// One `(crate, fn name)` node.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub krate: String,
    pub name: String,
    /// Definition sites (workspace-relative path, 0-based line), sorted.
    /// More than one entry means same-named fns merged into this node.
    pub defs: Vec<(PathBuf, usize)>,
    /// Any definition site carries a `pub` visibility.
    pub is_pub: bool,
    /// Any definition site's signature returns a `Result`.
    pub returns_result: bool,
}

/// The workspace call graph. Nodes in deterministic intern order
/// (crate, then definition order); `edges` is caller-indexed adjacency.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<BTreeSet<usize>>,
    index: BTreeMap<(String, String), usize>,
}

impl CallGraph {
    /// Builds the graph over every crate's parsed sources, resolving
    /// call sites against `symbols` (which must cover the same crates).
    pub fn build(crates: &[(String, Vec<SourceFile>)], symbols: &SymbolIndex) -> CallGraph {
        let mut g = CallGraph::default();

        // Pass 1: nodes, from the symbol index (it already records every
        // fn with visibility and Result-ness), def sites from a file walk.
        for (krate, _) in crates {
            for f in &symbols.of(krate).fns {
                let id = g.intern(krate, &f.name);
                g.nodes[id].is_pub |= f.is_pub;
                g.nodes[id].returns_result |= f.returns_result;
            }
        }
        for (krate, files) in crates {
            for file in files {
                for (ln, code) in file.code.iter().enumerate() {
                    if file.in_test.get(ln).copied().unwrap_or(false) {
                        continue;
                    }
                    for (_, ev) in line_calls(code) {
                        if let Ev::FnDef(name) = ev {
                            if let Some(&id) = g.index.get(&(krate.clone(), name)) {
                                g.nodes[id].defs.push((file.path.clone(), ln));
                            }
                        }
                    }
                }
            }
        }
        for n in &mut g.nodes {
            n.defs.sort();
        }

        // Crate-path aliases: `neo_tensor::` resolves into crate `tensor`.
        let aliases: BTreeMap<String, String> = crates
            .iter()
            .map(|(k, _)| (format!("neo_{}", k.replace('-', "_")), k.clone()))
            .collect();
        // Type names -> defining crates, for `Type::f(...)` receivers.
        let mut type_crates: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (krate, _) in crates {
            for s in &symbols.of(krate).structs {
                type_crates
                    .entry(s.clone())
                    .or_default()
                    .insert(krate.clone());
            }
        }

        // Pass 2: edges. Track the enclosing fn by brace depth; test
        // regions only contribute their braces so depth stays balanced.
        g.edges = vec![BTreeSet::new(); g.nodes.len()];
        for (krate, files) in crates {
            for file in files {
                let mut depth: i64 = 0;
                let mut stack: Vec<(usize, i64)> = Vec::new(); // (node, body depth)
                let mut pending: Option<usize> = None;
                for (ln, code) in file.code.iter().enumerate() {
                    let in_test = file.in_test.get(ln).copied().unwrap_or(false);
                    for (_, ev) in line_calls(code) {
                        match ev {
                            Ev::Open => {
                                depth += 1;
                                if let Some(id) = pending.take() {
                                    stack.push((id, depth));
                                }
                            }
                            Ev::Close => {
                                depth -= 1;
                                while stack.last().is_some_and(|&(_, d)| d > depth) {
                                    stack.pop();
                                }
                            }
                            Ev::Semi => pending = None,
                            Ev::FnDef(name) if !in_test => {
                                pending = g.index.get(&(krate.clone(), name)).copied();
                            }
                            Ev::Call { name, qual } if !in_test => {
                                if let Some(&(caller, _)) = stack.last() {
                                    for callee in g.resolve(
                                        krate,
                                        &name,
                                        qual.as_deref(),
                                        &aliases,
                                        &type_crates,
                                    ) {
                                        if callee != caller {
                                            g.edges[caller].insert(callee);
                                        }
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        g
    }

    /// A graph over synthetic nodes `f0..fN` in crate `t`, for tests and
    /// oracle comparisons.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> CallGraph {
        let mut g = CallGraph::default();
        for i in 0..n {
            g.intern("t", &format!("f{i}"));
        }
        g.edges = vec![BTreeSet::new(); n];
        for &(a, b) in edges {
            g.edges[a].insert(b);
        }
        g
    }

    fn intern(&mut self, krate: &str, name: &str) -> usize {
        if let Some(&id) = self.index.get(&(krate.to_owned(), name.to_owned())) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(FnNode {
            krate: krate.to_owned(),
            name: name.to_owned(),
            defs: Vec::new(),
            is_pub: false,
            returns_result: false,
        });
        self.index.insert((krate.to_owned(), name.to_owned()), id);
        self.edges.push(BTreeSet::new());
        id
    }

    /// The node for `(krate, name)`, if any fn of that name is defined
    /// in that crate.
    pub fn node_of(&self, krate: &str, name: &str) -> Option<usize> {
        self.index
            .get(&(krate.to_owned(), name.to_owned()))
            .copied()
    }

    /// Candidate callee nodes for a call to `name` from inside
    /// `caller_crate` (see the module docs for the resolution rules).
    /// `qual` is the leading segment of a `::`-qualified path, if any.
    fn resolve(
        &self,
        caller_crate: &str,
        name: &str,
        qual: Option<&str>,
        aliases: &BTreeMap<String, String>,
        type_crates: &BTreeMap<String, BTreeSet<String>>,
    ) -> Vec<usize> {
        if let Some(q) = qual {
            if q == "crate" || q == "self" || q == "Self" {
                return self.node_of(caller_crate, name).into_iter().collect();
            }
            if let Some(k) = aliases.get(q) {
                return self
                    .node_of(k, name)
                    .filter(|&id| self.nodes[id].is_pub)
                    .into_iter()
                    .collect();
            }
            if let Some(ks) = type_crates.get(q) {
                if ks.contains(caller_crate) {
                    return self.node_of(caller_crate, name).into_iter().collect();
                }
                return ks
                    .iter()
                    .filter_map(|k| self.node_of(k, name))
                    .filter(|&id| self.nodes[id].is_pub)
                    .collect();
            }
            return Vec::new(); // std / external receiver
        }
        if let Some(id) = self.node_of(caller_crate, name) {
            return vec![id];
        }
        if AMBIGUOUS_CALL_NAMES.contains(&name) {
            return Vec::new();
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name && n.is_pub)
            .map(|(id, _)| id)
            .collect()
    }

    /// Rule-level resolution of an *unqualified* call to `name` from
    /// inside `caller_crate`: the same-crate fn wins exclusively when it
    /// exists; otherwise every cross-crate `pub` fn of that name, unless
    /// the name is too generic to resolve ([`AMBIGUOUS_CALL_NAMES`]).
    /// Used by rules (lock_order) that extract call sites with their own
    /// machinery and only need the graph for target resolution.
    pub fn resolve_call(&self, caller_crate: &str, name: &str) -> Vec<usize> {
        let aliases = BTreeMap::new();
        let type_crates = BTreeMap::new();
        self.resolve(caller_crate, name, None, &aliases, &type_crates)
    }

    /// Every node reachable from `roots` (roots included), by a
    /// cycle-tolerant breadth-first walk in deterministic order.
    pub fn reachable_from(&self, roots: &[usize]) -> BTreeSet<usize> {
        self.reachable_witness(roots).into_keys().collect()
    }

    /// Reachable nodes mapped to the root that claims them: a
    /// multi-source BFS seeded in the given root order, so the witness
    /// for a node is stable across runs (nearest root, ties broken by
    /// seed order then sorted adjacency).
    pub fn reachable_witness(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut witness = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if r < self.nodes.len() && !witness.contains_key(&r) {
                witness.insert(r, r);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let via = witness[&cur];
            for &next in &self.edges[cur] {
                if let std::collections::btree_map::Entry::Vacant(e) = witness.entry(next) {
                    e.insert(via);
                    queue.push_back(next);
                }
            }
        }
        witness
    }

    /// Human label for a node: `crate::name`.
    pub fn label(&self, id: usize) -> String {
        format!("{}::{}", self.nodes[id].krate, self.nodes[id].name)
    }
}

/// Incremental enclosing-fn tracker over a file's code lines, for rules
/// that need to know which fn body a line belongs to without rebuilding
/// the graph's brace machinery. Feed every line in order (test lines
/// included, so brace depth stays balanced).
#[derive(Default)]
pub struct FnSpans {
    depth: i64,
    stack: Vec<(String, i64)>,
    pending: Option<String>,
}

impl FnSpans {
    pub fn new() -> FnSpans {
        FnSpans::default()
    }

    /// Processes one code line and returns the name of the fn whose
    /// body the line is part of: the fn defined on this line when one
    /// opens here, else the innermost still-open fn.
    pub fn feed(&mut self, code: &str, in_test: bool) -> Option<String> {
        let start_top = self.stack.last().map(|(n, _)| n.clone());
        let mut opened = None;
        for (_, ev) in line_calls(code) {
            match ev {
                Ev::Open => {
                    self.depth += 1;
                    if let Some(name) = self.pending.take() {
                        opened = Some(name.clone());
                        self.stack.push((name, self.depth));
                    }
                }
                Ev::Close => {
                    self.depth -= 1;
                    while self.stack.last().is_some_and(|&(_, d)| d > self.depth) {
                        self.stack.pop();
                    }
                }
                Ev::Semi => self.pending = None,
                Ev::FnDef(name) if !in_test => self.pending = Some(name),
                _ => {}
            }
        }
        if in_test {
            return None;
        }
        opened.or(start_top)
    }
}

/// Position-ordered structural events on one code line.
enum Ev {
    Open,
    Close,
    Semi,
    FnDef(String),
    Call {
        name: String,
        /// Leading segment of a `::` path (`a` in `a::b::f(`), if any.
        qual: Option<String>,
    },
}

fn ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// Extracts braces, semicolons, fn definitions, and `ident(` call sites
/// from one blanked code line, left to right.
fn line_calls(code: &str) -> Vec<(usize, Ev)> {
    const KEYWORDS: &[&str] = &[
        "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
        "pub", "use", "mod", "move", "in", "as", "ref", "dyn", "impl", "where", "unsafe", "async",
        "await", "crate", "self", "Self", "super", "box", "const", "static", "type", "trait",
        "struct", "enum", "true", "false",
    ];
    let cs: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        match c {
            '{' => out.push((i, Ev::Open)),
            '}' => out.push((i, Ev::Close)),
            ';' => out.push((i, Ev::Semi)),
            _ if ident_start(c) && (i == 0 || !is_ident_char(cs[i - 1])) => {
                let start = i;
                while i < cs.len() && is_ident_char(cs[i]) {
                    i += 1;
                }
                let word: String = cs[start..i].iter().collect();
                if word == "fn" {
                    let mut j = i;
                    while j < cs.len() && cs[j] == ' ' {
                        j += 1;
                    }
                    let ns = j;
                    while j < cs.len() && is_ident_char(cs[j]) {
                        j += 1;
                    }
                    if j > ns {
                        out.push((start, Ev::FnDef(cs[ns..j].iter().collect())));
                        i = j;
                    }
                    continue;
                }
                if KEYWORDS.contains(&word.as_str()) {
                    continue;
                }
                if cs.get(i) == Some(&'(') {
                    let prev = if start > 0 { Some(cs[start - 1]) } else { None };
                    let qual = if prev == Some(':') && start >= 2 && cs[start - 2] == ':' {
                        leading_path_segment(&cs, start - 2)
                    } else {
                        None
                    };
                    out.push((start, Ev::Call { name: word, qual }));
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The first segment of the `::` path ending at `end` (`end` points at
/// the first colon of the final `::`). `a::b::f(` -> `Some("a")`;
/// `<T>::f(` and `::f(` -> `None` (turbofish / absolute paths carry no
/// usable crate hint at token level).
fn leading_path_segment(cs: &[char], end: usize) -> Option<String> {
    let mut p = end; // exclusive end of the segment under scan
    loop {
        let mut s = p;
        while s > 0 && is_ident_char(cs[s - 1]) {
            s -= 1;
        }
        if s == p {
            return None; // `>::` or leading `::` — no ident segment
        }
        if s >= 2 && cs[s - 1] == ':' && cs[s - 2] == ':' {
            p = s - 2;
        } else {
            return Some(cs[s..p].iter().collect::<String>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn ws(crates: &[(&str, &[(&str, &str)])]) -> (Vec<(String, Vec<SourceFile>)>, SymbolIndex) {
        let crates: Vec<(String, Vec<SourceFile>)> = crates
            .iter()
            .map(|(name, files)| {
                (
                    (*name).to_owned(),
                    files
                        .iter()
                        .map(|(fname, text)| {
                            SourceFile::parse(
                                Path::new(&format!("crates/{name}/src/{fname}")),
                                text,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let symbols = SymbolIndex::build(&crates);
        (crates, symbols)
    }

    fn graph(crates: &[(&str, &[(&str, &str)])]) -> CallGraph {
        let (crates, symbols) = ws(crates);
        CallGraph::build(&crates, &symbols)
    }

    fn edge(g: &CallGraph, from: (&str, &str), to: (&str, &str)) -> bool {
        let (Some(a), Some(b)) = (g.node_of(from.0, from.1), g.node_of(to.0, to.1)) else {
            return false;
        };
        g.edges[a].contains(&b)
    }

    #[test]
    fn same_crate_free_and_method_calls_resolve() {
        let g = graph(&[(
            "demo",
            &[(
                "lib.rs",
                "fn a() { b(); }\n\
                 fn b() { }\n\
                 impl S {\n    fn c(&self) { self.d(); }\n    fn d(&self) { }\n}\n",
            )],
        )]);
        assert!(edge(&g, ("demo", "a"), ("demo", "b")));
        assert!(edge(&g, ("demo", "c"), ("demo", "d")));
        assert!(!edge(&g, ("demo", "b"), ("demo", "a")));
    }

    #[test]
    fn cross_crate_resolution_needs_pub_and_unambiguous_names() {
        let g = graph(&[
            (
                "alpha",
                &[(
                    "lib.rs",
                    "pub fn entry() { special_sauce(); get(); neo_beta::qualified(); }\n",
                )],
            ),
            (
                "beta",
                &[(
                    "lib.rs",
                    "pub fn special_sauce() { hidden(); }\n\
                     fn hidden() { }\n\
                     pub fn get() { }\n\
                     pub fn qualified() { }\n",
                )],
            ),
        ]);
        // unqualified cross-crate: pub + not std-colliding
        assert!(edge(&g, ("alpha", "entry"), ("beta", "special_sauce")));
        // `get` is on the ambiguous list
        assert!(!edge(&g, ("alpha", "entry"), ("beta", "get")));
        // explicit `neo_beta::` path always resolves
        assert!(edge(&g, ("alpha", "entry"), ("beta", "qualified")));
        // private callee resolves same-crate only
        assert!(edge(&g, ("beta", "special_sauce"), ("beta", "hidden")));
    }

    #[test]
    fn std_qualified_paths_produce_no_edges() {
        let g = graph(&[(
            "demo",
            &[(
                "lib.rs",
                "pub fn new() { }\n\
                 pub fn run() { let v = Vec::new(); std::mem::take(&mut ()); f32::max(1.0, 2.0); }\n",
            )],
        )]);
        let run = g.node_of("demo", "run").unwrap();
        assert!(
            g.edges[run].is_empty(),
            "Vec::new must not resolve to demo::new: {:?}",
            g.edges[run]
        );
    }

    #[test]
    fn type_qualified_calls_resolve_to_the_defining_crate() {
        let g = graph(&[
            (
                "alpha",
                &[("lib.rs", "pub fn entry() { Widget::build(); }\n")],
            ),
            (
                "beta",
                &[(
                    "lib.rs",
                    "pub struct Widget;\nimpl Widget {\n    pub fn build() { }\n}\n",
                )],
            ),
        ]);
        assert!(edge(&g, ("alpha", "entry"), ("beta", "build")));
    }

    #[test]
    fn test_code_contributes_no_nodes_or_edges() {
        let g = graph(&[(
            "demo",
            &[(
                "lib.rs",
                "pub fn real() { }\n\
                 #[cfg(test)]\nmod tests {\n    fn fake() { crate::real(); }\n}\n",
            )],
        )]);
        assert!(g.node_of("demo", "fake").is_none());
        let real = g.node_of("demo", "real").unwrap();
        assert!(g.edges.iter().all(|e| !e.contains(&real)) || g.edges[real].is_empty());
        let callers: Vec<_> = (0..g.nodes.len())
            .filter(|&i| g.edges[i].contains(&real))
            .collect();
        assert!(callers.is_empty(), "{callers:?}");
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn_and_nested_fns_scope() {
        let g = graph(&[(
            "demo",
            &[(
                "lib.rs",
                "fn outer() {\n\
                     let f = move || inner_call();\n\
                     fn nested() { nested_only(); }\n\
                     f();\n\
                 }\n\
                 fn inner_call() { }\n\
                 fn nested_only() { }\n",
            )],
        )]);
        assert!(edge(&g, ("demo", "outer"), ("demo", "inner_call")));
        assert!(edge(&g, ("demo", "nested"), ("demo", "nested_only")));
        assert!(!edge(&g, ("demo", "outer"), ("demo", "nested_only")));
    }

    #[test]
    fn reachability_tolerates_cycles_and_is_deterministic() {
        // 0 -> 1 -> 2 -> 0 (cycle), 3 isolated, 1 -> 4
        let g = CallGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (1, 4)]);
        let r = g.reachable_from(&[0]);
        assert_eq!(r.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        let w = g.reachable_witness(&[3, 0]);
        assert_eq!(w[&3], 3);
        assert_eq!(w[&4], 0);
    }

    #[test]
    fn witness_prefers_earlier_roots_on_ties() {
        let g = CallGraph::from_edges(3, &[(0, 2), (1, 2)]);
        assert_eq!(g.reachable_witness(&[0, 1])[&2], 0);
        assert_eq!(g.reachable_witness(&[1, 0])[&2], 1);
    }

    #[test]
    fn leading_segment_walks_full_paths() {
        let cs: Vec<char> = "x = a::b::f(".chars().collect();
        // `f` sits at 10, so the call site passes `start - 2` == 8
        assert_eq!(leading_path_segment(&cs, 8), Some("a".to_owned()));
        let cs: Vec<char> = "Vec::<u8>::f(".chars().collect();
        assert_eq!(leading_path_segment(&cs, 9), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Satellite oracle: BFS reachability over random digraphs
        /// (cycles included) must equal an independent boolean
        /// transitive-closure computation, for every choice of roots.
        #[test]
        fn reachability_matches_transitive_closure_oracle(
            n in 1usize..12,
            raw_edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            raw_roots in proptest::collection::vec(0usize..12, 0..6),
        ) {
            let edges: Vec<(usize, usize)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .collect();
            let roots: Vec<usize> = raw_roots.into_iter().map(|r| r % n).collect();
            let g = CallGraph::from_edges(n, &edges);

            // Independent oracle: reflexive boolean transitive closure.
            let mut reach = vec![vec![false; n]; n];
            for (i, row) in reach.iter_mut().enumerate() {
                row[i] = true;
            }
            for &(a, b) in &edges {
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
            let expected: BTreeSet<usize> = (0..n)
                .filter(|&j| roots.iter().any(|&r| reach[r][j]))
                .collect();
            proptest::prop_assert_eq!(g.reachable_from(&roots), expected);

            // Witness sanity: every claimed node is claimed by a root
            // that the oracle agrees reaches it.
            for (node, root) in g.reachable_witness(&roots) {
                proptest::prop_assert!(roots.contains(&root));
                proptest::prop_assert!(reach[root][node]);
            }
        }
    }
}
