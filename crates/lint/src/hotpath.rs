//! Call-graph-powered rules: `hot_path_alloc` and `panic_path`, plus
//! the root-set helpers shared with the `--callgraph` artifact and the
//! baseline's per-rule reachable-set counts.
//!
//! **hot_path_alloc** walks everything reachable from the per-iteration
//! kernel roots ([`HOT_PATH_ROOTS`]: the GEMM/MLP kernels in
//! neo-tensor, the pooled/fused embedding kernels, radix sort and
//! sparse optimizer in neo-embeddings, the FP16/BF16 slice kernels in
//! neo-tensor and the wire conversions in neo-collectives) and flags heap-allocating tokens
//! ([`ALLOC_TOKENS`]). The benchmark catches an allocation regression
//! only after the fact and only when it is big enough to move
//! `samples_per_s`; this rule names the exact line up front. Setup-time
//! or by-design allocation sites (output buffers that are the API
//! contract, amortized scratch growth) carry
//! `// lint: allow(hot_path_alloc) — <reason>` waivers.
//!
//! **panic_path** tightens clippy's per-site `unwrap_used`/`expect_used`/
//! `panic` checks (ci.sh gate 2) into a reachability guarantee: a fn
//! whose signature returns `Result` promises its callers an `Err`, not an
//! abort — so nothing it (transitively) calls may panic. Sites *inside*
//! Result-returning fns are already the per-site checks' domain; this
//! rule covers the gap they cannot see, namely panicking tokens in
//! non-Result helpers that a Result fn calls.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnSpans};
use crate::rules::token_match;
use crate::source::Diagnostic;
use crate::Workspace;

/// Panic-family tokens `panic_path` looks for in reachable helpers.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Per-iteration kernel roots, `(crate, fn names)`. Everything these
/// reach is "the hot path": one allocation here runs every training
/// iteration.
pub const HOT_PATH_ROOTS: &[(&str, &[&str])] = &[
    (
        "tensor",
        &[
            "matmul",
            "matmul_at_b",
            "matmul_a_bt",
            "forward",
            "forward_inference",
            "backward",
            "backward_params",
            "apply_optimizer",
            "zero_grads",
            "f16_encode",
            "f16_decode",
            "bf16_encode",
            "bf16_decode",
        ],
    ),
    (
        "embeddings",
        &[
            "pooled_forward",
            "pooled_backward",
            "fused_pooled_forward",
            "fused_backward_grads",
            "merge_grads",
            "radix_argsort",
            "step",
            "step_unmerged",
            "apply_merged",
        ],
    ),
    ("collectives", &["encode_into", "decode_into"]),
];

/// Heap-allocating (or allocation-implying) tokens on a hot path.
pub const ALLOC_TOKENS: &[&str] = &[
    ".clone(",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    ".collect(",
    "vec![",
    "Vec::new(",
    "Vec::with_capacity(",
    "Box::new(",
    "String::new(",
    "String::from(",
    "format!",
];

/// Root nodes for `hot_path_alloc`: [`HOT_PATH_ROOTS`] resolved against
/// the graph (missing names are simply absent, so fixture workspaces
/// without the kernels get an empty root set).
pub fn hot_path_root_nodes(g: &CallGraph) -> Vec<usize> {
    let mut roots = Vec::new();
    for (krate, names) in HOT_PATH_ROOTS {
        for name in *names {
            if let Some(id) = g.node_of(krate, name) {
                roots.push(id);
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Root nodes for `panic_path`: every fn whose signature returns a
/// `Result` (any definition site of the node).
pub fn panic_path_root_nodes(g: &CallGraph) -> Vec<usize> {
    (0..g.nodes.len())
        .filter(|&i| g.nodes[i].returns_result)
        .collect()
}

/// Root nodes for `comm_lane_blocking`: fns defined in the collectives
/// comm-lane file (`nonblocking.rs`) — the lane worker, its job loop,
/// and the post/wait surface that enqueues onto it.
pub fn comm_lane_root_nodes(g: &CallGraph) -> Vec<usize> {
    (0..g.nodes.len())
        .filter(|&i| {
            g.nodes[i].krate == "collectives"
                && g.nodes[i]
                    .defs
                    .iter()
                    .any(|(p, _)| p.ends_with("nonblocking.rs"))
        })
        .collect()
}

/// Reachable-set sizes per interprocedural rule, recorded in the
/// baseline (`neo-lint-baseline/2`) and the `--callgraph` artifact so a
/// resolver regression (roots silently vanishing, closure collapsing)
/// shows up as baseline drift instead of silently passing.
pub fn reachable_set_sizes(ws: &Workspace) -> BTreeMap<String, usize> {
    let g = &ws.graph;
    [
        ("comm_lane_blocking", comm_lane_root_nodes(g)),
        ("hot_path_alloc", hot_path_root_nodes(g)),
        ("panic_path", panic_path_root_nodes(g)),
    ]
    .into_iter()
    .map(|(rule, roots)| (rule.to_owned(), g.reachable_from(&roots).len()))
    .collect()
}

/// `hot_path_alloc`: allocation tokens inside any fn reachable from the
/// per-iteration kernel roots. One diagnostic per line; the message
/// names the witnessing root so the finding is actionable without
/// re-deriving the path.
pub fn check_hot_path_alloc(ws: &Workspace) -> Vec<Diagnostic> {
    check_reachable_tokens(
        ws,
        &hot_path_root_nodes(&ws.graph),
        ALLOC_TOKENS,
        "hot_path_alloc",
        |tok, krate, name, root| {
            format!(
                "`{tok}` allocates inside `{krate}::{name}`, reachable from per-iteration kernel \
                 root `{root}` — hoist it out of the hot path or waive a setup-time site"
            )
        },
        |_| true,
    )
}

/// `panic_path`: panicking tokens inside a *non*-Result fn reachable
/// from a Result-returning fn. Sites inside Result fns themselves are
/// clippy's per-site domain and are not double-reported.
pub fn check_panic_path(ws: &Workspace) -> Vec<Diagnostic> {
    check_reachable_tokens(
        ws,
        &panic_path_root_nodes(&ws.graph),
        PANIC_TOKENS,
        "panic_path",
        |tok, krate, name, root| {
            format!(
                "`{tok}` can panic inside `{krate}::{name}`, which `{root}` (returns Result) \
                 reaches — its callers were promised an Err, not an abort"
            )
        },
        |node| !node.returns_result,
    )
}

/// Shared scan: flag `tokens` on lines whose enclosing fn is reachable
/// from `roots` and passes `node_filter`. Waivers consume per line.
fn check_reachable_tokens(
    ws: &Workspace,
    roots: &[usize],
    tokens: &[&str],
    rule: &'static str,
    message: impl Fn(&str, &str, &str, &str) -> String,
    node_filter: impl Fn(&crate::callgraph::FnNode) -> bool,
) -> Vec<Diagnostic> {
    let g = &ws.graph;
    let witness = g.reachable_witness(roots);
    let mut out = Vec::new();
    for (krate, files) in &ws.crates {
        for file in files {
            let mut spans = FnSpans::new();
            for (ln, code) in file.code.iter().enumerate() {
                let in_test = file.in_test.get(ln).copied().unwrap_or(false);
                let active = spans.feed(code, in_test);
                if in_test {
                    continue;
                }
                let Some(name) = active else { continue };
                let Some(node) = g.node_of(krate, &name) else {
                    continue;
                };
                let Some(&root) = witness.get(&node) else {
                    continue;
                };
                if !node_filter(&g.nodes[node]) {
                    continue;
                }
                for tok in tokens {
                    if token_match(code, tok).is_none() {
                        continue;
                    }
                    if !file.allows(ln, rule) {
                        let shown = tok.trim_end_matches('(');
                        out.push(Diagnostic {
                            path: file.path.clone(),
                            line: ln + 1,
                            rule,
                            message: message(shown, krate, &name, &g.label(root)),
                        });
                    }
                    break; // one diagnostic per line
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::symbols::SymbolIndex;
    use std::path::{Path, PathBuf};

    fn workspace(crates: &[(&str, &[(&str, &str)])]) -> Workspace {
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
        let graph = CallGraph::build(&crates, &symbols);
        Workspace {
            root: PathBuf::new(),
            crates,
            symbols,
            graph,
            props: None,
        }
    }

    #[test]
    fn hot_path_alloc_flags_transitive_allocation_and_names_the_root() {
        let ws = workspace(&[(
            "tensor",
            &[(
                "gemm.rs",
                "pub fn matmul() { helper(); }\n\
                 fn helper() { deep(); }\n\
                 fn deep() { let v = x.to_vec(); }\n\
                 fn unrelated() { let v = x.to_vec(); }\n",
            )],
        )]);
        let diags = check_hot_path_alloc(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(
            diags[0].message.contains("tensor::matmul"),
            "{}",
            diags[0].message
        );
        assert!(diags[0].message.contains(".to_vec"), "{}", diags[0].message);
    }

    #[test]
    fn hot_path_alloc_respects_waivers() {
        let ws = workspace(&[(
            "tensor",
            &[(
                "gemm.rs",
                "pub fn matmul() {\n\
                     let out = vec![0.0; n]; // lint: allow(hot_path_alloc) — output buffer is the API contract\n\
                 }\n",
            )],
        )]);
        assert!(check_hot_path_alloc(&ws).is_empty());
        assert_eq!(
            ws.crates[0].1[0].consumed_waivers(),
            vec!["hot_path_alloc".to_owned()]
        );
    }

    #[test]
    fn panic_path_flags_helpers_of_result_fns_but_not_result_fns_themselves() {
        let ws = workspace(&[(
            "demo",
            &[(
                "lib.rs",
                "pub fn api() -> Result<(), E> { helper(); Ok(()) }\n\
                 fn helper() { deep() }\n\
                 fn deep() { x.unwrap(); }\n\
                 fn detached() { y.unwrap(); }\n",
            )],
        )]);
        let diags = check_panic_path(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(
            diags[0].message.contains("demo::api"),
            "{}",
            diags[0].message
        );
        // the unwrap inside a Result fn is clippy's per-site job
        let ws2 = workspace(&[(
            "demo",
            &[("lib.rs", "pub fn api() -> Result<(), E> { x.unwrap(); }\n")],
        )]);
        assert!(check_panic_path(&ws2).is_empty());
    }

    #[test]
    fn reachable_sizes_cover_the_three_interprocedural_rules() {
        let ws = workspace(&[(
            "tensor",
            &[(
                "gemm.rs",
                "pub fn matmul() { helper(); }\nfn helper() { }\n",
            )],
        )]);
        let sizes = reachable_set_sizes(&ws);
        assert_eq!(sizes["hot_path_alloc"], 2);
        assert_eq!(sizes["comm_lane_blocking"], 0);
        assert_eq!(sizes["panic_path"], 0);
    }
}
