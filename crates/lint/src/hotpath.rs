//! The call-graph rule `hot_path_alloc`, plus the root-set helper shared
//! with the `--callgraph` artifact and the baseline's reachable-set
//! count.
//!
//! It walks everything reachable from the per-iteration kernel roots
//! ([`HOT_PATH_ROOTS`]: the GEMM/MLP kernels in neo-tensor, the
//! pooled/fused embedding kernels, radix sort and sparse optimizer in
//! neo-embeddings, the FP16/BF16 slice kernels in neo-tensor and the wire
//! conversions in neo-collectives), in whatever crate the reached fn
//! lives, and flags heap-allocating tokens ([`ALLOC_TOKENS`]) on its
//! lines. The benchmark catches an allocation regression only after the
//! fact and only when it is big enough to move `samples_per_s`; this rule
//! names the exact line up front. Setup-time or by-design allocation
//! sites (output buffers that are the API contract, amortized scratch
//! growth) carry `// lint: allow(hot_path_alloc) — <reason>` waivers.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnSpans};
use crate::source::Diagnostic;
use crate::token::is_ident_char;
use crate::Workspace;

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
            "radix_sort",
            "fused_update",
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

/// Whether `hay` contains `needle` starting at a non-identifier boundary.
fn token_match(hay: &str, needle: &str) -> Option<usize> {
    // the boundary requirement only applies to needles that begin with an
    // identifier char (`vec![`); `.clone(` is always preceded by its
    // receiver and needs no boundary
    let needs_boundary = needle.chars().next().is_some_and(is_ident_char);
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let prev_is_ident = hay[..at].chars().next_back().is_some_and(is_ident_char);
        if !needs_boundary || !prev_is_ident {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// The rule's reachable-set size, recorded in the baseline
/// (`neo-lint-baseline/2`) and the `--callgraph` artifact so a resolver
/// regression (roots silently vanishing, closure collapsing) shows up as
/// baseline drift instead of silently passing.
pub fn reachable_set_sizes(ws: &Workspace) -> BTreeMap<String, usize> {
    let g = &ws.graph;
    let n = g.reachable_from(&hot_path_root_nodes(g)).len();
    BTreeMap::from([("hot_path_alloc".to_owned(), n)])
}

/// `hot_path_alloc`: allocation tokens inside any fn reachable from the
/// per-iteration kernel roots. One diagnostic per line; the message
/// names the witnessing root so the finding is actionable without
/// re-deriving the path. Waivers consume per line.
pub fn check_hot_path_alloc(ws: &Workspace) -> Vec<Diagnostic> {
    let g = &ws.graph;
    let witness = g.reachable_witness(&hot_path_root_nodes(g));
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
                let Some(&root) = g.node_of(krate, &name).and_then(|n| witness.get(&n)) else {
                    continue;
                };
                let Some(tok) = ALLOC_TOKENS.iter().find(|t| token_match(code, t).is_some()) else {
                    continue;
                };
                if !file.allows(ln, "hot_path_alloc") {
                    out.push(Diagnostic {
                        path: file.path.clone(),
                        line: ln + 1,
                        rule: "hot_path_alloc",
                        message: format!(
                            "`{}` allocates inside `{krate}::{name}`, reachable from \
                             per-iteration kernel root `{}` — hoist it out of the hot \
                             path or waive a setup-time site",
                            tok.trim_end_matches('('),
                            g.label(root)
                        ),
                    });
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
    use std::path::Path;

    fn workspace(crates: &[(&str, &[(&str, &str)])]) -> Workspace {
        let crates = crates
            .iter()
            .map(|(name, files)| {
                let files = files.iter().map(|(fname, text)| {
                    SourceFile::parse(Path::new(&format!("crates/{name}/src/{fname}")), text)
                });
                ((*name).to_owned(), files.collect())
            })
            .collect();
        Workspace::new(crates)
    }

    #[test]
    fn token_match_respects_identifier_boundaries() {
        assert_eq!(token_match("x.to_vec();", ".to_vec("), Some(1));
        assert_eq!(token_match("x.to_vec_in(a)", ".to_vec("), None);
        assert_eq!(token_match("vec![0; n]", "vec!["), Some(0));
        assert_eq!(token_match("smallvec![0; n]", "vec!["), None);
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
    fn reachability_crosses_crates() {
        // matmul -> neo_sync::pause (another crate, another file): the
        // allocation inside `pause` is reached from a kernel root even
        // though neo-sync never names it. `idle` is not reachable.
        let ws = workspace(&[
            (
                "sync",
                &[(
                    "f0.rs",
                    "pub fn pause() {\n\
                     \x20   let v = x.to_vec();\n\
                     }\n\
                     pub fn idle() {\n\
                     \x20   let w = y.to_vec();\n\
                     }\n",
                )],
            ),
            (
                "tensor",
                &[(
                    "gemm.rs",
                    "pub fn matmul() {\n\
                     \x20   neo_sync::pause();\n\
                     }\n",
                )],
            ),
        ]);
        let diags = check_hot_path_alloc(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].path.ends_with("f0.rs"), "flagged where defined");
        assert!(
            diags[0].message.contains("`sync::pause`"),
            "{}",
            diags[0].message
        );
        assert_eq!(reachable_set_sizes(&ws)["hot_path_alloc"], 2);
    }
}
