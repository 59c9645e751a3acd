//! The four file-local invariants, as pure functions over [`SourceFile`]s.
//!
//! Rule names (used in `// lint: allow(<rule>) — <reason>` annotations):
//!
//! | rule          | invariant                                                   |
//! |---------------|-------------------------------------------------------------|
//! | `panic`       | no unwrap/expect/panic!/unreachable! in library code        |
//! | `hash_iter`   | no HashMap/HashSet iteration in determinism-critical crates |
//! | `crate_header`| `#![forbid(unsafe_code)]` + `#![deny(warnings)]` in roots   |
//! | `props_cover` | every `pub fn` of collectives group.rs named in props.rs    |
//!
//! `lock_order`, `lock_unwrap`, and `comm_lane_blocking` live in
//! [`crate::lockorder`]; `determinism` and `discarded_result` in
//! [`crate::newrules`]; `stale_waiver` is [`SourceFile::stale_waivers`],
//! run after every other rule so consumed annotations are already marked.
//! The [`crate::Rule`] registry in the crate root wires all twelve
//! together.

use crate::source::{Diagnostic, SourceFile};
pub use crate::token::is_ident_char;

/// Panic-family tokens banned in library code (rule `panic`); the
/// `panic_path` rule reuses them for its reachability variant.
pub(crate) const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Method calls that observe a hash container in iteration order.
const ITER_TOKENS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
];

/// Whether `hay` contains `needle` starting at a non-identifier boundary.
pub fn token_match(hay: &str, needle: &str) -> Option<usize> {
    // the boundary requirement only applies to needles that begin with an
    // identifier char (`panic!`); `.unwrap()` is always preceded by its
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

/// Rule `panic`: flags panic-family calls outside `#[cfg(test)]` regions
/// unless annotated.
pub fn check_panics(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ln, code) in file.code.iter().enumerate() {
        if file.in_test[ln] {
            continue;
        }
        for tok in PANIC_TOKENS {
            if token_match(code, tok).is_some() && !file.allows(ln, "panic") {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: ln + 1,
                    rule: "panic",
                    message: format!(
                        "`{}` in library code; return a Result or add \
                         `// lint: allow(panic) — <reason>`",
                        tok.trim_start_matches('.')
                    ),
                });
                break; // one diagnostic per line is enough
            }
        }
    }
    out
}

/// Rule `hash_iter`: flags iteration over `HashMap`/`HashSet` values in
/// determinism-critical crates. Hash iteration order varies run to run,
/// which breaks the §4.1.2 bitwise-reproducibility contract the moment the
/// order reaches an accumulation or a placement decision. Uses two passes:
/// first collect identifiers bound to hash-typed values (let bindings,
/// struct fields, fn params), then flag iteration through any of them or
/// directly on a hash-typed expression.
pub fn check_hash_iteration(file: &SourceFile) -> Vec<Diagnostic> {
    let idents = hash_idents(file);

    let mut out = Vec::new();
    for (ln, code) in file.code.iter().enumerate() {
        if file.in_test[ln] {
            continue;
        }
        let direct = (token_match(code, "HashMap").is_some()
            || token_match(code, "HashSet").is_some())
            && ITER_TOKENS.iter().any(|t| code.contains(t));
        let through_ident = idents.iter().any(|n| iterates_ident(code, n));
        if direct || through_ident {
            // consult the waiver only on an actual finding, so consumed
            // annotations are distinguishable from stale ones
            if file.allows(ln, "hash_iter") {
                continue;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: ln + 1,
                rule: "hash_iter",
                message: "iteration over a HashMap/HashSet in a determinism-critical \
                          crate; use BTreeMap/BTreeSet or sort explicitly \
                          (hash order breaks bitwise reproducibility)"
                    .to_owned(),
            });
        }
    }
    out
}

/// Every identifier bound to a hash-typed value in `file`'s library code,
/// sorted and deduplicated. Shared with the `determinism` rule's
/// hash-order-fold check.
pub(crate) fn hash_idents(file: &SourceFile) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for (ln, code) in file.code.iter().enumerate() {
        if file.in_test[ln] {
            continue;
        }
        idents.extend(hash_bound_idents(code));
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Identifiers bound to a hash-typed value on this line: `name: HashMap<..>`
/// (field, param, typed let) or `name = HashMap::new()` style initialisers.
/// Qualified paths (`m: &std::collections::HashMap<..>`) bind too: the path
/// segments are walked back to find the binding; a `use` line yields no
/// binding because nothing before the path ends in `:` or `=`.
fn hash_bound_idents(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(ty) {
            let at = from + rel;
            from = at + ty.len();
            let mut prefix = code[..at].trim_end();
            // walk back over a qualified-path prefix (`std::collections::`)
            while let Some(p) = prefix.strip_suffix("::") {
                let seg = p.trim_end();
                let start = seg
                    .rfind(|c: char| !is_ident_char(c))
                    .map(|i| i + 1)
                    .unwrap_or(0);
                if start == seg.len() {
                    break; // `::` not preceded by an identifier segment
                }
                prefix = seg[..start].trim_end();
            }
            // allow `&HashMap`/`&mut HashMap` references in params
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
            let lead = if let Some(p) = prefix.strip_suffix(':') {
                Some(p)
            } else {
                prefix.strip_suffix('=')
            };
            if let Some(lead) = lead {
                if let Some(name) = trailing_ident(lead) {
                    found.push(name);
                }
            }
        }
    }
    found
}

/// The identifier that ends `text` (after stripping generic/type noise),
/// if any. `"let mut plan"` → `plan`; `"pub counts"` → `counts`.
pub fn trailing_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let start = trimmed
        .rfind(|c: char| !is_ident_char(c))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &trimmed[start..];
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // skip keywords that can precede a binding name
    if ["mut", "let", "pub", "ref", "fn", "in", "as", "dyn", "impl"].contains(&name) {
        return None;
    }
    Some(name.to_owned())
}

/// Whether `code` iterates `name`: `name.iter()`, `name.keys()`, …, or
/// `for x in &name {` / `for x in name {`.
pub(crate) fn iterates_ident(code: &str, name: &str) -> bool {
    for tok in ITER_TOKENS {
        let pat = format!("{name}{tok}");
        if token_match(code, &pat).is_some() {
            return true;
        }
    }
    if let Some(at) = token_match(code, "for ") {
        if let Some(rel) = code[at..].find(" in ") {
            let expr = code[at + rel + 4..].trim();
            let expr = expr.strip_prefix("&mut ").unwrap_or(expr);
            let expr = expr.strip_prefix('&').unwrap_or(expr);
            let head: String = expr.chars().take_while(|c| is_ident_char(*c)).collect();
            if head == name {
                let rest = expr[head.len()..].trim_start();
                // `for k in map {` or `for k in map.X` iterate; `map[..]` etc. do not
                return rest.is_empty() || rest.starts_with('{');
            }
        }
    }
    false
}

/// Byte offset of the `)` matching the `(` at byte offset `open`, scanning
/// within one line; `None` when the call spans lines.
pub(crate) fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in code[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(open + i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Rule `crate_header`: crate roots must carry both
/// `#![forbid(unsafe_code)]` and a deny-warnings header.
pub fn check_crate_header(file: &SourceFile) -> Vec<Diagnostic> {
    let has = |needle: &str| {
        file.code
            .iter()
            .any(|l| l.trim_start().starts_with("#![") && l.contains(needle))
    };
    let mut missing = Vec::new();
    if !has("forbid(unsafe_code)") {
        missing.push("#![forbid(unsafe_code)]");
    }
    if !has("deny(warnings)") {
        missing.push("#![deny(warnings)] (or a cfg_attr equivalent)");
    }
    missing
        .into_iter()
        .map(|m| Diagnostic {
            path: file.path.clone(),
            line: 1,
            rule: "crate_header",
            message: format!("crate root is missing `{m}`"),
        })
        .collect()
}

/// Rule `props_cover`: every `pub fn` in `group.rs` must be named in the
/// collectives property-test suite.
pub fn check_props_coverage(group: &SourceFile, props: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ln, code) in group.code.iter().enumerate() {
        if group.in_test[ln] {
            continue;
        }
        let Some(at) = token_match(code, "pub fn ") else {
            continue;
        };
        let rest = &code[at + "pub fn ".len()..];
        let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
        if name.is_empty() {
            continue;
        }
        let covered = props.raw.iter().any(|l| token_match(l, &name).is_some());
        if !covered {
            out.push(Diagnostic {
                path: group.path.clone(),
                line: ln + 1,
                rule: "props_cover",
                message: format!(
                    "`pub fn {name}` is not exercised by any property test in {}",
                    props.path.display()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("t.rs"), text)
    }

    #[test]
    fn panic_rule_flags_and_respects_annotations() {
        let f = file(
            "fn a() { x.unwrap(); }\n\
             fn b() { y.expect(\"msg\"); }\n\
             // lint: allow(panic) — invariant upheld by construction\n\
             fn c() { panic!(\"boom\"); }\n\
             #[cfg(test)]\nmod t { fn d() { z.unwrap(); } }\n",
        );
        let diags = check_panics(&f);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 2);
    }

    #[test]
    fn panic_rule_ignores_strings_and_comments() {
        let f = file("let s = \"don't panic!\"; // .unwrap() in comment\n");
        assert!(check_panics(&f).is_empty());
    }

    #[test]
    fn panic_rule_ignores_raw_strings() {
        let f = file("let s = r#\"x.unwrap() and panic!(..) examples\"#;\n");
        assert!(check_panics(&f).is_empty());
    }

    #[test]
    fn panic_rule_skips_unwrap_or_variants() {
        let f = file("let v = o.unwrap_or(0); let w = o.unwrap_or_else(|| 1);\n");
        assert!(check_panics(&f).is_empty());
    }

    #[test]
    fn hash_iter_flags_tracked_idents() {
        let f = file(
            "use std::collections::HashMap;\n\
             struct S { counts: HashMap<u32, u32> }\n\
             fn f(s: &S) { for (k, v) in s.counts.iter() { dbg(k, v); } }\n\
             fn g(s: &S) -> bool { s.counts.contains_key(&3) }\n",
        );
        let diags = check_hash_iteration(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn hash_iter_flags_for_loops_and_respects_annotation() {
        let f = file(
            "let mut seen = HashSet::new();\n\
             for k in &seen { dbg(k); }\n\
             // lint: allow(hash_iter) — collected into a Vec and sorted below\n\
             for k in seen { dbg(k); }\n",
        );
        let diags = check_hash_iteration(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn hash_iter_tracks_fully_qualified_types() {
        let f = file(
            "fn f(m: &std::collections::HashMap<u32, u32>) {\n\
             for (_k, v) in m.iter() { dbg(v); }\n\
             }\n\
             fn g(n: &std::collections::HashMap<u32, u32>) -> usize { n.len() }\n\
             use std::collections::HashSet;\n",
        );
        let diags = check_hash_iteration(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn hash_iter_ignores_btree_and_lookups() {
        let f = file(
            "let m: BTreeMap<u32, u32> = BTreeMap::new();\n\
             for (k, v) in m.iter() { dbg(k, v); }\n\
             let h: HashMap<u32, u32> = HashMap::new();\n\
             let x = h.get(&1);\n\
             h.insert(1, 2);\n",
        );
        assert!(check_hash_iteration(&f).is_empty());
    }

    #[test]
    fn crate_header_requires_both() {
        let ok = file("#![forbid(unsafe_code)]\n#![deny(warnings)]\nfn a() {}\n");
        assert!(check_crate_header(&ok).is_empty());
        let missing = file("#![forbid(unsafe_code)]\nfn a() {}\n");
        assert_eq!(check_crate_header(&missing).len(), 1);
        let neither = file("fn a() {}\n");
        assert_eq!(check_crate_header(&neither).len(), 2);
    }

    #[test]
    fn props_coverage_reports_unnamed_fns() {
        let group = file("pub fn all_reduce() {}\npub fn barrier() {}\nfn private() {}\n");
        let props = file("fn prop_all_reduce_sums() { g.all_reduce(&x); }\n");
        let diags = check_props_coverage(&group, &props);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("barrier"));
    }
}
