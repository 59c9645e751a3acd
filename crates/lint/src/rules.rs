//! The two file-local invariants, as pure functions over [`SourceFile`]s,
//! plus the token helpers the other rules share.
//!
//! | rule          | invariant                                                 |
//! |---------------|-----------------------------------------------------------|
//! | `crate_header`| `#![forbid(unsafe_code)]` + `#![deny(warnings)]` in roots |
//! | `props_cover` | every `pub fn` of collectives group.rs named in props.rs  |
//!
//! `hot_path_alloc` and `panic_path` live in [`crate::hotpath`];
//! `stale_waiver` is [`SourceFile::stale_waivers`], run after every
//! other rule so consumed annotations are already marked. The
//! [`crate::Rule`] registry in the crate root wires all five
//! together. Panics, hash containers, clock reads and `std::sync` locks
//! are clippy's job (the root `clippy.toml` and ci.sh gate 2), and lock
//! order is neo-sync's `LockClass`; neither is this crate's.

use crate::source::{Diagnostic, SourceFile};
use crate::token::is_ident_char;

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
    fn token_match_respects_identifier_boundaries() {
        assert_eq!(token_match("x.unwrap();", ".unwrap()"), Some(1));
        assert_eq!(token_match("o.unwrap_or(0)", ".unwrap()"), None);
        assert_eq!(token_match("panic!(\"boom\")", "panic!"), Some(0));
        assert_eq!(token_match("dont_panic!()", "panic!"), None);
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
