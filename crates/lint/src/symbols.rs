//! Cross-crate symbol index.
//!
//! Walks every crate's token streams once and records every function
//! definition — free fns, inherent methods, and trait-impl fns alike —
//! with its visibility (`is_pub`), plus the `pub` structs and enums. The
//! call graph (`callgraph` module) resolves call sites against the full
//! fn set and `Type::f` paths against the type names.

use std::collections::BTreeMap;

use crate::source::SourceFile;
use crate::token::{Tok, TokKind};

/// A function definition (free fn, method, or trait-impl fn).
#[derive(Debug, Clone)]
pub struct FnSym {
    pub name: String,
    /// Whether the definition carries a `pub` visibility (any scope,
    /// including `pub(crate)`/`pub(super)`). Rules about the public
    /// surface filter on this; the call graph indexes everything.
    pub is_pub: bool,
}

/// Everything one crate exports.
#[derive(Debug, Clone, Default)]
pub struct CrateSymbols {
    pub fns: Vec<FnSym>,
    pub structs: Vec<String>,
}

/// Public symbols per crate, keyed by crate directory name.
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex {
    pub crates: BTreeMap<String, CrateSymbols>,
}

impl SymbolIndex {
    /// Builds the index over `(crate name, parsed files)` pairs.
    pub fn build(crates: &[(String, Vec<SourceFile>)]) -> SymbolIndex {
        let mut index = SymbolIndex::default();
        for (name, files) in crates {
            let entry = index.crates.entry(name.clone()).or_default();
            for file in files {
                scan_file(file, entry);
            }
        }
        index
    }

    /// The symbols of `krate`, or an empty set when it is not indexed.
    pub fn of(&self, krate: &str) -> CrateSymbols {
        self.crates.get(krate).cloned().unwrap_or_default()
    }
}

/// Significant (non-whitespace, non-comment) tokens with their stream
/// positions, plus the in-test mask applied.
fn significant(file: &SourceFile) -> Vec<&Tok> {
    file.tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
            ) && !file.in_test.get(t.line).copied().unwrap_or(false)
        })
        .collect()
}

fn scan_file(file: &SourceFile, out: &mut CrateSymbols) {
    let toks = significant(file);
    let ident = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };

    let mut i = 0;
    while i < toks.len() {
        // Every `fn` item is indexed, public or not: the call graph
        // resolves call sites against private helpers and methods too.
        // A `fn` token that is part of a fn-pointer type (`fn(u32)`) or
        // an `Fn` trait bound has no following ident and is skipped.
        if ident(i, "fn") {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                out.fns.push(FnSym {
                    name: name_tok.text.clone(),
                    is_pub: vis_is_pub(&toks, i),
                });
            }
            i += 2;
            continue;
        }
        if !ident(i, "pub") {
            i += 1;
            continue;
        }
        // skip a visibility scope: `pub(crate)`, `pub(super)`, …
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            while j < toks.len() && toks[j].text != ")" {
                j += 1;
            }
            j += 1;
        }
        if ident(j, "fn") || (ident(j, "const") && toks.get(j + 1).is_some_and(|t| t.text == "fn"))
        {
            // `pub [const] fn …`: let the fn arm above handle it so the
            // definition is recorded exactly once.
            i = j;
            continue;
        }
        if ident(j, "struct") || ident(j, "enum") {
            if let Some(name_tok) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                out.structs.push(name_tok.text.clone());
            }
        }
        i = j + 1;
    }
}

/// Whether the `fn` token at `fn_idx` carries a `pub` visibility
/// (including scoped forms like `pub(crate)`). Walks back over fn
/// qualifiers (`const`, `unsafe`, `async`, `extern "ABI"`) to the
/// visibility, then over a `(...)` scope to the `pub` keyword.
fn vis_is_pub(toks: &[&Tok], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0 {
        let prev = toks[k - 1];
        let skip = matches!(prev.text.as_str(), "const" | "unsafe" | "async" | "extern")
            || prev.kind == TokKind::Str;
        if !skip {
            break;
        }
        k -= 1;
    }
    if k == 0 {
        return false;
    }
    if toks[k - 1].text == ")" {
        let mut j = k - 1;
        while j > 0 && toks[j].text != "(" {
            j -= 1;
        }
        return j > 0 && toks[j - 1].kind == TokKind::Ident && toks[j - 1].text == "pub";
    }
    toks[k - 1].kind == TokKind::Ident && toks[k - 1].text == "pub"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn index_of(name: &str, module: &str, text: &str) -> CrateSymbols {
        let f = SourceFile::parse(Path::new(&format!("crates/{name}/src/{module}.rs")), text);
        SymbolIndex::build(&[(name.to_owned(), vec![f])]).of(name)
    }

    #[test]
    fn methods_and_qualified_fns_are_indexed() {
        let syms = index_of(
            "tensor",
            "gemm",
            "impl Plan {\n\
                 pub const fn lanes() -> usize { 8 }\n\
                 fn kernel(&self) { }\n\
                 pub(crate) fn scoped(&self) { }\n\
             }\n\
             impl Step for Plan {\n\
                 fn advance(&mut self) -> StepResult { StepResult::Done }\n\
             }\n\
             type Apply = fn(u32) -> u32;\n",
        );
        let names: Vec<(&str, bool)> = syms
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("lanes", true),
                ("kernel", false),
                ("scoped", true),
                ("advance", false)
            ],
            "methods and trait-impl fns are indexed and a scoped `pub` counts; \
             fn-pointer types are not"
        );
    }

    #[test]
    fn structs_and_test_code_are_handled() {
        let syms = index_of(
            "demo",
            "lib",
            "pub struct Plan { }\npub enum Mode { A }\n\
             #[cfg(test)]\nmod t { pub fn test_only() -> Result<(), E> { Ok(()) } }\n",
        );
        assert_eq!(syms.structs, vec!["Plan".to_owned(), "Mode".to_owned()]);
        assert!(syms.fns.is_empty(), "test code is not indexed");
    }
}
