//! The two cross-crate rules added with the token-stream engine:
//! `determinism` and `discarded_result`.
//!
//! `determinism` protects bitwise reproducibility, the property the
//! paper's §6 numeric-parity methodology rests on: training twice with
//! the same seed must produce identical traces. Wall-clock reads
//! (`Instant::now`, `SystemTime`), thread identity (`thread::current`,
//! `ThreadId`), randomized hashing (`RandomState`, `DefaultHasher`), and
//! host-dependent parallelism probes are all hidden inputs that vary
//! across runs. Telemetry, profiling, and benchmark crates are exempt
//! (measuring time is their job), as is `sync/src/chaos.rs` (seeded
//! chaos injection owns its randomness). The rule also flags
//! order-sensitive folds over hash-map iteration in non-critical crates;
//! in the `DETERMINISM_CRITICAL` crates `hash_iter` already bans the
//! iteration itself.
//!
//! `discarded_result` bans silently dropping a `Result` from the public
//! collectives/trainer/dataio APIs (`let _ = group.all_reduce(..)` or a
//! bare `group.all_reduce(..);` statement): a swallowed collective error
//! desynchronizes ranks, which surfaces minutes later as a hang in a
//! *different* collective. Handle it, `?` it, or waive it with a reason.

use std::collections::BTreeMap;

use crate::rules::{matching_paren, token_match};
use crate::source::{Diagnostic, SourceFile};

/// Crates whose purpose is measurement; wall-clock reads are their job.
/// `monitor` samples clocks and sleeps by design (live health sampler).
const DETERMINISM_EXEMPT: &[&str] = &["telemetry", "prof", "bench", "xtask", "monitor"];

/// Tokens that read hidden run-varying inputs.
const NONDET_TOKENS: &[&str] = &[
    "Instant::now(",
    "SystemTime",
    "UNIX_EPOCH",
    "thread::current(",
    "ThreadId",
    "RandomState",
    "DefaultHasher",
    "available_parallelism(",
];

/// Order-sensitive reductions: folding hash-map iteration through one of
/// these bakes the (arbitrary) iteration order into the numeric result.
const FOLD_TOKENS: &[&str] = &[".fold(", ".sum(", ".product(", ".reduce("];

/// Rule `determinism`: bans hidden run-varying inputs outside the
/// measurement crates. `hash_critical` is whether `krate` is already
/// covered by the stricter `hash_iter` rule (which bans hash-map
/// iteration wholesale, so the fold check would double-report).
pub fn check_determinism(krate: &str, file: &SourceFile, hash_critical: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if DETERMINISM_EXEMPT.contains(&krate) {
        return out;
    }
    if krate == "sync" && file.path.to_str().is_some_and(|p| p.ends_with("chaos.rs")) {
        return out; // seeded chaos injection owns its randomness
    }
    for (ln, code) in file.code.iter().enumerate() {
        if file.in_test[ln] {
            continue;
        }
        for tok in NONDET_TOKENS {
            if token_match(code, tok).is_none() {
                continue;
            }
            if file.allows(ln, "determinism") {
                break;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: ln + 1,
                rule: "determinism",
                message: format!(
                    "`{tok}` is a hidden run-varying input; seeded runs must be \
                     bitwise reproducible (§6 numeric parity) — thread it through \
                     config/telemetry instead, or add \
                     `// lint: allow(determinism) — <reason>`"
                ),
            });
            break;
        }
    }
    if !hash_critical {
        for name in crate::rules::hash_idents(file) {
            for (ln, code) in file.code.iter().enumerate() {
                if file.in_test[ln] || !crate::rules::iterates_ident(code, &name) {
                    continue;
                }
                if !FOLD_TOKENS.iter().any(|t| code.contains(t)) {
                    continue;
                }
                if file.allows(ln, "determinism") {
                    continue;
                }
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: ln + 1,
                    rule: "determinism",
                    message: format!(
                        "order-sensitive fold over hash-map `{name}` iteration; the \
                         iteration order is arbitrary, so the reduction is not \
                         reproducible — collect and sort first, use a BTreeMap, or \
                         add `// lint: allow(determinism) — <reason>`"
                    ),
                });
            }
        }
    }
    out
}

/// Fn names the rule refuses to index: they collide with ubiquitous
/// std/inherent methods (`Barrier::wait`, `Vec::append`,
/// `SpanGuard::finish`, channel `send`, …), and a token-level matcher
/// has no receiver types to tell them apart. Dropping a `Result` from
/// one of these workspace APIs goes unlinted — the price of zero false
/// positives on every `vec.append(..)` in the tree.
pub const AMBIGUOUS_RESULT_FNS: &[&str] = &[
    "wait", "append", "finish", "send", "recv", "join", "push", "insert", "write", "read", "next",
    "take", "get", "new", "open", "create", "load", "save", "split", "concat",
];

/// Rule `discarded_result`: a `Result` returned by a public
/// collectives/trainer/dataio API must not be dropped with `let _ =` or
/// a bare `call(..);` statement. `result_fns` maps fn name → defining
/// crate (built from the symbol index by the registry, minus
/// [`AMBIGUOUS_RESULT_FNS`]).
pub fn check_discarded_result(
    file: &SourceFile,
    result_fns: &BTreeMap<String, String>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ln, code) in file.code.iter().enumerate() {
        if file.in_test[ln] || code.contains("fn ") {
            continue;
        }
        for (name, krate) in result_fns {
            let pat = format!("{name}(");
            let Some(at) = token_match(code, &pat) else {
                continue;
            };
            let underscore_eq = ["let _ =", "let _="]
                .iter()
                .find_map(|p| code.find(p).map(|i| i + p.len()));
            let dropped = if let Some(eq_end) = underscore_eq.filter(|&e| e <= at) {
                // the discarded call must be the statement's OUTERMOST
                // expression: `let _ = tx.send(train(..))` discards `send`'s
                // value, not `train`'s
                !code[eq_end..at].contains('(')
                    && matching_paren(code, at + pat.len() - 1)
                        .is_some_and(|close| code[close + 1..].trim() == ";")
            } else {
                // bare statement: `recv.call(args);` with nothing consuming
                // the value — no `=`, no control-flow keyword, and the call
                // closes directly into `;`
                let bare_stmt = matching_paren(code, at + pat.len() - 1)
                    .is_some_and(|close| code[close + 1..].trim() == ";");
                let prefix = &code[..at];
                bare_stmt
                    && !prefix.contains('=')
                    && !["return", "match", "if", "while", "else"]
                        .iter()
                        .any(|kw| token_match(prefix, kw).is_some())
            };
            if !dropped {
                continue;
            }
            if file.allows(ln, "discarded_result") {
                continue;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: ln + 1,
                rule: "discarded_result",
                message: format!(
                    "discards the `Result` of `{krate}::{name}`; a swallowed error \
                     here desynchronizes ranks and hangs a later collective — \
                     handle or `?`-propagate it, or add \
                     `// lint: allow(discarded_result) — <reason>`"
                ),
            });
            break; // one diagnostic per line
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(path: &str, text: &str) -> SourceFile {
        SourceFile::parse(Path::new(path), text)
    }

    #[test]
    fn determinism_flags_clock_reads_outside_measurement_crates() {
        let src = "fn tick() {\n    let t0 = std::time::Instant::now();\n}\n\
                   fn seeded() {\n\
                   \x20   // lint: allow(determinism) — converted to ns offset at ingest\n\
                   \x20   let t1 = std::time::Instant::now();\n}\n\
                   #[cfg(test)]\nmod t {\n    fn f() { let t = std::time::Instant::now(); }\n}\n";
        let f = parse("crates/trainer/src/lib.rs", src);
        let diags = check_determinism("trainer", &f, true);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(check_determinism("telemetry", &f, false).is_empty());
        assert!(check_determinism("prof", &f, false).is_empty());
    }

    #[test]
    fn determinism_exempts_chaos_module_and_flags_hash_folds() {
        let chaos = parse(
            "crates/sync/src/chaos.rs",
            "fn jitter() { let t = std::time::Instant::now(); }\n",
        );
        assert!(check_determinism("sync", &chaos, false).is_empty());

        let fold = parse(
            "crates/netsim/src/lib.rs",
            "use std::collections::HashMap;\n\
             fn total(m: &HashMap<u32, f32>) -> f32 {\n\
             \x20   m.values().fold(0.0, |a, b| a + b)\n\
             }\n\
             fn count(m: &HashMap<u32, f32>) -> usize {\n\
             \x20   m.values().count()\n\
             }\n",
        );
        let diags = check_determinism("netsim", &fold, false);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            diags[0].line, 3,
            "the fold, not the order-insensitive count"
        );
        // critical crates defer to hash_iter for the whole iteration
        assert!(check_determinism("netsim", &fold, true).is_empty());
    }

    fn result_fns() -> BTreeMap<String, String> {
        [("all_reduce", "collectives"), ("next_batch", "dataio")]
            .into_iter()
            .map(|(f, k)| (f.to_owned(), k.to_owned()))
            .collect()
    }

    #[test]
    fn discarded_result_flags_let_underscore_and_bare_statements() {
        let src = "fn step(g: &mut Group, buf: &mut [f32]) -> Result<(), E> {\n\
                   \x20   let _ = g.all_reduce(buf);\n\
                   \x20   g.all_reduce(buf);\n\
                   \x20   g.all_reduce(buf)?;\n\
                   \x20   let out = g.all_reduce(buf);\n\
                   \x20   // lint: allow(discarded_result) — shutdown path, error logged upstream\n\
                   \x20   let _ = g.all_reduce(buf);\n\
                   \x20   if g.all_reduce(buf).is_err() { return Err(E); }\n\
                   \x20   let _ = tx.send(g.all_reduce(buf));\n\
                   \x20   Ok(())\n\
                   }\n";
        let f = parse("crates/trainer/src/lib.rs", src);
        let diags = check_discarded_result(&f, &result_fns());
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3], "{diags:?}");
    }

    #[test]
    fn discarded_result_ignores_tests_and_definitions() {
        let src = "pub fn all_reduce(buf: &mut [f32]) -> Result<(), E> { Ok(()) }\n\
                   #[cfg(test)]\nmod t {\n\
                   \x20   fn f(g: &mut Group) { let _ = g.all_reduce(&mut []); }\n\
                   }\n";
        let f = parse("crates/collectives/src/group.rs", src);
        assert!(check_discarded_result(&f, &result_fns()).is_empty());
    }
}
