//! Per-file source model derived from the token stream.
//!
//! [`SourceFile::parse`] tokenizes the file once (see [`crate::token`])
//! and derives the views every rule consumes: per-line *code* text with
//! comment and literal contents blanked (equal char width to the raw
//! line, so columns always line up), per-line comment text (where
//! `// lint: allow(...)` annotations live), a `#[cfg(test)]`-region mask,
//! and the parsed waiver list with **per-token-span** consumption
//! tracking — a waiver is a specific comment token, and `allows` marks
//! that token consumed, which is what the `stale_waiver` rule audits.

use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::token::{tokenize, Tok, TokKind};

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the violation is in (workspace-relative).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier, e.g. `hot_path_alloc` or `stale_waiver`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One `// lint: allow(<rule>) — <reason>` annotation, anchored to the
/// comment token that carries it.
#[derive(Debug)]
pub struct Waiver {
    /// Rule the waiver names.
    pub rule: String,
    /// 0-based line of the annotation's comment token.
    pub line: usize,
    /// Whether the annotation sits on a comment-only line, in which case
    /// it covers the *next* line rather than its own.
    pub standalone: bool,
    /// Doc comments (`///`, `//!`) may quote the grammar without waiving.
    pub doc: bool,
    /// Whether the annotation is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A parsed source file ready for rule scans.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used in diagnostics.
    pub path: PathBuf,
    /// Original lines.
    pub raw: Vec<String>,
    /// Lines with comments and literal contents replaced by spaces.
    pub code: Vec<String>,
    /// Comment text of each line (empty when the line has none).
    pub comments: Vec<String>,
    /// Whether each line is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// The full token stream (lossless; comments and literals included).
    pub tokens: Vec<Tok>,
    /// Parsed waiver annotations, in source order.
    pub waivers: Vec<Waiver>,
    /// Which waivers have suppressed at least one finding this run
    /// (interior-mutated by [`SourceFile::allows`]); feeds `stale_waiver`.
    used_waivers: RefCell<Vec<bool>>,
}

impl SourceFile {
    /// Parses `text` (the contents of `path`).
    pub fn parse(path: &Path, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let tokens = tokenize(text);
        let (code, comments) = render_views(&raw, &tokens);
        let in_test = mark_test_regions(&code);
        let waivers = extract_waivers(&tokens, &code, &in_test);
        let used_waivers = RefCell::new(vec![false; waivers.len()]);
        SourceFile {
            path: path.to_path_buf(),
            raw,
            code,
            comments,
            in_test,
            tokens,
            waivers,
            used_waivers,
        }
    }

    /// Whether `line` (0-based) is covered by a waiver for `rule`: a
    /// trailing annotation on the line itself, or a comment-only
    /// annotation line immediately above. A successful consult marks that
    /// waiver token *consumed* so `stale_waiver` can report annotations
    /// that no longer suppress anything.
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        for (idx, w) in self.waivers.iter().enumerate() {
            if w.rule != rule {
                continue;
            }
            let covered = if w.standalone {
                w.line + 1 == line
            } else {
                w.line == line
            };
            if covered {
                self.used_waivers.borrow_mut()[idx] = true;
                return true;
            }
        }
        false
    }

    /// Waiver rules consumed in this file so far, one entry per consumed
    /// annotation (for per-rule waived-finding accounting).
    pub fn consumed_waivers(&self) -> Vec<String> {
        let used = self.used_waivers.borrow();
        self.waivers
            .iter()
            .enumerate()
            .filter(|(i, _)| used[*i])
            .map(|(_, w)| w.rule.clone())
            .collect()
    }

    /// Rule `stale_waiver`: annotations that suppressed nothing in this
    /// run (the code they excused has been fixed or moved) or that name a
    /// rule the linter does not have. Call only *after* every other rule
    /// has scanned the file — [`SourceFile::allows`] marks consumed
    /// waivers as it runs. Doc comments are skipped: they may legally
    /// *describe* the annotation grammar without waiving anything.
    pub fn stale_waivers(&self, known_rules: &[&str]) -> Vec<Diagnostic> {
        let used = self.used_waivers.borrow();
        let mut out = Vec::new();
        for (idx, w) in self.waivers.iter().enumerate() {
            if w.doc || w.in_test {
                continue;
            }
            if !known_rules.contains(&w.rule.as_str()) {
                out.push(Diagnostic {
                    path: self.path.clone(),
                    line: w.line + 1,
                    rule: "stale_waiver",
                    message: format!(
                        "waiver names unknown rule `{}` (known: {})",
                        w.rule,
                        known_rules.join(", ")
                    ),
                });
            } else if !used[idx] {
                out.push(Diagnostic {
                    path: self.path.clone(),
                    line: w.line + 1,
                    rule: "stale_waiver",
                    message: format!(
                        "`lint: allow({})` no longer suppresses any finding; \
                         remove the stale waiver",
                        w.rule
                    ),
                });
            }
        }
        out
    }
}

/// Extracts the rule name from a well-formed lint annotation in a comment.
///
/// Grammar: `lint: allow(<rule>) <sep> <reason>` where `<sep>` is an em
/// dash, hyphen, or colon and `<reason>` is non-empty. A marker without a
/// reason does not count — the reason is the point.
pub fn annotation_of(comment: &str) -> Option<&str> {
    let start = comment.find("lint: allow(")?;
    let after = &comment[start + "lint: allow(".len()..];
    let close = after.find(')')?;
    let rule = after[..close].trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = after[close + 1..].trim_start();
    let reason = rest
        .strip_prefix('\u{2014}')
        .or_else(|| rest.strip_prefix('-'))
        .or_else(|| rest.strip_prefix(':'))?;
    if reason.trim().len() < 3 {
        return None;
    }
    Some(rule)
}

/// Walks the comment tokens and materializes each annotation as a
/// [`Waiver`] anchored to its token.
fn extract_waivers(tokens: &[Tok], code: &[String], in_test: &[bool]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let Some(rule) = annotation_of(&t.text) else {
            continue;
        };
        // the annotation anchors to the last line of the comment token
        // (a multi-line block comment waives below itself)
        let line = t.line + t.text.matches('\n').count();
        let trimmed = t.text.trim_start();
        out.push(Waiver {
            rule: rule.to_owned(),
            line,
            standalone: code.get(line).is_some_and(|l| l.trim().is_empty()),
            doc: trimmed.starts_with("///") || trimmed.starts_with("//!"),
            in_test: in_test.get(line).copied().unwrap_or(false),
        });
    }
    out
}

/// Renders the per-line code and comment views from the token stream.
///
/// Code view: comments and literal interiors become spaces; string quotes
/// are kept as `"` markers (rules use them to spot literal arguments);
/// raw strings and char literals blank entirely. Every code line has the
/// same char width as the raw line.
fn render_views(raw: &[String], tokens: &[Tok]) -> (Vec<String>, Vec<String>) {
    let mut code: Vec<String> = raw.iter().map(|l| " ".repeat(l.chars().count())).collect();
    let mut comments: Vec<String> = vec![String::new(); raw.len()];
    if raw.is_empty() {
        return (code, comments);
    }

    for t in tokens {
        for (seg_idx, seg) in t.text.split('\n').enumerate() {
            let line = t.line + seg_idx;
            if line >= raw.len() || seg.is_empty() {
                continue;
            }
            let col = if seg_idx == 0 { t.col } else { 0 };
            match t.kind {
                TokKind::Ws
                | TokKind::Ident
                | TokKind::Num
                | TokKind::Punct
                | TokKind::Lifetime => {
                    splice(&mut code[line], col, seg);
                }
                TokKind::LineComment | TokKind::BlockComment => {
                    comments[line].push_str(seg);
                }
                TokKind::Str => {
                    // keep the quote markers, blank the body
                    let n = seg.chars().count();
                    let last_seg = t.text.split('\n').count() - 1 == seg_idx;
                    let mut render: Vec<char> = vec![' '; n];
                    if seg_idx == 0 {
                        if let Some(q) = seg.chars().position(|c| c == '"') {
                            render[q] = '"';
                        }
                    }
                    if last_seg && t.text.ends_with('"') && n > 0 && !(seg_idx == 0 && n <= 1) {
                        render[n - 1] = '"';
                    }
                    let rendered: String = render.into_iter().collect();
                    splice(&mut code[line], col, &rendered);
                }
                TokKind::RawStr | TokKind::Char => {} // stays blank
            }
        }
    }
    (code, comments)
}

/// Overwrites `line` starting at char column `col` with `text`.
fn splice(line: &mut String, col: usize, text: &str) {
    let chars: Vec<char> = line.chars().collect();
    let mut out: String = chars.iter().take(col).collect();
    out.push_str(text);
    out.extend(chars.iter().skip(col + text.chars().count()));
    *line = out;
}

/// Marks every line belonging to a `#[cfg(test)]`-gated item by tracking
/// brace depth from the attribute to the close of the item it gates.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    // (closing depth) of currently open cfg(test) item, if any
    let mut test_close_depth: Option<i64> = None;
    // attribute seen, item body not yet opened
    let mut pending_attr = false;

    for (ln, line) in code.iter().enumerate() {
        if test_close_depth.is_some() || pending_attr {
            in_test[ln] = true;
        }
        if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            pending_attr = true;
            in_test[ln] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr && test_close_depth.is_none() {
                        test_close_depth = Some(depth - 1);
                        pending_attr = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(close) = test_close_depth {
                        if depth <= close {
                            test_close_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("x.rs"), text)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = parse("let x = \"panic!\"; // panic! here\nlet y = 1;");
        assert!(!f.code[0].contains("panic!"), "code view: {:?}", f.code[0]);
        assert!(f.comments[0].contains("panic!"));
        assert_eq!(f.code[1], "let y = 1;");
    }

    #[test]
    fn code_view_width_matches_raw() {
        let f = parse(
            "let s = r#\"wide raw\"#; /* c */ let c = '{';\nlet m = \"a\nmultiline b\"; end();",
        );
        for (raw, code) in f.raw.iter().zip(&f.code) {
            assert_eq!(
                raw.chars().count(),
                code.chars().count(),
                "{raw:?}/{code:?}"
            );
        }
    }

    /// A literal continued with a trailing `\` stays string content on the
    /// next line: no phantom comments (`//` in message text) and no brace
    /// miscounting from `{}` placeholders.
    #[test]
    fn escaped_string_continuations_stay_in_string_mode() {
        let f = parse(
            "let m = format!(\"add {x} or \\\n     `// lint: allow(panic) — x`\");\nlet y = 2;",
        );
        assert!(f.comments[1].is_empty(), "comments: {:?}", f.comments[1]);
        assert!(!f.code[1].contains('`'), "code view: {:?}", f.code[1]);
        assert_eq!(f.code[2], "let y = 2;");
        assert!(
            !f.code[0].contains('{'),
            "placeholder blanked: {:?}",
            f.code[0]
        );
    }

    /// The tokenizer-level fix for the same class: a *plain* multi-line
    /// string (no `\` continuation) also stays string content.
    #[test]
    fn plain_multiline_strings_stay_in_string_mode() {
        let f = parse("let m = \"first\n// not a comment { } \nlast\";\nlet y = 2;");
        assert!(f.comments[1].is_empty(), "comments: {:?}", f.comments[1]);
        assert!(!f.code[1].contains('{'), "code view: {:?}", f.code[1]);
        assert_eq!(f.code[3], "let y = 2;");
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let f =
            parse("let s = r#\"has .unwrap() inside\"#; let c = '{'; let l: &'static str = \"x\";");
        assert!(!f.code[0].contains(".unwrap()"));
        assert!(
            !f.code[0].contains('{'),
            "char literal blanked: {:?}",
            f.code[0]
        );
        assert!(
            f.code[0].contains("static"),
            "lifetime kept: {:?}",
            f.code[0]
        );
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let f = parse("/* start /* nested\n.unwrap()\nstill */ comment */ let a = 1;");
        assert!(!f.code[1].contains(".unwrap()"));
        assert!(f.code[2].contains("let a = 1;"), "{:?}", f.code[2]);
        assert!(f.comments[0].contains("start"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = parse(text);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn annotation_grammar() {
        assert_eq!(
            annotation_of("// lint: allow(panic) — lock poisoning is fatal"),
            Some("panic")
        );
        assert_eq!(
            annotation_of("// lint: allow(hash_iter) - sorted before use"),
            Some("hash_iter")
        );
        assert_eq!(
            annotation_of("// lint: allow(panic): reason text"),
            Some("panic")
        );
        assert_eq!(
            annotation_of("// lint: allow(panic)"),
            None,
            "reason required"
        );
        assert_eq!(
            annotation_of("// lint: allow(panic) — x"),
            None,
            "reason too short"
        );
        assert_eq!(annotation_of("// nothing to see"), None);
    }

    #[test]
    fn allows_checks_same_and_previous_line() {
        let text = "// lint: allow(panic) — covered above\nx.unwrap();\ny.unwrap(); // lint: allow(panic) — trailing form\nz.unwrap();\n";
        let f = parse(text);
        assert!(f.allows(1, "panic"));
        assert!(f.allows(2, "panic"));
        assert!(!f.allows(3, "panic"));
        assert!(!f.allows(1, "hash_iter"), "rule name must match");
    }

    #[test]
    fn waivers_are_tracked_per_token_span() {
        let text = "x.unwrap(); // lint: allow(panic) — token-anchored\n\
                    // lint: allow(panic) — standalone, never consumed\n\
                    let y = 1;\n";
        let f = parse(text);
        assert_eq!(f.waivers.len(), 2);
        assert!(f.allows(0, "panic"));
        assert_eq!(f.consumed_waivers(), vec!["panic".to_owned()]);
        let stale = f.stale_waivers(&["panic"]);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].line, 2, "the standalone waiver is the stale one");
    }

    #[test]
    fn stale_waivers_reports_unused_and_unknown_rules() {
        let text = "// lint: allow(panic) — consumed below\n\
                    x.unwrap();\n\
                    // lint: allow(panic) — nothing left under this one\n\
                    let y = 1;\n\
                    // lint: allow(made_up) — no such rule\n\
                    let z = 2;\n";
        let f = parse(text);
        // simulate the panic rule consuming the first waiver
        assert!(f.allows(1, "panic"));
        let diags = f.stale_waivers(&["panic", "hash_iter"]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("no longer suppresses"));
        assert_eq!(diags[1].line, 5);
        assert!(diags[1].message.contains("unknown rule `made_up`"));
    }

    #[test]
    fn stale_waivers_skips_doc_comments_and_tests() {
        let text = "//! Docs may show `lint: allow(panic) — reason` verbatim.\n\
                    /// Same for `lint: allow(hash_iter) — reason` items.\n\
                    fn lib() {}\n\
                    #[cfg(test)]\n\
                    mod t {\n\
                        // lint: allow(panic) — tests are exempt anyway\n\
                        fn t() { x.unwrap(); }\n\
                    }\n";
        let f = parse(text);
        assert!(f.stale_waivers(&["panic", "hash_iter"]).is_empty());
    }
}
