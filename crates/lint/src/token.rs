//! Lossless Rust tokenizer.
//!
//! Splits a source text into a stream of [`Tok`]s whose concatenated
//! `text` reproduces the input byte for byte — on *any* input, including
//! malformed or truncated sources (an unterminated literal or block
//! comment simply runs to end of file). Losslessness is what lets the
//! rest of the engine derive equal-width "code" and "comment" line views
//! from the stream and report positions that always agree with the file
//! on disk; it is property-tested in `tests/roundtrip.rs`.
//!
//! The grammar covered is the subset of Rust lexing the rules need to be
//! exact about: identifiers/keywords, integer and float literals, string
//! literals with escapes (including multi-line bodies and the trailing-`\`
//! continuation form that the old line-oriented scanner mishandled), raw
//! strings `r"…"` / `r#"…"#` with any hash count, byte and byte-string
//! forms, char literals vs lifetimes, line comments, and **nested** block
//! comments. Everything else is a single-character [`TokKind::Punct`].

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Whitespace run (spaces, tabs, newlines).
    Ws,
    /// `// …` to end of line (newline not included).
    LineComment,
    /// `/* … */`, nesting-aware; may span lines.
    BlockComment,
    /// `"…"` or `b"…"`, escapes handled; may span lines.
    Str,
    /// `r"…"`, `r#"…"#`, `br#"…"#` — any hash count.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a`, `'static` (no closing quote).
    Lifetime,
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (ints, floats, radix prefixes, suffixes).
    Num,
    /// Any single character not covered above.
    Punct,
}

/// One token: kind, exact source text, and 0-based start position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 0-based line of the token's first character.
    pub line: usize,
    /// 0-based column (in chars) of the token's first character.
    pub col: usize,
}

impl Tok {
    /// Whether this token is a comment of either form.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Whether `c` can appear in an identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// Tokenizes `src`. Lossless: `toks.iter().map(|t| &t.text).collect::<String>() == src`.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 0usize;
    let mut col = 0usize;

    while i < chars.len() {
        let start = i;
        let (tline, tcol) = (line, col);
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        let kind = if c.is_whitespace() {
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            TokKind::Ws
        } else if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            TokKind::LineComment
        } else if c == '/' && next == Some('*') {
            i += 2;
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokKind::BlockComment
        } else if let Some(end) = raw_str_end(&chars, i) {
            i = end;
            TokKind::RawStr
        } else if c == '"' || (c == 'b' && next == Some('"')) {
            if c == 'b' {
                i += 1;
            }
            i += 1; // opening quote
            while i < chars.len() {
                match chars[i] {
                    '\\' => i += if i + 1 < chars.len() { 2 } else { 1 },
                    '"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            TokKind::Str
        } else if c == '\'' || (c == 'b' && next == Some('\'')) {
            let q = if c == 'b' { i + 1 } else { i };
            match char_kind(&chars, q) {
                CharOrLifetime::Char(end) => {
                    i = end;
                    TokKind::Char
                }
                CharOrLifetime::Lifetime(end) if c == '\'' => {
                    i = end;
                    TokKind::Lifetime
                }
                _ => {
                    // `b` followed by a lifetime-looking quote can't happen
                    // in valid Rust; emit the `b` as an ident and rescan
                    i += 1;
                    TokKind::Ident
                }
            }
        } else if is_ident_start(c) {
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            TokKind::Ident
        } else if c.is_ascii_digit() {
            i = scan_number(&chars, i);
            TokKind::Num
        } else {
            i += 1;
            TokKind::Punct
        };

        let text: String = chars[start..i].iter().collect();
        for ch in text.chars() {
            if ch == '\n' {
                line += 1;
                col = 0;
            } else {
                col += 1;
            }
        }
        toks.push(Tok {
            kind,
            text,
            line: tline,
            col: tcol,
        });
    }
    toks
}

/// If position `i` starts a raw (byte) string — `r"`, `r#…#"`, `br"`,
/// `br#…#"` — returns the index one past its end.
fn raw_str_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '"' && (0..hashes).all(|k| chars.get(j + 1 + k) == Some(&'#')) {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(chars.len()) // unterminated: runs to EOF, still lossless
}

enum CharOrLifetime {
    Char(usize),
    Lifetime(usize),
    Neither,
}

/// Distinguishes a char literal from a lifetime at the `'` in `chars[q]`.
fn char_kind(chars: &[char], q: usize) -> CharOrLifetime {
    match chars.get(q + 1) {
        None => CharOrLifetime::Neither,
        Some('\\') => {
            // escaped char: scan (bounded) to the closing quote
            let mut j = q + 2;
            let limit = (q + 12).min(chars.len());
            while j < limit {
                if chars[j] == '\'' {
                    return CharOrLifetime::Char(j + 1);
                }
                j += 1;
            }
            CharOrLifetime::Neither
        }
        Some(&c2) => {
            if chars.get(q + 2) == Some(&'\'') && c2 != '\'' {
                return CharOrLifetime::Char(q + 3);
            }
            if is_ident_start(c2) {
                let mut j = q + 1;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                return CharOrLifetime::Lifetime(j);
            }
            CharOrLifetime::Neither
        }
    }
}

/// Scans a numeric literal starting at digit `chars[i]`; returns one past
/// its end. Covers radix prefixes, `_` separators, float fractions and
/// exponents, and type suffixes — without swallowing `1..4`'s range dots.
fn scan_number(chars: &[char], i: usize) -> usize {
    let mut j = i;
    while j < chars.len() && (is_ident_char(chars[j])) {
        j += 1;
    }
    // fraction: `.` followed by a digit (not `..`)
    if chars.get(j) == Some(&'.')
        && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit())
        && chars.get(j.wrapping_sub(1)) != Some(&'.')
    {
        j += 1;
        while j < chars.len() && is_ident_char(chars[j]) {
            j += 1;
        }
    }
    // exponent sign: `1e-3` leaves `e` consumed above, sign pending
    if matches!(chars.get(j), Some('+') | Some('-'))
        && chars
            .get(j.wrapping_sub(1))
            .is_some_and(|c| *c == 'e' || *c == 'E')
        && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit())
    {
        j += 1;
        while j < chars.len() && is_ident_char(chars[j]) {
            j += 1;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined(toks: &[Tok]) -> String {
        toks.iter().map(|t| t.text.as_str()).collect()
    }

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Ws)
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn roundtrip_basics() {
        for src in [
            "fn main() { let x = 1; }",
            "let s = \"a \\\" b\"; // trailing",
            "let r = r#\"raw \"quote\" body\"#;",
            "/* a /* nested */ b */ let x = 'c';",
            "let l: &'static str = \"x\"; let t = 1..4;",
            "let f = 1.5e-3_f64; let h = 0xFF_u8;",
            "let b = b\"bytes\"; let bc = b'x'; let br = br#\"raw bytes\"#;",
            "",
            "\"unterminated",
            "/* unterminated",
            "r#\"unterminated raw",
        ] {
            assert_eq!(joined(&tokenize(src)), src, "lossless on {src:?}");
        }
    }

    /// The PR 5 bug class: a `\`-continued string literal must stay one
    /// token across the line break — no phantom comments or braces from
    /// text inside the continuation.
    #[test]
    fn escaped_continuation_stays_one_string_token() {
        let src =
            "let m = format!(\"add {x} or \\\n     `// lint: allow(panic) — x`\");\nlet y = 2;";
        let toks = tokenize(src);
        assert_eq!(joined(&toks), src);
        let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1, "{strs:?}");
        assert!(strs[0].text.contains("lint: allow"));
        assert!(
            !toks.iter().any(|t| t.is_comment()),
            "no phantom comment tokens: {toks:?}"
        );
    }

    /// Raw strings with any hash count are single tokens, and the hash
    /// fence must match exactly (a `"#` inside a `##` fence is body text).
    #[test]
    fn raw_strings_with_hash_fences() {
        let src = "let a = r\"plain\"; let b = r##\"has \"# inside\"##; fn r_ident(r: u32) {}";
        let toks = tokenize(src);
        assert_eq!(joined(&toks), src);
        let raws: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::RawStr).collect();
        assert_eq!(raws.len(), 2, "{raws:?}");
        assert_eq!(raws[1].text, "r##\"has \"# inside\"##");
        // `r` used as a plain ident must not start a raw string
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r"));
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let src = "a /* x /* y /* z */ y */ x */ b";
        let toks = tokenize(src);
        assert_eq!(joined(&toks), src);
        let blocks: Vec<&Tok> = toks
            .iter()
            .filter(|t| t.kind == TokKind::BlockComment)
            .collect();
        assert_eq!(blocks.len(), 1, "{blocks:?}");
        assert!(blocks[0].text.contains('z'));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds("let c = '{'; let e = '\\n'; fn f<'a>(x: &'a str) -> &'static str { x }");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 2, "{chars:?}");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3, "{lifetimes:?}");
    }

    #[test]
    fn positions_are_tracked_across_lines() {
        let toks = tokenize("ab cd\n  ef");
        let ef = toks.iter().find(|t| t.text == "ef").unwrap();
        assert_eq!((ef.line, ef.col), (1, 2));
        let multi = tokenize("let s = \"a\nb\";\nnext");
        let next = multi.iter().find(|t| t.text == "next").unwrap();
        assert_eq!((next.line, next.col), (2, 0));
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let toks = kinds("for i in 0..10 { let x = 2.5; }");
        assert!(toks.contains(&(TokKind::Num, "0".into())), "{toks:?}");
        assert!(toks.contains(&(TokKind::Num, "10".into())), "{toks:?}");
        assert!(toks.contains(&(TokKind::Num, "2.5".into())), "{toks:?}");
    }
}
