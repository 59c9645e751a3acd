//! Property: the tokenizer is lossless. For any input — well-formed Rust,
//! half-typed garbage, unterminated literals — concatenating the token
//! texts in order must reproduce the input byte for byte. Every rule in
//! the engine reads token-derived line views, so a single dropped or
//! duplicated character here would silently shift every downstream span.
//!
//! The offline proptest shim has no `String` strategy, so inputs are
//! synthesized two ways: by splicing fragments from a table of adversarial
//! Rust snippets (raw strings, nested block comments, escapes, lifetimes),
//! and by mapping raw byte vectors onto a printable palette to cover
//! sequences no grammar would produce.

use neo_lint::token::tokenize;
use proptest::prelude::*;

/// Adversarial source fragments. Deliberately includes unterminated and
/// malformed pieces: losslessness must hold even when a later fragment
/// lands inside a string or comment opened by an earlier one.
const FRAGMENTS: &[&str] = &[
    "fn main() {\n",
    "let x = 1;\n",
    "ident_0",
    "x'",
    "'a",
    "'\\n'",
    "'q'",
    "0xFF_u32 ",
    "1e-9",
    "\"plain\"",
    "\"esc \\\" \\\\ \\n\"",
    "\"unterminated\n",
    "r\"raw \\ not escape\"",
    "r#\"hash \" inside\"#",
    "r##\"## nested \"# close\"##",
    "// line comment\n",
    "//! doc comment\n",
    "/* block */",
    "/* outer /* inner */ still outer */",
    "/* unterminated",
    "*/",
    " ",
    "\t",
    "\n",
    "::",
    "=>",
    ".lock().unwrap()",
    "r#ident",
    "#\"",
    "\\",
];

fn splice(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect()
}

/// Maps arbitrary bytes onto a palette dense in tokenizer trigger
/// characters (quotes, slashes, hashes, backslashes) plus a little
/// unicode, so random inputs actually reach the literal/comment states.
fn palette(bytes: &[u8]) -> String {
    const PALETTE: &[char] = &[
        '"', '\'', '/', '*', '#', 'r', 'b', '\\', 'x', '_', '0', '9', 'a', 'Z', ' ', '\n', '\t',
        '{', '}', '(', ')', ';', ':', '.', '=', '<', '>', '!', '&', 'λ', 'é',
    ];
    bytes
        .iter()
        .map(|&b| PALETTE[b as usize % PALETTE.len()])
        .collect()
}

fn assert_lossless(src: &str) -> Result<(), TestCaseError> {
    let toks = tokenize(src);
    let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
    prop_assert_eq!(
        rebuilt.as_str(),
        src,
        "tokenize dropped or duplicated bytes"
    );
    prop_assert!(
        toks.iter().all(|t| !t.text.is_empty()),
        "tokenizer emitted an empty token (infinite-loop hazard)"
    );
    Ok(())
}

/// Satellite regression: lifetime vs char-literal disambiguation in
/// deeply nested generics. `'a` followed by `,`/`>`/`>>` is a lifetime
/// token; quote-ident-quote is a char literal even where a lifetime
/// would also parse. A mis-split here is not cosmetic: `Char` tokens
/// are blanked entirely from the code view, so a lifetime mistaken for
/// a char literal erases real code (and the reverse leaks literal
/// contents into every rule's scan).
#[test]
fn lifetimes_in_nested_generics_are_not_char_literals() {
    use neo_lint::token::TokKind;
    let kinds = |src: &str| {
        tokenize(src)
            .into_iter()
            .filter(|t| matches!(t.kind, TokKind::Lifetime | TokKind::Char))
            .map(|t| (t.kind, t.text))
            .collect::<Vec<_>>()
    };
    let lt = |s: &str| (TokKind::Lifetime, s.to_owned());
    let ch = |s: &str| (TokKind::Char, s.to_owned());

    assert_eq!(
        kinds("fn f<'a, 'b>(m: &'a Map<K<'a>, V<'b>>) {}"),
        vec![lt("'a"), lt("'b"), lt("'a"), lt("'a"), lt("'b")]
    );
    // lifetime flushed directly against the nested-generics `>>` close
    assert_eq!(kinds("Box<dyn Tr<Item<'a>>>"), vec![lt("'a")]);
    // quote-ident-quote stays a char literal, even in pair position
    assert_eq!(kinds("let p = ('a', 'b');"), vec![ch("'a'"), ch("'b'")]);
    // a comparison against a char literal is not a lifetime
    assert_eq!(kinds("while x < 'b' { step(); }"), vec![ch("'b'")]);
    // mixed: turbofish lifetime list next to a char argument
    assert_eq!(
        kinds("take::<'a, 'b>(buf, 'x')"),
        vec![lt("'a"), lt("'b"), ch("'x'")]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fragment_splices_roundtrip(indices in collection::vec(0usize..1024, 0..40)) {
        let src = splice(&indices);
        assert_lossless(&src)?;
    }

    #[test]
    fn palette_noise_roundtrips(bytes in collection::vec(any::<u8>(), 0..200)) {
        let src = palette(&bytes);
        assert_lossless(&src)?;
    }
}
