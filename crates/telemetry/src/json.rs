//! The workspace's one JSON value type: its parser and its writer.
//!
//! The workspace is offline and the `serde` shim is a no-op, so every
//! artifact the workspace writes is built as a [`Json`] tree and printed
//! by its [`Display`](fmt::Display) impl, and tooling (`neo-xtask check`,
//! CI, tests) reads artifacts back with [`parse`], a small
//! recursive-descent parser for standard JSON (RFC 8259): objects,
//! arrays, strings with escapes, numbers, booleans, null. Numbers are held
//! as `f64`, object keys keep insertion order, and duplicate keys are
//! allowed (`get` returns the first match).

use std::fmt::{self, Write as _};

/// A JSON value: what [`parse`] returns and what `Display` writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, insertion-ordered.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an object's member list.
    pub fn as_object(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// An object with `members` in the order given.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (brackets, items): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Number(n) if n.is_finite() => return write!(f, "{n}"),
            Json::Number(_) => return f.write_str("null"),
            Json::String(s) => return write_string(f, s),
            Json::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => ("{}", members.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        let inner = indent.map(|level| level + 1);
        let newline = |f: &mut fmt::Formatter<'_>, level| write!(f, "\n{:1$}", "", 2 * level);
        f.write_str(&brackets[..1])?;
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            if let Some(level) = inner {
                newline(f, level)?;
            }
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(if indent.is_some() { ": " } else { ":" })?;
            }
            value.write(f, inner)?;
        }
        if let (Some(level), false) = (indent, items.is_empty()) {
            newline(f, level)?;
        }
        f.write_str(&brackets[1..])
    }
}

/// `{}` writes compact JSON with no whitespace; `{:#}` indents two spaces
/// per level with one member or item per line, as file artifacts are
/// written. Numbers print in Rust's shortest round-trip form; non-finite
/// ones, which JSON cannot spell, print as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut plain = 0; // start of the pending run written as-is
    for (i, c) in s.char_indices() {
        if c >= ' ' && c != '"' && c != '\\' {
            continue;
        }
        f.write_str(&s[plain..i])?;
        plain = i + 1; // every escaped char is one byte
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c => write!(f, "\\u{:04x}", u32::from(c))?,
        }
    }
    f.write_str(&s[plain..])?;
    f.write_char('"')
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}

// Every integer the workspace writes (counts, bytes, nanoseconds since a
// sink was armed, ids) is below 2^53, so an `f64` holds it exactly.
macro_rules! from_integer {
    ($($t:ty)*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Number(n as f64)
            }
        }
    )*};
}
from_integer!(u32 u64 usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parse failure: byte offset + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

const MAX_DEPTH: usize = 128;

/// Parse `text` as a single JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// Four hex digits after a `\u`.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.bytes.get(self.pos..self.pos + 4).unwrap_or_default();
        let hex = std::str::from_utf8(digits).map(|h| u32::from_str_radix(h, 16));
        let hex = hex.ok().and_then(Result::ok);
        let hex = hex.ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hex = self.hex4()?;
        // Surrogate pairs: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..0xDC00).contains(&hex) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hex).ok_or_else(|| self.err("invalid \\u code point"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return Err(self.err("expected digits in number")),
            1 => {}
            _ if leading_zero => return Err(self.err("leading zero in number")),
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| self.err("number out of range"))?;
        Ok(Json::Number(text))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-2.5e2"), Ok(Json::Number(-250.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Json::String("a\nb".into())));
        let doc = parse("{\"k\": [1, {\"n\": null}]}").unwrap_or(Json::Null);
        let arr = doc.get("k").and_then(Json::as_array);
        assert_eq!(arr.map(Vec::len), Some(2));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse("\"\\u00e9\""), Ok(Json::String("é".into())));
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(Json::String("😀".into())));
        assert_eq!(parse("\"héllo\""), Ok(Json::String("héllo".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"abc",
            "\"\\q\"",
            "1 2",
            "{\"a\":}",
            "\"\\ud83d\"",
            "01",
            "-01",
            "00",
        ] {
            assert!(parse(bad).is_err(), "expected parse error for {bad:?}");
        }
        for good in ["0", "-0", "0.5", "10", "-0e1"] {
            assert!(parse(good).is_ok(), "expected {good:?} to parse");
        }
    }

    #[test]
    fn writes_compact_and_indented_forms() {
        let doc = Json::object([
            ("s", Json::from("a\"b\\c\nd\u{1}")),
            ("n", Json::from(vec![2.0, 0.5])),
            ("e", Json::object(Vec::<(String, Json)>::new())),
            ("z", Json::from(None::<u64>)),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"s":"a\"b\\c\nd\u0001","n":[2,0.5],"e":{},"z":null}"#
        );
        assert_eq!(
            format!("{doc:#}"),
            "{\n  \"s\": \"a\\\"b\\\\c\\nd\\u0001\",\n  \"n\": [\n    2,\n    0.5\n  ],\n  \
             \"e\": {},\n  \"z\": null\n}"
        );
    }

    #[test]
    fn non_finite_numbers_write_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(v).to_string(), "null");
            assert_eq!(format!("{:#}", Json::from(vec![v])), "[\n  null\n]");
        }
    }

    #[test]
    fn accessors() {
        let doc = parse("{\"s\": \"x\", \"n\": 3, \"o\": {\"a\": 1}}").unwrap_or(Json::Null);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            doc.get("o").and_then(Json::as_object).map(Vec::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
