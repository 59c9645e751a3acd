//! A real checker for the Prometheus text exposition format.
//!
//! Rather than eyeball `.prom` files with a couple of `starts_with`
//! probes, `neo-xtask check` runs this module, which actually parses the
//! format so a malformed scrape (bad metric name, broken label syntax, an
//! unparseable value, or the same series exported twice) fails CI instead
//! of silently feeding garbage to a scraper. The grammar follows the
//! Prometheus text-format spec:
//!
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match
//!   `[a-zA-Z_][a-zA-Z0-9_]*`;
//! * label values are double-quoted with exactly `\\`, `\"` and `\n` as
//!   escapes;
//! * sample values are floats, including the spellings `NaN`, `Inf`,
//!   `+Inf` and `-Inf`, optionally followed by an integer millisecond
//!   timestamp;
//! * `# TYPE <name> <counter|gauge|histogram|summary|untyped>` may appear
//!   at most once per metric and must precede that metric's samples;
//!   `# HELP <name> <text>` likewise at most once. Other `#` lines are
//!   free-form comments;
//! * a series — metric name plus its *sorted* label set — may be exported
//!   at most once per scrape.
//!
//! [`check_exposition`] returns one human-readable problem per violation
//! (line-numbered); an empty vector means the exposition is well-formed.

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_value(v: &str) -> bool {
    matches!(v, "NaN" | "Inf" | "+Inf" | "-Inf") || v.parse::<f64>().is_ok()
}

/// A parsed sample line: name, labels in source order, value text.
struct Sample<'a> {
    name: &'a str,
    labels: Vec<(&'a str, String)>,
}

/// Parses `name{label="value",...} value [timestamp]`.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let mut rest = &line[name_end..];
    let mut labels: Vec<(&str, String)> = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .find('"')
            .map_or_else(|| body.find('}'), |_| find_label_block_end(body));
        let Some(close) = close else {
            return Err("unterminated label block (missing `}`)".to_string());
        };
        parse_labels(&body[..close], &mut labels)?;
        rest = &body[close + 1..];
    }
    let mut fields = rest.split_ascii_whitespace();
    let Some(value) = fields.next() else {
        return Err("missing sample value".to_string());
    };
    if !valid_value(value) {
        return Err(format!("invalid sample value `{value}`"));
    }
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("invalid timestamp `{ts}`"));
        }
    }
    if let Some(junk) = fields.next() {
        return Err(format!("trailing junk `{junk}` after the sample"));
    }
    Ok(Sample { name, labels })
}

/// Index of the `}` closing a label block, skipping quoted values.
fn find_label_block_end(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
        } else if in_quotes && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_quotes = !in_quotes;
        } else if !in_quotes && c == '}' {
            return Some(i);
        }
    }
    None
}

/// Parses `label="value",...` (a trailing comma is legal per the spec).
fn parse_labels<'a>(body: &'a str, out: &mut Vec<(&'a str, String)>) -> Result<(), String> {
    let mut rest = body.trim();
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else {
            return Err(format!("label `{rest}` is missing `=\"value\"`"));
        };
        let name = rest[..eq].trim();
        if !valid_label_name(name) {
            return Err(format!("invalid label name `{name}`"));
        }
        if out.iter().any(|(n, _)| *n == name) {
            return Err(format!("duplicate label `{name}` in one series"));
        }
        let after = rest[eq + 1..].trim_start();
        let Some(quoted) = after.strip_prefix('"') else {
            return Err(format!("label `{name}` value is not double-quoted"));
        };
        let (value, consumed) =
            unescape_label_value(quoted).map_err(|e| format!("label `{name}`: {e}"))?;
        out.push((name, value));
        rest = quoted[consumed..].trim_start();
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected `,` between labels, found `{rest}`"));
        }
    }
    Ok(())
}

/// Unescapes a label value up to its closing quote; returns the value and
/// the byte offset just past the closing quote.
fn unescape_label_value(s: &str) -> Result<(String, usize), String> {
    let mut value = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((value, i + 1)),
            '\\' => match chars.next() {
                Some((_, '\\')) => value.push('\\'),
                Some((_, '"')) => value.push('"'),
                Some((_, 'n')) => value.push('\n'),
                Some((_, other)) => return Err(format!("invalid escape `\\{other}`")),
                None => return Err("dangling `\\` in label value".to_string()),
            },
            '\n' => return Err("raw newline in label value".to_string()),
            c => value.push(c),
        }
    }
    Err("unterminated label value (missing closing `\"`)".to_string())
}

const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];

/// Checks a full text exposition; returns one line-numbered message per
/// violation (empty = well-formed).
pub fn check_exposition(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut typed: Vec<&str> = Vec::new();
    let mut helped: Vec<&str> = Vec::new();
    let mut sampled: Vec<&str> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut fields = rest.split_ascii_whitespace();
                let name = fields.next().unwrap_or("");
                let kind = fields.next().unwrap_or("");
                if !valid_metric_name(name) {
                    problems.push(format!("line {n}: TYPE names invalid metric `{name}`"));
                } else {
                    if !TYPES.contains(&kind) {
                        problems.push(format!(
                            "line {n}: unknown TYPE `{kind}` for `{name}` \
                             (expected one of {TYPES:?})"
                        ));
                    }
                    if typed.contains(&name) {
                        problems.push(format!("line {n}: duplicate TYPE for `{name}`"));
                    } else if sampled.contains(&name) {
                        problems.push(format!(
                            "line {n}: TYPE for `{name}` appears after its samples"
                        ));
                    }
                    typed.push(name);
                }
                if let Some(junk) = fields.next() {
                    problems.push(format!("line {n}: trailing `{junk}` on a TYPE line"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_ascii_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    problems.push(format!("line {n}: HELP names invalid metric `{name}`"));
                } else if helped.contains(&name) {
                    problems.push(format!("line {n}: duplicate HELP for `{name}`"));
                } else {
                    helped.push(name);
                }
            }
            // other comments are free-form and legal
            continue;
        }
        match parse_sample(line) {
            Ok(sample) => {
                if !sampled.contains(&sample.name) {
                    sampled.push(sample.name);
                }
                let mut labelset: Vec<String> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                labelset.sort();
                let key = format!("{}{{{}}}", sample.name, labelset.join(","));
                if series.contains(&key) {
                    problems.push(format!("line {n}: duplicate series `{key}`"));
                } else {
                    series.push(key);
                }
            }
            Err(e) => problems.push(format!("line {n}: {e}")),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_event_logs_own_exposition() {
        let text = "# TYPE neo_monitor_samples counter\n\
                    neo_monitor_samples 12\n\
                    # TYPE neo_train_loss gauge\n\
                    neo_train_loss 0.5\n\
                    # TYPE neo_heartbeat_iterations counter\n\
                    neo_heartbeat_iterations{rank=\"0\"} 5\n\
                    neo_heartbeat_iterations{rank=\"1\"} 5\n";
        assert_eq!(check_exposition(text), Vec::<String>::new());
    }

    #[test]
    fn accepts_non_finite_values_timestamps_and_escapes() {
        let text = "m_nan NaN\n\
                    m_inf +Inf\n\
                    m_ninf -Inf\n\
                    m_ts 1.5 1700000000000\n\
                    m_esc{path=\"a\\\\b\\\"c\\nd\"} 1\n\
                    # HELP m_esc a help line\n\
                    # arbitrary comment, ignored\n";
        assert_eq!(check_exposition(text), Vec::<String>::new());
    }

    #[test]
    fn rejects_bad_names_values_and_labels() {
        let cases = [
            ("1bad_name 3\n", "invalid metric name"),
            ("ok{9bad=\"x\"} 3\n", "invalid label name"),
            ("ok{l=\"a\",l=\"b\"} 3\n", "duplicate label"),
            ("ok{l=unquoted} 3\n", "not double-quoted"),
            ("ok{l=\"x\\q\"} 3\n", "invalid escape"),
            ("ok{l=\"x\"} 3 4 5\n", "trailing junk"),
            ("ok{l=\"x\" 3\n", "missing `}`"),
            ("ok notanumber\n", "invalid sample value"),
            ("ok 3 1.5\n", "invalid timestamp"),
            ("ok\n", "missing sample value"),
        ];
        for (text, want) in cases {
            let problems = check_exposition(text);
            assert!(
                problems.iter().any(|p| p.contains(want)),
                "{text:?} should flag `{want}`, got {problems:?}"
            );
        }
    }

    #[test]
    fn rejects_duplicate_series_modulo_label_order() {
        let text = "m{a=\"1\",b=\"2\"} 1\n\
                    m{b=\"2\",a=\"1\"} 2\n";
        let problems = check_exposition(text);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("duplicate series"), "{problems:?}");
        // different label values are a different series
        let ok = "m{a=\"1\"} 1\nm{a=\"2\"} 2\n";
        assert!(check_exposition(ok).is_empty());
    }

    #[test]
    fn validates_type_and_help_metadata() {
        let dup_type = "# TYPE m counter\n# TYPE m counter\nm 1\n";
        assert!(check_exposition(dup_type)
            .iter()
            .any(|p| p.contains("duplicate TYPE")));
        let late_type = "m 1\n# TYPE m counter\n";
        assert!(check_exposition(late_type)
            .iter()
            .any(|p| p.contains("after its samples")));
        let bad_kind = "# TYPE m pancake\nm 1\n";
        assert!(check_exposition(bad_kind)
            .iter()
            .any(|p| p.contains("unknown TYPE `pancake`")));
        let dup_help = "# HELP m a\n# HELP m b\n";
        assert!(check_exposition(dup_help)
            .iter()
            .any(|p| p.contains("duplicate HELP")));
    }
}
