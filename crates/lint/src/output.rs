//! Machine-readable output: `lint --json`, the waived-findings baseline
//! the CI gate diffs against, and the `--callgraph` artifact.
//!
//! Every artifact is built as a `neo_telemetry::json::Json` tree and
//! printed by its one writer (the workspace is offline; no serde).
//! The JSON report is the stable interchange format
//! (`"schema": "neo-lint/1"`); the baseline (`neo-lint-baseline/2`) records **waived** finding counts
//! per rule so that a newly waived finding still fails CI — unwaived
//! findings fail the lint exit code directly, so only the waived
//! population can drift silently — plus `hot_path_alloc`'s
//! reachable-set size so resolver regressions surface as drift; the
//! call-graph artifact (`neo-callgraph/1`) exposes nodes, edges, and
//! the rule's root set for CI and future rules to consume. Parsing
//! reuses `neo_telemetry::json`, the same recursive-descent parser the
//! trace tooling uses.

use std::collections::BTreeMap;

use neo_telemetry::json::Json;

use crate::hotpath;
use crate::{LintReport, Workspace, RULES, RULE_NAMES};

/// The one baseline schema [`diff_baseline`] accepts.
const BASELINE_SCHEMA: &str = "neo-lint-baseline/2";

/// `{rule: count}` in rule-name order.
fn counts(by_rule: &BTreeMap<String, usize>) -> Json {
    Json::object(by_rule.iter().map(|(rule, n)| (rule, (*n).into())))
}

/// The `lint --json` report.
pub fn to_json(report: &LintReport) -> String {
    let rules = RULES
        .iter()
        .map(|r| Json::object([("name", r.name.into()), ("summary", r.summary.into())]));
    let findings = report.diags.iter().map(|d| {
        Json::object([
            ("path", d.path.display().to_string().into()),
            ("line", d.line.into()),
            ("rule", d.rule.into()),
            ("message", d.message.as_str().into()),
        ])
    });
    let doc = Json::object([
        ("schema", "neo-lint/1".into()),
        ("rules", Json::Array(rules.collect())),
        ("findings", Json::Array(findings.collect())),
        ("waived", counts(&report.waived)),
    ]);
    format!("{doc:#}\n")
}

/// The committed baseline: waived finding counts per rule, plus
/// `hot_path_alloc`'s reachable-set size.
pub fn baseline_json(report: &LintReport) -> String {
    let doc = Json::object([
        ("schema", BASELINE_SCHEMA.into()),
        ("waived", counts(&report.waived)),
        ("reachable", counts(&report.reachable)),
    ]);
    format!("{doc:#}\n")
}

/// The `--callgraph` artifact: every node with its definition sites and
/// visibility, the adjacency list, the `hot_path_alloc` root set, and the
/// resulting reachable-set size.
pub fn callgraph_json(ws: &Workspace) -> String {
    let g = &ws.graph;
    let nodes = g.nodes.iter().enumerate().map(|(id, n)| {
        let defs = n.defs.iter().map(|(p, ln)| {
            Json::object([
                ("file", p.display().to_string().replace('\\', "/").into()),
                ("line", (ln + 1).into()),
            ])
        });
        Json::object([
            ("id", id.into()),
            ("crate", n.krate.as_str().into()),
            ("fn", n.name.as_str().into()),
            ("pub", Json::Bool(n.is_pub)),
            ("defs", Json::Array(defs.collect())),
        ])
    });
    let edges = g
        .edges
        .iter()
        .enumerate()
        .flat_map(|(from, tos)| tos.iter().map(move |&to| Json::from(vec![from, to])));
    let roots = hotpath::hot_path_root_nodes(g);
    let doc = Json::object([
        ("schema", "neo-callgraph/1".into()),
        ("nodes", Json::Array(nodes.collect())),
        ("edges", Json::Array(edges.collect())),
        ("roots", Json::object([("hot_path_alloc", roots.into())])),
        ("reachable", counts(&hotpath::reachable_set_sizes(ws))),
    ]);
    format!("{doc:#}\n")
}

/// Outcome of diffing a report against a committed baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Regressions that must fail the gate (waived count grew).
    pub problems: Vec<String>,
    /// Improvements worth folding into the baseline (waived count shrank).
    pub notes: Vec<String>,
}

/// Diffs the report's waived counts against `baseline_text` (the
/// committed `lint_baseline.json`). A rule whose waived count grew is a
/// gate failure: somebody added a waiver without updating the baseline,
/// which is exactly the review checkpoint the baseline exists to force.
pub fn diff_baseline(report: &LintReport, baseline_text: &str) -> Result<BaselineDiff, String> {
    let root = neo_telemetry::json::parse(baseline_text)
        .map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if root.get("schema").and_then(|s| s.as_str()) != Some(BASELINE_SCHEMA) {
        return Err(format!("baseline schema is not {BASELINE_SCHEMA}"));
    }
    let waived = root
        .get("waived")
        .ok_or_else(|| "baseline has no `waived` object".to_owned())?;
    let mut diff = BaselineDiff::default();
    for rule in RULE_NAMES {
        let base = waived
            .get(rule)
            .and_then(|v| v.as_f64())
            .map(|v| v as usize)
            .unwrap_or(0);
        let cur = report.waived.get(*rule).copied().unwrap_or(0);
        if cur > base {
            diff.problems.push(format!(
                "rule `{rule}`: {cur} waived finding(s), baseline allows {base} — \
                 new waivers need review; regenerate with `lint --write-baseline` \
                 after sign-off"
            ));
        } else if cur < base {
            diff.notes.push(format!(
                "rule `{rule}`: {cur} waived finding(s), baseline allows {base} — \
                 tighten the baseline with `lint --write-baseline`"
            ));
        }
    }
    // unknown rules in the baseline are stale entries, not regressions
    if let Some(obj) = waived.as_object() {
        for (key, _) in obj {
            if !RULE_NAMES.contains(&key.as_str()) {
                diff.notes
                    .push(format!("baseline entry `{key}` matches no known rule"));
            }
        }
    }
    // Reachable-set drift is informational: growth usually means new
    // code on a hot/lane path (expected), collapse usually means the
    // resolver lost its roots (worth a look) — either way a note, and
    // `--write-baseline` refreshes the counts.
    if let Some(obj) = root.get("reachable").and_then(|r| r.as_object()) {
        for (rule, v) in obj {
            let base = v.as_f64().map(|v| v as usize).unwrap_or(0);
            let cur = report.reachable.get(rule).copied().unwrap_or(0);
            if cur != base {
                diff.notes.push(format!(
                    "rule `{rule}`: reachable set is {cur} fn(s), baseline recorded {base} — \
                     refresh with `lint --write-baseline` if the change is expected"
                ));
            }
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Diagnostic;
    use std::path::PathBuf;

    fn report() -> LintReport {
        LintReport {
            diags: vec![Diagnostic {
                path: PathBuf::from("crates/tensor/src/lib.rs"),
                line: 7,
                rule: "hot_path_alloc",
                message: "`.to_vec` with \"quotes\" and a \\ backslash".to_owned(),
            }],
            waived: [("hot_path_alloc".to_owned(), 2usize)]
                .into_iter()
                .collect(),
            reachable: [("hot_path_alloc".to_owned(), 5usize)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn json_report_parses_and_round_trips_fields() {
        let text = to_json(&report());
        let root = neo_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(
            root.get("schema").and_then(|s| s.as_str()),
            Some("neo-lint/1")
        );
        let rules = root.get("rules").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rules.len(), RULE_NAMES.len());
        let findings = root.get("findings").and_then(|f| f.as_array()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(|r| r.as_str()),
            Some("hot_path_alloc")
        );
        assert_eq!(findings[0].get("line").and_then(|l| l.as_f64()), Some(7.0));
        assert_eq!(
            findings[0].get("message").and_then(|m| m.as_str()),
            Some("`.to_vec` with \"quotes\" and a \\ backslash")
        );
        assert_eq!(
            root.get("waived")
                .and_then(|w| w.get("hot_path_alloc"))
                .and_then(|n| n.as_f64()),
            Some(2.0)
        );
    }

    #[test]
    fn baseline_diff_flags_growth_and_notes_shrinkage() {
        let rep = report(); // hot_path_alloc: 2 waived
        let base = "{\n  \"schema\": \"neo-lint-baseline/2\",\n  \
                    \"waived\": {\"hot_path_alloc\": 1, \"ghost_rule\": 1}\n}\n";
        let diff = diff_baseline(&rep, base).expect("parses");
        assert_eq!(diff.problems.len(), 1, "{:?}", diff.problems);
        assert!(diff.problems[0].contains("hot_path_alloc"));
        assert!(diff.notes.iter().any(|n| n.contains("ghost_rule")));
        let shrunk = "{\"schema\": \"neo-lint-baseline/2\", \"waived\": {\"hot_path_alloc\": 3}}";
        let diff = diff_baseline(&rep, shrunk).expect("parses");
        assert!(diff.problems.is_empty(), "{:?}", diff.problems);
        assert!(
            diff.notes.iter().any(|n| n.contains("hot_path_alloc")),
            "{:?}",
            diff.notes
        );
    }

    #[test]
    fn baseline_round_trip_is_clean() {
        let rep = report();
        let diff = diff_baseline(&rep, &baseline_json(&rep)).expect("parses");
        assert!(diff.problems.is_empty(), "{:?}", diff.problems);
        assert!(diff.notes.is_empty(), "{:?}", diff.notes);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(diff_baseline(&report(), "not json").is_err());
        assert!(diff_baseline(&report(), "{\"schema\": \"other/1\"}").is_err());
        let v1 = "{\"schema\": \"neo-lint-baseline/1\", \"waived\": {\"hot_path_alloc\": 2}}";
        assert!(diff_baseline(&report(), v1).is_err(), "only /2 is accepted");
    }

    #[test]
    fn reachable_drift_is_a_note() {
        let rep = report(); // reachable: hot_path_alloc = 5
        let v2 = "{\"schema\": \"neo-lint-baseline/2\", \"waived\": {\"hot_path_alloc\": 2}, \
                   \"reachable\": {\"hot_path_alloc\": 9}}";
        let diff = diff_baseline(&rep, v2).expect("v2 accepted");
        assert!(
            diff.problems.is_empty(),
            "reachable drift must not fail the gate"
        );
        assert!(
            diff.notes
                .iter()
                .any(|n| n.contains("hot_path_alloc") && n.contains("9")),
            "{:?}",
            diff.notes
        );
    }

    #[test]
    fn callgraph_artifact_parses_and_carries_nodes_edges_roots() {
        use crate::source::SourceFile;
        use std::path::Path;

        let crates = vec![(
            "tensor".to_owned(),
            vec![SourceFile::parse(
                Path::new("crates/tensor/src/lib.rs"),
                "pub fn matmul() { helper(); }\nfn helper() { }\n",
            )],
        )];
        let text = callgraph_json(&Workspace::new(crates));
        let root = neo_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(
            root.get("schema").and_then(|s| s.as_str()),
            Some("neo-callgraph/1")
        );
        let nodes = root.get("nodes").and_then(|n| n.as_array()).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].get("fn").and_then(|f| f.as_str()), Some("matmul"));
        assert_eq!(
            nodes[0].get("pub"),
            Some(&neo_telemetry::json::Json::Bool(true))
        );
        let edges = root.get("edges").and_then(|e| e.as_array()).unwrap();
        assert_eq!(edges.len(), 1, "matmul -> helper");
        let roots = root.get("roots").unwrap();
        let hot = roots
            .get("hot_path_alloc")
            .and_then(|r| r.as_array())
            .unwrap();
        assert_eq!(hot.len(), 1);
        assert_eq!(
            root.get("reachable")
                .and_then(|r| r.get("hot_path_alloc"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
    }
}
