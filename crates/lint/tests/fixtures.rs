//! Golden-file fixture suite: every rule gets one seeded mini-workspace
//! that must trip it and one clean twin that must lint spotless.
//!
//! Each fixture under `tests/fixtures/<rule>/{seeded,clean}` is a full
//! `Workspace::load` root (fixture crates only need a `src/` dir, not a
//! `Cargo.toml`), so the whole engine runs end to end: tokenizer, symbol
//! index, call graph, waiver bookkeeping, and both rules. The clean twin
//! asserting **zero** findings across every rule — not just the target —
//! keeps fixtures honest about cross-rule interference.

use std::path::PathBuf;

use neo_lint::{lint, Workspace, RULE_NAMES};

fn fixture_root(rule: &str, variant: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(variant)
}

fn run(rule: &str, variant: &str) -> neo_lint::LintReport {
    let root = fixture_root(rule, variant);
    assert!(
        root.is_dir(),
        "fixture {rule}/{variant} is missing at {}",
        root.display()
    );
    let ws = Workspace::load(&root).unwrap_or_else(|e| {
        panic!("fixture {rule}/{variant} failed to load: {e}");
    });
    lint(&ws)
}

#[test]
fn every_rule_has_both_fixture_variants() {
    for rule in RULE_NAMES {
        for variant in ["seeded", "clean"] {
            assert!(
                fixture_root(rule, variant).is_dir(),
                "rule `{rule}` is missing its `{variant}` fixture"
            );
        }
    }
}

#[test]
fn seeded_fixtures_trip_their_rule() {
    for rule in RULE_NAMES {
        let report = run(rule, "seeded");
        let hits = report.diags.iter().filter(|d| d.rule == *rule).count();
        assert!(
            hits >= 1,
            "seeded fixture for `{rule}` produced no `{rule}` finding; got: {:?}",
            report
                .diags
                .iter()
                .map(|d| (d.rule, d.line, d.message.as_str()))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn clean_fixtures_lint_spotless() {
    for rule in RULE_NAMES {
        let report = run(rule, "clean");
        assert!(
            report.diags.is_empty(),
            "clean fixture for `{rule}` is not clean; got: {:?}",
            report
                .diags
                .iter()
                .map(|d| (d.rule, d.line, d.message.as_str()))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn stale_waiver_clean_fixture_actually_consumes_its_waiver() {
    // the clean twin is only meaningful if the annotation is consumed,
    // not merely absent — a waived finding must land in `waived`.
    let report = run("stale_waiver", "clean");
    assert_eq!(report.waived.get("hot_path_alloc").copied(), Some(1));
}
