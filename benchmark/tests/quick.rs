//! End-to-end tests of the benchmark binary in `--quick` mode: every
//! declared metric is emitted, the result line parses, exact counts
//! repeat, and a whole set round-trips through `agree`.

use std::path::PathBuf;
use std::process::{Command, Output};

use neo_telemetry::json::{self, Json};

const WORKLOADS: [&str; 5] = [
    "quickstart_w1",
    "quickstart_w2",
    "quickstart_w2_overlap_wire",
    "dense_w2",
    "sparse_w2",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// A single quick run's parsed result line.
fn quick_run(workload: &str, seed: &str, trace: &str) -> Json {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--quick",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("valid JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    // every value is also printed as a `workload metric value unit n=` row
    let rows = stdout
        .lines()
        .filter(|l| l.starts_with(workload) && l.contains(" n="))
        .count();
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .len();
    assert_eq!(rows, metrics);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let root = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    root.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits_exactly(result: &Json, key: &str) {
    let want = declared(key);
    let got = result.get("metrics").and_then(Json::as_object).unwrap();
    assert_eq!(got.len(), want.len(), "{key}: metric count");
    for (name, unit) in &want {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{key}: {name} not emitted"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn timed_runs_emit_every_end_to_end_metric_and_none_is_zero() {
    for w in WORKLOADS {
        let result = quick_run(w, "1", "0");
        assert_emits_exactly(&result, "end_to_end");
        for (name, _) in declared("end_to_end") {
            assert!(metric(&result, &name) > 0.0, "{w} {name}");
        }
        assert_eq!(metric(&result, "completed_frac"), 1.0);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_counts_repeat() {
    let calls = [5.0, 5.0, 6.0, 5.0, 9.0];
    for (w, want_calls) in WORKLOADS.iter().zip(calls) {
        let a = quick_run(w, "1", "1");
        assert_emits_exactly(&a, "per_layer");
        assert_eq!(metric(&a, "collectives.calls_per_step"), want_calls, "{w}");
        let b = quick_run(w, "1", "1");
        for exact in [
            "collectives.calls_per_step",
            "collectives.wire_bytes_per_step",
            "embeddings.lookups_per_step",
            "embeddings.unique_row_frac",
            "sharding.imbalance",
            "tensor.flops_per_step",
        ] {
            assert_eq!(metric(&a, exact), metric(&b, exact), "{w} {exact}");
        }
        // rows off the workload's path read 0, the others do not
        let sparse = *w == "sparse_w2";
        assert_eq!(metric(&a, "collectives.rs_ag_us") > 0.0, sparse, "{w}");
        assert_eq!(metric(&a, "dataio.bucketize_us") > 0.0, sparse, "{w}");
        assert_eq!(
            metric(&a, "collectives.quant_gbps") > 0.0,
            *w != "dense_w2",
            "{w}"
        );
        assert!(metric(&a, "trainer.iteration_ms") > 0.0);
        assert!(metric(&a, "trainer.ladder_sum_ms") > 0.0);
    }
}

#[test]
fn loss_is_the_canary_seeds_and_the_data_follow_the_seed() {
    let a = quick_run("quickstart_w2", "1", "0");
    let b = quick_run("quickstart_w2", "2", "0");
    // the loss canary trains on a fixed seed: identical whatever --seed is
    assert_eq!(metric(&a, "loss_tail_mean"), metric(&b, "loss_tail_mean"));
    // the workload's own data do change with the seed
    let ta = quick_run("quickstart_w2", "1", "1");
    let tb = quick_run("quickstart_w2", "2", "1");
    assert_ne!(
        metric(&ta, "embeddings.lookups_per_step"),
        metric(&tb, "embeddings.lookups_per_step")
    );
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neo-benchmark-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn trace_file_is_a_span_tree() {
    let dir = scratch_dir("trace");
    let path = dir.join("spans.json");
    let out = bench(&[
        "--workload",
        "sparse_w2",
        "--seed",
        "1",
        "--seconds",
        "0.2",
        "--trace",
        "1",
        "--quick",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let spans = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let spans = spans.as_array().unwrap();
    let field = |s: &Json, f: &str| s.get(f).and_then(Json::as_f64).unwrap();
    let name = |s: &Json| s.get("name").and_then(Json::as_str).unwrap().to_string();
    let ids: Vec<f64> = spans.iter().map(|s| field(s, "id")).collect();
    let roots: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("parent") == Some(&Json::Null))
        .collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(name(roots[0]), "sparse_w2");
    for s in spans {
        assert!(field(s, "end_ns") >= field(s, "start_ns"), "{}", name(s));
        assert_eq!(s.get("workload").and_then(Json::as_str), Some("sparse_w2"));
        if let Some(p) = s.get("parent").and_then(Json::as_f64) {
            // parents precede children and contain them
            let parent = &spans[ids.iter().position(|&i| i == p).expect("parent exists")];
            assert!(p < field(s, "id"));
            assert!(
                field(parent, "start_ns") <= field(s, "start_ns"),
                "{}",
                name(s)
            );
            assert!(field(parent, "end_ns") >= field(s, "end_ns"), "{}", name(s));
        }
    }
    let count = |n: &str| spans.iter().filter(|s| name(s) == n).count();
    // T round of 12 steps, R round of 6
    assert_eq!(count("step"), 18);
    assert_eq!(
        (count("timed"), count("traced"), count("ladder")),
        (1, 1, 1)
    );
    assert_eq!(
        (count("setup.plan"), count("setup.ring"), count("train")),
        (2, 2, 2)
    );
    let row = spans
        .iter()
        .find(|s| name(s) == "embeddings.pooled_fwd_us")
        .expect("a ladder row span");
    assert_eq!(row.get("layer").and_then(Json::as_str), Some("embeddings"));
    assert!(field(row, "count") >= 3.0);
}

#[test]
fn a_quick_set_agrees_with_itself_and_not_with_a_slower_copy() {
    let dir = scratch_dir("set");
    let (set, spans) = (dir.join("set.json"), dir.join("spans.json"));
    let out = bench(&[
        "--quick",
        "--seed",
        "1",
        "--seconds",
        "0.1",
        "--out",
        set.to_str().unwrap(),
        "--trace-out",
        spans.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("strong-scaling efficiency"));
    let text = std::fs::read_to_string(&set).unwrap();
    let root = json::parse(&text).unwrap();
    let workloads = root.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for w in workloads {
        let sps = w
            .get("end_to_end")
            .and_then(|e| e.get("samples_per_s"))
            .unwrap();
        assert_eq!(sps.get("runs").and_then(Json::as_array).unwrap().len(), 3);
        let layers = w.get("per_layer").and_then(Json::as_object).unwrap();
        assert_eq!(layers.len(), declared("per_layer").len());
    }
    let all_spans = json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
    let roots = all_spans
        .as_array()
        .unwrap()
        .iter()
        .filter(|s| s.get("parent") == Some(&Json::Null))
        .count();
    assert_eq!(roots, WORKLOADS.len());

    let same = bench(&["agree", set.to_str().unwrap(), set.to_str().unwrap()]);
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 disagreement(s)"));

    // a copy whose every loss median is 5% higher breaks the 1% loss bound
    let worse = dir.join("worse.json");
    let mut doctored = String::new();
    for line in text.lines() {
        match line.split_once("\"median\":") {
            Some((head, rest)) if line.contains("\"loss_tail_mean\"") => {
                let (median, tail) = rest.split_once(',').unwrap();
                let median: f64 = median.parse().unwrap();
                doctored.push_str(&format!("{head}\"median\":{},{tail}", median * 1.05));
            }
            _ => doctored.push_str(line),
        }
        doctored.push('\n');
    }
    std::fs::write(&worse, doctored).unwrap();
    let differ = bench(&["agree", set.to_str().unwrap(), worse.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&differ.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(differ.status.code(), Some(1), "{table}");
    assert!(
        table.contains("loss_tail_mean") && table.contains("DISAGREE"),
        "{table}"
    );
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--bogus"][..],
        &["agree", "/nonexistent/a.json", "/nonexistent/b.json"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
