//! A *set* of runs and the comparison of two sets.
//!
//! One set is every workload run [`REPEATS`] times in round-robin order
//! (A B C D E, A B C D E, ...), so that a noisy minute on a shared host
//! is spread over all workloads instead of landing on one. Each timed
//! run is a child process (this binary re-executed with `--workload`),
//! which keeps `peak_rss_mb` per run; the traced phase and the ladder
//! follow in this process. An end-to-end metric's value for the set is
//! the median of its repeats.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use neo_telemetry::json::{self, Json};

use crate::metrics::{Better, Value, END_TO_END};
use crate::stats::{median, rel_spread};
use crate::workloads::Workload;
use crate::{ladder_budget, print_values, run, trace, workloads, Args, Res};

/// Timed runs per workload in a set.
pub const REPEATS: usize = 3;

/// One timed child run: its end-to-end values, or why it has none.
fn child_run(w: &Workload, args: &Args) -> Res<Vec<(String, f64)>> {
    let mut child: Vec<String> = ["--workload", w.name, "--trace", "0", "--seed"]
        .map(String::from)
        .to_vec();
    child.extend([
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
    ]);
    if args.quick {
        child.push("--quick".into());
    }
    let (ok, stdout) = crate::reexec(&child)?;
    let last = stdout.lines().last().unwrap_or("");
    for line in stdout.lines().filter(|l| *l != last) {
        println!("  {line}");
    }
    let result = json::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name))?;
    if !ok || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: run failed its correctness checks", w.name).into());
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line without metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Runs a set, prints every metric, writes `--out` and `--trace-out`.
pub fn run_set(args: &Args, epoch: Instant) -> Res<ExitCode> {
    let all = workloads::all(args.quick);
    let mut failures: Vec<String> = Vec::new();
    // runs[workload][metric] = one value per repeat
    let mut runs: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; all.len()];
    for rep in 0..REPEATS {
        for (wi, w) in all.iter().enumerate() {
            println!("# timed run {} of {REPEATS}: {}", rep + 1, w.name);
            match child_run(w, args) {
                Ok(values) => {
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        match values.iter().find(|(k, _)| k == m.name) {
                            Some((_, v)) => runs[wi][mi].push(*v),
                            None => failures.push(format!("{}: no {}", w.name, m.name)),
                        }
                    }
                }
                Err(e) => failures.push(e.to_string()),
            }
        }
    }

    println!("# end-to-end: median of {REPEATS} timed runs");
    for (w, per_metric) in all.iter().zip(&runs) {
        for (m, values) in END_TO_END.iter().zip(per_metric) {
            println!(
                "{} {} {} {} n={} runs={values:?}",
                w.name,
                m.name,
                median(values),
                m.unit,
                values.len()
            );
        }
    }
    let sps = |name: &str| {
        all.iter()
            .position(|w| w.name == name)
            .map_or(0.0, |wi| median(&runs[wi][0]))
    };
    let (w1, w2) = (sps("quickstart_w1"), sps("quickstart_w2"));
    if w1 > 0.0 {
        println!(
            "# strong-scaling efficiency: samples_per_s quickstart_w2 / quickstart_w1 = {} (base {w1})",
            w2 / w1
        );
    }

    println!("# per-layer: traced phase and ladder");
    let mut layers: Vec<Vec<Value>> = Vec::new();
    let mut traces = Vec::new();
    for w in &all {
        let report = run::traced(w, args.seed, ladder_budget(args.seconds, args.quick), epoch)?;
        print_values(w.name, &report.values);
        failures.extend(report.problems.iter().map(|p| format!("{}: {p}", w.name)));
        layers.push(report.values);
        traces.extend(report.trace);
    }

    if let Some(path) = &args.out {
        std::fs::write(path, set_json(args, &all, &runs, &layers))?;
    }
    if let Some(path) = &args.trace_out {
        trace::write_file(path, &traces)?;
    }
    for f in &failures {
        eprintln!("INCORRECT: {f}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn set_json(
    args: &Args,
    all: &[Workload],
    runs: &[Vec<Vec<f64>>],
    layers: &[Vec<Value>],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n\"seed\":{},\"seconds\":{},\"quick\":{},\"parallelism\":{cores},\n\"workloads\":[",
        args.seed, args.seconds, args.quick
    );
    for (wi, w) in all.iter().enumerate() {
        let sep = if wi == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n{{\"name\":\"{}\",\n \"end_to_end\":{{", w.name);
        for (mi, m) in END_TO_END.iter().enumerate() {
            let sep = if mi == 0 { "" } else { "," };
            let values = &runs[wi][mi];
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\n  \"{}\":{{\"unit\":\"{}\",\"median\":{},\"runs\":[{}]}}",
                m.name,
                m.unit,
                median(values),
                list.join(",")
            );
        }
        let _ = write!(s, "}},\n \"per_layer\":{{");
        for (vi, v) in layers[wi].iter().enumerate() {
            let sep = if vi == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  \"{}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{}}}",
                v.name, v.unit, v.value, v.n
            );
        }
        let _ = write!(s, "}}}}");
    }
    s.push_str("\n]}\n");
    s
}

/// One workload of a set file: `(median, runs)` per end-to-end metric,
/// in [`END_TO_END`] order.
struct SetWorkload {
    name: String,
    metrics: Vec<(f64, Vec<f64>)>,
}

fn read_set(path: &str) -> Res<Vec<SetWorkload>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = root
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no workloads array"))?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let mut metrics = Vec::new();
        for m in END_TO_END {
            let entry = w
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .ok_or_else(|| format!("{path}: {name} has no {}", m.name))?;
            let med = entry
                .get("median")
                .and_then(Json::as_f64)
                .ok_or("no median")?;
            let runs = entry
                .get("runs")
                .and_then(Json::as_array)
                .ok_or("no runs")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            metrics.push((med, runs));
        }
        out.push(SetWorkload {
            name: name.to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// How `b` compares with `a` on one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Within the bound.
    Agree,
    /// A set's own repeats spread wider than the bound: the pair cannot
    /// resolve a difference of that size.
    Unresolved,
    /// Differs by more than the bound.
    Disagree,
}

/// Compares medians `a` and `b` under `bound` (relative to `a`, plus the
/// absolute floor), given each side's own repeats.
pub fn verdict(a: f64, b: f64, runs_a: &[f64], runs_b: &[f64], bound: f64, floor: f64) -> Verdict {
    let allowed = (a.abs() * bound).max(floor);
    if (b - a).abs() <= allowed {
        Verdict::Agree
    } else if rel_spread(runs_a) > bound || rel_spread(runs_b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Disagree
    }
}

/// `benchmark agree a.json b.json`: one row per (workload, end-to-end
/// metric) with both medians, the ratio and its base; nonzero exit on
/// any disagreement.
pub fn agree(path_a: &str, path_b: &str) -> Res<ExitCode> {
    let (a, b) = (read_set(path_a)?, read_set(path_b)?);
    let mut disagreements = 0;
    println!("workload metric a b b/a base=a bound verdict");
    for SetWorkload {
        name,
        metrics: metrics_a,
    } in &a
    {
        let Some(SetWorkload {
            metrics: metrics_b, ..
        }) = b.iter().find(|w| &w.name == name)
        else {
            println!("{name}: missing from {path_b}");
            disagreements += 1;
            continue;
        };
        for (m, ((med_a, runs_a), (med_b, runs_b))) in
            END_TO_END.iter().zip(metrics_a.iter().zip(metrics_b))
        {
            let v = verdict(*med_a, *med_b, runs_a, runs_b, m.bound, m.abs_floor);
            if v == Verdict::Disagree {
                disagreements += 1;
            }
            let ratio = if *med_a != 0.0 {
                med_b / med_a
            } else {
                f64::NAN
            };
            let worse = match m.better {
                Better::Higher => med_b < med_a,
                Better::Lower => med_b > med_a,
            };
            println!(
                "{name} {} {med_a} {med_b} {ratio:.4} base={med_a} bound={} {}{}",
                m.name,
                m.bound,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Disagree => "DISAGREE",
                },
                if v != Verdict::Agree && worse {
                    " (b worse)"
                } else {
                    ""
                }
            );
        }
    }
    println!("{disagreements} disagreement(s)");
    Ok(if disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let tight = [100.0, 101.0, 99.0];
        // inside 10%
        assert_eq!(
            verdict(100.0, 108.0, &tight, &tight, 0.10, 0.0),
            Verdict::Agree
        );
        assert_eq!(
            verdict(100.0, 92.0, &tight, &tight, 0.10, 0.0),
            Verdict::Agree
        );
        // outside 10%, both sides steady
        assert_eq!(
            verdict(100.0, 115.0, &tight, &tight, 0.10, 0.0),
            Verdict::Disagree
        );
        // outside, but one side's own repeats spread 30%
        let loose = [100.0, 130.0, 115.0];
        assert_eq!(
            verdict(100.0, 115.0, &tight, &loose, 0.10, 0.0),
            Verdict::Unresolved
        );
        // set-up of 40 ms vs 70 ms: +75% but under the 50 ms floor
        assert_eq!(
            verdict(0.04, 0.07, &[0.04], &[0.07], 0.25, 0.05),
            Verdict::Agree
        );
        // identical exact values agree under any bound
        assert_eq!(
            verdict(0.62, 0.62, &[0.62], &[0.62], 0.0, 0.0),
            Verdict::Agree
        );
    }

    #[test]
    fn set_file_round_trips_through_agree_reader() {
        let args = Args {
            seed: 3,
            seconds: 1.0,
            ..Args::default()
        };
        let all = workloads::all(true);
        let runs: Vec<Vec<Vec<f64>>> = (0..all.len())
            .map(|wi| {
                (0..END_TO_END.len())
                    .map(|mi| vec![1.0 + wi as f64, 2.0 + mi as f64, 3.0])
                    .collect()
            })
            .collect();
        let layers: Vec<Vec<Value>> = all
            .iter()
            .map(|_| {
                vec![Value {
                    name: "host.llc_mib",
                    value: 32.0,
                    unit: "MiB",
                    n: 0,
                }]
            })
            .collect();
        let text = set_json(&args, &all, &runs, &layers);
        let dir = std::env::temp_dir().join(format!("neo-benchmark-set-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        std::fs::write(&path, &text).unwrap();
        let back = read_set(path.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.len(), all.len());
        assert_eq!(back[1].name, all[1].name);
        assert_eq!(
            back[1].metrics[2],
            (median(&runs[1][2]), runs[1][2].clone())
        );
        let root = json::parse(&text).unwrap();
        assert_eq!(root.get("seed").unwrap().as_f64(), Some(3.0));
    }
}
