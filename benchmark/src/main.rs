//! The repo benchmark: five training workloads, five end-to-end metrics
//! and an outside-timed layer ladder. `BENCHMARK.json` at the repository
//! root declares the command, workloads, metrics and bounds; README.md in
//! this directory says what each workload is for and which end-to-end
//! metric each layer metric should move.
//!
//! ```text
//! # one run of one workload (the form BENCHMARK.json's driver uses)
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload dense_w2 --seed 1 --seconds 15 --trace 0
//! # ... --trace 1 [--trace-out spans.json] reports the per-layer metrics
//!
//! # a set: every workload 3 times round-robin as child processes, then
//! # the traced phase and the ladder; prints every metric
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed 1 --out set_a.json --trace-out spans.json
//!
//! # do two sets agree within the bounds?
//! cargo run --release --manifest-path benchmark/Cargo.toml -- agree set_a.json set_b.json
//!
//! # BENCHMARK.json, generated from the tables in metrics.rs / workloads.rs
//! cargo run --release --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json
//! ```
//!
//! A timed run spawns one process per round (this binary with `--round`)
//! and reports medians over them; see `run.rs`.
//!
//! The benchmark reaches the program only through public APIs
//! (`Planner::plan`, `SyntheticDataset::batch`, `SyncTrainer::train_stream`
//! and the per-layer functions the ladder names) and changes no program
//! code. The last line a single run prints is the JSON object the driver
//! reads. `neo-xtask bench` and the criterion suites are unchanged; from
//! this benchmark on they are not the basis for performance claims.

#![forbid(unsafe_code)]
#![deny(warnings)]

mod clock;
mod ladder;
mod metrics;
mod run;
mod set;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Value;
use run::RunReport;

/// The benchmark's result type: any layer's error, boxed.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Parsed command line.
#[derive(Default)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
    agree: Option<(String, String)>,
    describe: bool,
    /// Set in the round processes a timed run spawns.
    round: Option<run::RoundKind>,
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--trace-out <file>]
  benchmark [--seed <n>] [--seconds <s>] [--quick] [--out <file>] [--trace-out <file>]
  benchmark agree <a.json> <b.json>
  benchmark describe";

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        ..Args::default()
    };
    if argv.first().map(String::as_str) == Some("agree") {
        return match argv {
            [_, a, b] => Ok(Args {
                agree: Some((a.clone(), b.clone())),
                ..args
            }),
            _ => Err(USAGE.into()),
        };
    }
    if argv == ["describe"] {
        return Ok(Args {
            describe: true,
            ..args
        });
    }
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse()?,
            "--seconds" => args.seconds = value.parse()?,
            "--trace" => args.trace = value.parse::<u8>()? != 0,
            "--out" => args.out = Some(value.clone()),
            "--trace-out" => args.trace_out = Some(value.clone()),
            "--round" => {
                let kind = [
                    run::RoundKind::Stated,
                    run::RoundKind::Canary,
                    run::RoundKind::SerialTwin,
                ]
                .into_iter()
                .find(|k| run::kind_arg(*k) == value);
                args.round =
                    Some(kind.ok_or("--round is internal: stated | canary | serial-twin")?);
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}").into()),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Re-executes this binary with `args`, standard error passed through,
/// and returns whether it exited with 0 and what it printed. Timed rounds
/// and a set's timed runs are such child processes.
fn reexec(args: &[String]) -> Res<(bool, String)> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    Ok((out.status.success(), stdout))
}

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`.
const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, from the same tables the runs report by.
fn describe() -> String {
    let workloads: Vec<String> = workloads::all(false)
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The ladder's per-row budget for a run of `seconds`.
fn ladder_budget(seconds: f64, quick: bool) -> ladder::Budget {
    if quick {
        ladder::Budget {
            row_ns: 1_000_000,
            min_calls: 3,
            triad_elems: 1 << 16,
            fma_iters: 2_000,
        }
    } else {
        ladder::Budget {
            // ~25 rows at a thirty-fifth of the run each: with the two
            // rounds before them, about the run's length
            row_ns: (seconds * 1e9 / 35.0) as u64,
            min_calls: 30,
            triad_elems: 8 << 20, // 3 arrays of 32 MiB
            fma_iters: 200_000,
        }
    }
}

/// `workload metric value unit n=` lines, one per value.
fn print_values(workload: &str, values: &[Value]) {
    for v in values {
        println!("{workload} {} {} {} n={}", v.name, v.value, v.unit, v.n);
    }
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(report: &RunReport) -> String {
    let mut metrics = String::new();
    for (i, v) in report.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            v.name, v.value, v.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed
    )
}

fn single_run(name: &str, args: &Args, epoch: Instant) -> Res<ExitCode> {
    let w = workloads::by_name(name, args.quick)?;
    if let Some(kind) = args.round {
        run::round_child(&w, args.seed, kind, epoch)?;
        return Ok(ExitCode::SUCCESS);
    }
    let mut report = if args.trace {
        run::traced(
            &w,
            args.seed,
            ladder_budget(args.seconds, args.quick),
            epoch,
        )?
    } else {
        run::timed(&w, args.seed, args.seconds)?
    };
    for v in &mut report.values {
        if !v.value.is_finite() {
            report.problems.push(format!("{} is not finite", v.name));
            v.value = 0.0;
        }
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &report.trace) {
        trace::write_file(path, std::slice::from_ref(trace))?;
    }
    print_values(w.name, &report.values);
    for p in &report.problems {
        eprintln!("{}: INCORRECT: {p}", w.name);
    }
    println!("{}", result_line(&report));
    Ok(if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main(epoch: Instant) -> Res<ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.agree {
        return set::agree(a, b);
    }
    if args.describe {
        println!("{}", describe());
        return Ok(ExitCode::SUCCESS);
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Err(format!(
            "available_parallelism() = {cores}: two rank threads on one core would time the scheduler"
        )
        .into());
    }
    match &args.workload {
        Some(name) => single_run(name, &args, epoch),
        None => set::run_set(&args, epoch),
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    match real_main(epoch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload dense_w2 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("dense_w2"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 3.0, true, false));
        let a = parse_args(&argv("--quick --trace 0")).unwrap();
        assert!(a.quick && !a.trace && a.workload.is_none());
        let a = parse_args(&argv("agree x.json y.json")).unwrap();
        assert_eq!(a.agree, Some(("x.json".into(), "y.json".into())));
    }

    /// `BENCHMARK.json` is `describe`'s output: the declared metrics are
    /// the ones the runs report, by construction.
    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed.trim_end(), describe());
        let json = neo_telemetry::json::parse(&committed).unwrap();
        assert_eq!(json.as_object().unwrap().len(), 6);
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "--seed",
            "--seed x",
            "--bogus 1",
            "--seconds 0",
            "--seconds nan",
            "agree only_one.json",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            values: vec![Value {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
                n: 3,
            }],
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            trace: None,
        };
        let json = neo_telemetry::json::parse(&result_line(&report)).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
