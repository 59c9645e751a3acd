//! `neo-xtask overhead` — the live-monitor and workload-profiler overhead
//! budgets (ci.sh gate 7).
//!
//! Each arm trains the quickstart case as interleaved off/on pairs (ABAB)
//! so machine-load drift cancels out of the per-pair ratio, and fails
//! when the *minimum* paired overhead exceeds the budget: transient load
//! swings any one pair, but a real cost is paid in every pair, so the
//! cleanest pair bounds it. Every pair and the min / quartiles / median
//! are printed so a reader can see what the minimum was drawn from.
//! Throughput and per-layer numbers live in `benchmark/`, not here.

use std::time::Instant;

use neo_collectives::QuantMode;
use neo_dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
use neo_dlrm_model::DlrmConfig;
use neo_monitor::MonitorConfig;
use neo_sharding::{CostModel, Planner, PlannerConfig, TableSpec};
use neo_telemetry::TelemetrySink;
use neo_trainer::{SyncConfig, SyncTrainer};

const WORLD: usize = 4;
const ROWS: u64 = 20_000;
const GLOBAL_BATCH: usize = 256;
const ITERS: u64 = 24;
const PAIRS: usize = 12;
const MONITOR_INTERVAL_MS: u64 = 5;
/// A *fraction* of the off-arm wall-clock, so it tightens in absolute
/// terms whenever the trainer gets faster.
const BUDGET_PCT: f64 = 3.0;

/// Sets up one run of an arm on the pinned config; `on` selects the
/// measured side of the pair.
type Arm = fn(&mut SyncConfig, bool);

const ARMS: [(&str, Arm); 2] = [("monitor", monitor_arm), ("workload", workload_arm)];

/// Telemetry is armed in both runs: the monitor samples the telemetry
/// sink, and the pair must isolate the monitor, not span bookkeeping.
fn monitor_arm(cfg: &mut SyncConfig, on: bool) {
    cfg.telemetry = TelemetrySink::armed();
    if on {
        cfg.monitor = Some(MonitorConfig {
            interval_ms: MONITOR_INTERVAL_MS,
            ..MonitorConfig::in_memory()
        });
    }
}

/// Telemetry stays off in both runs: the profiler is meant to be cheap on
/// the bare hot path, so its cost must not hide under span bookkeeping.
fn workload_arm(cfg: &mut SyncConfig, on: bool) {
    cfg.workload = on;
}

/// The quickstart model (8 tables, dim 16) planned for [`WORLD`] ranks
/// with the quickstart's quantized wire (FP16 fwd / BF16 bwd), every
/// observer off, plus `iters` batches to train it on.
fn case(iters: u64) -> Result<(SyncConfig, Vec<CombinedBatch>), String> {
    let model = DlrmConfig::tiny(8, ROWS, 16);
    let specs: Vec<TableSpec> = model
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
        .collect();
    let plan = Planner::new(
        CostModel::v100_prototype(GLOBAL_BATCH),
        PlannerConfig::default(),
    )
    .plan(&specs, WORLD)
    .map_err(|e| format!("planning failed: {e}"))?;
    let ds = SyntheticDataset::new(SyntheticConfig::uniform(8, ROWS, 4, 4))
        .map_err(|e| format!("dataset: {e}"))?;
    let batches = (0..iters).map(|k| ds.batch(GLOBAL_BATCH, k)).collect();
    let mut cfg = SyncConfig::exact(WORLD, model, plan, GLOBAL_BATCH);
    cfg.quant_fwd = QuantMode::Fp16;
    cfg.quant_bwd = QuantMode::Bf16;
    Ok((cfg, batches))
}

/// Trains `pairs` interleaved off/on pairs of `iters` iterations each and
/// returns every pair's overhead as a percentage of its off run.
fn paired_overhead(name: &str, arm: Arm, pairs: usize, iters: u64) -> Result<Vec<f64>, String> {
    let (base, batches) = case(iters).map_err(|e| format!("{name}: {e}"))?;
    let run = |on: bool| -> Result<f64, String> {
        let mut cfg = base.clone();
        arm(&mut cfg, on);
        #[expect(
            clippy::disallowed_methods,
            reason = "pricing the overhead is wall-clock timing"
        )]
        let t0 = Instant::now();
        SyncTrainer::new(cfg)
            .train(&batches, &[], 0, None)
            .map_err(|e| format!("{name}: training failed: {e}"))?;
        Ok(t0.elapsed().as_secs_f64().max(1e-9))
    };
    (0..pairs)
        .map(|_| {
            let off_secs = run(false)?;
            let on_secs = run(true)?;
            Ok((on_secs / off_secs - 1.0) * 100.0)
        })
        .collect()
}

/// Whether the minimum paired overhead is within `budget`; no pairs is an
/// error, never a pass.
fn verdict(pcts: &[f64], budget: f64) -> Result<bool, String> {
    if pcts.is_empty() {
        return Err("no overhead pairs were measured".into());
    }
    Ok(pcts.iter().copied().fold(f64::INFINITY, f64::min) <= budget)
}

/// Linear-interpolated quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Measures both arms, prints their distributions, and returns the number
/// of arms over budget.
pub fn run_overhead(args: &[String]) -> Result<usize, String> {
    if let Some(a) = args.first() {
        return Err(format!("overhead takes no arguments, got `{a}`"));
    }
    let mut over = 0usize;
    for (name, arm) in ARMS {
        #[expect(clippy::disallowed_methods, reason = "prints the arm's elapsed time")]
        let t0 = Instant::now();
        let pcts = paired_overhead(name, arm, PAIRS, ITERS)?;
        let ok = verdict(&pcts, BUDGET_PCT)?;
        let shown: Vec<String> = pcts.iter().map(|p| format!("{p:+.1}")).collect();
        println!("neo-xtask overhead: {name} pairs (%): {}", shown.join(" "));
        let mut sorted = pcts;
        sorted.sort_by(f64::total_cmp);
        println!(
            "neo-xtask overhead: {name} min {:+.2}%  q1 {:+.2}%  median {:+.2}%  q3 {:+.2}%  \
             ({} pairs x {ITERS} it, {:.1} s) — {}",
            sorted[0],
            quantile(&sorted, 0.25),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.75),
            sorted.len(),
            t0.elapsed().as_secs_f64(),
            if ok {
                format!("min within the {BUDGET_PCT}% budget")
            } else {
                format!("regression: min exceeds the {BUDGET_PCT}% budget")
            }
        );
        over += usize::from(!ok);
    }
    Ok(over)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_min_against_budget_and_empty_is_an_error() {
        assert_eq!(verdict(&[3.1, 9.0, 40.0], 3.0), Ok(false));
        assert_eq!(verdict(&[3.0, 9.0, 40.0], 3.0), Ok(true));
        assert_eq!(verdict(&[12.0, -5.0], 3.0), Ok(true));
        assert!(verdict(&[], 3.0).is_err());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [0.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.5), 1.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    /// Two pairs of four iterations per arm: the percentages are sane and
    /// each arm switches on exactly the feature it claims to price.
    #[test]
    fn both_arms_measure_what_they_name() {
        let (base, _) = case(1).unwrap();
        let with = |arm: Arm, on: bool| {
            let mut cfg = base.clone();
            arm(&mut cfg, on);
            cfg
        };
        let (on, off) = (with(monitor_arm, true), with(monitor_arm, false));
        assert!(on.monitor.is_some() && off.monitor.is_none());
        assert!(on.telemetry.enabled() && off.telemetry.enabled());
        assert!(!on.workload && !off.workload);
        let (on, off) = (with(workload_arm, true), with(workload_arm, false));
        assert!(on.workload && !off.workload);
        assert!(on.monitor.is_none() && !on.telemetry.enabled() && !off.telemetry.enabled());

        for (name, arm) in ARMS {
            let pcts = paired_overhead(name, arm, 2, 4).unwrap();
            assert_eq!(pcts.len(), 2, "{name}");
            assert!(
                pcts.iter().all(|p| p.is_finite() && *p > -100.0),
                "{name}: {pcts:?}"
            );
        }
        assert!(run_overhead(&["--quick".into()]).is_err(), "no flags");
    }
}
