//! `neo-xtask interleave` — seeded schedule-perturbation harness for the
//! overlapped (Fig. 9) trainer.
//!
//! The overlapped schedule's correctness claim is *schedule independence*:
//! posted collectives complete whenever their waits come, and no matter
//! how the OS interleaves the ranks' posts, arrivals and waits with
//! compute, training must neither deadlock nor change a single bit of the
//! result. This harness drives the claim: for each seed it arms
//! [`neo_sync::chaos`], which perturbs thread timing at the split-phase
//! boundaries (`post`, arrival, `wait`) with seed-deterministic yields
//! and micro-sleeps, runs the w ∈ {2, 4} overlapped trainer on a plan
//! with one table per sharding scheme and a small modelled wire delay
//! under a watchdog, and asserts the losses, probe logits, and every
//! trained embedding row are bitwise identical to a serial (unperturbed,
//! non-overlapped) reference run.
//!
//! Every perturbed run also carries an in-memory `neo-monitor` session:
//! chaos's micro-sleeps sit far below the watchdog's stall deadline, so
//! a healthy-but-jittered schedule must produce **zero** health alerts —
//! any alert is a false positive and fails the seed. This doubles as the
//! monitor's clean-run acceptance gate at CI scale (32 seeds).
//!
//! Perturbations are a pure function of `(seed, thread-local counter,
//! site)`, so a failing seed replays exactly:
//!
//! ```text
//! cargo run -p neo-xtask -- interleave --seed 17
//! ```
//!
//! A hang is reported as a possible deadlock (with the seed) instead of
//! hanging CI: each run executes on a watchdog thread with a generous
//! timeout. In a debug build (ci.sh runs the harness on the dev profile)
//! neo-sync's lock-class check is live on every perturbed schedule: an
//! out-of-rank acquisition or a condition wait under a second guard
//! panics its thread, and the trainer reports the panic as the seed's
//! training error.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use neo_collectives::{CommDelay, QuantMode};
use neo_dataio::{CombinedBatch, SyntheticConfig, SyntheticDataset};
use neo_dlrm_model::DlrmConfig;
use neo_sharding::{Scheme, ShardingPlan, TablePlacement};
use neo_sync::chaos;
use neo_tensor::Tensor2;
use neo_trainer::{SyncConfig, SyncTrainer, TrainOutput};

/// Wall-clock budget per perturbed run; on a loaded 1-core host a clean
/// run takes well under a second, so expiry means a wedged schedule.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Tables in the perturbed model: one per sharding scheme.
const TABLES: usize = 4;

/// One (world size, quantization) scenario; seeds rotate through all.
#[derive(Clone, Copy)]
struct Combo {
    world: usize,
    quant_fwd: QuantMode,
    quant_bwd: QuantMode,
}

const COMBOS: &[Combo] = &[
    Combo {
        world: 2,
        quant_fwd: QuantMode::Fp32,
        quant_bwd: QuantMode::Fp32,
    },
    Combo {
        world: 4,
        quant_fwd: QuantMode::Fp32,
        quant_bwd: QuantMode::Fp32,
    },
    Combo {
        world: 2,
        quant_fwd: QuantMode::Fp16,
        quant_bwd: QuantMode::Bf16,
    },
    Combo {
        world: 4,
        quant_fwd: QuantMode::Fp16,
        quant_bwd: QuantMode::Bf16,
    },
];

/// Runs the interleave harness; returns the number of failing seeds.
pub fn run_interleave(args: &[String]) -> Result<usize, String> {
    let mut seeds: Option<Vec<u64>> = None;
    let mut iters = 6u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds requires a count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --seeds value `{v}`"))?;
                seeds = Some((0..n).collect());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed requires a value")?;
                let s: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value `{v}`"))?;
                seeds.get_or_insert_with(Vec::new).push(s);
            }
            "--iters" => {
                let v = it.next().ok_or("--iters requires a count")?;
                iters = v
                    .parse()
                    .map_err(|_| format!("invalid --iters value `{v}`"))?;
                if iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}` to interleave")),
        }
    }
    let seeds = seeds.unwrap_or_else(|| (0..32).collect());

    let ds = dataset();
    let batches: Vec<CombinedBatch> = (0..iters).map(|k| ds.batch(32, k)).collect();
    let probe = ds.batch(32, 555);

    // one serial (non-overlapped, unperturbed) reference per scenario
    chaos::disarm();
    let mut reference: Vec<Option<Signature>> = COMBOS.iter().map(|_| None).collect();
    let mut problems = 0usize;

    for &seed in &seeds {
        let combo_idx = (seed as usize) % COMBOS.len();
        let combo = COMBOS[combo_idx];
        if reference[combo_idx].is_none() {
            let out = train(combo, &batches, &probe, false)
                .map_err(|e| format!("serial reference (world {}): {e}", combo.world))?;
            reference[combo_idx] = Some(signature(out)?);
        }
        #[expect(
            clippy::unwrap_used,
            reason = "combo's reference was just filled above"
        )]
        let serial = reference[combo_idx].as_ref().unwrap();

        chaos::arm(seed);
        let result = run_with_watchdog(combo, &batches, &probe);
        chaos::disarm();

        let tag = format!(
            "seed {seed} (world {}, quant {:?}/{:?})",
            combo.world, combo.quant_fwd, combo.quant_bwd
        );
        match result {
            None => {
                problems += 1;
                println!(
                    "interleave: {tag}: possible deadlock — no result within \
                     {}s; replay with `neo-xtask interleave --seed {seed}`",
                    WATCHDOG.as_secs()
                );
            }
            Some(Err(e)) => {
                problems += 1;
                println!("interleave: {tag}: training failed: {e}");
            }
            Some(Ok(overlapped)) => {
                if !overlapped.health_events.is_empty() {
                    problems += 1;
                    println!(
                        "interleave: {tag}: {} spurious health alert(s) on a \
                         healthy chaos run: {:?}",
                        overlapped.health_events.len(),
                        overlapped.health_events
                    );
                }
                match signature(overlapped) {
                    Err(e) => {
                        problems += 1;
                        println!("interleave: {tag}: {e}");
                    }
                    Ok(sig) => match bitwise_diff(serial, &sig) {
                        None => println!("interleave: {tag}: ok"),
                        Some(diff) => {
                            problems += 1;
                            println!(
                                "interleave: {tag}: result diverges from serial \
                                 reference: {diff}; replay with `neo-xtask interleave \
                                 --seed {seed}`"
                            );
                        }
                    },
                }
            }
        }
    }

    if problems == 0 {
        println!(
            "neo-xtask interleave: ok ({} seed(s), {iters} iteration(s), \
             bitwise identical to serial)",
            seeds.len()
        );
    } else {
        println!("neo-xtask interleave: {problems} failure(s)");
    }
    Ok(problems)
}

fn dataset() -> SyntheticDataset {
    #[expect(clippy::unwrap_used, reason = "fixed valid config, cannot fail")]
    SyntheticDataset::new(SyntheticConfig::uniform(TABLES, 128, 3, 4)).unwrap()
}

/// One table per scheme, so every perturbed run carries traffic in each
/// exchange: the index, pooled and gradient AlltoAlls, the row-wise
/// ReduceScatter, and the row-wise and data-parallel AllGathers.
fn plan(world: usize) -> ShardingPlan {
    let schemes = [
        Scheme::TableWise { worker: 1 },
        Scheme::RowWise {
            workers: (0..world).collect(),
        },
        Scheme::ColumnWise {
            workers: vec![0, world - 1],
            split_dims: vec![4, 4],
        },
        Scheme::DataParallel,
    ];
    let placements = (schemes.into_iter().enumerate())
        .map(|(table, scheme)| TablePlacement { table, scheme })
        .collect();
    ShardingPlan { world, placements }
}

/// The trainer config for `combo`.
fn config(combo: Combo, overlap: bool) -> SyncConfig {
    let mut cfg = SyncConfig::exact(
        combo.world,
        DlrmConfig::tiny(TABLES, 128, 8),
        plan(combo.world),
        32,
    );
    cfg.seed = 42;
    cfg.quant_fwd = combo.quant_fwd;
    cfg.quant_bwd = combo.quant_bwd;
    cfg.overlap = overlap;
    cfg.gather_final_model = true;
    if overlap {
        // a small modelled wire, so every perturbed wait also runs the
        // deadline's sleep-then-yield loop
        cfg.comm_delay = Some(CommDelay::new(64e9, 5e-6));
        // in-memory monitor on every perturbed run: a chaos-jittered but
        // healthy schedule must raise zero alerts (false-positive gate)
        cfg.monitor = Some(neo_monitor::MonitorConfig {
            interval_ms: 10,
            ..neo_monitor::MonitorConfig::in_memory()
        });
    }
    cfg
}

fn train(
    combo: Combo,
    batches: &[CombinedBatch],
    probe: &CombinedBatch,
    overlap: bool,
) -> Result<TrainOutput, String> {
    SyncTrainer::new(config(combo, overlap))
        .train(batches, &[], 0, Some(probe))
        .map_err(|e| format!("{e}"))
}

/// Runs the overlapped trainer on a watchdog thread; `None` on timeout
/// (the wedged thread is abandoned — the harness exits nonzero anyway).
fn run_with_watchdog(
    combo: Combo,
    batches: &[CombinedBatch],
    probe: &CombinedBatch,
) -> Option<Result<TrainOutput, String>> {
    let (tx, rx) = mpsc::channel();
    let batches = batches.to_vec();
    let probe = probe.clone();
    thread::spawn(move || {
        tx.send(train(combo, &batches, &probe, true)).ok();
    });
    rx.recv_timeout(WATCHDOG).ok()
}

/// Everything a bitwise comparison needs, extracted from a run (the
/// model's row stores are stateful, so rows are read out once here).
struct Signature {
    losses: Vec<f32>,
    probe_logits: Option<Tensor2>,
    /// `rows[table][row]` — every trained embedding row.
    rows: Vec<Vec<Vec<f32>>>,
}

/// Extracts the comparison signature from a finished run.
fn signature(mut out: TrainOutput) -> Result<Signature, String> {
    let mut model = out
        .final_model
        .take()
        .ok_or("missing gathered final model")?;
    let rows = model
        .tables
        .iter_mut()
        .map(|t| {
            let mut buf = vec![0.0f32; t.dim()];
            (0..t.num_rows())
                .map(|row| {
                    t.read_row(row, &mut buf);
                    buf.clone()
                })
                .collect()
        })
        .collect();
    Ok(Signature {
        losses: out.losses,
        probe_logits: out.probe_logits,
        rows,
    })
}

/// First bitwise difference between two training runs, if any: losses,
/// probe logits, then every embedding row of the gathered final model.
fn bitwise_diff(serial: &Signature, overlapped: &Signature) -> Option<String> {
    if serial.losses != overlapped.losses {
        return Some("loss trajectory".into());
    }
    if serial.probe_logits != overlapped.probe_logits {
        return Some("probe logits".into());
    }
    for (t, (ta, tb)) in serial.rows.iter().zip(&overlapped.rows).enumerate() {
        if ta.len() != tb.len() {
            return Some(format!("embedding table {t} row count"));
        }
        for (row, (ra, rb)) in ta.iter().zip(tb).enumerate() {
            if ra != rb {
                return Some(format!("embedding table {t} row {row}"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seeds through the full pipeline: arm, perturb, compare. This is
    /// the same path ci.sh gate 8 drives with more seeds.
    #[test]
    fn perturbed_runs_stay_bitwise_identical() {
        let n = run_interleave(&[
            "--seed".into(),
            "0".into(),
            "--seed".into(),
            "3".into(),
            "--iters".into(),
            "2".into(),
        ])
        .expect("harness runs");
        assert_eq!(n, 0, "perturbed overlap run diverged or deadlocked");
    }

    #[test]
    fn argument_errors_are_reported() {
        assert!(run_interleave(&["--seeds".into()]).is_err());
        assert!(run_interleave(&["--iters".into(), "0".into()]).is_err());
        assert!(run_interleave(&["--bogus".into()]).is_err());
    }
}
