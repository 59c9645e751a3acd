//! One run of one workload: rounds of set-up plus closed-loop training,
//! the metrics derived from them, and the correctness checks.
//!
//! A *round* builds the inputs from the seed, constructs a fresh trainer
//! and trains a fixed number of steps through `SyncTrainer::train_stream`
//! — a closed loop: the synchronous trainer issues step `k + 1` only
//! after step `k` completes. A timed run repeats rounds, each in a
//! process of its own, for the requested seconds (at least
//! [`MIN_ROUNDS`]) and reports medians over rounds, so one noisy stretch
//! of a shared host cannot move a metric. The step count per round is
//! fixed, so the loss curve is a function of the seed alone and must
//! repeat bit for bit in every round.

use std::time::Instant;

use neo_collectives::CommStats;
use neo_telemetry::{phase, TelemetrySink, TelemetrySummary};
use neo_trainer::SyncTrainer;

use crate::clock::{step_durations, warmup_steps, StepClock};
use crate::ladder::{self, Budget};
use crate::metrics::{Value, PER_LAYER};
use crate::stats::{loss_checksum, mean_loss, median, percentile_ns, samples_beyond, MIN_BEYOND};
use crate::trace::Trace;
use crate::workloads::{build_inputs, elapsed_ns, Workload};
use crate::Res;

/// Rounds a timed run makes at the least: every end-to-end timing is a
/// median of three or more.
pub const MIN_ROUNDS: usize = 3;

/// What one round measured.
pub struct Round {
    /// Round start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Plan construction time.
    pub plan_ns: u64,
    /// Dataset and ring generation time.
    pub ring_ns: u64,
    /// Planner's predicted `max / mean` worker cost.
    pub imbalance: f64,
    /// Step boundaries, nanoseconds since the round started.
    pub boundaries: Vec<u64>,
    /// Last minus first `make(k)` arrival per step.
    pub skews: Vec<u64>,
    /// Time all ranks spent inside `make`.
    pub make_ns: u64,
    /// Round end (trainer returned), nanoseconds since the round started.
    pub end_ns: u64,
    /// Loss per step; empty when the trainer returned an error.
    pub losses: Vec<f32>,
    /// Per-rank collective counters.
    pub comm: Vec<CommStats>,
    /// The program's own phase summary (traced rounds only).
    pub summary: Option<TelemetrySummary>,
    /// Embedding lookups issued over the round's steps.
    pub lookups: u64,
    /// Steps asked of the trainer.
    pub steps: usize,
    /// The trainer's error, if it returned one.
    pub error: Option<String>,
}

/// Runs one round of `steps` steps. `traced` arms the program's
/// telemetry; timed rounds run with the disabled sink, no monitor and no
/// workload profiler.
pub fn run_round(
    w: &Workload,
    seed: u64,
    steps: usize,
    traced: bool,
    epoch: Instant,
) -> Res<Round> {
    let start_ns = elapsed_ns(epoch);
    let clock = StepClock::new(steps);
    let inputs = build_inputs(w, seed)?;
    let mut cfg = inputs.cfg;
    if traced {
        cfg.telemetry = TelemetrySink::armed();
    }
    let ring = &inputs.ring;
    let trainer = SyncTrainer::new(cfg);
    let out = trainer.train_stream(
        steps as u64,
        |k| {
            let arrived = clock.now_ns();
            clock.record(k as usize, arrived);
            let batch = ring[k as usize % ring.len()].clone();
            clock.add_make_ns(clock.now_ns().saturating_sub(arrived));
            batch
        },
        &[],
        0,
        None,
    );
    let end_ns = clock.now_ns();
    let lookups = (0..steps)
        .map(|k| ring[k % ring.len()].indices().len() as u64)
        .sum();
    let mut round = Round {
        start_ns,
        plan_ns: inputs.plan_ns,
        ring_ns: inputs.ring_ns,
        imbalance: inputs.imbalance,
        boundaries: clock.boundaries(),
        skews: clock.skews(),
        make_ns: clock.make_ns(),
        end_ns,
        losses: Vec::new(),
        comm: Vec::new(),
        summary: None,
        lookups,
        steps,
        error: None,
    };
    match out {
        Ok(out) => {
            round.losses = out.losses;
            round.comm = out.comm;
            round.summary = out.telemetry_summary;
        }
        Err(e) => round.error = Some(e.to_string()),
    }
    Ok(round)
}

impl Round {
    /// Set-up time: round start to boundary 0 — plan, dataset and ring
    /// generation, `SyncTrainer::new`, thread spawn, shard initialisation.
    pub fn setup_s(&self) -> f64 {
        self.boundaries.first().copied().unwrap_or(self.end_ns) as f64 / 1e9
    }

    /// Measured steps times batch over the time from the end of warm-up
    /// to the last boundary.
    pub fn samples_per_s(&self, batch: usize) -> f64 {
        let from = warmup_steps(self.boundaries.len());
        match (self.boundaries.get(from), self.boundaries.last()) {
            (Some(&a), Some(&b)) if b > a => {
                let measured = self.boundaries.len() - 1 - from;
                (measured * batch) as f64 * 1e9 / (b - a) as f64
            }
            _ => 0.0,
        }
    }

    /// Steps that did not complete or whose loss is not finite.
    pub fn failed_steps(&self) -> usize {
        let unfinished = self.steps - self.losses.len().min(self.steps);
        unfinished + self.losses.iter().filter(|l| !l.is_finite()).count()
    }

    /// Mean loss over the first 5% of steps.
    fn loss_head_mean(&self) -> f64 {
        mean_loss(&self.losses[..self.twentieth()])
    }

    /// Mean loss over the last 5% of steps.
    pub fn loss_tail_mean(&self) -> f64 {
        mean_loss(&self.losses[self.losses.len() - self.twentieth()..])
    }

    fn twentieth(&self) -> usize {
        self.losses.len().div_ceil(20).min(self.losses.len())
    }

    fn calls_per_step(&self) -> f64 {
        self.comm.first().map_or(0.0, |c| c.ops as f64) / self.steps.max(1) as f64
    }

    fn lookups_per_step(&self) -> f64 {
        self.lookups as f64 / self.steps.max(1) as f64
    }

    fn wire_bytes_per_step(&self) -> f64 {
        self.comm.first().map_or(0.0, |c| c.bytes_sent as f64) / self.steps.max(1) as f64
    }

    /// Failed correctness checks of this round alone: they hold at any
    /// data seed.
    fn check(&self, problems: &mut Vec<String>) {
        if let Some(e) = &self.error {
            problems.push(format!("trainer returned an error: {e}"));
            return;
        }
        if self.losses.len() != self.steps || self.boundaries.len() != self.steps {
            problems.push(format!(
                "{} losses and {} boundaries for {} steps",
                self.losses.len(),
                self.boundaries.len(),
                self.steps
            ));
        }
        if self.losses.iter().any(|l| !l.is_finite()) {
            problems.push("non-finite loss".to_string());
        }
    }

    /// The canary's own check: the loss fell. Asked of the canary round
    /// alone, because whether `dense_w2` gets below its first steps in a
    /// round this short depends on the data seed (2 seeds in 70 do not),
    /// while at the canary's seed the curve repeats to the bit.
    fn check_learned(&self, problems: &mut Vec<String>) {
        if !self.losses.is_empty() && self.loss_tail_mean() >= self.loss_head_mean() {
            problems.push(format!(
                "loss did not fall: first 5% mean {} -> last 5% mean {}",
                self.loss_head_mean(),
                self.loss_tail_mean()
            ));
        }
    }
}

/// What a run hands to `main`: the metric values and the verdict.
pub struct RunReport {
    /// Metric values in table order.
    pub values: Vec<Value>,
    /// Steps attempted.
    pub attempted: usize,
    /// Steps failed.
    pub failed: usize,
    /// Correctness violations (empty = correct).
    pub problems: Vec<String>,
    /// Spans (traced runs only).
    pub trace: Option<Trace>,
}

fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What a round's process reports to the run that spawned it: one JSON
/// line on standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFacts {
    /// Process start to boundary 0, seconds.
    pub setup_s: f64,
    /// Throughput over the measured steps.
    pub samples_per_s: f64,
    /// Median measured step, milliseconds.
    pub step_ms_p50: f64,
    /// Measured step durations behind the median.
    pub measured: usize,
    /// `VmHWM` of the round's process when it finished, MiB.
    pub peak_rss_mb: f64,
    /// Mean loss over the last 5% of steps.
    pub loss_tail_mean: f64,
    /// FNV-1a over the loss bits.
    pub checksum: u64,
    /// Steps attempted and failed.
    pub steps: usize,
    /// Steps that did not complete or had a non-finite loss.
    pub failed: usize,
    /// The exact counts: calls, wire bytes and lookups per step, plan
    /// imbalance.
    pub counts: [f64; 4],
    /// Failed checks of the round alone.
    pub problems: Vec<String>,
}

impl RoundFacts {
    fn of(w: &Workload, r: &Round, kind: RoundKind) -> Res<Self> {
        let mut problems = Vec::new();
        r.check(&mut problems);
        // a quick round is too short to learn anything
        if kind == RoundKind::Canary && !w.quick {
            r.check_learned(&mut problems);
        }
        let durations = step_durations(&r.boundaries);
        Ok(Self {
            setup_s: r.start_ns as f64 / 1e9 + r.setup_s(),
            samples_per_s: r.samples_per_s(w.batch),
            step_ms_p50: percentile_ns(&durations, 0.5) as f64 / 1e6,
            measured: durations.len(),
            peak_rss_mb: peak_rss_mib()?,
            loss_tail_mean: r.loss_tail_mean(),
            checksum: loss_checksum(&r.losses),
            steps: r.steps,
            failed: r.failed_steps(),
            counts: [
                r.calls_per_step(),
                r.wire_bytes_per_step(),
                r.lookups_per_step(),
                r.imbalance,
            ],
            problems,
        })
    }

    fn to_json(&self) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace(['"', '\\'], "'").replace('\n', " ")))
            .collect();
        format!(
            "{{\"setup_s\":{},\"samples_per_s\":{},\"step_ms_p50\":{},\"measured\":{},\
             \"peak_rss_mb\":{},\"loss_tail_mean\":{},\"checksum\":\"{:016x}\",\"steps\":{},\
             \"failed\":{},\"counts\":[{},{},{},{}],\"problems\":[{}]}}",
            self.setup_s,
            self.samples_per_s,
            self.step_ms_p50,
            self.measured,
            self.peak_rss_mb,
            self.loss_tail_mean,
            self.checksum,
            self.steps,
            self.failed,
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3],
            problems.join(",")
        )
    }

    fn parse(line: &str) -> Res<Self> {
        let j = neo_telemetry::json::parse(line).map_err(|e| format!("round line: {e}"))?;
        let num = |key: &str| -> Res<f64> {
            j.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("round line has no {key}").into())
        };
        let list = |key: &str| {
            j.get(key)
                .and_then(|v| v.as_array())
                .ok_or("round line: no list")
        };
        let counts: Vec<f64> = list("counts")?.iter().filter_map(|v| v.as_f64()).collect();
        let checksum = j
            .get("checksum")
            .and_then(|v| v.as_str())
            .ok_or("no checksum")?;
        Ok(Self {
            setup_s: num("setup_s")?,
            samples_per_s: num("samples_per_s")?,
            step_ms_p50: num("step_ms_p50")?,
            measured: num("measured")? as usize,
            peak_rss_mb: num("peak_rss_mb")?,
            loss_tail_mean: num("loss_tail_mean")?,
            checksum: u64::from_str_radix(checksum, 16)?,
            steps: num("steps")? as usize,
            failed: num("failed")? as usize,
            counts: counts
                .try_into()
                .map_err(|_| "round line: four counts expected")?,
            problems: list("problems")?
                .iter()
                .filter_map(|v| v.as_str().map(String::from))
                .collect(),
        })
    }
}

/// Which round a child process runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundKind {
    /// The workload as stated.
    Stated,
    /// The workload as stated at [`CANARY_SEED`]: the round that reports
    /// `loss_tail_mean` and has to show that the loss fell.
    Canary,
    /// Its serial, delay-free twin: an overlapped workload must train to
    /// the same bits.
    SerialTwin,
}

/// Body of a round's process (`--round`): one untraced round, reported
/// as one JSON line.
pub fn round_child(w: &Workload, seed: u64, kind: RoundKind, epoch: Instant) -> Res<()> {
    let twin;
    let w = match kind {
        RoundKind::Stated | RoundKind::Canary => w,
        RoundKind::SerialTwin => {
            twin = Workload {
                overlap: false,
                comm_delay: None,
                ..w.clone()
            };
            &twin
        }
    };
    let round = run_round(w, seed, w.steps, false, epoch)?;
    println!("{}", RoundFacts::of(w, &round, kind)?.to_json());
    Ok(())
}

/// Runs one round as a child process: this binary re-executed with
/// `--round`, so set-up is timed from process start and `VmHWM` is the
/// round's own.
fn spawn_round(w: &Workload, seed: u64, kind: RoundKind) -> Res<RoundFacts> {
    let mut args: Vec<String> = ["--round", kind_arg(kind), "--workload", w.name, "--seed"]
        .map(String::from)
        .to_vec();
    args.push(seed.to_string());
    if w.quick {
        args.push("--quick".into());
    }
    match crate::reexec(&args)? {
        (true, stdout) => RoundFacts::parse(stdout.lines().last().unwrap_or("")),
        _ => Err(format!("round process of {} failed", w.name).into()),
    }
}

/// Command-line word of a round kind.
pub fn kind_arg(kind: RoundKind) -> &'static str {
    match kind {
        RoundKind::Stated => "stated",
        RoundKind::Canary => "canary",
        RoundKind::SerialTwin => "serial-twin",
    }
}

/// The data seed of the loss canary. `loss_tail_mean` is measured on a
/// round at this seed whatever `--seed` says: the loss these workloads
/// reach is mostly memorisation of the 64-batch ring and moves 7-50%
/// from seed to seed, while at one seed it repeats to the bit, so only a
/// fixed seed can hold a 1% bound.
pub const CANARY_SEED: u64 = 1;

/// The timed run: round processes with tracing off for `seconds`,
/// end-to-end metrics as medians over rounds.
pub fn timed(w: &Workload, seed: u64, seconds: f64) -> Res<RunReport> {
    let mut problems = Vec::new();
    let mut rounds: Vec<RoundFacts> = Vec::new();
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let r = spawn_round(w, seed, RoundKind::Stated)?;
        println!(
            "# {} round {}: samples_per_s={} step_ms_p50={} (n={}) setup_s={} peak_rss_mb={}",
            w.name,
            rounds.len(),
            r.samples_per_s,
            r.step_ms_p50,
            r.measured,
            r.setup_s,
            r.peak_rss_mb
        );
        rounds.push(r);
    }
    // untimed rounds: they only have to train right
    let mut extra = vec![spawn_round(w, CANARY_SEED, RoundKind::Canary)?];
    let tail = extra[0].loss_tail_mean;
    if w.overlap {
        let twin = spawn_round(w, seed, RoundKind::SerialTwin)?;
        if twin.checksum != rounds[0].checksum {
            problems.push("overlapped schedule trained to different losses than serial".into());
        }
        extra.push(twin);
    }

    // same seed, same model seed: every round must repeat the first
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.checksum != rounds[0].checksum {
            problems.push(format!(
                "round {i} trained to different losses than round 0"
            ));
        }
        if r.counts != rounds[0].counts {
            problems.push(format!(
                "round {i} disagrees with round 0 on an exact count"
            ));
        }
    }
    for r in rounds.iter().chain(&extra) {
        problems.extend(r.problems.iter().cloned());
    }

    let per_round = |f: fn(&RoundFacts) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let attempted: usize = rounds.iter().chain(&extra).map(|r| r.steps).sum();
    let failed: usize = rounds.iter().chain(&extra).map(|r| r.failed).sum();
    let n = rounds.len();
    let values = vec![
        Value::new("samples_per_s", per_round(|r| r.samples_per_s), n),
        Value::new("setup_s", per_round(|r| r.setup_s), n),
        Value::new("peak_rss_mb", per_round(|r| r.peak_rss_mb), n),
        Value::new("loss_tail_mean", tail, w.steps.div_ceil(20)),
        Value::new(
            "completed_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            attempted,
        ),
    ];
    Ok(RunReport {
        values,
        attempted,
        failed,
        problems,
        trace: None,
    })
}

/// Adds a round's spans under `parent`.
fn trace_round(trace: &mut Trace, parent: u32, name: &str, w: &Workload, r: &Round) {
    let at = |ns: u64| r.start_ns + ns;
    let round = trace.add(Some(parent), name, "trainer", at(0), at(r.end_ns), 1);
    trace.add(
        Some(round),
        "setup.plan",
        "sharding",
        at(0),
        at(r.plan_ns),
        1,
    );
    let ring_end = r.plan_ns + r.ring_ns;
    trace.add(
        Some(round),
        "setup.ring",
        "dataio",
        at(r.plan_ns),
        at(ring_end),
        w.ring as u64,
    );
    let train = trace.add(
        Some(round),
        "train",
        "trainer",
        at(ring_end),
        at(r.end_ns),
        r.steps as u64,
    );
    // a step spans boundary k to boundary k + 1; the last one ends when
    // the trainer returns
    for (k, &b) in r.boundaries.iter().enumerate() {
        let end = r.boundaries.get(k + 1).copied().unwrap_or(r.end_ns);
        trace.add(Some(train), "step", "trainer", at(b), at(end), 1);
    }
}

/// The traced run: one timed round (T), one half-length round with the
/// program's telemetry armed (R), then the layer ladder (L).
pub fn traced(w: &Workload, seed: u64, budget: Budget, epoch: Instant) -> Res<RunReport> {
    let mut problems = Vec::new();
    let mut trace = Trace::new(w.name);
    let root_start = elapsed_ns(epoch);

    let t = run_round(w, seed, w.steps, false, epoch)?;
    // that the loss falls is the timed run's check, on its canary round
    t.check(&mut problems);
    let half = (w.steps / 2).max(1);
    let r = run_round(w, seed, half, true, epoch)?;
    if r.error.is_some()
        || loss_checksum(&r.losses) != loss_checksum(&t.losses[..half.min(t.losses.len())])
    {
        problems.push("traced round trained to different losses than the timed round".into());
    }

    let inputs = build_inputs(w, seed)?;
    let ladder_start = elapsed_ns(epoch);
    let ladder = ladder::run(w, &inputs, seed, budget, epoch)?;
    let ladder_end = elapsed_ns(epoch);
    drop(inputs);

    let root = trace.add(None, w.name, "bench", root_start, ladder_end, 1);
    trace_round(&mut trace, root, "timed", w, &t);
    trace_round(&mut trace, root, "traced", w, &r);
    let rungs = trace.add(Some(root), "ladder", "bench", ladder_start, ladder_end, 1);
    for row in &ladder.rows {
        // the layer is the metric name's prefix
        let layer = row.name.split('.').next().unwrap_or("bench");
        trace.add(
            Some(rungs),
            row.name,
            layer,
            row.span.0,
            row.span.1,
            row.calls as u64,
        );
    }

    let durations = step_durations(&t.boundaries);
    if !w.quick && samples_beyond(durations.len(), 0.95) < MIN_BEYOND {
        problems.push(format!(
            "p95 of {} steps has fewer than {MIN_BEYOND} samples beyond it",
            durations.len()
        ));
    }
    let measured_skews = &t.skews[warmup_steps(t.skews.len()).min(t.skews.len())..];
    let step_ms_p50 = percentile_ns(&durations, 0.5) as f64 / 1e6;
    let train_ns = t
        .boundaries
        .last()
        .zip(t.boundaries.first())
        .map_or(0, |(b, a)| b - a);
    let phase_ms = |names: &[&str]| -> f64 {
        r.summary.as_ref().map_or(0.0, |s| {
            names.iter().filter_map(|n| s.phase_ms(n)).sum::<f64>()
        })
    };
    let iteration_ms = phase_ms(&[phase::ITERATION]);
    let comm_ms = r
        .summary
        .as_ref()
        .map_or(0.0, TelemetrySummary::exposed_comm_ms);
    let sps_t = t.samples_per_s(w.batch);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut values = ladder.values;
    values.extend([
        Value::new(
            "dataio.make_wait_frac",
            ratio(t.make_ns as f64, (train_ns * w.world as u64) as f64),
            t.steps * w.world,
        ),
        Value::new("sharding.plan_ms", t.plan_ns as f64 / 1e6, 1),
        Value::new("sharding.imbalance", t.imbalance, 0),
        Value::new("embeddings.lookups_per_step", t.lookups_per_step(), 0),
        Value::new("collectives.calls_per_step", t.calls_per_step(), 0),
        Value::new(
            "collectives.wire_bytes_per_step",
            t.wire_bytes_per_step(),
            0,
        ),
        Value::new("trainer.step_ms_p50", step_ms_p50, durations.len()),
        Value::new(
            "trainer.step_ms_p95",
            percentile_ns(&durations, 0.95) as f64 / 1e6,
            durations.len(),
        ),
        Value::new(
            "trainer.rank_skew_us_p50",
            percentile_ns(measured_skews, 0.5) as f64 / 1e3,
            measured_skews.len(),
        ),
        Value::new("trainer.iteration_ms", iteration_ms, half),
        Value::new(
            "trainer.fwd_compute_ms",
            phase_ms(&[
                phase::FWD_BOTTOM_MLP,
                phase::EMB_LOOKUP,
                phase::INTERACTION,
                phase::TOP_MLP,
            ]),
            half,
        ),
        Value::new(
            "trainer.emb_lookup_ms",
            phase_ms(&[phase::EMB_LOOKUP]),
            half,
        ),
        Value::new(
            "trainer.bwd_compute_ms",
            phase_ms(&[
                phase::TOP_MLP_BWD,
                phase::INTERACTION_BWD,
                phase::BWD_BOTTOM_MLP,
            ]),
            half,
        ),
        Value::new(
            "trainer.sparse_optim_ms",
            phase_ms(&[phase::SPARSE_OPTIM]),
            half,
        ),
        Value::new(
            "trainer.dense_optim_ms",
            phase_ms(&[phase::DENSE_OPTIM]),
            half,
        ),
        Value::new("trainer.comm_ms", comm_ms, half),
        Value::new("trainer.comm_frac", ratio(comm_ms, iteration_ms), half),
        Value::new(
            "trainer.trace_overhead_frac",
            1.0 - ratio(r.samples_per_s(w.batch), sps_t),
            0,
        ),
        Value::new("trainer.ladder_sum_ms", ladder.sum_ms, 0),
        Value::new(
            "trainer.unexplained_frac",
            1.0 - ratio(ladder.sum_ms, step_ms_p50),
            0,
        ),
    ]);
    // report in table order
    values.sort_by_key(|v| PER_LAYER.iter().position(|m| m.name == v.name));

    let attempted = t.steps + r.steps;
    let failed = t.failed_steps() + r.failed_steps();
    Ok(RunReport {
        values,
        attempted,
        failed,
        problems,
        trace: Some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_with(losses: Vec<f32>) -> Round {
        let steps = losses.len();
        Round {
            start_ns: 0,
            plan_ns: 0,
            ring_ns: 0,
            imbalance: 1.0,
            boundaries: (0..steps as u64).collect(),
            skews: vec![0; steps],
            make_ns: 0,
            end_ns: steps as u64,
            losses,
            comm: Vec::new(),
            summary: None,
            lookups: 0,
            steps,
            error: None,
        }
    }

    /// A round at the driver's seed may end above where it started
    /// (`dense_w2` does at seeds 36 and 37); only the canary has to learn.
    #[test]
    fn only_the_canary_has_to_learn() {
        let rising: Vec<f32> = (0..40).map(|k| 0.68 + 0.0001 * k as f32).collect();
        let r = round_with(rising);
        let mut problems = Vec::new();
        r.check(&mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        r.check_learned(&mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("loss did not fall"));

        let falling: Vec<f32> = (0..40).map(|k| 0.69 - 0.001 * k as f32).collect();
        let mut problems = Vec::new();
        round_with(falling).check_learned(&mut problems);
        assert!(problems.is_empty());

        let mut problems = Vec::new();
        round_with(vec![0.5, f32::NAN]).check(&mut problems);
        assert_eq!(problems, ["non-finite loss"]);
    }
}
