//! The training iteration and the driver that runs it on every rank.

use std::sync::Arc;

use neo_collectives::{CommStats, ProcessGroup};
use neo_dataio::CombinedBatch;
use neo_dlrm_model::{bce_with_logits, NormalizedEntropy};
use neo_monitor::Monitor;
use neo_sharding::TableSpec;
use neo_telemetry::{Metric, Phase, TelemetrySink};
use neo_tensor::Tensor2;
use neo_workload::{ShardSample, TableMeta, WorkloadReport};

use super::config::{err, SyncConfig, SyncError, TrainOutput};
use super::shard::Worker;

impl Worker {
    /// One training iteration. `next` is the double-buffered batch whose
    /// index exchange this iteration starts ahead, when the driver
    /// prefetched one.
    fn train_step(
        &mut self,
        iter: u64,
        global: &CombinedBatch,
        next: Option<&CombinedBatch>,
    ) -> Result<f32, SyncError> {
        self.iter = iter;
        // An `Err` below drops the guard unended: recording stops and the
        // heartbeat stays mid-work, so the watchdog still blames this rank.
        let iteration = self.rec.begin_iteration(iter);
        let iter_span = self.rec.span(Phase::Iteration);
        let (logits, sub) = self.forward(global, next, true)?;
        let (loss, mut grad) =
            bce_with_logits(&logits, &sub.labels).map_err(|e| err(e.to_string()))?;
        // bce divides by the local batch; rescale to the global batch
        grad.scale(sub.batch_size() as f32 / self.cfg.global_batch as f32);
        self.backward_update(&sub, &grad)?;
        // global mean loss (sub-batches are equal-sized)
        let mut l = vec![loss];
        let sp = self.rec.span(Phase::Allreduce);
        self.comm.all_reduce_mean(&mut l)?;
        drop(sp);
        if let Some(ns) = iter_span.end() {
            // rank 0 owns the global gauges (loss is already all-reduced)
            if self.rank == 0 {
                let sink = self.rec.sink();
                sink.gauge_push(Metric::TrainLoss, iter, f64::from(l[0]));
                sink.gauge_push(Metric::TrainLr, iter, f64::from(self.cfg.lr));
                let throughput = self.cfg.global_batch as f64 * 1e9 / ns.max(1) as f64;
                sink.gauge_push(Metric::TrainThroughput, iter, throughput);
            }
        }
        iteration.end();
        Ok(l[0])
    }

    fn evaluate(&mut self, batches: &[CombinedBatch]) -> Result<NormalizedEntropy, SyncError> {
        let mut ne = NormalizedEntropy::new();
        for b in batches {
            let (logits, sub) = self.forward(b, None, false)?;
            ne.observe_logits(&logits, &sub.labels);
        }
        Ok(ne)
    }
}

/// The synchronous distributed trainer.
///
/// # Example
///
/// ```
/// use neo_trainer::{SyncConfig, SyncTrainer};
/// use neo_sharding::{Planner, PlannerConfig, CostModel, TableSpec};
/// use neo_dlrm_model::DlrmConfig;
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
///
/// let model = DlrmConfig::tiny(4, 64, 8);
/// let specs: Vec<TableSpec> = model
///     .tables
///     .iter()
///     .enumerate()
///     .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
///     .collect();
/// let plan = Planner::new(CostModel::v100_prototype(32), PlannerConfig::default())
///     .plan(&specs, 2)
///     .unwrap();
/// let trainer = SyncTrainer::new(SyncConfig::exact(2, model, plan, 32));
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 64, 3, 4)).unwrap();
/// let batches: Vec<_> = (0..3).map(|k| ds.batch(32, k)).collect();
/// let out = trainer.train(&batches, &[], 0, None).unwrap();
/// assert_eq!(out.losses.len(), 3);
/// ```
#[derive(Debug)]
pub struct SyncTrainer {
    cfg: Arc<SyncConfig>,
}

impl SyncTrainer {
    /// Creates a trainer from a config.
    ///
    /// When [`SyncConfig::monitor`] is set but the telemetry sink is
    /// disabled, the sink is armed here: the monitor samples heartbeats
    /// and metrics through the sink, so a disabled sink would leave it
    /// blind.
    pub fn new(mut cfg: SyncConfig) -> Self {
        if cfg.monitor.is_some() && !cfg.telemetry.enabled() {
            cfg.telemetry = TelemetrySink::armed();
        }
        Self { cfg: Arc::new(cfg) }
    }

    /// The configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.cfg
    }

    /// Trains over `batches` (each a *global* batch), evaluating NE on
    /// `eval` every `eval_every` iterations (`0` = only at the end, and
    /// only if `eval` is nonempty). If `probe` is given, returns the final
    /// model's logits on it.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on configuration mismatches (batch sizes,
    /// world size) or if a worker thread panics.
    pub fn train(
        &self,
        batches: &[CombinedBatch],
        eval: &[CombinedBatch],
        eval_every: usize,
        probe: Option<&CombinedBatch>,
    ) -> Result<TrainOutput, SyncError> {
        self.train_stream(
            batches.len() as u64,
            |k| batches[k as usize].clone(),
            eval,
            eval_every,
            probe,
        )
    }

    /// Streaming variant of [`SyncTrainer::train`]: batches are produced on
    /// demand by `make(k)` (deterministically — every worker calls it), so
    /// arbitrarily long runs never materialize the full batch list. This is
    /// how the examples stream from [`neo_dataio::PrefetchReader`]-style
    /// sources.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on configuration mismatches or if a worker
    /// thread panics.
    pub fn train_stream(
        &self,
        num_batches: u64,
        make: impl Fn(u64) -> CombinedBatch + Sync,
        eval: &[CombinedBatch],
        eval_every: usize,
        probe: Option<&CombinedBatch>,
    ) -> Result<TrainOutput, SyncError> {
        let cfg = &self.cfg;
        if cfg.world == 0 {
            return Err(err("world must be positive"));
        }
        if !cfg.global_batch.is_multiple_of(cfg.world) {
            return Err(err(format!(
                "global batch {} not divisible by world {}",
                cfg.global_batch, cfg.world
            )));
        }
        cfg.model.validate().map_err(|e| err(e.to_string()))?;
        if cfg.plan.world != cfg.world {
            return Err(err(format!(
                "plan is for {} workers, not {}",
                cfg.plan.world, cfg.world
            )));
        }
        let specs: Vec<TableSpec> = (cfg.model.tables.iter().enumerate())
            .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
            .collect();
        cfg.plan.validate(&specs).map_err(|e| err(e.to_string()))?;
        // shard geometry is enumerated once; every rank filters this list
        let plan_shards = &cfg.plan.shards(&specs);
        let check = |b: &CombinedBatch| -> Result<(), SyncError> {
            if b.batch_size() != cfg.global_batch {
                return Err(err("batch size mismatch"));
            }
            if b.num_tables() != cfg.model.tables.len() {
                return Err(err("batch table count mismatch"));
            }
            Ok(())
        };
        for b in eval.iter().chain(probe) {
            check(b)?;
        }

        let comms = ProcessGroup::new(cfg.world);
        let make = &make;
        let check = &check;
        // The monitor samples heartbeats concurrently with the workers;
        // it is stopped (and its final frame scraped) even when a worker
        // errors out, so a crashing run still leaves a usable event log.
        let monitor = cfg
            .monitor
            .as_ref()
            .map(|m| Monitor::start(&cfg.telemetry, m.clone()));
        let results: Result<Vec<WorkerResult>, SyncError> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let cfg = Arc::clone(cfg);
                    scope.spawn(move || -> Result<WorkerResult, SyncError> {
                        let mut w = Worker::new(cfg.clone(), comm, plan_shards);
                        let mut losses = Vec::with_capacity(num_batches as usize);
                        let mut ne_curve = Vec::new();
                        // double buffer: the overlapped schedule needs
                        // batch i+1 during iteration i, so each batch is
                        // built one iteration ahead and carried over
                        let mut carried: Option<CombinedBatch> = None;
                        for i in 0..num_batches {
                            let b = match carried.take() {
                                Some(b) => b,
                                None => {
                                    let b = make(i);
                                    check(&b)?;
                                    b
                                }
                            };
                            let next = if cfg.overlap && i + 1 < num_batches {
                                let nb = make(i + 1);
                                check(&nb)?;
                                Some(nb)
                            } else {
                                None
                            };
                            losses.push(w.train_step(i, &b, next.as_ref())?);
                            carried = next;
                            let samples = (i + 1) * cfg.global_batch as u64;
                            if eval_every > 0
                                && (i + 1) % eval_every as u64 == 0
                                && !eval.is_empty()
                            {
                                ne_curve.push((samples, w.evaluate(eval)?));
                            }
                        }
                        if !eval.is_empty()
                            && (eval_every == 0
                                || !num_batches.is_multiple_of(eval_every.max(1) as u64))
                        {
                            let samples = num_batches * cfg.global_batch as u64;
                            ne_curve.push((samples, w.evaluate(eval)?));
                        }
                        let probe_logits = match probe {
                            Some(p) => Some(w.forward(p, None, false)?.0),
                            None => None,
                        };
                        let final_model = if cfg.gather_final_model {
                            w.gather_model()?
                        } else {
                            None
                        };
                        Ok(WorkerResult {
                            rank: w.rank,
                            losses,
                            ne_curve,
                            probe_logits,
                            comm: w.comm.stats(),
                            final_model,
                            workload: w.harvest_workload(),
                        })
                    })
                })
                .collect();
            // join every worker before looking at any result: a scope
            // left holding a panicked thread would panic itself
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .map(|r| r.map_err(|_| err("worker thread panicked"))?)
                .collect::<Result<Vec<_>, _>>()
        });
        let health_events = match monitor.map(Monitor::stop) {
            Some(report) => report.events,
            None => Vec::new(),
        };
        let results = results?;

        // merge: losses identical on every rank (all-reduced); NE merged;
        // probe logits concatenated in rank order
        let mut by_rank = results;
        by_rank.sort_by_key(|r| r.rank);
        let losses = by_rank[0].losses.clone();
        let mut ne_curve: Vec<(u64, f64)> = Vec::new();
        if !by_rank[0].ne_curve.is_empty() {
            for pt in 0..by_rank[0].ne_curve.len() {
                let mut acc = NormalizedEntropy::new();
                for r in &by_rank {
                    acc.merge(&r.ne_curve[pt].1);
                }
                ne_curve.push((by_rank[0].ne_curve[pt].0, acc.value().unwrap_or(f64::NAN)));
            }
        }
        let probe_logits = if by_rank[0].probe_logits.is_some() {
            #[expect(
                clippy::expect_used,
                reason = "every worker fills probe_logits when rank 0 does"
            )]
            let parts: Vec<Tensor2> = by_rank
                .iter_mut()
                .map(|r| r.probe_logits.take().expect("probe"))
                .collect();
            let refs: Vec<&Tensor2> = parts.iter().collect();
            Some(Tensor2::vcat(&refs).map_err(|e| err(e.to_string()))?)
        } else {
            None
        };
        let comm: Vec<CommStats> = by_rank.iter().map(|r| r.comm).collect();
        let final_model = by_rank.iter_mut().find_map(|r| r.final_model.take());
        let workload = if cfg.workload {
            let tables_meta: Vec<TableMeta> = cfg
                .model
                .tables
                .iter()
                .map(|t| TableMeta {
                    rows: t.num_rows,
                    dim: t.dim,
                })
                .collect();
            let comm_bytes: u64 = comm.iter().map(|c| c.bytes_sent).sum();
            let samples: Vec<ShardSample> = by_rank
                .iter_mut()
                .flat_map(|r| std::mem::take(&mut r.workload))
                .collect();
            Some(WorkloadReport::from_samples(
                cfg.world,
                num_batches,
                cfg.global_batch,
                comm_bytes,
                &tables_meta,
                samples,
            ))
        } else {
            None
        };
        Ok(TrainOutput {
            losses,
            ne_curve,
            probe_logits,
            comm,
            final_model,
            telemetry_summary: cfg.telemetry.summary(),
            telemetry: cfg.telemetry.snapshot(),
            health_events,
            workload,
        })
    }
}

struct WorkerResult {
    rank: usize,
    losses: Vec<f32>,
    ne_curve: Vec<(u64, NormalizedEntropy)>,
    probe_logits: Option<Tensor2>,
    comm: CommStats,
    final_model: Option<neo_dlrm_model::DlrmModel>,
    workload: Vec<ShardSample>,
}

#[cfg(test)]
mod schedule_and_stream_tests {
    use super::*;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_dlrm_model::DlrmConfig;
    use neo_sharding::{Scheme, ShardingPlan, TablePlacement};

    fn plan(world: usize) -> ShardingPlan {
        ShardingPlan {
            world,
            placements: (0..3)
                .map(|t| TablePlacement {
                    table: t,
                    scheme: Scheme::TableWise { worker: t % world },
                })
                .collect(),
        }
    }

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(3, 64, 3, 4)).unwrap()
    }

    #[test]
    fn train_stream_matches_train() {
        let ds = dataset();
        let batches: Vec<_> = (0..5).map(|k| ds.batch(32, k)).collect();
        let probe = ds.batch(32, 99);
        let model = DlrmConfig::tiny(3, 64, 8);

        let a = SyncTrainer::new(SyncConfig::exact(2, model.clone(), plan(2), 32))
            .train(&batches, &[], 0, Some(&probe))
            .unwrap();
        let ds2 = dataset();
        let b = SyncTrainer::new(SyncConfig::exact(2, model, plan(2), 32))
            .train_stream(5, |k| ds2.batch(32, k), &[], 0, Some(&probe))
            .unwrap();
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.probe_logits, b.probe_logits);
    }

    #[test]
    fn overlap_moves_waits_not_traffic() {
        // The two schedules issue the same exchanges; overlap only splits
        // the MLP AllReduce in two buckets. Per step on a table-wise plan:
        // index a2a, pooled a2a, grad a2a, loss mean, plus one (serial) or
        // two (overlap) gradient AllReduces.
        let steps = 4u64;
        let run = |overlap: bool| {
            let mut cfg = SyncConfig::exact(2, DlrmConfig::tiny(3, 64, 8), plan(2), 32);
            cfg.overlap = overlap;
            let ds = dataset();
            SyncTrainer::new(cfg)
                .train_stream(steps, |k| ds.batch(32, k), &[], 0, None)
                .unwrap()
                .comm
        };
        let (serial, over) = (run(false), run(true));
        assert_eq!(serial.len(), 2);
        for (s, o) in serial.iter().zip(&over) {
            assert!(s.bytes_sent > 0);
            assert_eq!(
                s.bytes_sent, o.bytes_sent,
                "overlap must not change traffic"
            );
            assert_eq!(s.ops, 5 * steps);
            assert_eq!(o.ops, 6 * steps);
        }
    }

    #[test]
    fn stream_validates_generated_batches() {
        let ds = dataset();
        let model = DlrmConfig::tiny(3, 64, 8);
        let t = SyncTrainer::new(SyncConfig::exact(2, model, plan(2), 32));
        // wrong batch size produced mid-stream
        let r = t.train_stream(
            2,
            |k| ds.batch(if k == 1 { 16 } else { 32 }, k),
            &[],
            0,
            None,
        );
        assert!(r.is_err());
    }
}
