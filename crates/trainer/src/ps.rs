//! The asynchronous parameter-server baseline (§2, Fig. 2).
//!
//! The pre-ZionEX production system trained DLRMs on CPU with a
//! disaggregated PS: dense parameters synchronized loosely (elastic
//! averaging), embedding rows updated Hogwild-style without coordination,
//! and many trainers consuming *small* batches concurrently. Its defining
//! statistical property is **staleness**: a trainer computes gradients
//! against parameters that are several updates old.
//!
//! This module reproduces that property with a deterministic round-robin
//! schedule over `num_trainers` logical trainers: each holds a dense-
//! parameter snapshot refreshed every `staleness` of its own steps, while
//! embedding updates go straight to the shared store (Hogwild's per-row
//! immediacy — rows rarely collide, so applying them in schedule order is
//! faithful). Deterministic scheduling keeps the Fig. 10 comparison
//! reproducible while preserving the async-small-batch learning dynamics.

use neo_dataio::{CombinedBatch, SyntheticDataset};
use neo_dlrm_model::{bce_with_logits, DlrmConfig, DlrmModel, NormalizedEntropy};
use neo_embeddings::{SparseOptimizer, SparseSgd};
use neo_tensor::Tensor2;

use crate::init::reference_model;
use crate::sync::SyncError;

/// How trainers synchronize dense parameters with the PS.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DenseSync {
    /// Downpour-style: trainers push gradients computed against stale
    /// snapshots straight into the PS parameters.
    #[default]
    Downpour,
    /// Elastic Averaging SGD ([Zhang et al. 2015], the method §2 names):
    /// each trainer descends its *own* replica and periodically exchanges
    /// an elastic pull of strength `alpha` with the PS center.
    Easgd {
        /// Elastic moving rate per exchange (typically 0.2–0.5).
        alpha: f32,
    },
}

/// Parameter-server baseline configuration.
#[derive(Debug, Clone)]
pub struct PsConfig {
    /// Model architecture (shared with the sync trainer for fair
    /// comparisons).
    pub model: DlrmConfig,
    /// Number of logical async trainers.
    pub num_trainers: usize,
    /// Per-trainer batch size (the paper's CPU baseline used ~150 vs 64K
    /// for sync training).
    pub batch_size: usize,
    /// How many of its own steps a trainer runs on a stale dense snapshot
    /// before refreshing from the PS.
    pub staleness: usize,
    /// Learning rate.
    pub lr: f32,
    /// Parameter-init seed (matches the sync trainer's for comparisons).
    pub seed: u64,
    /// Dense synchronization protocol.
    pub dense_sync: DenseSync,
}

/// The async PS trainer.
///
/// # Example
///
/// ```
/// use neo_trainer::{PsConfig, PsTrainer};
/// use neo_dlrm_model::DlrmConfig;
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
///
/// let cfg = PsConfig {
///     model: DlrmConfig::tiny(2, 64, 4),
///     num_trainers: 4,
///     batch_size: 16,
///     staleness: 4,
///     lr: 0.05,
///     seed: 1,
///     dense_sync: Default::default(),
/// };
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 64, 3, 4)).unwrap();
/// let mut t = PsTrainer::new(cfg).unwrap();
/// let ne = t.train(&ds, 20, &[]).unwrap();
/// assert_eq!(ne.len(), 0); // no eval batches -> no curve points
/// ```
pub struct PsTrainer {
    cfg: PsConfig,
    /// The parameter server's model: dense params + shared embeddings.
    ps: DlrmModel,
    /// Per-trainer stale dense snapshots `(bottom+top params, age)`.
    snapshots: Vec<(Vec<f32>, usize)>,
    sparse_opts: Vec<SparseSgd>,
    steps_done: u64,
}

impl std::fmt::Debug for PsTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsTrainer")
            .field("trainers", &self.cfg.num_trainers)
            .field("batch_size", &self.cfg.batch_size)
            .field("staleness", &self.cfg.staleness)
            .finish()
    }
}

impl PsTrainer {
    /// Builds the PS model (same deterministic init as the sync trainer).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if the model config is invalid or
    /// `num_trainers == 0`.
    pub fn new(cfg: PsConfig) -> Result<Self, SyncError> {
        if cfg.num_trainers == 0 {
            return Err(SyncError::msg("need at least one trainer"));
        }
        let ps =
            reference_model(&cfg.model, cfg.seed).map_err(|e| SyncError::msg(e.to_string()))?;
        let params = dense_params(&ps);
        let snapshots = (0..cfg.num_trainers)
            .map(|_| (params.clone(), 0usize))
            .collect();
        let sparse_opts = cfg
            .model
            .tables
            .iter()
            .map(|_| SparseSgd::new(cfg.lr))
            .collect();
        Ok(Self {
            cfg,
            ps,
            snapshots,
            sparse_opts,
            steps_done: 0,
        })
    }

    /// Total samples consumed so far.
    pub fn samples_seen(&self) -> u64 {
        self.steps_done * self.cfg.batch_size as u64
    }

    /// Runs `steps` trainer-steps (round-robin over the logical trainers),
    /// evaluating NE on `eval` after every `steps / 10` chunk (at least one
    /// point at the end when `eval` is nonempty). Returns the
    /// `(samples, NE)` curve.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if a batch does not match the model.
    pub fn train(
        &mut self,
        dataset: &SyntheticDataset,
        steps: u64,
        eval: &[CombinedBatch],
    ) -> Result<Vec<(u64, f64)>, SyncError> {
        let chunk = (steps / 10).max(1);
        let mut curve = Vec::new();
        for s in 0..steps {
            self.step(dataset)?;
            if !eval.is_empty() && (s + 1) % chunk == 0 {
                curve.push((self.samples_seen(), self.evaluate(eval)?));
            }
        }
        if !eval.is_empty() && !steps.is_multiple_of(chunk) {
            curve.push((self.samples_seen(), self.evaluate(eval)?));
        }
        Ok(curve)
    }

    /// One async trainer step.
    fn step(&mut self, dataset: &SyntheticDataset) -> Result<(), SyncError> {
        let trainer = (self.steps_done % self.cfg.num_trainers as u64) as usize;
        let batch = dataset.batch(self.cfg.batch_size, self.steps_done);
        self.steps_done += 1;

        // the PS's current dense params (the "center") are saved and
        // restored around the gradient computation, so the *gradient* is
        // computed against the trainer's own (stale) weights exactly as in
        // the real system
        let mut center = dense_params(&self.ps);
        set_dense(&mut self.ps, &self.snapshots[trainer].0);

        let logits = self
            .ps
            .forward(&batch)
            .map_err(|e| SyncError::msg(e.to_string()))?;
        let (_, grad) =
            bce_with_logits(&logits, &batch.labels).map_err(|e| SyncError::msg(e.to_string()))?;
        let sparse = self
            .ps
            .backward(&grad)
            .map_err(|e| SyncError::msg(e.to_string()))?;

        match self.cfg.dense_sync {
            DenseSync::Downpour => {
                // push the gradient into the PS center
                set_dense(&mut self.ps, &center);
                self.ps.dense_sgd_step(self.cfg.lr);
                self.snapshots[trainer].1 += 1;
                if self.snapshots[trainer].1 >= self.cfg.staleness.max(1) {
                    self.snapshots[trainer] = (dense_params(&self.ps), 0);
                }
            }
            DenseSync::Easgd { alpha } => {
                // local descent on the trainer's own replica
                self.ps.dense_sgd_step(self.cfg.lr);
                let mut local = dense_params(&self.ps);
                self.snapshots[trainer].1 += 1;
                if self.snapshots[trainer].1 >= self.cfg.staleness.max(1) {
                    // elastic exchange: the replica and the center pull
                    // toward each other with strength alpha
                    for (x, c) in local.iter_mut().zip(center.iter_mut()) {
                        let diff = *x - *c;
                        *x -= alpha * diff;
                        *c += alpha * diff;
                    }
                    self.snapshots[trainer].1 = 0;
                }
                self.snapshots[trainer].0 = local;
                // restore the (possibly elastically moved) center to the PS
                set_dense(&mut self.ps, &center);
            }
        }

        // sparse: Hogwild — apply immediately to the shared tables
        for ((table, sg), opt) in self
            .ps
            .tables
            .iter_mut()
            .zip(&sparse)
            .zip(&mut self.sparse_opts)
        {
            opt.step(table.as_mut(), sg);
        }
        Ok(())
    }

    /// Evaluates NE over the eval batches with the PS's current parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if a batch does not match the model.
    pub fn evaluate(&mut self, eval: &[CombinedBatch]) -> Result<f64, SyncError> {
        let mut ne = NormalizedEntropy::new();
        for b in eval {
            let logits = self
                .ps
                .forward_inference(b)
                .map_err(|e| SyncError::msg(e.to_string()))?;
            ne.observe_logits(&logits, &b.labels);
        }
        Ok(ne.value().unwrap_or(f64::NAN))
    }

    /// Logits of the current PS model on a batch (for tests).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if the batch does not match the model.
    pub fn probe(&mut self, batch: &CombinedBatch) -> Result<Tensor2, SyncError> {
        self.ps
            .forward_inference(batch)
            .map_err(|e| SyncError::msg(e.to_string()))
    }
}

/// The model's dense parameters, bottom MLP then top.
fn dense_params(model: &DlrmModel) -> Vec<f32> {
    [model.bottom.params(), model.top.params()].concat()
}

/// Overwrites the model's dense parameters from a [`dense_params`] buffer.
fn set_dense(model: &mut DlrmModel, params: &[f32]) {
    let (bottom, top) = params.split_at(model.bottom.num_params());
    model.bottom.params_mut().copy_from_slice(bottom);
    model.top.params_mut().copy_from_slice(top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_dataio::SyntheticConfig;

    fn setup(staleness: usize) -> (PsTrainer, SyntheticDataset) {
        let cfg = PsConfig {
            model: DlrmConfig::tiny(3, 100, 8),
            num_trainers: 4,
            batch_size: 16,
            staleness,
            lr: 0.05,
            seed: 11,
            dense_sync: Default::default(),
        };
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(3, 100, 3, 4)).unwrap();
        (PsTrainer::new(cfg).unwrap(), ds)
    }

    #[test]
    fn async_training_learns() {
        let (mut t, ds) = setup(4);
        let eval: Vec<_> = (1000..1004).map(|k| ds.batch(16, k)).collect();
        let before = t.evaluate(&eval).unwrap();
        t.train(&ds, 400, &[]).unwrap();
        let after = t.evaluate(&eval).unwrap();
        assert!(after < before - 0.005, "NE {before:.4} -> {after:.4}");
    }

    #[test]
    fn curve_is_recorded() {
        let (mut t, ds) = setup(2);
        let eval: Vec<_> = (1000..1002).map(|k| ds.batch(16, k)).collect();
        let curve = t.train(&ds, 50, &eval).unwrap();
        assert!(curve.len() >= 10);
        assert!(
            curve.windows(2).all(|w| w[0].0 < w[1].0),
            "samples increase"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let (mut t, ds) = setup(3);
            t.train(&ds, 60, &[]).unwrap();
            let probe = ds.batch(16, 9999);
            t.probe(&probe).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn staleness_hurts_or_matches_fresh() {
        // fresher snapshots should not be (much) worse — sanity check on
        // the staleness machinery rather than a strong statistical claim
        let eval: Vec<_> = {
            let (_, ds) = setup(1);
            (2000..2008).map(|k| ds.batch(16, k)).collect()
        };
        let ne_at = |staleness: usize| {
            let (mut t, ds) = setup(staleness);
            t.train(&ds, 600, &[]).unwrap();
            t.evaluate(&eval).unwrap()
        };
        let fresh = ne_at(1);
        let stale = ne_at(64);
        assert!(
            fresh < stale + 0.05,
            "fresh {fresh:.4} vs very stale {stale:.4}"
        );
    }

    #[test]
    fn zero_trainers_rejected() {
        let cfg = PsConfig {
            model: DlrmConfig::tiny(1, 10, 4),
            num_trainers: 0,
            batch_size: 4,
            staleness: 1,
            lr: 0.1,
            seed: 0,
            dense_sync: Default::default(),
        };
        assert!(PsTrainer::new(cfg).is_err());
    }
}

#[cfg(test)]
mod easgd_tests {
    use super::*;
    use neo_dataio::SyntheticConfig;

    fn setup(sync: DenseSync) -> (PsTrainer, SyntheticDataset) {
        let cfg = PsConfig {
            model: DlrmConfig::tiny(3, 100, 8),
            num_trainers: 4,
            batch_size: 16,
            staleness: 4,
            lr: 0.05,
            seed: 11,
            dense_sync: sync,
        };
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(3, 100, 3, 4)).unwrap();
        (PsTrainer::new(cfg).unwrap(), ds)
    }

    #[test]
    fn easgd_learns() {
        let (mut t, ds) = setup(DenseSync::Easgd { alpha: 0.3 });
        let eval: Vec<_> = (1000..1004).map(|k| ds.batch(16, k)).collect();
        let before = t.evaluate(&eval).unwrap();
        t.train(&ds, 600, &[]).unwrap();
        let after = t.evaluate(&eval).unwrap();
        assert!(after < before - 0.005, "EASGD NE {before:.4} -> {after:.4}");
    }

    #[test]
    fn easgd_center_tracks_replicas() {
        // after training, the center must sit close to every replica
        // (the elastic force keeps them from diverging)
        let (mut t, ds) = setup(DenseSync::Easgd { alpha: 0.4 });
        t.train(&ds, 200, &[]).unwrap();
        let center = dense_params(&t.ps);
        for (replica, _) in &t.snapshots {
            let max_diff = replica
                .iter()
                .zip(&center)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 0.5, "replica within elastic reach: {max_diff}");
        }
    }

    #[test]
    fn easgd_deterministic() {
        let run = || {
            let (mut t, ds) = setup(DenseSync::Easgd { alpha: 0.3 });
            t.train(&ds, 80, &[]).unwrap();
            t.probe(&ds.batch(16, 4242)).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn modes_actually_differ() {
        let probe = {
            let (_, ds) = setup(DenseSync::Downpour);
            ds.batch(16, 31)
        };
        let run = |sync| {
            let (mut t, ds) = setup(sync);
            t.train(&ds, 60, &[]).unwrap();
            t.probe(&probe).unwrap()
        };
        assert_ne!(
            run(DenseSync::Downpour),
            run(DenseSync::Easgd { alpha: 0.3 })
        );
    }
}
