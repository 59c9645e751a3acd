//! The single-device reference DLRM.
//!
//! Distributed execution (model-parallel tables + data-parallel MLPs) lives
//! in `neo-trainer`; this reference implementation defines the math it must
//! reproduce bit-for-bit.

use neo_dataio::CombinedBatch;
use neo_embeddings::bag::{pooled_backward, pooled_forward};
use neo_embeddings::store::{DenseStore, RowStore};
use neo_embeddings::SparseGrad;
use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::optim::DenseSgd;
use neo_tensor::{ShapeError, Tensor2};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::interaction::{dot_interaction, dot_interaction_backward, num_pairs};

/// Configuration of one embedding table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbTableCfg {
    /// Hash size `H`.
    pub num_rows: u64,
    /// Embedding dimension `D` (must equal the bottom-MLP output width for
    /// the dot interaction).
    pub dim: usize,
    /// Average pooling size `L` (used for synthetic data and cost models).
    pub avg_pooling: u32,
}

/// Full model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Dense-feature dimensionality.
    pub dense_dim: usize,
    /// Bottom-MLP hidden/output widths; the last width is the embedding
    /// dimension fed into the interaction.
    pub bottom_mlp: Vec<usize>,
    /// Embedding tables.
    pub tables: Vec<EmbTableCfg>,
    /// Top-MLP widths; the last must be 1 (the CTR logit).
    pub top_mlp: Vec<usize>,
}

impl DlrmConfig {
    /// A small, fully-functional config for tests and examples:
    /// `num_tables` tables of `rows` rows, embedding dim `d`.
    pub fn tiny(num_tables: usize, rows: u64, d: usize) -> Self {
        Self {
            dense_dim: 4,
            bottom_mlp: vec![8, d],
            tables: (0..num_tables)
                .map(|_| EmbTableCfg {
                    num_rows: rows,
                    dim: d,
                    avg_pooling: 3,
                })
                .collect(),
            top_mlp: vec![16, 1],
        }
    }

    /// Embedding dimension (bottom-MLP output width); 0 for an empty
    /// bottom MLP, which [`DlrmConfig::validate`] rejects.
    pub fn emb_dim(&self) -> usize {
        self.bottom_mlp.last().copied().unwrap_or(0)
    }

    /// Width of the top-MLP input: `D + F(F-1)/2` with `F = T + 1`.
    pub fn top_input_dim(&self) -> usize {
        self.emb_dim() + num_pairs(self.tables.len() + 1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.bottom_mlp.is_empty() {
            return Err(ShapeError::new("bottom MLP needs at least one layer"));
        }
        if self.top_mlp.last() != Some(&1) {
            return Err(ShapeError::new("top MLP must end in a single logit"));
        }
        let d = self.emb_dim();
        if let Some(bad) = self.tables.iter().position(|t| t.dim != d) {
            return Err(ShapeError::new(format!(
                "table {bad} has dim {} but interaction needs {d}",
                self.tables[bad].dim
            )));
        }
        if self.tables.iter().any(|t| t.num_rows == 0) {
            return Err(ShapeError::new("table with zero rows"));
        }
        Ok(())
    }

    /// Total trainable parameters (MLPs + embeddings).
    pub fn num_params(&self) -> u64 {
        let bot = MlpConfig::new(self.dense_dim, &self.bottom_mlp, Activation::Relu);
        let top = MlpConfig::new(self.top_input_dim(), &self.top_mlp, Activation::Relu);
        let emb: u64 = self.tables.iter().map(|t| t.num_rows * t.dim as u64).sum();
        bot.num_params() + top.num_params() + emb
    }

    fn bottom_cfg(&self) -> MlpConfig {
        MlpConfig::new(self.dense_dim, &self.bottom_mlp, Activation::Relu)
    }

    fn top_cfg(&self) -> MlpConfig {
        MlpConfig::new(self.top_input_dim(), &self.top_mlp, Activation::Relu)
            .with_final_activation(Activation::Identity)
    }
}

struct ForwardCache {
    features: Vec<Tensor2>,
    lengths_indices: Vec<(Vec<u32>, Vec<u64>)>,
}

/// The reference single-device DLRM.
///
/// # Example
///
/// ```
/// use neo_dlrm_model::{DlrmConfig, DlrmModel};
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
///
/// let cfg = DlrmConfig::tiny(3, 100, 8);
/// let mut model = DlrmModel::new(&cfg, 42).unwrap();
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(3, 100, 3, 4)).unwrap();
/// let batch = ds.batch(16, 0);
/// let logits = model.forward(&batch).unwrap();
/// assert_eq!(logits.shape(), (16, 1));
/// ```
pub struct DlrmModel {
    cfg: DlrmConfig,
    /// Bottom (dense-feature) MLP.
    pub bottom: Mlp,
    /// Top (interaction) MLP.
    pub top: Mlp,
    /// Embedding tables, one [`RowStore`] per sparse feature.
    pub tables: Vec<Box<dyn RowStore>>,
    cache: Option<ForwardCache>,
}

impl std::fmt::Debug for DlrmModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlrmModel")
            .field("tables", &self.tables.len())
            .field("emb_dim", &self.cfg.emb_dim())
            .field("params", &self.cfg.num_params())
            .finish()
    }
}

impl DlrmModel {
    /// Builds the model with FP32 tables, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the config is inconsistent.
    pub fn new(cfg: &DlrmConfig, seed: u64) -> Result<Self, ShapeError> {
        cfg.validate()?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bottom = Mlp::new(&cfg.bottom_cfg(), &mut rng);
        let top = Mlp::new(&cfg.top_cfg(), &mut rng);
        let tables = cfg
            .tables
            .iter()
            .map(|t| Box::new(DenseStore::random(t.num_rows, t.dim, &mut rng)) as Box<dyn RowStore>)
            .collect();
        Ok(Self {
            cfg: cfg.clone(),
            bottom,
            top,
            tables,
            cache: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.cfg
    }

    /// Forward pass: returns the `B x 1` logits and caches activations for
    /// [`DlrmModel::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the batch does not match the config.
    pub fn forward(&mut self, batch: &CombinedBatch) -> Result<Tensor2, ShapeError> {
        if batch.num_tables() != self.tables.len() {
            return Err(ShapeError::new(format!(
                "batch has {} sparse features, model has {}",
                batch.num_tables(),
                self.tables.len()
            )));
        }
        let z0 = self.bottom.forward(&batch.dense);
        let mut features = vec![z0];
        let mut lengths_indices = Vec::with_capacity(self.tables.len());
        for (t, table) in self.tables.iter_mut().enumerate() {
            let (lens, idx) = batch.table_inputs(t);
            let pooled = pooled_forward(table.as_mut(), lens, idx)
                .map_err(|e| ShapeError::new(e.to_string()))?;
            features.push(pooled);
            lengths_indices.push((lens.to_vec(), idx.to_vec()));
        }
        let refs: Vec<&Tensor2> = features.iter().collect();
        let inter = dot_interaction(&refs)?;
        let top_in = Tensor2::hcat(&[&features[0], &inter])?;
        let logits = self.top.forward(&top_in);
        self.cache = Some(ForwardCache {
            features,
            lengths_indices,
        });
        Ok(logits)
    }

    /// Inference-only forward (no caching, no gradient).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the batch does not match the config.
    pub fn forward_inference(&mut self, batch: &CombinedBatch) -> Result<Tensor2, ShapeError> {
        // embedding reads still need &mut for cache-backed stores
        let z0 = self.bottom.forward_inference(&batch.dense);
        let mut features = vec![z0];
        for (t, table) in self.tables.iter_mut().enumerate() {
            let (lens, idx) = batch.table_inputs(t);
            let pooled = pooled_forward(table.as_mut(), lens, idx)
                .map_err(|e| ShapeError::new(e.to_string()))?;
            features.push(pooled);
        }
        let refs: Vec<&Tensor2> = features.iter().collect();
        let inter = dot_interaction(&refs)?;
        let top_in = Tensor2::hcat(&[&features[0], &inter])?;
        Ok(self.top.forward_inference(&top_in))
    }

    /// Backward pass from the logit gradient. Accumulates dense gradients
    /// inside the MLPs and returns one [`SparseGrad`] per table (unmerged —
    /// feed them to an exact sparse optimizer).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first.
    pub fn backward(&mut self, grad_logits: &Tensor2) -> Result<Vec<SparseGrad>, ShapeError> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| ShapeError::new("backward without forward"))?;
        let d = self.cfg.emb_dim();
        let g_top_in = self.top.backward(grad_logits)?;
        let splits = g_top_in.hsplit(&[d, num_pairs(self.tables.len() + 1)])?;
        let (g_z0_direct, g_inter) = (&splits[0], &splits[1]);

        let refs: Vec<&Tensor2> = cache.features.iter().collect();
        let mut g_features = dot_interaction_backward(&refs, g_inter)?;
        g_features[0] += g_z0_direct;
        self.bottom.backward_params(&g_features[0])?;

        let mut sparse = Vec::with_capacity(self.tables.len());
        for (t, (lens, idx)) in cache.lengths_indices.iter().enumerate() {
            let sg = pooled_backward(lens, idx, &g_features[t + 1])
                .map_err(|e| ShapeError::new(e.to_string()))?;
            sparse.push(sg);
        }
        Ok(sparse)
    }

    /// Applies SGD to the dense parts (MLPs) and clears their gradients.
    /// Sparse updates are the caller's (optimizer's) responsibility.
    pub fn dense_sgd_step(&mut self, lr: f32) {
        let mut sgd = DenseSgd::new(lr);
        self.bottom.apply_optimizer(&mut sgd);
        self.top.apply_optimizer(&mut sgd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_with_logits;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_embeddings::{SparseOptimizer, SparseSgd};

    fn setup() -> (DlrmModel, SyntheticDataset) {
        let cfg = DlrmConfig::tiny(3, 200, 8);
        let model = DlrmModel::new(&cfg, 7).unwrap();
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(3, 200, 3, 4)).unwrap();
        (model, ds)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let (mut m, ds) = setup();
        let b = ds.batch(32, 0);
        let l1 = m.forward(&b).unwrap();
        assert_eq!(l1.shape(), (32, 1));
        let mut m2 = DlrmModel::new(&DlrmConfig::tiny(3, 200, 8), 7).unwrap();
        assert_eq!(m2.forward(&b).unwrap(), l1, "same seed, same logits");
    }

    #[test]
    fn config_validation() {
        let mut cfg = DlrmConfig::tiny(2, 10, 4);
        cfg.tables[1].dim = 8;
        assert!(cfg.validate().is_err(), "mismatched emb dim");
        let mut cfg = DlrmConfig::tiny(2, 10, 4);
        cfg.top_mlp = vec![8, 2];
        assert!(cfg.validate().is_err(), "top must end in 1");
        let mut cfg = DlrmConfig::tiny(2, 10, 4);
        cfg.tables[0].num_rows = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn param_count_includes_everything() {
        let cfg = DlrmConfig::tiny(2, 100, 4);
        // embeddings: 2 * 100 * 4 = 800
        assert!(cfg.num_params() > 800);
        assert_eq!(cfg.top_input_dim(), 4 + 3); // F=3 -> 3 pairs
    }

    #[test]
    fn backward_requires_forward() {
        let (mut m, _) = setup();
        assert!(m.backward(&Tensor2::zeros(4, 1)).is_err());
    }

    #[test]
    fn batch_table_count_checked() {
        let (mut m, _) = setup();
        let ds2 = SyntheticDataset::new(SyntheticConfig::uniform(5, 200, 3, 4)).unwrap();
        assert!(m.forward(&ds2.batch(8, 0)).is_err());
    }

    #[test]
    fn training_reduces_loss() {
        let (mut m, ds) = setup();
        let mut opts: Vec<SparseSgd> = (0..3).map(|_| SparseSgd::new(0.05)).collect();
        let eval = |m: &mut DlrmModel| {
            let mut total = 0.0f32;
            for k in 100..104 {
                let b = ds.batch(64, k);
                let logits = m.forward_inference(&b).unwrap();
                total += bce_with_logits(&logits, &b.labels).unwrap().0;
            }
            total / 4.0
        };
        let before = eval(&mut m);
        for k in 0..60 {
            let b = ds.batch(64, k);
            let logits = m.forward(&b).unwrap();
            let (_, grad) = bce_with_logits(&logits, &b.labels).unwrap();
            let sparse = m.backward(&grad).unwrap();
            m.dense_sgd_step(0.05);
            for (opt, (table, sg)) in opts.iter_mut().zip(m.tables.iter_mut().zip(&sparse)) {
                opt.step(table.as_mut(), sg);
            }
        }
        let after = eval(&mut m);
        assert!(after < before - 0.01, "loss {before:.4} -> {after:.4}");
    }

    #[test]
    fn end_to_end_gradient_check_on_dense_input() {
        // validate the full chain (bottom MLP -> interaction -> top MLP)
        // by finite differences through the dense features
        let cfg = DlrmConfig::tiny(2, 50, 4);
        let mut m = DlrmModel::new(&cfg, 3).unwrap();
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 50, 2, 4)).unwrap();
        let b = ds.batch(4, 0);

        let logits = m.forward(&b).unwrap();
        let dy = Tensor2::full(logits.rows(), 1, 1.0);
        let sparse = m.backward(&dy).unwrap();

        // finite difference on one embedding row that was actually used
        let probe_table = 0;
        let probe_idx = sparse[probe_table].indices[0];
        let eps = 1e-3;
        let dim = 4;
        let mut row = vec![0.0f32; dim];
        m.tables[probe_table].read_row(probe_idx, &mut row);

        // analytic gradient: sum over duplicate occurrences of that row
        let mut analytic = vec![0.0f32; dim];
        for (k, &idx) in sparse[probe_table].indices.iter().enumerate() {
            if idx == probe_idx {
                for (a, &g) in analytic.iter_mut().zip(sparse[probe_table].occ_row(k)) {
                    *a += g;
                }
            }
        }

        for j in 0..dim {
            let mut rp = row.clone();
            rp[j] += eps;
            m.tables[probe_table].write_row(probe_idx, &rp);
            let fp = m.forward_inference(&b).unwrap().sum();
            let mut rm = row.clone();
            rm[j] -= eps;
            m.tables[probe_table].write_row(probe_idx, &rm);
            let fm = m.forward_inference(&b).unwrap().sum();
            m.tables[probe_table].write_row(probe_idx, &row);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - analytic[j]).abs() < 2e-2,
                "emb grad [{j}]: fd {fd} vs analytic {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn debug_is_informative() {
        let (m, _) = setup();
        let s = format!("{m:?}");
        assert!(s.contains("tables"));
    }
}
