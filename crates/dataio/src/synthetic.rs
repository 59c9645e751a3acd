//! Seeded synthetic CTR stream with a ground-truth teacher.
//!
//! Substitutes the production click logs: categorical indices follow a
//! Zipf distribution (real embedding access is heavily skewed, which is
//! what makes the software cache of §4.1.3 effective), dense features are
//! Gaussian, and labels are Bernoulli draws from a hidden logistic teacher
//! over both feature kinds — so models can actually *learn* and the
//! normalized-entropy comparisons of Fig. 10 are meaningful.
//!
//! Batch `k` is a pure function of `(config, k)`: any worker layout sees
//! the identical global batch, which underpins the bit-wise determinism
//! tests.

use neo_tensor::Tensor2;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use serde::{Deserialize, Serialize};

use crate::batch::{BatchError, CombinedBatch};

/// Configuration of a synthetic CTR dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of rows (hash size) of each embedding table; the length of
    /// this vector is the table count `T`.
    pub rows_per_table: Vec<u64>,
    /// Average pooling size `L` per table (actual bag sizes vary around
    /// this, including occasional empty bags).
    pub avg_pooling: Vec<u32>,
    /// Dense (continuous) feature dimensionality.
    pub dense_dim: usize,
    /// Zipf skew exponent for index sampling (must be > 0; production
    /// traces are around 1.05–1.2).
    pub zipf_exponent: f64,
    /// Master seed; combined with the batch index for generation.
    pub seed: u64,
    /// Strength of the sparse-feature signal in the teacher logit.
    pub sparse_signal: f32,
}

impl SyntheticConfig {
    /// A homogeneous configuration: `num_tables` tables of `rows` rows,
    /// pooling `l`, `dense_dim` dense features.
    pub fn uniform(num_tables: usize, rows: u64, l: u32, dense_dim: usize) -> Self {
        Self {
            rows_per_table: vec![rows; num_tables],
            avg_pooling: vec![l; num_tables],
            dense_dim,
            zipf_exponent: 1.05,
            seed: 0x5EED,
            sparse_signal: 2.0,
        }
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.rows_per_table.len()
    }
}

/// A deterministic synthetic dataset.
///
/// # Example
///
/// ```
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(4, 1000, 5, 8)).unwrap();
/// let b = ds.batch(64, 0);
/// assert_eq!(b.batch_size(), 64);
/// assert_eq!(b.num_tables(), 4);
/// assert_eq!(b, ds.batch(64, 0), "batches are reproducible");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: SyntheticConfig,
    zipfs: Vec<Zipf<f64>>,
}

impl SyntheticDataset {
    /// Validates the config and prepares the samplers.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] if the config is internally inconsistent or a
    /// table is empty.
    pub fn new(config: SyntheticConfig) -> Result<Self, BatchError> {
        if config.rows_per_table.len() != config.avg_pooling.len() {
            return Err(BatchError::new(
                "rows_per_table and avg_pooling lengths differ",
            ));
        }
        if config.rows_per_table.is_empty() {
            return Err(BatchError::new("need at least one table"));
        }
        let zipfs = config
            .rows_per_table
            .iter()
            .map(|&rows| {
                if rows == 0 {
                    return Err(BatchError::new("table with zero rows"));
                }
                Zipf::new(rows, config.zipf_exponent)
                    .map_err(|e| BatchError::new(format!("zipf: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { config, zipfs })
    }

    /// The configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Generates global batch number `batch_index` with `batch_size`
    /// samples. Deterministic in `(config.seed, batch_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` (an empty batch is never meaningful).
    pub fn batch(&self, batch_size: usize, batch_index: u64) -> CombinedBatch {
        assert!(batch_size > 0, "batch size must be positive");
        let mut rng = rand::rngs::StdRng::seed_from_u64(splitmix(
            self.config.seed ^ batch_index.wrapping_mul(0x9E37_79B9),
        ));
        let t = self.config.num_tables();
        let b = batch_size;

        // dense features ~ N(0,1) via Box–Muller on the seeded stream
        let dense = Tensor2::from_fn(b, self.config.dense_dim, |_, _| {
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
        });

        // sparse features: (T, B) lengths + concatenated indices
        let mut lengths = vec![0u32; t * b];
        let mut indices = Vec::new();
        for table in 0..t {
            let avg = self.config.avg_pooling[table];
            for bag in 0..b {
                let l = if avg == 0 || rng.gen_bool(0.05) {
                    0
                } else {
                    rng.gen_range(1..=2 * avg - 1)
                };
                lengths[table * b + bag] = l;
                for _ in 0..l {
                    let sample = self.zipfs[table].sample(&mut rng);
                    indices.push(sample as u64 - 1);
                }
            }
        }

        // teacher labels
        let mut labels = Vec::with_capacity(b);
        // reconstruct per-bag offsets to walk indices table-major
        let mut offsets = vec![0usize; t * b + 1];
        for k in 0..t * b {
            offsets[k + 1] = offsets[k] + lengths[k] as usize;
        }
        for bag in 0..b {
            let mut logit = 0.0f32;
            for (j, &x) in dense.row(bag).iter().enumerate() {
                logit += teacher_weight(self.config.seed, j as u64) * x;
            }
            logit /= (self.config.dense_dim.max(1) as f32).sqrt();
            for table in 0..t {
                let k = table * b + bag;
                let l = lengths[k] as usize;
                if l == 0 {
                    continue;
                }
                let sum: f32 = indices[offsets[k]..offsets[k] + l]
                    .iter()
                    .map(|&idx| row_effect(self.config.seed, table as u64, idx))
                    .sum();
                logit += self.config.sparse_signal * sum / l as f32;
            }
            let p = 1.0 / (1.0 + (-logit).exp());
            labels.push(if rng.gen::<f32>() < p { 1.0 } else { 0.0 });
        }

        #[expect(
            clippy::expect_used,
            reason = "generator builds mutually consistent arrays"
        )]
        CombinedBatch::new(b, t, lengths, indices, dense, labels)
            .expect("generator produces consistent batches") // lint: allow(panic_path) — generator-internal consistency; the Err surface covers caller-supplied shapes, not generated ones
    }
}

/// Deterministic latent effect of `(table, row)` in roughly `[-1, 1]`.
fn row_effect(seed: u64, table: u64, row: u64) -> f32 {
    let h = splitmix(seed ^ table.wrapping_mul(0xA24B_AED4).wrapping_add(row));
    (h as f32 / u64::MAX as f32) * 2.0 - 1.0
}

/// Deterministic teacher weight for dense feature `j`.
fn teacher_weight(seed: u64, j: u64) -> f32 {
    let h = splitmix(seed.wrapping_add(0xDEAD_BEEF) ^ j.wrapping_mul(0x2545_F491));
    (h as f32 / u64::MAX as f32) * 2.0 - 1.0
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(3, 500, 4, 6)).unwrap()
    }

    #[test]
    fn batches_are_deterministic() {
        let d = ds();
        assert_eq!(d.batch(32, 7), d.batch(32, 7));
        assert_ne!(d.batch(32, 7).indices(), d.batch(32, 8).indices());
    }

    #[test]
    fn indices_in_range() {
        let d = ds();
        let b = d.batch(128, 0);
        assert!(b.indices().iter().all(|&i| i < 500));
    }

    #[test]
    fn zipf_skews_toward_small_indices() {
        let d = ds();
        let b = d.batch(512, 1);
        let small = b.indices().iter().filter(|&&i| i < 50).count();
        assert!(
            small * 2 > b.indices().len(),
            "zipf: >half of accesses in the hottest 10% of rows ({small}/{})",
            b.indices().len()
        );
    }

    #[test]
    fn labels_are_binary_and_mixed() {
        let d = ds();
        let b = d.batch(512, 2);
        assert!(b.labels.iter().all(|&l| l == 0.0 || l == 1.0));
        let pos: usize = b.labels.iter().filter(|&&l| l == 1.0).count();
        assert!(pos > 50 && pos < 462, "both classes present: {pos}/512");
    }

    #[test]
    fn pooling_averages_near_config() {
        let d = ds();
        let b = d.batch(1024, 3);
        let mean = b.lengths().iter().map(|&l| l as f64).sum::<f64>() / b.lengths().len() as f64;
        assert!((mean - 4.0).abs() < 1.0, "mean pooling {mean} ~ 4");
    }

    #[test]
    fn teacher_signal_is_learnable() {
        // the empirical CTR of bags containing high-effect rows must exceed
        // the CTR of bags with low-effect rows — i.e. labels depend on inputs
        let d = ds();
        let mut hi = (0usize, 0usize);
        let mut lo = (0usize, 0usize);
        for k in 0..20 {
            let b = d.batch(256, k);
            let (lens, idx) = b.table_inputs(0);
            let mut cursor = 0;
            for (bag, &l) in lens.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                let eff: f32 = idx[cursor..cursor + l as usize]
                    .iter()
                    .map(|&i| row_effect(d.config().seed, 0, i))
                    .sum::<f32>()
                    / l as f32;
                cursor += l as usize;
                let slot = if eff > 0.3 {
                    &mut hi
                } else if eff < -0.3 {
                    &mut lo
                } else {
                    continue;
                };
                slot.0 += 1;
                slot.1 += (b.labels[bag] == 1.0) as usize;
            }
        }
        let hi_rate = hi.1 as f64 / hi.0.max(1) as f64;
        let lo_rate = lo.1 as f64 / lo.0.max(1) as f64;
        assert!(
            hi_rate > lo_rate + 0.1,
            "hi {hi_rate:.3} vs lo {lo_rate:.3}"
        );
    }

    #[test]
    fn config_validation() {
        let mut cfg = SyntheticConfig::uniform(2, 100, 3, 4);
        cfg.avg_pooling.pop();
        assert!(SyntheticDataset::new(cfg).is_err());
        let cfg = SyntheticConfig {
            rows_per_table: vec![],
            ..SyntheticConfig::uniform(1, 1, 1, 1)
        };
        assert!(SyntheticDataset::new(cfg).is_err());
        let cfg = SyntheticConfig {
            rows_per_table: vec![0],
            ..SyntheticConfig::uniform(1, 1, 1, 1)
        };
        assert!(SyntheticDataset::new(cfg).is_err());
    }

    #[test]
    fn heterogeneous_tables() {
        let cfg = SyntheticConfig {
            rows_per_table: vec![10, 10_000, 100],
            avg_pooling: vec![1, 20, 5],
            dense_dim: 4,
            zipf_exponent: 1.1,
            seed: 9,
            sparse_signal: 1.0,
        };
        let d = SyntheticDataset::new(cfg).unwrap();
        let b = d.batch(64, 0);
        let (l0, i0) = b.table_inputs(0);
        let (l1, i1) = b.table_inputs(1);
        assert!(i0.iter().all(|&i| i < 10));
        assert!(i1.iter().all(|&i| i < 10_000));
        let m0: f64 = l0.iter().map(|&l| l as f64).sum::<f64>() / 64.0;
        let m1: f64 = l1.iter().map(|&l| l as f64).sum::<f64>() / 64.0;
        assert!(m1 > m0 * 3.0, "pooling follows per-table config");
    }
}
