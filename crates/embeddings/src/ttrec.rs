//! TT-Rec: Tensor-Train compressed embedding tables (§4.1.4, [Yin et al.
//! 2021]).
//!
//! A table of `H x D` parameters is factorized into two cores by splitting
//! both the row space (`H = H1 * H2`) and the embedding dimension
//! (`D = D1 * D2`):
//!
//! ```text
//! E[i, (a, b)] = sum_r  G1[i1, a, r] * G2[i2, r, b]
//! ```
//!
//! with `i = i1 * H2 + i2`, column `j = a * D2 + b` and TT-rank `R`.
//! Storage drops from `H * D` to `H1 * D1 * R + H2 * R * D2` floats — two to
//! three orders of magnitude for production-sized tables.
//!
//! Rows are materialized on read. Writes are *rank-constrained*: the store
//! computes the requested delta and applies it as one gradient step on the
//! cores (exact chain rule, unit step), so the table keeps learning while
//! never holding the dense parameters. This approximation is inherent to
//! the factorization and is documented in DESIGN.md.

use rand::Rng;

use crate::store::{RowStore, StoreError};

/// Shape of a TT factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtShape {
    /// Row-space factor of the first core (`H = h1 * h2`).
    pub h1: usize,
    /// Row-space factor of the second core.
    pub h2: usize,
    /// Embedding-dimension factor of the first core (`D = d1 * d2`).
    pub d1: usize,
    /// Embedding-dimension factor of the second core.
    pub d2: usize,
    /// TT-rank.
    pub rank: usize,
}

impl TtShape {
    /// Number of rows of the reconstructed table.
    pub fn num_rows(&self) -> u64 {
        (self.h1 * self.h2) as u64
    }

    /// Embedding dimension of the reconstructed table.
    pub fn dim(&self) -> usize {
        self.d1 * self.d2
    }

    /// Compressed parameter count.
    pub fn compressed_params(&self) -> u64 {
        (self.h1 * self.d1 * self.rank + self.h2 * self.rank * self.d2) as u64
    }

    /// Dense parameter count of the equivalent table.
    pub fn dense_params(&self) -> u64 {
        self.num_rows() * self.dim() as u64
    }

    /// `dense / compressed` compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_params() as f64 / self.compressed_params() as f64
    }
}

/// A TT-compressed embedding table.
///
/// # Example
///
/// ```
/// use neo_embeddings::ttrec::{TtRecTable, TtShape};
/// use neo_embeddings::store::RowStore;
/// use rand::SeedableRng;
///
/// let shape = TtShape { h1: 64, h2: 64, d1: 4, d2: 8, rank: 4 };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut t = TtRecTable::random(shape, &mut rng).unwrap();
/// assert_eq!(t.num_rows(), 4096);
/// assert_eq!(t.dim(), 32);
/// assert!(shape.compression_ratio() > 30.0);
/// let mut row = vec![0.0; 32];
/// t.read_row(17, &mut row); // materialized from the cores
/// ```
#[derive(Debug, Clone)]
pub struct TtRecTable {
    shape: TtShape,
    /// `h1 x (d1 * rank)`, laid out `[a][r]` per row.
    g1: Vec<f32>,
    /// `h2 x (rank * d2)`, laid out `[r][b]` per row.
    g2: Vec<f32>,
    /// Learning rate used when `write_row` projects a delta onto the cores.
    write_lr: f32,
}

impl TtRecTable {
    /// Creates a table with cores drawn from a scaled uniform so that the
    /// reconstructed entries match the usual `U(-1/sqrt(H), 1/sqrt(H))`
    /// magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if any shape component is zero.
    pub fn random(shape: TtShape, rng: &mut impl Rng) -> Result<Self, StoreError> {
        if shape.h1 == 0 || shape.h2 == 0 || shape.d1 == 0 || shape.d2 == 0 || shape.rank == 0 {
            return Err(StoreError::new("tt shape components must be nonzero"));
        }
        // Each entry is a sum of R products of two core entries; choose the
        // core scale s so that R * s^2 ~ 1/sqrt(H) in magnitude.
        let h = shape.num_rows() as f32;
        let target = 1.0 / h.sqrt();
        let s = (target / shape.rank as f32).sqrt();
        let g1 = (0..shape.h1 * shape.d1 * shape.rank)
            .map(|_| rng.gen_range(-s..s))
            .collect();
        let g2 = (0..shape.h2 * shape.rank * shape.d2)
            .map(|_| rng.gen_range(-s..s))
            .collect();
        Ok(Self {
            shape,
            g1,
            g2,
            write_lr: 1.0,
        })
    }

    /// Sets the step size used when projecting writes onto the cores.
    #[must_use]
    pub fn with_write_lr(mut self, lr: f32) -> Self {
        self.write_lr = lr;
        self
    }

    /// The factorization shape.
    pub fn shape(&self) -> TtShape {
        self.shape
    }

    fn split_row(&self, row: u64) -> (usize, usize) {
        let r = row as usize;
        (r / self.shape.h2, r % self.shape.h2)
    }

    fn core1_row(&self, i1: usize) -> &[f32] {
        let w = self.shape.d1 * self.shape.rank;
        &self.g1[i1 * w..(i1 + 1) * w]
    }

    fn core2_row(&self, i2: usize) -> &[f32] {
        let w = self.shape.rank * self.shape.d2;
        &self.g2[i2 * w..(i2 + 1) * w]
    }

    /// Applies one SGD step on the cores for the gradient `grad` of row
    /// `row` (exact chain rule through the reconstruction).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `grad.len() != dim`.
    pub fn apply_row_grad(&mut self, row: u64, grad: &[f32], lr: f32) {
        assert!(row < self.num_rows(), "row {row} out of range");
        assert_eq!(grad.len(), self.dim(), "grad width");
        let TtShape { d1, d2, rank, .. } = self.shape;
        let (i1, i2) = self.split_row(row);
        // snapshot the cores so both gradients use pre-update values
        let c1: Vec<f32> = self.core1_row(i1).to_vec();
        let c2: Vec<f32> = self.core2_row(i2).to_vec();

        // dL/dG1[a][r] = sum_b grad[a*d2+b] * G2[r][b]
        {
            let w = d1 * rank;
            let g1row = &mut self.g1[i1 * w..(i1 + 1) * w];
            for a in 0..d1 {
                for r in 0..rank {
                    let mut acc = 0.0f32;
                    for b in 0..d2 {
                        acc += grad[a * d2 + b] * c2[r * d2 + b];
                    }
                    g1row[a * rank + r] -= lr * acc;
                }
            }
        }
        // dL/dG2[r][b] = sum_a G1[a][r] * grad[a*d2+b]
        {
            let w = rank * d2;
            let g2row = &mut self.g2[i2 * w..(i2 + 1) * w];
            for r in 0..rank {
                for b in 0..d2 {
                    let mut acc = 0.0f32;
                    for a in 0..d1 {
                        acc += c1[a * rank + r] * grad[a * d2 + b];
                    }
                    g2row[r * d2 + b] -= lr * acc;
                }
            }
        }
    }
}

impl RowStore for TtRecTable {
    fn num_rows(&self) -> u64 {
        self.shape.num_rows()
    }

    fn dim(&self) -> usize {
        self.shape.dim()
    }

    fn read_row(&mut self, row: u64, out: &mut [f32]) {
        assert!(row < self.num_rows(), "row {row} out of range");
        assert_eq!(out.len(), self.dim(), "read buffer width");
        let TtShape { d1, d2, rank, .. } = self.shape;
        let (i1, i2) = self.split_row(row);
        let c1 = self.core1_row(i1);
        let c2 = self.core2_row(i2);
        for a in 0..d1 {
            for b in 0..d2 {
                let mut acc = 0.0f32;
                for r in 0..rank {
                    acc += c1[a * rank + r] * c2[r * d2 + b];
                }
                out[a * d2 + b] = acc;
            }
        }
    }

    /// Rank-constrained write: computes `delta = current - data` and applies
    /// it as a gradient step on the cores. The resulting row approaches
    /// `data` but is generally not exactly equal — TT tables trade
    /// exactness for compression.
    fn write_row(&mut self, row: u64, data: &[f32]) {
        let mut current = vec![0.0f32; self.dim()];
        self.read_row(row, &mut current);
        let delta: Vec<f32> = current.iter().zip(data).map(|(c, d)| c - d).collect();
        self.apply_row_grad(row, &delta, self.write_lr);
    }

    fn param_bytes(&self) -> u64 {
        self.shape.compressed_params() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn shape() -> TtShape {
        TtShape {
            h1: 8,
            h2: 8,
            d1: 2,
            d2: 4,
            rank: 3,
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn shape_arithmetic() {
        let s = shape();
        assert_eq!(s.num_rows(), 64);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.compressed_params(), (8 * 2 * 3 + 8 * 3 * 4) as u64);
        assert!(s.compression_ratio() > 3.0);
    }

    #[test]
    fn rejects_zero_shape() {
        let bad = TtShape { h1: 0, ..shape() };
        assert!(TtRecTable::random(bad, &mut rng()).is_err());
    }

    #[test]
    fn read_matches_manual_contraction() {
        let mut t = TtRecTable::random(shape(), &mut rng()).unwrap();
        let mut out = vec![0.0f32; 8];
        t.read_row(19, &mut out);
        let (i1, i2) = (19 / 8, 19 % 8);
        let c1 = t.core1_row(i1).to_vec();
        let c2 = t.core2_row(i2).to_vec();
        for a in 0..2 {
            for b in 0..4 {
                let want: f32 = (0..3).map(|r| c1[a * 3 + r] * c2[r * 4 + b]).sum();
                assert!((out[a * 4 + b] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gradient_step_reduces_row_error() {
        let mut t = TtRecTable::random(shape(), &mut rng()).unwrap();
        let target = vec![0.3f32, -0.2, 0.1, 0.05, -0.4, 0.2, 0.0, 0.15];
        let err = |t: &mut TtRecTable| {
            let mut cur = vec![0.0f32; 8];
            t.read_row(5, &mut cur);
            cur.iter()
                .zip(&target)
                .map(|(c, g)| (c - g) * (c - g))
                .sum::<f32>()
        };
        let before = err(&mut t);
        for _ in 0..200 {
            let mut cur = vec![0.0f32; 8];
            t.read_row(5, &mut cur);
            let grad: Vec<f32> = cur
                .iter()
                .zip(&target)
                .map(|(c, g)| 2.0 * (c - g))
                .collect();
            t.apply_row_grad(5, &grad, 0.05);
        }
        let after = err(&mut t);
        assert!(after < before * 0.01, "{before} -> {after}");
    }

    #[test]
    fn write_row_moves_toward_data() {
        let mut t = TtRecTable::random(shape(), &mut rng())
            .unwrap()
            .with_write_lr(0.1);
        let target = vec![0.1f32; 8];
        let mut cur = vec![0.0f32; 8];
        t.read_row(0, &mut cur);
        let d0: f32 = cur.iter().zip(&target).map(|(c, g)| (c - g).abs()).sum();
        for _ in 0..500 {
            t.write_row(0, &target);
        }
        t.read_row(0, &mut cur);
        let d1: f32 = cur.iter().zip(&target).map(|(c, g)| (c - g).abs()).sum();
        assert!(d1 < d0 * 0.5, "{d0} -> {d1}");
    }

    #[test]
    fn rows_sharing_a_core_are_coupled() {
        // rows 0 and 1 share core-1 row i1=0; updating row 0 perturbs row 1
        // — the price of compression.
        let mut t = TtRecTable::random(shape(), &mut rng()).unwrap();
        let mut before = vec![0.0f32; 8];
        t.read_row(1, &mut before);
        t.apply_row_grad(0, &[1.0; 8], 0.5);
        let mut after = vec![0.0f32; 8];
        t.read_row(1, &mut after);
        assert_ne!(before, after);
    }

    #[test]
    fn param_bytes_reflect_compression() {
        let big = TtShape {
            h1: 1000,
            h2: 1000,
            d1: 8,
            d2: 16,
            rank: 8,
        };
        let t = TtRecTable::random(big, &mut rng()).unwrap();
        let dense_bytes = big.dense_params() * 4;
        assert!(
            t.param_bytes() * 100 < dense_bytes,
            "two orders of magnitude smaller"
        );
    }

    #[test]
    fn production_scale_compression_ratio() {
        // a 10M-row, 128-dim table at rank 16 compresses > 1000x
        let s = TtShape {
            h1: 3163,
            h2: 3163,
            d1: 8,
            d2: 16,
            rank: 16,
        };
        assert!(s.compression_ratio() > 1000.0, "{}", s.compression_ratio());
    }
}
