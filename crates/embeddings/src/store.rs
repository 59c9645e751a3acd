//! Row-granular embedding storage backends.

use std::fmt;

use neo_tensor::{init, Tensor2, F16};
use rand::{Rng, SeedableRng};

/// Error produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    msg: String,
}

impl StoreError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// Row `index` is past the end of a `rows`-row table.
    pub(crate) fn out_of_range(index: u64, rows: u64) -> Self {
        Self::new(format!(
            "index {index} out of range for table with {rows} rows"
        ))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "embedding store error: {}", self.msg)
    }
}

impl std::error::Error for StoreError {}

/// Fast-tier occupancy of a cache-backed store, for memory accounting
/// (workload reports, capacity planning). Flat stores return `None` from
/// [`RowStore::tier_info`]; tiered stores fill every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierInfo {
    /// Rows the fast tier can hold.
    pub capacity_rows: u64,
    /// Rows currently resident in the fast tier.
    pub resident_rows: u64,
    /// Bytes of fast-tier memory the cache occupies (capacity, not
    /// occupancy — the arrays are allocated up front).
    pub cache_bytes: u64,
    /// Cache hits since the last stats reset.
    pub hits: u64,
    /// Cache misses since the last stats reset.
    pub misses: u64,
}

impl TierInfo {
    /// Hit fraction in `[0, 1]` (0.0 before any access).
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.hits + self.misses;
        if accesses == 0 {
            0.0
        } else {
            self.hits as f64 / accesses as f64
        }
    }
}

/// Abstract row-addressable embedding storage.
///
/// `read_row`/`write_row` take `&mut self` because cache-backed stores
/// mutate internal state (recency, fills) on reads.
pub trait RowStore: Send {
    /// Number of rows (the table's hash size `H`).
    fn num_rows(&self) -> u64;

    /// Embedding dimension `D`.
    fn dim(&self) -> usize;

    /// Copies row `row` into `out` (length must equal [`RowStore::dim`]).
    ///
    /// # Panics
    ///
    /// Implementations panic if `row` is out of range or `out` has the
    /// wrong length.
    fn read_row(&mut self, row: u64, out: &mut [f32]);

    /// Overwrites row `row` with `data`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `row` is out of range or `data` has the
    /// wrong length.
    fn write_row(&mut self, row: u64, data: &[f32]);

    /// Bytes of backing storage used for the parameters themselves.
    fn param_bytes(&self) -> u64;

    /// Fast-tier occupancy, when this store fronts a slower backing tier
    /// with a cache. Flat (single-tier) stores return `None` — the
    /// default.
    fn tier_info(&self) -> Option<TierInfo> {
        None
    }

    /// Flushes any internal caches to the backing medium (no-op by
    /// default).
    fn flush(&mut self) {}

    /// Contiguous row-major `f32` view of the whole table, when the
    /// backing storage is already flat FP32 ([`DenseStore`]). Quantized,
    /// tiered, and compressed stores return `None` — the default — and
    /// readers fall back to per-row [`RowStore::read_row`]. The pooled
    /// kernels use this to stream rows straight out of store memory into
    /// their lane accumulators, skipping a virtual call and a row copy per
    /// lookup; both paths produce bitwise-identical pooled outputs.
    fn as_flat(&self) -> Option<&[f32]> {
        None
    }

    /// The mutable twin of [`RowStore::as_flat`], `None` by default. The
    /// sparse optimizers' row driver updates rows in place through it
    /// instead of copying each one out with `read_row` and back with
    /// `write_row`; both paths write bitwise-identical rows.
    fn as_flat_mut(&mut self) -> Option<&mut [f32]> {
        None
    }

    /// Materializes the full table as a dense tensor — test/debug helper,
    /// linear in the table size.
    fn to_dense(&mut self) -> Tensor2 {
        let rows = self.num_rows() as usize;
        let dim = self.dim();
        let mut out = Tensor2::zeros(rows, dim);
        let mut buf = vec![0.0f32; dim];
        for r in 0..rows {
            self.read_row(r as u64, &mut buf);
            out.row_mut(r).copy_from_slice(&buf);
        }
        out
    }
}

/// Rows per block of the filled-row constructors: 16 KiB of `f32`, so a
/// block is written while it sits in L1.
fn fill_block_rows(dim: usize) -> usize {
    (4096 / dim.max(1)).max(1)
}

/// FP32 dense storage — the plain HBM-resident table.
#[derive(Debug, Clone)]
pub struct DenseStore {
    data: Tensor2,
}

impl DenseStore {
    /// Zero-initialized table.
    pub fn zeros(num_rows: u64, dim: usize) -> Self {
        Self {
            data: Tensor2::zeros(num_rows as usize, dim),
        }
    }

    /// Table initialized with `U(-1/sqrt(H), 1/sqrt(H))` like the DLRM
    /// reference implementation.
    pub fn random(num_rows: u64, dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            data: init::embedding_uniform(num_rows as usize, dim, rng),
        }
    }

    /// Table filled in row order by `fill(first_row, rows)`, where `rows`
    /// holds whole rows from `first_row` on, a cache-sized block at a time,
    /// straight into its one buffer, so each page is touched once. `fill`
    /// must write all of `rows`.
    pub fn from_rows(num_rows: u64, dim: usize, mut fill: impl FnMut(u64, &mut [f32])) -> Self {
        Self {
            data: Tensor2::from_row_blocks(
                num_rows as usize,
                dim,
                fill_block_rows(dim),
                |r, rows| fill(r as u64, rows),
            ),
        }
    }

    /// Wraps an existing dense tensor.
    pub fn from_tensor(data: Tensor2) -> Self {
        Self { data }
    }

    /// Borrow the underlying tensor.
    pub fn as_tensor(&self) -> &Tensor2 {
        &self.data
    }
}

impl RowStore for DenseStore {
    fn num_rows(&self) -> u64 {
        self.data.rows() as u64
    }

    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn read_row(&mut self, row: u64, out: &mut [f32]) {
        out.copy_from_slice(self.data.row(row as usize));
    }

    fn write_row(&mut self, row: u64, data: &[f32]) {
        self.data.row_mut(row as usize).copy_from_slice(data);
    }

    fn param_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    fn as_flat(&self) -> Option<&[f32]> {
        Some(self.data.as_slice())
    }

    fn as_flat_mut(&mut self) -> Option<&mut [f32]> {
        Some(self.data.as_mut_slice())
    }
}

/// FP16 storage with optional stochastic rounding on writes (§4.1.4,
/// §5.3.2: "we use lower precision (FP16) embedding tables, reducing the
/// model size by up to a factor of 2").
///
/// Reads dequantize to f32; writes round to the nearest f16 or
/// stochastically using a deterministic per-store RNG stream, which keeps
/// training bit-wise reproducible.
pub struct HalfStore {
    bits: Vec<u16>,
    num_rows: u64,
    dim: usize,
    stochastic: bool,
    rng: rand::rngs::StdRng,
}

impl fmt::Debug for HalfStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HalfStore")
            .field("num_rows", &self.num_rows)
            .field("dim", &self.dim)
            .field("stochastic", &self.stochastic)
            .finish()
    }
}

impl HalfStore {
    /// Zero-initialized FP16 table with round-to-nearest writes.
    pub fn zeros(num_rows: u64, dim: usize) -> Self {
        Self::from_bits(vec![0u16; num_rows as usize * dim], num_rows, dim)
    }

    /// Randomly initialized FP16 table.
    pub fn random(num_rows: u64, dim: usize, rng: &mut impl Rng) -> Self {
        let dense = init::embedding_uniform(num_rows as usize, dim, rng);
        let mut bits = vec![0; dense.len()];
        neo_tensor::half::f16_encode(dense.as_slice(), &mut bits);
        Self::from_bits(bits, num_rows, dim)
    }

    /// Round-to-nearest FP16 table filled in row order by
    /// `fill(first_row, rows)` like [`DenseStore::from_rows`]: each block
    /// goes through one reused cache-sized `f32` buffer and is encoded
    /// straight into the table. `fill` must write all of `rows`.
    pub fn from_rows(num_rows: u64, dim: usize, mut fill: impl FnMut(u64, &mut [f32])) -> Self {
        let (rows, block_rows) = (num_rows as usize, fill_block_rows(dim));
        let mut bits = Vec::with_capacity(rows * dim);
        let mut block = vec![0.0f32; block_rows.min(rows) * dim];
        for first in (0..rows).step_by(block_rows) {
            let len = block_rows.min(rows - first) * dim;
            fill(first as u64, &mut block[..len]);
            bits.resize(first * dim + len, 0);
            neo_tensor::half::f16_encode(&block[..len], &mut bits[first * dim..]);
        }
        Self::from_bits(bits, num_rows, dim)
    }

    /// Round-to-nearest table over `num_rows × dim` encoded values.
    fn from_bits(bits: Vec<u16>, num_rows: u64, dim: usize) -> Self {
        Self {
            bits,
            num_rows,
            dim,
            stochastic: false,
            rng: rand::rngs::StdRng::seed_from_u64(0),
        }
    }

    /// Enables stochastic rounding with the given seed (builder style).
    #[must_use]
    pub fn with_stochastic_rounding(mut self, seed: u64) -> Self {
        self.stochastic = true;
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
        self
    }

    /// Whether writes round stochastically.
    pub fn is_stochastic(&self) -> bool {
        self.stochastic
    }
}

impl RowStore for HalfStore {
    fn num_rows(&self) -> u64 {
        self.num_rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn read_row(&mut self, row: u64, out: &mut [f32]) {
        assert!(row < self.num_rows, "row {row} out of range");
        assert_eq!(out.len(), self.dim, "read buffer width");
        let base = row as usize * self.dim;
        neo_tensor::half::f16_decode(&self.bits[base..base + self.dim], out);
    }

    fn write_row(&mut self, row: u64, data: &[f32]) {
        assert!(row < self.num_rows, "row {row} out of range");
        assert_eq!(data.len(), self.dim, "write buffer width");
        let base = row as usize * self.dim;
        if self.stochastic {
            for (slot, &v) in self.bits[base..base + self.dim].iter_mut().zip(data) {
                let noise: f32 = self.rng.gen();
                *slot = F16::from_f32_stochastic(v, noise).to_bits();
            }
        } else {
            neo_tensor::half::f16_encode(data, &mut self.bits[base..base + self.dim]);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.bits.len() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let mut s = DenseStore::zeros(10, 4);
        s.write_row(3, &[1.0, 2.0, 3.0, 4.0]);
        let mut buf = [0.0; 4];
        s.read_row(3, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.num_rows(), 10);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.param_bytes(), 160);
    }

    #[test]
    fn dense_random_in_embedding_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s = DenseStore::random(10_000, 8, &mut rng);
        let bound = 1.0 / (10_000f32).sqrt();
        assert!(s.as_tensor().as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn half_store_quantizes() {
        let mut s = HalfStore::zeros(4, 2);
        s.write_row(0, &[1.0, 0.333_333_34]);
        let mut buf = [0.0; 2];
        s.read_row(0, &mut buf);
        assert_eq!(buf[0], 1.0, "1.0 is exact in fp16");
        assert!(
            (buf[1] - 0.333_333_34).abs() < 1e-3,
            "quantized to ~fp16 precision"
        );
        assert_ne!(buf[1], 0.333_333_34, "fp16 cannot hold 1/3 exactly");
        assert_eq!(s.param_bytes(), 16, "half the fp32 footprint");
    }

    #[test]
    fn half_store_is_half_the_bytes() {
        let dense = DenseStore::zeros(1000, 64);
        let half = HalfStore::zeros(1000, 64);
        assert_eq!(half.param_bytes() * 2, dense.param_bytes());
    }

    #[test]
    fn stochastic_rounding_accumulates_small_updates() {
        // A tiny update far below fp16 resolution near 1.0: nearest
        // rounding loses it forever; stochastic rounding keeps the mean.
        let delta = 1e-5f32;
        let mut nearest = HalfStore::zeros(1, 1);
        nearest.write_row(0, &[1.0]);
        let mut stoch = HalfStore::zeros(1, 1).with_stochastic_rounding(42);
        stoch.write_row(0, &[1.0]);

        let mut buf = [0.0f32];
        for _ in 0..10_000 {
            nearest.read_row(0, &mut buf);
            nearest.write_row(0, &[buf[0] + delta]);
            stoch.read_row(0, &mut buf);
            stoch.write_row(0, &[buf[0] + delta]);
        }
        nearest.read_row(0, &mut buf);
        assert_eq!(buf[0], 1.0, "nearest rounding swallowed every update");
        stoch.read_row(0, &mut buf);
        let expected = 1.0 + 10_000.0 * delta;
        assert!(
            (buf[0] - expected).abs() < 0.05,
            "stochastic rounding tracked the drift: {} vs {expected}",
            buf[0]
        );
    }

    #[test]
    fn stochastic_is_deterministic_given_seed() {
        let run = || {
            let mut s = HalfStore::zeros(2, 2).with_stochastic_rounding(7);
            for i in 0..100u64 {
                s.write_row(i % 2, &[0.1 + i as f32 * 1e-4, -0.2]);
            }
            s.bits.clone()
        };
        assert_eq!(run(), run());
    }

    /// Each filled-row constructor holds exactly the bits of `zeros`
    /// followed by `write_row` of every row, FP16 rounding included, over
    /// one block, several, a partial last one and degenerate shapes.
    #[test]
    fn from_rows_equals_zeros_then_write_row() {
        // spans fp16 subnormals, ties and overflow
        let value = |r: u64, c: usize| {
            (r as f32 * 7.3 - 40.0) * (c as f32 - 2.5) * 1e-3f32.powi(r as i32 % 4)
        };
        for (rows, dim) in [
            (0u64, 3usize),
            (1, 0),
            (1, 1),
            (17, 5),
            (300, 32),
            (1000, 5),
        ] {
            let fill = |first: u64, block: &mut [f32]| {
                for (k, v) in block.iter_mut().enumerate() {
                    *v = value(first + (k / dim) as u64, k % dim);
                }
            };
            let mut dense = DenseStore::zeros(rows, dim);
            let mut half = HalfStore::zeros(rows, dim);
            for r in 0..rows {
                let row: Vec<f32> = (0..dim).map(|c| value(r, c)).collect();
                dense.write_row(r, &row);
                half.write_row(r, &row);
            }
            let filled = DenseStore::from_rows(rows, dim, fill);
            let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(filled.as_tensor()), bits(dense.as_tensor()));
            assert_eq!(filled.as_tensor().shape(), dense.as_tensor().shape());
            let filled = HalfStore::from_rows(rows, dim, fill);
            assert!(!filled.is_stochastic());
            assert_eq!((filled.num_rows, filled.dim), (rows, dim));
            assert_eq!(filled.bits, half.bits);
        }
    }

    #[test]
    fn to_dense_materializes() {
        let mut s = DenseStore::zeros(3, 2);
        s.write_row(1, &[5.0, 6.0]);
        let d = s.to_dense();
        assert_eq!(d.row(1), &[5.0, 6.0]);
        assert_eq!(d.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn half_store_bounds_checked() {
        let mut s = HalfStore::zeros(2, 2);
        let mut buf = [0.0; 2];
        s.read_row(5, &mut buf);
    }
}
