//! Pooled embedding lookup — the `nn.EmbeddingBag` equivalent — and the
//! fused backward of §4.1.1.
//!
//! Inputs use the paper's *combined format* (§4.4): per-bag `lengths`
//! (pooling sizes, which can differ per bag and per table) plus a flat
//! `indices` array, instead of per-table offset/index tensor pairs.
//!
//! The kernels here are written for the autovectorizer. The fast path
//! streams rows straight out of flat FP32 stores
//! ([`crate::store::RowStore::as_flat`]) instead of bouncing every row
//! through a per-lookup scratch copy, and sums each bag one column block
//! at a time in a local accumulator the compiler keeps in registers
//! (`fold_rows`), storing the block once. Both paths pool bag members in
//! the same order, so their outputs are bitwise identical.

use neo_tensor::Tensor2;

use crate::optim::SweepScratch;
use crate::store::{RowStore, StoreError};

/// Column-block widths of [`fold_rows`], widest first. A block's partial
/// sums are a local `[f32; C]` that stays in registers while the rows
/// stream past (at 32: two `zmm` registers on AVX-512, four `ymm` on
/// AVX2, eight `xmm` on baseline x86-64); the under-8 columns past the
/// last block are a scalar tail.
const WIDE: usize = 32;
const MID: usize = 16;
const NARROW: usize = 8;

/// `out[j] = seed[j] + rows[0][j] + rows[1][j] + …` for every column `j`,
/// added left to right (`+0.0` in place of an absent seed), one column
/// block at a time: each block is summed in registers over every row and
/// stored once. The order per column is the plain scalar fold's, so the
/// bits are too. Every row and the seed are at least `out.len()` wide;
/// `rows()` is walked once per block.
pub(crate) fn fold_rows<'r, I: Iterator<Item = &'r [f32]>>(
    out: &mut [f32],
    seed: Option<&[f32]>,
    rows: impl Fn() -> I,
) {
    let mut col = 0;
    while out.len() - col >= WIDE {
        fold_block::<WIDE>(out, seed, col, rows());
        col += WIDE;
    }
    if out.len() - col >= MID {
        fold_block::<MID>(out, seed, col, rows());
        col += MID;
    }
    if out.len() - col >= NARROW {
        fold_block::<NARROW>(out, seed, col, rows());
        col += NARROW;
    }
    if col == out.len() {
        return;
    }
    let tail = &mut out[col..];
    match seed {
        Some(seed) => tail.copy_from_slice(&seed[col..][..tail.len()]),
        None => tail.fill(0.0),
    }
    for row in rows() {
        for (o, &v) in tail.iter_mut().zip(&row[col..]) {
            *o += v;
        }
    }
}

/// [`fold_rows`] over columns `col..col + C`. Every length is `C`, so the
/// compiler unrolls the adds and keeps the block in registers.
#[inline(always)]
fn fold_block<'r, const C: usize>(
    out: &mut [f32],
    seed: Option<&[f32]>,
    col: usize,
    rows: impl Iterator<Item = &'r [f32]>,
) {
    let mut acc = [0.0f32; C];
    if let Some(seed) = seed {
        acc.copy_from_slice(&seed[col..][..C]);
    }
    for row in rows {
        for (a, &v) in acc.iter_mut().zip(&row[col..][..C]) {
            *a += v;
        }
    }
    out[col..][..C].copy_from_slice(&acc);
}

/// The sparse gradient produced by [`pooled_backward`]: one gradient row
/// per *index occurrence* (duplicates not yet merged — merging is the
/// exact optimizer's job, see [`crate::optim`]).
///
/// Occurrences may *share* storage: when `src` is non-empty, occurrence
/// `k`'s gradient lives at `grads.row(src[k])`, so the backward of a
/// sum-pooled bag stores each bag's `grad_out` row once instead of
/// materializing an `nnz x dim` expansion (every member of a bag gets the
/// same row). Use [`SparseGrad::occ_row`] to read an occurrence; an empty
/// `src` means the identity map (`occurrence k` ↔ `grads.row(k)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGrad {
    /// Row ids, one per lookup that occurred (may repeat).
    pub indices: Vec<u64>,
    /// Gradient row storage. With an empty `src` this is
    /// `indices.len() x dim` (one row per occurrence); otherwise it holds
    /// the distinct rows that `src` points into.
    pub grads: Tensor2,
    /// Occurrence → storage-row map; empty means identity.
    pub src: Vec<u32>,
}

impl SparseGrad {
    /// An empty gradient for a table of width `dim`.
    pub fn empty(dim: usize) -> Self {
        Self {
            indices: Vec::new(),
            grads: Tensor2::zeros(0, dim),
            src: Vec::new(),
        }
    }

    /// A gradient whose occurrences map 1:1 onto `grads` rows (the
    /// pre-sharing representation: `grads` is `indices.len() x dim`).
    pub fn dense(indices: Vec<u64>, grads: Tensor2) -> Self {
        Self {
            indices,
            grads,
            src: Vec::new(),
        }
    }

    /// The gradient row of occurrence `k`.
    #[must_use]
    pub fn occ_row(&self, k: usize) -> &[f32] {
        match self.src.get(k) {
            Some(&r) => self.grads.row(r as usize),
            None => self.grads.row(k),
        }
    }

    /// Number of (row, grad) pairs.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether there are no updates.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// The combined format's one invariant: `lengths` sum to the index count.
pub(crate) fn check_lengths(lengths: &[u32], nnz: usize) -> Result<(), StoreError> {
    let expected: usize = lengths.iter().map(|&l| l as usize).sum();
    if expected != nnz {
        return Err(StoreError::new(format!(
            "lengths sum to {expected} but {nnz} indices were provided"
        )));
    }
    Ok(())
}

/// The gradient of a batch's pooled output has one row per bag: `rows` of
/// the `bags` bags have theirs.
pub(crate) fn check_bag_rows(rows: usize, bags: usize) -> Result<(), StoreError> {
    if rows != bags {
        return Err(StoreError::new(format!(
            "gradient rows for {rows} of {bags} bags"
        )));
    }
    Ok(())
}

/// Sum-pools one table's bags into `out`, reading rows either straight
/// from a flat store view (fast path: no virtual call, no row copy, each
/// bag folded by [`fold_rows`] from `+0.0`) or through `read_row` into a
/// scratch buffer added to the zeroed output row. Accumulation order over
/// bag members is identical on both paths.
fn pool_into(store: &mut dyn RowStore, lengths: &[u32], indices: &[u64], out: &mut Tensor2) {
    let dim = store.dim();
    if let Some(flat) = store.as_flat() {
        let mut cursor = 0usize;
        for (b, &len) in lengths.iter().enumerate() {
            let bag = &indices[cursor..cursor + len as usize];
            let rows = || bag.iter().map(|&idx| &flat[idx as usize * dim..][..dim]);
            fold_rows(out.row_mut(b), None, rows);
            cursor += len as usize;
        }
        return;
    }
    let mut buf = vec![0.0f32; dim];
    let mut cursor = 0usize;
    for (b, &len) in lengths.iter().enumerate() {
        let row_out = out.row_mut(b);
        for &idx in &indices[cursor..cursor + len as usize] {
            store.read_row(idx, &mut buf);
            for (o, &v) in row_out.iter_mut().zip(&buf) {
                *o += v;
            }
        }
        cursor += len as usize;
    }
}

/// Sum-pooled forward lookup for one table.
///
/// `lengths[b]` is the pooling size `L_b` of bag `b`; `indices` holds the
/// concatenated row ids. Returns a `B x D` tensor where row `b` is the sum
/// of the embedding rows in bag `b` (an empty bag yields zeros).
///
/// # Errors
///
/// Returns [`StoreError`] if lengths and indices disagree or an index is
/// out of range.
pub fn pooled_forward(
    store: &mut dyn RowStore,
    lengths: &[u32],
    indices: &[u64],
) -> Result<Tensor2, StoreError> {
    check_lengths(lengths, indices.len())?;
    if let Some(&bad) = indices.iter().find(|&&i| i >= store.num_rows()) {
        return Err(StoreError::out_of_range(bad, store.num_rows()));
    }
    let mut out = Tensor2::zeros(lengths.len(), store.dim());
    pool_into(store, lengths, indices, &mut out);
    neo_tensor::sanitize::check_finite("pooled embedding output", out.as_slice());
    Ok(out)
}

/// Backward pass of the sum-pooled lookup: every index in bag `b` receives
/// gradient `grad_out[b]`.
///
/// Duplicate bag members share one storage row: the result keeps a single
/// copy of `grad_out` plus an occurrence → bag map
/// ([`SparseGrad::src`]), instead of materializing `indices.len() x dim`
/// row copies. Read occurrences through [`SparseGrad::occ_row`].
///
/// # Errors
///
/// Returns [`StoreError`] if `grad_out` has the wrong number of rows or the
/// lengths/indices disagree.
pub fn pooled_backward(
    lengths: &[u32],
    indices: &[u64],
    grad_out: &Tensor2,
) -> Result<SparseGrad, StoreError> {
    check_lengths(lengths, indices.len())?;
    check_bag_rows(grad_out.rows(), lengths.len())?;
    let mut src = Vec::with_capacity(indices.len());
    for (bag, &len) in lengths.iter().enumerate() {
        src.extend(std::iter::repeat_n(bag as u32, len as usize));
    }
    Ok(SparseGrad {
        src,
        indices: indices.to_vec(),
        grads: grad_out.clone(),
    })
}

/// Merges bag gradients *directly* into per-unique-row accumulations —
/// the fused backward of §4.1.1, which "saves the additional memory for
/// the gradients (by a factor of pooling size L)": the `nnz x D` expanded
/// gradient of [`pooled_backward`] is never materialized; each unique row
/// gets one accumulator row fed straight from `grad_out`.
///
/// It is the sort and sweep of [`crate::optim::merge_grads`] over
/// `(row id, bag)` pairs, reading each bag's row from `grad_out`, so the
/// result equals `merge_grads(&pooled_backward(...))` bit-for-bit (same
/// sorted order, same accumulation order) and can be passed to
/// [`crate::optim::SparseOptimizer::apply_merged`] unchanged. The trainer
/// skips the merged gradient altogether, on every shard, with
/// [`crate::optim::fused_update`], the same sweep feeding the optimizer;
/// this collecting form serves the benchmark ladder and the tests.
///
/// # Errors
///
/// Returns [`StoreError`] on shape inconsistencies.
pub fn fused_backward_grads(
    lengths: &[u32],
    indices: &[u64],
    grad_out: &Tensor2,
) -> Result<SparseGrad, StoreError> {
    check_lengths(lengths, indices.len())?;
    check_bag_rows(grad_out.rows(), lengths.len())?;
    let mut scratch = SweepScratch::default();
    scratch.load_bags(lengths, indices);
    Ok(scratch.merge_runs(grad_out.cols(), |b| grad_out.row(b as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DenseStore;

    fn table() -> DenseStore {
        // row r = [r, r*10]
        let t = Tensor2::from_fn(8, 2, |i, j| if j == 0 { i as f32 } else { i as f32 * 10.0 });
        DenseStore::from_tensor(t)
    }

    /// A `DenseStore` that hides its flat view, forcing the generic
    /// `read_row` path — used to pin fast path ≡ slow path bitwise.
    pub(super) struct OpaqueStore(pub(super) DenseStore);

    impl RowStore for OpaqueStore {
        fn num_rows(&self) -> u64 {
            self.0.num_rows()
        }
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn read_row(&mut self, row: u64, out: &mut [f32]) {
            self.0.read_row(row, out);
        }
        fn write_row(&mut self, row: u64, data: &[f32]) {
            self.0.write_row(row, data);
        }
        fn param_bytes(&self) -> u64 {
            self.0.param_bytes()
        }
        // as_flat deliberately left at the `None` default
    }

    #[test]
    fn forward_pools_by_sum() {
        let mut t = table();
        let out = pooled_forward(&mut t, &[2, 1, 0], &[1, 2, 5]).unwrap();
        assert_eq!(out.row(0), &[3.0, 30.0]); // rows 1+2
        assert_eq!(out.row(1), &[5.0, 50.0]);
        assert_eq!(out.row(2), &[0.0, 0.0], "empty bag pools to zero");
    }

    #[test]
    fn forward_handles_duplicates_in_bag() {
        let mut t = table();
        let out = pooled_forward(&mut t, &[3], &[4, 4, 4]).unwrap();
        assert_eq!(out.row(0), &[12.0, 120.0]);
    }

    #[test]
    fn forward_rejects_bad_inputs() {
        let mut t = table();
        assert!(
            pooled_forward(&mut t, &[2], &[1]).is_err(),
            "length mismatch"
        );
        assert!(pooled_forward(&mut t, &[1], &[99]).is_err(), "oob index");
    }

    #[test]
    fn flat_fast_path_bitwise_matches_read_row_path() {
        // wide store so the lane loop and its tail both execute
        let dense = DenseStore::from_tensor(Tensor2::from_fn(32, 19, |i, j| {
            ((i * 19 + j) % 23) as f32 * 0.37 - 4.0
        }));
        let mut flat = dense.clone();
        let mut opaque = OpaqueStore(dense);
        assert!(flat.as_flat().is_some());
        assert!(RowStore::as_flat(&opaque.0).is_some());

        let lengths = [3u32, 0, 4, 1];
        let indices = [5u64, 5, 31, 0, 1, 2, 30, 17];
        let a = pooled_forward(&mut flat, &lengths, &indices).unwrap();
        let b = pooled_forward(&mut opaque, &lengths, &indices).unwrap();
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "flat and read_row paths diverge"
        );
    }

    #[test]
    fn backward_replicates_bag_gradient() {
        let g = Tensor2::from_fn(2, 2, |i, j| (i * 2 + j) as f32 + 1.0);
        let sg = pooled_backward(&[2, 1], &[3, 5, 7], &g).unwrap();
        assert_eq!(sg.indices, vec![3, 5, 7]);
        assert_eq!(sg.occ_row(0), g.row(0));
        assert_eq!(sg.occ_row(1), g.row(0));
        assert_eq!(sg.occ_row(2), g.row(1));
        assert_eq!(sg.len(), 3);
        assert!(!sg.is_empty());
    }

    #[test]
    fn backward_shares_rows_instead_of_expanding() {
        // 32 occurrences of one bag's gradient: storage stays at the bag
        // count (2 rows), not the occurrence count
        let g = Tensor2::from_fn(2, 4, |i, j| (i * 4 + j) as f32);
        let indices: Vec<u64> = (0..32).map(|k| k % 7).collect();
        let sg = pooled_backward(&[30, 2], &indices, &g).unwrap();
        assert_eq!(sg.grads.rows(), 2, "shared rows, no nnz x dim expansion");
        assert_eq!(sg.src.len(), 32);
        assert_eq!(sg.occ_row(31), g.row(1));
        assert_eq!(sg.occ_row(0), g.row(0));
    }

    #[test]
    fn backward_shape_checks() {
        let g = Tensor2::zeros(1, 2);
        assert!(pooled_backward(&[2], &[1], &g).is_err(), "length mismatch");
        assert!(
            pooled_backward(&[1, 1], &[1, 2], &g).is_err(),
            "bag count mismatch"
        );
    }

    /// Gradient check: d(pooled)/d(row) accumulated over duplicates.
    #[test]
    fn forward_backward_consistent() {
        let mut t = table();
        let lengths = [2u32, 2];
        let indices = [1u64, 2, 2, 3];
        let _ = pooled_forward(&mut t, &lengths, &indices).unwrap();
        let grad_out = Tensor2::from_fn(2, 2, |i, _| (i + 1) as f32);
        let sg = pooled_backward(&lengths, &indices, &grad_out).unwrap();
        // row 2 appears in both bags: total gradient 1 + 2 = 3 per column
        let total: f32 = sg
            .indices
            .iter()
            .zip(0..)
            .filter(|(idx, _)| **idx == 2)
            .map(|(_, k)| sg.occ_row(k)[0])
            .sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn empty_grad_constructor() {
        let g = SparseGrad::empty(16);
        assert!(g.is_empty());
        assert_eq!(g.grads.cols(), 16);
    }

    #[test]
    fn fused_backward_equals_expand_then_merge() {
        use crate::optim::{merge_grads, merge_oracle};
        // duplicates within and across bags
        let lengths = [3u32, 0, 2, 4];
        let indices = [5u64, 2, 5, 7, 2, 2, 9, 5, 1];
        let grad_out = Tensor2::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.1 - 0.4);
        let fused = fused_backward_grads(&lengths, &indices, &grad_out).unwrap();
        let expanded = pooled_backward(&lengths, &indices, &grad_out).unwrap();
        assert_eq!(fused, merge_grads(&expanded), "expand-then-merge");
        assert_eq!(
            fused,
            merge_oracle(&expanded),
            "bit-identical to the oracle"
        );
        assert_eq!(fused.indices, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn fused_backward_never_expands() {
        // with heavy duplication, the fused result holds far fewer rows
        // than the nnz the expanded path would allocate
        let lengths = [32u32];
        let indices = [7u64; 32];
        let grad_out = Tensor2::full(1, 4, 1.0);
        let fused = fused_backward_grads(&lengths, &indices, &grad_out).unwrap();
        assert_eq!(fused.len(), 1, "one accumulator row for 32 occurrences");
        assert_eq!(fused.grads.row(0), &[32.0, 32.0, 32.0, 32.0]);
    }

    #[test]
    fn fused_backward_validates() {
        let g = Tensor2::zeros(1, 2);
        assert!(fused_backward_grads(&[2], &[1], &g).is_err());
        assert!(fused_backward_grads(&[1, 1], &[1, 2], &g).is_err());
    }

    #[test]
    fn fused_backward_empty_batch() {
        let g = Tensor2::zeros(2, 4);
        let fused = fused_backward_grads(&[0, 0], &[], &g).unwrap();
        assert!(fused.is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::store::DenseStore;
    use proptest::prelude::*;

    /// Table entry `k`: full mantissas over mixed magnitudes, so another
    /// accumulation order rounds differently, and one entry in five `-0.0`,
    /// which `+0.0 + -0.0` and `-0.0 + -0.0` tell apart.
    fn entry(seed: u64, k: usize) -> f32 {
        let h = (seed + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if h.is_multiple_of(5) {
            return -0.0;
        }
        let mantissa = (h >> 40) as f32 / (1u64 << 24) as f32 + 0.5;
        let v = mantissa * [1e-3f32, 1.0, 37.0, 4096.0][(h >> 8) as usize % 4];
        if h & 2 == 0 {
            v
        } else {
            -v
        }
    }

    fn bits(t: &Tensor2) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pooled forward is bitwise its definition, a scalar sum per
        /// column from `+0.0` in bag-member order, on both paths (the flat
        /// view's column-blocked fold and the `read_row` copy), and repeated
        /// runs are bitwise identical: over widths covering every block
        /// width and every tail, `-0.0` table entries and empty bags.
        #[test]
        fn pooled_forward_matches_naive_and_is_deterministic(
            dim in 1usize..=70,
            bag_lens in proptest::collection::vec(0u32..7, 1..7),
            seed in 0u64..1000,
        ) {
            let rows = 16usize;
            let store_t = Tensor2::from_fn(rows, dim, |i, j| entry(seed, i * dim + j));
            let nnz: usize = bag_lens.iter().map(|&l| l as usize).sum();
            let indices: Vec<u64> = (0..nnz)
                .map(|k| (seed.wrapping_mul(31).wrapping_add(k as u64 * 17)) % rows as u64)
                .collect();
            let mut store = DenseStore::from_tensor(store_t.clone());
            let mut opaque = super::tests::OpaqueStore(DenseStore::from_tensor(store_t.clone()));

            let got = pooled_forward(&mut store, &bag_lens, &indices).unwrap();
            let again = pooled_forward(&mut store, &bag_lens, &indices).unwrap();
            prop_assert_eq!(bits(&got), bits(&again), "nondeterministic");
            let copied = pooled_forward(&mut opaque, &bag_lens, &indices).unwrap();

            // the definition: scalar accumulation in bag-member order
            let mut want = Tensor2::zeros(bag_lens.len(), dim);
            let mut cursor = 0usize;
            for (b, &len) in bag_lens.iter().enumerate() {
                for &idx in &indices[cursor..cursor + len as usize] {
                    for j in 0..dim {
                        want[(b, j)] += store_t[(idx as usize, j)];
                    }
                }
                cursor += len as usize;
            }
            prop_assert_eq!(bits(&got), bits(&want), "flat view");
            prop_assert_eq!(bits(&copied), bits(&want), "read_row path");
        }

        /// Backward + merge through the shared-row representation equals a
        /// naive dense scatter-add of `grad_out` rows.
        #[test]
        fn backward_merge_matches_dense_scatter(
            dim in 1usize..10,
            bag_lens in proptest::collection::vec(0u32..5, 1..5),
            seed in 0u64..1000,
        ) {
            let rows = 8u64;
            let nnz: usize = bag_lens.iter().map(|&l| l as usize).sum();
            let indices: Vec<u64> = (0..nnz)
                .map(|k| (seed.wrapping_add(k as u64 * 13)) % rows)
                .collect();
            let grad_out = Tensor2::from_fn(bag_lens.len(), dim, |i, j| {
                ((seed * 7 + (i * dim + j) as u64) % 19) as f32 * 0.5 - 4.0
            });
            let merged = crate::optim::merge_grads(
                &pooled_backward(&bag_lens, &indices, &grad_out).unwrap(),
            );
            let mut dense = vec![0.0f32; rows as usize * dim];
            let mut cursor = 0usize;
            for (b, &len) in bag_lens.iter().enumerate() {
                for &idx in &indices[cursor..cursor + len as usize] {
                    for j in 0..dim {
                        dense[idx as usize * dim + j] += grad_out[(b, j)];
                    }
                }
                cursor += len as usize;
            }
            for (k, &idx) in merged.indices.iter().enumerate() {
                for (j, &g) in merged.grads.row(k).iter().enumerate() {
                    let want = dense[idx as usize * dim + j];
                    prop_assert!((g - want).abs() <= 1e-4 * want.abs().max(1.0));
                }
            }
        }
    }
}
