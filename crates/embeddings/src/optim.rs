//! Exact sparse optimizers (§4.1.2).
//!
//! Large-batch synchronous training means one mini-batch can touch the same
//! embedding row many times. A naive scatter applies those gradients in
//! arrival order — racy on a GPU, and *mathematically different* for
//! non-linear optimizers like AdaGrad (the moment would be updated once per
//! duplicate). The exact scheme sorts the update matrix by row, merges
//! duplicate rows into a single accumulated gradient, and applies one
//! deterministic update per touched row. This is what gives the paper
//! bit-wise reproducibility across runs and worker counts.
//!
//! Both halves are written once. One sort and one sweep
//! ([`SweepScratch`]) fold each run of equal row ids into one gradient
//! row, and one row driver hands the rows to an optimizer's rule on the
//! store rows — a batch of up to eight at a time through
//! [`update_rows`](SparseOptimizer::update_rows), in place, on a flat FP32
//! store ([`RowStore::as_flat_mut`]); one at a time through
//! [`update_row`](SparseOptimizer::update_row) and `read_row`/`write_row`
//! otherwise. [`fused_update`] runs the sweep straight into the driver:
//! the backward and the exact update of §4.1.2 in one pass, with no merged
//! gradient in between. [`merge_grads`] and
//! [`fused_backward_grads`](crate::bag::fused_backward_grads) run the same
//! sweep collecting into a [`SparseGrad`] instead.

use neo_tensor::Tensor2;

use crate::bag::{check_bag_rows, check_lengths, fold_rows, SparseGrad};
use crate::radix::SortedPairs;
use crate::store::{RowStore, StoreError};

/// Rows the sweep and the row driver hand an optimizer's rule at once.
const BATCH: usize = 8;

/// The reusable buffers of the sort and sweep: the `(row id, payload)`
/// pairs and the accumulator rows. Keep one per worker and pass it to every
/// [`fused_update`]; it is sized on first use and then only grows with the
/// largest batch it has seen.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    pairs: SortedPairs,
    acc: Vec<f32>,
}

impl SweepScratch {
    /// Loads the pairs `(indices[k], k)`: one payload per occurrence.
    pub(crate) fn load_occurrences(&mut self, indices: &[u64]) {
        self.pairs.keys.clear();
        self.pairs.keys.extend_from_slice(indices);
        self.pairs.vals.clear();
        self.pairs.vals.extend(0..indices.len() as u32);
    }

    /// Loads the pairs `(indices[k], bag of k)` of a combined-format batch
    /// whose `lengths` sum to `indices.len()`.
    pub(crate) fn load_bags(&mut self, lengths: &[u32], indices: &[u64]) {
        self.pairs.keys.clear();
        self.pairs.keys.extend_from_slice(indices);
        self.pairs.vals.clear();
        for (bag, &len) in lengths.iter().enumerate() {
            self.pairs
                .vals
                .extend(std::iter::repeat_n(bag as u32, len as usize));
        }
    }

    /// Sorts the loaded pairs by row id and returns the largest one.
    fn sort_pairs(&mut self) -> Option<u64> {
        self.pairs.radix_sort();
        self.pairs.keys.last().copied()
    }

    /// The sweep over sorted pairs: folds each run of equal row ids into
    /// one `width`-wide row — the first payload's gradient `row_of(p)`, then
    /// one element-wise add per further payload in arrival order, which
    /// fixes the bits ([`fold_rows`]) — and hands the `(row ids, rows)` of
    /// up to [`BATCH`] runs at a time to `on_batch`, rows ascending. A run
    /// of one passes its gradient through uncopied.
    fn sweep<'g>(
        &mut self,
        width: usize,
        row_of: impl Fn(u32) -> &'g [f32],
        mut on_batch: impl FnMut(&[u64], &[&[f32]]),
    ) {
        self.acc.resize(BATCH * width, 0.0);
        let (keys, vals, acc) = (&self.pairs.keys, &self.pairs.vals, &mut self.acc);
        let mut ids = [0u64; BATCH];
        // a run of one's own gradient row; `None` is accumulator slot `n`
        let mut passed: [Option<&'g [f32]>; BATCH] = [None; BATCH];
        let mut n = 0;
        let mut start = 0;
        for run in keys.chunk_by(|a, b| a == b) {
            let payloads = &vals[start..start + run.len()];
            start += run.len();
            let Some((&first, rest)) = payloads.split_first() else {
                continue;
            };
            ids[n] = run[0];
            passed[n] = if rest.is_empty() {
                Some(row_of(first))
            } else {
                let slot = &mut acc[n * width..(n + 1) * width];
                fold_rows(slot, Some(row_of(first)), || {
                    rest.iter().map(|&p| row_of(p))
                });
                None
            };
            n += 1;
            if n == BATCH {
                on_batch(&ids, &batch_rows(&passed, acc, width));
                n = 0;
            }
        }
        if n > 0 {
            on_batch(&ids[..n], &batch_rows(&passed, acc, width)[..n]);
        }
    }

    /// Sorts the loaded pairs and collects the sweep into a merged
    /// gradient: one row per unique id, ascending.
    pub(crate) fn merge_runs<'g>(
        &mut self,
        width: usize,
        row_of: impl Fn(u32) -> &'g [f32],
    ) -> SparseGrad {
        self.sort_pairs();
        let unique = self.pairs.keys.chunk_by(|a, b| a == b).count();
        let mut ids = Vec::with_capacity(unique);
        let mut rows = Vec::with_capacity(unique * width);
        self.sweep(width, row_of, |batch, grads| {
            ids.extend_from_slice(batch);
            for g in grads {
                rows.extend_from_slice(g);
            }
        });
        let n = ids.len();
        debug_assert_eq!(rows.len(), n * width, "one `width`-wide row per id");
        // the shape holds by construction: the fallback is never taken, and
        // spelling it keeps `Result`-returning callers free of a panic path
        let grads = Tensor2::from_vec(n, width, rows).unwrap_or_else(|_| Tensor2::zeros(n, width));
        SparseGrad::dense(ids, grads)
    }
}

/// The rows of a sweep batch: slot `k` is the run's own gradient row when
/// it passed through, else accumulator row `k` of the `width`-wide `acc`.
fn batch_rows<'a>(
    passed: &[Option<&'a [f32]>; BATCH],
    acc: &'a [f32],
    width: usize,
) -> [&'a [f32]; BATCH] {
    std::array::from_fn(|k| passed[k].unwrap_or(&acc[k * width..(k + 1) * width]))
}

/// Sorts `grad` by row id (stable, so equal rows accumulate in arrival
/// order) and merges duplicates by summing — the "transpose the sparse
/// update matrix" step of §4.1.2.
///
/// Occurrences are read via [`SparseGrad::occ_row`], so inputs in the
/// shared-row representation of [`crate::bag::pooled_backward`] merge
/// without ever expanding.
///
/// # Example
///
/// ```
/// use neo_embeddings::bag::SparseGrad;
/// use neo_embeddings::optim::merge_grads;
/// use neo_tensor::Tensor2;
///
/// let sg = SparseGrad::dense(vec![2, 1, 2], Tensor2::from_fn(3, 1, |i, _| (i + 1) as f32));
/// let merged = merge_grads(&sg);
/// assert_eq!(merged.indices, vec![1, 2]);
/// assert_eq!(merged.grads.row(0), &[2.0]); // g from position 1
/// assert_eq!(merged.grads.row(1), &[4.0]); // 1 + 3
/// ```
#[must_use]
pub fn merge_grads(grad: &SparseGrad) -> SparseGrad {
    let mut scratch = SweepScratch::default();
    scratch.load_occurrences(&grad.indices);
    scratch.merge_runs(grad.grads.cols(), |k| grad.occ_row(k as usize))
}

/// Where the row driver's updates land.
enum Target<'s> {
    /// A flat FP32 table, each row updated in place.
    Flat(&'s mut [f32]),
    /// Any other store: each row read into `row`, updated and written back.
    Copy {
        store: &'s mut dyn RowStore,
        row: Vec<f32>,
    },
}

/// The one row driver: hands `(row ids, gradients)` batches to an
/// optimizer's rule on the store rows, after the sanitizer's finite check
/// on every gradient. Rows are updated in the order given, so a
/// cache-backed store sees the same accesses whichever caller feeds it.
struct RowDriver<'s, O: ?Sized> {
    opt: &'s mut O,
    name: &'static str,
    dim: usize,
    target: Target<'s>,
}

impl<O: SparseOptimizer + ?Sized> RowDriver<'_, O> {
    /// Updates row `ids[k]` from its gradient `grads[k]`, for every `k`: the
    /// whole batch through [`SparseOptimizer::update_rows`] on a flat
    /// table, else read → [`SparseOptimizer::update_row`] → write per row.
    #[inline]
    fn drive(&mut self, ids: &[u64], grads: &[&[f32]]) {
        for g in grads {
            neo_tensor::sanitize::check_finite(self.name, g);
        }
        match &mut self.target {
            Target::Flat(flat) => self.opt.update_rows(flat, self.dim, ids, grads),
            Target::Copy { store, row } => {
                for (&idx, g) in ids.iter().zip(grads) {
                    store.read_row(idx, row);
                    self.opt.update_row(idx, row, g);
                    store.write_row(idx, row);
                }
            }
        }
    }
}

/// Runs `visit` with the row driver of `opt` over `store`: in place when
/// the store is flat FP32 ([`RowStore::as_flat_mut`]), else through
/// `read_row`/`write_row` — the same bits either way.
fn drive_rows<O: SparseOptimizer + ?Sized>(
    opt: &mut O,
    store: &mut dyn RowStore,
    visit: impl FnOnce(&mut RowDriver<'_, O>),
) {
    let (name, dim) = (opt.name(), store.dim());
    if let Some(flat) = store.as_flat_mut() {
        let target = Target::Flat(flat);
        return visit(&mut RowDriver {
            opt,
            name,
            dim,
            target,
        });
    }
    let row = vec![0.0f32; dim];
    let target = Target::Copy { store, row };
    visit(&mut RowDriver {
        opt,
        name,
        dim,
        target,
    });
}

/// Every occurrence of `grad`, in order and [`BATCH`] at a time, through
/// the row driver, after the sanitizer's checks that its width is the
/// store's and its row ids are in range.
fn update_occurrences<O: SparseOptimizer + ?Sized>(
    opt: &mut O,
    store: &mut dyn RowStore,
    grad: &SparseGrad,
) {
    let (name, stored) = (opt.name(), grad.grads.rows());
    neo_tensor::sanitize::check_shape(name, (stored, grad.grads.cols()), (stored, store.dim()));
    neo_tensor::sanitize::check_indices(name, &grad.indices, store.num_rows());
    drive_rows(opt, store, |rows| {
        for (first, ids) in (0..).step_by(BATCH).zip(grad.indices.chunks(BATCH)) {
            let mut grads: [&[f32]; BATCH] = [&[]; BATCH];
            for (g, k) in grads.iter_mut().zip(first..first + ids.len()) {
                *g = grad.occ_row(k);
            }
            rows.drive(ids, &grads[..ids.len()]);
        }
    });
}

/// The fused backward + exact update of one table (§4.1.2): sorts the
/// batch's `(row id, bag)` pairs by row, folds each run of equal rows into
/// one scratch row in arrival order and hands the rows, up to eight at a
/// time, straight to `opt`'s rule on the store rows. No merged gradient is
/// materialised, and rows are
/// updated in ascending order, so the result is bitwise
/// `opt.apply_merged(store, &fused_backward_grads(lengths, indices, grad_out))`
/// where `grad_of_bag(b)` is `grad_out.row(b)`.
///
/// `lengths`/`indices` are the combined-format batch the pooled forward
/// read, and `grad_of_bag(b)` is the gradient of bag `b`'s pooled output:
/// `Some` of a `store.dim()`-wide row for every `b < lengths.len()`. It is
/// read where it lies — the caller's buffers are never copied into a
/// tensor. `scratch` holds the sort and accumulator buffers between calls.
/// Returns the number of rows updated (the batch's unique row ids).
///
/// # Errors
///
/// Returns [`StoreError`], before any row is written, if `lengths` does not
/// sum to `indices.len()`, a bag has no gradient row or one of the wrong
/// width, or an index is out of range for `store`.
///
/// # Example
///
/// ```
/// use neo_embeddings::optim::{fused_update, SparseOptimizer, SparseSgd, SweepScratch};
/// use neo_embeddings::store::{DenseStore, RowStore};
/// use neo_tensor::Tensor2;
///
/// let mut store = DenseStore::zeros(4, 2);
/// let grad_out = Tensor2::from_fn(2, 2, |b, _| (b + 1) as f32);
/// let mut scratch = SweepScratch::default();
/// // bags {3, 1} and {3}: row 3 gets 1 + 2, row 1 gets 1
/// let rows = fused_update(&mut SparseSgd::new(0.5), &mut store, &[2, 1], &[3, 1, 3],
///     |b| (b < grad_out.rows()).then(|| grad_out.row(b)), &mut scratch).unwrap();
/// assert_eq!(rows, 2);
/// assert_eq!(store.to_dense().row(3), &[-1.5, -1.5]);
/// assert_eq!(store.to_dense().row(1), &[-0.5, -0.5]);
/// ```
pub fn fused_update<'g, O: SparseOptimizer + ?Sized>(
    opt: &mut O,
    store: &mut dyn RowStore,
    lengths: &[u32],
    indices: &[u64],
    grad_of_bag: impl Fn(usize) -> Option<&'g [f32]>,
    scratch: &mut SweepScratch,
) -> Result<usize, StoreError> {
    check_lengths(lengths, indices.len())?;
    let dim = store.dim();
    let bags = lengths.len();
    let rows = (0..bags)
        .take_while(|&b| grad_of_bag(b).is_some_and(|g| g.len() == dim))
        .count();
    check_bag_rows(rows, bags)?;
    scratch.load_bags(lengths, indices);
    if let Some(bad) = scratch.sort_pairs().filter(|&max| max >= store.num_rows()) {
        return Err(StoreError::out_of_range(bad, store.num_rows()));
    }
    // every bag was checked above, so the fallback is never taken
    let row_of = |b: u32| grad_of_bag(b as usize).unwrap_or_default();
    let mut updated = 0;
    drive_rows(opt, store, |rows| {
        scratch.sweep(dim, row_of, |ids, grads| {
            updated += ids.len();
            rows.drive(ids, grads);
        });
    });
    Ok(updated)
}

/// A sparse optimizer operating on a [`RowStore`]: a per-row rule plus the
/// state it needs. How rows are merged, read and written back is the same
/// for every rule and provided here.
pub trait SparseOptimizer: Send {
    /// The rule: updates `row`, the current values of row `idx`, in place
    /// from its gradient `g` (same width), advancing any state held for
    /// that row.
    fn update_row(&mut self, idx: u64, row: &mut [f32], g: &[f32]);

    /// The rule over a batch: updates row `ids[k]` of `table`, a flat
    /// row-major table `dim` wide, from `grads[k]` (`dim` wide), for every
    /// `k` in order. Bitwise [`update_row`](Self::update_row) on each row
    /// in turn, repeated ids included; a rule overrides it only to do the
    /// same work faster.
    fn update_rows(&mut self, table: &mut [f32], dim: usize, ids: &[u64], grads: &[&[f32]]) {
        for (&idx, g) in ids.iter().zip(grads) {
            let base = idx as usize * dim;
            self.update_row(idx, &mut table[base..base + dim], g);
        }
    }

    /// Applies one *exact* update: duplicates are merged first, then every
    /// touched row is read, updated once, and written back.
    fn step(&mut self, store: &mut dyn RowStore, grad: &SparseGrad) {
        self.apply_merged(store, &merge_grads(grad));
    }

    /// Applies an already-merged gradient (one row per unique index).
    fn apply_merged(&mut self, store: &mut dyn RowStore, merged: &SparseGrad) {
        update_occurrences(self, store, merged);
    }

    /// The naive scatter baseline: applies gradients one-by-one in arrival
    /// order. For linear rules (SGD) this matches [`SparseOptimizer::step`];
    /// for AdaGrad/Adam it does not — the ablation the paper's determinism
    /// argument rests on.
    fn step_unmerged(&mut self, store: &mut dyn RowStore, grad: &SparseGrad) {
        update_occurrences(self, store, grad);
    }

    /// Bytes of optimizer state held for the table.
    fn state_bytes(&self) -> u64;

    /// Human-readable optimizer name.
    fn name(&self) -> &'static str;

    /// Updates the learning rate (no trainer path varies it).
    fn set_lr(&mut self, lr: f32);
}

/// Plain sparse SGD: `row -= lr * g`.
#[derive(Debug, Clone)]
pub struct SparseSgd {
    lr: f32,
}

impl SparseSgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl SparseOptimizer for SparseSgd {
    fn update_row(&mut self, _idx: u64, row: &mut [f32], g: &[f32]) {
        for (v, &g) in row.iter_mut().zip(g) {
            *v -= self.lr * g;
        }
    }

    fn state_bytes(&self) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Element-wise sparse AdaGrad: `m += g^2; row -= lr * g / (sqrt(m) + eps)`.
/// Holds `H x D` moment state.
#[derive(Debug, Clone)]
pub struct SparseAdagrad {
    lr: f32,
    eps: f32,
    dim: usize,
    moment: Vec<f32>,
}

impl SparseAdagrad {
    /// Creates AdaGrad state for a `num_rows x dim` table.
    pub fn new(lr: f32, eps: f32, num_rows: u64, dim: usize) -> Self {
        Self {
            lr,
            eps,
            dim,
            moment: vec![0.0; num_rows as usize * dim],
        }
    }
}

impl SparseOptimizer for SparseAdagrad {
    fn update_row(&mut self, idx: u64, row: &mut [f32], g: &[f32]) {
        let r = idx as usize;
        let m = &mut self.moment[r * self.dim..(r + 1) * self.dim];
        for ((v, &g), mi) in row.iter_mut().zip(g).zip(m) {
            *mi += g * g;
            *v -= self.lr * g / (mi.sqrt() + self.eps);
        }
    }

    fn state_bytes(&self) -> u64 {
        self.moment.len() as u64 * 4
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Row-wise sparse AdaGrad (§4.1.4): one scalar moment per *row*, updated
/// with the mean squared gradient of the row —
/// `m_i += (1/D) * sum_j g_ij^2`. Cuts optimizer state from `H x D` to `H`
/// (the paper's "saves the total memory by up to 50%" when counting
/// parameters + state).
#[derive(Debug, Clone)]
pub struct RowWiseAdagrad {
    lr: f32,
    eps: f32,
    moment: Vec<f32>,
}

impl RowWiseAdagrad {
    /// Creates row-wise AdaGrad state for a table with `num_rows` rows.
    pub fn new(lr: f32, eps: f32, num_rows: u64) -> Self {
        Self {
            lr,
            eps,
            moment: vec![0.0; num_rows as usize],
        }
    }

    /// The rule once the row's sum of squares `sum_sq` is known.
    #[inline]
    fn apply(&mut self, idx: u64, row: &mut [f32], g: &[f32], sum_sq: f32) {
        let m = &mut self.moment[idx as usize];
        *m += sum_sq / row.len() as f32;
        let scale = self.lr / (m.sqrt() + self.eps);
        for (v, &g) in row.iter_mut().zip(g) {
            *v -= scale * g;
        }
    }
}

/// `sum_j g[j]^2` of each of up to [`BATCH`] `dim`-wide rows. Each chain
/// adds its squares in column order, as `update_row`'s does, so the bits
/// are the same; the chains run side by side, column `j` of every row
/// before column `j + 1`, so their adds overlap instead of waiting on each
/// other.
fn square_sums(grads: &[&[f32]], dim: usize) -> [f32; BATCH] {
    let mut sums = [0.0f32; BATCH];
    let Some(&first) = grads.first() else {
        return sums;
    };
    // a partial batch is padded with its first row, so there are always
    // `BATCH` chains and the sums stay in registers
    let rows: [&[f32]; BATCH] = std::array::from_fn(|k| &grads.get(k).unwrap_or(&first)[..dim]);
    for j in 0..dim {
        for (s, row) in sums.iter_mut().zip(rows) {
            *s += row[j] * row[j];
        }
    }
    sums
}

impl SparseOptimizer for RowWiseAdagrad {
    fn update_row(&mut self, idx: u64, row: &mut [f32], g: &[f32]) {
        let sum_sq = g.iter().map(|g| g * g).sum::<f32>();
        self.apply(idx, row, g, sum_sq);
    }

    /// Eight rows' mean-square chains side by side (`square_sums`),
    /// then each row's update in order.
    fn update_rows(&mut self, table: &mut [f32], dim: usize, ids: &[u64], grads: &[&[f32]]) {
        for (ids, grads) in ids.chunks(BATCH).zip(grads.chunks(BATCH)) {
            let sums = square_sums(grads, dim);
            for ((&idx, g), sum_sq) in ids.iter().zip(grads).zip(sums) {
                let base = idx as usize * dim;
                self.apply(idx, &mut table[base..base + dim], g, sum_sq);
            }
        }
    }

    fn state_bytes(&self) -> u64 {
        self.moment.len() as u64 * 4
    }

    fn name(&self) -> &'static str {
        "rowwise_adagrad"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Sparse Adam with per-row step counts for bias correction (rows are
/// corrected by how many times *they* were updated, the standard sparse
/// Adam variant).
#[derive(Debug, Clone)]
pub struct SparseAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    dim: usize,
    m: Vec<f32>,
    v: Vec<f32>,
    steps: Vec<u32>,
}

impl SparseAdam {
    /// Creates Adam state for a `num_rows x dim` table with the usual
    /// defaults `beta1 = 0.9`, `beta2 = 0.999`.
    pub fn new(lr: f32, eps: f32, num_rows: u64, dim: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps,
            dim,
            m: vec![0.0; num_rows as usize * dim],
            v: vec![0.0; num_rows as usize * dim],
            steps: vec![0; num_rows as usize],
        }
    }
}

impl SparseOptimizer for SparseAdam {
    fn update_row(&mut self, idx: u64, row: &mut [f32], g: &[f32]) {
        let (r, dim) = (idx as usize, self.dim);
        self.steps[r] += 1;
        let t = self.steps[r] as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let ms = &mut self.m[r * dim..(r + 1) * dim];
        let vs = &mut self.v[r * dim..(r + 1) * dim];
        for (((val, &g), mi), vi) in row.iter_mut().zip(g).zip(ms).zip(vs) {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *val -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn state_bytes(&self) -> u64 {
        (self.m.len() + self.v.len()) as u64 * 4 + self.steps.len() as u64 * 4
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
/// The definition [`merge_grads`] and
/// [`fused_backward_grads`](crate::bag::fused_backward_grads) must
/// reproduce bit for bit, and the oracle of this module's and `bag`'s
/// tests: a stable *comparison* sort of the occurrences by row id, then a
/// scalar left-to-right add of each run.
pub(crate) fn merge_oracle(grad: &SparseGrad) -> SparseGrad {
    let dim = grad.grads.cols();
    let mut order: Vec<usize> = (0..grad.indices.len()).collect();
    order.sort_by_key(|&k| grad.indices[k]);
    let mut indices: Vec<u64> = Vec::new();
    let mut rows: Vec<f32> = Vec::new();
    for k in order {
        let (idx, g) = (grad.indices[k], grad.occ_row(k));
        if indices.last() == Some(&idx) {
            let base = rows.len() - dim;
            for (a, &v) in rows[base..].iter_mut().zip(g) {
                *a += v;
            }
        } else {
            indices.push(idx);
            rows.extend_from_slice(g);
        }
    }
    let n = indices.len();
    SparseGrad::dense(indices, Tensor2::from_vec(n, dim, rows).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DenseStore;

    fn grad(pairs: &[(u64, f32)], dim: usize) -> SparseGrad {
        let mut g = Tensor2::zeros(pairs.len(), dim);
        for (k, &(_, v)) in pairs.iter().enumerate() {
            for x in g.row_mut(k) {
                *x = v;
            }
        }
        SparseGrad::dense(pairs.iter().map(|&(i, _)| i).collect(), g)
    }

    #[test]
    fn merge_sorts_and_sums() {
        let sg = grad(&[(5, 1.0), (2, 2.0), (5, 3.0), (2, 4.0)], 2);
        let m = merge_grads(&sg);
        assert_eq!(m.indices, vec![2, 5]);
        assert_eq!(m.grads.row(0), &[6.0, 6.0]);
        assert_eq!(m.grads.row(1), &[4.0, 4.0]);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let m = merge_grads(&SparseGrad::empty(4));
        assert!(m.is_empty());
    }

    #[test]
    fn merge_of_shared_rows_equals_merge_of_expanded() {
        // the shared-row representation from pooled_backward and a manual
        // identity expansion must merge to bitwise-equal results
        let grad_out = Tensor2::from_fn(3, 2, |i, j| (i * 2 + j) as f32 * 0.3 - 0.5);
        let lengths = [2u32, 3, 1];
        let indices = [4u64, 1, 4, 4, 2, 1];
        let shared = crate::bag::pooled_backward(&lengths, &indices, &grad_out).unwrap();
        assert!(!shared.src.is_empty(), "expected the shared representation");
        let mut expanded = Tensor2::zeros(indices.len(), 2);
        for k in 0..indices.len() {
            expanded.row_mut(k).copy_from_slice(shared.occ_row(k));
        }
        let dense = SparseGrad::dense(indices.to_vec(), expanded);
        assert_eq!(merge_grads(&shared), merge_grads(&dense));
        assert_eq!(merge_grads(&shared), merge_oracle(&dense));
    }

    #[test]
    fn sgd_exact_equals_unmerged() {
        // SGD is linear, so the paper's sorted-merged update must equal the
        // naive scatter exactly.
        let mut a = DenseStore::zeros(10, 2);
        let mut b = DenseStore::zeros(10, 2);
        let sg = grad(&[(1, 0.5), (1, 0.25), (3, 1.0)], 2);
        SparseSgd::new(0.1).step(&mut a, &sg);
        SparseSgd::new(0.1).step_unmerged(&mut b, &sg);
        assert_eq!(a.to_dense(), b.to_dense());
        assert!((a.to_dense()[(1, 0)] - (-0.075)).abs() < 1e-7);
    }

    #[test]
    fn adagrad_exact_differs_from_unmerged() {
        // With duplicates, merging changes the moment trajectory — the
        // reason the exact optimizer exists.
        let mut a = DenseStore::zeros(4, 1);
        let mut b = DenseStore::zeros(4, 1);
        let sg = grad(&[(0, 1.0), (0, 1.0)], 1);
        SparseAdagrad::new(0.1, 1e-8, 4, 1).step(&mut a, &sg);
        SparseAdagrad::new(0.1, 1e-8, 4, 1).step_unmerged(&mut b, &sg);
        let (av, bv) = (a.to_dense()[(0, 0)], b.to_dense()[(0, 0)]);
        // merged: g=2, m=4, step = -0.1*2/2 = -0.1
        assert!((av + 0.1).abs() < 1e-6, "merged {av}");
        // unmerged: two steps of -0.1*1/1 and -0.1*1/sqrt(2)
        assert!(
            (bv + 0.1 - (-0.1 / 2f32.sqrt())).abs() < 1e-6,
            "unmerged {bv}"
        );
        assert_ne!(av, bv);
    }

    #[test]
    fn adagrad_matches_dense_reference_on_unique_rows() {
        // On a batch with no duplicate rows, sparse AdaGrad must equal the
        // textbook dense update restricted to the touched rows.
        let mut store = DenseStore::zeros(5, 3);
        store.write_row(2, &[1.0, 1.0, 1.0]);
        let sg = SparseGrad::dense(
            vec![2],
            Tensor2::from_vec(1, 3, vec![0.5, -1.0, 2.0]).unwrap(),
        );
        let mut opt = SparseAdagrad::new(0.1, 1e-8, 5, 3);
        opt.step(&mut store, &sg);
        let d = store.to_dense();
        for (j, &g) in [0.5f32, -1.0, 2.0].iter().enumerate() {
            let want = 1.0 - 0.1 * g / (g.abs() + 1e-8);
            assert!((d[(2, j)] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn rowwise_adagrad_state_is_one_scalar_per_row() {
        let full = SparseAdagrad::new(0.1, 1e-8, 1000, 64);
        let rw = RowWiseAdagrad::new(0.1, 1e-8, 1000);
        assert_eq!(full.state_bytes(), 1000 * 64 * 4);
        assert_eq!(rw.state_bytes(), 1000 * 4);
        assert_eq!(full.state_bytes() / rw.state_bytes(), 64);
    }

    #[test]
    fn rowwise_adagrad_uses_mean_square() {
        let mut store = DenseStore::zeros(2, 2);
        let sg = SparseGrad::dense(vec![0], Tensor2::from_vec(1, 2, vec![3.0, 4.0]).unwrap());
        let mut opt = RowWiseAdagrad::new(1.0, 0.0, 2);
        opt.step(&mut store, &sg);
        // m = (9+16)/2 = 12.5; scale = 1/sqrt(12.5)
        let scale = 1.0 / 12.5f32.sqrt();
        let d = store.to_dense();
        assert!((d[(0, 0)] + 3.0 * scale).abs() < 1e-6);
        assert!((d[(0, 1)] + 4.0 * scale).abs() < 1e-6);
    }

    #[test]
    fn adam_reduces_toward_target() {
        // minimize (row - 1)^2 via its gradient 2(row-1)
        let mut store = DenseStore::zeros(1, 4);
        let mut opt = SparseAdam::new(0.05, 1e-8, 1, 4);
        let mut buf = vec![0.0f32; 4];
        for _ in 0..300 {
            store.read_row(0, &mut buf);
            let g: Vec<f32> = buf.iter().map(|v| 2.0 * (v - 1.0)).collect();
            let sg = SparseGrad::dense(vec![0], Tensor2::from_vec(1, 4, g).unwrap());
            opt.step(&mut store, &sg);
        }
        store.read_row(0, &mut buf);
        for v in buf {
            assert!((v - 1.0).abs() < 0.05, "{v}");
        }
    }

    #[test]
    fn adam_bias_correction_per_row() {
        // two rows updated different numbers of times get different
        // corrections but both move in the right direction
        let mut store = DenseStore::zeros(2, 1);
        let mut opt = SparseAdam::new(0.1, 1e-8, 2, 1);
        let g0 = grad(&[(0, 1.0), (1, 1.0)], 1);
        opt.step(&mut store, &g0);
        let g1 = grad(&[(0, 1.0)], 1);
        opt.step(&mut store, &g1);
        let d = store.to_dense();
        assert!(d[(0, 0)] < d[(1, 0)], "row 0 updated twice moved further");
        assert!(d[(1, 0)] < 0.0);
    }

    #[test]
    fn determinism_same_input_same_result() {
        let sg = grad(&[(7, 0.3), (1, -0.2), (7, 0.1), (3, 0.9)], 4);
        let run = || {
            let mut s = DenseStore::zeros(10, 4);
            let mut o = SparseAdagrad::new(0.05, 1e-8, 10, 4);
            for _ in 0..5 {
                o.step(&mut s, &sg);
            }
            s.to_dense()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn optimizer_names() {
        assert_eq!(SparseSgd::new(0.1).name(), "sgd");
        assert_eq!(SparseAdagrad::new(0.1, 0.0, 1, 1).name(), "adagrad");
        assert_eq!(RowWiseAdagrad::new(0.1, 0.0, 1).name(), "rowwise_adagrad");
        assert_eq!(SparseAdam::new(0.1, 0.0, 1, 1).name(), "adam");
        assert_eq!(SparseSgd::new(0.1).state_bytes(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::bag::{fused_backward_grads, pooled_backward};
    use proptest::prelude::*;

    /// Values with full mantissas and mixed magnitudes, so a different
    /// accumulation order rounds differently.
    fn awkward(seed: u64, i: usize, j: usize) -> f32 {
        let h = (seed + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64) << 20 | j as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mantissa = (h >> 40) as f32 / (1u64 << 24) as f32 + 0.5;
        let scale = [1e-3f32, 1.0, 37.0, 4096.0][(h >> 8) as usize % 4];
        if h & 1 == 0 {
            mantissa * scale
        } else {
            -mantissa * scale
        }
    }

    fn bits(g: &SparseGrad) -> (Vec<u64>, Vec<u32>, (usize, usize)) {
        let values = g.grads.as_slice().iter().map(|v| v.to_bits()).collect();
        (g.indices.clone(), values, g.grads.shape())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one kernel, through both of its callers and both gradient
        /// representations, is bitwise the comparison-sort oracle: over
        /// duplicates within and across bags, empty bags, an empty batch
        /// and widths spanning the lane tail.
        #[test]
        fn sort_and_accumulate_is_bitwise_the_oracle(
            dim in 1usize..21,
            bag_lens in proptest::collection::vec(0u32..7, 0..7),
            table_rows in 1u64..9,
            seed in 0u64..10_000,
        ) {
            let nnz: usize = bag_lens.iter().map(|&l| l as usize).sum();
            // few rows, so most ids repeat within and across bags; ids
            // past 2^16 so the radix sort takes a second digit pass
            let indices: Vec<u64> = (0..nnz)
                .map(|k| {
                    let r = seed.wrapping_mul(31).wrapping_add(k as u64 * 17) % table_rows;
                    if r == 0 { r } else { r + (seed % 2) * 70_000 }
                })
                .collect();
            let grad_out = Tensor2::from_fn(bag_lens.len(), dim, |i, j| awkward(seed, i, j));

            // shared-row (`src`) input, and the fused form of the same batch
            let shared = pooled_backward(&bag_lens, &indices, &grad_out).unwrap();
            prop_assert_eq!(shared.src.len(), nnz);
            let want = merge_oracle(&shared);
            prop_assert_eq!(bits(&merge_grads(&shared)), bits(&want));
            let fused = fused_backward_grads(&bag_lens, &indices, &grad_out).unwrap();
            prop_assert_eq!(bits(&fused), bits(&want));
            prop_assert_eq!(want.grads.cols(), dim, "an empty result keeps its width");

            // identity-mapped input with its own row per occurrence
            let dense = SparseGrad::dense(
                indices.clone(),
                Tensor2::from_fn(nnz, dim, |i, j| awkward(seed ^ 0xabcd, i, j)),
            );
            prop_assert_eq!(bits(&merge_grads(&dense)), bits(&merge_oracle(&dense)));
        }
    }

    proptest! {
        // each case trains twelve optimizer × store pairs three ways
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fused update is bitwise the two-sweep path it replaces —
        /// `apply_merged(&fused_backward_grads(..))` — and the oracle's
        /// merge applied the same way: for every optimizer over every store
        /// kind (a tiered store's cache counters included), over two
        /// batches that share one scratch, so optimizer state and reused
        /// buffers carry over.
        #[test]
        fn fused_update_is_bitwise_the_two_sweep_path(
            dim in 1usize..21,
            bags in proptest::collection::vec(proptest::collection::vec(0u32..7, 0..7), 2),
            table_rows in 1u64..40,
            seed in 0u64..10_000,
        ) {
            // one row past 2^11 so the sort takes a second digit pass
            let rows = FAR_ROW + 1;
            let batches: Vec<(Vec<u32>, Vec<u64>, Tensor2)> = bags
                .iter()
                .enumerate()
                .map(|(step, lengths)| {
                    let nnz: usize = lengths.iter().map(|&l| l as usize).sum();
                    let indices = (0..nnz as u64)
                        .map(|k| match seed.wrapping_add(k * 13 + step as u64 * 7) % (table_rows + 1) {
                            0 => FAR_ROW,
                            r => r - 1,
                        })
                        .collect();
                    let grad_out =
                        Tensor2::from_fn(lengths.len(), dim, |i, j| awkward(seed + step as u64, i, j));
                    (lengths.clone(), indices, grad_out)
                })
                .collect();
            for (opt_kind, store_kind) in (0..4).flat_map(|o| (0..3).map(move |s| (o, s))) {
                let mut fused = (make_opt(opt_kind, rows, dim), make_store(store_kind, rows, dim, seed));
                let mut two_sweep = (make_opt(opt_kind, rows, dim), make_store(store_kind, rows, dim, seed));
                let mut oracle = (make_opt(opt_kind, rows, dim), make_store(store_kind, rows, dim, seed));
                let mut scratch = SweepScratch::default();
                for (lengths, indices, grad_out) in &batches {
                    let grad_of_bag = |b: usize| (b < grad_out.rows()).then(|| grad_out.row(b));
                    let updated = fused_update(
                        fused.0.as_mut(), fused.1.as_mut(), lengths, indices, grad_of_bag, &mut scratch,
                    ).unwrap();
                    let merged = fused_backward_grads(lengths, indices, grad_out).unwrap();
                    prop_assert_eq!(updated, merged.len(), "one update per unique row");
                    two_sweep.0.apply_merged(two_sweep.1.as_mut(), &merged);
                    let shared = pooled_backward(lengths, indices, grad_out).unwrap();
                    oracle.0.apply_merged(oracle.1.as_mut(), &merge_oracle(&shared));
                }
                let name = fused.0.name();
                prop_assert_eq!(fused.1.tier_info(), two_sweep.1.tier_info(), "{} {}", name, store_kind);
                prop_assert_eq!(fused.1.tier_info(), oracle.1.tier_info(), "{} {}", name, store_kind);
                let table = table_bits(fused.1.as_mut());
                prop_assert_eq!(&table, &table_bits(two_sweep.1.as_mut()), "{} {}", name, store_kind);
                prop_assert_eq!(&table, &table_bits(oracle.1.as_mut()), "{} {}", name, store_kind);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `update_rows` is bitwise its definition, `update_row` called row
        /// by row, for every optimizer: over batches of 0..=9 rows (a full
        /// batch of eight, partial ones and one past it) with repeated ids,
        /// as `step_unmerged` feeds them, widths 1..=40, and gradients that
        /// hold `0.0` and `-0.0` entries and whole zero rows. Two batches in
        /// a row, so the state the first leaves feeds the second.
        #[test]
        fn update_rows_is_bitwise_update_row_row_by_row(
            dim in 1usize..=40,
            batches in proptest::collection::vec(proptest::collection::vec(0u64..6, 0..10), 2),
            seed in 0u64..10_000,
        ) {
            let rows = 6u64;
            for kind in 0..4 {
                let mut batched = make_opt(kind, rows, dim);
                let mut oracle = make_opt(kind, rows, dim);
                let init: Vec<f32> = (0..rows as usize * dim)
                    .map(|k| awkward(seed ^ 0x7ab1e, k / dim, k % dim))
                    .collect();
                let (mut got, mut want) = (init.clone(), init);
                for (step, ids) in batches.iter().enumerate() {
                    let grads: Vec<Vec<f32>> = (0..ids.len())
                        .map(|k| (0..dim).map(|j| zeroish(seed + step as u64, k, j)).collect())
                        .collect();
                    let grads: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
                    batched.update_rows(&mut got, dim, ids, &grads);
                    for (&idx, g) in ids.iter().zip(&grads) {
                        let base = idx as usize * dim;
                        oracle.update_row(idx, &mut want[base..base + dim], g);
                    }
                    let name = batched.name();
                    prop_assert_eq!(slice_bits(&got), slice_bits(&want), "{} step {}", name, step);
                }
            }
        }
    }

    /// [`awkward`], except that one entry in four is `0.0` or `-0.0` and
    /// every fourth row is all `0.0` or all `-0.0`.
    fn zeroish(seed: u64, i: usize, j: usize) -> f32 {
        let v = awkward(seed, i, j);
        let zero = if i % 4 == 3 {
            seed % 2
        } else {
            u64::from(v.to_bits() >> 4) % 8
        };
        match zero {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        }
    }

    fn slice_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The row past the first radix digit that the fused-update property
    /// touches.
    const FAR_ROW: u64 = 2100;

    fn make_opt(kind: usize, rows: u64, dim: usize) -> Box<dyn SparseOptimizer> {
        match kind {
            0 => Box::new(SparseSgd::new(0.05)),
            1 => Box::new(SparseAdagrad::new(0.05, 1e-8, rows, dim)),
            2 => Box::new(RowWiseAdagrad::new(0.05, 1e-8, rows)),
            _ => Box::new(SparseAdam::new(0.05, 1e-8, rows, dim)),
        }
    }

    /// A dense, a stochastically rounded FP16, or a tiered store (one
    /// 32-row cache set, so rows are evicted and written back), all holding
    /// the same seeded values.
    fn make_store(kind: usize, rows: u64, dim: usize, seed: u64) -> Box<dyn RowStore> {
        use crate::store::{DenseStore, HalfStore};
        let fill = |first: u64, block: &mut [f32]| {
            for (k, v) in block.iter_mut().enumerate() {
                *v = awkward(seed ^ 0x5eed, first as usize + k / dim, k % dim);
            }
        };
        match kind {
            0 => Box::new(DenseStore::from_rows(rows, dim, fill)),
            1 => Box::new(HalfStore::from_rows(rows, dim, fill).with_stochastic_rounding(seed)),
            _ => Box::new(crate::TieredStore::new(
                Box::new(DenseStore::from_rows(rows, dim, fill)),
                32,
                neo_memory::Policy::Lru,
            )),
        }
    }

    fn table_bits(store: &mut dyn RowStore) -> Vec<u32> {
        store
            .to_dense()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn fused_update_rejects_a_malformed_batch_before_writing() {
        use crate::store::DenseStore;
        let grad_out = Tensor2::full(2, 3, 1.0);
        let rows = |b: usize| (b < grad_out.rows()).then(|| grad_out.row(b));
        let mut store = DenseStore::zeros(8, 3);
        let mut opt = SparseAdam::new(0.1, 1e-8, 8, 3);
        let mut scratch = SweepScratch::default();
        let mut run =
            |lengths: &[u32],
             indices: &[u64],
             grad_of_bag: &dyn Fn(usize) -> Option<&'static [f32]>| {
                fused_update(
                    &mut opt,
                    &mut store,
                    lengths,
                    indices,
                    grad_of_bag,
                    &mut scratch,
                )
            };
        let narrow: &'static [f32] = &[1.0, 1.0];
        let wide: &'static [f32] = &[1.0; 3];
        // lengths sum to 3 for 2 indices
        assert!(run(&[2, 1], &[1, 2], &|_| Some(wide)).is_err());
        // three bags, two gradient rows
        let two_rows = |b: usize| (b < 2).then_some(wide);
        assert!(run(&[1, 1, 0], &[1, 2], &two_rows).is_err());
        // a gradient row narrower than the store
        assert!(run(&[1, 1], &[1, 2], &|_| Some(narrow)).is_err());
        // row 8 of an 8-row table
        assert!(run(&[1, 1], &[1, 8], &|_| Some(wide)).is_err());
        assert!(
            store.to_dense().as_slice().iter().all(|&v| v == 0.0),
            "no row written"
        );
        // the same scratch then serves a well-formed batch, and an empty one
        assert_eq!(
            fused_update(&mut opt, &mut store, &[1, 1], &[2, 2], rows, &mut scratch),
            Ok(1)
        );
        assert_eq!(
            fused_update(&mut opt, &mut store, &[0, 0], &[], rows, &mut scratch),
            Ok(0)
        );
        assert!(store.to_dense().row(2).iter().all(|&v| v < 0.0));
    }
}
