//! The row-major 2-D tensor type used throughout the workspace.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Error returned when tensor shapes are incompatible for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    msg: String,
}

impl ShapeError {
    /// Creates a new shape error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f32` values.
///
/// This is the workhorse dense type of the workspace: activations, MLP
/// weights, pooled embedding outputs and gradients are all `Tensor2`.
/// Storage is a flat `Vec<f32>` with row stride equal to the number of
/// columns, matching the layout cuBLAS sees in the original system.
///
/// # Example
///
/// ```
/// use neo_tensor::Tensor2;
/// let t = Tensor2::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// assert_eq!(t[(1, 2)], 5.0);
/// assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a tensor whose rows are written in order by
    /// `f(first_row, block)`, one block of at most `block_rows` whole rows
    /// at a time, straight into one buffer sized up front. `f` must write
    /// all of `block`.
    pub fn from_row_blocks(
        rows: usize,
        cols: usize,
        block_rows: usize,
        mut f: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let block_rows = block_rows.max(1);
        let mut data = Vec::with_capacity(rows * cols);
        for first in (0..rows).step_by(block_rows) {
            data.resize((first + block_rows).min(rows) * cols, 0.0);
            f(first, &mut data[first * cols..]);
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "buffer of len {} cannot be viewed as {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// This tensor as a [`crate::gemm`] operand.
    pub(crate) fn operand(&self) -> crate::gemm::Operand<'_> {
        (&self.data, self.shape())
    }

    /// Resizes in place to `rows x cols`, reusing the buffer's capacity.
    /// Element values are unspecified afterwards: callers overwrite every
    /// one.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `src`, reusing the buffer's capacity.
    pub(crate) fn copy_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clone_from(&src.data);
    }

    /// Returns the transpose as a new tensor.
    pub fn transposed(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Stacks `blocks` horizontally (all must share the row count).
    ///
    /// Used to assemble the interaction-layer input from the bottom-MLP
    /// output and the pooled embeddings.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the blocks disagree on row count or the
    /// input is empty.
    pub fn hcat(blocks: &[&Tensor2]) -> crate::Result<Self> {
        let first = blocks
            .first()
            .ok_or_else(|| ShapeError::new("hcat of zero blocks"))?;
        let rows = first.rows;
        if blocks.iter().any(|b| b.rows != rows) {
            return Err(ShapeError::new("hcat blocks disagree on row count"));
        }
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut out = Self::zeros(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for b in blocks {
                out.row_mut(i)[off..off + b.cols].copy_from_slice(b.row(i));
                off += b.cols;
            }
        }
        Ok(out)
    }

    /// Splits the tensor into horizontal blocks of the given widths
    /// (the inverse of [`Tensor2::hcat`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the widths do not sum to `self.cols()`.
    pub fn hsplit(&self, widths: &[usize]) -> crate::Result<Vec<Tensor2>> {
        if widths.iter().sum::<usize>() != self.cols {
            return Err(ShapeError::new(format!(
                "hsplit widths sum to {} but tensor has {} cols",
                widths.iter().sum::<usize>(),
                self.cols
            )));
        }
        let mut out = Vec::with_capacity(widths.len());
        let mut off = 0;
        for &w in widths {
            let mut b = Self::zeros(self.rows, w);
            for i in 0..self.rows {
                b.row_mut(i).copy_from_slice(&self.row(i)[off..off + w]);
            }
            off += w;
            out.push(b);
        }
        Ok(out)
    }

    /// Copies rows `lo..hi` into a new tensor (a batch slice).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.rows()`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.rows,
            "row slice {lo}..{hi} out of range"
        );
        Self {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Stacks `blocks` vertically (all must share the column count).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on column-count mismatch or empty input.
    pub fn vcat(blocks: &[&Tensor2]) -> crate::Result<Self> {
        let first = blocks
            .first()
            .ok_or_else(|| ShapeError::new("vcat of zero blocks"))?;
        let cols = first.cols;
        if blocks.iter().any(|b| b.cols != cols) {
            return Err(ShapeError::new("vcat blocks disagree on column count"));
        }
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            data.extend_from_slice(&b.data);
        }
        Ok(Self { rows, cols, data })
    }

    /// Maximum absolute element-wise difference against `other`, or NaN
    /// when any difference is NaN — so `diff < tol` fails on a NaN output.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> crate::Result<f32> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, |max, d| if d > max || d.is_nan() { d } else { max }))
    }

    fn check_same_shape(&self, other: &Self) -> crate::Result<()> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "{}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        Ok(())
    }
}

impl Default for Tensor2 {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Debug for Tensor2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor2({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Tensor2 {
    type Output = f32;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Tensor2 {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Tensor2> for &Tensor2 {
    type Output = Tensor2;

    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Tensor2) -> Tensor2 {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Tensor2> for &Tensor2 {
    type Output = Tensor2;

    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub(self, rhs: &Tensor2) -> Tensor2 {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f32> for &Tensor2 {
    type Output = Tensor2;

    fn mul(self, rhs: f32) -> Tensor2 {
        self.map(|v| v * rhs)
    }
}

impl Mul<f32> for Tensor2 {
    type Output = Tensor2;

    fn mul(mut self, rhs: f32) -> Tensor2 {
        self.scale(rhs);
        self
    }
}

impl AddAssign<&Tensor2> for Tensor2 {
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_assign(&mut self, rhs: &Tensor2) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor2::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor2::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Tensor2::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor2::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(1, 2)], 12.0);
        assert_eq!(t.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor2::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed()[(4, 2)], t[(2, 4)]);
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Tensor2::from_fn(2, 3, |i, j| (i + j) as f32);
        let b = Tensor2::from_fn(2, 2, |i, j| (i * j) as f32 + 7.0);
        let cat = Tensor2::hcat(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), (2, 5));
        let parts = cat.hsplit(&[3, 2]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn hcat_rejects_mismatched_rows() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(3, 3);
        assert!(Tensor2::hcat(&[&a, &b]).is_err());
    }

    #[test]
    fn vcat_stacks() {
        let a = Tensor2::full(1, 2, 1.0);
        let b = Tensor2::full(2, 2, 2.0);
        let v = Tensor2::vcat(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(0), &[1.0, 1.0]);
        assert_eq!(v.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn slice_rows_copies() {
        let t = Tensor2::from_fn(4, 2, |i, _| i as f32);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor2::full(2, 2, 2.0);
        let b = Tensor2::full(2, 2, 5.0);
        assert_eq!((&a + &b).as_slice(), &[7.0; 4]);
        assert_eq!((&b - &a).as_slice(), &[3.0; 4]);
        assert_eq!((&a * 3.0).as_slice(), &[6.0; 4]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[7.0; 4]);
    }

    #[test]
    fn max_abs_diff_and_norms() {
        let a = Tensor2::from_vec(1, 3, vec![1.0, -2.0, 3.0]).unwrap();
        let b = Tensor2::from_vec(1, 3, vec![1.5, -2.0, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.norm_sq(), 14.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let nan_vs_finite = Tensor2::from_vec(1, 2, vec![1.0, f32::NAN]).unwrap();
        let finite = Tensor2::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let nan = Tensor2::full(1, 1, f32::NAN);
        for (a, b) in [
            (&nan_vs_finite, &finite),
            (&finite, &nan_vs_finite),
            (&nan, &nan),
        ] {
            // NaN, so every `diff < tol` check built on it fails
            assert!(a.max_abs_diff(b).unwrap().is_nan(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor2::zeros(0, 0);
        assert!(!format!("{t:?}").is_empty());
    }
}
