//! General matrix multiply and the transpose variants used by MLP
//! back-propagation: one register-tiled microkernel over packed panels.
//!
//! The original system delegates these to cuBLAS (`GemmEx`). Here all three
//! products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — run through `micro`, the only
//! function that multiplies and accumulates: it keeps an `MR x NR` output
//! tile in registers for the whole reduction and adds one product per
//! reduction step. **Every output element is therefore the left-to-right
//! `f32` sum over the reduction index — bitwise the naive triple loop**,
//! which is the definition the tests compare against with `==`. The
//! variants differ only in how `pack_rows`/`pack_cols` lay the operands
//! out as `k x MR` and `k x NR` panels (zero-padded at the edges; padded
//! lanes are computed and dropped, so padding can neither leak a NaN into
//! nor hide one from a real output).
//!
//! The workspace forbids `unsafe`, so there are no intrinsics and no
//! `mul_add`: the tile is a fixed-size array the autovectorizer keeps in
//! vector registers. The root `.cargo/config.toml` builds for the host CPU
//! (`target-cpu=native`), and `NR` is two registers of `f32` lanes for the
//! widest vector ISA the build targets: 32 with AVX-512, 16 with AVX2, 8 on
//! SSE2 baseline x86-64 — eight `zmm`, `ymm` or `xmm` accumulators. Rust
//! never contracts a `mul` and an `add` into an FMA, so the tile shape
//! changes speed, not bits. The fixed order makes repeated runs bitwise
//! identical, and the serial and overlapped training schedules (which share
//! this kernel) stay bitwise-equal by construction.

use crate::{ShapeError, Tensor2};

/// Rows of the register tile (`A` panel width).
const MR: usize = 4;
/// Columns of the register tile (`B` panel width): two vector registers
/// of `f32` lanes. A wider tile than that spills (DESIGN §8.1).
const NR: usize = if cfg!(target_feature = "avx512f") {
    32
} else if cfg!(target_feature = "avx2") {
    16
} else {
    8
};

/// Which product [`gemm`] computes from its row-major operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Form {
    /// `A (m x k) · B (k x n)`.
    Nn,
    /// `Aᵀ · B` for `A (k x m)`, `B (k x n)`.
    Tn,
    /// `A · Bᵀ` for `A (m x k)`, `B (n x k)`.
    Nt,
}

/// Packed-panel scratch, reused across calls so steady-state products do
/// not allocate: one `k x MR` panel of `A` (re-packed per tile row) and all
/// of `B` as `k x NR` panels.
#[derive(Debug, Clone, Default)]
pub(crate) struct Panels {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// The microkernel: `c[i][j] = Σ_p ap[p][i] * bp[p][j]`, summed in `p`
/// order from zero, one product per step.
#[inline]
fn micro(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut c = [[0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            for j in 0..NR {
                c[i][j] += a[i] * b[j];
            }
        }
    }
    c
}

/// Packs rows `r0..r0 + W` of the row-major `rows x k` matrix `src` as one
/// `k x W` panel (transposed), zero-padding past `rows`.
fn pack_rows<const W: usize>(src: &[f32], rows: usize, k: usize, r0: usize, panel: &mut [f32]) {
    let block = &src[r0 * k..rows.min(r0 + W) * k];
    if block.len() == panel.len() {
        // constant width: the W strided reads per step unroll
        for (p, lanes) in panel.chunks_exact_mut(W).enumerate() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = block[i * k + p];
            }
        }
    } else {
        panel.fill(0.0);
        for (i, row) in block.chunks_exact(k).enumerate() {
            for (lane, &v) in panel.iter_mut().skip(i).step_by(W).zip(row) {
                *lane = v;
            }
        }
    }
}

/// Packs columns `c0..c0 + W` of the row-major `k x cols` matrix `src` as
/// one `k x W` panel (copied), zero-padding past `cols`.
fn pack_cols<const W: usize>(src: &[f32], cols: usize, c0: usize, panel: &mut [f32]) {
    let lines = panel.chunks_exact_mut(W).zip(src.chunks_exact(cols));
    if c0 + W <= cols {
        // constant width: vector moves instead of a `memcpy` call
        for (lanes, row) in lines {
            lanes.copy_from_slice(&row[c0..c0 + W]);
        }
    } else {
        for (lanes, row) in lines {
            let w = cols - c0;
            lanes[..w].copy_from_slice(&row[c0..]);
            lanes[w..].fill(0.0);
        }
    }
}

/// A row-major matrix operand of [`gemm`]: its elements and its
/// `(rows, cols)`. A slice rather than a [`Tensor2`], so an
/// [`crate::mlp::Mlp`] multiplies by a layer's weights where they sit in
/// its flat parameter buffer.
pub(crate) type Operand<'a> = (&'a [f32], (usize, usize));

/// The driver under all three entry points: packs both operands, runs
/// [`micro`] on every tile and hands each finished tile row to
/// `emit(row, first_col, values)` exactly once, so the caller decides
/// whether a row is stored, transformed or accumulated.
///
/// # Errors
///
/// Returns [`ShapeError`] if the reduction dimensions disagree.
pub(crate) fn gemm(
    form: Form,
    (a, (a_rows, a_cols)): Operand,
    (b, (b_rows, b_cols)): Operand,
    ws: &mut Panels,
    mut emit: impl FnMut(usize, usize, &[f32]),
) -> crate::Result<()> {
    let (name, (m, k), (kb, n)) = match form {
        Form::Nn => ("matmul", (a_rows, a_cols), (b_rows, b_cols)),
        Form::Tn => ("matmul_at_b", (a_cols, a_rows), (b_rows, b_cols)),
        Form::Nt => ("matmul_a_bt", (a_rows, a_cols), (b_cols, b_rows)),
    };
    if k != kb {
        return Err(ShapeError::new(format!(
            "{name} {a_rows}x{a_cols} , {b_rows}x{b_cols}"
        )));
    }
    debug_assert!(a.len() == a_rows * a_cols && b.len() == b_rows * b_cols);
    crate::sanitize::check_finite("gemm input A", a);
    crate::sanitize::check_finite("gemm input B", b);
    ws.a.resize(MR * k, 0.0);
    ws.b.resize(n.div_ceil(NR) * NR * k, 0.0);
    for j0 in (0..n).step_by(NR) {
        let panel = &mut ws.b[j0 * k..(j0 + NR) * k];
        match form {
            Form::Nn | Form::Tn => pack_cols::<NR>(b, n, j0, panel),
            Form::Nt => pack_rows::<NR>(b, n, k, j0, panel),
        }
    }
    for i0 in (0..m).step_by(MR) {
        match form {
            Form::Nn | Form::Nt => pack_rows::<MR>(a, m, k, i0, &mut ws.a),
            Form::Tn => pack_cols::<MR>(a, m, i0, &mut ws.a),
        }
        for j0 in (0..n).step_by(NR) {
            let tile = micro(&ws.a, &ws.b[j0 * k..(j0 + NR) * k]);
            let w = NR.min(n - j0);
            for (i, row) in (i0..m).zip(&tile) {
                crate::sanitize::check_finite("gemm output", &row[..w]);
                emit(i, j0, &row[..w]);
            }
        }
    }
    Ok(())
}

/// Shared body of the public wrappers, whose contract is "returns a fresh
/// tensor": output and panels are allocated per call.
fn product(form: Form, a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    let (m, n) = match form {
        Form::Nn => (a.rows(), b.cols()),
        Form::Tn => (a.cols(), b.cols()),
        Form::Nt => (a.rows(), b.rows()),
    };
    let mut c = Tensor2::zeros(m, n);
    let mut panels: Panels = Default::default();
    gemm(form, a.operand(), b.operand(), &mut panels, |i, j0, acc| {
        c.row_mut(i)[j0..j0 + acc.len()].copy_from_slice(acc);
    })?;
    Ok(c)
}

/// `C (m x n) = A (m x k) · B (k x n)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use neo_tensor::{Tensor2, gemm};
/// let a = Tensor2::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// let b = Tensor2::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 10.0);
/// # Ok::<(), neo_tensor::ShapeError>(())
/// ```
pub fn matmul(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    product(Form::Nn, a, b)
}

/// `C (m x n) = Aᵀ · B` for `A (k x m)` and `B (k x n)` — the weight
/// gradient `dW = Xᵀ · dZ` of the backward pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    product(Form::Tn, a, b)
}

/// `C (m x n) = A · Bᵀ` for `A (m x k)` and `B (n x k)` — the input
/// gradient `dX = dZ · Wᵀ` of the backward pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    product(Form::Nt, a, b)
}

/// Number of floating-point operations a `m x k x n` GEMM performs
/// (multiply-add counted as two flops). Used by the benchmark ladder
/// (`benchmark/`) to report achieved GFLOP/s.
#[must_use]
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
/// The definition every product must reproduce bit for bit, and the oracle
/// of this module's and `mlp`'s tests: each output is the left-to-right
/// `f32` sum over the reduction index.
pub(crate) fn naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    let mut c = Tensor2::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            for p in 0..a.cols() {
                c[(i, j)] += a[(i, p)] * b[(p, j)];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values with full mantissas, so a different summation order rounds
    /// differently.
    fn val(i: usize, j: usize, salt: u64) -> f32 {
        let h = (i as u64 * 131 + j as u64 * 7 + salt * 17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.7
    }

    /// All three entry points against [`naive`], `==` on every element
    /// (transposing an operand moves data, it does not round).
    fn assert_all_variants_exact(a: &Tensor2, b: &Tensor2) {
        let want = naive(a, b);
        let shape = (a.rows(), a.cols(), b.cols());
        assert_eq!(matmul(a, b).unwrap(), want, "A·B {shape:?}");
        assert_eq!(
            matmul_at_b(&a.transposed(), b).unwrap(),
            want,
            "Aᵀ·B {shape:?}"
        );
        assert_eq!(
            matmul_a_bt(a, &b.transposed()).unwrap(),
            want,
            "A·Bᵀ {shape:?}"
        );
    }

    #[test]
    fn every_variant_is_bitwise_the_naive_loop_across_tile_edges() {
        let edges = [0, 1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * NR + 3];
        for &m in &edges {
            for &n in &edges {
                for k in [0, 1, 2, 7, 33] {
                    let a = Tensor2::from_fn(m, k, |i, j| val(i, j, 1));
                    let b = Tensor2::from_fn(k, n, |i, j| val(i, j, 2));
                    assert_all_variants_exact(&a, &b);
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (70, 130, 65)] {
            let a = Tensor2::from_fn(m, k, |i, j| val(i, j, 3));
            let b = Tensor2::from_fn(k, n, |i, j| val(i, j, 4));
            assert_all_variants_exact(&a, &b);
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Tensor2::from_fn(9, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let b = Tensor2::from_fn(9, 6, |i, j| (i + j) as f32 * 0.2 - 1.0);
        assert_eq!(matmul_at_b(&a, &b).unwrap(), naive(&a.transposed(), &b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = Tensor2::from_fn(5, 7, |i, j| (i * 7 + j) as f32 * 0.05);
        let b = Tensor2::from_fn(3, 7, |i, j| (i + 2 * j) as f32 * 0.1 - 0.5);
        assert_eq!(matmul_a_bt(&a, &b).unwrap(), naive(&a, &b.transposed()));
    }

    #[test]
    fn empty_reduction_yields_zeros_and_empty_outputs_do_not_panic() {
        let c = matmul(&Tensor2::zeros(5, 0), &Tensor2::zeros(0, 9)).unwrap();
        assert_eq!(c, Tensor2::zeros(5, 9));
        assert_eq!(
            matmul_at_b(&Tensor2::zeros(0, 5), &Tensor2::zeros(0, 9)).unwrap(),
            c
        );
        assert_eq!(
            matmul_a_bt(&Tensor2::zeros(5, 0), &Tensor2::zeros(9, 0)).unwrap(),
            c
        );
        assert_eq!(
            matmul(&Tensor2::zeros(0, 3), &Tensor2::zeros(3, 4))
                .unwrap()
                .shape(),
            (0, 4)
        );
        assert_eq!(
            matmul(&Tensor2::zeros(3, 4), &Tensor2::zeros(4, 0))
                .unwrap()
                .shape(),
            (3, 0)
        );
    }

    #[test]
    fn reused_panels_are_repacked_when_a_smaller_product_follows_a_larger_one() {
        // An `Mlp` keeps one `Panels` across layers and steps: stale lanes
        // of the larger product must not reach the smaller one, whose edge
        // panels are mostly padding.
        let mut panels = Panels::default();
        let big = Tensor2::from_fn(2 * NR + 3, 33, |i, j| val(i, j, 5));
        let a = Tensor2::from_fn(MR + 1, 7, |i, j| val(i, j, 6));
        let b = Tensor2::from_fn(7, NR + 1, |i, j| val(i, j, 7));
        for (form, x, y) in [
            (Form::Nn, &a, &b),
            (Form::Tn, &a.transposed(), &b),
            (Form::Nt, &a, &b.transposed()),
        ] {
            gemm(
                Form::Nn,
                big.operand(),
                big.transposed().operand(),
                &mut panels,
                |_, _, _| {},
            )
            .unwrap();
            let mut c = Tensor2::zeros(MR + 1, NR + 1);
            gemm(form, x.operand(), y.operand(), &mut panels, |i, j0, acc| {
                c.row_mut(i)[j0..j0 + acc.len()].copy_from_slice(acc);
            })
            .unwrap();
            assert_eq!(c, naive(&a, &b), "{form:?}");
        }
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn shape_checks_on_transpose_variants() {
        assert!(matmul_at_b(&Tensor2::zeros(3, 2), &Tensor2::zeros(4, 5)).is_err());
        assert!(matmul_a_bt(&Tensor2::zeros(3, 2), &Tensor2::zeros(4, 5)).is_err());
    }

    #[test]
    fn flops_counts_multiply_add() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    /// `A = 0 (m x k)` and `B (k x n)` with one `inf` in its last column,
    /// for `m = MR + 1`, `n = NR + 1`: the column's tile is one real lane
    /// beside `NR - 1` zero-padded ones, under a row panel that is one real
    /// row above `MR - 1` padded ones.
    fn zero_a_and_b_with_inf_in_edge_tile() -> (Tensor2, Tensor2) {
        let mut b = Tensor2::zeros(3, NR + 1);
        b[(1, NR)] = f32::INFINITY;
        (Tensor2::zeros(MR + 1, 3), b)
    }

    /// `0 * inf = NaN` must reach every output of column `NR` — a zero in
    /// `A` or in the padding must not mask it — and no other output: the
    /// NaNs the padded lanes compute are dropped with them.
    #[cfg(not(feature = "sanitize"))]
    fn assert_nan_in_last_column_only(c: &Tensor2) {
        assert_eq!(c.shape(), (MR + 1, NR + 1));
        for i in 0..c.rows() {
            assert!(c[(i, NR)].is_nan(), "0 * inf must propagate as NaN");
            assert!(c.row(i)[..NR].iter().all(|&v| v.to_bits() == 0), "row {i}");
        }
    }

    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn matmul_propagates_nonfinite_b_through_zero_a() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        assert_nan_in_last_column_only(&matmul(&a, &b).unwrap());
    }

    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn at_b_propagates_nonfinite_b_through_zero_a() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        assert_nan_in_last_column_only(&matmul_at_b(&a.transposed(), &b).unwrap());
    }

    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn a_bt_propagates_nonfinite_b_through_zero_a() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        assert_nan_in_last_column_only(&matmul_a_bt(&a, &b.transposed()).unwrap());
    }

    // With the sanitizer armed the non-finite input is caught at the kernel
    // boundary, before 0 * inf can even produce a NaN.
    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "sanitize: non-finite")]
    fn matmul_rejects_nonfinite_b_under_sanitize() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        matmul(&a, &b).ok();
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "sanitize: non-finite")]
    fn at_b_rejects_nonfinite_b_under_sanitize() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        matmul_at_b(&a.transposed(), &b).ok();
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "sanitize: non-finite")]
    fn a_bt_rejects_nonfinite_b_under_sanitize() {
        let (a, b) = zero_a_and_b_with_inf_in_edge_tile();
        matmul_a_bt(&a, &b.transposed()).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every entry point is bitwise the naive scalar reference, for
        /// arbitrary shapes spanning the tile remainders: up to three row
        /// tiles and a partial third column tile, whatever `NR` is.
        #[test]
        fn kernels_match_naive_reference(
            m in 0usize..3 * MR + 3,
            k in 0usize..40,
            n in 0usize..2 * NR + 4,
            seed in 0u64..1000,
        ) {
            let a = Tensor2::from_fn(m, k, |i, j| val(i, j, seed));
            let b = Tensor2::from_fn(k, n, |i, j| val(i, j, seed + 1));
            let want = naive(&a, &b);
            prop_assert_eq!(&matmul(&a, &b).unwrap(), &want);
            prop_assert_eq!(&matmul_at_b(&a.transposed(), &b).unwrap(), &want);
            prop_assert_eq!(&matmul_a_bt(&a, &b.transposed()).unwrap(), &want);
        }

        /// Repeated runs of every kernel are bitwise identical: there is no
        /// run-to-run nondeterminism for the schedules to diverge on.
        #[test]
        fn kernels_bitwise_self_consistent(
            m in 1usize..16,
            k in 1usize..34,
            n in 1usize..16,
            vals in proptest::collection::vec(-100i32..100, 1..8),
        ) {
            let pick = |i: usize, j: usize| {
                vals[(i * 31 + j * 7) % vals.len()] as f32 * 0.0625
            };
            let a = Tensor2::from_fn(m, k, pick);
            let b = Tensor2::from_fn(k, n, pick);
            let bt = b.transposed();
            let at = a.transposed();
            for _ in 0..2 {
                let c1 = matmul(&a, &b).unwrap();
                let c2 = matmul(&a, &b).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
                let c1 = matmul_at_b(&at, &b).unwrap();
                let c2 = matmul_at_b(&at, &b).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
                let c1 = matmul_a_bt(&a, &bt).unwrap();
                let c2 = matmul_a_bt(&a, &bt).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
            }
        }
    }
}
