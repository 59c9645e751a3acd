//! Cache-blocked general matrix multiply and the transpose variants used by
//! MLP back-propagation.
//!
//! The original system delegates these to cuBLAS (`GemmEx`). The pure-Rust
//! kernels here use register-tiled micro-kernels over cache-sized blocks —
//! enough to keep the functional benchmarks honest while staying portable.
//!
//! The workspace forbids `unsafe`, so there are no intrinsics: the
//! micro-kernels ([`axpy4`], [`dot4`]) are written as fixed-width lane
//! arrays over `chunks_exact` blocks, a shape the autovectorizer lowers to
//! SIMD on every target that has it. Each kernel accumulates in one fixed
//! order, so repeated runs are bitwise identical and the serial and
//! overlapped training schedules (which share these kernels) stay
//! bitwise-equal by construction.

use crate::{ShapeError, Tensor2};

/// Row-block size for the outer loop (fits comfortably in L2).
const MC: usize = 64;
/// Depth-block size.
const KC: usize = 128;
/// Micro-kernel lane width: accumulators are `[f32; LANE]` blocks walked
/// with `chunks_exact`, which the autovectorizer maps onto 256-bit vector
/// registers (or two 128-bit ones) without any `unsafe`.
const LANE: usize = 8;

/// Rank-1x4 micro-kernel:
/// `c[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]` over full
/// `LANE` blocks, scalar on the tail. The four products are summed
/// left-to-right, so the accumulation order is fixed.
#[inline]
fn axpy4(c: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let n = c.len();
    let split = n - n % LANE;
    let (c_body, c_tail) = c.split_at_mut(split);
    for (blk, cl) in c_body.chunks_exact_mut(LANE).enumerate() {
        let base = blk * LANE;
        let b0l = &b0[base..base + LANE];
        let b1l = &b1[base..base + LANE];
        let b2l = &b2[base..base + LANE];
        let b3l = &b3[base..base + LANE];
        for l in 0..LANE {
            cl[l] += a[0] * b0l[l] + a[1] * b1l[l] + a[2] * b2l[l] + a[3] * b3l[l];
        }
    }
    for (t, cval) in c_tail.iter_mut().enumerate() {
        let j = split + t;
        *cval += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
    }
}

/// Rank-1 micro-kernel: `c[j] += a * b[j]`, lane blocks + scalar tail.
#[inline]
fn axpy1(c: &mut [f32], a: f32, b: &[f32]) {
    let n = c.len();
    let split = n - n % LANE;
    let (c_body, c_tail) = c.split_at_mut(split);
    for (cl, bl) in c_body.chunks_exact_mut(LANE).zip(b.chunks_exact(LANE)) {
        for l in 0..LANE {
            cl[l] += a * bl[l];
        }
    }
    for (cval, &bval) in c_tail.iter_mut().zip(&b[split..]) {
        *cval += a * bval;
    }
}

/// Dot-product micro-kernel: one `a` row against four `b` rows at once,
/// reusing each `a` lane load fourfold. Each of the four dot products keeps
/// `LANE` partial sums that are reduced sequentially (fixed order), then the
/// scalar tail is added — deterministic for a given shape.
#[inline]
fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let k = a.len();
    let split = k - k % LANE;
    let mut acc = [[0.0f32; LANE]; 4];
    for (blk, al) in a[..split].chunks_exact(LANE).enumerate() {
        let base = blk * LANE;
        let rows = [
            &b0[base..base + LANE],
            &b1[base..base + LANE],
            &b2[base..base + LANE],
            &b3[base..base + LANE],
        ];
        for (accq, bl) in acc.iter_mut().zip(rows) {
            for l in 0..LANE {
                accq[l] += al[l] * bl[l];
            }
        }
    }
    let mut out = [0.0f32; 4];
    for (q, accq) in acc.iter().enumerate() {
        let mut s = 0.0f32;
        for &v in accq {
            s += v;
        }
        let b = [b0, b1, b2, b3][q];
        for j in split..k {
            s += a[j] * b[j];
        }
        out[q] = s;
    }
    out
}

/// Single-row dot product with the same lane layout as [`dot4`].
#[inline]
fn dot1(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let split = k - k % LANE;
    let mut acc = [0.0f32; LANE];
    for (al, bl) in a[..split]
        .chunks_exact(LANE)
        .zip(b[..split].chunks_exact(LANE))
    {
        for l in 0..LANE {
            acc[l] += al[l] * bl[l];
        }
    }
    let mut s = 0.0f32;
    for &v in &acc {
        s += v;
    }
    for j in split..k {
        s += a[j] * b[j];
    }
    s
}

/// `C = A (m x k) * B (k x n)`.
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
    if a.cols() != b.rows() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul input A", a.as_slice());
    crate::sanitize::check_finite("matmul input B", b.as_slice());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor2::zeros(m, n);
    gemm_blocked(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    crate::sanitize::check_finite("matmul output", c.as_slice());
    Ok(c)
}

/// `C = A^T (k x m)^T=(m x k)... ` more precisely: given `A (k x m)` and
/// `B (k x n)`, computes `C (m x n) = A^T * B`.
///
/// Used for the weight gradient `dW = X^T * dY` in the backward pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    if a.rows() != b.rows() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul_at_b {}x{} , {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul_at_b input A", a.as_slice());
    crate::sanitize::check_finite("matmul_at_b input B", b.as_slice());
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Tensor2::zeros(m, n);
    // C[i][j] = sum_p A[p][i] * B[p][j]; iterate p outermost for stride-1
    // access on both inputs, four rank-1 updates fused per pass so each C
    // row is read/written a quarter as often. No zero-skip on A: a branch
    // in the hot loop defeats vectorization, and skipping would silently
    // drop NaN/Inf propagation from B (0 * inf = NaN) — the sanitize
    // feature now checks the inputs instead.
    let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    let mut p = 0;
    while p + 4 <= k {
        let a0r = &av[p * m..(p + 1) * m];
        let a1r = &av[(p + 1) * m..(p + 2) * m];
        let a2r = &av[(p + 2) * m..(p + 3) * m];
        let a3r = &av[(p + 3) * m..(p + 4) * m];
        let b0r = &bv[p * n..(p + 1) * n];
        let b1r = &bv[(p + 1) * n..(p + 2) * n];
        let b2r = &bv[(p + 2) * n..(p + 3) * n];
        let b3r = &bv[(p + 3) * n..(p + 4) * n];
        for i in 0..m {
            let crow = &mut cv[i * n..(i + 1) * n];
            axpy4(crow, [a0r[i], a1r[i], a2r[i], a3r[i]], b0r, b1r, b2r, b3r);
        }
        p += 4;
    }
    while p < k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            axpy1(&mut cv[i * n..(i + 1) * n], aval, brow);
        }
        p += 1;
    }
    crate::sanitize::check_finite("matmul_at_b output", c.as_slice());
    Ok(c)
}

/// Given `A (m x k)` and `B (n x k)`, computes `C (m x n) = A * B^T`.
///
/// Used for the input gradient `dX = dY * W^T` (weights stored `out x in`
/// would be `W`, here we keep weights `in x out` so this handles the other
/// convention) and for the pairwise dot-product feature interaction
/// `X * X^T`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    if a.cols() != b.cols() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul_a_bt {}x{} , {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul_a_bt input A", a.as_slice());
    crate::sanitize::check_finite("matmul_a_bt input B", b.as_slice());
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Tensor2::zeros(m, n);
    let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let crow = &mut cv[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let d = dot4(
                arow,
                &bv[j * k..(j + 1) * k],
                &bv[(j + 1) * k..(j + 2) * k],
                &bv[(j + 2) * k..(j + 3) * k],
                &bv[(j + 3) * k..(j + 4) * k],
            );
            crow[j..j + 4].copy_from_slice(&d);
            j += 4;
        }
        while j < n {
            crow[j] = dot1(arow, &bv[j * k..(j + 1) * k]);
            j += 1;
        }
    }
    crate::sanitize::check_finite("matmul_a_bt output", c.as_slice());
    Ok(c)
}

/// Number of floating-point operations a `m x k x n` GEMM performs
/// (multiply-add counted as two flops). Used by the benchmark ladder
/// (`benchmark/`) to report achieved GFLOP/s.
#[must_use]
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Blocked inner kernel: `c (m x n) += a (m x k) * b (k x n)`, all row-major.
fn gemm_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for ic in (0..m).step_by(MC) {
        let mb = MC.min(m - ic);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            for i in 0..mb {
                let arow = &a[(ic + i) * k + pc..(ic + i) * k + pc + kb];
                let crow = &mut c[(ic + i) * n..(ic + i) * n + n];
                // 4-way fused rank-1 accumulation over the depth block.
                let mut p = 0;
                while p + 4 <= kb {
                    axpy4(
                        crow,
                        [arow[p], arow[p + 1], arow[p + 2], arow[p + 3]],
                        &b[(pc + p) * n..(pc + p) * n + n],
                        &b[(pc + p + 1) * n..(pc + p + 1) * n + n],
                        &b[(pc + p + 2) * n..(pc + p + 2) * n + n],
                        &b[(pc + p + 3) * n..(pc + p + 3) * n + n],
                    );
                    p += 4;
                }
                while p < kb {
                    axpy1(crow, arow[p], &b[(pc + p) * n..(pc + p) * n + n]);
                    p += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let mut c = Tensor2::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (70, 130, 65)] {
            let a = Tensor2::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
            let b = Tensor2::from_fn(k, n, |i, j| ((i * 5 + j * 2) % 13) as f32 - 6.0);
            let got = matmul(&a, &b).unwrap();
            let want = naive(&a, &b);
            assert!(got.max_abs_diff(&want).unwrap() < 1e-3, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Tensor2::from_fn(9, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let b = Tensor2::from_fn(9, 6, |i, j| (i + j) as f32 * 0.2 - 1.0);
        let got = matmul_at_b(&a, &b).unwrap();
        let want = matmul(&a.transposed(), &b).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-4);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = Tensor2::from_fn(5, 7, |i, j| (i * 7 + j) as f32 * 0.05);
        let b = Tensor2::from_fn(3, 7, |i, j| (i + 2 * j) as f32 * 0.1 - 0.5);
        let got = matmul_a_bt(&a, &b).unwrap();
        let want = matmul(&a, &b.transposed()).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-4);
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

    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn at_b_propagates_nonfinite_b_through_zero_a() {
        // A zero in A must not mask a non-finite B value: 0 * inf = NaN,
        // which the (sanitize-off) kernel carries into the output instead
        // of silently skipping the update.
        let a = Tensor2::zeros(3, 2); // k=3, m=2
        let mut b = Tensor2::zeros(3, 4);
        b[(1, 2)] = f32::INFINITY;
        let c = matmul_at_b(&a, &b).unwrap();
        assert!(c[(0, 2)].is_nan(), "0 * inf must propagate as NaN");
        assert!(c[(1, 2)].is_nan());
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "sanitize: non-finite")]
    fn at_b_rejects_nonfinite_b_under_sanitize() {
        // With the sanitizer armed the non-finite input is caught at the
        // kernel boundary, before 0 * inf can even produce a NaN.
        let mut b = Tensor2::zeros(3, 4);
        b[(1, 2)] = f32::INFINITY;
        let _ = matmul_at_b(&Tensor2::zeros(3, 2), &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every kernel matches the naive scalar reference within epsilon,
        /// for arbitrary shapes spanning the lane/unroll remainders.
        #[test]
        fn kernels_match_naive_reference(
            m in 1usize..20,
            k in 1usize..40,
            n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let val = |i: usize, j: usize, salt: u64| {
                (((seed * 31 + salt * 17 + (i * 131 + j * 7) as u64) % 41) as f32 - 20.0) * 0.125
            };
            let a = Tensor2::from_fn(m, k, |i, j| val(i, j, 1));
            let b = Tensor2::from_fn(k, n, |i, j| val(i, j, 2));
            let want = naive(&a, &b);
            let scale = 1e-4 * k as f32;

            let got = matmul(&a, &b).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);

            let got = matmul_at_b(&a.transposed(), &b).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);

            let got = matmul_a_bt(&a, &b.transposed()).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);
        }

        /// Repeated runs of every kernel are bitwise identical: the lane
        /// accumulators reduce in one fixed order, so there is no
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
