//! Dot-product feature interaction.
//!
//! Given `F` feature vectors per sample (the bottom-MLP output plus one
//! pooled embedding per table, all of width `D`), the interaction emits the
//! `F·(F-1)/2` pairwise dot products — the second-order term of the DLRM
//! architecture.

use neo_tensor::{ShapeError, Tensor2};

/// Number of interaction outputs for `f` features.
#[must_use]
pub fn num_pairs(f: usize) -> usize {
    f * (f.saturating_sub(1)) / 2
}

/// Forward interaction: `out[b, k]` is `dot(features[i][b], features[j][b])`
/// for the `k`-th pair `(i, j)`, pairs ordered `(0,1), (0,2), ..., (1,2),
/// ...` (row-major upper triangle).
///
/// # Errors
///
/// Returns [`ShapeError`] if the features disagree on shape or none are
/// given.
#[expect(
    clippy::needless_range_loop,
    reason = "paired i<j index walk is clearest here"
)]
pub fn dot_interaction(features: &[&Tensor2]) -> Result<Tensor2, ShapeError> {
    let first = features
        .first()
        .ok_or_else(|| ShapeError::new("interaction of 0 features"))?;
    let (b, d) = first.shape();
    if features.iter().any(|t| t.shape() != (b, d)) {
        return Err(ShapeError::new("interaction features must share BxD shape"));
    }
    let f = features.len();
    let mut out = Tensor2::zeros(b, num_pairs(f));
    for row in 0..b {
        let mut k = 0;
        for i in 0..f {
            let zi = features[i].row(row);
            for j in (i + 1)..f {
                let zj = features[j].row(row);
                let mut acc = 0.0f32;
                for (a, c) in zi.iter().zip(zj) {
                    acc += a * c;
                }
                out[(row, k)] = acc;
                k += 1;
            }
        }
    }
    Ok(out)
}

/// Backward interaction: given `grad_out` (`B x F(F-1)/2`), returns the
/// gradient for each input feature (`d dot(zi, zj) / d zi = zj`).
///
/// # Errors
///
/// Returns [`ShapeError`] if the shapes are inconsistent with the forward
/// pass.
pub fn dot_interaction_backward(
    features: &[&Tensor2],
    grad_out: &Tensor2,
) -> Result<Vec<Tensor2>, ShapeError> {
    let first = features
        .first()
        .ok_or_else(|| ShapeError::new("interaction of 0 features"))?;
    let (b, d) = first.shape();
    let f = features.len();
    if grad_out.shape() != (b, num_pairs(f)) {
        return Err(ShapeError::new(format!(
            "interaction grad is {:?}, want ({b}, {})",
            grad_out.shape(),
            num_pairs(f)
        )));
    }
    let mut grads = vec![Tensor2::zeros(b, d); f];
    for row in 0..b {
        let mut k = 0;
        for i in 0..f {
            for j in (i + 1)..f {
                let g = grad_out[(row, k)];
                if g != 0.0 {
                    // gi += g * zj ; gj += g * zi
                    for (gi, &zj) in grads[i].row_mut(row).iter_mut().zip(features[j].row(row)) {
                        *gi += g * zj;
                    }
                    for (gj, &zi) in grads[j].row_mut(row).iter_mut().zip(features[i].row(row)) {
                        *gj += g * zi;
                    }
                }
                k += 1;
            }
        }
    }
    Ok(grads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_count() {
        assert_eq!(num_pairs(1), 0);
        assert_eq!(num_pairs(2), 1);
        assert_eq!(num_pairs(5), 10);
    }

    #[test]
    fn forward_matches_manual_dot() {
        let a = Tensor2::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor2::from_vec(1, 3, vec![0.5, -1.0, 2.0]).unwrap();
        let c = Tensor2::from_vec(1, 3, vec![1.0, 1.0, 1.0]).unwrap();
        let out = dot_interaction(&[&a, &b, &c]).unwrap();
        assert_eq!(out.shape(), (1, 3));
        assert_eq!(out[(0, 0)], 0.5 - 2.0 + 6.0); // a.b
        assert_eq!(out[(0, 1)], 6.0); // a.c
        assert_eq!(out[(0, 2)], 1.5); // b.c
    }

    #[test]
    fn shape_validation() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 4);
        assert!(dot_interaction(&[&a, &b]).is_err());
        assert!(dot_interaction(&[]).is_err());
        let g = Tensor2::zeros(2, 5);
        assert!(dot_interaction_backward(&[&a, &a], &g).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let f0 = Tensor2::from_fn(2, 3, |i, j| 0.1 * (i as f32 + 1.0) * (j as f32 - 1.0));
        let f1 = Tensor2::from_fn(2, 3, |i, j| 0.2 * (i as f32 - 0.5) + 0.1 * j as f32);
        let f2 = Tensor2::from_fn(2, 3, |i, j| ((i + j) % 3) as f32 * 0.3 - 0.2);
        let feats = [&f0, &f1, &f2];
        // loss = sum of all interaction outputs
        let ones = Tensor2::full(2, num_pairs(3), 1.0);
        let grads = dot_interaction_backward(&feats, &ones).unwrap();

        let eps = 1e-3;
        let loss = |fs: [&Tensor2; 3]| dot_interaction(&fs).unwrap().sum();
        for (which, f) in [&f0, &f1, &f2].into_iter().enumerate() {
            for i in 0..2 {
                for j in 0..3 {
                    let mut fp = f.clone();
                    fp[(i, j)] += eps;
                    let mut fm = f.clone();
                    fm[(i, j)] -= eps;
                    let mut arr_p = [&f0, &f1, &f2];
                    arr_p[which] = &fp;
                    let mut arr_m = [&f0, &f1, &f2];
                    arr_m[which] = &fm;
                    let fd = (loss(arr_p) - loss(arr_m)) / (2.0 * eps);
                    let an = grads[which][(i, j)];
                    assert!(
                        (fd - an).abs() < 1e-2,
                        "feat {which} [{i},{j}]: {fd} vs {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_grad_leaves_zero() {
        let a = Tensor2::full(1, 2, 1.0);
        let g = Tensor2::zeros(1, 1);
        let grads = dot_interaction_backward(&[&a, &a], &g).unwrap();
        assert!(grads.iter().all(|t| t.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn single_feature_has_no_interactions() {
        let a = Tensor2::full(3, 2, 1.0);
        let out = dot_interaction(&[&a]).unwrap();
        assert_eq!(out.shape(), (3, 0));
    }
}
