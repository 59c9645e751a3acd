//! Dense optimizers for the data-parallel MLP parameters.
//!
//! §4.1.2 calls out AdaGrad, LAMB and Adam as the advanced optimizers the
//! system must support with fully deterministic updates. The sparse
//! (embedding) versions live in `neo-embeddings`; these are their dense
//! counterparts. Each steps a flat parameter buffer in place from a flat
//! gradient buffer of the same layout — an [`crate::mlp::Mlp`]'s own, through
//! [`crate::mlp::Mlp::apply_optimizer`] — and no step allocates.
//!
//! LAMB normalizes its update *per layer* (trust ratio), so every
//! optimizer takes the parameter buffer's segment boundaries; SGD/AdaGrad/
//! Adam simply ignore them.

/// A deterministic dense optimizer over a flat parameter buffer.
pub trait DenseOptimizer: Send {
    /// Applies one update. `segments` are the exclusive end offsets of each
    /// layer's slice within the buffers (e.g. `[w0, w0+b0, ...]`); the last
    /// must equal `params.len()`.
    ///
    /// # Panics
    ///
    /// Implementations panic if buffer lengths disagree with each other,
    /// with the optimizer's state, or with `segments`.
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[usize]);

    /// Bytes of optimizer state.
    fn state_bytes(&self) -> u64;

    /// Optimizer name for reports.
    fn name(&self) -> &'static str;

    /// Updates the learning rate (for warmup/decay schedules).
    fn set_lr(&mut self, lr: f32);
}

fn check(params: &[f32], grads: &[f32], segments: &[usize]) {
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    crate::sanitize::check_finite("dense optimizer gradient", grads);
    assert_eq!(
        segments.last().copied().unwrap_or(0),
        params.len(),
        "segments must cover the whole buffer"
    );
    debug_assert!(
        segments.windows(2).all(|w| w[0] < w[1]),
        "segments must increase"
    );
}

/// Plain SGD: `p -= lr * g`.
#[derive(Debug, Clone)]
pub struct DenseSgd {
    lr: f32,
}

impl DenseSgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl DenseOptimizer for DenseSgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[usize]) {
        check(params, grads, segments);
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
        crate::sanitize::check_finite(self.name(), params);
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

/// Dense AdaGrad: `m += g^2; p -= lr * g / (sqrt(m) + eps)`.
#[derive(Debug, Clone)]
pub struct DenseAdagrad {
    lr: f32,
    eps: f32,
    moment: Vec<f32>,
}

impl DenseAdagrad {
    /// Creates AdaGrad state for `num_params` parameters.
    pub fn new(lr: f32, eps: f32, num_params: usize) -> Self {
        Self {
            lr,
            eps,
            moment: vec![0.0; num_params],
        }
    }
}

impl DenseOptimizer for DenseAdagrad {
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[usize]) {
        check(params, grads, segments);
        assert_eq!(params.len(), self.moment.len(), "adagrad state size");
        for ((p, &g), m) in params.iter_mut().zip(grads).zip(&mut self.moment) {
            *m += g * g;
            *p -= self.lr * g / (m.sqrt() + self.eps);
        }
        crate::sanitize::check_finite(self.name(), params);
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

/// Dense Adam with bias correction.
#[derive(Debug, Clone)]
pub struct DenseAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl DenseAdam {
    /// Creates Adam state with the standard `beta1=0.9`, `beta2=0.999`.
    pub fn new(lr: f32, eps: f32, num_params: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// Advances the moments and the step count by `grads` and returns the
    /// bias corrections `(1 - β1^t, 1 - β2^t)`.
    fn advance(&mut self, grads: &[f32]) -> (f32, f32) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        for ((m, v), &g) in self.m.iter_mut().zip(&mut self.v).zip(grads) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
        }
        (1.0 - b1.powi(self.t as i32), 1.0 - b2.powi(self.t as i32))
    }

    /// The update direction `m̂ / (√v̂ + ε)` of one element whose advanced
    /// moments are `m` and `v`.
    fn direction(&self, m: f32, v: f32, (bc1, bc2): (f32, f32)) -> f32 {
        (m / bc1) / ((v / bc2).sqrt() + self.eps)
    }
}

impl DenseOptimizer for DenseAdam {
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[usize]) {
        check(params, grads, segments);
        assert_eq!(params.len(), self.m.len(), "adam state size");
        let bc = self.advance(grads);
        for ((p, &m), &v) in params.iter_mut().zip(&self.m).zip(&self.v) {
            *p -= self.lr * self.direction(m, v, bc);
        }
        crate::sanitize::check_finite(self.name(), params);
    }

    fn state_bytes(&self) -> u64 {
        (self.m.len() + self.v.len()) as u64 * 4
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// LAMB ([You et al. 2019], cited for large-batch DLRM training): an Adam
/// update rescaled per layer by the trust ratio `||p|| / ||u||`.
#[derive(Debug, Clone)]
pub struct DenseLamb {
    inner: DenseAdam,
    lr: f32,
    weight_decay: f32,
}

impl DenseLamb {
    /// Creates LAMB state (Adam moments + per-layer trust scaling).
    pub fn new(lr: f32, eps: f32, weight_decay: f32, num_params: usize) -> Self {
        Self {
            inner: DenseAdam::new(1.0, eps, num_params),
            lr,
            weight_decay,
        }
    }
}

impl DenseOptimizer for DenseLamb {
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[usize]) {
        check(params, grads, segments);
        assert_eq!(params.len(), self.inner.m.len(), "lamb state size");
        let bc = self.inner.advance(grads);
        let (adam, lr, weight_decay) = (&self.inner, self.lr, self.weight_decay);
        // the Adam direction plus decoupled weight decay, recomputed from
        // the advanced moments where it is needed instead of stored
        let step_of = |p: f32, m: f32, v: f32| {
            let u = adam.direction(m, v, bc);
            if weight_decay != 0.0 {
                u + weight_decay * p
            } else {
                u
            }
        };
        let mut start = 0;
        for &end in segments {
            let (params, m, v) = (
                &mut params[start..end],
                &adam.m[start..end],
                &adam.v[start..end],
            );
            // both norms sum their squares left to right
            let p_norm = params.iter().fold(0.0f32, |acc, &p| acc + p * p).sqrt();
            let u_norm = (params.iter().zip(m).zip(v))
                .fold(0.0f32, |acc, ((&p, &m), &v)| {
                    let u = step_of(p, m, v);
                    acc + u * u
                })
                .sqrt();
            let trust = if p_norm > 0.0 && u_norm > 0.0 {
                p_norm / u_norm
            } else {
                1.0
            };
            for ((p, &m), &v) in params.iter_mut().zip(m).zip(v) {
                *p -= lr * trust * step_of(*p, m, v);
            }
            start = end;
        }
        crate::sanitize::check_finite(self.name(), params);
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn name(&self) -> &'static str {
        "lamb"
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descends(opt: &mut dyn DenseOptimizer, steps: usize) -> f32 {
        // minimize sum((p - 1)^2) from p = 0
        let mut params = vec![0.0f32; 6];
        let segments = [4usize, 6];
        for _ in 0..steps {
            let grads: Vec<f32> = params.iter().map(|p| 2.0 * (p - 1.0)).collect();
            opt.step(&mut params, &grads, &segments);
        }
        params.iter().map(|p| (p - 1.0) * (p - 1.0)).sum()
    }

    #[test]
    fn all_optimizers_descend() {
        assert!(quadratic_descends(&mut DenseSgd::new(0.1), 50) < 1e-4);
        assert!(quadratic_descends(&mut DenseAdagrad::new(0.5, 1e-8, 6), 200) < 1e-2);
        assert!(quadratic_descends(&mut DenseAdam::new(0.05, 1e-8, 6), 300) < 1e-2);
        assert!(quadratic_descends(&mut DenseLamb::new(0.05, 1e-8, 0.0, 6), 300) < 1e-2);
    }

    #[test]
    fn sgd_matches_manual() {
        let mut opt = DenseSgd::new(0.5);
        let mut p = vec![1.0f32, 2.0];
        opt.step(&mut p, &[0.2, -0.4], &[2]);
        assert_eq!(p, vec![0.9, 2.2]);
    }

    #[test]
    fn adagrad_first_step_is_lr_sign() {
        let mut opt = DenseAdagrad::new(0.1, 0.0, 2);
        let mut p = vec![0.0f32; 2];
        opt.step(&mut p, &[3.0, -7.0], &[2]);
        // g / sqrt(g^2) = sign(g)
        assert!((p[0] + 0.1).abs() < 1e-6);
        assert!((p[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sign() {
        let mut opt = DenseAdam::new(0.01, 1e-12, 2);
        let mut p = vec![0.0f32; 2];
        opt.step(&mut p, &[5.0, -0.001], &[2]);
        assert!((p[0] + 0.01).abs() < 1e-5, "{}", p[0]);
        assert!((p[1] - 0.01).abs() < 1e-5, "{}", p[1]);
    }

    #[test]
    fn lamb_trust_ratio_scales_per_segment() {
        // segment 0 has big params (trust ratio amplifies), segment 1 small
        let mut opt = DenseLamb::new(0.1, 1e-12, 0.0, 4);
        let mut p = vec![10.0f32, 10.0, 0.01, 0.01];
        let before = p.clone();
        opt.step(&mut p, &[1.0, 1.0, 1.0, 1.0], &[2, 4]);
        let step0 = (before[0] - p[0]).abs();
        let step1 = (before[2] - p[2]).abs();
        assert!(
            step0 > 50.0 * step1,
            "layer-wise scaling: {step0} vs {step1}"
        );
    }

    #[test]
    fn lamb_weight_decay_pulls_toward_zero() {
        let mut opt = DenseLamb::new(0.1, 1e-8, 0.1, 2);
        let mut p = vec![5.0f32, -5.0];
        for _ in 0..200 {
            opt.step(&mut p, &[0.0, 0.0], &[2]);
        }
        assert!(p[0].abs() < 5.0 && p[1].abs() < 5.0);
    }

    #[test]
    fn state_sizes() {
        assert_eq!(DenseSgd::new(0.1).state_bytes(), 0);
        assert_eq!(DenseAdagrad::new(0.1, 0.0, 10).state_bytes(), 40);
        assert_eq!(DenseAdam::new(0.1, 0.0, 10).state_bytes(), 80);
        assert_eq!(DenseLamb::new(0.1, 0.0, 0.0, 10).state_bytes(), 80);
        assert_eq!(DenseLamb::new(0.1, 0.0, 0.0, 10).name(), "lamb");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_checked() {
        DenseSgd::new(0.1).step(&mut [0.0], &[0.0, 0.0], &[1]);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut opt = DenseAdam::new(0.01, 1e-8, 4);
            let mut p = vec![0.5f32; 4];
            for k in 0..50 {
                let g: Vec<f32> = p.iter().map(|x| (x * k as f32).sin() * 0.1).collect();
                opt.step(&mut p, &g, &[4]);
            }
            p
        };
        assert_eq!(run(), run());
    }
}
