//! Fully-connected (MLP) layers with explicit forward/backward passes.
//!
//! DLRMs contain a *bottom* MLP that embeds dense features and a *top* MLP
//! that scores the feature interactions (§2 of the paper). Both are plain
//! stacks of `Linear -> activation` layers; in the data-parallel dimension
//! their gradients are synchronized with AllReduce and every rank applies
//! one deterministic dense step.
//!
//! An [`Mlp`] therefore stores its parameters in one flat buffer and its
//! gradients in another of the same layout: layer order, each layer's `W`
//! (`in x out`, row-major) then its `b`. The layers compute straight out of
//! and into those buffers. The trainer reduces [`Mlp::grads`] as one
//! bucket, and [`Mlp::apply_optimizer`] — the only dense update — steps
//! [`Mlp::params`] in place over [`Mlp::param_segments`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gemm::{gemm, Form, Operand, Panels};
use crate::optim::DenseOptimizer;
use crate::{init, ShapeError, Tensor2};

/// Element-wise nonlinearity applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — used by every hidden layer in the paper's MLP bench.
    Relu,
    /// Logistic sigmoid — used on the final CTR output.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer `y = act(x W + b)`: where its `W` and then its `b` start
/// in the owning [`Mlp`]'s flat buffers, and their shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Linear {
    /// `(in_dim, out_dim)`, the shape of `W`; `b` is `out_dim` long.
    shape: (usize, usize),
    act: Activation,
    off: usize,
}

impl Linear {
    /// Number of trainable parameters (weights + bias).
    fn num_params(&self) -> usize {
        (self.shape.0 + 1) * self.shape.1
    }

    /// This layer's `(W, b)` in a buffer laid out like the MLP's.
    fn split<'a>(&self, buf: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        buf[self.off..self.off + self.num_params()].split_at(self.shape.0 * self.shape.1)
    }

    /// `W` as a GEMM operand, from a buffer laid out like the MLP's.
    fn weights<'a>(&self, params: &'a [f32]) -> Operand<'a> {
        (self.split(params).0, self.shape)
    }

    /// [`Linear::split`] for writing.
    fn split_mut<'a>(&self, buf: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32]) {
        buf[self.off..self.off + self.num_params()].split_at_mut(self.shape.0 * self.shape.1)
    }

    /// Writes `act(x W + b)` into `y` (resized to fit), reading `W` and `b`
    /// from `params`. Bias and activation are applied as each GEMM tile row
    /// is stored, so `y` is written exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the layer's input dimension.
    fn forward_into(&self, params: &[f32], x: &Tensor2, y: &mut Tensor2, panels: &mut Panels) {
        crate::sanitize::check_shape("linear forward input", x.shape(), (x.rows(), self.shape.0));
        y.resize(x.rows(), self.shape.1);
        let (act, w, bias) = (self.act, self.weights(params), self.split(params).1);
        let stored = gemm(Form::Nn, x.operand(), w, panels, |i, j0, acc| {
            let out = &mut y.row_mut(i)[j0..j0 + acc.len()];
            for ((v, &s), &b) in out.iter_mut().zip(acc).zip(&bias[j0..]) {
                *v = act.apply(s + b);
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "shape contract documented under # Panics"
        )]
        stored.expect("linear forward shape");
        crate::sanitize::check_finite("mlp activation output", y.as_slice());
    }
}

/// Configuration of an MLP stack.
///
/// # Example
///
/// ```
/// use neo_tensor::mlp::{MlpConfig, Activation};
/// let cfg = MlpConfig::new(13, &[512, 256, 64], Activation::Relu);
/// assert_eq!(cfg.output_dim(), 64);
/// assert!(cfg.flops_per_sample() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Output width of each successive layer.
    pub layer_sizes: Vec<usize>,
    /// Activation for the hidden layers.
    pub hidden_activation: Activation,
    /// Activation for the final layer (defaults to the hidden activation).
    pub final_activation: Activation,
}

impl MlpConfig {
    /// Creates a config where every layer, including the last, uses `act`.
    pub fn new(input_dim: usize, layer_sizes: &[usize], act: Activation) -> Self {
        Self {
            input_dim,
            layer_sizes: layer_sizes.to_vec(),
            hidden_activation: act,
            final_activation: act,
        }
    }

    /// Sets a distinct final-layer activation (builder style).
    #[must_use]
    pub fn with_final_activation(mut self, act: Activation) -> Self {
        self.final_activation = act;
        self
    }

    /// Width of the final layer (or the input if there are no layers).
    pub fn output_dim(&self) -> usize {
        self.layer_sizes.last().copied().unwrap_or(self.input_dim)
    }

    /// Forward flops per sample (2·in·out per layer, matching
    /// [`crate::gemm::gemm_flops`] with batch 1).
    pub fn flops_per_sample(&self) -> u64 {
        let mut flops = 0u64;
        let mut prev = self.input_dim as u64;
        for &w in &self.layer_sizes {
            flops += 2 * prev * w as u64;
            prev = w as u64;
        }
        flops
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> u64 {
        let mut n = 0u64;
        let mut prev = self.input_dim as u64;
        for &w in &self.layer_sizes {
            n += prev * w as u64 + w as u64;
            prev = w as u64;
        }
        n
    }
}

/// Step state an [`Mlp`] keeps between calls so that, after the first step
/// at a batch size, `forward` and the backward passes allocate only the
/// tensor they return.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// `acts[0]` is a copy of the input, `acts[l + 1]` layer `l`'s output —
    /// which backward overwrites with the layer's pre-activation gradient.
    acts: Vec<Tensor2>,
    /// Input gradient handed from a layer to the one below it.
    dx: Tensor2,
    panels: Panels,
    /// `acts` holds a forward pass no backward has consumed yet.
    live: bool,
}

/// A stack of `y = act(x W + b)` layers whose parameters and gradients are
/// two flat buffers in the module's layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    params: Vec<f32>,
    grads: Vec<f32>,
    /// Exclusive end of every `W` and every `b` in the flat buffers.
    segments: Vec<usize>,
    #[serde(skip)]
    ws: Workspace,
}

impl Mlp {
    /// Builds the MLP described by `cfg`: Xavier-initialized weights drawn
    /// from `rng` layer by layer, zero biases and zero gradients.
    pub fn new(cfg: &MlpConfig, rng: &mut impl Rng) -> Self {
        let mut mlp = Self {
            layers: Default::default(),
            params: Default::default(),
            grads: Default::default(),
            segments: Default::default(),
            ws: Default::default(),
        };
        let mut in_dim = cfg.input_dim;
        for (idx, &out_dim) in cfg.layer_sizes.iter().enumerate() {
            let act = if idx + 1 == cfg.layer_sizes.len() {
                cfg.final_activation
            } else {
                cfg.hidden_activation
            };
            let (shape, off) = ((in_dim, out_dim), mlp.params.len());
            mlp.layers.push(Linear { shape, act, off });
            mlp.params
                .extend_from_slice(init::xavier_uniform(in_dim, out_dim, rng).as_slice());
            mlp.segments.push(mlp.params.len());
            mlp.params.resize(mlp.params.len() + out_dim, 0.0);
            mlp.segments.push(mlp.params.len());
            in_dim = out_dim;
        }
        mlp.grads.resize(mlp.params.len(), 0.0);
        mlp
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass with caching for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the configured input dimension.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let ws = &mut self.ws;
        let n = self.layers.len();
        ws.acts.resize_with(n + 1, Tensor2::default);
        ws.acts[0].copy_from(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let (below, above) = ws.acts.split_at_mut(l + 1);
            layer.forward_into(&self.params, &below[l], &mut above[0], &mut ws.panels);
        }
        ws.live = true;
        let mut y = Tensor2::zeros(0, 0);
        y.copy_from(&ws.acts[n]);
        y
    }

    /// Forward pass without caching: leaves the activations a `forward`
    /// cached for its `backward` untouched.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the configured input dimension.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut h = Tensor2::zeros(0, 0);
        let Some((first, rest)) = self.layers.split_first() else {
            h.copy_from(x);
            return h;
        };
        let (mut panels, mut y): (Panels, _) = (Default::default(), Tensor2::zeros(0, 0));
        first.forward_into(&self.params, x, &mut h, &mut panels);
        for layer in rest {
            layer.forward_into(&self.params, &h, &mut y, &mut panels);
            std::mem::swap(&mut h, &mut y);
        }
        h
    }

    /// Backward pass: consumes the cached activations, accumulates every
    /// layer's `dw`/`db` and returns the gradient w.r.t. the original input.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first or `dy` has
    /// the wrong shape.
    pub fn backward(&mut self, dy: &Tensor2) -> crate::Result<Tensor2> {
        self.backward_params(dy)?;
        let mut dx = Tensor2::zeros(0, 0);
        let Some(layer) = self.layers.first() else {
            dx.copy_from(dy);
            return Ok(dx);
        };
        // `backward_params` left layer 0's pre-activation gradient in `acts[1]`
        let (panels, dz) = (&mut self.ws.panels, &self.ws.acts[1]);
        dx.resize(dz.rows(), layer.shape.0);
        let w = layer.weights(&self.params);
        gemm(Form::Nt, dz.operand(), w, panels, |i, j0, acc| {
            dx.row_mut(i)[j0..j0 + acc.len()].copy_from_slice(acc);
        })?;
        Ok(dx)
    }

    /// [`Mlp::backward`] without the input gradient, for a stack whose input
    /// is data (the bottom MLP): the same `dw`/`db`, bit for bit, minus
    /// layer 0's `dZ · Wᵀ` product.
    ///
    /// Per layer, top down: `dz = g · act'(y)` written over the cached `y`,
    /// `dw += xᵀ · dz` (accumulated as the GEMM tiles finish), `db +=` the
    /// column sums of `dz` in row order, then `g = dz · wᵀ` for the layer
    /// below.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first or `dy` has
    /// the wrong shape.
    pub fn backward_params(&mut self, dy: &Tensor2) -> crate::Result<()> {
        let ws = &mut self.ws;
        if !std::mem::take(&mut ws.live) {
            return Err(ShapeError::new("backward without forward"));
        }
        let n = self.layers.len();
        if dy.shape() != ws.acts[n].shape() {
            return Err(ShapeError::new("dy shape mismatch in mlp backward"));
        }
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (below, above) = ws.acts.split_at_mut(l + 1);
            let (x, dz) = (&below[l], &mut above[0]);
            let g = if l + 1 == n { dy } else { &ws.dx };
            for (d, &g) in dz.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *d = g * layer.act.grad_from_output(*d);
            }
            crate::sanitize::check_finite("mlp pre-activation gradient", dz.as_slice());
            let ((dw, db), cols) = (layer.split_mut(&mut self.grads), layer.shape.1);
            let panels = &mut ws.panels;
            gemm(Form::Tn, x.operand(), dz.operand(), panels, |i, j0, acc| {
                for (d, &s) in dw[i * cols + j0..].iter_mut().zip(acc) {
                    *d += s;
                }
            })?;
            for i in 0..dz.rows() {
                for (acc, &g) in db.iter_mut().zip(dz.row(i)) {
                    *acc += g;
                }
            }
            if l > 0 {
                let (dx, w) = (&mut ws.dx, layer.weights(&self.params));
                dx.resize(dz.rows(), layer.shape.0);
                gemm(Form::Nt, dz.operand(), w, panels, |i, j0, acc| {
                    dx.row_mut(i)[j0..j0 + acc.len()].copy_from_slice(acc);
                })?;
            }
        }
        Ok(())
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Every parameter, in the module's layout.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Every parameter, for writing (the parameter-server baseline's stale
    /// snapshots).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The gradients accumulated since the last step, in the parameters'
    /// layout: the buffer the data-parallel trainer all-reduces.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The gradients, for writing (installing the all-reduced sum).
    pub fn grads_mut(&mut self) -> &mut [f32] {
        &mut self.grads
    }

    /// Exclusive end offsets of each weight/bias slice within the flat
    /// buffers — the segment boundaries layer-wise optimizers (LAMB)
    /// normalize over.
    pub fn param_segments(&self) -> &[usize] {
        &self.segments
    }

    /// Steps the parameters in place with any [`DenseOptimizer`] and the
    /// accumulated gradients, then clears the gradients. It allocates and
    /// copies nothing, and it is the only dense update.
    pub fn apply_optimizer(&mut self, opt: &mut dyn DenseOptimizer) {
        opt.step(&mut self.params, &self.grads, &self.segments);
        crate::sanitize::check_finite("optimizer-updated parameters", &self.params);
        self.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive;
    use crate::optim::DenseSgd;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn forward_shapes() {
        let cfg = MlpConfig::new(6, &[10, 3], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(5, 6, |i, j| (i + j) as f32 * 0.1);
        assert_eq!(mlp.forward(&x).shape(), (5, 3));
        assert_eq!(mlp.num_layers(), 2);
    }

    #[test]
    fn relu_clamps_negative() {
        let mut mlp = Mlp::new(&MlpConfig::new(1, &[1], Activation::Relu), &mut rng());
        // force negative output
        mlp.params_mut().copy_from_slice(&[-10.0, 0.0]);
        let y = mlp.forward_inference(&Tensor2::full(1, 1, 1.0));
        assert_eq!(y[(0, 0)], 0.0);
    }

    #[test]
    fn sigmoid_in_unit_interval() {
        let cfg =
            MlpConfig::new(4, &[8, 1], Activation::Relu).with_final_activation(Activation::Sigmoid);
        let mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(16, 4, |i, j| (i as f32 - 8.0) * (j as f32 + 1.0) * 0.05);
        let y = mlp.forward_inference(&x);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn backward_requires_forward() {
        let cfg = MlpConfig::new(2, &[2], Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        assert!(mlp.backward(&Tensor2::zeros(1, 2)).is_err());
    }

    /// Finite-difference check of the full MLP gradient.
    #[test]
    fn gradients_match_finite_differences() {
        let cfg = MlpConfig::new(3, &[4, 2], Activation::Sigmoid);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(2, 3, |i, j| 0.3 * (i as f32) - 0.2 * (j as f32) + 0.1);

        // loss = sum(y); dL/dy = ones
        let y = mlp.forward(&x);
        let dy = Tensor2::full(y.rows(), y.cols(), 1.0);
        let dx = mlp.backward(&dy).unwrap();

        let eps = 1e-3;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let fp = mlp.forward_inference(&xp).sum();
                let fm = mlp.forward_inference(&xm).sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (fd - dx[(i, j)]).abs() < 1e-2,
                    "dx[{i},{j}]: fd {fd} vs analytic {}",
                    dx[(i, j)]
                );
            }
        }
    }

    /// Finite-difference check of a weight gradient via an SGD probe.
    #[test]
    fn weight_gradient_descends_loss() {
        let cfg = MlpConfig::new(4, &[6, 1], Activation::Relu)
            .with_final_activation(Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(8, 4, |i, j| ((i * 4 + j) % 5) as f32 * 0.2 - 0.4);
        let target = Tensor2::full(8, 1, 0.7);

        let loss = |m: &Mlp| {
            let y = m.forward_inference(&x);
            (&y - &target).norm_sq()
        };
        let before = loss(&mlp);
        for _ in 0..50 {
            let y = mlp.forward(&x);
            let dy = (&y - &target) * 2.0;
            mlp.backward(&dy).unwrap();
            mlp.apply_optimizer(&mut DenseSgd::new(0.01));
        }
        let after = loss(&mlp);
        assert!(after < before * 0.2, "loss {before} -> {after}");
    }

    #[test]
    fn flat_grads_roundtrip() {
        let cfg = MlpConfig::new(3, &[5, 2], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::full(4, 3, 0.5);
        let y = mlp.forward(&x);
        mlp.backward(&Tensor2::full(y.rows(), y.cols(), 1.0))
            .unwrap();

        let g = mlp.grads().to_vec();
        assert_eq!(g.len(), mlp.num_params());
        let scaled: Vec<f32> = g.iter().map(|v| v * 0.5).collect();
        mlp.grads_mut().copy_from_slice(&scaled);
        assert_eq!(mlp.grads(), scaled);
        assert_eq!(mlp.grads_mut().len(), mlp.num_params());
    }

    #[test]
    fn flat_params_roundtrip() {
        let cfg = MlpConfig::new(2, &[3], Activation::Identity);
        let mut a = Mlp::new(&cfg, &mut rng());
        let mut b = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(99));
        let p = a.params().to_vec();
        b.params_mut().copy_from_slice(&p);
        let x = Tensor2::full(2, 2, 0.3);
        assert_eq!(a.forward_inference(&x), b.forward_inference(&x));
        // also confirm a roundtrip through itself is identity
        let p2 = a.params().to_vec();
        a.params_mut().copy_from_slice(&p2);
        assert_eq!(p, p2);
        assert_eq!(a.params(), p);
    }

    #[test]
    fn param_segments_partition_the_buffer() {
        let cfg = MlpConfig::new(3, &[5, 2], Activation::Relu);
        let mlp = Mlp::new(&cfg, &mut rng());
        let segs = mlp.param_segments();
        assert_eq!(segs, [15, 20, 30, 32]);
        assert_eq!(*segs.last().unwrap(), mlp.num_params());
    }

    #[test]
    fn adam_on_mlp_descends() {
        let cfg = MlpConfig::new(4, &[8, 1], Activation::Relu)
            .with_final_activation(Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let mut opt = crate::optim::DenseAdam::new(0.01, 1e-8, mlp.num_params());
        let x = Tensor2::from_fn(16, 4, |i, j| ((i * 4 + j) % 7) as f32 * 0.2 - 0.6);
        let target = Tensor2::full(16, 1, 0.3);
        let loss = |m: &Mlp| (&m.forward_inference(&x) - &target).norm_sq();
        let before = loss(&mlp);
        for _ in 0..100 {
            let y = mlp.forward(&x);
            let dy = (&y - &target) * 2.0;
            mlp.backward(&dy).unwrap();
            mlp.apply_optimizer(&mut opt);
        }
        assert!(loss(&mlp) < before * 0.1);
    }

    #[test]
    fn config_accounting() {
        let cfg = MlpConfig::new(10, &[20, 5], Activation::Relu);
        assert_eq!(cfg.output_dim(), 5);
        assert_eq!(cfg.flops_per_sample(), 2 * (10 * 20 + 20 * 5) as u64);
        assert_eq!(
            cfg.num_params(),
            (10 * 20 + 20) as u64 + (20 * 5 + 5) as u64
        );
        let mlp = Mlp::new(&cfg, &mut rng());
        assert_eq!(mlp.num_params() as u64, cfg.num_params());
    }

    /// The unfused definition of one training step, accumulating onto the
    /// layers' current gradients: naive matmul → bias pass → activation
    /// pass; `dz` clone → naive `Xᵀ·dZ` → `+=`; naive `dZ·Wᵀ`. Returns the
    /// output, the input gradient and the accumulated flat gradients.
    fn unfused(mlp: &Mlp, x: &Tensor2, dy: &Tensor2) -> (Tensor2, Tensor2, Vec<f32>) {
        let w_of = |layer: &Linear| {
            let (w, _) = layer.split(&mlp.params);
            Tensor2::from_vec(layer.shape.0, layer.shape.1, w.to_vec()).unwrap()
        };
        let mut acts = vec![x.clone()];
        for layer in &mlp.layers {
            let mut y = naive(&acts[acts.len() - 1], &w_of(layer));
            for i in 0..y.rows() {
                for (v, &b) in y.row_mut(i).iter_mut().zip(layer.split(&mlp.params).1) {
                    *v += b;
                }
            }
            y.map_inplace(|v| layer.act.apply(v));
            acts.push(y);
        }
        let mut g = dy.clone();
        let mut grads = mlp.grads.clone();
        for (l, layer) in mlp.layers.iter().enumerate().rev() {
            let mut dz = g.clone();
            for (d, &y) in dz.as_mut_slice().iter_mut().zip(acts[l + 1].as_slice()) {
                *d *= layer.act.grad_from_output(y);
            }
            let (dw, db) = layer.split_mut(&mut grads);
            let step = naive(&acts[l].transposed(), &dz);
            for (d, &s) in dw.iter_mut().zip(step.as_slice()) {
                *d += s;
            }
            for i in 0..dz.rows() {
                for (acc, &d) in db.iter_mut().zip(dz.row(i)) {
                    *acc += d;
                }
            }
            g = naive(&dz, &w_of(layer).transposed());
        }
        (acts.pop().unwrap(), g, grads)
    }

    /// One `forward` + `backward` on `mlp` and one `forward` +
    /// `backward_params` on a clone, both `==` the unfused reference.
    fn assert_step_is_bitwise_unfused(mlp: &mut Mlp, batch: usize, salt: usize) {
        let (din, dout) = (mlp.layers[0].shape.0, mlp.layers.last().unwrap().shape.1);
        let wave = |i: usize, j: usize| ((i * 37 + j * 11 + salt * 5) % 23) as f32 * 0.173 - 1.9;
        let x = Tensor2::from_fn(batch, din, wave);
        let dy = Tensor2::from_fn(batch, dout, |i, j| wave(j, i) * 0.31);
        let (want_y, want_dx, want_grads) = unfused(mlp, &x, &dy);
        let mut twin = mlp.clone();

        assert_eq!(mlp.forward(&x), want_y, "forward, batch {batch}");
        assert_eq!(mlp.backward(&dy).unwrap(), want_dx, "dx, batch {batch}");
        assert_eq!(mlp.grads(), want_grads, "dw/db, batch {batch}");

        assert_eq!(twin.forward(&x), want_y);
        twin.backward_params(&dy).unwrap();
        assert_eq!(twin.grads(), want_grads, "backward_params, batch {batch}");
    }

    #[test]
    fn fused_passes_are_bitwise_the_unfused_reference() {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Identity] {
            for batch in [1, 5, 130] {
                // widths straddle the 4x8 tile; the last layer is one column
                let mut mlp = Mlp::new(&MlpConfig::new(7, &[13, 9, 1], act), &mut rng());
                assert_step_is_bitwise_unfused(&mut mlp, batch, 0);
            }
        }
    }

    #[test]
    fn backward_accumulates_until_zero_grads_and_buffers_follow_the_batch_size() {
        let cfg = MlpConfig::new(6, &[10, 3], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        // The reference starts from the layers' current gradients, so every
        // step after the first checks accumulation; 128 -> 77 -> 128
        // shrinks and re-grows the activations, `dz`, `dx` and the panels.
        for (step, batch) in [128, 128, 77, 128].into_iter().enumerate() {
            assert_step_is_bitwise_unfused(&mut mlp, batch, step);
        }
        assert!(mlp.grads().iter().any(|&g| g != 0.0));
        mlp.zero_grads();
        assert!(mlp.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn a_stack_of_no_layers_is_the_identity() {
        let mut mlp = Mlp::new(&MlpConfig::new(3, &[], Activation::Relu), &mut rng());
        let x = Tensor2::from_fn(2, 3, |i, j| (i * 3 + j) as f32 - 2.0);
        assert_eq!(mlp.forward_inference(&x), x);
        assert_eq!(mlp.forward(&x), x);
        assert_eq!(mlp.backward(&x).unwrap(), x);
        mlp.forward(&x);
        mlp.backward_params(&x).unwrap();
    }

    #[test]
    fn backward_consumes_the_cached_forward() {
        let mut mlp = Mlp::new(&MlpConfig::new(2, &[2], Activation::Identity), &mut rng());
        let y = mlp.forward(&Tensor2::full(3, 2, 0.5));
        mlp.backward(&y).unwrap();
        assert!(mlp.backward(&y).is_err());
        assert!(mlp.backward_params(&y).is_err());
        mlp.forward(&Tensor2::full(3, 2, 0.5));
        assert!(
            mlp.backward(&Tensor2::zeros(4, 2)).is_err(),
            "dy of another batch size"
        );
    }

    #[test]
    fn forward_inference_leaves_the_cached_activations_alone() {
        // Eval and probe forwards run between a training forward and its
        // backward in the trainer.
        let cfg = MlpConfig::new(5, &[9, 4], Activation::Sigmoid);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(12, 5, |i, j| (i as f32 - 6.0) * 0.1 + j as f32 * 0.05);
        let dy = Tensor2::from_fn(12, 4, |i, j| (i + 2 * j) as f32 * 0.01 - 0.1);
        let (_, want_dx, want_grads) = unfused(&mlp, &x, &dy);
        mlp.forward(&x);
        let probe = Tensor2::from_fn(31, 5, |i, j| (i * j) as f32 * 0.01 - 0.4);
        assert_eq!(
            mlp.forward_inference(&probe),
            unfused(&mlp, &probe, &Tensor2::zeros(31, 4)).0
        );
        assert_eq!(mlp.backward(&dy).unwrap(), want_dx);
        assert_eq!(mlp.grads(), want_grads);
    }
}
