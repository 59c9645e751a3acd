//! Property-based tests for the dense substrate.

use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::optim::{DenseAdagrad, DenseAdam, DenseLamb, DenseOptimizer, DenseSgd};
use neo_tensor::{gemm, init, Tensor2, F16};
use proptest::prelude::*;
use rand::SeedableRng;

fn tensor_strategy(max: usize) -> impl Strategy<Value = Tensor2> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor2::from_vec(r, c, v).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A B)^T == B^T A^T
    #[test]
    fn matmul_transpose_identity(
        a in tensor_strategy(12),
        cols in 1usize..12,
    ) {
        let b = Tensor2::from_fn(a.cols(), cols, |i, j| ((i * 13 + j * 7) % 9) as f32 - 4.0);
        let left = gemm::matmul(&a, &b).unwrap().transposed();
        let right = gemm::matmul(&b.transposed(), &a.transposed()).unwrap();
        prop_assert!(left.max_abs_diff(&right).unwrap() < 1e-3);
    }

    /// A * I == A
    #[test]
    fn identity_is_neutral(a in tensor_strategy(10)) {
        let eye = Tensor2::from_fn(a.cols(), a.cols(), |i, j| f32::from(i == j));
        let prod = gemm::matmul(&a, &eye).unwrap();
        prop_assert!(prod.max_abs_diff(&a).unwrap() < 1e-5);
    }

    /// the specialized transpose kernels agree with explicit transposition
    #[test]
    fn transpose_kernels_agree(a in tensor_strategy(10), n in 1usize..10) {
        let b = Tensor2::from_fn(a.rows(), n, |i, j| (i as f32 - j as f32) * 0.25);
        let at_b = gemm::matmul_at_b(&a, &b).unwrap();
        let explicit = gemm::matmul(&a.transposed(), &b).unwrap();
        prop_assert!(at_b.max_abs_diff(&explicit).unwrap() < 1e-3);

        let c = Tensor2::from_fn(n, a.cols(), |i, j| ((i + 2 * j) % 5) as f32 * 0.3);
        let a_ct = gemm::matmul_a_bt(&a, &c).unwrap();
        let explicit2 = gemm::matmul(&a, &c.transposed()).unwrap();
        prop_assert!(a_ct.max_abs_diff(&explicit2).unwrap() < 1e-3);
    }

    /// hcat/hsplit round-trips for arbitrary block widths
    #[test]
    fn hcat_hsplit_roundtrip(
        rows in 1usize..8,
        widths in proptest::collection::vec(1usize..6, 1..5),
    ) {
        let blocks: Vec<Tensor2> = widths
            .iter()
            .enumerate()
            .map(|(k, &w)| Tensor2::from_fn(rows, w, |i, j| (k * 100 + i * 10 + j) as f32))
            .collect();
        let refs: Vec<&Tensor2> = blocks.iter().collect();
        let cat = Tensor2::hcat(&refs).unwrap();
        let back = cat.hsplit(&widths).unwrap();
        prop_assert_eq!(back, blocks);
    }

    /// f16 conversion is monotone: x <= y implies f16(x) <= f16(y)
    #[test]
    fn f16_monotone(x in -1000.0f32..1000.0, y in -1000.0f32..1000.0) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    /// f16 double round-trip is idempotent
    #[test]
    fn f16_idempotent(x in -60000.0f32..60000.0) {
        let once = F16::from_f32(x).to_f32();
        let twice = F16::from_f32(once).to_f32();
        prop_assert_eq!(once, twice);
    }
}

const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Sigmoid, Activation::Identity];

/// One of the four dense optimizers, built fresh for `n` parameters.
fn dense_optimizer(kind: usize, n: usize) -> Box<dyn DenseOptimizer> {
    match kind {
        0 => Box::new(DenseSgd::new(0.05)),
        1 => Box::new(DenseAdagrad::new(0.05, 1e-8, n)),
        2 => Box::new(DenseAdam::new(0.01, 1e-8, n)),
        _ => Box::new(DenseLamb::new(0.01, 1e-8, 0.1, n)),
    }
}

/// The dense path before parameters and gradients shared one flat buffer,
/// kept as an oracle: every layer's `W` and `b` and their gradients as
/// separate buffers, the documented products (naive-order GEMM, bias, then
/// activation), and an optimizer step on flat copies made in the
/// documented order — layer order, `W` row-major, then `b` — then written
/// back.
struct Oracle {
    layers: Vec<OracleLayer>,
    /// Cached forward activations, input first.
    acts: Vec<Tensor2>,
}

struct OracleLayer {
    w: Tensor2,
    b: Vec<f32>,
    act: Activation,
    dw: Tensor2,
    db: Vec<f32>,
}

impl Oracle {
    /// The documented initialization: Xavier `W` drawn layer by layer from
    /// a generator seeded like the `Mlp`'s, zero `b`, zero gradients.
    fn new(cfg: &MlpConfig, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut in_dim = cfg.input_dim;
        let mut layers = Vec::new();
        for (l, &out_dim) in cfg.layer_sizes.iter().enumerate() {
            let act = if l + 1 == cfg.layer_sizes.len() {
                cfg.final_activation
            } else {
                cfg.hidden_activation
            };
            layers.push(OracleLayer {
                w: init::xavier_uniform(in_dim, out_dim, &mut rng),
                b: vec![0.0; out_dim],
                act,
                dw: Tensor2::zeros(in_dim, out_dim),
                db: vec![0.0; out_dim],
            });
            in_dim = out_dim;
        }
        Self {
            layers,
            acts: Vec::new(),
        }
    }

    fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        self.acts = vec![x.clone()];
        for layer in &self.layers {
            let mut y = gemm::matmul(&self.acts[self.acts.len() - 1], &layer.w).unwrap();
            for i in 0..y.rows() {
                for (v, &b) in y.row_mut(i).iter_mut().zip(&layer.b) {
                    *v = activate(layer.act, *v + b);
                }
            }
            self.acts.push(y);
        }
        self.acts[self.acts.len() - 1].clone()
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let mut g = dy.clone();
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let mut dz = g;
            for (d, &y) in dz
                .as_mut_slice()
                .iter_mut()
                .zip(self.acts[l + 1].as_slice())
            {
                *d *= activation_grad(layer.act, y);
            }
            layer.dw += &gemm::matmul_at_b(&self.acts[l], &dz).unwrap();
            for i in 0..dz.rows() {
                for (acc, &d) in layer.db.iter_mut().zip(dz.row(i)) {
                    *acc += d;
                }
            }
            g = gemm::matmul_a_bt(&dz, &layer.w).unwrap();
        }
        g
    }

    /// `(params, grads, segments)` copied out in the documented order.
    fn flat(&self) -> (Vec<f32>, Vec<f32>, Vec<usize>) {
        let (mut params, mut grads, mut segments) = (Vec::new(), Vec::new(), Vec::new());
        for layer in &self.layers {
            params.extend_from_slice(layer.w.as_slice());
            grads.extend_from_slice(layer.dw.as_slice());
            segments.push(params.len());
            params.extend_from_slice(&layer.b);
            grads.extend_from_slice(&layer.db);
            segments.push(params.len());
        }
        (params, grads, segments)
    }

    fn apply_optimizer(&mut self, opt: &mut dyn DenseOptimizer) {
        let (mut params, grads, segments) = self.flat();
        opt.step(&mut params, &grads, &segments);
        let mut rest = params.as_slice();
        for layer in &mut self.layers {
            let (w, tail) = rest.split_at(layer.w.len());
            let (b, tail) = tail.split_at(layer.b.len());
            layer.w.as_mut_slice().copy_from_slice(w);
            layer.b.copy_from_slice(b);
            layer.dw.as_mut_slice().fill(0.0);
            layer.db.fill(0.0);
            rest = tail;
        }
    }
}

fn activate(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::Identity => x,
    }
}

fn activation_grad(act: Activation, y: f32) -> f32 {
    match act {
        Activation::Relu => f32::from(y > 0.0),
        Activation::Sigmoid => y * (1.0 - y),
        Activation::Identity => 1.0,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward, backward and `apply_optimizer` on the flat buffers are
    /// bitwise the oracle, for every dense optimizer, over random stacks.
    #[test]
    fn flat_dense_update_is_bitwise_the_per_layer_path(
        input_dim in 1usize..=9,
        widths in proptest::collection::vec(1usize..=9, 0..4),
        batch in 1usize..=7,
        acts in (0usize..3, 0usize..3),
        seed in any::<u64>(),
    ) {
        let cfg = MlpConfig::new(input_dim, &widths, ACTIVATIONS[acts.0])
            .with_final_activation(ACTIVATIONS[acts.1]);
        let wave = |i: usize, j: usize, k: u64| {
            let h = (i as u64 * 131 + j as u64 * 7 + k * 17 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.3
        };
        for kind in 0..4 {
            let mut mlp = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
            let mut oracle = Oracle::new(&cfg, seed);
            let (mut opt, mut oracle_opt) = (dense_optimizer(kind, mlp.num_params()), dense_optimizer(kind, mlp.num_params()));
            let (params, _, segments) = oracle.flat();
            prop_assert_eq!(bits(mlp.params()), bits(&params), "initial layout");
            prop_assert_eq!(mlp.param_segments(), &segments[..]);
            for step in 0..3u64 {
                let x = Tensor2::from_fn(batch, input_dim, |i, j| wave(i, j, 2 * step));
                let y = mlp.forward(&x);
                prop_assert_eq!(bits(y.as_slice()), bits(oracle.forward(&x).as_slice()), "forward, step {}", step);
                let dy = Tensor2::from_fn(batch, y.cols(), |i, j| wave(i, j, 2 * step + 1) * 0.1);
                let dx = mlp.backward(&dy).unwrap();
                prop_assert_eq!(bits(dx.as_slice()), bits(oracle.backward(&dy).as_slice()), "dx, step {}", step);
                prop_assert_eq!(bits(mlp.grads()), bits(&oracle.flat().1), "grads, step {}", step);
                mlp.apply_optimizer(opt.as_mut());
                oracle.apply_optimizer(oracle_opt.as_mut());
                prop_assert_eq!(bits(mlp.params()), bits(&oracle.flat().0), "{} step {}", opt.name(), step);
            }
        }
    }
}
