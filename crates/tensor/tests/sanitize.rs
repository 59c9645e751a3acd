//! Sanitizer behavior tests (ISSUE acceptance criterion): a NaN injected
//! into an MLP forward pass is caught with `--features sanitize` and flows
//! through silently without it.
//!
//! Run both ways:
//! ```text
//! cargo test -p neo-tensor
//! cargo test -p neo-tensor --features sanitize
//! ```

use neo_tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_tensor::{sanitize, Tensor2};
use rand::SeedableRng;

fn mlp_with_nan_weight() -> Mlp {
    // Identity activations: Relu's `max(0.0)` would squash a NaN to zero,
    // hiding the injection from the feature-off propagation assert below.
    let cfg = MlpConfig::new(3, &[4, 2], Activation::Identity);
    let mut mlp = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(7));
    mlp.params_mut()[5] = f32::NAN;
    mlp
}

#[cfg(feature = "sanitize")]
mod armed {
    use super::*;

    #[test]
    #[should_panic(expected = "sanitize:")]
    fn nan_in_mlp_forward_is_caught() {
        let mlp = mlp_with_nan_weight();
        let x = Tensor2::full(4, 3, 0.5);
        let _ = mlp.forward_inference(&x);
    }

    #[test]
    #[should_panic(expected = "sanitize:")]
    fn nan_gradient_is_caught_by_optimizer_step() {
        let cfg = MlpConfig::new(2, &[2], Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(3));
        mlp.grads_mut()[0] = f32::INFINITY;
        mlp.apply_optimizer(&mut neo_tensor::optim::DenseSgd::new(0.1));
    }

    #[test]
    fn clean_training_step_passes_all_checks() {
        let cfg = MlpConfig::new(3, &[4, 1], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(7));
        let x = Tensor2::full(4, 3, 0.5);
        let y = mlp.forward(&x);
        mlp.backward(&Tensor2::full(y.rows(), y.cols(), 1.0))
            .unwrap();
        mlp.apply_optimizer(&mut neo_tensor::optim::DenseSgd::new(0.01));
        assert!(sanitize::enabled());
    }
}

#[cfg(not(feature = "sanitize"))]
#[test]
fn nan_in_mlp_forward_is_ignored_without_sanitize() {
    let mlp = mlp_with_nan_weight();
    let x = Tensor2::full(4, 3, 0.5);
    let y = mlp.forward_inference(&x);
    assert!(
        y.as_slice().iter().any(|v| v.is_nan()),
        "without the sanitizer the NaN propagates silently"
    );
    assert!(!sanitize::enabled());
}
