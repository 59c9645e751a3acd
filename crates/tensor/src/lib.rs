//! Dense-tensor substrate for the `neo-dlrm` workspace.
//!
//! The paper's dense compute (MLPs, feature interaction) runs on cuBLAS /
//! FBGEMM kernels. This crate provides the pure-Rust equivalent: a compact
//! row-major matrix type ([`Tensor2`]), a register-tiled GEMM in the naive
//! summation order with the transpose variants required by
//! back-propagation ([`gemm`]), fully differentiable MLP layers ([`mlp`]),
//! and the software half-precision types (FP16/BF16) used by
//! reduced-precision embedding storage and quantized collectives
//! ([`half`]).
//!
//! # Example
//!
//! ```
//! use neo_tensor::{Tensor2, mlp::{Mlp, MlpConfig, Activation}};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let cfg = MlpConfig::new(8, &[16, 4], Activation::Relu);
//! let mut mlp = Mlp::new(&cfg, &mut rng);
//! let x = Tensor2::from_fn(32, 8, |i, j| (i + j) as f32 * 0.01);
//! let y = mlp.forward(&x);
//! assert_eq!(y.shape(), (32, 4));
//! ```

#![deny(missing_docs)]

pub mod gemm;
pub mod half;
pub mod init;
pub mod mlp;
pub mod optim;
pub mod sanitize;
mod tensor;

pub use crate::half::{Bf16, F16};
pub use crate::tensor::{ShapeError, Tensor2};

/// Convenience alias used across the workspace for fallible tensor ops.
pub type Result<T> = std::result::Result<T, ShapeError>;
