//! Embedding operators: the memory-bound half of DLRM training (§4.1).
//!
//! This crate reproduces the paper's FBGEMM-style embedding stack:
//!
//! * [`store`] — row storage backends: FP32 ([`store::DenseStore`]), FP16
//!   with stochastic rounding ([`store::HalfStore`]), and the
//!   cache-backed multi-tier store ([`tiered::TieredStore`]) that lets
//!   tables larger than "HBM" train out of "DDR/SSD" (§4.1.3).
//! * [`bag`] — pooled (sum) embedding lookup, forward and backward, plus
//!   the fused backward of §4.1.1, which never expands the `nnz × D`
//!   gradient. A rank pools each table shard it owns with one call.
//! * [`optim`] — *exact* sparse optimizers (§4.1.2): gradients for
//!   duplicate rows are sorted and merged before a single deterministic
//!   update, supporting SGD, AdaGrad, **row-wise AdaGrad** (the
//!   50%-state-saving variant of §4.1.4) and Adam. [`optim::fused_update`]
//!   goes from the pooled gradient to the updated rows in one sorted
//!   sweep.
//! * [`ttrec`] — Tensor-Train compressed tables (TT-Rec, §4.1.4), a
//!   factorized storage format with full gradient support.
//!
//! # Example
//!
//! ```
//! use neo_embeddings::store::{DenseStore, RowStore};
//! use neo_embeddings::bag;
//! use neo_tensor::Tensor2;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut table = DenseStore::random(100, 8, &mut rng);
//! // batch of 2 bags: {3, 5} and {7}
//! let pooled = bag::pooled_forward(&mut table, &[2, 1], &[3, 5, 7]).unwrap();
//! assert_eq!(pooled.shape(), (2, 8));
//! ```

#![deny(missing_docs)]

pub mod bag;
pub mod optim;
mod radix;
pub mod store;
pub mod tiered;
pub mod ttrec;

pub use bag::SparseGrad;
pub use optim::{
    fused_update, RowWiseAdagrad, SparseAdagrad, SparseAdam, SparseOptimizer, SparseSgd,
    SweepScratch,
};
pub use store::{DenseStore, HalfStore, RowStore, TierInfo};
pub use tiered::TieredStore;
