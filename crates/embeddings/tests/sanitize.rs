//! Sanitizer behavior tests: an out-of-range embedding index, a gradient
//! whose width is not the store's, or a non-finite gradient row reaching a
//! sparse optimizer is caught with `--features sanitize` and ignored
//! without it.
//!
//! Run both ways:
//! ```text
//! cargo test -p neo-embeddings
//! cargo test -p neo-embeddings --features sanitize
//! ```

use neo_embeddings::bag;
use neo_tensor::{sanitize, Tensor2};

#[cfg(feature = "sanitize")]
mod armed {
    use super::*;
    use neo_embeddings::bag::SparseGrad;
    use neo_embeddings::optim::{
        fused_update, RowWiseAdagrad, SparseOptimizer, SparseSgd, SweepScratch,
    };
    use neo_embeddings::store::{DenseStore, RowStore};

    fn oob_grad() -> SparseGrad {
        SparseGrad::dense(vec![99], Tensor2::full(1, 2, 0.5))
    }

    #[test]
    #[should_panic(expected = "sanitize: index 99")]
    fn oob_embedding_index_is_caught() {
        let mut store = DenseStore::zeros(8, 2);
        SparseSgd::new(0.1).step(&mut store, &oob_grad());
    }

    /// A column slice handed the full-width gradient used to update a
    /// prefix of each row (and row-wise AdaGrad to average over the wrong
    /// width) and return normally.
    #[test]
    #[should_panic(expected = "sanitize: shape (1, 4) where (1, 2) expected in rowwise_adagrad")]
    fn gradient_wider_than_the_store_is_caught() {
        let mut store = DenseStore::zeros(8, 2);
        let merged = SparseGrad::dense(vec![3], Tensor2::full(1, 4, 0.5));
        RowWiseAdagrad::new(0.1, 1e-8, 8).apply_merged(&mut store, &merged);
    }

    /// The reverse: a full-width store handed one column slice's gradient,
    /// through the unmerged walk of the same row driver.
    #[test]
    #[should_panic(expected = "sanitize: shape (2, 2) where (2, 4) expected in sgd")]
    fn gradient_narrower_than_the_store_is_caught() {
        let mut store = DenseStore::zeros(8, 4);
        let grad = SparseGrad::dense(vec![3, 3], Tensor2::full(2, 2, 0.5));
        SparseSgd::new(0.1).step_unmerged(&mut store, &grad);
    }

    /// The fused backward + update hands the optimizer rows that never
    /// pass through a merged gradient; a NaN in one bag's pooled gradient
    /// still trips the finite check before its row is written.
    #[test]
    #[should_panic(expected = "sanitize: non-finite value NaN at position 0 in rowwise_adagrad")]
    fn nan_gradient_is_caught_on_the_fused_path() {
        let mut store = DenseStore::zeros(8, 2);
        let grad_out = Tensor2::from_vec(2, 2, vec![1.0, 1.0, f32::NAN, 1.0]).unwrap();
        let grad_of_bag = |b: usize| (b < 2).then(|| grad_out.row(b));
        let mut opt = RowWiseAdagrad::new(0.1, 1e-8, 8);
        let mut scratch = SweepScratch::default();
        fused_update(
            &mut opt,
            &mut store,
            &[1, 2],
            &[3, 5, 3],
            grad_of_bag,
            &mut scratch,
        )
        .ok();
    }

    #[test]
    #[should_panic(expected = "sanitize:")]
    fn nan_in_embedding_table_is_caught_by_pooled_forward() {
        let mut store = DenseStore::zeros(8, 2);
        store.write_row(3, &[f32::NAN, 1.0]);
        // the sanitizer panics inside the lookup, so nothing is returned
        bag::pooled_forward(&mut store, &[1], &[3]).ok();
    }

    #[test]
    fn in_range_updates_pass_the_bounds_check() {
        let mut store = DenseStore::zeros(8, 2);
        let sg = SparseGrad::dense(vec![3], Tensor2::full(1, 2, 1.0));
        SparseSgd::new(0.1).step(&mut store, &sg);
        assert_eq!(store.to_dense().row(3), &[-0.1, -0.1]);
        assert!(sanitize::enabled());
    }
}

#[cfg(not(feature = "sanitize"))]
#[test]
fn oob_index_in_gradient_data_is_ignored_without_sanitize() {
    // An out-of-range index is plain data until something dereferences it:
    // the backward pass and the sanitizer hooks both let it through when
    // the feature is off.
    let grad_out = Tensor2::full(1, 2, 1.0);
    let sg = bag::pooled_backward(&[1], &[999], &grad_out).unwrap();
    assert_eq!(sg.indices, vec![999]);
    sanitize::check_indices("feature off: compiled to a no-op", &sg.indices, 8);
    assert!(!sanitize::enabled());
}
