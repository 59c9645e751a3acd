//! Opt-in runtime numeric sanitizer (`--features sanitize`).
//!
//! Deterministic training (§4.1.2) makes numeric corruption reproducible —
//! but only if it is *noticed*. With the `sanitize` feature enabled, the
//! dense kernels, MLP layers and optimizers (and, via feature forwarding,
//! the embedding stack in `neo-embeddings`) verify after each step that
//! values are finite, shapes agree, and embedding indices are in range,
//! panicking at the first corrupted operation instead of silently training
//! on NaNs. Without the feature every function here compiles to an empty
//! body, so release builds pay nothing.
//!
//! Every sanitizer panic message starts with `sanitize:` so failures are
//! greppable and tests can assert on them.

/// Panics if any value is NaN or infinite, naming the first offender.
///
/// # Panics
///
/// With `--features sanitize`: panics when `values` contains a non-finite
/// element. Without the feature: never (empty body).
#[inline]
pub fn check_finite(context: &str, values: &[f32]) {
    #[cfg(feature = "sanitize")]
    #[expect(clippy::panic, reason = "sanitizer is an opt-in debug facility")]
    if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        panic!("sanitize: non-finite value {v} at position {i} in {context}"); // lint: allow(panic_path) — aborting on corrupted data is the sanitizer's contract; opt-in via the sanitize feature
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = (context, values);
}

/// Panics if `got != want`, for shape contracts the type system cannot see.
///
/// # Panics
///
/// With `--features sanitize`: panics when the shapes differ. Without the
/// feature: never (empty body).
#[inline]
pub fn check_shape(context: &str, got: (usize, usize), want: (usize, usize)) {
    #[cfg(feature = "sanitize")]
    #[expect(clippy::panic, reason = "sanitizer is an opt-in debug facility")]
    if got != want {
        panic!("sanitize: shape {got:?} where {want:?} expected in {context}"); // lint: allow(panic_path) — aborting on corrupted data is the sanitizer's contract; opt-in via the sanitize feature
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = (context, got, want);
}

/// Panics if `index >= bound` — the embedding-row bounds check.
///
/// # Panics
///
/// With `--features sanitize`: panics when `index` is out of range.
/// Without the feature: never (empty body).
#[inline]
pub fn check_index(context: &str, index: u64, bound: u64) {
    #[cfg(feature = "sanitize")]
    #[expect(clippy::panic, reason = "sanitizer is an opt-in debug facility")]
    if index >= bound {
        panic!("sanitize: index {index} out of range for {bound} rows in {context}");
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = (context, index, bound);
}

/// [`check_index`] over a batch of indices, naming the first offender.
///
/// # Panics
///
/// With `--features sanitize`: panics when any index is out of range.
/// Without the feature: never (empty body).
#[inline]
pub fn check_indices(context: &str, indices: &[u64], bound: u64) {
    #[cfg(feature = "sanitize")]
    #[expect(clippy::panic, reason = "sanitizer is an opt-in debug facility")]
    if let Some((i, &idx)) = indices.iter().enumerate().find(|(_, &idx)| idx >= bound) {
        panic!("sanitize: index {idx} (position {i}) out of range for {bound} rows in {context}");
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = (context, indices, bound);
}

/// Whether the sanitizer is compiled in — lets callers and tests branch on
/// the build configuration without `cfg` gymnastics.
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "sanitize")
}

#[cfg(test)]
mod tests {
    use super::*;

    // These run in both configurations: without the feature every check is
    // a no-op; with it, the passing cases below must still not fire.
    #[test]
    fn passing_inputs_never_panic() {
        check_finite("test", &[0.0, -1.5, f32::MAX]);
        check_shape("test", (2, 3), (2, 3));
        check_index("test", 7, 8);
        check_indices("test", &[0, 3, 7], 8);
        assert_eq!(enabled(), cfg!(feature = "sanitize"));
    }

    #[cfg(feature = "sanitize")]
    mod armed {
        use super::*;

        #[test]
        #[should_panic(expected = "sanitize: non-finite")]
        fn nan_is_caught() {
            check_finite("test", &[1.0, f32::NAN]);
        }

        #[test]
        #[should_panic(expected = "sanitize: shape")]
        fn shape_mismatch_is_caught() {
            check_shape("test", (2, 3), (3, 2));
        }

        #[test]
        #[should_panic(expected = "sanitize: index")]
        fn oob_index_is_caught() {
            check_indices("test", &[0, 99], 8);
        }
    }

    #[cfg(not(feature = "sanitize"))]
    #[test]
    fn checks_are_noops_without_the_feature() {
        check_finite("test", &[f32::NAN, f32::INFINITY]);
        check_shape("test", (1, 1), (9, 9));
        check_index("test", 99, 8);
        check_indices("test", &[u64::MAX], 1);
        assert!(!enabled());
    }
}
