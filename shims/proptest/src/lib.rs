//! Offline stand-in for the `proptest` crate.
//!
//! Reimplements the subset of proptest this workspace's property tests
//! use: the [`Strategy`] trait over ranges / tuples / [`Just`] /
//! [`collection::vec`] / [`any`], combinators `prop_map` and
//! `prop_flat_map`, the `proptest!` macro, and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` assertion macros.
//!
//! Differences from upstream: case generation is a fixed deterministic
//! sweep (one seeded RNG per case index) and failing inputs are *not*
//! shrunk. No `*.proptest-regressions` file is read or written: a failure
//! prints its case index, and since every run draws the same cases in the
//! same order, re-running the test replays it.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic per-case RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// RNG for case number `case`; distinct cases get unrelated streams.
    pub fn new(case: u64) -> Self {
        TestRng(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_CAFE_F00D_D00D)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-test configuration; only `cases` is honored.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated inputs per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the input; the case is skipped.
    Reject,
    /// An assertion failed; the property is falsified.
    Fail(String),
}

/// A recipe for generating values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then samples from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always produces a clone of the held value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            #[expect(non_snake_case, reason = "the macro binds each strategy to its uppercase type name")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F)
);

/// Types with a canonical "anything" strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// The unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element counts accepted by [`vec()`]: a fixed `usize` or a range.
    pub trait IntoLen {
        /// Picks the length for one generated collection.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLen for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLen for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec length range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    /// Generates `Vec`s of `elem` samples with a length drawn from `len`.
    pub fn vec<S: Strategy, L: IntoLen>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy, L: IntoLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Everything a property test module typically imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr;
     $( $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..u64::from(__cfg.cases) {
                let mut __rng = $crate::TestRng::new(__case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body; ::std::result::Result::Ok(()) })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!("property failed on case {}: {}", __case, __msg)
                    }
                }
            }
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                __l, __r
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(a in 2usize..9, b in -4i32..=4, f in 0.5f32..1.5) {
            prop_assert!((2..9).contains(&a));
            prop_assert!((-4..=4).contains(&b));
            prop_assert!((0.5..1.5).contains(&f), "f = {}", f);
        }

        #[test]
        fn vec_lengths(v in collection::vec(0u64..5, 2..6), w in collection::vec(any::<bool>(), 3usize)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert_eq!(w.len(), 3);
        }

        #[test]
        fn combinators_compose(
            pair in (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
                (Just(r), Just(c), collection::vec(0i32..10, r * c))
            })
        ) {
            let (r, c, data) = pair;
            prop_assert_eq!(data.len(), r * c);
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_sampling() {
        let strat = collection::vec(0u64..100, 1..20);
        let a = strat.sample(&mut TestRng::new(5));
        let b = strat.sample(&mut TestRng::new(5));
        assert_eq!(a, b);
    }
}
