//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors a minimal, deterministic re-implementation of the `rand` API
//! surface it actually uses: [`rngs::StdRng`] (xoshiro256++ seeded via
//! SplitMix64), the [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`,
//! `sample`, `fill`), and [`SeedableRng`].
//!
//! The streams differ from upstream `rand`'s ChaCha12-based `StdRng`, but
//! every consumer in this workspace only relies on *determinism* (same seed
//! ⇒ same stream), never on specific values, so the substitution is
//! behavior-preserving for the test suite.

use std::ops::{Range, RangeInclusive};

/// Random number generators.
pub mod rngs {
    /// Deterministic xoshiro256++ generator standing in for `rand`'s
    /// `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn from_u64(seed: u64) -> Self {
            // Expand the seed with SplitMix64, as recommended by the
            // xoshiro authors, so nearby seeds give unrelated streams.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }

        pub(crate) fn next_u64_impl(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A seedable generator, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Seed type (a byte array for [`rngs::StdRng`]).
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64`, expanding it internally.
    fn seed_from_u64(state: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut x = 0u64;
        for (i, b) in seed.iter().enumerate() {
            x ^= u64::from(*b) << ((i % 8) * 8);
        }
        Self::from_u64(x)
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::from_u64(state)
    }
}

/// The user-facing generator trait, mirroring the parts of `rand::Rng`
/// this workspace uses.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform sample from `Standard`-distributed `T` (floats in
    /// `[0, 1)`, full-range integers, fair bools).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Samples from an explicit distribution.
    fn sample<T, D: Distribution<T>>(&mut self, dist: D) -> T
    where
        Self: Sized,
    {
        dist.sample(self)
    }

    /// Fills `dest` with uniform values.
    fn fill(&mut self, dest: &mut [f32])
    where
        Self: Sized,
    {
        for v in dest.iter_mut() {
            *v = self.gen();
        }
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A value samplable uniformly from its "natural" distribution
/// (`rand`'s `Standard`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> [0, 1) with full f32 precision
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// A range samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// A distribution samplable with any [`Rng`], mirroring
/// `rand::distributions::Distribution`.
pub trait Distribution<T> {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        let mut c = rngs::StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(1u32..=5);
            assert!((1..=5).contains(&w));
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
            let n = rng.gen_range(-7i64..-3);
            assert!((-7..-3).contains(&n));
        }
    }

    #[test]
    fn gen_bool_probability_sane() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((1_900..3_100).contains(&hits), "p=0.25 gave {hits}/10000");
    }
}
