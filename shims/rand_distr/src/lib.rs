//! Offline stand-in for the `rand_distr` crate.
//!
//! Provides the [`Distribution`] trait (re-exported from the vendored
//! `rand` shim) and a [`Zipf`] sampler implemented with Hörmann &
//! Derflinger's rejection-inversion method — the same algorithm upstream
//! `rand_distr` uses — so sampling is O(1) per draw with no tables.

pub use rand::Distribution;
use rand::Rng;

/// Error cases for [`Zipf::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfError {
    /// `n` was zero.
    NTooSmall,
    /// The exponent was not a positive finite number.
    STooSmall,
}

impl std::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZipfError::NTooSmall => write!(f, "Zipf: n must be >= 1"),
            ZipfError::STooSmall => write!(f, "Zipf: exponent must be > 0"),
        }
    }
}

impl std::error::Error for ZipfError {}

/// Zipf distribution over `{1, 2, ..., n}` with exponent `s`:
/// `P(k) ∝ k^-s`. Samples are returned as the float type `F` holding an
/// exact integer in `[1, n]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf<F> {
    n: F,
    s: F,
    h_x1: F,
    h_n: F,
    accept_width: F,
}

impl Zipf<f64> {
    /// Constructs the sampler for `n` elements with exponent `s`.
    ///
    /// # Errors
    ///
    /// [`ZipfError::NTooSmall`] if `n == 0`; [`ZipfError::STooSmall`] if
    /// `s` is not a positive finite number.
    pub fn new(n: u64, s: f64) -> Result<Self, ZipfError> {
        if n == 0 {
            return Err(ZipfError::NTooSmall);
        }
        if !(s.is_finite() && s > 0.0) {
            return Err(ZipfError::STooSmall);
        }
        let nf = n as f64;
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(nf + 0.5, s);
        let accept_width = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        Ok(Self {
            n: nf,
            s,
            h_x1,
            h_n,
            accept_width,
        })
    }
}

/// Antiderivative of `h(x) = x^-s`, shifted so `H(1) = 0` when `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-12 {
        x.ln()
    } else {
        (x.powf(1.0 - s) - 1.0) / (1.0 - s)
    }
}

fn h(x: f64, s: f64) -> f64 {
    x.powf(-s)
}

fn h_integral_inverse(y: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-12 {
        y.exp()
    } else {
        (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
    }
}

impl Distribution<f64> for Zipf<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Hörmann & Derflinger rejection-inversion: invert the integral
        // envelope, round to the nearest integer, accept with the exact
        // ratio. Expected iterations < 2 for all (n, s).
        loop {
            let unit: f64 = {
                // sample in [0,1) without requiring R: Sized
                (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            };
            let u = self.h_n + unit * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.accept_width || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.05).expect("valid params");
        let mut rng = StdRng::seed_from_u64(42);
        let mut small = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            let v = z.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&v), "out of range: {v}");
            assert_eq!(v, v.round(), "not an integer: {v}");
            if v <= 100.0 {
                small += 1;
            }
        }
        // zipf(1.05) concentrates mass on the head: the first 10% of rows
        // should absorb well over half the draws
        assert!(small * 2 > N, "only {small}/{N} draws in the hottest 10%");
    }

    #[test]
    fn rejects_bad_params() {
        assert_eq!(Zipf::new(0, 1.0).unwrap_err(), ZipfError::NTooSmall);
        assert_eq!(Zipf::new(10, 0.0).unwrap_err(), ZipfError::STooSmall);
        assert_eq!(Zipf::new(10, f64::NAN).unwrap_err(), ZipfError::STooSmall);
    }

    #[test]
    fn single_element_always_one() {
        let z = Zipf::new(1, 1.2).expect("valid params");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1.0);
        }
    }

    #[test]
    fn exponent_one_exact_branch() {
        let z = Zipf::new(50, 1.0).expect("valid params");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = z.sample(&mut rng);
            assert!((1.0..=50.0).contains(&v));
        }
    }
}
