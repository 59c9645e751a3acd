//! Software half-precision types.
//!
//! The paper uses FP16 embedding-table storage (§5.3.2) and FP16/BF16
//! quantized collectives (§4.5, [Yang et al. 2020]). On CPU there is no
//! hardware half type, so we implement the two 16-bit formats as newtypes
//! over `u16` with correct conversion semantics:
//!
//! * [`F16`] — IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
//!   round-to-nearest-even plus an optional stochastic-rounding conversion
//!   used for embedding updates.
//! * [`Bf16`] — bfloat16 (truncated binary32), the format used for backward
//!   AlltoAll because its dynamic range matches FP32.

use std::fmt;

use serde::{Deserialize, Serialize};

/// IEEE binary16 value stored as raw bits.
///
/// # Example
///
/// ```
/// use neo_tensor::F16;
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct F16(u16);

/// bfloat16 value stored as raw bits.
///
/// # Example
///
/// ```
/// use neo_tensor::Bf16;
/// let b = Bf16::from_f32(3.0);
/// assert_eq!(b.to_f32(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Bf16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Largest finite f16 value (65504).
    pub const MAX: F16 = F16(0x7bff);

    /// Converts from `f32` with round-to-nearest-even.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        Self(f32_to_f16_bits(value))
    }

    /// Converts from `f32` with stochastic rounding, using `noise` drawn
    /// uniformly from `[0, 1)`. Stochastic rounding keeps low-magnitude
    /// gradient updates from being systematically lost when embedding
    /// tables are stored in FP16.
    #[must_use]
    pub fn from_f32_stochastic(value: f32, noise: f32) -> Self {
        if !value.is_finite() {
            return Self::from_f32(value);
        }
        let lo_bits = f32_to_f16_bits_truncate(value);
        let lo = f16_bits_to_f32(lo_bits);
        if lo == value {
            return Self(lo_bits);
        }
        let hi_bits = next_toward_inf(lo_bits, value.is_sign_negative());
        let hi = f16_bits_to_f32(hi_bits);
        let span = hi - lo;
        let frac = if span == 0.0 || !span.is_finite() {
            0.0
        } else {
            (value - lo) / span
        };
        if noise < frac.abs() {
            Self(hi_bits)
        } else {
            Self(lo_bits)
        }
    }

    /// Converts back to `f32` (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds a value from a raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        Self(bits)
    }
}

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);

    /// Converts from `f32` with round-to-nearest-even on the truncated bits.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        // round-to-nearest-even on bit 16
        let round_bit = (bits >> 15) & 1;
        let sticky = bits & 0x7fff;
        let mut hi = (bits >> 16) as u16;
        if round_bit == 1 && (sticky != 0x0000 || hi & 1 == 1) && !value.is_nan() {
            hi = hi.wrapping_add(1);
        }
        if value.is_nan() {
            // preserve NaN; force a quiet-NaN payload bit
            hi = ((bits >> 16) as u16) | 0x0040;
        }
        Self(hi)
    }

    /// Converts back to `f32` (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds a value from a raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        Self(bits)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl From<f32> for Bf16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<Bf16> for f32 {
    fn from(v: Bf16) -> Self {
        v.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits >> 15) as u32) << 31;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x3ff) as u32;
    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // subnormal: normalize
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 31) as u16) << 15;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf / NaN
        return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // normal range; round-to-nearest-even on bit 13
        let m = mant >> 13;
        let round = (mant >> 12) & 1;
        let sticky = mant & 0xfff;
        let mut h = sign | (((unbiased + 15) as u16) << 10) | m as u16;
        if round == 1 && (sticky != 0 || h & 1 == 1) {
            h = h.wrapping_add(1); // carries correctly into exponent
        }
        return h;
    }
    if unbiased < -25 {
        return sign; // underflow to zero
    }
    // subnormal
    let shift = (-14 - unbiased) as u32;
    let full = mant | 0x80_0000;
    let m = full >> (13 + shift);
    let rem = full & ((1 << (13 + shift)) - 1);
    let halfway = 1u32 << (12 + shift);
    let mut h = sign | m as u16;
    if rem > halfway || (rem == halfway && h & 1 == 1) {
        h = h.wrapping_add(1);
    }
    h
}

/// Truncating (round-toward-zero) f32 -> f16, used as the "low" endpoint for
/// stochastic rounding.
fn f32_to_f16_bits_truncate(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 31) as u16) << 15;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;
    if exp == 0xff {
        return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7bff; // clamp to max finite when truncating
    }
    if unbiased >= -14 {
        return sign | (((unbiased + 15) as u16) << 10) | (mant >> 13) as u16;
    }
    if unbiased < -24 {
        return sign;
    }
    let shift = (-14 - unbiased) as u32;
    let full = mant | 0x80_0000;
    sign | (full >> (13 + shift)) as u16
}

/// Next representable f16 away from zero (toward +/- inf depending on sign).
fn next_toward_inf(bits: u16, negative: bool) -> u16 {
    let mag = bits & 0x7fff;
    let sign = bits & 0x8000;
    if mag >= 0x7bff {
        return bits; // already max finite; stay
    }
    let _ = negative;
    sign | (mag + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_exact_small_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 1.5, 2.0, -3.25, 1024.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; RNE
        // picks the even mantissa (1.0).
        let v = 1.0 + f32::powi(2.0, -11);
        assert_eq!(F16::from_f32(v).to_f32(), 1.0);
        // slightly above halfway rounds up
        let v = 1.0 + f32::powi(2.0, -11) + f32::powi(2.0, -13);
        assert_eq!(F16::from_f32(v).to_f32(), 1.0 + f32::powi(2.0, -10));
    }

    #[test]
    fn f16_overflow_and_subnormal() {
        assert!(F16::from_f32(1e6).to_f32().is_infinite());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        let tiny = f32::powi(2.0, -20);
        let rt = F16::from_f32(tiny).to_f32();
        assert!((rt - tiny).abs() < f32::powi(2.0, -24));
        assert_eq!(F16::from_f32(1e-30).to_f32(), 0.0);
    }

    #[test]
    fn f16_max_constant() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn bf16_truncation_and_rounding() {
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(-2.5).to_f32(), -2.5);
        // bf16 keeps f32 range
        assert!(Bf16::from_f32(1e38).to_f32().is_finite());
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
        // relative error bounded by 2^-8
        for v in [3.3321f32, 1e-5, 123456.0, -0.001] {
            let r = Bf16::from_f32(v).to_f32();
            assert!(((r - v) / v).abs() < 1.0 / 128.0, "{v} -> {r}");
        }
    }

    #[test]
    fn stochastic_rounding_is_bracketed() {
        let v = 1.0 + 3.0 * f32::powi(2.0, -12); // not representable in f16
        let lo = F16::from_f32_stochastic(v, 0.999).to_f32();
        let hi = F16::from_f32_stochastic(v, 0.0001).to_f32();
        assert!(lo <= v && v <= hi, "{lo} {v} {hi}");
        assert!(hi > lo);
        // exact values never move
        assert_eq!(F16::from_f32_stochastic(1.5, 0.7).to_f32(), 1.5);
    }

    #[test]
    fn stochastic_rounding_unbiased_in_expectation() {
        let v = 1.0 + 3.0 * f32::powi(2.0, -12);
        let n = 10_000;
        let mut acc = 0.0f64;
        for i in 0..n {
            let noise = (i as f32 + 0.5) / n as f32;
            acc += F16::from_f32_stochastic(v, noise).to_f32() as f64;
        }
        let mean = acc / n as f64;
        assert!((mean - v as f64).abs() < 1e-5, "mean {mean} vs {v}");
    }

    #[test]
    fn displays_value() {
        assert_eq!(F16::from_f32(1.5).to_string(), "1.5");
        assert_eq!(Bf16::from_f32(-2.0).to_string(), "-2");
    }
}
