//! Software half-precision types and the FP16/BF16 conversion kernels.
//!
//! The paper uses FP16 embedding-table storage and FP16/BF16 quantized
//! collectives (both §5.3.2, [Yang et al. 2020]). On CPU there is no
//! hardware half type, so we implement the two 16-bit formats as newtypes
//! over `u16` with correct conversion semantics:
//!
//! * [`F16`] — IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
//!   round-to-nearest-even plus an optional stochastic-rounding conversion
//!   used for embedding updates.
//! * [`Bf16`] — bfloat16 (truncated binary32), the format used for backward
//!   AlltoAll because its dynamic range matches FP32.
//!
//! Each round-to-nearest conversion is stated once, as branch-free integer
//! arithmetic that selects its special cases by mask: subnormals go
//! through one FPU add or subtract of a magic number, rounding is an add
//! of `0xfff + odd` (FP16) or `0x7fff + lsb` (BF16). The per-value methods
//! call it, and so do the slice kernels [`f16_encode`], [`f16_decode`],
//! [`bf16_encode`] and [`bf16_decode`], whose loops the autovectorizer
//! keeps in SIMD lanes. The quantized wire and the FP16 embedding store
//! convert through these kernels. The branchy scalar conversions they
//! replaced are kept as a test-only oracle, which the tests check every
//! kernel against bit for bit.

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
        let hi_bits = next_toward_inf(lo_bits);
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
        Self(f32_to_bf16_bits(value))
    }

    /// Converts back to `f32` (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        bf16_bits_to_f32(self.0)
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

/// Encodes `src` as IEEE binary16 bits into `dst`, rounding to nearest
/// even: bitwise [`F16::from_f32`] on every element.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn f16_encode(src: &[f32], dst: &mut [u16]) {
    convert(src, dst, f32_to_f16_bits);
}

/// Decodes IEEE binary16 bits in `src` into `dst` (exact): bitwise
/// [`F16::to_f32`] on every element.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn f16_decode(src: &[u16], dst: &mut [f32]) {
    convert(src, dst, f16_bits_to_f32);
}

/// Encodes `src` as bfloat16 bits into `dst`, rounding to nearest even:
/// bitwise [`Bf16::from_f32`] on every element.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn bf16_encode(src: &[f32], dst: &mut [u16]) {
    convert(src, dst, f32_to_bf16_bits);
}

/// Decodes bfloat16 bits in `src` into `dst` (exact): bitwise
/// [`Bf16::to_f32`] on every element.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn bf16_decode(src: &[u16], dst: &mut [f32]) {
    convert(src, dst, bf16_bits_to_f32);
}

/// Applies `f` element-wise from `src` to `dst`. With `f` inlined, the
/// loop vectorizer turns this loop into an `xmm`-lane body plus a scalar
/// tail. Hand-chunking it with `chunks_exact(8)` measured 17–44% slower:
/// LLVM then vectorizes across chunks with stride-8 shuffles.
#[inline(always)]
fn convert<S: Copy, D>(src: &[S], dst: &mut [D], f: impl Fn(S) -> D) {
    assert_eq!(
        src.len(),
        dst.len(),
        "half conversion: source and destination lengths differ"
    );
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = f(v);
    }
}

/// All ones when `c` holds, else zero.
#[inline(always)]
fn mask(c: bool) -> u32 {
    (c as u32).wrapping_neg()
}

/// `a` where `m` is set, `b` elsewhere.
#[inline(always)]
fn select(m: u32, a: u32, b: u32) -> u32 {
    (a & m) | (b & !m)
}

/// 2^-14, the smallest normal binary16 value, as f32 bits.
const F16_NORMAL_MIN: u32 = 113 << 23;

#[inline(always)]
fn f16_bits_to_f32(bits: u16) -> f32 {
    const EXP: u32 = 0x7c00 << 13;
    let h = bits as u32;
    let shifted = (h & 0x7fff) << 13; // exponent and mantissa, f32-aligned
    let exp = shifted & EXP;
    let normal = shifted + ((127 - 15) << 23);
    let inf_nan = normal + ((128 - 16) << 23);
    // Read as 2^-14 · (1 + m/1024), the subnormal minus 2^-14 is m · 2^-24
    // exactly (zero included).
    let subnormal = (f32::from_bits(normal + (1 << 23)) - f32::from_bits(F16_NORMAL_MIN)).to_bits();
    let out = select(mask(exp == EXP), inf_nan, normal);
    let out = select(mask(exp == 0), subnormal, out);
    f32::from_bits((h & 0x8000) << 16 | out)
}

#[inline(always)]
fn f32_to_f16_bits(value: f32) -> u16 {
    // 0.5: its ulp is 2^-24, binary16's smallest subnormal
    const MAGIC: u32 = 126 << 23;
    // 65536: from here on the result is infinite
    const OVERFLOW: u32 = (127 + 16) << 23;
    let bits = value.to_bits();
    let abs = bits & 0x7fff_ffff;
    // Re-bias the exponent and round to nearest even on bit 13; a carry
    // out of the mantissa lands in the exponent.
    let odd = (abs >> 13) & 1;
    let normal = abs.wrapping_sub((127 - 15) << 23).wrapping_add(0xfff + odd) >> 13;
    // The FPU's own round-to-nearest-even add aligns the subnormal's
    // mantissa at the bottom of 0.5's.
    let subnormal = (f32::from_bits(abs) + f32::from_bits(MAGIC))
        .to_bits()
        .wrapping_sub(MAGIC);
    let out = select(mask(abs < F16_NORMAL_MIN), subnormal, normal);
    let out = select(mask(abs >= OVERFLOW), 0x7c00, out);
    let out = select(mask(abs > 0x7f80_0000), 0x7e00, out); // NaN, quieted
    ((bits >> 16) & 0x8000 | out) as u16
}

#[inline(always)]
fn f32_to_bf16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let lsb = (bits >> 16) & 1;
    // round to nearest even on bit 16; only NaN patterns can wrap
    let rounded = bits.wrapping_add(0x7fff + lsb) >> 16;
    let quiet_nan = (bits >> 16) | 0x40;
    select(mask(bits & 0x7fff_ffff > 0x7f80_0000), quiet_nan, rounded) as u16
}

#[inline(always)]
fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
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
fn next_toward_inf(bits: u16) -> u16 {
    let mag = bits & 0x7fff;
    let sign = bits & 0x8000;
    if mag >= 0x7bff {
        return bits; // already max finite; stay
    }
    sign | (mag + 1)
}

#[cfg(test)]
/// The branchy scalar conversions the kernels replaced, verbatim: the
/// bit-for-bit reference of this module's tests.
mod oracle {
    pub(super) fn f16_bits_to_f32(bits: u16) -> f32 {
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

    pub(super) fn f32_to_f16_bits(value: f32) -> u16 {
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

    /// `Bf16::from_f32`'s body.
    pub(super) fn bf16_from_f32(value: f32) -> u16 {
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
        hi
    }

    /// `Bf16::to_f32`'s body.
    pub(super) fn bf16_bits_to_f32(bits: u16) -> f32 {
        f32::from_bits((bits as u32) << 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn decoders_are_the_oracle_on_every_pattern() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let (mut f16, mut bf16) = (vec![0.0; all.len()], vec![0.0; all.len()]);
        f16_decode(&all, &mut f16);
        bf16_decode(&all, &mut bf16);
        for (i, &h) in all.iter().enumerate() {
            let want = oracle::f16_bits_to_f32(h).to_bits();
            assert_eq!(f16_bits_to_f32(h).to_bits(), want, "f16 {h:#06x}");
            assert_eq!(f16[i].to_bits(), want, "f16_decode {h:#06x}");
            let want = oracle::bf16_bits_to_f32(h).to_bits();
            assert_eq!(bf16_bits_to_f32(h).to_bits(), want, "bf16 {h:#06x}");
            assert_eq!(bf16[i].to_bits(), want, "bf16_decode {h:#06x}");
        }
    }

    /// The `f32` patterns where an encoder can round, overflow or quiet
    /// differently, each in both signs.
    fn structured_encode_inputs() -> Vec<u32> {
        let mut out = Vec::new();
        // every finite FP16 value's image, the midpoint to the next one
        // up (65520 past the largest) and ±1 ulp around that midpoint;
        // the midpoints are exact, FP16 values having 11 significant bits
        for h in 0..0x7c00u16 {
            let lo = oracle::f16_bits_to_f32(h);
            let hi = if h == 0x7bff {
                65536.0
            } else {
                oracle::f16_bits_to_f32(h + 1)
            };
            let mid = (lo + (hi - lo) / 2.0).to_bits();
            out.extend([lo.to_bits(), mid - 1, mid, mid + 1]);
        }
        // every BF16 value's image and its upper midpoint ±1 ulp
        for h in 0..=0x7fffu32 {
            out.extend([
                h << 16,
                h << 16 | 0x7fff,
                h << 16 | 0x8000,
                h << 16 | 0x8001,
            ]);
        }
        // every exponent × 64 seeded random mantissas
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for exp in 0..=255u32 {
            out.extend((0..64).map(|_| exp << 23 | rng.gen::<u32>() & 0x7f_ffff));
        }
        // inf and NaN payloads, signalling then quiet
        out.extend([
            0x7f80_0000,
            0x7f80_0001,
            0x7f80_1000,
            0x7f80_2000,
            0x7fbf_ffff,
            0x7fc0_0000,
            0x7fc0_0001,
            0x7fff_ffff,
        ]);
        // the overflow edge: 65504, the largest f32 below 65520, 65520
        out.extend([0x477f_e000, 0x477f_efff, 0x477f_f000]);
        // the FP16 subnormal range, [2^-25, 2^-14) in f32, strided; and
        // the 2^-25 tie between zero and the smallest subnormal
        out.extend((102u32 << 23..113 << 23).step_by(1021));
        out.push(0x3300_0000);
        let negated: Vec<u32> = out.iter().map(|b| b | 0x8000_0000).collect();
        out.extend(negated);
        out
    }

    #[test]
    fn encoders_are_the_oracle_on_structured_inputs() {
        let src: Vec<f32> = structured_encode_inputs()
            .into_iter()
            .map(f32::from_bits)
            .collect();
        let (mut f16, mut bf16) = (vec![0; src.len()], vec![0; src.len()]);
        f16_encode(&src, &mut f16);
        bf16_encode(&src, &mut bf16);
        for (i, &v) in src.iter().enumerate() {
            let bits = v.to_bits();
            let want = oracle::f32_to_f16_bits(v);
            assert_eq!(f32_to_f16_bits(v), want, "f16 {bits:#010x}");
            assert_eq!(f16[i], want, "f16_encode {bits:#010x}");
            let want = oracle::bf16_from_f32(v);
            assert_eq!(f32_to_bf16_bits(v), want, "bf16 {bits:#010x}");
            assert_eq!(bf16[i], want, "bf16_encode {bits:#010x}");
        }
    }

    #[test]
    fn slice_kernels_match_the_scalar_conversions_at_every_tail_length() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in 0..=17 {
            let src: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.gen())).collect();
            let bits: Vec<u16> = (0..len).map(|_| rng.gen::<u32>() as u16).collect();
            let (mut enc, mut dec) = (vec![0; len], vec![0.0f32; len]);
            f16_encode(&src, &mut enc);
            assert!(enc.iter().zip(&src).all(|(&e, &v)| e == f32_to_f16_bits(v)));
            bf16_encode(&src, &mut enc);
            assert!(enc
                .iter()
                .zip(&src)
                .all(|(&e, &v)| e == f32_to_bf16_bits(v)));
            let bitwise = |d: &[f32], f: fn(u16) -> f32| {
                d.iter()
                    .zip(&bits)
                    .all(|(o, &b)| o.to_bits() == f(b).to_bits())
            };
            f16_decode(&bits, &mut dec);
            assert!(bitwise(&dec, f16_bits_to_f32), "len {len}");
            bf16_decode(&bits, &mut dec);
            assert!(bitwise(&dec, bf16_bits_to_f32), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn slice_kernels_reject_mismatched_lengths() {
        f16_encode(&[1.0, 2.0], &mut [0u16; 3]);
    }

    /// Every `f32` pattern through both slice encoders against the
    /// oracle, split over the available cores.
    #[test]
    #[ignore = "all 2^32 f32 patterns; run in release with --ignored"]
    fn f16_bf16_encode_exhaustive() {
        const BLOCK: u64 = 1 << 12;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let total = 1u64 << 32;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (lo, hi) = (total * t / threads, total * (t + 1) / threads);
                scope.spawn(move || {
                    let mut src = vec![0.0f32; BLOCK as usize];
                    let (mut f16, mut bf16) = (vec![0u16; src.len()], vec![0u16; src.len()]);
                    let mut start = lo;
                    while start < hi {
                        let n = (hi - start).min(BLOCK) as usize;
                        for (i, v) in src[..n].iter_mut().enumerate() {
                            *v = f32::from_bits((start + i as u64) as u32);
                        }
                        f16_encode(&src[..n], &mut f16[..n]);
                        bf16_encode(&src[..n], &mut bf16[..n]);
                        for (i, &v) in src[..n].iter().enumerate() {
                            let bits = v.to_bits();
                            assert_eq!(f16[i], oracle::f32_to_f16_bits(v), "f16 {bits:#010x}");
                            assert_eq!(bf16[i], oracle::bf16_from_f32(v), "bf16 {bits:#010x}");
                        }
                        start += n as u64;
                    }
                });
            }
        });
    }
}
