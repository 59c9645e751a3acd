//! Quantized communication (§5.3.2, [Yang et al. 2020]).
//!
//! The paper sends the forward pooled-embedding AlltoAll in FP16 and the
//! backward AlltoAll in BF16: FP16 has more mantissa (better for
//! activations), BF16 has FP32's exponent range (safer for gradients).

/// Error from asking a [`QuantMode`] for a wire conversion it cannot do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// [`QuantMode::Fp32`] has no 16-bit wire format; callers must
    /// short-circuit the unquantized case instead of converting.
    NotQuantized,
    /// The source and destination of an `_into` conversion differ in
    /// length.
    LengthMismatch {
        /// Elements in the source slice.
        src: usize,
        /// Elements in the destination slice.
        dst: usize,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NotQuantized => {
                write!(f, "fp32 payloads are not quantized (no 16-bit wire format)")
            }
            QuantError::LengthMismatch { src, dst } => {
                write!(f, "wire conversion of {src} elements into {dst}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Wire precision for a quantized collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// No quantization: 4 bytes/element.
    #[default]
    Fp32,
    /// IEEE half precision: 2 bytes/element; used for the forward AlltoAll.
    Fp16,
    /// bfloat16: 2 bytes/element; used for the backward AlltoAll.
    Bf16,
}

impl QuantMode {
    /// Bytes per element on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        match self {
            QuantMode::Fp32 => 4,
            QuantMode::Fp16 | QuantMode::Bf16 => 2,
        }
    }

    /// Quantizes `src` into the 16-bit wire buffer `dst`, element for
    /// element, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotQuantized`] on [`QuantMode::Fp32`] (which
    /// has no 16-bit wire format — callers short-circuit that case) and
    /// [`QuantError::LengthMismatch`] when the lengths differ.
    pub fn encode_into(&self, src: &[f32], dst: &mut [u16]) -> Result<(), QuantError> {
        same_len(src.len(), dst.len())?;
        match self {
            QuantMode::Fp32 => return Err(QuantError::NotQuantized),
            QuantMode::Fp16 => neo_tensor::half::f16_encode(src, dst),
            QuantMode::Bf16 => neo_tensor::half::bf16_encode(src, dst),
        }
        Ok(())
    }

    /// Dequantizes the 16-bit wire buffer `src` into `dst`, element for
    /// element, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotQuantized`] on [`QuantMode::Fp32`] and
    /// [`QuantError::LengthMismatch`] when the lengths differ.
    pub fn decode_into(&self, src: &[u16], dst: &mut [f32]) -> Result<(), QuantError> {
        same_len(src.len(), dst.len())?;
        match self {
            QuantMode::Fp32 => return Err(QuantError::NotQuantized),
            QuantMode::Fp16 => neo_tensor::half::f16_decode(src, dst),
            QuantMode::Bf16 => neo_tensor::half::bf16_decode(src, dst),
        }
        Ok(())
    }

    /// Quantizes to a fresh 16-bit wire buffer: [`QuantMode::encode_into`]
    /// into a new `Vec`.
    ///
    /// # Errors
    ///
    /// As [`QuantMode::encode_into`].
    pub fn quantize(&self, src: &[f32]) -> Result<Vec<u16>, QuantError> {
        let mut wire = vec![0; src.len()];
        self.encode_into(src, &mut wire).map(|()| wire)
    }

    /// Dequantizes into a fresh buffer: [`QuantMode::decode_into`] into a
    /// new `Vec`.
    ///
    /// # Errors
    ///
    /// As [`QuantMode::decode_into`].
    pub fn dequantize(&self, src: &[u16]) -> Result<Vec<f32>, QuantError> {
        let mut out = vec![0.0; src.len()];
        self.decode_into(src, &mut out).map(|()| out)
    }
}

fn same_len(src: usize, dst: usize) -> Result<(), QuantError> {
    if src == dst {
        Ok(())
    } else {
        Err(QuantError::LengthMismatch { src, dst })
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantMode::Fp32 => write!(f, "FP32"),
            QuantMode::Fp16 => write!(f, "FP16"),
            QuantMode::Bf16 => write!(f, "BF16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(QuantMode::Fp32.wire_bytes(), 4);
        assert_eq!(QuantMode::Fp16.wire_bytes(), 2);
        assert_eq!(QuantMode::Bf16.wire_bytes(), 2);
    }

    #[test]
    fn fp16_roundtrip_error_bounded() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.123).collect();
        let back = QuantMode::Fp16
            .dequantize(&QuantMode::Fp16.quantize(&src).unwrap())
            .unwrap();
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-4);
        }
    }

    #[test]
    fn bf16_preserves_range() {
        let src = vec![1e30f32, -3e20, 4e-20];
        let back = QuantMode::Bf16
            .dequantize(&QuantMode::Bf16.quantize(&src).unwrap())
            .unwrap();
        for (a, b) in src.iter().zip(&back) {
            assert!(((a - b) / a).abs() < 1.0 / 128.0);
        }
    }

    #[test]
    fn fp16_overflows_where_bf16_does_not() {
        let src = vec![1e10f32];
        let f16 = QuantMode::Fp16
            .dequantize(&QuantMode::Fp16.quantize(&src).unwrap())
            .unwrap();
        let bf16 = QuantMode::Bf16
            .dequantize(&QuantMode::Bf16.quantize(&src).unwrap())
            .unwrap();
        assert!(f16[0].is_infinite(), "fp16 saturates at 65504");
        assert!(bf16[0].is_finite());
    }

    #[test]
    fn fp32_conversion_is_a_typed_error() {
        assert_eq!(
            QuantMode::Fp32.quantize(&[1.0]),
            Err(QuantError::NotQuantized)
        );
        assert_eq!(
            QuantMode::Fp32.dequantize(&[0]),
            Err(QuantError::NotQuantized)
        );
        assert_eq!(
            QuantMode::Fp32.encode_into(&[1.0], &mut [0]),
            Err(QuantError::NotQuantized)
        );
        assert_eq!(
            QuantMode::Fp32.decode_into(&[0], &mut [0.0]),
            Err(QuantError::NotQuantized)
        );
        assert!(QuantError::NotQuantized
            .to_string()
            .contains("not quantized"));
        let short = QuantError::LengthMismatch { src: 2, dst: 1 };
        for mode in [QuantMode::Fp16, QuantMode::Bf16] {
            assert_eq!(mode.encode_into(&[1.0, 2.0], &mut [0]), Err(short));
            assert_eq!(mode.decode_into(&[0, 0], &mut [0.0]), Err(short));
        }
        assert_eq!(short.to_string(), "wire conversion of 2 elements into 1");
    }

    #[test]
    fn display_names() {
        assert_eq!(QuantMode::Fp16.to_string(), "FP16");
        assert_eq!(QuantMode::default(), QuantMode::Fp32);
    }
}
