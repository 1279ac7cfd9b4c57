//! 16-bit scaled fixed-point encoding.
//!
//! Dose deposition values are non-negative (a spot cannot remove dose), so a
//! `u16` with a per-matrix linear scale is a natural 16-bit encoding: it
//! spends all 65536 code points on the value range actually present. Its
//! weakness is *relative* accuracy for small values, exactly where Monte
//! Carlo noise lives — the ablation bench quantifies this against binary16
//! and bfloat16.

use core::fmt;

/// A quantized dose value: `value = bits as f64 * scale`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Fixed16(pub u16);

impl fmt::Debug for Fixed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Linear quantizer mapping `[0, max_value]` onto `0..=65535`.
///
/// The scale is chosen once per matrix (RayStation-style: the format header
/// carries the scale; every entry is a `u16` multiple of it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantizer {
    scale: f64,
    inv_scale: f64,
}

impl Quantizer {
    /// Builds a quantizer that can represent values up to `max_value`
    /// without clamping. `max_value` must be positive and finite.
    pub fn for_max_value(max_value: f64) -> Self {
        assert!(
            max_value.is_finite() && max_value > 0.0,
            "quantizer max_value must be positive and finite, got {max_value}"
        );
        let scale = max_value / u16::MAX as f64;
        Quantizer {
            scale,
            inv_scale: 1.0 / scale,
        }
    }

    /// The value of one code step.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantizes with round-to-nearest; clamps to the representable range.
    /// Negative and NaN inputs map to zero (dose is non-negative).
    #[inline]
    pub fn quantize(&self, value: f64) -> Fixed16 {
        let scaled = value * self.inv_scale;
        // NaN and non-positive inputs map to zero (dose is non-negative).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(scaled > 0.0) {
            return Fixed16(0);
        }
        if scaled >= u16::MAX as f64 {
            return Fixed16(u16::MAX);
        }
        Fixed16((scaled + 0.5) as u16)
    }

    /// Reconstructs the represented value.
    #[inline]
    pub fn dequantize(&self, q: Fixed16) -> f64 {
        q.0 as f64 * self.scale
    }

    /// Worst-case absolute representation error (half a code step) for
    /// in-range inputs.
    #[inline]
    pub fn max_abs_error(&self) -> f64 {
        self.scale * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_bounded() {
        let q = Quantizer::for_max_value(10.0);
        for i in 0..10_000 {
            let x = i as f64 * 1e-3;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.max_abs_error() * (1.0 + 1e-12), "err {err} at {x}");
        }
    }

    #[test]
    fn codes_roundtrip_exactly() {
        let q = Quantizer::for_max_value(3.5);
        for bits in [0u16, 1, 7, 255, 32768, 65535] {
            assert_eq!(q.quantize(q.dequantize(Fixed16(bits))), Fixed16(bits));
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let q = Quantizer::for_max_value(1.0);
        assert_eq!(q.quantize(2.0), Fixed16(u16::MAX));
        assert_eq!(q.quantize(-0.5), Fixed16(0));
        assert_eq!(q.quantize(f64::NAN), Fixed16(0));
        assert_eq!(q.quantize(0.0), Fixed16(0));
    }

    #[test]
    fn max_value_is_representable() {
        let q = Quantizer::for_max_value(42.0);
        assert_eq!(q.quantize(42.0), Fixed16(u16::MAX));
        assert!((q.dequantize(Fixed16(u16::MAX)) - 42.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_max() {
        let _ = Quantizer::for_max_value(0.0);
    }
}
