//! bfloat16: the upper 16 bits of an IEEE-754 binary32.
//!
//! bfloat16 keeps the full f32 exponent range (8 bits) but only 7 mantissa
//! bits. For dose deposition values — non-negative, spanning roughly six
//! orders of magnitude after Monte Carlo noise thresholding — the trade-off
//! against binary16 is wider range for ~8x coarser relative precision. The
//! value-encoding ablation bench quantifies this on real matrices.

use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

/// A bfloat16 value (1 sign, 8 exponent, 7 mantissa bits).
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Bf16(u16);

// IEEE equality, not bit equality: -0 == +0 and NaN != NaN.
impl PartialEq for Bf16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl Bf16 {
    pub const ZERO: Bf16 = Bf16(0x0000);
    pub const ONE: Bf16 = Bf16(0x3f80);
    pub const INFINITY: Bf16 = Bf16(0x7f80);
    pub const NAN: Bf16 = Bf16(0x7fc0);
    /// Largest finite value, approximately 3.39e38.
    pub const MAX: Bf16 = Bf16(0x7f7f);
    /// Machine epsilon, 2^-7.
    pub const EPSILON: Bf16 = Bf16(0x3c00);

    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest, ties-to-even.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Keep NaN-ness regardless of which payload bits get dropped.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = 0x8000u32;
        let rem = bits & 0xffff;
        let mut out = (bits >> 16) as u16;
        if rem > round_bit || (rem == round_bit && out & 1 == 1) {
            // Carry may ripple into the exponent; overflow to infinity is
            // correct because the encoding is contiguous.
            out = out.wrapping_add(1);
        }
        Bf16(out)
    }

    /// Converts from `f64` (rounds to f32 first, then truncates mantissa
    /// with RNE; double rounding is possible in principle but irrelevant at
    /// 7 bits of target precision for this crate's use as an ablation).
    pub fn from_f64(x: f64) -> Self {
        Bf16::from_f32(x as f32)
    }

    /// Converts to `f32`. Exact.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        self.0 & 0x7f80 == 0x7f80 && self.0 & 0x007f != 0
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & 0x7fff == 0x7f80
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & 0x7f80 != 0x7f80
    }

    #[inline]
    pub fn abs(self) -> Self {
        Bf16(self.0 & 0x7fff)
    }
}

impl From<f32> for Bf16 {
    fn from(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> Self {
        x.to_f32()
    }
}

impl Neg for Bf16 {
    type Output = Bf16;
    fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }
}

macro_rules! promote_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Bf16 {
            type Output = Bf16;
            fn $method(self, rhs: Bf16) -> Bf16 {
                Bf16::from_f32(self.to_f32().$method(rhs.to_f32()))
            }
        }
    };
}

promote_binop!(Add, add);
promote_binop!(Sub, sub);
promote_binop!(Mul, mul);

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}bf16", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_bit_patterns() {
        for bits in 0..=u16::MAX {
            let b = Bf16::from_bits(bits);
            let back = Bf16::from_f32(b.to_f32());
            if b.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits);
            }
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1 + 2^-8 is halfway between 1 and 1 + 2^-7: even -> 1.
        assert_eq!(Bf16::from_f32(1.0 + 2.0f32.powi(-8)).to_f32(), 1.0);
        // (1 + 2^-7) + 2^-8: odd lower neighbour -> rounds up.
        assert_eq!(
            Bf16::from_f32(1.0 + 2.0f32.powi(-7) + 2.0f32.powi(-8)).to_f32(),
            1.0 + 2.0f32.powi(-6)
        );
    }

    #[test]
    fn keeps_f32_range() {
        // 1e30 overflows binary16 but not bfloat16.
        assert!(Bf16::from_f32(1e30).is_finite());
        // f32::MAX sits above the midpoint between Bf16::MAX and 2^128, so
        // round-to-nearest correctly takes it to infinity.
        assert!(Bf16::from_f32(f32::MAX).is_infinite());
        assert!(Bf16::from_f32(Bf16::MAX.to_f32()).is_finite());
        assert!(Bf16::from_f32(f32::INFINITY).is_infinite());
    }

    #[test]
    fn nan_preserved() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        // A NaN whose top-16 payload bits are all zero must still be NaN.
        let sneaky = f32::from_bits(0x7f80_0001);
        assert!(sneaky.is_nan());
        assert!(Bf16::from_f32(sneaky).is_nan());
    }

    #[test]
    fn relative_error_bounded_by_epsilon() {
        let mut state = 7u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 100.0;
            if x == 0.0 {
                continue;
            }
            let err = (Bf16::from_f32(x).to_f32() - x).abs() / x.abs();
            assert!(err <= 2.0f32.powi(-8), "err {err} at {x}");
        }
    }
}
