//! IEEE-754 binary16 implemented in software.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Smallest positive subnormal is 2^-24, smallest normal 2^-14, largest
//! finite value 65504.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// An IEEE-754 binary16 ("half precision") floating-point number.
///
/// Arithmetic is performed by promoting to `f32`, which is exact for a
/// single operation (binary16 -> binary32 is lossless and one rounding step
/// back is correctly rounded). This mirrors what GPU half-precision ALUs do
/// for the multiply-into-wider-accumulator pattern used by the dose kernel.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

// IEEE equality, not bit equality: -0 == +0 and NaN != NaN.
impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f64() == other.to_f64()
    }
}

const EXP_MASK: u16 = 0x7c00;
const MAN_MASK: u16 = 0x03ff;
const SIGN_MASK: u16 = 0x8000;

/// The binary16 -> binary64 conversion by bit manipulation: the one
/// definition of a binary16 value. Exact: every binary16 value is a
/// binary64 value. Normals and non-finite values are re-encoded with the
/// wider exponent bias and mantissa; a subnormal is `man * 2^-24`. A NaN
/// keeps its sign and its payload (shifted into the top mantissa bits)
/// because it is built from bits, never by a float operation, so the
/// compile-time table and a run-time call give the same bits.
const fn decode(bits: u16) -> f64 {
    let sign = ((bits & SIGN_MASK) as u64) << 48;
    let exp = ((bits & EXP_MASK) >> 10) as u64;
    let man = (bits & MAN_MASK) as u64;
    match exp {
        0 => {
            // Zero or subnormal: man * 2^-24, exact in f64.
            let magnitude = man as f64 * f64::from_bits(0x3e70_0000_0000_0000); // 2^-24
            if sign != 0 {
                -magnitude
            } else {
                magnitude
            }
        }
        0x1f => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | (man << 42)),
        _ => f64::from_bits(sign | ((exp + 1008) << 52) | (man << 42)),
    }
}

/// Every binary16 value as an `f64`, indexed by its bit pattern, filled
/// by [`decode`] at compile time: a decode without a branch to mispredict
/// (see the crate documentation for why that matters).
static DECODE: [f64; 1 << 16] = {
    let mut table = [0.0; 1 << 16];
    let mut bits = 0;
    while bits < table.len() {
        table[bits] = decode(bits as u16);
        bits += 1;
    }
    table
};

impl F16 {
    pub const ZERO: F16 = F16(0x0000);
    pub const NEG_ZERO: F16 = F16(0x8000);
    pub const ONE: F16 = F16(0x3c00);
    pub const INFINITY: F16 = F16(0x7c00);
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN with the canonical payload.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Most negative finite value, -65504.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: the difference between 1.0 and the next larger
    /// representable value, 2^-10.
    pub const EPSILON: F16 = F16(0x1400);

    /// Reinterprets raw bits as a binary16 value.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest, ties-to-even.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x7f_ffff;

        if exp == 0xff {
            // Infinity or NaN. Keep NaN-ness: force a mantissa bit if the
            // truncated payload would be zero.
            if man == 0 {
                return F16(sign | EXP_MASK);
            }
            let payload = ((man >> 13) as u16) & MAN_MASK;
            return F16(sign | EXP_MASK | payload | 0x0200);
        }

        // Unbiased exponent of the f32 value (f32 subnormals have
        // magnitude < 2^-126, far below the f16 underflow threshold, so
        // treating exp == 0 like a tiny normal is fine: it flushes to zero
        // through the `< -10` branch below).
        let unbiased = exp - 127;
        let half_exp = unbiased + 15;

        if half_exp >= 0x1f {
            // Overflow. Round-to-nearest maps everything >= 2^16 - 2^4 (the
            // midpoint above MAX) to infinity; values in (MAX, midpoint)
            // round down to MAX. The midpoint 65520 has unbiased exponent
            // 15, i.e. half_exp == 30 < 0x1f, so any value reaching this
            // branch is >= 2^16 and becomes infinity.
            return F16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            // Result is subnormal (or zero). Values below 2^-25 round to
            // zero; 2^-25 exactly is a tie against zero and ties-to-even
            // also gives zero.
            if half_exp < -10 || exp == 0 {
                return F16(sign);
            }
            let m = man | 0x80_0000; // make the implicit leading 1 explicit
                                     // v = m * 2^(unbiased-23); result = round(v / 2^-24) = m >> shift.
            let shift = (-unbiased - 1) as u32; // in 14..=24
            let result = (m >> shift) as u16;
            let rem = m & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let round_up = rem > halfway || (rem == halfway && result & 1 == 1);
            return F16(sign | (result + round_up as u16));
        }

        // Normal result: drop 13 mantissa bits with RNE. A mantissa
        // carry-out increments the exponent; carrying out of the largest
        // exponent correctly produces infinity because the bit layout is
        // contiguous.
        let mut out = sign | ((half_exp as u16) << 10) | ((man >> 13) as u16);
        let rem = man & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && out & 1 == 1) {
            out += 1;
        }
        F16(out)
    }

    /// Converts from `f64` with a single round-to-nearest-even step.
    ///
    /// This is *not* the same as `F16::from_f32(x as f32)`: the intermediate
    /// f32 rounding can land exactly on a binary16 tie and then break the
    /// tie the wrong way (double rounding).
    pub fn from_f64(x: f64) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let man = bits & 0xf_ffff_ffff_ffff;

        if exp == 0x7ff {
            if man == 0 {
                return F16(sign | EXP_MASK);
            }
            let payload = ((man >> 42) as u16) & MAN_MASK;
            return F16(sign | EXP_MASK | payload | 0x0200);
        }

        let unbiased = exp - 1023;
        let half_exp = unbiased + 15;

        if half_exp >= 0x1f {
            return F16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            if half_exp < -10 || exp == 0 {
                return F16(sign);
            }
            let m = man | (1u64 << 52);
            // v = m * 2^(unbiased-52); result = round(v / 2^-24) = m >> shift.
            let shift = (28 - unbiased) as u32; // in 43..=53
            let result = (m >> shift) as u16;
            let rem = m & ((1u64 << shift) - 1);
            let halfway = 1u64 << (shift - 1);
            let round_up = rem > halfway || (rem == halfway && result & 1 == 1);
            return F16(sign | (result + round_up as u16));
        }

        let mut out = sign | ((half_exp as u16) << 10) | ((man >> 42) as u16);
        let rem = man & 0x3ff_ffff_ffff;
        let halfway = 1u64 << 41;
        if rem > halfway || (rem == halfway && out & 1 == 1) {
            out += 1;
        }
        F16(out)
    }

    /// Converts to `f32`. Exact: every binary16 value is representable.
    /// Narrows the decode table's `f64`, which is exact for every non-NaN
    /// value; a NaN stays a NaN of the same sign.
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Converts to `f64`. Exact: one load from a compile-time table of
    /// all 65,536 values (see the crate documentation).
    #[inline]
    pub fn to_f64(self) -> f64 {
        DECODE[self.0 as usize]
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK != 0
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & (EXP_MASK | MAN_MASK) == EXP_MASK
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    /// True for subnormals (nonzero values with a zero exponent field).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        self.0 & EXP_MASK == 0 && self.0 & MAN_MASK != 0
    }

    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// IEEE-754 `totalOrder` comparison on the bit patterns. Unlike
    /// `PartialOrd`, this is a total order (NaNs sort above infinities,
    /// -0 below +0), which lets binary16 values key deterministic sorts.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        // Flip the ordering of negative values by treating the bits as a
        // sign-magnitude integer mapped to two's complement.
        fn key(bits: u16) -> i32 {
            let b = bits as i32;
            if b & 0x8000 != 0 {
                !b & 0xffff
            } else {
                b | 0x1_0000
            }
        }
        key(self.0).cmp(&key(other.0))
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> Self {
        x.to_f64()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f64().partial_cmp(&other.to_f64())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

macro_rules! promote_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32().$method(rhs.to_f32()))
            }
        }
    };
}

promote_binop!(Add, add);
promote_binop!(Sub, sub);
promote_binop!(Mul, mul);
promote_binop!(Div, div);

impl AddAssign for F16 {
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl MulAssign for F16 {
    fn mul_assign(&mut self, rhs: F16) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_nan());
    }

    #[test]
    fn roundtrip_all_bit_patterns_through_f32() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "NaN lost at bits {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "roundtrip failed at {bits:#06x}");
            }
        }
    }

    #[test]
    fn roundtrip_all_bit_patterns_through_f64() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f64(h.to_f64());
            if h.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits);
            }
        }
    }

    /// A binary16 value from its definition, `(-1)^s * 2^(e-15) * 1.m`
    /// for normals and `(-1)^s * 2^-14 * 0.m` for subnormals, in plain
    /// arithmetic (powers of two are exact): a check on [`decode`]'s bit
    /// re-encoding that does not share its code.
    fn by_definition(bits: u16) -> f64 {
        let exp = ((bits & EXP_MASK) >> 10) as i32;
        let man = (bits & MAN_MASK) as f64;
        let magnitude = match exp {
            0 => man * 2f64.powi(-24),
            0x1f if man == 0.0 => f64::INFINITY,
            0x1f => f64::NAN,
            _ => (1024.0 + man) * 2f64.powi(exp - 25),
        };
        if bits & SIGN_MASK != 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    #[test]
    fn decode_table_is_exact_for_every_bit_pattern() {
        use crate::DoseScalar;
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let want = by_definition(bits);
            let widened = [
                h.to_f64(),
                h.to_f32() as f64,
                DoseScalar::to_f64(h),
                DoseScalar::to_f32(h) as f64,
            ];
            if h.is_nan() {
                // Narrowing a NaN may quiet it, so only NaN-ness and the
                // sign are pinned here; the table's own NaN bits are
                // checked against `decode` below.
                for v in widened {
                    assert!(v.is_nan(), "{bits:#06x}");
                    assert_eq!(v.is_sign_negative(), h.is_sign_negative(), "{bits:#06x}");
                }
            } else {
                for v in widened {
                    assert_eq!(v.to_bits(), want.to_bits(), "{bits:#06x}");
                }
            }
            // The table holds what a run-time call of the conversion gives.
            assert_eq!(h.to_f64().to_bits(), decode(bits).to_bits(), "{bits:#06x}");
            // IEEE equality follows the values: against itself, its
            // negation and its bit-pattern neighbour.
            for other in [bits, bits ^ SIGN_MASK, bits.wrapping_add(1)] {
                let eq = h == F16::from_bits(other);
                assert_eq!(
                    eq,
                    want == by_definition(other),
                    "{bits:#06x} vs {other:#06x}"
                );
            }
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and 1.0 + 2^-10;
        // the even mantissa is 1.0.
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)).to_f32(), 1.0);
        // (1.0 + 2^-10) + 2^-11 is halfway with an odd lower neighbour, so
        // it rounds up to 1.0 + 2^-9.
        let x = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(x).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Anything above the halfway point rounds up.
        assert_eq!(
            F16::from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20)).to_f32(),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn overflow_rounds_to_infinity_or_max() {
        assert_eq!(F16::from_f32(65504.0).to_bits(), F16::MAX.to_bits());
        // Below the midpoint 65520 -> rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0).to_bits(), F16::MAX.to_bits());
        // The midpoint ties to even = infinity (MAX has odd mantissa).
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_sign_negative());
        assert!(F16::from_f32(-1e9).is_infinite());
    }

    #[test]
    fn underflow_and_subnormals() {
        // 2^-24 is the smallest subnormal.
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).to_bits(), 1);
        // 2^-25 ties against zero; even mantissa is zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0);
        // Just above 2^-25 rounds up to the smallest subnormal.
        assert_eq!(F16::from_f32(2.0f32.powi(-25) * 1.0001).to_bits(), 1);
        // Way below underflow.
        assert_eq!(F16::from_f32(1e-30).to_bits(), 0);
        assert_eq!(F16::from_f32(-1e-30).to_bits(), 0x8000);
        // f32 subnormals flush to zero.
        assert_eq!(F16::from_f32(f32::from_bits(1)).to_bits(), 0);
        // The subnormal boundary: largest subnormal and smallest normal.
        let largest_subnormal = F16::from_bits(0x03ff);
        assert!(largest_subnormal.is_subnormal());
        assert_eq!(F16::from_f32(largest_subnormal.to_f32()).to_bits(), 0x03ff);
    }

    #[test]
    fn double_rounding_f64_direct_vs_via_f32() {
        // Construct x = 1 + 2^-11 + 2^-30: rounding to f32 keeps it above
        // the f16 tie, so the correct f16 result is 1 + 2^-10. But rounding
        // first to a value that lands exactly on the tie would give 1.0.
        // The f32 path happens to survive here because f32 has enough
        // precision; build the genuinely failing case instead:
        // x = (1 + 2^-11) + 2^-26 rounds to f32 as itself (representable),
        // then f32->f16 sees rem > halfway and rounds up: fine.
        // The failing pattern needs the f64 to round *down* onto the tie:
        // x = 1 + 2^-11 + 2^-25 is representable in f64 and f32? 2^-25
        // needs mantissa bit 25 — not representable in f32 for values near
        // 1 (24-bit mantissa), so f32 RNE rounds it... to 1 + 2^-11 exactly
        // wait: 1 + 2^-11 + 2^-25 in f32: the tail 2^-25 is below half of
        // the f32 ulp (2^-24 ulp at 1.0 is 2^-23)? ulp(1.0) = 2^-23, half
        // is 2^-24, and 2^-25 < 2^-24, so f32 rounds down to 1 + 2^-11 —
        // exactly the f16 tie — and the tie then breaks to even (1.0).
        // Direct f64->f16 sees rem > halfway and rounds up.
        let x = 1.0f64 + 2.0f64.powi(-11) + 2.0f64.powi(-25);
        let direct = F16::from_f64(x);
        let via_f32 = F16::from_f32(x as f32);
        assert_eq!(direct.to_f32(), 1.0 + 2.0f32.powi(-10));
        assert_eq!(via_f32.to_f32(), 1.0);
        assert_ne!(direct.to_bits(), via_f32.to_bits());
    }

    #[test]
    fn from_f64_matches_from_f32_for_f32_inputs() {
        // For inputs that are exactly representable in f32, the two paths
        // must agree (no intermediate rounding happens).
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = f32::from_bits((state >> 32) as u32);
            if x.is_nan() {
                continue;
            }
            assert_eq!(
                F16::from_f32(x).to_bits(),
                F16::from_f64(x as f64).to_bits(),
                "mismatch at {x:e}"
            );
        }
    }

    #[test]
    fn nan_propagation() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f64(f64::NAN).is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::NAN * F16::ZERO).is_nan());
        // NaN compares unequal to itself.
        assert_ne!(F16::NAN.partial_cmp(&F16::NAN), Some(Ordering::Equal));
    }

    #[test]
    fn signed_zero() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::NEG_ZERO, F16::ZERO); // IEEE equality
        assert_ne!(F16::NEG_ZERO.to_bits(), F16::ZERO.to_bits());
    }

    #[test]
    fn arithmetic_promotes_correctly() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.to_f32(), 3.75);
    }

    #[test]
    fn total_cmp_is_a_total_order_on_interesting_values() {
        let vals = [
            F16::NAN.to_bits() | 0x8000, // negative NaN
            F16::NEG_INFINITY.to_bits(),
            F16::MIN.to_bits(),
            F16::from_f32(-1.0).to_bits(),
            0x8001, // -min subnormal
            0x8000, // -0
            0x0000, // +0
            0x0001, // +min subnormal
            F16::ONE.to_bits(),
            F16::MAX.to_bits(),
            F16::INFINITY.to_bits(),
            F16::NAN.to_bits(),
        ];
        for w in vals.windows(2) {
            let a = F16::from_bits(w[0]);
            let b = F16::from_bits(w[1]);
            assert_eq!(a.total_cmp(&b), Ordering::Less, "{a:?} !< {b:?}");
        }
    }

    #[test]
    fn monotonic_over_random_pairs() {
        let mut state = 42u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = f32::from_bits((state >> 33) as u32 & 0x7fff_ffff); // positive finite-ish
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = f32::from_bits((state >> 33) as u32 & 0x7fff_ffff);
            if !a.is_finite() || !b.is_finite() {
                continue;
            }
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32(),
                "rounding not monotonic: {lo:e} vs {hi:e}"
            );
        }
    }
}
