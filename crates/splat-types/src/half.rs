//! Software IEEE-754 binary16 ("half precision") conversion.
//!
//! The GS-TG evaluation converts models trained in 32-bit floating point to
//! 16-bit floating point to improve throughput and area efficiency of the
//! accelerator (Section VI-A of the paper). This module provides the exact
//! round-to-nearest-even conversion so that the simulator can quantify the
//! effect of the reduced precision and so that scene serialization can match
//! the accelerator's on-chip number format.

/// An IEEE-754 binary16 value stored as its bit pattern.
///
/// `F16` is a storage/transport format: arithmetic is performed by
/// converting to `f32`, operating, and converting back, which mirrors how
/// the modelled hardware datapath treats half-precision operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct F16(u16);

impl F16 {
    /// Converts an `f32` to the nearest representable half
    /// (round-to-nearest-even, the IEEE default used by hardware FP units).
    fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            let payload = if mantissa != 0 { 0x0200 } else { 0 };
            return Self(sign | 0x7C00 | payload);
        }

        // Re-bias exponent from f32 (127) to f16 (15).
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return Self(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normalized result: keep top 10 mantissa bits with rounding.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_man = (mantissa >> 13) as u16;
            let round_bit = (mantissa >> 12) & 1;
            let sticky = mantissa & 0x0FFF;
            let mut result = sign | half_exp | half_man;
            if round_bit == 1 && (sticky != 0 || (half_man & 1) == 1) {
                result = result.wrapping_add(1);
            }
            return Self(result);
        }
        if unbiased >= -24 {
            // Subnormal result.
            let full_man = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_man = (full_man >> shift) as u16;
            let round_mask = 1u32 << (shift - 1);
            let round_bit = (full_man & round_mask) != 0;
            let sticky = (full_man & (round_mask - 1)) != 0;
            let mut result = sign | half_man;
            if round_bit && (sticky || (half_man & 1) == 1) {
                result = result.wrapping_add(1);
            }
            return Self(result);
        }
        // Underflow to signed zero.
        Self(sign)
    }

    /// Converts the half back to `f32` exactly.
    fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & 0x8000) << 16;
        let exp = u32::from(self.0 >> 10) & 0x1F;
        let mantissa = u32::from(self.0) & 0x03FF;

        let bits = if exp == 0 {
            if mantissa == 0 {
                sign
            } else {
                // Subnormal: normalize it into an f32.
                let mut m = mantissa;
                let mut e: i32 = 0;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                let exp32 = (127 - 15 + e + 1) as u32;
                sign | (exp32 << 23) | ((m & 0x03FF) << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mantissa << 13)
        } else {
            let exp32 = exp + 127 - 15;
            sign | (exp32 << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }
}

/// Rounds an `f32` through half precision and back, emulating a datapath
/// that stores the value in 16 bits.
///
/// ```
/// let x = splat_types::half::round_trip_f16(std::f32::consts::PI);
/// assert!((x - std::f32::consts::PI).abs() < 1e-3);
/// ```
#[inline]
pub fn round_trip_f16(value: f32) -> f32 {
    F16::from_f32(value).to_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(round_trip_f16(v), v, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn one_has_expected_bits() {
        assert_eq!(F16::from_f32(1.0), F16(0x3C00));
        assert_eq!(F16(0x3C00).to_f32(), 1.0);
    }

    #[test]
    fn max_value_round_trips() {
        // 0x7BFF is the largest finite half.
        assert_eq!(F16(0x7BFF).to_f32(), 65504.0);
        assert_eq!(F16::from_f32(65504.0), F16(0x7BFF));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(round_trip_f16(1.0e6), f32::INFINITY);
        assert_eq!(round_trip_f16(-1.0e6), f32::NEG_INFINITY);
        assert_eq!(F16::from_f32(f32::INFINITY), F16(0x7C00));
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16(0xFC00));
    }

    #[test]
    fn nan_is_preserved() {
        let nan = F16::from_f32(f32::NAN);
        assert!(nan.0 & 0x7C00 == 0x7C00 && nan.0 & 0x03FF != 0);
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal half is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(round_trip_f16(tiny), tiny);
        // Below half of it, we underflow to zero.
        assert_eq!(round_trip_f16(2.0f32.powi(-26)), 0.0);
    }

    #[test]
    fn signed_zero_is_preserved() {
        assert_eq!(F16::from_f32(-0.0), F16(0x8000));
        assert_eq!(F16::from_f32(0.0), F16(0x0000));
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0009765625 = 1 + 2^-10 is exactly representable; halfway cases
        // between it and 1.0 round to the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(round_trip_f16(halfway), 1.0);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(round_trip_f16(above), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let mut rng = Rng::seed_from_u64(0x5EED_F00D_0000_0001);
        for _ in 0..2_000 {
            let v = rng.range_f32(-60000.0, 60000.0);
            let r = round_trip_f16(v);
            // Relative error of binary16 is at most 2^-11 for normal values.
            let tol = (v.abs() * 2.0f32.powi(-10)).max(2.0f32.powi(-14));
            assert!((r - v).abs() <= tol, "value {v} -> {r}");
        }
    }

    #[test]
    fn conversion_is_monotonic() {
        let mut rng = Rng::seed_from_u64(0x5EED_F00D_0000_0002);
        for _ in 0..2_000 {
            let a = rng.range_f32(-1000.0, 1000.0);
            let b = rng.range_f32(-1000.0, 1000.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(round_trip_f16(lo) <= round_trip_f16(hi), "{lo} vs {hi}");
        }
    }

    #[test]
    fn all_finite_halves_round_trip_exactly() {
        // Positive finite halves: f16 -> f32 -> f16 must be the identity.
        // Exhaustive — the proptest sweep this replaces only sampled it.
        for bits in 0u16..0x7C00u16 {
            let h = F16(bits);
            assert_eq!(F16::from_f32(h.to_f32()), h, "bits {bits:#06x}");
        }
    }
}
