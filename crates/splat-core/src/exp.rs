//! The exponential of Eq. 1, owned.
//!
//! α needs `exp(-½·m)` with `0 ≤ m ≤ 9` (the 3σ cutoff), so its argument
//! lies in `[-4.5, -0.0]`. [`exp_neg`] covers exactly that domain with
//! plain `f32` arithmetic: no table, no libm call and no `round` / `floor`
//! (both are libm calls on baseline x86-64). Inlined into a loop over a
//! row of lanes it auto-vectorizes, which a call into libm `expf` never
//! does.

/// `1.5 · 2²³`. Adding it to an `f32` of magnitude below 2²² rounds that
/// value to an integer (to nearest, ties to even) and leaves the integer
/// in the low mantissa bits of the sum: `sum.to_bits() == ROUND_MAGIC
/// bits + k`.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// The bits of [`ROUND_MAGIC`] less the `f32` exponent bias (127):
/// `sum.to_bits() - MAGIC_MINUS_BIAS` is `k + 127`, the biased exponent of
/// `2^k`.
const MAGIC_MINUS_BIAS: u32 = 0x4B40_0000 - 127;

/// ln 2 split for Cody-Waite reduction: `LN2_HI = 355/512` has 9
/// significant bits, so `k · LN2_HI` is exact for every `|k| < 2¹⁵`, and
/// `LN2_HI + LN2_LO` is ln 2 to about 2⁻³⁶.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp(x)` for `x ∈ [-4.5, -0.0]`, at most 1 ulp from the correctly
/// rounded value (`(x as f64).exp() as f32`) everywhere in that domain.
///
/// Cody-Waite reduction `x = k·ln 2 + r` with `|r| ≤ ½ ln 2`, where `k` is
/// rounded by the `1.5 · 2²³` add; then the degree-7 Taylor polynomial
/// of `exp(r)` as `1 + (r + r²·q(r))`, `q` in Horner form, and `2^k` built
/// from bits. Adding the 1 last rounds a small, accurate sum once: the
/// plain Horner form `1 + r·(1 + r·(…))` is as accurate but increases at
/// 2,861 inputs of the domain, this form at none. Every operation
/// is a plain `f32` `*`, `+` or `-` (Rust never contracts them into a
/// fused multiply-add), so the result is the same on every IEEE-754 host.
///
/// Measured over all 1,083,179,009 `f32`s of the domain: max 1 ulp from
/// the correctly rounded value, 0.55 % of inputs differ from glibc's
/// `f32::exp`, and the function is non-increasing. `exp_neg(-0.0)` and
/// `exp_neg(0.0)` are exactly `1.0`. Outside the domain the value is
/// unspecified, but the function never panics.
#[inline]
pub(crate) fn exp_neg(x: f32) -> f32 {
    let shifted = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let q = 1.0 / 5040.0;
    let q = q * r + 1.0 / 720.0;
    let q = q * r + 1.0 / 120.0;
    let q = q * r + 1.0 / 24.0;
    let q = q * r + 1.0 / 6.0;
    let q = q * r + 0.5;
    let exp_r = ((r * r) * q + r) + 1.0;
    let scale = f32::from_bits(shifted.to_bits().wrapping_sub(MAGIC_MINUS_BIAS) << 23);
    exp_r * scale
}

#[cfg(test)]
mod tests {
    use super::exp_neg;

    /// Bits of the domain's ends: `-0.0` and `-4.5`. Negative `f32`s grow
    /// in magnitude with their bits, so the domain is one contiguous bit
    /// range.
    const NEG_ZERO_BITS: u32 = 0x8000_0000;
    const NEG_4_5_BITS: u32 = 0xC090_0000;

    /// Distance in ulps between two positive finite `f32`s.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Walks the domain from `-0.0` to `-4.5` every `stride` bit patterns
    /// (always including `-4.5`). Returns the max ulp distance from the
    /// correctly rounded value, the number of inputs that differ from
    /// `f32::exp`, the number of inputs, and the first input where the
    /// sweep stopped being non-increasing.
    fn sweep(stride: u32) -> (u32, u64, u64, Option<f32>) {
        let mut max_ulp = 0;
        let mut off_libm = 0u64;
        let mut inputs = 0u64;
        let mut first_increase = None;
        let mut previous = f32::INFINITY;
        let mut bits = NEG_ZERO_BITS;
        loop {
            let x = f32::from_bits(bits);
            let got = exp_neg(x);
            max_ulp = max_ulp.max(ulps(got, (x as f64).exp() as f32));
            off_libm += u64::from(got != x.exp());
            inputs += 1;
            if got > previous && first_increase.is_none() {
                first_increase = Some(x);
            }
            previous = got;
            if bits == NEG_4_5_BITS {
                return (max_ulp, off_libm, inputs, first_increase);
            }
            bits = (bits + stride).min(NEG_4_5_BITS);
        }
    }

    #[test]
    fn exp_neg_is_within_one_ulp_on_a_strided_sweep() {
        assert_eq!(exp_neg(-0.0), 1.0);
        assert_eq!(exp_neg(0.0), 1.0);
        // Every 997th bit pattern: ~1.1M inputs from -0.0 out to -4.5.
        let (max_ulp, _, inputs, first_increase) = sweep(997);
        assert!(inputs > 1_000_000, "{inputs} inputs");
        assert!(max_ulp <= 1, "max {max_ulp} ulp");
        assert_eq!(first_increase, None, "exp_neg increases at this input");
        // The integer points of the reduction, where r = 0 and only 2^k
        // and the rounding of k·ln 2 are at work.
        for k in 0..=6u8 {
            let x = -f32::from(k) * std::f32::consts::LN_2;
            assert!(ulps(exp_neg(x), (x as f64).exp() as f32) <= 1, "x = {x}");
        }
    }

    /// Every `f32` in `[-4.5, -0.0]`: 1,083,179,009 inputs. Run it with
    /// `cargo test --release -q -p splat-core -- --ignored exp_neg`.
    #[test]
    #[ignore = "exhaustive: ~1.1e9 inputs, run in release"]
    fn exp_neg_is_within_one_ulp_on_every_input() {
        let (max_ulp, off_libm, inputs, first_increase) = sweep(1);
        println!(
            "exp_neg over {inputs} inputs: max {max_ulp} ulp from the correctly rounded value; \
             {off_libm} ({:.4} %) differ from f32::exp",
            100.0 * off_libm as f64 / inputs as f64
        );
        assert_eq!(inputs, 1_083_179_009);
        assert!(max_ulp <= 1, "max {max_ulp} ulp");
        assert_eq!(first_increase, None, "exp_neg increases at this input");
    }
}
