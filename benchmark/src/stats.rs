//! Order statistics for timing samples.
//!
//! A timing is reported as a median and the highest percentile that has at
//! least ten samples beyond it; [`percentile`] refuses anything higher, so
//! a run that is too short cannot print a tail it did not measure.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why [`percentile`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PercentileError {
    /// `p` is not inside `(0, 1)`.
    OutOfRange,
    /// Fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the percentile.
    TooFewSamples { samples: usize, beyond: usize },
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank percentile `p` in `(0, 1)` of `values` (any order).
pub fn percentile(values: &[f64], p: f64) -> Result<f64, PercentileError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(PercentileError::OutOfRange);
    }
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(PercentileError::TooFewSamples { samples: n, beyond });
    }
    Ok(sorted(values)[rank - 1])
}

/// The tail percentile when the run supports it, else the largest sample
/// (only `--smoke` runs are short enough to need the fallback; the second
/// value says which was used).
pub fn tail_or_max(values: &[f64], p: f64) -> (f64, bool) {
    match percentile(values, p) {
        Ok(value) => (value, true),
        Err(_) => (values.iter().copied().fold(f64::NAN, f64::max), false),
    }
}

/// The median (mean of the two middle samples for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn share(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}
