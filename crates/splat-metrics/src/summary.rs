//! Aggregate statistics over experiment results.

/// Arithmetic mean of a slice, or `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Geometric mean of a slice of strictly positive values, or `None` when
/// the slice is empty or contains a non-positive value. The paper reports
/// its cross-scene speedups and energy-efficiency gains as geometric means.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn geometric_mean_of_constants_is_the_constant() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_rejects_non_positive() {
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
    }

    #[test]
    fn geometric_mean_known_value() {
        // geomean(1, 4) = 2
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    /// Deterministic stand-in for the previous proptest generator: a
    /// spread of positive value vectors with varying lengths.
    fn sample_vectors() -> Vec<Vec<f64>> {
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x2545_F491_4F6C_DD1D);
        (0..100)
            .map(|case| {
                let len = 1 + (case % 19);
                (0..len).map(|_| rng.range_f64(0.01, 100.0)).collect()
            })
            .collect()
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        for values in sample_vectors() {
            let g = geometric_mean(&values).unwrap();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(g >= min - 1e-9 && g <= max + 1e-9, "{values:?}");
        }
    }

    #[test]
    fn geomean_never_exceeds_arithmetic_mean() {
        for values in sample_vectors() {
            let g = geometric_mean(&values).unwrap();
            let a = mean(&values).unwrap();
            assert!(g <= a + 1e-9, "{values:?}");
        }
    }
}
