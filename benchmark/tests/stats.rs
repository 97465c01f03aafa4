//! The order statistics refuse to report what a run did not measure.

use gstg_benchmark::stats::{
    median, percentile, share, tail_or_max, PercentileError, MIN_SAMPLES_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    // p90 of 99 samples: rank 90, nine beyond.
    assert_eq!(
        percentile(&ramp(99), 0.9),
        Err(PercentileError::TooFewSamples {
            samples: 99,
            beyond: 9
        })
    );
    // p90 of 100 samples: rank 90, exactly ten beyond.
    assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
    // p99 needs a thousand.
    assert!(percentile(&ramp(999), 0.99).is_err());
    assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    // Even a median needs ten samples above it.
    assert!(percentile(&ramp(19), 0.5).is_err());
    assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(MIN_SAMPLES_BEYOND, 10);
}

#[test]
fn percentile_rejects_a_level_outside_the_open_unit_interval() {
    for level in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
        assert_eq!(
            percentile(&ramp(1000), level),
            Err(PercentileError::OutOfRange)
        );
    }
}

#[test]
fn percentile_does_not_depend_on_sample_order() {
    let mut shuffled = ramp(200);
    shuffled.reverse();
    shuffled.swap(3, 150);
    assert_eq!(percentile(&shuffled, 0.9), percentile(&ramp(200), 0.9));
}

#[test]
fn the_tail_falls_back_to_the_maximum_and_says_so() {
    assert_eq!(tail_or_max(&ramp(200), 0.9), (180.0, true));
    assert_eq!(tail_or_max(&ramp(50), 0.9), (50.0, false));
}

#[test]
fn median_and_share() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!(median(&[]).is_nan());
    assert_eq!(share(1, 4), 0.25);
    assert_eq!(share(1, 0), 0.0);
}
