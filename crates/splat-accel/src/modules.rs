//! Cycle models of the accelerator's functional modules.
//!
//! Each module converts an amount of work (taken from the measured
//! operation counts of a frame) into an occupancy in clock cycles, using
//! the unit counts of [`AccelConfig`]. The models are throughput models:
//! the units are fully pipelined, so `cycles = work / throughput`, rounded
//! up. This is the same level of abstraction as the cycle-level simulator
//! the paper uses for its speed evaluation.

use crate::config::AccelConfig;

/// Rounds a fractional cycle count up to whole cycles.
fn cycles(work: f64, per_cycle: f64) -> u64 {
    if work <= 0.0 {
        return 0;
    }
    assert!(per_cycle > 0.0, "throughput must be positive");
    (work / per_cycle).ceil() as u64
}

/// Work submitted to the preprocessing modules for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PreprocessingWork {
    /// Splats read and culled.
    pub(crate) input_gaussians: u64,
    /// Splats whose features (projection, covariance, SH color) are
    /// computed.
    pub(crate) visible_gaussians: u64,
    /// Tile- or group-boundary tests performed during identification.
    /// The dedicated test units are pipelined, so each test costs one slot
    /// regardless of the boundary method; the method still matters because
    /// it changes how many intersections (and how much downstream work)
    /// survive.
    pub(crate) tile_tests: u64,
}

/// The preprocessing module array (PM): feature computation, culling and
/// tile/group identification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreprocessingModel {
    config: AccelConfig,
}

impl PreprocessingModel {
    /// Creates the model for a hardware configuration.
    pub(crate) fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// Occupancy of the PM array for the given work.
    pub(crate) fn occupancy_cycles(&self, work: &PreprocessingWork) -> u64 {
        let cull = cycles(
            work.input_gaussians as f64,
            self.config.total_feature_throughput() * 4.0,
        );
        let features = cycles(
            work.visible_gaussians as f64,
            self.config.total_feature_throughput(),
        );
        let identification = cycles(
            work.tile_tests as f64,
            self.config.total_tile_test_throughput(),
        );
        cull + features + identification
    }
}

/// Work submitted to the bitmask generation modules for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct BitmaskWork {
    /// Small-tile boundary tests performed to build the bitmasks (16 per
    /// (group, splat) pair for the 4×4 grouping); each pipelined tile-check
    /// unit retires one test per cycle.
    pub(crate) bitmask_tests: u64,
}

/// The bitmask generation module array (BGM): four tile-check units per
/// core generating the 16-bit per-Gaussian tile bitmasks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitmaskModel {
    config: AccelConfig,
}

impl BitmaskModel {
    /// Creates the model for a hardware configuration.
    pub(crate) fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// Occupancy of the BGM array for the given work.
    pub(crate) fn occupancy_cycles(&self, work: &BitmaskWork) -> u64 {
        cycles(
            work.bitmask_tests as f64,
            self.config.total_bitmask_throughput(),
        )
    }
}

/// Work submitted to the sorting modules for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct SortingWork {
    /// Number of (tile, splat) or (group, splat) keys to sort. Every key
    /// must be ingested, permuted and written back.
    pub(crate) keys: u64,
    /// Pairwise comparisons performed by the sorting network.
    pub(crate) comparisons: u64,
}

/// The group-wise sorting module array (GSM): a quick-sort unit with 16
/// comparators per core plus the key-movement datapath.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SortingModel {
    config: AccelConfig,
}

impl SortingModel {
    /// Creates the model for a hardware configuration.
    pub(crate) fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// Occupancy of the GSM array for the given work. Key movement and the
    /// comparison network operate concurrently, so the slower of the two
    /// determines the occupancy.
    pub(crate) fn occupancy_cycles(&self, work: &SortingWork) -> u64 {
        let key_cycles = cycles(work.keys as f64, self.config.total_sort_key_throughput());
        let cmp_cycles = cycles(
            work.comparisons as f64,
            self.config.total_sort_comparison_throughput(),
        );
        key_cycles.max(cmp_cycles)
    }
}

/// Work submitted to the rasterization modules for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RasterWork {
    /// Bitmask AND/OR filter operations (GS-TG only; zero for the
    /// baseline).
    pub(crate) filter_ops: u64,
    /// α-computations performed.
    pub(crate) alpha_computations: u64,
    /// α-blend accumulations performed.
    pub(crate) blend_operations: u64,
    /// Pixels written out.
    pub(crate) pixels: u64,
}

/// The rasterization module array (RM): an 8-wide bitmask filter feeding a
/// FIFO and 16 rasterization units per core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RasterModel {
    config: AccelConfig,
}

impl RasterModel {
    /// Creates the model for a hardware configuration.
    pub(crate) fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// Occupancy of the RM array for the given work. The filter front-end
    /// and the rasterization units are decoupled by the FIFO, so occupancy
    /// is the maximum of the two; blending is fused into the RU pipeline
    /// (one α-computation and its blend retire together).
    pub(crate) fn occupancy_cycles(&self, work: &RasterWork) -> u64 {
        let filter = cycles(
            work.filter_ops as f64,
            self.config.total_filter_throughput(),
        );
        let alpha = cycles(
            work.alpha_computations as f64,
            self.config.total_raster_throughput(),
        );
        // Pixel setup/write-out is amortized over the RU array.
        let pixel = cycles(work.pixels as f64, self.config.total_raster_throughput());
        filter.max(alpha + pixel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AccelConfig {
        AccelConfig::paper()
    }

    #[test]
    fn zero_work_costs_zero_cycles() {
        assert_eq!(
            PreprocessingModel::new(config()).occupancy_cycles(&PreprocessingWork::default()),
            0
        );
        assert_eq!(
            BitmaskModel::new(config()).occupancy_cycles(&BitmaskWork::default()),
            0
        );
        assert_eq!(
            SortingModel::new(config()).occupancy_cycles(&SortingWork::default()),
            0
        );
        assert_eq!(
            RasterModel::new(config()).occupancy_cycles(&RasterWork::default()),
            0
        );
    }

    #[test]
    fn preprocessing_scales_with_gaussians_and_tests() {
        let model = PreprocessingModel::new(config());
        let small = model.occupancy_cycles(&PreprocessingWork {
            input_gaussians: 1000,
            visible_gaussians: 800,
            tile_tests: 4000,
        });
        let large = model.occupancy_cycles(&PreprocessingWork {
            input_gaussians: 2000,
            visible_gaussians: 1600,
            tile_tests: 8000,
        });
        assert!(large > small);
        assert!(large <= 2 * small + 3);
    }

    #[test]
    fn identification_cycles_scale_with_test_count() {
        let model = PreprocessingModel::new(config());
        let work = |tests| PreprocessingWork {
            input_gaussians: 0,
            visible_gaussians: 0,
            tile_tests: tests,
        };
        assert_eq!(
            model.occupancy_cycles(&work(40_000)),
            4 * model.occupancy_cycles(&work(10_000))
        );
    }

    #[test]
    fn bitmask_throughput_is_sixteen_tests_per_cycle() {
        let model = BitmaskModel::new(config());
        let c = model.occupancy_cycles(&BitmaskWork {
            bitmask_tests: 16_000,
        });
        assert_eq!(c, 1000);
    }

    #[test]
    fn sorting_is_limited_by_slower_of_keys_and_comparisons() {
        let model = SortingModel::new(config());
        // Key-bound: 16 keys/cycle vs 64 comparisons/cycle.
        let key_bound = model.occupancy_cycles(&SortingWork {
            keys: 16_000,
            comparisons: 1_000,
        });
        assert_eq!(key_bound, 1000);
        // Comparison-bound (16 sustained comparisons per cycle).
        let cmp_bound = model.occupancy_cycles(&SortingWork {
            keys: 100,
            comparisons: 64_000,
        });
        assert_eq!(cmp_bound, 4000);
    }

    #[test]
    fn raster_is_limited_by_slower_of_filter_and_alpha() {
        let model = RasterModel::new(config());
        let alpha_bound = model.occupancy_cycles(&RasterWork {
            filter_ops: 0,
            alpha_computations: 64_000,
            blend_operations: 10_000,
            pixels: 0,
        });
        assert_eq!(alpha_bound, 1000);
        let filter_bound = model.occupancy_cycles(&RasterWork {
            filter_ops: 64_000,
            alpha_computations: 100,
            blend_operations: 0,
            pixels: 0,
        });
        assert_eq!(filter_bound, 2000);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn non_positive_throughput_panics() {
        let _ = cycles(10.0, 0.0);
    }
}
