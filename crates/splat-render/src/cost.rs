//! Analytic cost model converting operation counts to normalized stage
//! times.
//!
//! The paper's GPU figures (Figs. 3, 11, 12, 13) show *relative* stage
//! runtimes across tile sizes and pipeline variants. Wall-clock timing of
//! this Rust reference implementation reproduces the same trends but is
//! noisy and machine dependent; the cost model provides a deterministic
//! alternative by charging every counted operation a fixed cost. The
//! constants are expressed in arbitrary "nanosecond-like" units whose
//! absolute scale is irrelevant — every figure normalizes to a baseline.

use crate::config::BoundaryMethod;
use splat_core::StageCounts;

/// Normalized per-stage times produced by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Preprocessing: feature computation, culling and tile/group
    /// identification (plus bitmask generation when it cannot be hidden).
    pub preprocess: f64,
    /// Tile- or group-wise sorting.
    pub sort: f64,
    /// Tile-wise rasterization.
    pub raster: f64,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> f64 {
        self.preprocess + self.sort + self.raster
    }

    /// Speedup of `self` relative to `baseline` (total time ratio).
    pub fn speedup_over(&self, baseline: &StageTimes) -> f64 {
        if self.total() <= 0.0 {
            return 0.0;
        }
        baseline.total() / self.total()
    }
}

/// How GS-TG's bitmask generation is scheduled relative to group sorting —
/// a property of the hardware being modeled, so it is an argument of
/// [`CostModel::gstg_times`] rather than of any render configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionModel {
    /// GPU (SIMT) execution: stages run strictly in sequence, so bitmask
    /// generation shows up in the preprocessing stage (Fig. 13 of the
    /// paper).
    GpuSequential,
    /// Dedicated accelerator: bitmask generation overlaps with sorting,
    /// hiding its latency (Section V of the paper).
    AcceleratorOverlapped,
}

/// Per-operation costs of the pipeline, in arbitrary time units.
///
/// The defaults are loosely calibrated against the per-stage runtime split
/// the paper reports for a 16×16 AABB baseline on the A6000 (Fig. 3): the
/// exact values only set the relative weight of the three stages, every
/// experiment reports ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of computing features (projection, EWA covariance, SH color)
    /// for one visible splat.
    pub(crate) feature_per_visible: f64,
    /// Cost of culling one input splat (frustum + opacity test).
    pub(crate) cull_per_input: f64,
    /// Base cost of one tile/group boundary test; multiplied by the
    /// boundary method's relative test cost (AABB 1, OBB 2.5, ellipse 4).
    pub(crate) tile_test_base: f64,
    /// Cost of appending one (tile, splat) pair to an identification list.
    pub(crate) intersection_append: f64,
    /// Cost of one depth-sort comparison.
    pub(crate) sort_comparison: f64,
    /// Cost of one bitmask AND/OR filter operation in the GS-TG
    /// rasterization front-end.
    pub(crate) bitmask_filter_op: f64,
    /// Cost of one α-computation (Eq. 1).
    pub(crate) alpha_computation: f64,
    /// Cost of one α-blend accumulation (Eq. 2).
    pub(crate) blend_operation: f64,
    /// Fixed per-pixel overhead of the rasterizer inner loop setup.
    pub(crate) pixel_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            feature_per_visible: 55.0,
            cull_per_input: 6.0,
            tile_test_base: 5.0,
            intersection_append: 2.0,
            sort_comparison: 3.0,
            bitmask_filter_op: 0.5,
            alpha_computation: 9.0,
            blend_operation: 5.0,
            pixel_overhead: 1.5,
        }
    }
}

impl CostModel {
    /// Creates the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts counted work into normalized stage times for the baseline
    /// pipeline, where tile identification (performed with
    /// `identification_boundary`) belongs to the preprocessing stage.
    pub fn baseline_times(
        &self,
        counts: &StageCounts,
        identification_boundary: BoundaryMethod,
    ) -> StageTimes {
        StageTimes {
            preprocess: self.preprocess_cost(counts, identification_boundary, 0.0),
            sort: self.sort_cost(counts),
            raster: self.raster_cost(counts),
        }
    }

    /// Converts counted work into stage times for the GS-TG pipeline.
    /// Group identification uses `group_boundary`; bitmask generation
    /// (small-tile tests with `bitmask_boundary`) is charged where `model`
    /// schedules it: inside preprocessing on a GPU, hidden behind
    /// whichever of it and group sorting takes longer on the accelerator.
    pub fn gstg_times(
        &self,
        counts: &StageCounts,
        group_boundary: BoundaryMethod,
        bitmask_boundary: BoundaryMethod,
        model: ExecutionModel,
    ) -> StageTimes {
        let bitmask_cost =
            counts.bitmask_tests as f64 * self.tile_test_base * bitmask_boundary.test_cost();
        let sort = self.sort_cost(counts);
        let (in_preprocess, sort) = match model {
            ExecutionModel::GpuSequential => (bitmask_cost, sort),
            ExecutionModel::AcceleratorOverlapped => (0.0, sort.max(bitmask_cost)),
        };
        StageTimes {
            preprocess: self.preprocess_cost(counts, group_boundary, in_preprocess),
            sort,
            raster: self.raster_cost(counts),
        }
    }

    fn preprocess_cost(&self, counts: &StageCounts, boundary: BoundaryMethod, extra: f64) -> f64 {
        counts.input_gaussians as f64 * self.cull_per_input
            + counts.visible_gaussians as f64 * self.feature_per_visible
            + counts.tile_tests as f64 * self.tile_test_base * boundary.test_cost()
            + counts.tile_intersections as f64 * self.intersection_append
            + extra
    }

    fn sort_cost(&self, counts: &StageCounts) -> f64 {
        counts.sort_comparisons as f64 * self.sort_comparison
    }

    fn raster_cost(&self, counts: &StageCounts) -> f64 {
        counts.pixels as f64 * self.pixel_overhead
            + counts.alpha_computations as f64 * self.alpha_computation
            + counts.blend_operations as f64 * self.blend_operation
            + counts.bitmask_filter_ops as f64 * self.bitmask_filter_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> StageCounts {
        StageCounts {
            input_gaussians: 1000,
            culled_gaussians: 200,
            visible_gaussians: 800,
            tile_tests: 6000,
            tiles_tested: 6000,
            tiles_hit: 3000,
            tile_intersections: 3000,
            bitmask_tests: 2000,
            sort_comparisons: 20_000,
            sort_keys: 5000,
            radix_passes: 40,
            bitmask_filter_ops: 4000,
            alpha_computations: 500_000,
            blend_operations: 200_000,
            early_exits: 100,
            pixels: 65_536,
        }
    }

    #[test]
    fn totals_sum_stages() {
        let t = StageTimes {
            preprocess: 1.0,
            sort: 2.0,
            raster: 3.0,
        };
        assert_eq!(t.total(), 6.0);
    }

    #[test]
    fn speedup_is_ratio_of_totals() {
        let fast = StageTimes {
            preprocess: 1.0,
            sort: 1.0,
            raster: 1.0,
        };
        let slow = StageTimes {
            preprocess: 2.0,
            sort: 2.0,
            raster: 2.0,
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn baseline_times_are_positive_and_scale_with_counts() {
        let model = CostModel::new();
        let counts = sample_counts();
        let t = model.baseline_times(&counts, BoundaryMethod::Aabb);
        assert!(t.preprocess > 0.0 && t.sort > 0.0 && t.raster > 0.0);

        let mut bigger = counts;
        bigger.alpha_computations *= 2;
        let t2 = model.baseline_times(&bigger, BoundaryMethod::Aabb);
        assert!(t2.raster > t.raster);
        assert_eq!(t2.preprocess, t.preprocess);
    }

    #[test]
    fn ellipse_identification_costs_more_than_aabb() {
        let model = CostModel::new();
        let counts = sample_counts();
        let aabb = model.baseline_times(&counts, BoundaryMethod::Aabb);
        let ellipse = model.baseline_times(&counts, BoundaryMethod::Ellipse);
        assert!(ellipse.preprocess > aabb.preprocess);
        assert_eq!(ellipse.sort, aabb.sort);
    }

    #[test]
    fn sequential_gstg_pays_for_bitmasks_in_preprocessing() {
        let model = CostModel::new();
        let counts = sample_counts();
        let times = |schedule| {
            model.gstg_times(
                &counts,
                BoundaryMethod::Ellipse,
                BoundaryMethod::Ellipse,
                schedule,
            )
        };
        let seq = times(ExecutionModel::GpuSequential);
        let overlapped = times(ExecutionModel::AcceleratorOverlapped);
        assert!(seq.preprocess > overlapped.preprocess);
        // The overlapped variant is never slower overall.
        assert!(overlapped.total() <= seq.total() + 1e-9);
    }

    #[test]
    fn overlap_hides_bitmask_behind_sorting() {
        let model = CostModel::new();
        let mut counts = sample_counts();
        // Large sorting workload: bitmask generation is fully hidden.
        counts.sort_comparisons = 10_000_000;
        let overlapped = model.gstg_times(
            &counts,
            BoundaryMethod::Aabb,
            BoundaryMethod::Aabb,
            ExecutionModel::AcceleratorOverlapped,
        );
        let baseline_sort = model.baseline_times(&counts, BoundaryMethod::Aabb).sort;
        assert_eq!(overlapped.sort, baseline_sort);
    }
}
