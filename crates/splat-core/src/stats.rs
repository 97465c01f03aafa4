//! Per-stage operation counters and run statistics.
//!
//! The GS-TG paper's analysis is about *work*: how many tile-identification
//! tests, sorting operations, α-computations and α-blends each pipeline
//! variant performs. Every stage of the pipelines in this repository
//! increments the counters defined here, and the cost model converts them
//! into normalized stage times.

use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Raw operation counts accumulated while rendering one view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounts {
    /// Splats submitted to preprocessing.
    pub input_gaussians: u64,
    /// Splats removed by frustum or opacity culling.
    pub culled_gaussians: u64,
    /// Splats that survived culling (features computed for these).
    pub visible_gaussians: u64,
    /// Tile- (or group-) boundary intersection tests performed during
    /// identification.
    pub tile_tests: u64,
    /// Positive tile/group intersections, i.e. entries appended to per-tile
    /// (or per-group) lists. Each of these implies one sorting key later.
    pub tile_intersections: u64,
    /// Geometric tests performed by the intersection prepass (boundary
    /// tests plus, in exact mode, the extra ellipse-vs-tile refinements).
    pub tiles_tested: u64,
    /// Tiles (or groups) accepted by the prepass — the length of the flat
    /// intersection list handed to the sorter. Always equal to
    /// [`tile_intersections`](Self::tile_intersections).
    pub tiles_hit: u64,
    /// Candidates accepted by the conservative bounding-rect test but
    /// rejected by the exact ellipse-vs-tile refinement. Zero in
    /// conservative mode.
    pub prepass_overcount_trimmed: u64,
    /// Bitmask tile tests performed (GS-TG only: per-Gaussian small-tile
    /// tests inside its groups).
    pub bitmask_tests: u64,
    /// Modeled pairwise comparison operations of the depth sort (the
    /// `n·⌈log₂ n⌉` merge-sort bound per sorted list). The actual sort is a
    /// comparison-free radix key sort, but the paper's Fig. 3/13 redundancy
    /// accounting is expressed in comparisons, so the modeled count is kept
    /// alongside the measured key-sort counters below.
    pub sort_comparisons: u64,
    /// Keys submitted to the depth key sort (entries of lists that actually
    /// needed sorting, i.e. length ≥ 2).
    pub sort_keys: u64,
    /// Radix digit passes executed by the key sort (digit positions on
    /// which every key of a list agrees are skipped).
    pub radix_passes: u64,
    /// Per-(tile,Gaussian) bitmask filter operations (GS-TG rasterization
    /// front-end: AND/OR of the 16-bit masks).
    pub bitmask_filter_ops: u64,
    /// α-computations performed (Eq. 1 evaluations).
    pub alpha_computations: u64,
    /// α-blending operations performed (Eq. 2 accumulations, i.e. α ≥ 1/255
    /// and the pixel was still accumulating).
    pub blend_operations: u64,
    /// Pixels whose blending loop terminated through the transmittance
    /// early-exit.
    pub early_exits: u64,
    /// Number of pixels rasterized.
    pub pixels: u64,
    /// Conservative row intervals solved by the span-walk rasterizer
    /// (one per (splat, still-live tile row) in `SpanMode::RowSpans`;
    /// zero in `SpanMode::Full`).
    pub span_rows_built: u64,
    /// α-computations the span walk skipped because the pixel lay outside
    /// its splat's conservative row interval. The reconciliation invariant
    /// is `full.alpha_computations ==
    /// span.alpha_computations + span.span_skipped_alpha`.
    pub span_skipped_alpha: u64,
    /// Tiles whose sorted list was abandoned early because every pixel had
    /// already fired its transmittance exit (span mode only).
    pub tile_saturation_exits: u64,
}

impl StageCounts {
    /// An all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of positive tile intersections per visible splat —
    /// the quantity plotted in Fig. 5.
    pub fn tiles_per_gaussian(&self) -> f64 {
        if self.visible_gaussians == 0 {
            0.0
        } else {
            self.tile_intersections as f64 / self.visible_gaussians as f64
        }
    }

    /// Average number of Gaussians processed per pixel (α-computations per
    /// pixel) — the quantity plotted in Fig. 7.
    pub fn gaussians_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.alpha_computations as f64 / self.pixels as f64
        }
    }

    /// Fraction of α-computations that were wasted, i.e. did not lead to a
    /// blend (either α < 1/255 or the splat did not cover the pixel).
    pub fn wasted_alpha_fraction(&self) -> f64 {
        if self.alpha_computations == 0 {
            0.0
        } else {
            1.0 - self.blend_operations as f64 / self.alpha_computations as f64
        }
    }

    /// One machine-readable JSON object covering **every** counter field.
    /// The bench binaries embed this under their `"counts"` key, so a field
    /// added here is automatically visible to the drift checks (and
    /// `splat-lint`'s `counter-coverage` rule fails the build if a new
    /// field is left out of this emitter).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"input_gaussians\":{},\"culled_gaussians\":{},\"visible_gaussians\":{},\
             \"tile_tests\":{},\"tile_intersections\":{},\"tiles_tested\":{},\
             \"tiles_hit\":{},\"prepass_overcount_trimmed\":{},\"bitmask_tests\":{},\
             \"sort_comparisons\":{},\"sort_keys\":{},\"radix_passes\":{},\
             \"bitmask_filter_ops\":{},\"alpha_computations\":{},\"blend_operations\":{},\
             \"early_exits\":{},\"pixels\":{},\"span_rows_built\":{},\
             \"span_skipped_alpha\":{},\"tile_saturation_exits\":{}}}",
            self.input_gaussians,
            self.culled_gaussians,
            self.visible_gaussians,
            self.tile_tests,
            self.tile_intersections,
            self.tiles_tested,
            self.tiles_hit,
            self.prepass_overcount_trimmed,
            self.bitmask_tests,
            self.sort_comparisons,
            self.sort_keys,
            self.radix_passes,
            self.bitmask_filter_ops,
            self.alpha_computations,
            self.blend_operations,
            self.early_exits,
            self.pixels,
            self.span_rows_built,
            self.span_skipped_alpha,
            self.tile_saturation_exits,
        )
    }
}

impl fmt::Display for StageCounts {
    /// Human-readable stage-by-stage report, one counter per line, in
    /// pipeline order. Like [`to_json`](Self::to_json) this covers every
    /// field — `counter-coverage` pins the invariant.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "preprocess: {} input, {} culled, {} visible",
            self.input_gaussians, self.culled_gaussians, self.visible_gaussians
        )?;
        writeln!(
            f,
            "identify:   {} tile_tests, {} tiles_tested, {} tiles_hit, \
             {} tile_intersections, {} prepass_overcount_trimmed, {} bitmask_tests",
            self.tile_tests,
            self.tiles_tested,
            self.tiles_hit,
            self.tile_intersections,
            self.prepass_overcount_trimmed,
            self.bitmask_tests
        )?;
        writeln!(
            f,
            "sort:       {} sort_keys, {} radix_passes, {} sort_comparisons (modeled)",
            self.sort_keys, self.radix_passes, self.sort_comparisons
        )?;
        write!(
            f,
            "raster:     {} pixels, {} alpha_computations, {} blend_operations, \
             {} early_exits, {} bitmask_filter_ops, {} span_rows_built, \
             {} span_skipped_alpha, {} tile_saturation_exits",
            self.pixels,
            self.alpha_computations,
            self.blend_operations,
            self.early_exits,
            self.bitmask_filter_ops,
            self.span_rows_built,
            self.span_skipped_alpha,
            self.tile_saturation_exits
        )
    }
}

impl Add for StageCounts {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            input_gaussians: self.input_gaussians + rhs.input_gaussians,
            culled_gaussians: self.culled_gaussians + rhs.culled_gaussians,
            visible_gaussians: self.visible_gaussians + rhs.visible_gaussians,
            tile_tests: self.tile_tests + rhs.tile_tests,
            tile_intersections: self.tile_intersections + rhs.tile_intersections,
            tiles_tested: self.tiles_tested + rhs.tiles_tested,
            tiles_hit: self.tiles_hit + rhs.tiles_hit,
            prepass_overcount_trimmed: self.prepass_overcount_trimmed
                + rhs.prepass_overcount_trimmed,
            bitmask_tests: self.bitmask_tests + rhs.bitmask_tests,
            sort_comparisons: self.sort_comparisons + rhs.sort_comparisons,
            sort_keys: self.sort_keys + rhs.sort_keys,
            radix_passes: self.radix_passes + rhs.radix_passes,
            bitmask_filter_ops: self.bitmask_filter_ops + rhs.bitmask_filter_ops,
            alpha_computations: self.alpha_computations + rhs.alpha_computations,
            blend_operations: self.blend_operations + rhs.blend_operations,
            early_exits: self.early_exits + rhs.early_exits,
            pixels: self.pixels + rhs.pixels,
            span_rows_built: self.span_rows_built + rhs.span_rows_built,
            span_skipped_alpha: self.span_skipped_alpha + rhs.span_skipped_alpha,
            tile_saturation_exits: self.tile_saturation_exits + rhs.tile_saturation_exits,
        }
    }
}

impl AddAssign for StageCounts {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Statistics of one rendered view: operation counts plus measured
/// wall-clock per stage.
#[derive(Debug, Clone, Default)]
pub struct RenderStats {
    /// Operation counts.
    pub counts: StageCounts,
    /// Wall-clock time of the preprocessing stage (feature computation and
    /// culling). Tile/group identification is reported separately in
    /// [`identify_time`](Self::identify_time) by every render, one-shot or
    /// session.
    pub preprocess_time: Duration,
    /// Wall-clock time of the tile/group identification stage.
    pub identify_time: Duration,
    /// Wall-clock time of the sorting stage.
    pub sort_time: Duration,
    /// Wall-clock time of the rasterization stage.
    pub raster_time: Duration,
    /// Wall-clock time spent building conservative row-interval tables
    /// inside the rasterization stage (zero in `SpanMode::Full`). This is a
    /// *portion* of [`raster_time`](Self::raster_time), not an additional
    /// stage, so [`total_time`](Self::total_time) does not add it again.
    pub span_build_time: Duration,
}

impl RenderStats {
    /// Total measured wall-clock time. Excludes
    /// [`span_build_time`](Self::span_build_time), which is already
    /// contained in the rasterization window.
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.identify_time + self.sort_time + self.raster_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_zero_denominators() {
        let c = StageCounts::new();
        assert_eq!(c.tiles_per_gaussian(), 0.0);
        assert_eq!(c.gaussians_per_pixel(), 0.0);
        assert_eq!(c.wasted_alpha_fraction(), 0.0);
    }

    #[test]
    fn tiles_per_gaussian_divides_correctly() {
        let c = StageCounts {
            visible_gaussians: 10,
            tile_intersections: 73,
            ..StageCounts::default()
        };
        assert!((c.tiles_per_gaussian() - 7.3).abs() < 1e-9);
    }

    #[test]
    fn gaussians_per_pixel_divides_correctly() {
        let c = StageCounts {
            pixels: 100,
            alpha_computations: 2_500,
            ..StageCounts::default()
        };
        assert!((c.gaussians_per_pixel() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn wasted_fraction_counts_non_blended_alphas() {
        let c = StageCounts {
            alpha_computations: 100,
            blend_operations: 60,
            ..StageCounts::default()
        };
        assert!((c.wasted_alpha_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn addition_accumulates_every_field() {
        let a = StageCounts {
            input_gaussians: 1,
            culled_gaussians: 2,
            visible_gaussians: 3,
            tile_tests: 4,
            tile_intersections: 5,
            tiles_tested: 15,
            tiles_hit: 16,
            prepass_overcount_trimmed: 17,
            bitmask_tests: 6,
            sort_comparisons: 7,
            sort_keys: 13,
            radix_passes: 14,
            bitmask_filter_ops: 8,
            alpha_computations: 9,
            blend_operations: 10,
            early_exits: 11,
            pixels: 12,
            span_rows_built: 18,
            span_skipped_alpha: 19,
            tile_saturation_exits: 20,
        };
        let mut b = a;
        b += a;
        assert_eq!(b.input_gaussians, 2);
        assert_eq!(b.pixels, 24);
        assert_eq!(b.sort_comparisons, 14);
        assert_eq!(b.sort_keys, 26);
        assert_eq!(b.radix_passes, 28);
        assert_eq!(b.tiles_tested, 30);
        assert_eq!(b.tiles_hit, 32);
        assert_eq!(b.prepass_overcount_trimmed, 34);
        assert_eq!(b.span_rows_built, 36);
        assert_eq!(b.span_skipped_alpha, 38);
        assert_eq!(b.tile_saturation_exits, 40);
    }

    #[test]
    fn json_and_display_cover_every_counter() {
        let c = StageCounts {
            input_gaussians: 1,
            culled_gaussians: 2,
            visible_gaussians: 3,
            tile_tests: 4,
            tile_intersections: 5,
            tiles_tested: 6,
            tiles_hit: 7,
            prepass_overcount_trimmed: 8,
            bitmask_tests: 9,
            sort_comparisons: 10,
            sort_keys: 11,
            radix_passes: 12,
            bitmask_filter_ops: 13,
            alpha_computations: 14,
            blend_operations: 15,
            early_exits: 16,
            pixels: 17,
            span_rows_built: 18,
            span_skipped_alpha: 19,
            tile_saturation_exits: 20,
        };
        let json = c.to_json();
        let text = c.to_string();
        for (key, value) in [
            ("input_gaussians", 1u64),
            ("culled_gaussians", 2),
            ("visible_gaussians", 3),
            ("tile_tests", 4),
            ("tile_intersections", 5),
            ("tiles_tested", 6),
            ("tiles_hit", 7),
            ("prepass_overcount_trimmed", 8),
            ("bitmask_tests", 9),
            ("sort_comparisons", 10),
            ("sort_keys", 11),
            ("radix_passes", 12),
            ("bitmask_filter_ops", 13),
            ("alpha_computations", 14),
            ("blend_operations", 15),
            ("early_exits", 16),
            ("pixels", 17),
            ("span_rows_built", 18),
            ("span_skipped_alpha", 19),
            ("tile_saturation_exits", 20),
        ] {
            assert!(
                json.contains(&format!("\"{key}\":{value}")),
                "missing {key} in {json}"
            );
            // Display names every non-preprocess counter explicitly.
            if !["input_gaussians", "culled_gaussians", "visible_gaussians"].contains(&key) {
                assert!(
                    text.contains(&format!("{value} {key}")),
                    "missing {key} in {text}"
                );
            }
        }
        assert!(text.contains("1 input, 2 culled, 3 visible"));
    }

    #[test]
    fn total_time_sums_stages() {
        let stats = RenderStats {
            preprocess_time: Duration::from_millis(2),
            identify_time: Duration::from_millis(1),
            sort_time: Duration::from_millis(3),
            raster_time: Duration::from_millis(5),
            ..RenderStats::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(11));
    }
}
