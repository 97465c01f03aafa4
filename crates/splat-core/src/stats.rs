//! Per-stage operation counters and run statistics.
//!
//! The GS-TG paper's analysis is about *work*: how many tile-identification
//! tests, sorting operations, α-computations and α-blends each pipeline
//! variant performs. Every stage of the pipelines in this repository
//! increments the counters defined here, and the cost model converts them
//! into normalized stage times.

use std::time::Duration;

splat_types::counters! {
    /// Raw operation counts accumulated while rendering one view.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StageCounts {
        /// Splats submitted to preprocessing.
        input_gaussians: u64,
        /// Splats removed by frustum or opacity culling.
        culled_gaussians: u64,
        /// Splats that survived culling (features computed for these).
        visible_gaussians: u64,
        /// Modeled tile- (or group-) boundary tests of identification: the
        /// candidate tiles (baseline) or candidate groups (GS-TG, the groups
        /// holding the candidate tiles under the group boundary) of every
        /// splat, the tests a per-tile boundary unit performs. The CPU tests
        /// no tile on its own under any method: it takes the hits a tile row
        /// at a time.
        tile_tests: u64,
        /// Positive tile/group intersections, i.e. entries appended to per-tile
        /// (or per-group) lists. Each of these implies one sorting key later.
        tile_intersections: u64,
        /// Modeled small-tile boundary tests of identification: always
        /// equal to [`tile_tests`](Self::tile_tests) in the baseline pipeline
        /// and to [`bitmask_tests`](Self::bitmask_tests) in GS-TG, so it
        /// carries no count of its own (`benchmark/src/layers.rs` reads it).
        tiles_tested: u64,
        /// Small tiles the boundary test accepted. Equal to
        /// [`tile_intersections`](Self::tile_intersections) in the baseline
        /// pipeline, where each hit is one list entry; GS-TG counts the small
        /// tiles hit inside each hit group.
        tiles_hit: u64,
        /// Modeled bitmask tile tests (GS-TG only): the in-image candidate
        /// small tiles, under the bitmask boundary, of every group entry
        /// staged. A group is staged iff the group boundary hits one of its
        /// in-image tiles.
        bitmask_tests: u64,
        /// Modeled pairwise comparison operations of the depth sort (the
        /// `n·⌈log₂ n⌉` merge-sort bound per sorted list). The actual sort is a
        /// comparison-free radix key sort, but the paper's Fig. 3/13 redundancy
        /// accounting is expressed in comparisons, so the modeled count is kept
        /// alongside the measured key-sort counters below.
        sort_comparisons: u64,
        /// Keys submitted to the depth key sort (entries of lists that actually
        /// needed sorting, i.e. length ≥ 2).
        sort_keys: u64,
        /// Radix digit passes executed by the key sort (digit positions on
        /// which every key of a list agrees are skipped).
        radix_passes: u64,
        /// Per-(tile,Gaussian) bitmask filter operations of the *hardware
        /// model* (GS-TG rasterization front-end: AND/OR of the 16-bit
        /// masks, every in-image tile filtering its whole group list) — the
        /// count `splat-accel` turns into cycles. The software path scatters
        /// each sorted group list once, `tiles_hit` writes, instead.
        bitmask_filter_ops: u64,
        /// α-computations performed (Eq. 1 evaluations).
        alpha_computations: u64,
        /// α-blending operations performed (Eq. 2 accumulations, i.e. α ≥ 1/255
        /// and the pixel was still accumulating).
        blend_operations: u64,
        /// Pixels whose blending loop terminated through the transmittance
        /// early-exit.
        early_exits: u64,
        /// Number of pixels rasterized.
        pixels: u64,
    }
    impl Add;
}

impl StageCounts {
    /// An all-zero counter set.
    pub fn new() -> Self {
        Self::default()
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

    /// The bookkeeping identities every frame's counters satisfy, as
    /// `(name, left, right)` with `left == right`: preprocessing culls or
    /// keeps each submitted splat. `tiles_hit == tile_intersections` is not
    /// here: it holds for the baseline's per-tile lists only (GS-TG counts
    /// hits per small tile but keys per group), so it is asserted where a
    /// baseline frame is known.
    pub fn identities(&self) -> [(&'static str, u64, u64); 1] {
        [(
            "input_gaussians == culled_gaussians + visible_gaussians",
            self.input_gaussians,
            self.culled_gaussians + self.visible_gaussians,
        )]
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
}

impl RenderStats {
    /// Total measured wall-clock time.
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
        assert_eq!(c.gaussians_per_pixel(), 0.0);
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

    /// Every field holds a distinct prime.
    fn sample() -> StageCounts {
        const PRIMES: [u64; 16] = [2, 3, 5, 7, 11, 13, 17, 23, 29, 31, 37, 41, 43, 47, 53, 59];
        StageCounts::from(PRIMES)
    }

    #[test]
    fn addition_accumulates_every_field() {
        let mut sum = sample();
        sum += sample();
        assert_eq!(sum.values(), sample().values().map(|v| 2 * v));
        assert_eq!(sum, sample() + sample());
    }

    #[test]
    fn json_and_display_cover_every_counter() {
        let (json, text) = (sample().to_json(), sample().to_string());
        for (name, value) in StageCounts::FIELDS.iter().zip(sample().values()) {
            assert!(
                json.contains(&format!("\"{name}\":{value}")),
                "missing {name} in {json}"
            );
            assert!(
                text.contains(&format!("{value} {name}")),
                "missing {name} in {text}"
            );
        }
    }

    /// Key order and formatting are consumed by the bench binaries'
    /// `"counts"` objects and the benchmark's trace notes.
    #[test]
    fn json_bytes_are_pinned() {
        assert_eq!(
            sample().to_json(),
            "{\"input_gaussians\":2,\"culled_gaussians\":3,\"visible_gaussians\":5,\
             \"tile_tests\":7,\"tile_intersections\":11,\"tiles_tested\":13,\
             \"tiles_hit\":17,\"bitmask_tests\":23,\
             \"sort_comparisons\":29,\"sort_keys\":31,\"radix_passes\":37,\
             \"bitmask_filter_ops\":41,\"alpha_computations\":43,\"blend_operations\":47,\
             \"early_exits\":53,\"pixels\":59}"
        );
    }

    #[test]
    fn the_preprocess_identity_is_declared_once_and_detects_drift() {
        let balanced = StageCounts {
            input_gaussians: 8,
            culled_gaussians: 3,
            visible_gaussians: 5,
            ..StageCounts::default()
        };
        assert!(balanced.identities().iter().all(|(_, l, r)| l == r));
        let drifted = StageCounts {
            culled_gaussians: 4,
            ..balanced
        };
        assert!(drifted.identities().iter().any(|(_, l, r)| l != r));
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
