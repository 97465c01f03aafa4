//! Configuration of the GS-TG pipeline.

use splat_core::{ExecutionConfig, HasExecution};
use splat_render::{BoundaryMethod, RenderConfig};
use splat_types::RenderError;

/// Configuration of the GS-TG rendering pipeline.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`GstgConfig::default`] / [`GstgConfig::paper_default`] or
/// [`GstgConfig::new`] and adjust it through the public fields or the
/// `with_*` methods, so future knobs can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct GstgConfig {
    /// Small tile edge length in pixels (rasterization granularity).
    pub tile_size: u32,
    /// Group edge length in pixels (sorting granularity); must be a
    /// multiple of `tile_size`.
    pub group_size: u32,
    /// Boundary method used for group identification.
    pub group_boundary: BoundaryMethod,
    /// Boundary method used when generating the per-tile bitmasks.
    pub bitmask_boundary: BoundaryMethod,
    /// Shared execution parameters (worker threads, kernel modes). Use
    /// [`HasExecution::with_threads`] to change the thread count.
    pub exec: ExecutionConfig,
}

impl GstgConfig {
    /// Maximum number of small tiles per group supported by the software
    /// pipeline's 64-bit bitmask (an 8×8 tile grouping, e.g. "8+64").
    pub(crate) const MAX_TILES_PER_GROUP: u32 = 64;

    /// The configuration the paper selects after the Fig. 11 sweep:
    /// 16×16 tiles grouped into 64×64 groups with the ellipse boundary for
    /// both group identification and bitmask generation.
    #[expect(
        clippy::expect_used,
        reason = "constant literal configuration, pinned by construction tests"
    )]
    pub fn paper_default() -> Self {
        Self::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse)
            .expect("paper configuration is valid")
    }

    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidTileSize`] when the tile size is
    /// invalid, and [`RenderError::InvalidConfiguration`] when the group
    /// size is not a larger multiple of the tile size or the group would
    /// contain more tiles than the bitmask can encode.
    pub fn new(
        tile_size: u32,
        group_size: u32,
        group_boundary: BoundaryMethod,
        bitmask_boundary: BoundaryMethod,
    ) -> Result<Self, RenderError> {
        let config = Self {
            tile_size,
            group_size,
            group_boundary,
            bitmask_boundary,
            exec: ExecutionConfig::sequential(),
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration. Because the fields are public, the
    /// panic-free serving path re-checks configurations through this
    /// method before rendering.
    ///
    /// # Errors
    ///
    /// Returns the [`RenderError`] describing the first violated
    /// constraint: the baseline's tile-size rule, then a non-multiple or
    /// degenerate group size, then a group beyond the bitmask capacity.
    pub fn validate(&self) -> Result<(), RenderError> {
        RenderConfig::try_new(self.tile_size, self.bitmask_boundary)?;
        let invalid = |reason: String| Err(RenderError::InvalidConfiguration { reason });
        if self.group_size == 0 || self.group_size % self.tile_size != 0 {
            return invalid(format!(
                "group size {} must be a positive multiple of tile size {}",
                self.group_size, self.tile_size
            ));
        }
        if self.group_size == self.tile_size {
            return invalid(format!(
                "group size equals tile size ({}); grouping would not share any sorting",
                self.tile_size
            ));
        }
        let tiles_per_group = self.tiles_per_group();
        if tiles_per_group > Self::MAX_TILES_PER_GROUP {
            return invalid(format!(
                "group holds {tiles_per_group} tiles which exceeds the bitmask capacity of {}",
                Self::MAX_TILES_PER_GROUP
            ));
        }
        Ok(())
    }

    /// Number of small tiles along one edge of a group.
    #[inline]
    pub(crate) fn tiles_per_group_side(&self) -> u32 {
        self.group_size / self.tile_size
    }

    /// Number of small tiles in a group.
    #[inline]
    pub(crate) fn tiles_per_group(&self) -> u32 {
        let side = self.tiles_per_group_side();
        side * side
    }

    /// The baseline configuration this GS-TG configuration is compared
    /// against (same tile size, the bitmask boundary used for tile
    /// identification, the same execution parameters).
    pub fn equivalent_baseline(&self) -> RenderConfig {
        let mut config = RenderConfig::new(self.tile_size, self.bitmask_boundary);
        config.exec = self.exec;
        config
    }
}

impl HasExecution for GstgConfig {
    fn execution(&self) -> &ExecutionConfig {
        &self.exec
    }

    fn execution_mut(&mut self) -> &mut ExecutionConfig {
        &mut self.exec
    }
}

impl Default for GstgConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_16_plus_64_ellipse() {
        let c = GstgConfig::paper_default();
        assert_eq!(c.tile_size, 16);
        assert_eq!(c.group_size, 64);
        assert_eq!(c.group_boundary, BoundaryMethod::Ellipse);
        assert_eq!(c.bitmask_boundary, BoundaryMethod::Ellipse);
        assert_eq!(c.tiles_per_group(), 16);
    }

    fn invalid(reason: &str) -> Result<GstgConfig, RenderError> {
        Err(RenderError::InvalidConfiguration {
            reason: reason.to_string(),
        })
    }

    #[test]
    fn rejects_group_not_multiple_of_tile() {
        assert_eq!(
            GstgConfig::new(16, 40, BoundaryMethod::Aabb, BoundaryMethod::Aabb),
            invalid("group size 40 must be a positive multiple of tile size 16")
        );
    }

    #[test]
    fn rejects_degenerate_group() {
        assert_eq!(
            GstgConfig::new(16, 16, BoundaryMethod::Aabb, BoundaryMethod::Aabb),
            invalid("group size equals tile size (16); grouping would not share any sorting")
        );
    }

    #[test]
    fn rejects_oversized_group() {
        // 8-pixel tiles in a 128-pixel group → 256 tiles, beyond 64.
        assert_eq!(
            GstgConfig::new(8, 128, BoundaryMethod::Aabb, BoundaryMethod::Aabb),
            invalid("group holds 256 tiles which exceeds the bitmask capacity of 64")
        );
    }

    #[test]
    fn rejects_bad_tile_size() {
        // The baseline's tile-size rule is checked first, before any group
        // rule (24 is also a multiple of 6).
        assert_eq!(
            GstgConfig::new(6, 24, BoundaryMethod::Aabb, BoundaryMethod::Aabb),
            Err(RenderError::InvalidTileSize { tile_size: 6 })
        );
    }

    #[test]
    fn accepts_all_paper_sweep_combinations() {
        // Fig. 11: 8+16, 8+32, 8+64, 16+32, 16+64.
        for (tile, group) in [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)] {
            let c = GstgConfig::new(
                tile,
                group,
                BoundaryMethod::Ellipse,
                BoundaryMethod::Ellipse,
            );
            assert!(c.is_ok(), "{tile}+{group} should be valid");
        }
    }

    #[test]
    fn tiles_per_group_math() {
        let c = GstgConfig::new(8, 64, BoundaryMethod::Aabb, BoundaryMethod::Aabb).unwrap();
        assert_eq!(c.tiles_per_group_side(), 8);
        assert_eq!(c.tiles_per_group(), 64);
    }

    #[test]
    fn equivalent_baseline_matches_tile_size_boundary_and_execution() {
        let c = GstgConfig::new(16, 64, BoundaryMethod::Aabb, BoundaryMethod::Obb)
            .unwrap()
            .with_threads(3);
        let baseline = c.equivalent_baseline();
        assert_eq!(baseline.tile_size, 16);
        assert_eq!(baseline.boundary, BoundaryMethod::Obb);
        assert_eq!(baseline.exec, c.exec);
    }

    #[test]
    fn shared_execution_knobs_apply() {
        let c = GstgConfig::paper_default().with_threads(4);
        assert_eq!(c.exec.threads, 4);
    }

    #[test]
    fn validate_catches_hand_mutated_configs() {
        let mut config = GstgConfig::paper_default();
        config.group_size = 40;
        assert!(matches!(
            config.validate(),
            Err(RenderError::InvalidConfiguration { .. })
        ));
        let mut config = GstgConfig::paper_default();
        config.tile_size = 0;
        assert_eq!(
            config.validate(),
            Err(RenderError::InvalidTileSize { tile_size: 0 })
        );
        let mut config = GstgConfig::paper_default();
        config.group_size = 0;
        assert_eq!(
            config.validate(),
            Err(RenderError::InvalidConfiguration {
                reason: "group size 0 must be a positive multiple of tile size 16".to_string()
            })
        );
        assert!(GstgConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = GstgConfig::new(16, 40, BoundaryMethod::Aabb, BoundaryMethod::Aabb).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: group size 40 must be a positive multiple of tile size 16"
        );
    }
}
