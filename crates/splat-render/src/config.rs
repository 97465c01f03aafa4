//! Rendering configuration: tile size, boundary method and thresholds.

pub use splat_core::{ALPHA_CULL_THRESHOLD, ALPHA_MAX, TRANSMITTANCE_EPSILON};

use splat_core::{ExecutionConfig, HasExecution};
use splat_types::RenderError;

/// How the screen-space footprint of a splat is tested against tiles during
/// tile/group identification (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundaryMethod {
    /// Axis-aligned bounding box of the 3σ ellipse — cheapest test, most
    /// false positives (original 3D-GS).
    #[default]
    Aabb,
    /// Oriented bounding box aligned with the ellipse axes — moderate cost,
    /// fewer false positives (GSCore).
    Obb,
    /// Exact ellipse/rectangle intersection — most expensive test, minimal
    /// false positives (FlashGS).
    Ellipse,
}

impl BoundaryMethod {
    /// All boundary methods in the order the paper presents them.
    pub const ALL: [BoundaryMethod; 3] = [
        BoundaryMethod::Aabb,
        BoundaryMethod::Obb,
        BoundaryMethod::Ellipse,
    ];

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            BoundaryMethod::Aabb => "AABB",
            BoundaryMethod::Obb => "OBB",
            BoundaryMethod::Ellipse => "Ellipse",
        }
    }

    /// Relative cost of one tile-intersection test with this method, in
    /// arbitrary "operation" units used by the cost model. AABB needs only
    /// range comparisons, OBB runs a separating-axis test, the ellipse test
    /// evaluates the quadratic form against the rectangle.
    pub(crate) fn test_cost(self) -> f64 {
        match self {
            BoundaryMethod::Aabb => 1.0,
            BoundaryMethod::Obb => 2.5,
            BoundaryMethod::Ellipse => 4.0,
        }
    }
}

impl std::fmt::Display for BoundaryMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shell kept only because `benchmark/src/layers.rs` passes
/// `RenderConfig::prepass` into `identify_tiles_into` by value; it selects
/// nothing (the exact per-tile test is [`BoundaryMethod::Ellipse`]) and goes
/// in the `[benchmark]` PR of ROADMAP item 2a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrepassMode {
    /// The only value.
    #[default]
    Conservative,
}

/// Full configuration of the baseline rendering pipeline.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`RenderConfig::default`], [`RenderConfig::new`] or
/// [`RenderConfig::try_new`] and adjust it through the public fields or the
/// `with_*` methods, so future knobs can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RenderConfig {
    /// Square tile edge length in pixels (8, 16, 32 or 64 in the paper's
    /// sweeps; any power of two ≥ 4 is accepted).
    pub tile_size: u32,
    /// Boundary method used in tile identification.
    pub boundary: BoundaryMethod,
    /// Selects nothing; see [`PrepassMode`] (goes with ROADMAP item 2a).
    pub prepass: PrepassMode,
    /// Shared execution parameters (worker threads, kernel modes).
    /// Use [`HasExecution::with_threads`] to change the thread count.
    pub exec: ExecutionConfig,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            tile_size: 16,
            boundary: BoundaryMethod::Aabb,
            prepass: PrepassMode::Conservative,
            exec: ExecutionConfig::sequential(),
        }
    }
}

impl RenderConfig {
    /// Creates a configuration with the given tile size and boundary
    /// method and default thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is not a power of two or is below 4; use
    /// [`RenderConfig::try_new`] for a fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; try_new is the typed path"
    )]
    pub fn new(tile_size: u32, boundary: BoundaryMethod) -> Self {
        Self::try_new(tile_size, boundary).expect("invalid tile size")
    }

    /// Fallible variant of [`RenderConfig::new`].
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidTileSize`] when `tile_size` is not a
    /// power of two or is smaller than 4 pixels.
    pub fn try_new(tile_size: u32, boundary: BoundaryMethod) -> Result<Self, RenderError> {
        let config = Self {
            tile_size,
            boundary,
            ..Self::default()
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration. Because the fields are public (and the
    /// convenience constructors panic rather than return errors), the
    /// panic-free serving path re-checks configurations through this
    /// method before rendering.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidTileSize`] when the tile size is not a
    /// power of two of at least 4 pixels (zero included).
    pub fn validate(&self) -> Result<(), RenderError> {
        if self.tile_size < 4 || !self.tile_size.is_power_of_two() {
            return Err(RenderError::InvalidTileSize {
                tile_size: self.tile_size,
            });
        }
        Ok(())
    }
}

impl HasExecution for RenderConfig {
    fn execution(&self) -> &ExecutionConfig {
        &self.exec
    }

    fn execution_mut(&mut self) -> &mut ExecutionConfig {
        &mut self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_reference_settings() {
        let c = RenderConfig::default();
        assert_eq!(c.tile_size, 16);
        assert_eq!(c.boundary, BoundaryMethod::Aabb);
        assert_eq!(c.exec.threads, 1);
    }

    #[test]
    fn thresholds_match_reference_implementation() {
        assert!((ALPHA_CULL_THRESHOLD - 1.0 / 255.0).abs() < 1e-9);
        assert!((TRANSMITTANCE_EPSILON - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn try_new_rejects_bad_tile_sizes() {
        for tile_size in [0, 3, 20, 2] {
            assert_eq!(
                RenderConfig::try_new(tile_size, BoundaryMethod::Aabb),
                Err(RenderError::InvalidTileSize { tile_size })
            );
        }
    }

    #[test]
    fn validate_catches_hand_mutated_configs() {
        // Public-field mutation can bypass the constructors; validate()
        // is what the serving path relies on to catch it.
        let mut config = RenderConfig::new(16, BoundaryMethod::Aabb);
        config.tile_size = 0;
        assert_eq!(
            config.validate(),
            Err(RenderError::InvalidTileSize { tile_size: 0 })
        );
        assert_eq!(RenderConfig::default().validate(), Ok(()));
    }

    #[test]
    fn try_new_accepts_paper_tile_sizes() {
        for size in [8, 16, 32, 64] {
            assert!(RenderConfig::try_new(size, BoundaryMethod::Ellipse).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid tile size")]
    fn new_panics_on_bad_tile_size() {
        let _ = RenderConfig::new(7, BoundaryMethod::Aabb);
    }

    #[test]
    fn boundary_cost_ordering_matches_paper() {
        // AABB cheapest, ellipse most expensive (Section II-C).
        assert!(BoundaryMethod::Aabb.test_cost() < BoundaryMethod::Obb.test_cost());
        assert!(BoundaryMethod::Obb.test_cost() < BoundaryMethod::Ellipse.test_cost());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BoundaryMethod::Aabb.to_string(), "AABB");
        assert_eq!(BoundaryMethod::Obb.to_string(), "OBB");
        assert_eq!(BoundaryMethod::Ellipse.to_string(), "Ellipse");
    }

    #[test]
    fn shared_thread_knob_clamps_to_one() {
        assert_eq!(RenderConfig::default().with_threads(0).exec.threads, 1);
        assert_eq!(RenderConfig::default().with_threads(4).exec.threads, 4);
    }
}
