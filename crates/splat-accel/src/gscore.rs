//! Behavioural model of GSCore, the prior 3D-GS accelerator the paper
//! compares against (Lee et al., ASPLOS 2024).
//!
//! GSCore accelerates the *conventional* per-tile pipeline: it refines tile
//! identification with shape-aware oriented-bounding-box (OBB) tests and
//! sorts every tile's splat list with dedicated bitonic-sort hardware, but
//! it has no tile grouping, so the per-tile duplication of sorting work and
//! feature traffic remains.
//!
//! GSCore's RTL is not public, so the model here runs the conventional
//! pipeline with the OBB boundary method on the same module-throughput
//! budget as the GS-TG accelerator (documented simplification: GSCore's
//! subtile skipping, which trims some wasted α-computations, is not
//! modelled; this slightly favours GSCore's competitor in absolute terms
//! but does not change the orderings the paper reports, which come from the
//! sorting/traffic duplication that GSCore retains).

use splat_render::BoundaryMethod;

/// Configuration of the GSCore behavioural model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GscoreConfig {
    /// Rendering tile size in pixels (GSCore uses 16×16 tiles).
    pub(crate) tile_size: u32,
    /// Boundary method used for tile identification (OBB).
    pub(crate) boundary: BoundaryMethod,
}

impl GscoreConfig {
    /// The configuration used for the paper's comparison.
    pub(crate) fn paper() -> Self {
        Self {
            tile_size: 16,
            boundary: BoundaryMethod::Obb,
        }
    }
}

impl Default for GscoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_uses_16_pixel_tiles_and_obb() {
        let c = GscoreConfig::paper();
        assert_eq!(c.tile_size, 16);
        assert_eq!(c.boundary, BoundaryMethod::Obb);
    }
}
