//! DRAM traffic, bandwidth and energy model.
//!
//! The accelerator streams Gaussian parameters in from DRAM, spills the
//! duplicated per-tile (or per-group) work lists, fetches the features of
//! every list entry during rasterization and writes the framebuffer back.
//! The paper's configuration provides 51.2 GB/s of DRAM bandwidth; energy
//! per byte follows the DRAM energy model it cites.
//!
//! The key effect captured here is that the baseline duplicates feature
//! fetches *per tile entry* while GS-TG fetches *per group entry* and
//! shares the group's working set across its 16 tiles through the on-chip
//! shared memory — a large traffic (and energy) reduction.

use crate::config::AccelConfig;

/// Bytes of one Gaussian's full parameter set (position, scale, rotation,
/// opacity and degree-1 SH color) stored in fp16 as the paper converts the
/// models to 16-bit floats: (3 + 3 + 4 + 1 + 12) scalars × 2 bytes.
pub(crate) const GAUSSIAN_PARAMETER_BYTES: u64 = 46;

/// Bytes of the preprocessed per-splat features consumed by rasterization
/// (depth, 2D mean, 2D covariance, color, opacity — 10 scalars in fp16)
/// plus a 4-byte index.
pub(crate) const GAUSSIAN_FEATURE_BYTES: u64 = 24;

/// Bytes of one duplicated sort record: the depth key plus the splat index.
pub(crate) const SORT_KEY_BYTES: u64 = 12;

/// Number of times each duplicated sort record crosses the DRAM interface:
/// written out by identification, read back by the sorting stage, and the
/// sorted index list written again for rasterization to consume.
pub(crate) const SORT_KEY_PASSES: u64 = 3;

/// Bytes per output pixel (RGB, 8 bits per channel plus padding).
pub(crate) const PIXEL_BYTES: u64 = 4;

/// Per-stage DRAM traffic of one frame, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramTraffic {
    /// Gaussian parameters streamed in during preprocessing.
    pub(crate) preprocess_bytes: u64,
    /// Sort keys written and re-read by the sorting stage.
    pub(crate) sort_bytes: u64,
    /// Feature fetches plus framebuffer write-back during rasterization.
    pub(crate) raster_bytes: u64,
}

impl DramTraffic {
    /// Total bytes moved for the frame.
    pub fn total_bytes(&self) -> u64 {
        self.preprocess_bytes + self.sort_bytes + self.raster_bytes
    }

    /// Traffic of the conventional per-tile pipeline:
    ///
    /// * every input splat's parameters are read once;
    /// * every per-tile sort record makes three trips across
    ///   the DRAM interface (identification write, sorter read, sorted
    ///   write-back);
    /// * every per-tile list entry causes one feature fetch during
    ///   rasterization, and the framebuffer is written once.
    pub(crate) fn baseline(input_gaussians: u64, tile_entries: u64, pixels: u64) -> Self {
        Self {
            preprocess_bytes: input_gaussians * GAUSSIAN_PARAMETER_BYTES,
            sort_bytes: tile_entries * SORT_KEY_BYTES * SORT_KEY_PASSES,
            raster_bytes: tile_entries * GAUSSIAN_FEATURE_BYTES + pixels * PIXEL_BYTES,
        }
    }

    /// Traffic of the GS-TG pipeline: keys and feature fetches are per
    /// *group* entry; the 16 tiles of a group share the fetched features
    /// through the core's shared memory. The 16-bit bitmask per group entry
    /// is the only additional data.
    pub(crate) fn gstg(input_gaussians: u64, group_entries: u64, pixels: u64) -> Self {
        let bitmask_bytes = group_entries * 2;
        Self {
            preprocess_bytes: input_gaussians * GAUSSIAN_PARAMETER_BYTES + bitmask_bytes,
            sort_bytes: group_entries * SORT_KEY_BYTES * SORT_KEY_PASSES,
            raster_bytes: group_entries * GAUSSIAN_FEATURE_BYTES + pixels * PIXEL_BYTES,
        }
    }
}

/// Converts traffic into time and energy for a given hardware
/// configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DramModel {
    config: AccelConfig,
}

impl DramModel {
    /// Creates the model for a hardware configuration.
    pub(crate) fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// Cycles needed to move `bytes` at the configured bandwidth.
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.config.dram_bytes_per_cycle()).ceil() as u64
    }

    /// DRAM energy in joules for `bytes` of traffic.
    pub(crate) fn energy_joules(&self, bytes: u64) -> f64 {
        bytes as f64 * self.config.dram_pj_per_byte * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_traffic_scales_with_tile_entries() {
        let small = DramTraffic::baseline(1000, 10_000, 100_000);
        let large = DramTraffic::baseline(1000, 40_000, 100_000);
        assert!(large.raster_bytes > small.raster_bytes);
        assert!(large.sort_bytes > small.sort_bytes);
        assert_eq!(large.preprocess_bytes, small.preprocess_bytes);
    }

    #[test]
    fn gstg_traffic_is_lower_for_fewer_entries() {
        // Same scene: 10k tile entries vs 3k group entries.
        let baseline = DramTraffic::baseline(1000, 10_000, 100_000);
        let gstg = DramTraffic::gstg(1000, 3_000, 100_000);
        assert!(gstg.total_bytes() < baseline.total_bytes());
    }

    #[test]
    fn total_is_sum_of_stages() {
        let t = DramTraffic {
            preprocess_bytes: 10,
            sort_bytes: 20,
            raster_bytes: 30,
        };
        assert_eq!(t.total_bytes(), 60);
    }

    #[test]
    fn transfer_cycles_respect_bandwidth() {
        let model = DramModel::new(AccelConfig::paper());
        // 51.2 GB/s at 1 GHz = 51.2 bytes per cycle.
        assert_eq!(model.transfer_cycles(5120), 100);
        assert_eq!(model.transfer_cycles(0), 0);
    }

    #[test]
    fn energy_scales_linearly_with_bytes() {
        let model = DramModel::new(AccelConfig::paper());
        let e1 = model.energy_joules(1_000_000);
        let e2 = model.energy_joules(2_000_000);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
        assert!(e1 > 0.0);
    }

    #[test]
    fn parameter_sizes_are_fp16() {
        // 23 scalars * 2 bytes for the full parameter set.
        assert_eq!(GAUSSIAN_PARAMETER_BYTES, 46);
        // 10 fp16 scalars + 4-byte index for the rasterization features.
        assert_eq!(GAUSSIAN_FEATURE_BYTES, 24);
    }
}
