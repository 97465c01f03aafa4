//! Accelerator hardware configuration (unit counts, clock, memory system).

/// Hardware parameters of the simulated accelerator.
///
/// The defaults ([`AccelConfig::paper`]) follow Section V and Table III of
/// the paper: four preprocessing modules and four GS-TG cores at 1 GHz,
/// each core with a 4-unit bitmask generation module, a 16-comparator
/// group-sorting module and a rasterization module that filters eight
/// Gaussians per cycle into sixteen rasterization units, all backed by
/// double-buffered 42 KB SRAM per core and a 51.2 GB/s DRAM channel.
///
/// The paper's configuration is the only one: the fields are crate-private,
/// so no caller can hand the simulator a zero clock or core count, and
/// [`AccelConfig::parameter_rows`] is how they are read outside the crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Clock frequency in Hz.
    pub(crate) clock_hz: f64,
    /// Number of preprocessing modules working in parallel.
    pub(crate) preprocessing_modules: u32,
    /// Splats processed per cycle by one preprocessing module
    /// (feature computation and culling are fully pipelined).
    pub(crate) pm_gaussians_per_cycle: f64,
    /// Tile/group boundary tests per cycle per preprocessing module.
    pub(crate) pm_tile_tests_per_cycle: f64,
    /// Number of GS-TG cores (each with BGM + GSM + RM).
    pub(crate) cores: u32,
    /// Tile-check units per bitmask generation module.
    pub(crate) bgm_tile_check_units: u32,
    /// Sustained sort-key comparisons per cycle per group-sorting module.
    /// The quick-sort unit has 16 comparators, but quick sort's sequential
    /// partitioning steps keep the sustained utilization at roughly a
    /// quarter of the peak, so the default charges 4 comparisons per cycle
    /// per module.
    pub(crate) gsm_comparisons_per_cycle: f64,
    /// Sort keys ingested/emitted per cycle per group-sorting module
    /// (list construction and write-back).
    pub(crate) gsm_keys_per_cycle: f64,
    /// Bitmask AND/OR filter operations per cycle per rasterization module.
    pub(crate) rm_filter_ops_per_cycle: f64,
    /// Rasterization units (α-computation + α-blend lanes) per
    /// rasterization module.
    pub(crate) rm_rasterization_units: u32,
    /// On-chip buffer capacity per core in bytes (single buffer of the
    /// double-buffered pair).
    pub(crate) buffer_bytes_per_core: u64,
    /// DRAM bandwidth in bytes per second.
    pub(crate) dram_bandwidth_bytes_per_s: f64,
    /// DRAM access energy in picojoules per byte (derived from the DRAM
    /// energy model the paper cites \[16\]; absolute value only scales the
    /// energy axis, every experiment reports ratios).
    pub(crate) dram_pj_per_byte: f64,
}

impl AccelConfig {
    /// The configuration described in the paper.
    pub fn paper() -> Self {
        Self {
            clock_hz: 1.0e9,
            preprocessing_modules: 4,
            pm_gaussians_per_cycle: 1.0,
            pm_tile_tests_per_cycle: 2.0,
            cores: 4,
            bgm_tile_check_units: 4,
            gsm_comparisons_per_cycle: 4.0,
            gsm_keys_per_cycle: 4.0,
            rm_filter_ops_per_cycle: 8.0,
            rm_rasterization_units: 16,
            buffer_bytes_per_core: 42 * 1024,
            dram_bandwidth_bytes_per_s: 51.2e9,
            dram_pj_per_byte: 60.0,
        }
    }

    /// The hardware parameters of Table III as `(parameter, value)` rows,
    /// values formatted for the table.
    pub fn parameter_rows(&self) -> [(&'static str, String); 8] {
        [
            (
                "Operating frequency",
                format!("{:.1} GHz", self.clock_hz / 1e9),
            ),
            (
                "Preprocessing modules",
                self.preprocessing_modules.to_string(),
            ),
            ("GS-TG cores", self.cores.to_string()),
            (
                "Tile-check units per BGM",
                self.bgm_tile_check_units.to_string(),
            ),
            (
                "Rasterization units per RM",
                self.rm_rasterization_units.to_string(),
            ),
            (
                "Buffer per core",
                format!("{} KB (double-buffered)", self.buffer_bytes_per_core / 1024),
            ),
            (
                "DRAM bandwidth",
                format!("{:.1} GB/s", self.dram_bandwidth_bytes_per_s / 1e9),
            ),
            (
                "DRAM energy",
                format!("{:.0} pJ/byte", self.dram_pj_per_byte),
            ),
        ]
    }

    /// Total boundary-test throughput of the preprocessing modules
    /// (tests per cycle).
    pub(crate) fn total_tile_test_throughput(&self) -> f64 {
        f64::from(self.preprocessing_modules) * self.pm_tile_tests_per_cycle
    }

    /// Total splat feature-computation throughput (splats per cycle).
    pub(crate) fn total_feature_throughput(&self) -> f64 {
        f64::from(self.preprocessing_modules) * self.pm_gaussians_per_cycle
    }

    /// Total bitmask tile-check throughput across cores (tests per cycle).
    pub(crate) fn total_bitmask_throughput(&self) -> f64 {
        f64::from(self.cores) * f64::from(self.bgm_tile_check_units)
    }

    /// Total sort comparison throughput across cores (comparisons/cycle).
    pub(crate) fn total_sort_comparison_throughput(&self) -> f64 {
        f64::from(self.cores) * self.gsm_comparisons_per_cycle
    }

    /// Total sort key ingest throughput across cores (keys/cycle).
    pub(crate) fn total_sort_key_throughput(&self) -> f64 {
        f64::from(self.cores) * self.gsm_keys_per_cycle
    }

    /// Total bitmask filter throughput across cores (filter ops/cycle).
    pub(crate) fn total_filter_throughput(&self) -> f64 {
        f64::from(self.cores) * self.rm_filter_ops_per_cycle
    }

    /// Total rasterization throughput across cores
    /// (α-computations per cycle).
    pub(crate) fn total_raster_throughput(&self) -> f64 {
        f64::from(self.cores) * f64::from(self.rm_rasterization_units)
    }

    /// DRAM bytes transferable per clock cycle.
    pub(crate) fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_bytes_per_s / self.clock_hz
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_section_v() {
        let c = AccelConfig::paper();
        assert_eq!(c.preprocessing_modules, 4);
        assert_eq!(c.cores, 4);
        assert_eq!(c.bgm_tile_check_units, 4);
        assert_eq!(c.rm_rasterization_units, 16);
        assert_eq!(c.buffer_bytes_per_core, 43_008);
        assert!((c.clock_hz - 1.0e9).abs() < 1.0);
        assert!((c.dram_bandwidth_bytes_per_s - 51.2e9).abs() < 1.0);
    }

    #[test]
    fn aggregate_throughputs_scale_with_unit_counts() {
        let c = AccelConfig::paper();
        assert_eq!(c.total_bitmask_throughput(), 16.0);
        assert_eq!(c.total_raster_throughput(), 64.0);
        assert_eq!(c.total_sort_comparison_throughput(), 16.0);
        assert_eq!(c.total_filter_throughput(), 32.0);

        let mut scaled = AccelConfig::paper();
        scaled.cores = 8;
        scaled.rm_rasterization_units = 32;
        assert_eq!(scaled.total_raster_throughput(), 256.0);
    }

    #[test]
    fn dram_moves_about_51_bytes_per_cycle() {
        let c = AccelConfig::paper();
        assert!((c.dram_bytes_per_cycle() - 51.2).abs() < 1e-9);
    }
}
