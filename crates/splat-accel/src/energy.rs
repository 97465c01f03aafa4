//! Area, power and energy accounting (Table III).
//!
//! The paper synthesizes the accelerator in 28 nm and reports per-module
//! area and power; this module carries those figures as model constants and
//! combines them with simulated active time and DRAM traffic to produce the
//! energy-efficiency comparison of Fig. 15.

use crate::config::AccelConfig;
use crate::dram::DramModel;

/// Area and power of one module group as reported in Table III
/// (totals across the four instances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleBudget {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
}

/// The accelerator's area/power budget per module group (Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTable {
    /// Preprocessing modules (×4).
    pub pm: ModuleBudget,
    /// Bitmask generation modules (×4).
    pub bgm: ModuleBudget,
    /// Group-wise sorting modules (×4).
    pub gsm: ModuleBudget,
    /// Rasterization modules (×4).
    pub rm: ModuleBudget,
    /// On-chip buffers (4 × 2 × 42 KB).
    pub buffer: ModuleBudget,
}

impl PowerTable {
    /// The figures reported in Table III of the paper.
    pub fn paper() -> Self {
        Self {
            pm: ModuleBudget {
                area_mm2: 0.648,
                power_w: 0.429,
            },
            bgm: ModuleBudget {
                area_mm2: 0.051,
                power_w: 0.055,
            },
            gsm: ModuleBudget {
                area_mm2: 0.012,
                power_w: 0.001,
            },
            rm: ModuleBudget {
                area_mm2: 1.891,
                power_w: 0.338,
            },
            buffer: ModuleBudget {
                area_mm2: 1.382,
                power_w: 0.240,
            },
        }
    }

    /// Total accelerator area in mm² (3.984 mm² in the paper).
    pub fn total_area_mm2(&self) -> f64 {
        self.pm.area_mm2
            + self.bgm.area_mm2
            + self.gsm.area_mm2
            + self.rm.area_mm2
            + self.buffer.area_mm2
    }

    /// Total accelerator power in watts (1.063 W in the paper).
    pub fn total_power_w(&self) -> f64 {
        self.pm.power_w
            + self.bgm.power_w
            + self.gsm.power_w
            + self.rm.power_w
            + self.buffer.power_w
    }
}

impl Default for PowerTable {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-frame energy broken down by consumer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Preprocessing-module energy in joules.
    pub(crate) pm_j: f64,
    /// Bitmask-generation energy in joules.
    pub(crate) bgm_j: f64,
    /// Sorting energy in joules.
    pub(crate) gsm_j: f64,
    /// Rasterization energy in joules.
    pub(crate) rm_j: f64,
    /// On-chip buffer energy in joules (charged over the whole frame).
    pub(crate) buffer_j: f64,
    /// DRAM access energy in joules.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy of the frame in joules.
    pub fn total_j(&self) -> f64 {
        self.pm_j + self.bgm_j + self.gsm_j + self.rm_j + self.buffer_j + self.dram_j
    }

    /// Computes the frame energy from per-module active cycles, the total
    /// frame cycles (buffers are powered for the whole frame), the DRAM
    /// traffic and the hardware configuration.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_activity(
        table: &PowerTable,
        config: &AccelConfig,
        pm_cycles: u64,
        bgm_cycles: u64,
        gsm_cycles: u64,
        rm_cycles: u64,
        total_cycles: u64,
        dram_bytes: u64,
    ) -> Self {
        let cycle_s = 1.0 / config.clock_hz;
        let energy = |cycles: u64, power_w: f64| cycles as f64 * cycle_s * power_w;
        let dram = DramModel::new(*config);
        Self {
            pm_j: energy(pm_cycles, table.pm.power_w),
            bgm_j: energy(bgm_cycles, table.bgm.power_w),
            gsm_j: energy(gsm_cycles, table.gsm.power_w),
            rm_j: energy(rm_cycles, table.rm.power_w),
            buffer_j: energy(total_cycles, table.buffer.power_w),
            dram_j: dram.energy_joules(dram_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_totals_match_the_paper() {
        let t = PowerTable::paper();
        assert!((t.total_area_mm2() - 3.984).abs() < 1e-9);
        assert!((t.total_power_w() - 1.063).abs() < 1e-9);
    }

    #[test]
    fn rm_is_the_largest_module_and_gsm_the_smallest() {
        let t = PowerTable::paper();
        assert!(t.rm.area_mm2 > t.pm.area_mm2);
        assert!(t.gsm.area_mm2 < t.bgm.area_mm2);
    }

    #[test]
    fn energy_scales_with_active_cycles() {
        let table = PowerTable::paper();
        let config = AccelConfig::paper();
        let short = EnergyBreakdown::from_activity(&table, &config, 1000, 0, 0, 1000, 2000, 0);
        let long = EnergyBreakdown::from_activity(&table, &config, 2000, 0, 0, 2000, 4000, 0);
        assert!((long.total_j() / short.total_j() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dram_traffic_contributes_energy() {
        let table = PowerTable::paper();
        let config = AccelConfig::paper();
        let without = EnergyBreakdown::from_activity(&table, &config, 1000, 0, 0, 1000, 2000, 0);
        let with =
            EnergyBreakdown::from_activity(&table, &config, 1000, 0, 0, 1000, 2000, 10_000_000);
        assert!(with.total_j() > without.total_j());
        assert!(with.dram_j > 0.0);
    }

    #[test]
    fn total_is_sum_of_components() {
        let e = EnergyBreakdown {
            pm_j: 1.0,
            bgm_j: 2.0,
            gsm_j: 3.0,
            rm_j: 4.0,
            buffer_j: 5.0,
            dram_j: 6.0,
        };
        assert!((e.total_j() - 21.0).abs() < 1e-12);
    }
}
