//! Simulation reports and cross-variant comparisons.

use crate::buffer::BufferReport;
use crate::dram::DramTraffic;
use crate::energy::EnergyBreakdown;
use splat_core::StageCounts;
use splat_metrics::{geometric_mean, Table};

/// Pipeline-stage occupancy of one simulated frame, in clock cycles.
///
/// The sorting stage of a GS-TG frame already reflects the overlap of
/// bitmask generation with group-wise sorting (the stage occupies the
/// slower of the two modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StageCycles {
    /// Preprocessing (PM array plus parameter streaming).
    pub(crate) preprocess: u64,
    /// Sorting phase (GSM, and BGM when overlapped, plus key traffic).
    pub(crate) sort: u64,
    /// Rasterization (RM array plus feature/framebuffer traffic).
    pub(crate) raster: u64,
}

impl StageCycles {
    /// Total frame cycles.
    pub(crate) fn total(&self) -> u64 {
        self.preprocess + self.sort + self.raster
    }
}

/// The full result of simulating one frame on the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Human-readable variant label (e.g. `"GS-TG (16+64, Ellipse+Ellipse)"`).
    pub label: String,
    /// Scene name the frame came from.
    pub(crate) scene: String,
    /// Software-pipeline operation counts the cycle model consumed.
    pub counts: StageCounts,
    /// Per-stage occupancy in cycles.
    pub(crate) stages: StageCycles,
    /// Total frame cycles.
    pub total_cycles: u64,
    /// Frame time in seconds at the configured clock.
    pub(crate) frame_time_s: f64,
    /// Frames per second achievable at the configured clock.
    pub fps: f64,
    /// DRAM traffic of the frame.
    pub traffic: DramTraffic,
    /// Per-consumer energy of the frame.
    pub energy: EnergyBreakdown,
    /// On-chip buffer occupancy analysis.
    pub(crate) buffer: BufferReport,
}

impl SimReport {
    /// Speedup of this variant relative to `baseline` (ratio of total
    /// cycles).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Energy efficiency of this variant relative to `baseline`
    /// (ratio of frame energies; > 1 means this variant uses less energy).
    pub fn energy_efficiency_over(&self, baseline: &SimReport) -> f64 {
        let own = self.energy.total_j();
        if own <= 0.0 {
            return 0.0;
        }
        baseline.energy.total_j() / own
    }
}

/// A cross-scene, cross-variant comparison in the style of Figs. 14/15:
/// one row per scene, one column per variant, normalized to the first
/// variant, with a geometric-mean row.
#[derive(Debug, Clone, Default)]
pub struct ComparisonReport {
    variant_labels: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl ComparisonReport {
    /// Creates a comparison over the given variant labels; the first label
    /// is the normalization baseline.
    pub fn new<I, S>(variant_labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            variant_labels: variant_labels.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one scene's normalized values (already relative to the
    /// baseline variant).
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the variant count.
    pub fn add_scene(&mut self, scene: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.variant_labels.len(),
            "expected one value per variant"
        );
        self.rows.push((scene.into(), values));
    }

    /// Geometric mean across scenes for each variant (the paper's summary
    /// statistic), or `None` when no scene was added.
    pub fn geomean(&self) -> Option<Vec<f64>> {
        if self.rows.is_empty() {
            return None;
        }
        Some(
            (0..self.variant_labels.len())
                .map(|col| {
                    let column: Vec<f64> = self.rows.iter().map(|(_, v)| v[col]).collect();
                    geometric_mean(&column).unwrap_or(f64::NAN)
                })
                .collect(),
        )
    }

    /// Renders the comparison as a markdown table with a geomean row.
    pub fn to_table(&self, value_name: &str) -> Table {
        let mut headers = vec![format!("scene ({value_name})")];
        headers.extend(self.variant_labels.iter().cloned());
        let mut table = Table::new(headers);
        for (scene, values) in &self.rows {
            let mut row = vec![scene.clone()];
            row.extend(values.iter().map(|v| format!("{v:.3}")));
            table.add_row(row);
        }
        if let Some(geo) = self.geomean() {
            let mut row = vec!["geomean".to_string()];
            row.extend(geo.iter().map(|v| format!("{v:.3}")));
            table.add_row(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, cycles: u64, energy_j: f64) -> SimReport {
        SimReport {
            label: label.to_string(),
            scene: "test".to_string(),
            counts: StageCounts::default(),
            stages: StageCycles {
                preprocess: cycles / 4,
                sort: cycles / 4,
                raster: cycles / 2,
            },
            total_cycles: cycles,
            frame_time_s: cycles as f64 * 1e-9,
            fps: 1e9 / cycles as f64,
            traffic: DramTraffic::default(),
            energy: EnergyBreakdown {
                rm_j: energy_j,
                ..EnergyBreakdown::default()
            },
            buffer: BufferReport::default(),
        }
    }

    #[test]
    fn stage_cycles_total() {
        let s = StageCycles {
            preprocess: 1,
            sort: 2,
            raster: 3,
        };
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn speedup_and_efficiency_are_ratios() {
        let baseline = report("base", 1000, 2.0);
        let fast = report("fast", 500, 1.0);
        assert!((fast.speedup_over(&baseline) - 2.0).abs() < 1e-12);
        assert!((fast.energy_efficiency_over(&baseline) - 2.0).abs() < 1e-12);
        assert!((baseline.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comparison_geomean_matches_hand_computation() {
        let mut cmp = ComparisonReport::new(["baseline", "gstg"]);
        cmp.add_scene("a", vec![1.0, 2.0]);
        cmp.add_scene("b", vec![1.0, 8.0]);
        let geo = cmp.geomean().unwrap();
        assert!((geo[0] - 1.0).abs() < 1e-12);
        assert!((geo[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_lookup_and_table() {
        let mut cmp = ComparisonReport::new(["baseline", "gstg"]);
        cmp.add_scene("train", vec![1.0, 1.33]);
        assert_eq!(cmp.rows, [("train".to_string(), vec![1.0, 1.33])]);
        let md = cmp.to_table("speedup").to_markdown();
        assert!(md.contains("train"));
        assert!(md.contains("geomean"));
    }

    #[test]
    #[should_panic(expected = "one value per variant")]
    fn mismatched_scene_row_panics() {
        let mut cmp = ComparisonReport::new(["a", "b"]);
        cmp.add_scene("x", vec![1.0]);
    }

    #[test]
    fn empty_comparison_has_no_geomean() {
        let cmp = ComparisonReport::new(["a"]);
        assert!(cmp.geomean().is_none());
    }
}
