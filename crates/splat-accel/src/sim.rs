//! The frame-level accelerator simulator.
//!
//! [`Simulator::simulate`] runs the requested software pipeline over a
//! scene to obtain exact per-frame operation counts, then maps that work
//! onto the accelerator's module models and memory system to produce cycle
//! counts, frame time, DRAM traffic and energy.

use crate::buffer::BufferReport;
use crate::config::AccelConfig;
use crate::dram::{DramModel, DramTraffic};
use crate::energy::{EnergyBreakdown, PowerTable};
use crate::gscore::GscoreConfig;
use crate::modules::{
    BitmaskModel, BitmaskWork, PreprocessingModel, PreprocessingWork, RasterModel, RasterWork,
    SortingModel, SortingWork,
};
use crate::report::{SimReport, StageCycles};
use gstg::{GstgConfig, GstgSession};
use splat_core::StageCounts;
use splat_render::{BoundaryMethod, RenderConfig, RenderSession};
use splat_scene::Scene;
use splat_types::{Camera, Precision};

/// Which rendering pipeline a simulated frame runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineVariant {
    /// The conventional per-tile pipeline on the proposed accelerator —
    /// the paper's baseline (ellipse boundary, 16×16 tiles).
    Baseline {
        /// Tile size in pixels.
        tile_size: u32,
        /// Boundary method used for tile identification.
        boundary: BoundaryMethod,
    },
    /// The GSCore behavioural model (per-tile pipeline, OBB boundary).
    GsCore(GscoreConfig),
    /// The GS-TG tile-grouping pipeline with bitmask generation overlapped
    /// with group-wise sorting.
    GsTg(GstgConfig),
}

impl PipelineVariant {
    /// The paper's baseline: conventional pipeline, ellipse boundary,
    /// 16×16 tiles.
    pub fn baseline_paper() -> Self {
        Self::Baseline {
            tile_size: 16,
            boundary: BoundaryMethod::Ellipse,
        }
    }

    /// The GSCore comparison point.
    pub fn gscore_paper() -> Self {
        Self::GsCore(GscoreConfig::paper())
    }

    /// The GS-TG configuration the paper selects (16+64,
    /// Ellipse+Ellipse).
    pub fn gstg_paper() -> Self {
        Self::GsTg(GstgConfig::paper_default())
    }

    /// Human-readable label used in reports.
    pub fn label(&self) -> String {
        match self {
            PipelineVariant::Baseline {
                tile_size,
                boundary,
            } => {
                format!("Baseline ({tile_size}x{tile_size}, {boundary})")
            }
            PipelineVariant::GsCore(c) => {
                format!("GSCore ({0}x{0}, {1})", c.tile_size, c.boundary)
            }
            PipelineVariant::GsTg(c) => format!(
                "GS-TG ({}+{}, {}+{})",
                c.tile_size, c.group_size, c.group_boundary, c.bitmask_boundary
            ),
        }
    }
}

/// The accelerator simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: AccelConfig,
    power: PowerTable,
}

impl Simulator {
    /// Creates a simulator for a hardware configuration with the paper's
    /// power table.
    pub fn new(config: AccelConfig) -> Self {
        Self {
            config,
            power: PowerTable::paper(),
        }
    }

    /// Simulates one frame of `scene` viewed from `camera` through the
    /// given pipeline variant. The paper converts models to fp16 before
    /// they reach the accelerator, so the frame is rendered from the
    /// half-precision copy of the scene.
    pub fn simulate(&self, scene: &Scene, camera: &Camera, variant: &PipelineVariant) -> SimReport {
        let scene = &scene.to_precision(Precision::Half);
        match variant {
            PipelineVariant::Baseline {
                tile_size,
                boundary,
            } => self.simulate_conventional(scene, camera, *tile_size, *boundary, variant.label()),
            PipelineVariant::GsCore(c) => {
                self.simulate_conventional(scene, camera, c.tile_size, c.boundary, variant.label())
            }
            PipelineVariant::GsTg(c) => self.simulate_gstg(scene, camera, *c, variant.label()),
        }
    }

    /// Conventional per-tile pipeline (baseline and GSCore model).
    fn simulate_conventional(
        &self,
        scene: &Scene,
        camera: &Camera,
        tile_size: u32,
        boundary: BoundaryMethod,
        label: String,
    ) -> SimReport {
        // Gather exact work counts by rendering the frame; the per-tile
        // list sizes the session keeps feed the buffer model.
        let mut session = RenderSession::from_config(RenderConfig::new(tile_size, boundary));
        let counts = session.render(scene, camera).stats.counts;

        let tile_entry_sizes: Vec<u64> = session
            .assignments()
            .iter()
            .map(|(_, list)| list.len() as u64)
            .collect();
        let buffer = BufferReport::analyze(tile_entry_sizes, self.config.buffer_bytes_per_core);

        let traffic = DramTraffic::baseline(
            counts.input_gaussians,
            counts.tile_intersections,
            counts.pixels,
        );

        let stages = self.stage_cycles(&counts, None, &traffic);
        self.finish_report(label, scene.name(), counts, stages, traffic, buffer)
    }

    /// GS-TG pipeline with overlapped bitmask generation.
    fn simulate_gstg(
        &self,
        scene: &Scene,
        camera: &Camera,
        config: GstgConfig,
        label: String,
    ) -> SimReport {
        let mut session = GstgSession::from_config(config);
        let counts = session.render(scene, camera).stats.counts;

        let group_entry_sizes: Vec<u64> = session
            .assignments()
            .iter()
            .map(|(_, entries)| entries.len() as u64)
            .collect();
        let buffer = BufferReport::analyze(group_entry_sizes, self.config.buffer_bytes_per_core);

        let traffic = DramTraffic::gstg(
            counts.input_gaussians,
            counts.tile_intersections,
            counts.pixels,
        );

        let bitmask_work = BitmaskWork {
            bitmask_tests: counts.bitmask_tests,
        };
        let stages = self.stage_cycles(&counts, Some(bitmask_work), &traffic);
        self.finish_report(label, scene.name(), counts, stages, traffic, buffer)
    }

    /// Maps operation counts onto the module models, overlapping each
    /// stage's compute with its DRAM traffic and — for GS-TG — bitmask
    /// generation with group-wise sorting.
    fn stage_cycles(
        &self,
        counts: &StageCounts,
        bitmask: Option<BitmaskWork>,
        traffic: &DramTraffic,
    ) -> StageCycles {
        let dram = DramModel::new(self.config);

        let pm = PreprocessingModel::new(self.config).occupancy_cycles(&PreprocessingWork {
            input_gaussians: counts.input_gaussians,
            visible_gaussians: counts.visible_gaussians,
            tile_tests: counts.tile_tests,
        });
        let preprocess = pm.max(dram.transfer_cycles(traffic.preprocess_bytes));

        let gsm = SortingModel::new(self.config).occupancy_cycles(&SortingWork {
            keys: counts.tile_intersections,
            comparisons: counts.sort_comparisons,
        });
        let bgm = bitmask
            .map(|work| BitmaskModel::new(self.config).occupancy_cycles(&work))
            .unwrap_or(0);
        // The dedicated hardware runs bitmask generation in parallel with
        // group-wise sorting (Section V); the sorting phase occupies the
        // slower of the two, further bounded by its key traffic.
        let sort = gsm.max(bgm).max(dram.transfer_cycles(traffic.sort_bytes));

        let rm = RasterModel::new(self.config).occupancy_cycles(&RasterWork {
            filter_ops: counts.bitmask_filter_ops,
            alpha_computations: counts.alpha_computations,
            blend_operations: counts.blend_operations,
            pixels: counts.pixels,
        });
        let raster = rm.max(dram.transfer_cycles(traffic.raster_bytes));

        StageCycles {
            preprocess,
            sort,
            raster,
        }
    }

    fn finish_report(
        &self,
        label: String,
        scene: &str,
        counts: StageCounts,
        stages: StageCycles,
        traffic: DramTraffic,
        buffer: BufferReport,
    ) -> SimReport {
        let total_cycles = stages.total();
        let frame_time_s = total_cycles as f64 / self.config.clock_hz;
        let energy = EnergyBreakdown::from_activity(
            &self.power,
            &self.config,
            stages.preprocess,
            // BGM activity is bounded by the sorting phase it overlaps with.
            stages.sort,
            stages.sort,
            stages.raster,
            total_cycles,
            traffic.total_bytes(),
        );
        SimReport {
            label,
            scene: scene.to_string(),
            counts,
            stages,
            total_cycles,
            frame_time_s,
            fps: if total_cycles == 0 {
                0.0
            } else {
                1.0 / frame_time_s
            },
            traffic,
            energy,
            buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Vec3};

    fn small_camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 192, 144),
        )
    }

    fn scene() -> Scene {
        PaperScene::Playroom.build(SceneScale::Tiny, 0)
    }

    #[test]
    fn labels_are_descriptive() {
        assert!(PipelineVariant::baseline_paper()
            .label()
            .contains("Ellipse"));
        assert!(PipelineVariant::gscore_paper().label().contains("GSCore"));
        assert!(PipelineVariant::gstg_paper().label().contains("16+64"));
    }

    #[test]
    fn simulation_produces_consistent_report() {
        let sim = Simulator::new(AccelConfig::paper());
        let report = sim.simulate(
            &scene(),
            &small_camera(),
            &PipelineVariant::baseline_paper(),
        );
        assert!(report.total_cycles > 0);
        assert_eq!(report.total_cycles, report.stages.total());
        assert!(report.fps > 0.0);
        assert!(report.energy.total_j() > 0.0);
        assert!(report.traffic.total_bytes() > 0);
        assert_eq!(report.scene, "playroom");
    }

    #[test]
    fn gstg_beats_the_baseline_on_sorting_phase_and_traffic() {
        let sim = Simulator::new(AccelConfig::paper());
        let cam = small_camera();
        let s = scene();
        let baseline = sim.simulate(&s, &cam, &PipelineVariant::baseline_paper());
        let gstg = sim.simulate(&s, &cam, &PipelineVariant::gstg_paper());
        // Group sorting handles fewer keys than per-tile sorting.
        assert!(gstg.counts.tile_intersections < baseline.counts.tile_intersections);
        // DRAM traffic shrinks accordingly.
        assert!(gstg.traffic.total_bytes() < baseline.traffic.total_bytes());
        // Rasterization work is identical (lossless filtering).
        assert_eq!(
            gstg.counts.alpha_computations,
            baseline.counts.alpha_computations
        );
        // Overall the GS-TG frame is at least as fast.
        assert!(gstg.total_cycles <= baseline.total_cycles);
    }

    #[test]
    fn gscore_is_not_faster_than_the_ellipse_baseline() {
        // GSCore's OBB identification keeps more (tile, splat) pairs than
        // the ellipse baseline, so it cannot be faster in this model.
        let sim = Simulator::new(AccelConfig::paper());
        let cam = small_camera();
        let s = scene();
        let baseline = sim.simulate(&s, &cam, &PipelineVariant::baseline_paper());
        let gscore = sim.simulate(&s, &cam, &PipelineVariant::gscore_paper());
        assert!(gscore.counts.tile_intersections >= baseline.counts.tile_intersections);
        assert!(gscore.total_cycles >= baseline.total_cycles);
    }

    #[test]
    fn gstg_energy_efficiency_is_at_least_baseline() {
        let sim = Simulator::new(AccelConfig::paper());
        let cam = small_camera();
        let s = scene();
        let baseline = sim.simulate(&s, &cam, &PipelineVariant::baseline_paper());
        let gstg = sim.simulate(&s, &cam, &PipelineVariant::gstg_paper());
        assert!(gstg.energy_efficiency_over(&baseline) >= 1.0);
    }

    #[test]
    fn empty_scene_simulates_without_division_errors() {
        let sim = Simulator::new(AccelConfig::paper());
        let empty = Scene::new("empty", 64, 64, vec![]);
        let report = sim.simulate(&empty, &small_camera(), &PipelineVariant::gstg_paper());
        // Only pixel write-out work remains.
        assert!(report.total_cycles > 0);
        assert_eq!(report.counts.visible_gaussians, 0);
    }
}
