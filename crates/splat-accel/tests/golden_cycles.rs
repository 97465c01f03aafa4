//! Golden simulated cycles and operation counts of the accelerator model.
//!
//! The simulator renders the fp16 copy of the scene (`Scene::to_precision`)
//! through the ordinary pipeline. The values below were recorded from the
//! per-splat re-quantising renderer knob this replaced, so they pin that
//! the two are the same model: any drift in what the simulator renders,
//! counts or charges moves a number here.

use splat_accel::{AccelConfig, PipelineVariant, Simulator};
use splat_core::StageCounts;
use splat_scene::{PaperScene, SceneScale};
use splat_types::{Camera, CameraIntrinsics, Vec3};

/// The scene's default view at a quarter of the paper's resolution.
fn quarter_camera(scene: PaperScene) -> Camera {
    let full = scene.default_camera();
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(
            full.intrinsics().fov_y(),
            full.width() / 4,
            full.height() / 4,
        ),
    )
}

#[test]
fn simulated_cycles_and_counts_are_pinned() {
    #[rustfmt::skip]
    let golden: [(PaperScene, PipelineVariant, u64, [u64; StageCounts::FIELDS.len()]); 4] = [
        (PaperScene::Playroom, PipelineVariant::baseline_paper(), 36_217,
         [1200, 0, 1200, 8842, 7558, 8842, 7558, 0, 45643, 7546, 718, 0, 1817168, 762260, 4099, 65728]),
        (PaperScene::Playroom, PipelineVariant::gstg_paper(), 32_077,
         [1200, 0, 1200, 2208, 2124, 8652, 7558, 8652, 16939, 2124, 59, 33528, 1817168, 762260, 4099, 65728]),
        (PaperScene::Truck, PipelineVariant::baseline_paper(), 104_440,
         [2100, 1, 2099, 38774, 31076, 38774, 31076, 0, 211854, 31076, 1454, 0, 4800374, 3344459, 48730, 133008]),
        (PaperScene::Truck, PipelineVariant::gstg_paper(), 83_152,
         [2100, 1, 2099, 6085, 5631, 36723, 31076, 36723, 47358, 5631, 114, 86897, 4800374, 3344459, 48730, 133008]),
    ];
    let simulator = Simulator::new(AccelConfig::paper());
    for (scene_id, variant, cycles, counts) in golden {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        let report = simulator.simulate(&scene, &quarter_camera(scene_id), &variant);
        let label = format!("{} / {}", scene_id.name(), variant.label());
        assert_eq!(report.total_cycles, cycles, "{label}");
        assert_eq!(report.counts, StageCounts::from(counts), "{label}");
    }
}
