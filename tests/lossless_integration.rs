//! Integration test: GS-TG is lossless with respect to the conventional
//! pipeline across scenes, grouping configurations and boundary methods —
//! the paper's central correctness claim, verified end to end through the
//! public API of the umbrella crate.

use gs_tg::prelude::*;
use gs_tg::tile_grouping::verify_lossless;

fn test_camera(width: u32, height: u32, fov: f32) -> Camera {
    Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(fov, width, height),
    )
    .expect("valid pose")
}

#[test]
fn paper_configuration_is_lossless_on_every_scene() {
    for scene_id in PaperScene::HARDWARE_SET {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        let camera = test_camera(240, 160, 0.95);
        let report = verify_lossless(&scene, &camera, GstgConfig::paper_default());
        assert!(
            report.identical,
            "{}: max diff {}",
            scene_id.name(),
            report.max_abs_diff
        );
        assert_eq!(
            report.baseline_alpha_computations,
            report.gstg_alpha_computations,
            "{}: rasterization work must be identical",
            scene_id.name()
        );
    }
}

#[test]
fn every_grouping_and_boundary_combination_is_lossless() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 3);
    let camera = test_camera(320, 200, 0.9);
    for (tile, group) in [(8u32, 16u32), (8, 64), (16, 32), (16, 64)] {
        for group_boundary in [
            BoundaryMethod::Aabb,
            BoundaryMethod::Obb,
            BoundaryMethod::Ellipse,
        ] {
            for bitmask_boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
                let config = GstgConfig::new(tile, group, group_boundary, bitmask_boundary)
                    .expect("valid configuration");
                let report = verify_lossless(&scene, &camera, config);
                assert!(
                    report.identical,
                    "{tile}+{group} {group_boundary}+{bitmask_boundary}: diff {}",
                    report.max_abs_diff
                );
            }
        }
    }
}

#[test]
fn grouping_reduces_sorting_on_every_scene() {
    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = scene_id.build(SceneScale::Tiny, 1);
        let camera = test_camera(320, 200, 0.95);
        let report = verify_lossless(&scene, &camera, GstgConfig::paper_default());
        assert!(
            report.sort_reduction() > 1.0,
            "{}: expected a sorting reduction, got {:.3}x",
            scene_id.name(),
            report.sort_reduction()
        );
    }
}

#[test]
fn half_precision_models_are_also_lossless_between_pipelines() {
    // The paper converts models to fp16 for the accelerator; losslessness
    // between the two pipelines must hold at that precision too (both see
    // the same quantized inputs).
    let scene = PaperScene::Playroom
        .build(SceneScale::Tiny, 5)
        .to_precision(gs_tg::types::Precision::Half);
    let camera = test_camera(256, 160, 1.0);
    let config = GstgConfig::paper_default();
    let grouped = GstgRenderer::new(config).render(&scene, &camera);
    let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
    assert_eq!(grouped.image.max_abs_diff(&baseline.image), 0.0);
}
