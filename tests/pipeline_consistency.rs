//! Integration test: cross-crate consistency invariants between the
//! rendering pipelines, the scene substrate and the accelerator simulator.

use gs_tg::prelude::*;
use gs_tg::scene::io::{decode_scene, encode_scene};

fn camera(width: u32, height: u32) -> Camera {
    Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::try_from_fov_y(1.0, width, height).expect("valid intrinsics"),
    )
    .expect("valid pose")
}

fn ellipse_config() -> RenderConfig {
    RenderConfig::try_new(16, BoundaryMethod::Ellipse).expect("valid configuration")
}

#[test]
fn boundary_methods_form_a_work_hierarchy_at_pipeline_level() {
    // Tighter boundary methods never increase rendered-image error and
    // never increase the per-tile work (Fig. 2's point, measured end to
    // end).
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 0);
    let cam = camera(320, 200);
    let mut previous_keys = u64::MAX;
    let mut reference_image = None;
    for boundary in [
        BoundaryMethod::Aabb,
        BoundaryMethod::Obb,
        BoundaryMethod::Ellipse,
    ] {
        let out = Renderer::new(RenderConfig::try_new(16, boundary).expect("valid configuration"))
            .render(&scene, &cam);
        assert!(
            out.stats.counts.tile_intersections <= previous_keys,
            "{boundary} produced more tile entries than a looser method"
        );
        previous_keys = out.stats.counts.tile_intersections;
        match &reference_image {
            None => reference_image = Some(out.image),
            Some(reference) => assert_eq!(out.image.max_abs_diff(reference), 0.0),
        }
    }
}

#[test]
fn scene_serialization_preserves_rendering_results() {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 2);
    let cam = camera(256, 160);
    let decoded = decode_scene(&encode_scene(&scene)).expect("round trip");
    let renderer = Renderer::new(ellipse_config());
    let original = renderer.render(&scene, &cam);
    let restored = renderer.render(&decoded, &cam);
    // Serialization is exact for every parameter, so the decoded scene
    // renders the same bits.
    assert_eq!(decoded.gaussians(), scene.gaussians());
    assert_eq!(original.image.max_abs_diff(&restored.image), 0.0);
}

#[test]
fn simulator_counts_match_the_software_pipeline() {
    // The accelerator simulator's reported counts must be exactly the
    // counts the software pipelines measure (it consumes them directly).
    let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 0);
    let cam = camera(256, 176);
    let sim = Simulator::new(AccelConfig::paper());
    let report = sim.simulate(&scene, &cam, &PipelineVariant::gstg_paper());

    let half = scene.to_precision(gs_tg::types::Precision::Half);
    let direct = GstgRenderer::new(GstgConfig::paper_default()).render(&half, &cam);
    assert_eq!(
        report.counts.alpha_computations,
        direct.stats.counts.alpha_computations
    );
    assert_eq!(
        report.counts.tile_intersections,
        direct.stats.counts.tile_intersections
    );
    assert_eq!(
        report.counts.bitmask_tests,
        direct.stats.counts.bitmask_tests
    );
}

#[test]
fn scaling_the_scene_scales_the_work() {
    let cam = camera(256, 160);
    let tiny = PaperScene::Train.build(SceneScale::Tiny, 0);
    let small = PaperScene::Train.build(SceneScale::Small, 0);
    let renderer = Renderer::new(ellipse_config());
    let tiny_out = renderer.render(&tiny, &cam);
    let small_out = renderer.render(&small, &cam);
    assert!(small.len() > 5 * tiny.len());
    assert!(small_out.stats.counts.visible_gaussians > tiny_out.stats.counts.visible_gaussians);
    assert!(small_out.stats.counts.alpha_computations > tiny_out.stats.counts.alpha_computations);
}

#[test]
fn renderer_is_deterministic_across_runs() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 9);
    let cam = camera(200, 150);
    let renderer = Renderer::new(ellipse_config());
    let a = renderer.render(&scene, &cam);
    let b = renderer.render(&scene, &cam);
    assert_eq!(a.image.max_abs_diff(&b.image), 0.0);
    assert_eq!(a.stats.counts, b.stats.counts);

    let gstg_renderer = GstgRenderer::new(GstgConfig::paper_default());
    let c = gstg_renderer.render(&scene, &cam);
    let d = gstg_renderer.render(&scene, &cam);
    assert_eq!(c.image.max_abs_diff(&d.image), 0.0);
    assert_eq!(c.stats.counts, d.stats.counts);
}
