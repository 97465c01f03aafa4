//! Integration test: parallel-vs-sequential determinism.
//!
//! The shared `TileScheduler` merges worker outputs in job order, so a
//! render with `threads = 4` must be *bit-exact* with `threads = 1` — the
//! same framebuffer and the same `StageCounts` — for both the baseline and
//! the GS-TG pipeline. This pins down the determinism contract of the
//! `splat-core` stage engine through the public API.

use gs_tg::prelude::*;

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
fn baseline_renderer_is_thread_count_invariant() {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 4);
    let cam = camera(320, 200);
    let config = ellipse_config();
    let sequential = Renderer::new(config.with_threads(1)).render(&scene, &cam);
    let parallel = Renderer::new(config.with_threads(4)).render(&scene, &cam);

    assert_eq!(
        parallel.image.max_abs_diff(&sequential.image),
        0.0,
        "framebuffers must be bit-exact across thread counts"
    );
    assert_eq!(
        parallel.stats.counts, sequential.stats.counts,
        "StageCounts must be identical across thread counts"
    );
}

#[test]
fn gstg_renderer_is_thread_count_invariant() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 4);
    let cam = camera(320, 200);
    let config = GstgConfig::paper_default();
    let sequential = GstgRenderer::new(config.with_threads(1)).render(&scene, &cam);
    let parallel = GstgRenderer::new(config.with_threads(4)).render(&scene, &cam);

    assert_eq!(
        parallel.image.max_abs_diff(&sequential.image),
        0.0,
        "framebuffers must be bit-exact across thread counts"
    );
    assert_eq!(
        parallel.stats.counts, sequential.stats.counts,
        "StageCounts must be identical across thread counts"
    );
}

#[test]
fn thread_count_sweep_holds_for_both_pipelines() {
    // Beyond the 1-vs-4 contract: any thread count (including more threads
    // than tiles) must reproduce the sequential result exactly.
    let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 2);
    let cam = camera(192, 128);

    let base_ref = Renderer::new(ellipse_config()).render(&scene, &cam);
    let gstg_ref = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &cam);
    for threads in [2, 3, 8, 64] {
        let base = Renderer::new(ellipse_config().with_threads(threads)).render(&scene, &cam);
        assert_eq!(
            base.image.max_abs_diff(&base_ref.image),
            0.0,
            "baseline, {threads} threads"
        );
        assert_eq!(
            base.stats.counts, base_ref.stats.counts,
            "baseline, {threads} threads"
        );

        let gstg = GstgRenderer::new(GstgConfig::paper_default().with_threads(threads))
            .render(&scene, &cam);
        assert_eq!(
            gstg.image.max_abs_diff(&gstg_ref.image),
            0.0,
            "gstg, {threads} threads"
        );
        assert_eq!(
            gstg.stats.counts, gstg_ref.stats.counts,
            "gstg, {threads} threads"
        );
    }
}

#[test]
fn lossless_equivalence_holds_under_parallel_execution() {
    // The two pipelines must stay bit-exact against each other when both
    // run multi-threaded (the acceptance check of the workspace refactor).
    let scene = PaperScene::Train.build(SceneScale::Tiny, 6);
    let cam = camera(256, 160);
    let config = GstgConfig::paper_default().with_threads(4);
    let report = gs_tg::tile_grouping::verify_lossless(&scene, &cam, config);
    assert!(report.identical, "max diff {}", report.max_abs_diff);
    assert_eq!(
        report.baseline_alpha_computations,
        report.gstg_alpha_computations
    );
}
