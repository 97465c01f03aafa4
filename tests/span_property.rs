//! Randomized property tests for the span-walk rasterizer, driven by the
//! repo's deterministic local PRNG.
//!
//! Three invariants are pinned over random scenes:
//!
//! 1. **Conservativeness** — for every projected splat and every tile row,
//!    every pixel whose `f32`-evaluated α passes the 1/255 cull threshold
//!    lies inside the analytic row interval; columns the span walk skips
//!    can never contribute.
//! 2. **Bit-equality** — [`SpanMode::RowSpans`] renders bit-identical
//!    images to [`SpanMode::Full`] through both pipelines at one or four
//!    threads, with identical blend/early-exit/pixel counters.
//! 3. **Counter reconciliation** — the α-computations the span walk
//!    performs plus the ones it skips equal the full walk's brute-force
//!    count, and the span-only counters stay zero in full mode.

use gs_tg::core::{
    alpha_at, conservative_row_interval, rasterize_tile_into_with, rasterize_tile_spans_into_with,
    Framebuffer, ProjectedGaussian, SpanScratch, TileRect, ALPHA_CULL_THRESHOLD,
};
use gs_tg::prelude::*;
use gs_tg::render::preprocess_into;
use gs_tg::types::rng::Rng;
use gs_tg::types::{Quat, Vec2};

/// One-shot form of the preprocessing stage.
fn preprocess(
    scene: &Scene,
    camera: &Camera,
    config: &RenderConfig,
    counts: &mut StageCounts,
) -> Vec<ProjectedGaussian> {
    let mut projected = Vec::new();
    preprocess_into(scene, camera, config, counts, &mut projected);
    projected
}

/// A tile-sized framebuffer for `rect`, with the origin the kernels take
/// for it.
fn tile_buffer(rect: &TileRect) -> (Framebuffer, (u32, u32)) {
    let origin = (rect.x0 as u32, rect.y0 as u32);
    let image = Framebuffer::black(rect.x1 as u32 - origin.0, rect.y1 as u32 - origin.1);
    (image, origin)
}

fn random_scene(rng: &mut Rng, splats: usize) -> Scene {
    let gaussians: Vec<Gaussian3d> = (0..splats)
        .map(|_| {
            Gaussian3d::builder()
                .position(Vec3::new(
                    rng.range_f32(-3.0, 3.0),
                    rng.range_f32(-2.0, 2.0),
                    rng.range_f32(1.5, 12.0),
                ))
                .scale(Vec3::new(
                    rng.range_f32(0.02, 0.7),
                    rng.range_f32(0.02, 0.7),
                    rng.range_f32(0.02, 0.7),
                ))
                .rotation(Quat::from_axis_angle(
                    Vec3::new(
                        rng.range_f32(-1.0, 1.0),
                        rng.range_f32(-1.0, 1.0),
                        rng.range_f32(-1.0, 1.0),
                    )
                    .normalized(),
                    rng.range_f32(0.0, std::f32::consts::TAU),
                ))
                .opacity(rng.range_f32(0.05, 1.0))
                .base_color([rng.gen_f32(), rng.gen_f32(), rng.gen_f32()])
                .build()
        })
        .collect();
    Scene::new("span-property", 128, 96, gaussians)
}

fn camera() -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 128, 96),
    )
}

#[test]
fn row_intervals_contain_every_contributing_pixel_on_random_scenes() {
    let mut rng = Rng::seed_from_u64(0x5ea7_0001);
    for round in 0..6 {
        let scene = random_scene(&mut rng, 30 + round * 12);
        let camera = camera();
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera,
            &RenderConfig::new(16, BoundaryMethod::Ellipse),
            &mut counts,
        );
        assert!(!projected.is_empty());
        // Sweep every splat across a tile-sized window around its mean and
        // a far-off tile, so both populated and empty intervals are hit.
        for splat in &projected {
            let near_x0 = (splat.mean.x - 8.0).max(0.0) as u32;
            let near_y0 = (splat.mean.y - 8.0).max(0.0) as u32;
            for (x0, y0) in [(near_x0, near_y0), (0, 0), (112, 80)] {
                for py in y0..y0 + 16 {
                    let (lo, hi) = conservative_row_interval(splat, x0, 16, py);
                    assert!(lo <= 16 && hi <= 16, "interval out of tile bounds");
                    for col in 0..16u32 {
                        if col >= lo && col < hi {
                            continue;
                        }
                        let pixel = Vec2::new((x0 + col) as f32 + 0.5, py as f32 + 0.5);
                        let alpha = alpha_at(splat, pixel);
                        assert!(
                            alpha < ALPHA_CULL_THRESHOLD,
                            "skipped column {col} of row {py} (interval {lo}..{hi}) \
                             contributes α={alpha}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn span_mode_renders_bit_identical_images_through_both_pipelines() {
    let mut rng = Rng::seed_from_u64(0x5ea7_0002);
    for round in 0..3 {
        let scene = random_scene(&mut rng, 50 + round * 20);
        let camera = camera();
        let full_baseline = Renderer::new(RenderConfig::default()).render(&scene, &camera);
        let full_gstg = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert!(full_baseline.stats.counts.alpha_computations > 0);
        for threads in [1usize, 4] {
            let spans_baseline = Renderer::new(
                RenderConfig::default()
                    .with_threads(threads)
                    .with_span(SpanMode::RowSpans),
            )
            .render(&scene, &camera);
            assert_eq!(
                spans_baseline.image.max_abs_diff(&full_baseline.image),
                0.0,
                "baseline x{threads} diverged"
            );
            let spans_gstg = GstgRenderer::new(
                GstgConfig::paper_default()
                    .with_threads(threads)
                    .with_span(SpanMode::RowSpans),
            )
            .render(&scene, &camera);
            assert_eq!(
                spans_gstg.image.max_abs_diff(&full_gstg.image),
                0.0,
                "gstg x{threads} diverged"
            );
            for (full, spans) in [(&full_baseline, &spans_baseline), (&full_gstg, &spans_gstg)] {
                let f = &full.stats.counts;
                let s = &spans.stats.counts;
                assert_eq!(s.blend_operations, f.blend_operations);
                assert_eq!(s.early_exits, f.early_exits);
                assert_eq!(s.pixels, f.pixels);
                assert_eq!(
                    s.alpha_computations + s.span_skipped_alpha,
                    f.alpha_computations,
                    "span accounting drifted (x{threads})"
                );
                assert_eq!(f.span_rows_built, 0);
                assert_eq!(f.span_skipped_alpha, 0);
                assert_eq!(f.tile_saturation_exits, 0);
            }
        }
    }
}

#[test]
fn span_counters_reconcile_against_the_brute_force_tile_walk() {
    let mut rng = Rng::seed_from_u64(0x5ea7_0003);
    for round in 0..5 {
        let scene = random_scene(&mut rng, 40 + round * 15);
        let camera = camera();
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera,
            &RenderConfig::new(16, BoundaryMethod::Ellipse),
            &mut counts,
        );
        let sorted: Vec<u32> = {
            let mut order: Vec<u32> = (0..projected.len() as u32).collect();
            order.sort_by(|&a, &b| {
                projected[a as usize]
                    .depth
                    .total_cmp(&projected[b as usize].depth)
            });
            order
        };
        let mut scratch = SpanScratch::new();
        let mut total_saved = 0u64;
        for (tx, ty) in [(0u32, 0u32), (1, 1), (3, 2), (7, 5), (2, 4)] {
            let rect = TileRect::new(
                (tx * 16) as f32,
                (ty * 16) as f32,
                (tx * 16 + 16) as f32,
                (ty * 16 + 16) as f32,
            );
            let (mut full, origin) = tile_buffer(&rect);
            let mut full_counts = StageCounts::new();
            rasterize_tile_into_with(
                &sorted,
                &projected,
                &rect,
                Rgb::BLACK,
                &mut full,
                origin,
                &mut full_counts,
            );
            let (mut spans, origin) = tile_buffer(&rect);
            let mut span_counts = StageCounts::new();
            rasterize_tile_spans_into_with(
                &sorted,
                &projected,
                &rect,
                Rgb::BLACK,
                &mut spans,
                origin,
                &mut span_counts,
                &mut scratch,
            );
            assert_eq!(spans, full, "tile ({tx},{ty})");
            assert_eq!(
                span_counts.alpha_computations + span_counts.span_skipped_alpha,
                full_counts.alpha_computations,
                "tile ({tx},{ty}) failed to reconcile"
            );
            assert_eq!(span_counts.blend_operations, full_counts.blend_operations);
            total_saved += span_counts.span_skipped_alpha;
        }
        assert!(
            total_saved > 0,
            "the span walk should eliminate work somewhere in round {round}"
        );
    }
}
