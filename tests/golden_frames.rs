//! Golden-image regression tests: pinned FNV-1a digests of three canonical
//! scenes, rendered through both pipelines at one and four threads.
//!
//! Determinism tests (`tests/determinism.rs`, `tests/backend_parity.rs`)
//! prove every in-tree path renders the *same* image; this suite pins
//! *which* image. Silent raster drift — a changed blending constant, a
//! reordered sort key, an off-by-one tile bound — keeps all the
//! equivalence tests green while shifting every digest here, so it fails
//! loudly instead of shipping.
//!
//! When an intentional rendering change lands, re-pin: run the test and
//! copy the `actual 0x…` values from the failure messages into `GOLDEN`.

use gs_tg::core::Framebuffer;
use gs_tg::prelude::*;
use splat_metrics::Fnv1a64;

/// FNV-1a digest of a framebuffer: dimensions, then every pixel's
/// channels in row-major order as little-endian `f32` bit patterns.
fn frame_digest(image: &Framebuffer) -> u64 {
    let mut hasher = Fnv1a64::new();
    hasher.write_u64(u64::from(image.width()));
    hasher.write_u64(u64::from(image.height()));
    for pixel in image.pixels() {
        hasher.write_f32(pixel.r);
        hasher.write_f32(pixel.g);
        hasher.write_f32(pixel.b);
    }
    hasher.finish()
}

fn camera() -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 96, 64),
    )
}

/// The pinned digests: one per canonical scene. Both pipelines are
/// lossless-equivalent and thread-invariant, so all four combinations
/// (baseline/GS-TG × threads 1/4) must land on this exact value.
const GOLDEN: [(PaperScene, u64); 3] = [
    (PaperScene::Train, 0x14cc_1b55_da64_e7bf),
    (PaperScene::Playroom, 0x6c3b_961f_6b42_86a2),
    (PaperScene::Drjohnson, 0x63cd_e21c_382b_0f6a),
];

#[test]
fn golden_digests_hold_for_both_pipelines_at_one_and_four_threads() {
    for (paper_scene, golden) in GOLDEN {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let camera = camera();
        for threads in [1usize, 4] {
            let baseline = Renderer::new(RenderConfig::default().with_threads(threads))
                .render(&scene, &camera);
            let grouped = GstgRenderer::new(GstgConfig::paper_default().with_threads(threads))
                .render(&scene, &camera);
            for (pipeline, output) in [("baseline", &baseline), ("gstg", &grouped)] {
                let digest = frame_digest(&output.image);
                assert_eq!(
                    digest, golden,
                    "{paper_scene:?}/{pipeline}/threads={threads}: raster drift! \
                     expected {golden:#018x}, actual {digest:#018x}"
                );
            }
        }
    }
}

#[test]
fn golden_digests_hold_across_simd_modes_and_exact_prepass() {
    // The lane width and the tile-intersection test are pure work knobs:
    // both kernels, the conservative box (AABB) and the exact test
    // (`BoundaryMethod::Ellipse`) in the identification prepass, every
    // thread count and both pipelines must land on the same pinned digest.
    for (paper_scene, golden) in GOLDEN {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let camera = camera();
        for simd in SimdMode::ALL {
            for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
                for threads in [1usize, 4] {
                    let config = GstgConfig::new(16, 64, boundary, boundary)
                        .expect("paper tile and group sizes")
                        .with_threads(threads)
                        .with_simd(simd);
                    let baseline =
                        Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
                    let grouped = GstgRenderer::new(config).render(&scene, &camera);
                    for (pipeline, output) in [("baseline", &baseline), ("gstg", &grouped)] {
                        let digest = frame_digest(&output.image);
                        assert_eq!(
                            digest, golden,
                            "{paper_scene:?}/{pipeline}/{simd:?}/{boundary}/threads={threads}: \
                             raster drift! expected {golden:#018x}, actual {digest:#018x}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn golden_digests_hold_across_span_modes() {
    // The span walk is a raster work-elimination knob: conservative
    // per-row intervals plus the tile-saturation early-out must not move a
    // single bit relative to the pinned full-walk digests, for either
    // pipeline, any SIMD width or thread count.
    for (paper_scene, golden) in GOLDEN {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let camera = camera();
        for span in SpanMode::ALL {
            for simd in SimdMode::ALL {
                for threads in [1usize, 4] {
                    let baseline = Renderer::new(
                        RenderConfig::default()
                            .with_threads(threads)
                            .with_simd(simd)
                            .with_span(span),
                    )
                    .render(&scene, &camera);
                    let grouped = GstgRenderer::new(
                        GstgConfig::paper_default()
                            .with_threads(threads)
                            .with_simd(simd)
                            .with_span(span),
                    )
                    .render(&scene, &camera);
                    for (pipeline, output) in [("baseline", &baseline), ("gstg", &grouped)] {
                        let digest = frame_digest(&output.image);
                        assert_eq!(
                            digest, golden,
                            "{paper_scene:?}/{pipeline}/{span:?}/{simd:?}/threads={threads}: \
                             raster drift! expected {golden:#018x}, actual {digest:#018x}"
                        );
                    }
                }
            }
        }
    }
}

/// Renders `scene` at `tier` the way the serving engine does: the tier's
/// derived scene (reduced SH, pruned, decimated), at half resolution for
/// tiers that call for it, upsampled back to the delivery dimensions with
/// the bit-reproducible nearest-neighbor kernel.
fn render_tier(
    scene: &Scene,
    tier: QualityTier,
    render: &dyn Fn(&Scene, &Camera) -> Framebuffer,
) -> u64 {
    let cam = camera();
    let tier_scene = tier.apply(scene);
    if tier.half_resolution() {
        let image = render(&tier_scene, &cam.half_resolution());
        frame_digest(&image.upsample_nearest(cam.width(), cam.height()))
    } else {
        frame_digest(&render(&tier_scene, &cam))
    }
}

/// The pinned quality-ladder digests: for each canonical scene, the
/// Tier1/Tier2/Tier3 frames. Like `GOLDEN`, these must hold for both
/// pipelines, any thread count, SIMD lane width, span mode and
/// conservative or exact intersection test in the prepass —
/// the ladder degrades the *scene and resolution*, never the determinism.
const GOLDEN_TIERS: [(PaperScene, [u64; 3]); 3] = [
    (
        PaperScene::Train,
        [
            0xc0b6_63db_e896_ec99,
            0x27ba_ece6_b705_1a7e,
            0x3443_8b60_6574_2be5,
        ],
    ),
    (
        PaperScene::Playroom,
        [
            0x3441_27a9_3a57_6c96,
            0x0f4c_3f61_5276_1aef,
            0x1bf4_6b22_7eb4_8a45,
        ],
    ),
    (
        PaperScene::Drjohnson,
        [
            0xf826_9f65_7881_b0eb,
            0xc8d3_4ebd_fb9e_fc71,
            0xec0d_1efe_5205_b225,
        ],
    ),
];

const TIERS: [QualityTier; 3] = [QualityTier::Tier1, QualityTier::Tier2, QualityTier::Tier3];

#[test]
fn golden_tier_digests_hold_for_both_pipelines_at_one_and_four_threads() {
    for (paper_scene, goldens) in GOLDEN_TIERS {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        for (tier, golden) in TIERS.into_iter().zip(goldens) {
            for threads in [1usize, 4] {
                let baseline = |scene: &Scene, cam: &Camera| {
                    Renderer::new(RenderConfig::default().with_threads(threads))
                        .render(scene, cam)
                        .image
                };
                let grouped = |scene: &Scene, cam: &Camera| {
                    GstgRenderer::new(GstgConfig::paper_default().with_threads(threads))
                        .render(scene, cam)
                        .image
                };
                for (pipeline, render) in [
                    (
                        "baseline",
                        &baseline as &dyn Fn(&Scene, &Camera) -> Framebuffer,
                    ),
                    ("gstg", &grouped),
                ] {
                    let digest = render_tier(&scene, tier, render);
                    assert_eq!(
                        digest, golden,
                        "{paper_scene:?}/{pipeline}/{tier:?}/threads={threads}: tier raster \
                         drift! expected {golden:#018x}, actual {digest:#018x}"
                    );
                }
            }
        }
    }
}

#[test]
fn golden_tier_digests_hold_across_simd_span_and_prepass_modes() {
    for (paper_scene, goldens) in GOLDEN_TIERS {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        for (tier, golden) in TIERS.into_iter().zip(goldens) {
            for simd in SimdMode::ALL {
                for span in SpanMode::ALL {
                    // Conservative box and exact test in the prepass.
                    for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
                        let render = |scene: &Scene, cam: &Camera| {
                            Renderer::new(
                                RenderConfig::new(16, boundary)
                                    .with_threads(4)
                                    .with_simd(simd)
                                    .with_span(span),
                            )
                            .render(scene, cam)
                            .image
                        };
                        let digest = render_tier(
                            &scene,
                            tier,
                            &render as &dyn Fn(&Scene, &Camera) -> Framebuffer,
                        );
                        assert_eq!(
                            digest, golden,
                            "{paper_scene:?}/{tier:?}/{simd:?}/{span:?}/{boundary}: tier \
                             raster drift! expected {golden:#018x}, actual {digest:#018x}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_pinned_tier_serves_the_golden_tier_digest() {
    // End-to-end: an engine with the quality pinned to each tier must
    // deliver, through registration, ladder lookup, half-res render and
    // upsample, exactly the digest the direct tier construction pins.
    use std::sync::Arc;
    for (paper_scene, goldens) in GOLDEN_TIERS {
        let scene = Arc::new(paper_scene.build(SceneScale::Tiny, 0));
        for (tier, golden) in TIERS.into_iter().zip(goldens) {
            let engine = Engine::builder()
                .quality(QualityPolicy::Pinned(tier))
                .build()
                .expect("valid engine configuration");
            let id = engine
                .register_scene(Arc::clone(&scene))
                .expect("registered");
            let output = engine
                .submit(SubmitRequest::new(id, camera()))
                .expect("admitted")
                .wait()
                .expect("render succeeds");
            let digest = frame_digest(&output.image);
            assert_eq!(
                digest, golden,
                "{paper_scene:?}/{tier:?}: engine serving drifted from the pinned tier \
                 digest! expected {golden:#018x}, actual {digest:#018x}"
            );
        }
    }
}

#[test]
fn tier_digests_differ_from_full_and_from_each_other() {
    // The ladder must actually degrade: every tier's frame differs from
    // the full-quality golden and from the other tiers (a tier that lands
    // on the same digest is a no-op rung).
    let (paper_scene, goldens) = GOLDEN_TIERS[0];
    let full = GOLDEN[0].1;
    assert_eq!(paper_scene, GOLDEN[0].0, "tables must line up");
    for golden in goldens {
        assert_ne!(golden, full, "{paper_scene:?}: tier collides with full");
    }
    assert_ne!(goldens[0], goldens[1]);
    assert_ne!(goldens[1], goldens[2]);
    assert_ne!(goldens[0], goldens[2]);
}

#[test]
fn digest_is_sensitive_to_a_single_pixel_bit() {
    let scene = PaperScene::Train.build(SceneScale::Tiny, 0);
    let camera = camera();
    let output = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
    let clean = frame_digest(&output.image);

    let mut tampered = output.image.clone();
    let pixel = tampered.pixel(48, 32);
    tampered.set_pixel(
        48,
        32,
        Rgb::new(f32::from_bits(pixel.r.to_bits() ^ 1), pixel.g, pixel.b),
    );
    assert_ne!(
        clean,
        frame_digest(&tampered),
        "flipping one mantissa bit must change the digest"
    );
}

#[test]
fn digest_distinguishes_the_canonical_scenes() {
    let camera = camera();
    let digests: Vec<u64> = GOLDEN
        .iter()
        .map(|(paper_scene, _)| {
            let scene = paper_scene.build(SceneScale::Tiny, 0);
            frame_digest(
                &GstgRenderer::new(GstgConfig::paper_default())
                    .render(&scene, &camera)
                    .image,
            )
        })
        .collect();
    assert_ne!(digests[0], digests[1]);
    assert_ne!(digests[1], digests[2]);
    assert_ne!(digests[0], digests[2]);
}
