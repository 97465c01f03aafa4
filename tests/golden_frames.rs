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
use splat_metrics::digest::{fnv1a64_lanes, Fnv1a64};
use splat_server::encode_frame;

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
    (PaperScene::Train, 0x2040_4b7d_e8a6_41d2),
    (PaperScene::Playroom, 0x74db_fa05_9a2e_51d5),
    (PaperScene::Drjohnson, 0x34ad_19da_b660_02f3),
];

/// The wire digest (`X-Splat-Digest`, eight-lane FNV-1a over the encoded
/// body's `u32` words) of each `GOLDEN` frame. It is a different function
/// from `frame_digest` above, so its values are pinned separately and never
/// compared with the canonical ones.
const GOLDEN_WIRE: [(PaperScene, u64); 3] = [
    (PaperScene::Train, 0x34d1_bab0_fcf1_5f74),
    (PaperScene::Playroom, 0x33ea_87e7_d692_12ac),
    (PaperScene::Drjohnson, 0xbb96_be70_2680_5544),
];

#[test]
fn wire_digests_of_the_golden_frames_are_pinned() {
    for ((paper_scene, golden), (wire_scene, wire)) in GOLDEN.into_iter().zip(GOLDEN_WIRE) {
        assert_eq!(paper_scene, wire_scene, "tables must line up");
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let image = GstgRenderer::new(GstgConfig::paper_default())
            .render(&scene, &camera())
            .image;
        let canonical = frame_digest(&image);
        assert_eq!(
            canonical, golden,
            "{paper_scene:?}: raster drift! expected {golden:#018x}, actual {canonical:#018x}"
        );
        let digest = splat_server::frame_digest(&image);
        assert_eq!(
            digest, wire,
            "{paper_scene:?}: wire digest drift! expected {wire:#018x}, actual {digest:#018x}"
        );
        assert_eq!(digest, fnv1a64_lanes(&encode_frame(&image)));
    }
}

/// A `width × height` frame whose every channel differs, including a
/// negative zero.
fn patterned_frame(width: u32, height: u32) -> Framebuffer {
    let mut image = Framebuffer::black(width, height);
    for y in 0..height {
        for x in 0..width {
            let i = (y * width + x) as f32;
            image.set_pixel(x, y, Rgb::new(i * 0.25, -i - 0.5, 1.0 / (i + 3.0)));
        }
    }
    image.set_pixel(0, 0, Rgb::new(-0.0, 0.0, f32::MAX));
    image
}

#[test]
fn wire_digest_is_the_lane_hash_of_the_encoded_body() {
    // 2×1 is exactly eight words (one per lane); 7×1 and 3×5 end mid-round;
    // 96×64 crosses many digest batches.
    for (width, height) in [(1, 1), (2, 1), (3, 5), (7, 1), (96, 64)] {
        let image = patterned_frame(width, height);
        assert_eq!(
            splat_server::frame_digest(&image),
            fnv1a64_lanes(&encode_frame(&image)),
            "{width}x{height}"
        );
    }
}

#[test]
fn wire_digest_changes_with_any_bit_flip_pixel_swap_or_reshape() {
    let image = patterned_frame(3, 5);
    let body = encode_frame(&image);
    let digest = splat_server::frame_digest(&image);
    assert_eq!(body.len() % 4, 0);
    for word in 0..body.len() / 4 {
        for bit in [0, 13, 31] {
            let mut flipped = body.clone();
            flipped[word * 4 + bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a64_lanes(&flipped), digest, "word {word} bit {bit}");
        }
    }

    // Neighbours, and pixels 0 and 8, whose words share lanes (8 pixels are
    // 24 words, three whole rounds).
    for (a, b) in [((0, 0), (1, 0)), ((0, 0), (2, 2))] {
        let mut swapped = image.clone();
        swapped.set_pixel(a.0, a.1, image.pixel(b.0, b.1));
        swapped.set_pixel(b.0, b.1, image.pixel(a.0, a.1));
        assert_ne!(
            splat_server::frame_digest(&swapped),
            digest,
            "{a:?} <-> {b:?}"
        );
    }

    let wide = patterned_frame(6, 4);
    let mut tall = Framebuffer::black(4, 6);
    for (index, pixel) in wide.pixels().iter().enumerate() {
        tall.set_pixel(index as u32 % 4, index as u32 / 4, *pixel);
    }
    assert_eq!(wide.pixels(), tall.pixels());
    assert_ne!(
        splat_server::frame_digest(&wide),
        splat_server::frame_digest(&tall)
    );
}

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
    // The tile-intersection test is a pure work knob: the conservative box
    // (AABB) and the exact test (`BoundaryMethod::Ellipse`) in the
    // identification prepass, every thread count and both pipelines must
    // land on the same pinned digest.
    for (paper_scene, golden) in GOLDEN {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let camera = camera();
        for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
            for threads in [1usize, 4] {
                let config = GstgConfig::new(16, 64, boundary, boundary)
                    .expect("paper tile and group sizes")
                    .with_threads(threads);
                let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
                let grouped = GstgRenderer::new(config).render(&scene, &camera);
                for (pipeline, output) in [("baseline", &baseline), ("gstg", &grouped)] {
                    let digest = frame_digest(&output.image);
                    assert_eq!(
                        digest, golden,
                        "{paper_scene:?}/{pipeline}/{boundary}/threads={threads}: \
                         raster drift! expected {golden:#018x}, actual {digest:#018x}"
                    );
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
/// pipelines, any thread count and
/// conservative or exact intersection test in the prepass —
/// the ladder degrades the *scene and resolution*, never the determinism.
const GOLDEN_TIERS: [(PaperScene, [u64; 3]); 3] = [
    (
        PaperScene::Train,
        [
            0x1eb9_1170_afd2_4dff,
            0x8e8c_6970_141a_a282,
            0x705a_193a_0917_f78d,
        ],
    ),
    (
        PaperScene::Playroom,
        [
            0xec1c_486c_63b5_65b6,
            0xa913_04d4_03a0_3baf,
            0xff35_e954_8de9_f8d5,
        ],
    ),
    (
        PaperScene::Drjohnson,
        [
            0x2aa7_fa60_4b43_3430,
            0xfaab_966c_d6ee_9bb9,
            0xc379_c37d_a0ed_fd75,
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
            // Conservative box and exact test in the prepass.
            for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
                let render = |scene: &Scene, cam: &Camera| {
                    Renderer::new(RenderConfig::new(16, boundary).with_threads(4))
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
                    "{paper_scene:?}/{tier:?}/{boundary}: tier \
                     raster drift! expected {golden:#018x}, actual {digest:#018x}"
                );
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
