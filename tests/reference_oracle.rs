//! The losslessness oracle: every pipeline configuration renders exactly
//! the image of `splat_core::reference::render_reference`, which shares no
//! tile grid, boundary test, radix sort or tile kernel with them.
//!
//! `lossless_integration.rs` compares GS-TG with the baseline, so a defect
//! in a part both pipelines share passes it. This sweep compares both with
//! the untiled, brute-force walk instead. For every random scene and frame
//! size the splats are projected once (`preprocess_into`; the projection
//! has its own per-splat reference in `preprocess::tests`), the reference
//! is rendered once, and then every configuration must match it:
//!
//! * pixels bit for bit;
//! * `blend_operations` and `early_exits` exactly;
//! * `alpha_computations` at most the reference's (a tile list is a subset
//!   of the whole list).
//!
//! The sweep covers both pipelines; tiles 8, 16, 32 and 64 px with group
//! multiples 2, 3, 4 and 8; every baseline boundary method and all nine
//! group × bitmask boundary pairs; one and four threads; 1×1, 17×1, 37×23 and 64×48 frames; splats 0.05–1 from the camera and
//! 10⁻⁴-thin ones; and one half-precision scene.
//!
//! Every mismatch is reported with its scene seed and configuration. Re-run
//! one scene with `ORACLE_SEED=<seed> cargo test --test reference_oracle`.

use gs_tg::core::reference::render_reference;
use gs_tg::core::{Framebuffer, ProjectedGaussian};
use gs_tg::prelude::*;
use gs_tg::render::{preprocess_into, BACKGROUND};
use gs_tg::types::rng::Rng;
use gs_tg::types::Precision;

/// The scenes: a seed each, and the storage precision they render at.
const SCENES: [(u64, Precision); 6] = [
    (0x0AC1_E001, Precision::Full),
    (0x0AC1_E002, Precision::Full),
    (0x0AC1_E003, Precision::Full),
    (0x0AC1_E004, Precision::Full),
    (0x0AC1_E005, Precision::Full),
    (0x0AC1_E006, Precision::Half),
];

const FRAMES: [(u32, u32); 4] = [(1, 1), (17, 1), (37, 23), (64, 48)];

const TILES: [u32; 4] = [8, 16, 32, 64];

/// Group size over tile size; 3 is the non-power-of-two one.
const GROUP_MULTIPLES: [u32; 4] = [2, 3, 4, 8];

const BOUNDARIES: [BoundaryMethod; 3] = [
    BoundaryMethod::Aabb,
    BoundaryMethod::Obb,
    BoundaryMethod::Ellipse,
];

/// The thread counts; renders cycle through them.
const MODES: [usize; 2] = [1, 4];

/// 150–350 random splats in front of the camera. One in eight sits 0.05–1
/// from it (some inside the near plane, the rest covering the frame), and
/// one in eight is 10⁻⁴ thin along one axis.
fn random_scene(seed: u64, precision: Precision) -> Scene {
    let mut rng = Rng::seed_from_u64(seed);
    let len = 150 + rng.gen_index(201);
    let gaussians: Vec<Gaussian3d> = (0..len)
        .map(|_| {
            let kind = rng.gen_index(8);
            let depth = if kind == 0 {
                rng.range_f32(0.05, 1.0)
            } else {
                rng.range_f32(1.5, 12.0)
            };
            let lateral = 0.4 * depth;
            let mut scale = Vec3::new(
                rng.range_f32(0.02, 0.6),
                rng.range_f32(0.02, 0.6),
                rng.range_f32(0.02, 0.6),
            );
            if kind == 1 {
                scale.x = 1e-4;
            }
            let axis = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(0.1, 1.0),
            );
            Gaussian3d::builder()
                .position(Vec3::new(
                    rng.range_f32(-lateral, lateral),
                    rng.range_f32(-lateral, lateral),
                    depth,
                ))
                .scale(scale)
                .rotation(Quat::from_axis_angle(
                    axis.normalized(),
                    rng.range_f32(0.0, 6.0),
                ))
                .opacity(rng.range_f32(0.02, 1.0))
                .base_color([rng.gen_f32(), rng.gen_f32(), rng.gen_f32()])
                .build()
        })
        .collect();
    Scene::new("oracle", 64, 48, gaussians).to_precision(precision)
}

fn camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(0.9, width, height),
    )
}

/// Where `image` first differs from `reference` in size or pixel bits.
fn pixel_mismatch(image: &Framebuffer, reference: &Framebuffer) -> Option<String> {
    let (width, height) = (image.width(), image.height());
    if (width, height) != (reference.width(), reference.height()) {
        return Some(format!("size {width}x{height}"));
    }
    let bits = |p: Rgb| [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()];
    let index = image
        .pixels()
        .iter()
        .zip(reference.pixels())
        .position(|(&a, &b)| bits(a) != bits(b))?;
    let index = index as u32;
    Some(format!("pixel ({},{})", index % width, index / width))
}

/// What a render must match, and where a mismatch is reported.
struct Oracle {
    image: Framebuffer,
    counts: StageCounts,
    failures: Vec<String>,
}

impl Oracle {
    fn check(&mut self, at: &str, out: &RenderOutput) {
        let (c, r) = (&out.stats.counts, &self.counts);
        let mut wrong = Vec::new();
        wrong.extend(pixel_mismatch(&out.image, &self.image));
        if (c.blend_operations, c.early_exits) != (r.blend_operations, r.early_exits) {
            wrong.push(format!(
                "blends/exits {}/{} != {}/{}",
                c.blend_operations, c.early_exits, r.blend_operations, r.early_exits
            ));
        }
        if c.alpha_computations > r.alpha_computations {
            wrong.push(format!(
                "alpha {} > {}",
                c.alpha_computations, r.alpha_computations
            ));
        }
        if !wrong.is_empty() {
            self.failures.push(format!("{at}: {}", wrong.join(", ")));
        }
    }
}

fn sweep(seed: u64, precision: Precision) -> (usize, Vec<String>) {
    let scene = random_scene(seed, precision);
    let mut renders = 0;
    let mut failures = Vec::new();
    let mut mode = MODES.iter().cycle();
    for (width, height) in FRAMES {
        let cam = camera(width, height);
        let mut projected: Vec<ProjectedGaussian> = Vec::new();
        let mut counts = StageCounts::new();
        let config = RenderConfig::default();
        preprocess_into(&scene, &cam, &config, &mut counts, &mut projected);
        let (image, counts) = render_reference(&projected, width, height, BACKGROUND);
        let mut oracle = Oracle {
            image,
            counts,
            failures: Vec::new(),
        };
        let scene_at = format!("seed {seed:#x} ({precision:?}) {width}x{height}");

        for (tile_index, tile) in TILES.into_iter().enumerate() {
            for boundary in BOUNDARIES {
                let &threads = mode.next().expect("cycle");
                let config = RenderConfig::new(tile, boundary).with_threads(threads);
                let at = format!("{scene_at} baseline {tile}px {boundary} x{threads}");
                oracle.check(&at, &Renderer::new(config).render(&scene, &cam));
                renders += 1;
            }
            let pairs = BOUNDARIES
                .into_iter()
                .flat_map(|group| BOUNDARIES.map(|bitmask| (group, bitmask)));
            for (pair_index, (group, bitmask)) in pairs.enumerate() {
                let &threads = mode.next().expect("cycle");
                let multiple = GROUP_MULTIPLES[(pair_index + tile_index) % GROUP_MULTIPLES.len()];
                let config = GstgConfig::new(tile, tile * multiple, group, bitmask)
                    .expect("valid grouping")
                    .with_threads(threads);
                let at = format!(
                    "{scene_at} gstg {tile}+{}px {group}+{bitmask} x{threads}",
                    tile * multiple
                );
                oracle.check(&at, &GstgRenderer::new(config).render(&scene, &cam));
                renders += 1;
            }
        }
        failures.append(&mut oracle.failures);
    }
    (renders, failures)
}

/// The seed `ORACLE_SEED` names (decimal or `0x` hex), if set.
fn seed_from_env() -> Option<u64> {
    let value = std::env::var("ORACLE_SEED").ok()?;
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => value.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("ORACLE_SEED={value} is not a number")))
}

#[test]
fn every_pipeline_configuration_renders_the_reference_image() {
    let only = seed_from_env();
    // One thread per scene: the scenes share nothing.
    let results: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let sweeps: Vec<_> = SCENES
            .into_iter()
            .filter(|&(seed, _)| only.is_none() || only == Some(seed))
            .map(|(seed, precision)| scope.spawn(move || sweep(seed, precision)))
            .collect();
        sweeps
            .into_iter()
            .map(|sweep| sweep.join().expect("a scene's sweep panicked"))
            .collect()
    });
    let renders: usize = results.iter().map(|(renders, _)| renders).sum();
    let failures: Vec<&String> = results.iter().flat_map(|(_, failures)| failures).collect();
    assert!(renders > 0, "ORACLE_SEED names no scene of the sweep");
    assert!(
        failures.is_empty(),
        "{} of {renders} renders differ from the reference; re-run one scene with \
         ORACLE_SEED=<seed>:\n{}",
        failures.len(),
        failures
            .iter()
            .take(20)
            .map(|failure| failure.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
