//! Randomized property tests for tile identification and the SoA splat
//! storage, driven by the repo's deterministic local PRNG.
//!
//! Three invariants are pinned over random scenes:
//!
//! 1. **Exact ⊆ conservative** — the tile sets the exact test
//!    (`BoundaryMethod::Ellipse`) accepts are subsets of the sets the two
//!    conservative boxes (OBB, AABB) accept.
//! 2. **CSR accounting** — the flat intersection list built through the
//!    counting prepass → prefix-sum → scatter machinery has exactly as many
//!    entries as the counters claim, for every boundary method.
//! 3. **SoA ≡ AoS** — the structure-of-arrays view reassembles the
//!    array-of-structs storage bit-exactly.

use gs_tg::core::{CsrScratch, ProjectedGaussian};
use gs_tg::prelude::*;
use gs_tg::render::{identify_tiles_into, preprocess_into, TileAssignments, TileGrid};
use gs_tg::types::rng::Rng;
use gs_tg::types::Quat;

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

/// One-shot form of the tile-identification stage.
fn identify_tiles(
    projected: &[ProjectedGaussian],
    grid: TileGrid,
    boundary: BoundaryMethod,
    counts: &mut StageCounts,
) -> TileAssignments {
    let mut out = TileAssignments::empty();
    identify_tiles_into(
        projected,
        grid,
        boundary,
        Default::default(), // the ignored prepass argument
        counts,
        &mut CsrScratch::new(),
        &mut out,
    );
    out
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
    Scene::new("property", 128, 96, gaussians)
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
fn exact_tile_sets_are_subsets_of_conservative_ones_on_random_scenes() {
    let mut rng = Rng::seed_from_u64(0x5eed01);
    for round in 0..8 {
        let scene = random_scene(&mut rng, 40 + round * 15);
        let camera = camera();
        let config = RenderConfig::new(16, BoundaryMethod::Aabb);
        let mut counts = StageCounts::new();
        let projected = preprocess(&scene, &camera, &config, &mut counts);
        let grid = TileGrid::new(camera.width(), camera.height(), config.tile_size);

        let mut exact_counts = StageCounts::new();
        let exact = identify_tiles(&projected, grid, BoundaryMethod::Ellipse, &mut exact_counts);
        for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Obb] {
            let mut conservative_counts = StageCounts::new();
            let conservative = identify_tiles(&projected, grid, boundary, &mut conservative_counts);
            for tile in 0..grid.tile_count() {
                let conservative_list = conservative.tile(tile);
                for slot in exact.tile(tile) {
                    assert!(
                        conservative_list.contains(slot),
                        "round {round} {boundary}: tile {tile} lacks slot {slot} of the exact set"
                    );
                }
            }
            assert!(exact_counts.tiles_hit <= conservative_counts.tiles_hit);
        }
    }
}

#[test]
fn intersection_list_lengths_match_the_counters_in_every_mode() {
    let mut rng = Rng::seed_from_u64(0x5eed02);
    for round in 0..6 {
        let scene = random_scene(&mut rng, 30 + round * 20);
        let camera = camera();
        let config = RenderConfig::new(16, BoundaryMethod::Aabb);
        let mut counts = StageCounts::new();
        let projected = preprocess(&scene, &camera, &config, &mut counts);
        let grid = TileGrid::new(camera.width(), camera.height(), config.tile_size);

        for boundary in [
            BoundaryMethod::Aabb,
            BoundaryMethod::Obb,
            BoundaryMethod::Ellipse,
        ] {
            let mut counts = StageCounts::new();
            let assignments = identify_tiles(&projected, grid, boundary, &mut counts);
            // The CSR scatter, the per-tile lists and the counters must
            // all agree on the number of (tile, splat) pairs.
            let listed: u64 = assignments.iter().map(|(_, list)| list.len() as u64).sum();
            assert_eq!(listed, assignments.total_entries());
            assert_eq!(assignments.total_entries(), counts.tile_intersections);
            assert_eq!(counts.tiles_hit, counts.tile_intersections);
            assert!(counts.tiles_hit <= counts.tiles_tested);
            assert_eq!(counts.tiles_tested, counts.tile_tests);
            let per_gaussian: u64 = assignments
                .tiles_per_gaussian()
                .iter()
                .map(|&n| u64::from(n))
                .sum();
            assert_eq!(
                per_gaussian, listed,
                "{boundary}: prefix-sum totals diverged"
            );
        }
    }
}

#[test]
fn soa_view_and_simd_projection_are_bit_identical_on_random_scenes() {
    // The projection half of this check is
    // `preprocess::tests::simd_projection_is_bit_identical_to_scalar_projection`,
    // which compares the chunked loop with a per-splat reference.
    let mut rng = Rng::seed_from_u64(0x5eed03);
    for round in 0..6 {
        let scene = random_scene(&mut rng, 25 + round * 17);
        let soa = scene.soa();

        // Storage: the SoA view reassembles every AoS record bit-exactly.
        let vec_bits = |v: Vec3| (v.x.to_bits(), v.y.to_bits(), v.z.to_bits());
        assert_eq!(soa.len(), scene.len());
        for (i, gaussian) in scene.iter().enumerate() {
            assert_eq!(vec_bits(soa.position(i)), vec_bits(gaussian.position()));
            assert_eq!(vec_bits(soa.scale(i)), vec_bits(gaussian.scale()));
            assert_eq!(soa.opacity()[i].to_bits(), gaussian.opacity().to_bits());
            let q = soa.rotation(i);
            let aos = gaussian.rotation();
            assert_eq!(
                (q.w.to_bits(), q.x.to_bits(), q.y.to_bits(), q.z.to_bits()),
                (
                    aos.w.to_bits(),
                    aos.x.to_bits(),
                    aos.y.to_bits(),
                    aos.z.to_bits()
                )
            );
        }
    }
}
