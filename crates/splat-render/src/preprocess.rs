//! Preprocessing stage: feature computation and culling.
//!
//! For every splat the stage computes the quantities the rest of the
//! pipeline consumes (the paper's `D`, `2D_XY`, `2D_Cov` and `G_RGB`):
//!
//! * view-space depth,
//! * projected 2D mean in pixel coordinates,
//! * projected 2D covariance via the EWA splatting approximation
//!   `Σ' = J W Σ Wᵀ Jᵀ` plus a 0.3-pixel low-pass term,
//! * view-dependent RGB color evaluated from the spherical harmonics,
//!
//! and removes splats that are outside the view frustum, behind the near
//! plane, fully transparent, or project to a degenerate covariance.
//!
//! What depends only on the camera is computed once per frame: the
//! [`Frustum`] (clip range and the guard-band tangent limits, which the
//! frustum cull and the Jacobian clamp share) and the view rotation. Per
//! splat the stage computes the view-space position once — the 8-wide
//! chunk's lane value, or [`Camera::to_view`] for the tail — and feeds it
//! to both the cull and the projection.

use crate::config::RenderConfig;
use splat_core::{ProjectedGaussian, StageCounts, ALPHA_CULL_THRESHOLD};
use splat_scene::{Scene, SceneSoA};
use splat_types::{eval_color, Camera, Frustum, Gaussian3d, Mat2, Mat3, Vec3};

/// Runs preprocessing over a scene for a camera, accumulating the stage's
/// counters into `counts`. `out` is cleared and refilled in scene order
/// (ascending `index`, which the sorting stages rely on for deterministic
/// tie-breaking), retaining its allocation. The allocation follows the
/// view, not the scene: when a splat that passed the opacity and frustum
/// culls finds `out` full, the splats from it on that pass them are counted
/// and exactly that many more are reserved. A reused buffer so holds at
/// most the cull survivors of its busiest frame, and a frame that fits
/// counts nothing.
///
/// The splats are read from the scene's [`SceneSoA`] component arrays
/// (built once per scene, lazily); the view transform runs over 8-wide
/// lane chunks, performing the same scalar operations in the same order as
/// [`Camera::to_view`]. Storage precision is a property of the
/// scene, not of the renderer: an fp16 model is
/// [`Scene::to_precision`]`(Precision::Half)`, rendered like any other.
///
/// `_config` is ignored: no configuration knob reaches the projection. It
/// is still a parameter only because `benchmark/src/layers.rs` passes one,
/// and goes with ROADMAP item 2a.
pub fn preprocess_into(
    scene: &Scene,
    camera: &Camera,
    _config: &RenderConfig,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    let frame = FrameCamera {
        camera,
        frustum: camera.frustum(),
        view_rot: camera.view_rotation(),
    };
    out.clear();
    preprocess_soa_chunked::<8>(scene.soa(), &frame, counts, out);
}

/// The camera and what preprocessing derives from it once per frame.
struct FrameCamera<'a> {
    camera: &'a Camera,
    frustum: Frustum,
    view_rot: Mat3,
}

/// The chunked projection loop: the view transform runs `W` lanes at a
/// time straight from the SoA position arrays
/// ([`Camera::to_view_lanes`], bit-identical to [`Camera::to_view`]); the
/// branchy per-splat culls and covariance math then consume the
/// precomputed view per lane. The trailing `len % W` splats take the
/// scalar path.
fn preprocess_soa_chunked<const W: usize>(
    soa: &SceneSoA,
    frame: &FrameCamera<'_>,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    let n = soa.len();
    let mut xs = [0.0f32; W];
    let mut ys = [0.0f32; W];
    let mut zs = [0.0f32; W];
    let mut base = 0usize;
    while base + W <= n {
        xs.copy_from_slice(&soa.pos_x()[base..base + W]);
        ys.copy_from_slice(&soa.pos_y()[base..base + W]);
        zs.copy_from_slice(&soa.pos_z()[base..base + W]);
        let (vx, vy, vz) = frame.camera.to_view_lanes(&xs, &ys, &zs);
        for lane in 0..W {
            counts.input_gaussians += 1;
            let view = Vec3::new(vx[lane], vy[lane], vz[lane]);
            project_soa_splat(soa, base + lane, Some(view), frame, counts, out);
        }
        base += W;
    }
    for i in base..n {
        counts.input_gaussians += 1;
        project_soa_splat(soa, i, None, frame, counts, out);
    }
}

/// How many of the splats from `start` on pass [`is_culled`]: the same
/// predicate over the same view-space positions as the projection pass
/// (each lane of [`Camera::to_view_lanes`] is bit-identical to
/// [`Camera::to_view`], whatever the chunking), `W` lanes at a time and
/// without a branch, so the compiler vectorizes it.
fn count_survivors<const W: usize>(soa: &SceneSoA, frame: &FrameCamera<'_>, start: usize) -> usize {
    let survives = |opacity: f32, scale: Vec3, view: Vec3| {
        usize::from(!is_culled(opacity, scale, view, &frame.frustum))
    };
    let lanes_from = |values| lanes::<W>(values, start);
    let positions = lanes_from(soa.pos_x())
        .zip(lanes_from(soa.pos_y()))
        .zip(lanes_from(soa.pos_z()));
    let scales = lanes_from(soa.scale_x())
        .zip(lanes_from(soa.scale_y()))
        .zip(lanes_from(soa.scale_z()));
    let chunks = positions.zip(scales).zip(lanes_from(soa.opacity()));
    let chunked: usize = chunks
        .map(|((((xs, ys), zs), ((sx, sy), sz)), opacity)| {
            let (vx, vy, vz) = frame.camera.to_view_lanes(&xs, &ys, &zs);
            let views = vx.into_iter().zip(vy).zip(vz);
            let scales = sx.into_iter().zip(sy).zip(sz);
            views
                .zip(scales)
                .zip(opacity)
                .map(|((((x, y), z), ((sx, sy), sz)), opacity)| {
                    survives(opacity, Vec3::new(sx, sy, sz), Vec3::new(x, y, z))
                })
                .sum::<usize>()
        })
        .sum();
    let tail = soa.len() - soa.len().saturating_sub(start) % W;
    let tail_opacity = soa.opacity().get(tail..).unwrap_or_default();
    let tailed: usize = (tail..)
        .zip(tail_opacity)
        .map(|(i, &opacity)| survives(opacity, soa.scale(i), frame.camera.to_view(soa.position(i))))
        .sum();
    chunked + tailed
}

/// `values[start..]` as `W`-lane chunks; the trailing `len % W` values are
/// left out.
fn lanes<const W: usize>(values: &[f32], start: usize) -> impl Iterator<Item = [f32; W]> + '_ {
    let values = values.get(start..).unwrap_or_default();
    values.chunks_exact(W).map(|chunk| {
        let mut lanes = [0.0f32; W];
        lanes.copy_from_slice(chunk);
        lanes
    })
}

/// The opacity and frustum culls of a splat at view-space position `view`:
/// fully transparent splats can never contribute, and the frustum test
/// uses the splat's 3σ bounding sphere. One predicate for the count and the
/// projection, evaluated without branches (`|` here and `&` in
/// [`Frustum::contains_view`]), so counting costs no mispredictions.
#[inline]
fn is_culled(opacity: f32, scale: Vec3, view: Vec3, frustum: &Frustum) -> bool {
    let radius = Gaussian3d::bounding_radius_of(scale);
    (opacity < ALPHA_CULL_THRESHOLD) | !frustum.contains_view(view, radius)
}

/// Culls and projects one splat read out of the SoA arrays. `view_hint`
/// carries a chunk-precomputed view-space position (bit-identical to
/// computing it here); either way it is computed once and serves both the
/// frustum cull and the projection.
#[inline]
fn project_soa_splat(
    soa: &SceneSoA,
    i: usize,
    view_hint: Option<Vec3>,
    frame: &FrameCamera<'_>,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    let opacity = soa.opacity()[i];
    let position = soa.position(i);
    let view = view_hint.unwrap_or_else(|| frame.camera.to_view(position));
    if is_culled(opacity, soa.scale(i), view, &frame.frustum) {
        counts.culled_gaussians += 1;
        return;
    }
    let splat = project_visible_splat(
        frame,
        i as u32,
        view,
        position,
        soa.covariance(i),
        opacity,
        soa.sh_degree(i),
        soa.sh_coefficients(i),
        counts,
    );
    if let Some(splat) = splat {
        if out.len() == out.capacity() {
            out.reserve_exact(count_survivors::<8>(soa, frame, i));
        }
        debug_assert!(
            out.len() < out.capacity(),
            "splat {i} passed the cull but was not counted"
        );
        out.push(splat);
    }
}

/// The post-cull projection tail: depth/pixel mapping, the EWA covariance
/// projection and SH color evaluation. `cov3d` is the scene's cached
/// view-independent 3D covariance ([`SceneSoA::covariance`]).
#[allow(clippy::too_many_arguments)]
#[inline]
fn project_visible_splat(
    frame: &FrameCamera<'_>,
    index: u32,
    view: Vec3,
    position: Vec3,
    cov3d: Mat3,
    opacity: f32,
    sh_degree: usize,
    sh_coefficients: &[splat_types::Rgb],
    counts: &mut StageCounts,
) -> Option<ProjectedGaussian> {
    let FrameCamera {
        camera,
        frustum,
        view_rot,
    } = frame;
    let depth = -view.z;
    // Non-finite depths (NaN/∞ positions that slip past the frustum
    // test, whose rejecting comparisons are all false for NaN) are
    // culled here: every depth reaching the sort stage is finite, which
    // is what lets the key sort order splats without a NaN branch and
    // keeps `is_sorted_by_depth` consistent with the sort.
    if !depth.is_finite() || depth <= frustum.near {
        counts.culled_gaussians += 1;
        return None;
    }

    let Some(mean) = camera.view_to_pixel(view) else {
        counts.culled_gaussians += 1;
        return None;
    };

    // EWA covariance projection with the reference implementation's
    // tangent clamp on the Jacobian evaluation point: the frustum's
    // guard-band limits.
    let (limit_x, limit_y) = (frustum.limit_x, frustum.limit_y);
    let clamped_view = Vec3::new(
        (view.x / depth).clamp(-limit_x, limit_x) * depth,
        (view.y / depth).clamp(-limit_y, limit_y) * depth,
        view.z,
    );
    let jacobian = camera.projection_jacobian(clamped_view);
    let t = jacobian * *view_rot;
    let cov2d_full = t * cov3d * t.transpose();
    // Low-pass filter: guarantee a minimum footprint of ~0.3 px so
    // sub-pixel splats still contribute (as in the reference code).
    let cov = cov2d_full.upper_left_2x2() + Mat2::from_symmetric(0.3, 0.0, 0.3);

    let Some(inv_det) = conic_scale(cov) else {
        counts.culled_gaussians += 1;
        return None;
    };

    let color = eval_color(
        sh_degree,
        sh_coefficients,
        (position - camera.position()).normalized(),
    );

    counts.visible_gaussians += 1;
    Some(ProjectedGaussian {
        index,
        depth,
        mean,
        cov,
        inv_det,
        opacity,
        color,
    })
}

/// `1 / det(cov)`, the conic's scale ([`ProjectedGaussian::conic`]), or
/// `None` when the determinant is below `1e-12`: a covariance that is not
/// positive definite, or too degenerate to invert. A NaN determinant
/// passes, as it always has; its conic is NaN and shades nothing.
#[inline]
fn conic_scale(cov: Mat2) -> Option<f32> {
    let det = cov.determinant();
    if det < 1e-12 {
        return None;
    }
    Some(1.0 / det)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundaryMethod;
    use splat_types::{CameraIntrinsics, Gaussian3d, Quat, Vec3};

    /// Allocating form of [`preprocess_into`].
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

    fn camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        )
    }

    fn splat(pos: Vec3, opacity: f32, scale: f32) -> Gaussian3d {
        Gaussian3d::builder()
            .position(pos)
            .scale(Vec3::splat(scale))
            .rotation(Quat::IDENTITY)
            .opacity(opacity)
            .base_color([0.5, 0.6, 0.7])
            .build()
    }

    fn run(gaussians: Vec<Gaussian3d>) -> (Vec<ProjectedGaussian>, StageCounts) {
        let scene = Scene::new("t", 640, 480, gaussians);
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera(),
            &RenderConfig::new(16, BoundaryMethod::Aabb),
            &mut counts,
        );
        (projected, counts)
    }

    #[test]
    fn visible_splat_is_projected_to_image_center() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1)]);
        assert_eq!(projected.len(), 1);
        assert_eq!(counts.visible_gaussians, 1);
        assert_eq!(counts.culled_gaussians, 0);
        let p = &projected[0];
        assert!((p.mean.x - 320.0).abs() < 1e-3);
        assert!((p.mean.y - 240.0).abs() < 1e-3);
        assert!((p.depth - 5.0).abs() < 1e-3);
    }

    #[test]
    fn behind_camera_splat_is_culled() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1)]);
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
    }

    #[test]
    fn transparent_splat_is_culled() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.001, 0.1)]);
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
        // At the threshold itself the splat's centre still passes the
        // kernel's α cull, so it is kept.
        let at_threshold = splat(Vec3::new(0.0, 0.0, 5.0), ALPHA_CULL_THRESHOLD, 0.1);
        let (projected, counts) = run(vec![at_threshold]);
        assert_eq!(projected.len(), 1);
        assert_eq!(counts.culled_gaussians, 0);
    }

    #[test]
    fn far_outside_frustum_is_culled() {
        let (projected, _) = run(vec![splat(Vec3::new(500.0, 0.0, 5.0), 0.9, 0.1)]);
        assert!(projected.is_empty());
    }

    #[test]
    fn covariance_shrinks_with_distance() {
        let (projected, _) = run(vec![
            splat(Vec3::new(0.0, 0.0, 3.0), 0.9, 0.2),
            splat(Vec3::new(0.0, 0.0, 12.0), 0.9, 0.2),
        ]);
        assert_eq!(projected.len(), 2);
        let near_extent = projected[0].cov.at(0, 0);
        let far_extent = projected[1].cov.at(0, 0);
        assert!(
            near_extent > far_extent,
            "near {near_extent} far {far_extent}"
        );
    }

    #[test]
    fn low_pass_guarantees_minimum_footprint() {
        // A microscopically small splat still gets a ≥0.3 px² covariance.
        let (projected, _) = run(vec![splat(Vec3::new(0.0, 0.0, 20.0), 0.9, 1e-4)]);
        assert_eq!(projected.len(), 1);
        assert!(projected[0].cov.at(0, 0) >= 0.3);
        assert!(projected[0].cov.at(1, 1) >= 0.3);
    }

    #[test]
    fn indices_are_preserved_and_ascending() {
        let (projected, _) = run(vec![
            splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1), // culled
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.5, 0.0, 6.0), 0.9, 0.1),
        ]);
        let indices: Vec<u32> = projected.iter().map(|p| p.index).collect();
        assert_eq!(indices, vec![1, 2]);
    }

    #[test]
    fn inverse_covariance_matches_covariance() {
        let (projected, _) = run(vec![splat(Vec3::new(0.3, -0.2, 4.0), 0.8, 0.15)]);
        let p = &projected[0];
        let product = p.cov * p.conic();
        assert!((product.at(0, 0) - 1.0).abs() < 1e-3);
        assert!((product.at(1, 1) - 1.0).abs() < 1e-3);
        assert!(product.at(0, 1).abs() < 1e-3);
    }

    /// The single `det < 1e-12` cull keeps exactly the splats that
    /// `Mat2::inverse` (erring on `|det| < 1e-12`) and a `det <= 0` test
    /// together keep, NaN included, and stores `1 / det` for each.
    #[test]
    fn conic_scale_culls_as_the_inverse_and_sign_tests_do() {
        let dets = [f32::NAN, -1.0, -1e-13, -0.0, 0.0, 5e-13, 1e-12, 1.0];
        let mut kept = Vec::new();
        for det in dets {
            let cov = Mat2::from_symmetric(det, 0.0, 1.0);
            assert_eq!(cov.determinant().to_bits(), det.to_bits());
            let pair_culls = cov.inverse().is_err() || cov.determinant() <= 0.0;
            let scale = conic_scale(cov);
            assert_eq!(scale.is_none(), pair_culls, "det {det:e}");
            if let Some(inv_det) = scale {
                assert_eq!(inv_det.to_bits(), (1.0 / det).to_bits());
                kept.push(det);
            }
        }
        assert_eq!(kept.len(), 3);
        assert!(kept[0].is_nan() && kept[1..] == [1e-12, 1.0]);
    }

    #[test]
    fn non_finite_depths_are_culled_not_propagated() {
        // Regression test for the depth comparator satellite. A position
        // within f32 range but beyond f16 range overflows to ±∞ under
        // `Precision::Half`; the view transform then yields a NaN depth
        // (∞·0 in the rotation), which slips past the frustum test (its
        // rejecting comparisons are all false for NaN) and previously
        // produced a projected splat with a NaN depth — breaking the total
        // order the sort and `is_sorted_by_depth` rely on.
        let scene = Scene::new(
            "overflow",
            640,
            480,
            vec![
                splat(Vec3::new(1.0e6, 0.0, 5.0), 0.9, 0.1),
                splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            ],
        )
        .to_precision(splat_types::Precision::Half);
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera(),
            &RenderConfig::new(16, BoundaryMethod::Aabb),
            &mut counts,
        );
        assert_eq!(projected.len(), 1);
        assert_eq!(counts.culled_gaussians, 1);
        assert!(projected.iter().all(|p| p.depth.is_finite()));
    }

    #[test]
    fn degenerate_camera_culls_everything_instead_of_emitting_nan_depths() {
        // A NaN camera pose (e.g. from broken trajectory math) must not
        // leak NaN depths into the sort stage.
        let scene = Scene::new(
            "t",
            640,
            480,
            vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1)],
        );
        let nan_camera = Camera::look_at(
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        );
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &nan_camera,
            &RenderConfig::new(16, BoundaryMethod::Aabb),
            &mut counts,
        );
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
    }

    #[test]
    fn preprocess_into_reuses_the_buffer_and_matches_the_owned_path() {
        // Two visible splats, one transparent and one behind the camera.
        let gaussians = vec![
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.0, 0.0, 5.0), 0.001, 0.1),
            splat(Vec3::new(0.5, 0.0, 6.0), 0.9, 0.1),
            splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1),
        ];
        let scene = Scene::new("t", 640, 480, gaussians);
        let config = RenderConfig::new(16, BoundaryMethod::Aabb);

        let mut counts = StageCounts::new();
        let owned = preprocess(&scene, &camera(), &config, &mut counts);

        let mut reused = Vec::new();
        for _ in 0..3 {
            let mut c = StageCounts::new();
            preprocess_into(&scene, &camera(), &config, &mut c, &mut reused);
            assert_eq!(reused, owned);
            assert_eq!(c, counts);
        }
        // The buffer is sized by the cull's survivors, not by the scene.
        assert_eq!(owned.len(), 2);
        assert!((2..scene.len()).contains(&reused.capacity()));
    }

    /// Bit equality of projected splats: `==` on floats is not bit
    /// equality, but `Debug` prints each float as the shortest string that
    /// round-trips it, so equal strings mean equal bits (and tell -0.0 from
    /// 0.0).
    fn bits(p: &[ProjectedGaussian]) -> String {
        format!("{p:?}")
    }

    #[test]
    fn simd_projection_is_bit_identical_to_scalar_projection() {
        // The 8-lane chunked loop against the per-splat reference on random
        // scenes of 8k + r splats, one for every tail length r = 0..=7,
        // with splats behind the camera and below the opacity cull among
        // the kept ones.
        let camera = camera();
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x7A11_5EED);
        let mut culled_total = 0;
        for tail in 0..8 {
            let len = 8 * (1 + rng.gen_index(4)) + tail;
            let gaussians: Vec<Gaussian3d> = (0..len)
                .map(|_| {
                    let axis = Vec3::new(
                        rng.range_f32(-1.0, 1.0),
                        rng.range_f32(-1.0, 1.0),
                        rng.range_f32(0.1, 1.0),
                    );
                    Gaussian3d::builder()
                        .position(Vec3::new(
                            rng.range_f32(-3.0, 3.0),
                            rng.range_f32(-2.0, 2.0),
                            rng.range_f32(-3.0, 14.0),
                        ))
                        .scale(Vec3::new(
                            rng.range_f32(0.02, 0.5),
                            rng.range_f32(0.02, 0.5),
                            rng.range_f32(0.02, 0.5),
                        ))
                        .rotation(Quat::from_axis_angle(
                            axis.normalized(),
                            rng.range_f32(0.0, 6.0),
                        ))
                        .opacity(if rng.gen_index(6) == 0 {
                            0.001
                        } else {
                            rng.range_f32(0.05, 1.0)
                        })
                        .base_color([rng.gen_f32(), rng.gen_f32(), rng.gen_f32()])
                        .build()
                })
                .collect();
            let scene = Scene::new("tails", 640, 480, gaussians);
            let soa = scene.soa();
            let reference: Vec<ProjectedGaussian> = (0..soa.len())
                .filter_map(|i| per_splat_reference(soa, i, &camera))
                .collect();

            let mut counts = StageCounts::new();
            let projected = preprocess(&scene, &camera, &RenderConfig::default(), &mut counts);
            assert_eq!(bits(&projected), bits(&reference), "{len} splats");
            let culled = (len - reference.len()) as u64;
            assert_eq!(counts.input_gaussians, len as u64);
            assert_eq!(counts.visible_gaussians, reference.len() as u64);
            assert_eq!(counts.culled_gaussians, culled);
            culled_total += culled;
        }
        assert!(culled_total > 0);
    }

    /// Reference preprocessing of splat `i` that shares nothing across
    /// splats: the frustum, both guard-band tangents and the view rotation
    /// are recomputed for this one splat.
    fn per_splat_reference(soa: &SceneSoA, i: usize, camera: &Camera) -> Option<ProjectedGaussian> {
        let opacity = soa.opacity()[i];
        let position = soa.position(i);
        let radius = Gaussian3d::bounding_radius_of(soa.scale(i));
        if opacity < ALPHA_CULL_THRESHOLD || !camera.is_in_frustum(position, radius) {
            return None;
        }
        let view = camera.to_view(position);
        let depth = -view.z;
        if !depth.is_finite() || depth <= camera.near() {
            return None;
        }
        let mean = camera.view_to_pixel(view)?;
        let intr = camera.intrinsics();
        let limit_x = 1.3 * (0.5 * intr.fov_x()).tan();
        let limit_y = 1.3 * (0.5 * intr.fov_y()).tan();
        let clamped_view = Vec3::new(
            (view.x / depth).clamp(-limit_x, limit_x) * depth,
            (view.y / depth).clamp(-limit_y, limit_y) * depth,
            view.z,
        );
        let t = camera.projection_jacobian(clamped_view) * camera.view_rotation();
        let cov = (t * soa.covariance(i) * t.transpose()).upper_left_2x2()
            + Mat2::from_symmetric(0.3, 0.0, 0.3);
        // The cull as two tests: `inverse` rejects |det| < 1e-12, then a
        // non-positive determinant goes.
        cov.inverse().ok()?;
        if cov.determinant() <= 0.0 {
            return None;
        }
        let direction = (position - camera.position()).normalized();
        Some(ProjectedGaussian {
            index: i as u32,
            depth,
            mean,
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity,
            color: eval_color(soa.sh_degree(i), soa.sh_coefficients(i), direction),
        })
    }

    #[test]
    fn guard_band_projection_matches_the_per_splat_reference() {
        // An off-axis, non-square camera (fov_x ≠ fov_y) and a cloud whose
        // bounding spheres straddle the lateral guard band: some splats are
        // culled, and the kept ones past the band project with a clamped
        // Jacobian. 203 splats: 25 full 8-lane chunks and a 3-splat tail.
        let camera = Camera::look_at(
            Vec3::new(1.0, -0.5, -2.0),
            Vec3::new(0.8, 0.6, 6.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(0.8, 320, 120),
        );
        let frustum = camera.frustum();
        let rotation_t = camera.view_rotation().transpose();
        let m = camera.view_matrix();
        let translation = Vec3::new(m.at(0, 3), m.at(1, 3), m.at(2, 3));
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x0FF_A515);
        let gaussians: Vec<Gaussian3d> = (0..203)
            .map(|i| {
                let scale = rng.range_f32(0.05, 0.4);
                let radius = Gaussian3d::bounding_radius_of(Vec3::splat(scale));
                let depth = rng.range_f32(1.0, 20.0);
                // Out to ±1.5 bounding radii beyond the band, on one axis.
                let past_band = |limit: f32, rng: &mut splat_types::rng::Rng| {
                    rng.range_f32(-1.0, 1.0).signum()
                        * (limit * depth + rng.range_f32(-1.5, 1.5) * radius)
                };
                let (x, y) = if i % 2 == 0 {
                    let x = past_band(frustum.limit_x, &mut rng);
                    (x, rng.range_f32(-1.0, 1.0) * frustum.limit_y * depth)
                } else {
                    let y = past_band(frustum.limit_y, &mut rng);
                    (rng.range_f32(-1.0, 1.0) * frustum.limit_x * depth, y)
                };
                let world = rotation_t.mul_vec(Vec3::new(x, y, -depth) - translation);
                Gaussian3d::builder()
                    .position(world)
                    .scale(Vec3::new(scale, 0.6 * scale, 0.8 * scale))
                    .rotation(Quat::from_axis_angle(Vec3::Y, i as f32 * 0.3))
                    .opacity(0.8)
                    .base_color([0.4, 0.5, 0.6])
                    .build()
            })
            .collect();
        let scene = Scene::new("guard-band", 320, 120, gaussians);

        let soa = scene.soa();
        let reference: Vec<ProjectedGaussian> = (0..soa.len())
            .filter_map(|i| per_splat_reference(soa, i, &camera))
            .collect();
        let culled = (soa.len() - reference.len()) as u64;
        let clamped = reference
            .iter()
            .filter(|p| {
                let view = camera.to_view(soa.position(p.index as usize));
                let depth = -view.z;
                (view.x / depth).abs() > frustum.limit_x || (view.y / depth).abs() > frustum.limit_y
            })
            .count();
        assert!(culled > 20, "only {culled} splats culled at the band");
        assert!(clamped > 20, "only {clamped} kept splats past the band");

        let config = RenderConfig::new(16, BoundaryMethod::Aabb);
        let mut counts = StageCounts::new();
        let projected = preprocess(&scene, &camera, &config, &mut counts);
        assert_eq!(bits(&projected), bits(&reference));
        assert_eq!(counts.input_gaussians, soa.len() as u64);
        assert_eq!(counts.visible_gaussians, reference.len() as u64);
        assert_eq!(counts.culled_gaussians, culled);
    }

    #[test]
    fn counts_accumulate_inputs() {
        let (_, counts) = run(vec![
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1),
        ]);
        assert_eq!(counts.input_gaussians, 2);
        assert_eq!(counts.visible_gaussians + counts.culled_gaussians, 2);
    }
}
