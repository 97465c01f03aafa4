//! The baseline tile-based renderer.
//!
//! [`Renderer`] is the conventional 3D-GS pipeline's [`Keying`]: splats are
//! identified into per-tile lists, every tile's list is depth-sorted
//! independently, and rasterization reads each tile's sorted list straight
//! back out. The frame loop that runs those stages — and every stage the
//! two pipelines share — is [`Session`]; a one-shot [`Renderer::render`] is
//! a session with a fresh arena.

use crate::config::RenderConfig;
use crate::session::{Keying, Session, BACKGROUND};
use crate::sort::sort_tiles_with;
use crate::tiling::{identify_tiles_into, TileAssignments, TileGrid};
use splat_core::{
    shade_tiles, CsrScratch, Framebuffer, KeySortScratch, ProjectedGaussian, RenderOutput,
    SpanScratch, StageCounts,
};
use splat_scene::Scene;
use splat_types::{Camera, RenderError};

/// The baseline tile-based renderer.
#[derive(Debug, Clone)]
pub struct Renderer {
    config: RenderConfig,
}

impl Renderer {
    /// Creates a renderer with the given configuration.
    pub fn new(config: RenderConfig) -> Self {
        Self { config }
    }

    /// The renderer's configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.config
    }

    /// Renders one view of the scene: a [`Session`] with a fresh arena
    /// whose framebuffer is moved out.
    ///
    /// The framebuffer dimensions come from the camera intrinsics, so the
    /// same scene can be rendered at reduced resolution by passing a
    /// smaller camera.
    pub fn render(&self, scene: &Scene, camera: &Camera) -> RenderOutput {
        Session::new(self.clone()).into_output(scene, camera)
    }

    /// Rasterizes all tiles of sorted assignments into a recycled
    /// framebuffer, which is reset to the camera dimensions first — the
    /// raster stage of the frame loop as a standalone call
    /// ([`shade_tiles`] over the per-tile lists).
    ///
    /// `_span` is ignored. It is a parameter only because
    /// `benchmark/src/layers.rs` passes one, and goes in ROADMAP item 2a.
    pub fn rasterize_into(
        &self,
        projected: &[ProjectedGaussian],
        assignments: &TileAssignments,
        camera: &Camera,
        image: &mut Framebuffer,
        _span: &mut SpanScratch,
    ) -> StageCounts {
        image.reset(camera.width(), camera.height(), BACKGROUND);
        shade_tiles(assignments, projected, BACKGROUND, &self.config.exec, image)
    }
}

impl From<RenderConfig> for Renderer {
    fn from(config: RenderConfig) -> Self {
        Self::new(config)
    }
}

impl Keying for Renderer {
    type Entry = u32;
    type Assignments = TileAssignments;

    const NAME: &'static str = "baseline-session";

    fn render_config(&self) -> RenderConfig {
        self.config
    }

    fn validate(&self) -> Result<(), RenderError> {
        self.config.validate()
    }

    fn empty_assignments() -> TileAssignments {
        TileAssignments::empty()
    }

    fn assignments_footprint(assignments: &TileAssignments) -> usize {
        assignments.footprint_bytes()
    }

    fn identify(
        &self,
        projected: &[ProjectedGaussian],
        width: u32,
        height: u32,
        counts: &mut StageCounts,
        scratch: &mut CsrScratch<u32>,
        out: &mut TileAssignments,
    ) {
        identify_tiles_into(
            projected,
            TileGrid::new(width, height, self.config.tile_size),
            self.config.boundary,
            self.config.prepass,
            counts,
            scratch,
            out,
        );
    }

    fn sort(
        assignments: &mut TileAssignments,
        projected: &[ProjectedGaussian],
        counts: &mut StageCounts,
        scratch: &mut KeySortScratch<u32>,
    ) {
        sort_tiles_with(assignments, projected, counts, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundaryMethod;
    use splat_core::{HasExecution, RenderBackend, RenderRequest};
    use splat_types::{CameraIntrinsics, Gaussian3d, Vec3};

    fn small_scene() -> (Scene, Camera) {
        let gaussians = vec![
            Gaussian3d::builder()
                .position(Vec3::new(0.0, 0.0, 5.0))
                .scale(Vec3::splat(0.3))
                .opacity(0.9)
                .base_color([1.0, 0.2, 0.2])
                .build(),
            Gaussian3d::builder()
                .position(Vec3::new(0.8, 0.4, 7.0))
                .scale(Vec3::splat(0.4))
                .opacity(0.7)
                .base_color([0.2, 1.0, 0.2])
                .build(),
            Gaussian3d::builder()
                .position(Vec3::new(-1.0, -0.5, 6.0))
                .scale(Vec3::splat(0.5))
                .opacity(0.8)
                .base_color([0.2, 0.2, 1.0])
                .build(),
        ];
        let scene = Scene::new("unit", 128, 96, gaussians);
        let camera = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 128, 96),
        );
        (scene, camera)
    }

    #[test]
    fn render_produces_non_empty_image() {
        let (scene, camera) = small_scene();
        let renderer = Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb));
        let out = renderer.render(&scene, &camera);
        assert_eq!(out.image.width(), 128);
        assert_eq!(out.image.height(), 96);
        assert!(out.image.mean_luminance() > 0.0);
        assert!(out.stats.counts.visible_gaussians > 0);
        assert!(out.stats.counts.alpha_computations > 0);
        assert_eq!(out.stats.counts.pixels, 128 * 96);
    }

    #[test]
    fn framebuffer_matches_camera_not_scene_resolution() {
        let (scene, _) = small_scene();
        let small_camera = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 64, 48),
        );
        let renderer = Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb));
        let out = renderer.render(&scene, &small_camera);
        assert_eq!((out.image.width(), out.image.height()), (64, 48));
    }

    #[test]
    fn all_boundary_methods_render_identical_images() {
        // Tile identification only decides which tiles consider a splat;
        // false positives cost work but never change pixel values, so the
        // three boundary methods must agree exactly.
        let (scene, camera) = small_scene();
        let reference =
            Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb)).render(&scene, &camera);
        for method in [BoundaryMethod::Obb, BoundaryMethod::Ellipse] {
            let out = Renderer::new(RenderConfig::new(16, method)).render(&scene, &camera);
            assert_eq!(
                out.image.max_abs_diff(&reference.image),
                0.0,
                "method {method} diverged"
            );
        }
    }

    #[test]
    fn all_tile_sizes_render_identical_images() {
        let (scene, camera) = small_scene();
        let reference =
            Renderer::new(RenderConfig::new(8, BoundaryMethod::Ellipse)).render(&scene, &camera);
        for tile_size in [16, 32, 64] {
            let out = Renderer::new(RenderConfig::new(tile_size, BoundaryMethod::Ellipse))
                .render(&scene, &camera);
            assert_eq!(
                out.image.max_abs_diff(&reference.image),
                0.0,
                "tile size {tile_size} diverged"
            );
        }
    }

    #[test]
    fn parallel_rendering_matches_sequential() {
        let (scene, camera) = small_scene();
        let sequential =
            Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb)).render(&scene, &camera);
        let parallel = Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb).with_threads(4))
            .render(&scene, &camera);
        assert_eq!(parallel.image.max_abs_diff(&sequential.image), 0.0);
        assert_eq!(parallel.stats.counts, sequential.stats.counts);
    }

    #[test]
    fn prepare_exposes_sorted_assignments() {
        // The pre-raster state a frame leaves behind in its session.
        let (scene, camera) = small_scene();
        let mut session = Session::new(Renderer::new(RenderConfig::new(
            16,
            BoundaryMethod::Ellipse,
        )));
        let counts = session.render(&scene, &camera).stats.counts;
        assert!(counts.tile_intersections > 0);
        for (_, list) in session.assignments().iter() {
            assert!(splat_core::is_sorted_by_depth(list, session.projected()));
        }
    }

    #[test]
    fn prepare_and_render_agree_on_counts() {
        // The state the accessors expose is the state the counters
        // describe: one CSR entry per charged intersection, one projected
        // splat per visible Gaussian.
        let (scene, camera) = small_scene();
        let mut session = Session::new(Renderer::new(RenderConfig::new(
            16,
            BoundaryMethod::Ellipse,
        )));
        let counts = session.render(&scene, &camera).stats.counts;
        assert_eq!(
            session.assignments().total_entries(),
            counts.tile_intersections
        );
        assert_eq!(session.projected().len() as u64, counts.visible_gaussians);
        assert!(counts.sort_comparisons > 0);
    }

    #[test]
    fn backend_trait_matches_inherent_render() {
        let (scene, camera) = small_scene();
        let renderer = Renderer::new(RenderConfig::new(16, BoundaryMethod::Ellipse));
        let direct = renderer.render(&scene, &camera);
        let mut backend: Box<dyn RenderBackend> = Box::new(Session::new(renderer));
        assert_eq!(backend.name(), "baseline-session");
        let served = backend
            .render(&RenderRequest::new(&scene, camera))
            .expect("valid request");
        assert_eq!(served.image.max_abs_diff(&direct.image), 0.0);
        assert_eq!(served.stats.counts, direct.stats.counts);
    }

    #[test]
    fn backend_trait_rejects_invalid_input_without_panicking() {
        let (scene, camera) = small_scene();
        let mut backend = Session::new(Renderer::new(RenderConfig::new(16, BoundaryMethod::Aabb)));
        let empty = Scene::new("empty", 32, 32, Vec::new());
        assert!(RenderBackend::render(&mut backend, &RenderRequest::new(&empty, camera)).is_err());
        // A config hand-mutated into an invalid state is caught too.
        let mut bad = Renderer::new(RenderConfig::default());
        bad.config.tile_size = 0;
        let mut bad = Session::new(bad);
        assert!(RenderBackend::render(&mut bad, &RenderRequest::new(&scene, camera)).is_err());
    }

    #[test]
    fn larger_tiles_do_more_raster_work_and_less_sort_work() {
        let (scene, camera) = small_scene();
        let small =
            Renderer::new(RenderConfig::new(8, BoundaryMethod::Aabb)).render(&scene, &camera);
        let large =
            Renderer::new(RenderConfig::new(64, BoundaryMethod::Aabb)).render(&scene, &camera);
        assert!(
            large.stats.counts.alpha_computations >= small.stats.counts.alpha_computations,
            "raster work should grow with tile size"
        );
        assert!(
            large.stats.counts.tile_intersections <= small.stats.counts.tile_intersections,
            "sorting keys should shrink with tile size"
        );
    }
}
