//! The GS-TG renderer.
//!
//! [`GstgRenderer`] is the paper's [`Keying`]: splats are identified into
//! per-*group* lists with a per-splat tile bitmask, each group's list is
//! depth-sorted once, and rasterization recovers every small tile's sorted
//! list by scattering its group's list through the bitmasks
//! ([`crate::raster`]). The frame loop that runs those stages — and
//! preprocessing, timing, the arena and the tile-shading driver, which GS-TG
//! does not change — is the shared [`Session`]; a one-shot
//! [`GstgRenderer::render`] is a session with a fresh arena.

use crate::config::GstgConfig;
use crate::group::{identify_groups_into, GroupAssignments, GroupEntry};
use crate::sort::sort_groups_with;
use splat_core::{CsrScratch, KeySortScratch, ProjectedGaussian, RenderOutput, StageCounts};
use splat_render::{Keying, RenderConfig, Session, BACKGROUND};
use splat_scene::Scene;
use splat_types::{Camera, RenderError, Rgb};

/// The GS-TG session: the one frame loop keyed per tile group.
pub type GstgSession = Session<GstgRenderer>;

/// The GS-TG renderer.
#[derive(Debug, Clone)]
pub struct GstgRenderer {
    config: GstgConfig,
}

impl GstgRenderer {
    /// Creates a renderer with the given configuration.
    pub fn new(config: GstgConfig) -> Self {
        Self { config }
    }

    /// The background color pixels start from: [`BACKGROUND`], as for
    /// every renderer. `benchmark/src/layers.rs` passes it to the raster
    /// stage function.
    pub fn background(&self) -> Rgb {
        BACKGROUND
    }

    /// Renders one view of the scene through the GS-TG pipeline: a
    /// [`Session`] with a fresh arena whose framebuffer is moved out.
    pub fn render(&self, scene: &Scene, camera: &Camera) -> RenderOutput {
        Session::new(self.clone()).into_output(scene, camera)
    }
}

impl From<GstgConfig> for GstgRenderer {
    fn from(config: GstgConfig) -> Self {
        Self::new(config)
    }
}

impl Keying for GstgRenderer {
    type Entry = GroupEntry;
    type Assignments = GroupAssignments;

    const NAME: &'static str = "gstg-session";

    /// The preprocessing stage is shared verbatim with the baseline the
    /// losslessness checks compare against, so the config mapping is the
    /// same single function.
    fn render_config(&self) -> RenderConfig {
        self.config.equivalent_baseline()
    }

    fn validate(&self) -> Result<(), RenderError> {
        self.config.validate()
    }

    fn empty_assignments() -> GroupAssignments {
        GroupAssignments::empty()
    }

    fn assignments_footprint(assignments: &GroupAssignments) -> usize {
        assignments.footprint_bytes()
    }

    fn identify(
        &self,
        projected: &[ProjectedGaussian],
        width: u32,
        height: u32,
        counts: &mut StageCounts,
        scratch: &mut CsrScratch<GroupEntry>,
        out: &mut GroupAssignments,
    ) {
        identify_groups_into(projected, width, height, &self.config, counts, scratch, out);
    }

    fn sort(
        assignments: &mut GroupAssignments,
        projected: &[ProjectedGaussian],
        counts: &mut StageCounts,
        scratch: &mut KeySortScratch<GroupEntry>,
    ) {
        sort_groups_with(assignments, projected, counts, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_core::{HasExecution, RenderBackend, RenderRequest};
    use splat_render::{BoundaryMethod, Renderer};
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::CameraIntrinsics;
    use splat_types::Vec3;

    /// A reduced-resolution camera so unit tests stay fast.
    fn small_camera(scene: &Scene) -> Camera {
        let _ = scene;
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 256, 192),
        )
    }

    #[test]
    fn gstg_render_produces_image_and_counts() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let out = GstgRenderer::new(config).render(&scene, &camera);
        assert_eq!((out.image.width(), out.image.height()), (256, 192));
        assert!(out.stats.counts.visible_gaussians > 0);
        assert!(out.stats.counts.bitmask_tests > 0);
        assert!(out.stats.counts.bitmask_filter_ops > 0);
        assert!(out.image.mean_luminance() > 0.0);
    }

    #[test]
    fn gstg_image_matches_baseline_exactly() {
        // The central claim: GS-TG is lossless with respect to the baseline
        // at the same tile size and boundary method.
        let scene = PaperScene::Train.build(SceneScale::Tiny, 0);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let gstg = GstgRenderer::new(config).render(&scene, &camera);
        let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
        assert_eq!(gstg.image.max_abs_diff(&baseline.image), 0.0);
        // Rasterization work is identical: the bitmask reproduces exactly
        // the baseline per-tile lists.
        assert_eq!(
            gstg.stats.counts.alpha_computations,
            baseline.stats.counts.alpha_computations
        );
        assert_eq!(
            gstg.stats.counts.blend_operations,
            baseline.stats.counts.blend_operations
        );
    }

    #[test]
    fn gstg_reduces_sorting_work() {
        let scene = PaperScene::Truck.build(SceneScale::Tiny, 0);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let gstg = GstgRenderer::new(config).render(&scene, &camera);
        let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
        assert!(
            gstg.stats.counts.sort_comparisons < baseline.stats.counts.sort_comparisons,
            "gstg {} vs baseline {}",
            gstg.stats.counts.sort_comparisons,
            baseline.stats.counts.sort_comparisons
        );
        assert!(
            gstg.stats.counts.tile_intersections < baseline.stats.counts.tile_intersections,
            "group entries should be fewer than tile entries"
        );
    }

    #[test]
    fn mixed_boundary_methods_are_still_lossless() {
        // Group identification with AABB, bitmasks with Ellipse: the
        // rasterized image must still match an ellipse-boundary baseline.
        let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 0);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Aabb, BoundaryMethod::Ellipse).unwrap();
        let gstg = GstgRenderer::new(config).render(&scene, &camera);
        let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
        assert_eq!(gstg.image.max_abs_diff(&baseline.image), 0.0);
    }

    #[test]
    fn prepare_exposes_sorted_groups() {
        // The pre-raster state a frame leaves behind in its session.
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut session = GstgSession::from_config(config);
        let counts = session.render(&scene, &camera).stats.counts;
        for (_, entries) in session.assignments().iter() {
            assert!(splat_core::is_sorted_by_depth(entries, session.projected()));
        }
        assert!(counts.sort_comparisons > 0 || session.assignments().total_entries() <= 1);
    }

    #[test]
    fn backend_trait_matches_inherent_render() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 2);
        let camera = small_camera(&scene);
        let renderer = GstgRenderer::new(GstgConfig::paper_default());
        let direct = renderer.render(&scene, &camera);
        let mut backend: Box<dyn RenderBackend> = Box::new(GstgSession::new(renderer));
        assert_eq!(backend.name(), "gstg-session");
        let served = backend
            .render(&RenderRequest::new(&scene, camera))
            .expect("valid request");
        assert_eq!(served.image.max_abs_diff(&direct.image), 0.0);
        assert_eq!(served.stats.counts, direct.stats.counts);
    }

    #[test]
    fn backend_trait_rejects_invalid_input_without_panicking() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 2);
        let camera = small_camera(&scene);
        let mut backend = GstgSession::from_config(GstgConfig::paper_default());
        let empty = Scene::new("empty", 32, 32, Vec::new());
        assert!(RenderBackend::render(&mut backend, &RenderRequest::new(&empty, camera)).is_err());
        let mut bad = GstgRenderer::new(GstgConfig::paper_default());
        bad.config.group_size = 40;
        let mut bad = GstgSession::new(bad);
        assert!(RenderBackend::render(&mut bad, &RenderRequest::new(&scene, camera)).is_err());
    }

    #[test]
    fn parallel_gstg_matches_sequential() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 1);
        let camera = small_camera(&scene);
        let config =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let sequential = GstgRenderer::new(config).render(&scene, &camera);
        let parallel = GstgRenderer::new(config.with_threads(4)).render(&scene, &camera);
        assert_eq!(sequential.image.max_abs_diff(&parallel.image), 0.0);
        assert_eq!(sequential.stats.counts, parallel.stats.counts);
    }
}
