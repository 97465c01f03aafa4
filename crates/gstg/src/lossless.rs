//! Lossless-equivalence verification between GS-TG and the baseline.
//!
//! The paper's key claim is that tile grouping is *lossless*: rendering
//! with group-wise sorting plus per-tile bitmasks produces exactly the same
//! image as the conventional per-tile pipeline at the same tile size,
//! without retraining or fine-tuning. This module renders a view through
//! both pipelines and compares the results.

use crate::config::GstgConfig;
use crate::pipeline::GstgRenderer;
use splat_render::Renderer;
use splat_scene::Scene;
use splat_types::Camera;

/// Result of comparing a GS-TG render against its equivalent baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LosslessReport {
    /// Maximum absolute per-channel pixel difference.
    pub max_abs_diff: f32,
    /// PSNR of the GS-TG image against the baseline (infinite when
    /// identical).
    pub(crate) psnr_db: f64,
    /// `true` when every pixel matches bit-exactly.
    pub identical: bool,
    /// α-computations performed by the baseline.
    pub baseline_alpha_computations: u64,
    /// α-computations performed by GS-TG (must match the baseline: the
    /// bitmask reproduces the same per-tile lists).
    pub gstg_alpha_computations: u64,
    /// Depth-sort comparisons performed by the baseline (per-tile sorting).
    pub(crate) baseline_sort_comparisons: u64,
    /// Depth-sort comparisons performed by GS-TG (per-group sorting).
    pub(crate) gstg_sort_comparisons: u64,
}

impl LosslessReport {
    /// Ratio of baseline to GS-TG sorting comparisons (how much redundant
    /// sorting the grouping removed).
    pub fn sort_reduction(&self) -> f64 {
        if self.gstg_sort_comparisons == 0 {
            return if self.baseline_sort_comparisons == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.baseline_sort_comparisons as f64 / self.gstg_sort_comparisons as f64
    }
}

/// Renders `scene` from `camera` through both the GS-TG pipeline described
/// by `config` and its equivalent baseline, and reports how they compare.
pub fn verify_lossless(scene: &Scene, camera: &Camera, config: GstgConfig) -> LosslessReport {
    let gstg = GstgRenderer::new(config).render(scene, camera);
    let baseline = Renderer::new(config.equivalent_baseline()).render(scene, camera);
    let max_abs_diff = gstg.image.max_abs_diff(&baseline.image);
    LosslessReport {
        max_abs_diff,
        psnr_db: gstg.image.psnr(&baseline.image),
        identical: max_abs_diff == 0.0,
        baseline_alpha_computations: baseline.stats.counts.alpha_computations,
        gstg_alpha_computations: gstg.stats.counts.alpha_computations,
        baseline_sort_comparisons: baseline.stats.counts.sort_comparisons,
        gstg_sort_comparisons: gstg.stats.counts.sort_comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_render::BoundaryMethod;
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Vec3};

    fn small_camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 192, 160),
        )
    }

    #[test]
    fn paper_configuration_is_lossless() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let report = verify_lossless(&scene, &small_camera(), GstgConfig::paper_default());
        assert!(report.identical, "max diff {}", report.max_abs_diff);
        assert!(report.psnr_db.is_infinite());
        assert_eq!(
            report.baseline_alpha_computations,
            report.gstg_alpha_computations
        );
    }

    #[test]
    fn every_sweep_configuration_is_lossless() {
        let scene = PaperScene::Train.build(SceneScale::Tiny, 2);
        let camera = small_camera();
        for (tile, group) in [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)] {
            let config = GstgConfig::new(
                tile,
                group,
                BoundaryMethod::Ellipse,
                BoundaryMethod::Ellipse,
            )
            .unwrap();
            let report = verify_lossless(&scene, &camera, config);
            assert!(
                report.identical,
                "{tile}+{group} diff {}",
                report.max_abs_diff
            );
        }
    }

    #[test]
    fn grouping_reduces_sorting() {
        let scene = PaperScene::Truck.build(SceneScale::Tiny, 0);
        let report = verify_lossless(&scene, &small_camera(), GstgConfig::paper_default());
        assert!(
            report.sort_reduction() > 1.0,
            "reduction {}",
            report.sort_reduction()
        );
    }

    #[test]
    fn session_stays_lossless_against_a_baseline_session() {
        // The central GS-TG claim holds frame after frame: a reused GS-TG
        // session and a reused baseline session produce bit-identical
        // images.
        let scene = PaperScene::Train.build(SceneScale::Tiny, 3);
        let config = GstgConfig::paper_default();
        let mut gstg = crate::GstgSession::from_config(config);
        let mut baseline = splat_render::RenderSession::from_config(config.equivalent_baseline());
        let trajectory = splat_scene::CameraTrajectory::orbit(
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
            Vec3::new(0.0, 0.0, 6.0),
            4.0,
            0.5,
            3,
        );
        for camera in trajectory.cameras() {
            let reference = baseline.render(&scene, &camera).stats;
            let baseline_image = {
                let frame = baseline.render(&scene, &camera);
                frame.image.clone()
            };
            let frame = gstg.render(&scene, &camera);
            assert_eq!(frame.image.max_abs_diff(&baseline_image), 0.0);
            assert_eq!(
                frame.stats.counts.alpha_computations,
                reference.counts.alpha_computations
            );
        }
    }

    #[test]
    fn report_handles_trivial_scenes() {
        let scene = Scene::new("empty", 64, 64, vec![]);
        let report = verify_lossless(&scene, &small_camera(), GstgConfig::paper_default());
        assert!(report.identical);
        assert_eq!(report.sort_reduction(), 1.0);
    }
}
