//! Integration test: session reuse over camera trajectories.
//!
//! A reused `RenderSession` / `GstgSession` must produce frames that are
//! bit-identical — pixels *and* `StageCounts` — to fresh per-frame
//! renderers, for every pose of a trajectory, and must stop allocating
//! once warmed up. This pins the frame-arena refactor down through the
//! public API.

use gs_tg::prelude::*;

fn ellipse_config() -> RenderConfig {
    RenderConfig::try_new(16, BoundaryMethod::Ellipse).expect("valid configuration")
}

fn trajectory(views: usize) -> CameraTrajectory {
    CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 160, 120),
        Vec3::new(0.0, 0.0, 6.0),
        4.5,
        1.0,
        views,
    )
}

#[test]
fn baseline_session_frames_match_fresh_renderers_bit_exactly() {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 5);
    let renderer = Renderer::new(ellipse_config());
    let mut session = RenderSession::new(renderer.clone());
    for (index, camera) in trajectory(5).cameras().enumerate() {
        let fresh = renderer.render(&scene, &camera);
        let frame = session.render(&scene, &camera);
        assert_eq!(
            frame.image.max_abs_diff(&fresh.image),
            0.0,
            "frame {index} diverged from a fresh renderer"
        );
        assert_eq!(
            frame.stats.counts, fresh.stats.counts,
            "frame {index} counts diverged"
        );
    }
}

#[test]
fn gstg_session_frames_match_fresh_renderers_bit_exactly() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 5);
    let renderer = GstgRenderer::new(GstgConfig::paper_default());
    let mut session = GstgSession::new(renderer.clone());
    for (index, camera) in trajectory(5).cameras().enumerate() {
        let fresh = renderer.render(&scene, &camera);
        let frame = session.render(&scene, &camera);
        assert_eq!(
            frame.image.max_abs_diff(&fresh.image),
            0.0,
            "frame {index} diverged from a fresh renderer"
        );
        assert_eq!(
            frame.stats.counts, fresh.stats.counts,
            "frame {index} counts diverged"
        );
    }
}

#[test]
fn sessions_reach_a_zero_growth_steady_state() {
    let scene = PaperScene::Train.build(SceneScale::Tiny, 1);
    let trajectory = trajectory(4);

    let mut baseline = RenderSession::from_config(ellipse_config());
    let mut grouped = GstgSession::from_config(GstgConfig::paper_default());

    // Warm-up pass: buffers grow to the trajectory's high-water mark.
    for camera in trajectory.cameras() {
        let _ = baseline.render(&scene, &camera);
        let _ = grouped.render(&scene, &camera);
    }
    let baseline_warm = baseline.footprint_bytes();
    let grouped_warm = grouped.footprint_bytes();
    assert!(baseline_warm > 0 && grouped_warm > 0);

    // Steady-state pass: frames 2..N must not grow any recycled buffer.
    for (index, camera) in trajectory.cameras().enumerate() {
        let _ = baseline.render(&scene, &camera);
        let _ = grouped.render(&scene, &camera);
        assert_eq!(
            baseline.footprint_bytes(),
            baseline_warm,
            "baseline arena grew at steady-state frame {index}"
        );
        assert_eq!(
            grouped.footprint_bytes(),
            grouped_warm,
            "gstg arena grew at steady-state frame {index}"
        );
    }
}

#[test]
fn lossless_equivalence_holds_between_reused_sessions() {
    // GS-TG's central claim, expressed session-to-session: both pipelines'
    // reused sessions stay bit-exact against each other over a trajectory.
    let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 2);
    let config = GstgConfig::paper_default();
    let mut baseline = RenderSession::from_config(config.equivalent_baseline());
    let mut grouped = GstgSession::from_config(config);
    for (index, camera) in trajectory(3).cameras().enumerate() {
        let reference = baseline.render(&scene, &camera).image.clone();
        let frame = grouped.render(&scene, &camera);
        assert_eq!(
            frame.image.max_abs_diff(&reference),
            0.0,
            "frame {index}: GS-TG session diverged from baseline session"
        );
    }
}
