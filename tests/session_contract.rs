//! Integration test: the session contract, run for both keyings.
//!
//! There is one frame loop (`Session<K>`); the baseline and GS-TG differ
//! only in the `Keying` they plug into it. Everything a session promises is
//! therefore checked once, generically, and exercised for `Renderer` and
//! `GstgRenderer`:
//!
//! * frame N of a reused session is bit-identical — pixels and
//!   `StageCounts` — to a one-shot render of the same view, directly and
//!   through `dyn RenderBackend`;
//! * a one-shot render reports the same four stage windows a session frame
//!   does (identification is not folded into preprocessing);
//! * the footprint is stable once warmed up;
//! * the resolution may change between frames;
//! * empty scenes, zero-dimension cameras and invalid tile grids come back
//!   as typed errors through `dyn RenderBackend`, never as panics.

use gs_tg::prelude::*;
use gs_tg::render::{Keying, Session};
use std::time::Duration;

fn camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, width, height),
    )
}

fn trajectory(views: usize) -> CameraTrajectory {
    CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 96, 64),
        Vec3::new(0.0, 0.0, 6.0),
        4.0,
        0.5,
        views,
    )
}

/// The contract every `Session<K>` honours. `one_shot` is the keying's
/// inherent one-shot `render`; `bad_grid` is the same keying with its tile
/// size hand-mutated to zero.
fn session_contract<K: Keying + 'static>(
    keying: K,
    bad_grid: K,
    one_shot: fn(&K, &Scene, &Camera) -> RenderOutput,
) {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 1);
    let cameras: Vec<Camera> = trajectory(4).cameras().collect();

    // Frame N of a reused session ≡ a one-shot render, and both report
    // every stage window.
    let mut session = Session::new(keying.clone());
    for (index, camera) in cameras.iter().enumerate() {
        let fresh = one_shot(&keying, &scene, camera);
        let frame = session.render(&scene, camera);
        assert_eq!(
            frame.image.max_abs_diff(&fresh.image),
            0.0,
            "{} frame {index} pixels diverged from a one-shot render",
            K::NAME
        );
        assert_eq!(
            frame.stats.counts,
            fresh.stats.counts,
            "{} frame {index} counts diverged from a one-shot render",
            K::NAME
        );
        for (stats, kind) in [(&fresh.stats, "one-shot"), (&frame.stats, "session")] {
            for (window, stage) in [
                (stats.preprocess_time, "preprocess"),
                (stats.identify_time, "identify"),
                (stats.sort_time, "sort"),
                (stats.raster_time, "raster"),
            ] {
                assert!(
                    window > Duration::ZERO,
                    "{} {kind} render left the {stage} window empty",
                    K::NAME
                );
            }
        }
    }

    // Footprint: a second pass over the same trajectory grows nothing.
    let warmed = session.footprint_bytes();
    assert!(warmed > 0);
    for camera in &cameras {
        let _ = session.render(&scene, camera);
        assert_eq!(session.footprint_bytes(), warmed, "{}", K::NAME);
    }

    // Resolution changes between frames.
    for (width, height) in [(64, 48), (96, 64), (64, 48)] {
        let frame = session.render(&scene, &camera(width, height));
        assert_eq!((frame.image.width(), frame.image.height()), (width, height));
    }

    // Through the trait: same frames, the session's label, its footprint.
    let mut backend: Box<dyn RenderBackend> = Box::new(Session::new(keying.clone()));
    assert_eq!(backend.name(), K::NAME);
    for camera in &cameras {
        let fresh = one_shot(&keying, &scene, camera);
        let served = backend
            .render(&RenderRequest::new(&scene, *camera))
            .expect("valid request");
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert_eq!(served.stats.counts, fresh.stats.counts);
    }
    assert!(backend.footprint_bytes() > 0);

    // Malformed input: typed errors, and the backend keeps serving.
    let empty = Scene::new("empty", 32, 32, Vec::new());
    assert_eq!(
        backend
            .render(&RenderRequest::new(&empty, cameras[0]))
            .expect_err("empty scene must be rejected"),
        RenderError::EmptyScene
    );
    let zero_width = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics {
            width: 0,
            ..CameraIntrinsics::from_fov_y(1.0, 64, 48)
        },
    );
    assert!(matches!(
        backend.render(&RenderRequest::new(&scene, zero_width)),
        Err(RenderError::InvalidResolution { .. })
    ));
    assert!(backend
        .render(&RenderRequest::new(&scene, cameras[0]))
        .is_ok());
    let mut bad: Box<dyn RenderBackend> = Box::new(Session::new(bad_grid));
    assert!(matches!(
        bad.render(&RenderRequest::new(&scene, cameras[0])),
        Err(RenderError::InvalidTileSize { tile_size: 0 })
    ));
}

#[test]
fn baseline_session_honours_the_contract() {
    let config = RenderConfig::new(16, BoundaryMethod::Ellipse);
    let mut bad = config;
    bad.tile_size = 0;
    session_contract(Renderer::new(config), Renderer::new(bad), Renderer::render);
}

#[test]
fn gstg_session_honours_the_contract() {
    let config = GstgConfig::paper_default();
    let mut bad = config;
    bad.tile_size = 0;
    session_contract(
        GstgRenderer::new(config),
        GstgRenderer::new(bad),
        GstgRenderer::render,
    );
}
