//! Integration test: backend parity behind the `RenderBackend` trait.
//!
//! Every way of serving a view — the two boxed session backends
//! (`baseline-session`, `gstg-session`) and the serving `Engine` (which
//! holds the GS-TG pipeline) at 1 and 4 workers — must produce
//! **bit-identical**
//! framebuffers and identical `StageCounts` for the same scene and
//! trajectory: the trait and the engine are pure plumbing, never observable
//! in the pixels. (One-shot renders are sessions with a fresh arena, so
//! there is no renderer-vs-session dimension; `tests/session_contract.rs`
//! pins frame N of a reused session against a one-shot render.)

use gs_tg::prelude::*;

fn trajectory(views: usize) -> CameraTrajectory {
    CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 160, 120),
        Vec3::new(0.0, 0.0, 6.0),
        4.5,
        0.9,
        views,
    )
}

/// Renders the trajectory through a `dyn RenderBackend` and returns the
/// outputs.
fn drive(backend: &mut dyn RenderBackend, scene: &Scene, cameras: &[Camera]) -> Vec<RenderOutput> {
    cameras
        .iter()
        .map(|camera| {
            backend
                .render(&RenderRequest::new(scene, *camera))
                .unwrap_or_else(|error| {
                    panic!("{} rejected a valid request: {error}", backend.name())
                })
        })
        .collect()
}

/// Registers the scene, submits the trajectory to the engine and waits
/// the handles in submission order.
fn serve(engine: &Engine, scene: &std::sync::Arc<Scene>, cameras: &[Camera]) -> Vec<RenderOutput> {
    let id = engine
        .register_scene(std::sync::Arc::clone(scene))
        .expect("valid scene registers");
    let handles: Vec<JobHandle> = cameras
        .iter()
        .map(|camera| {
            engine
                .submit(SubmitRequest::new(id, *camera))
                .expect("valid submission")
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.wait().expect("valid request"))
        .collect()
}

#[test]
fn every_backend_renders_identical_frames() {
    let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 11));
    let cameras: Vec<Camera> = trajectory(4).cameras().collect();
    let gstg_config = GstgConfig::paper_default();
    let baseline_config = gstg_config.equivalent_baseline();

    // The two dyn backends: one recycled session per keying.
    let mut backends: Vec<Box<dyn RenderBackend>> = vec![
        Box::new(RenderSession::from_config(baseline_config)),
        Box::new(GstgSession::from_config(gstg_config)),
    ];
    let mut outputs: Vec<(String, Vec<RenderOutput>)> = backends
        .iter_mut()
        .map(|backend| {
            let name = backend.name().to_owned();
            let frames = drive(backend.as_mut(), &scene, &cameras);
            (name, frames)
        })
        .collect();

    // Through the Engine, 1 and 4 workers: which worker serves which job
    // is timing; the frames must not know.
    for workers in [1usize, 4] {
        let engine = Engine::builder()
            .gstg_config(gstg_config)
            .workers(workers)
            .build()
            .expect("valid engine configuration");
        outputs.push((
            format!("engine-gstg-w{workers}"),
            serve(&engine, &scene, &cameras),
        ));
    }

    // Pixels: every backend (including GS-TG — losslessness) matches the
    // first one bit-exactly, frame by frame.
    let (reference_name, reference_frames) = &outputs[0];
    for (name, frames) in &outputs[1..] {
        assert_eq!(frames.len(), reference_frames.len());
        for (index, (frame, reference)) in frames.iter().zip(reference_frames).enumerate() {
            assert_eq!(
                frame.image.max_abs_diff(&reference.image),
                0.0,
                "{name} frame {index} diverged from {reference_name}"
            );
        }
    }

    // Counts: identical within each pipeline family (GS-TG counts bitmask
    // work the baseline does not have, so families differ by design).
    let family = |name: &str| {
        if name.contains("gstg") {
            "gstg"
        } else {
            "baseline"
        }
    };
    for (name, frames) in &outputs[1..] {
        let (reference_name, reference_frames) = outputs
            .iter()
            .find(|(other, _)| family(other) == family(name))
            .expect("every family has a first member");
        if reference_name == name {
            continue;
        }
        for (index, (frame, reference)) in frames.iter().zip(reference_frames).enumerate() {
            assert_eq!(
                frame.stats.counts, reference.stats.counts,
                "{name} frame {index} counts diverged from {reference_name}"
            );
        }
    }
}

#[test]
fn invalid_requests_error_instead_of_panicking_everywhere() {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
    let empty = Scene::new("empty", 64, 48, Vec::new());
    let good = trajectory(1).camera(0);
    let degenerate = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 5.0, 0.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 64, 48),
    );
    let zero_res = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics {
            width: 0,
            ..CameraIntrinsics::from_fov_y(1.0, 64, 48)
        },
    );

    let config = GstgConfig::paper_default();
    let mut backends: Vec<Box<dyn RenderBackend>> = vec![
        Box::new(RenderSession::from_config(config.equivalent_baseline())),
        Box::new(GstgSession::from_config(config)),
    ];
    for backend in &mut backends {
        assert_eq!(
            backend
                .render(&RenderRequest::new(&empty, good))
                .expect_err("empty scene must be rejected"),
            RenderError::EmptyScene,
            "{}",
            backend.name()
        );
        assert!(
            matches!(
                backend.render(&RenderRequest::new(&scene, degenerate)),
                Err(RenderError::DegenerateCamera { .. })
            ),
            "{}",
            backend.name()
        );
        assert!(
            matches!(
                backend.render(&RenderRequest::new(&scene, zero_res)),
                Err(RenderError::InvalidResolution { .. })
            ),
            "{}",
            backend.name()
        );
        // And the backend still serves valid requests afterwards.
        assert!(backend.render(&RenderRequest::new(&scene, good)).is_ok());
    }
}
