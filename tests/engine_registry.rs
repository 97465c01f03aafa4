//! Integration tests for handle-based serving: a registered scene must be
//! invisible in the pixels — bit-identical to a local session — at worker
//! counts 1 and 4, and eviction must follow the pinned deterministic order
//! under a fixed interleaving.

use gs_tg::prelude::*;
use std::sync::Arc;

fn trajectory(views: usize) -> CameraTrajectory {
    CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 96, 64),
        Vec3::new(0.0, 0.0, 6.0),
        4.0,
        0.6,
        views,
    )
}

/// Acceptance: a burst submitted by handle produces the framebuffers and
/// `StageCounts` of a local session, at 1 and 4 workers.
#[test]
fn handle_based_serving_is_bit_identical_to_a_local_session() {
    for workers in [1usize, 4] {
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 11));
        let cameras: Vec<Camera> = trajectory(5).cameras().collect();

        let engine = Engine::builder().workers(workers).build().unwrap();
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();

        let mut local: Box<dyn RenderBackend> =
            Box::new(GstgSession::from_config(GstgConfig::paper_default()));
        let reference: Vec<RenderOutput> = cameras
            .iter()
            .map(|camera| {
                local
                    .render(&RenderRequest::new(&scene, *camera))
                    .expect("valid request")
            })
            .collect();

        // One burst by handle, waited in submission order.
        let handles: Vec<JobHandle> = cameras
            .iter()
            .map(|camera| {
                engine
                    .submit(SubmitRequest::new(id, *camera))
                    .expect("submission admitted")
            })
            .collect();
        let by_id: Vec<Result<RenderOutput, RenderError>> =
            handles.into_iter().map(JobHandle::wait).collect();

        for (index, (reference, candidate)) in reference.iter().zip(&by_id).enumerate() {
            let output = candidate
                .as_ref()
                .unwrap_or_else(|error| panic!("w={workers} frame {index}: {error}"));
            assert_eq!(
                output.image.max_abs_diff(&reference.image),
                0.0,
                "w={workers}: frame {index} diverged from the local session"
            );
            assert_eq!(
                output.stats.counts, reference.stats.counts,
                "w={workers}: frame {index} counted differently"
            );
        }

        // Registry accounting: every serve was a hit, and the declared
        // identities hold.
        let stats = engine.stats();
        assert_eq!(stats.scene_hits, cameras.len() as u64);
        assert_eq!(stats.scene_misses, 0);
        assert_eq!(stats.registered, 1);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "w={workers}: {identity}");
        }
    }
}

/// Acceptance: under a fixed interleaving of register/serve operations the
/// eviction order is deterministic — least-recently-served first,
/// never-served before served, ties by smallest `SceneId` — and identical
/// across engines.
#[test]
fn eviction_order_is_deterministic_under_a_fixed_interleaving() {
    let camera = trajectory(1).camera(0);
    let run = || {
        let engine = Engine::builder()
            .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(3))
            .build()
            .unwrap();
        let scenes: Vec<Arc<Scene>> = (0..6)
            .map(|seed| Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, seed)))
            .collect();
        // Ids are epoch-salted per registry, so the log records each
        // resident scene's *registration position* rather than raw values.
        let issued: Vec<SceneId> = scenes
            .iter()
            .take(3)
            .map(|scene| engine.register_scene(Arc::clone(scene)).unwrap())
            .collect();
        let mut issued = issued;
        let snapshot = |engine: &Engine, issued: &[SceneId]| -> Vec<u64> {
            engine
                .resident_scenes()
                .iter()
                .map(|id| {
                    issued
                        .iter()
                        .position(|candidate| candidate == id)
                        .expect("resident id was issued here") as u64
                })
                .collect()
        };
        let mut log: Vec<Vec<u64>> = Vec::new();
        let a = issued[0];
        let b = issued[1];
        log.push(snapshot(&engine, &issued));
        // Serve b then a: c is now the only never-served resident.
        for id in [b, a] {
            engine
                .submit(SubmitRequest::new(id, camera))
                .unwrap()
                .wait()
                .unwrap();
        }
        // d evicts c (never served).
        issued.push(engine.register_scene(Arc::clone(&scenes[3])).unwrap());
        log.push(snapshot(&engine, &issued));
        // e evicts d: newcomer protection only covers a scene's own
        // registration, so the never-served d is the LRU victim next time.
        issued.push(engine.register_scene(Arc::clone(&scenes[4])).unwrap());
        log.push(snapshot(&engine, &issued));
        issued.push(engine.register_scene(Arc::clone(&scenes[5])).unwrap());
        log.push(snapshot(&engine, &issued));
        (log, engine.stats())
    };

    let (log_a, stats_a) = run();
    let (log_b, stats_b) = run();
    assert_eq!(log_a, log_b, "the interleaving must replay identically");
    // Pinned expectations, by registration position 0..6. After
    // registering 0,1,2 all three are resident. Serving 1 then 0 leaves 2
    // never-served, so registering 3 evicts 2. Registering 4 evicts 3
    // (never-served, no longer protected). Registering 5 evicts 4 for the
    // same reason.
    assert_eq!(
        log_a,
        vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 1, 4], vec![0, 1, 5]]
    );
    assert_eq!(stats_a.evicted, 3);
    assert_eq!(stats_a.registered, 6);
    for (identity, left, right) in stats_a.identities() {
        assert_eq!(left, right, "{identity}");
    }
    assert_eq!(stats_a, stats_b);
}

/// A whole-path window (every frame submitted up front) still delivers in
/// path order even when later frames finish first (several workers
/// racing), and the whole path costs one registry hit.
#[test]
fn trajectory_frames_arrive_in_path_order_across_workers() {
    let scene = Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 4));
    let engine = Engine::builder().workers(4).build().unwrap();
    let id = engine.register_scene(Arc::clone(&scene)).unwrap();
    let path = trajectory(8);
    let outputs = engine
        .stream_trajectory(id, &path, Priority::High, path.len())
        .unwrap()
        .wait_all();
    assert_eq!(outputs.len(), path.len());
    for (index, output) in outputs.iter().enumerate() {
        let frame = output.as_ref().expect("valid render");
        let fresh =
            GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &path.camera(index));
        assert_eq!(
            frame.image.max_abs_diff(&fresh.image),
            0.0,
            "frame {index} delivered out of order"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.scene_hits, 1, "one resolve for the whole path");
    assert_eq!(stats.completed, path.len() as u64);
}
