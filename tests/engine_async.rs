//! Integration tests for the serving path: `Engine::submit` must be
//! invisible in the pixels (identical to a local session), and admission
//! control must deflate over-capacity load deterministically.

use gs_tg::prelude::*;
use std::sync::Arc;

/// Registers `scene` with `engine` and returns its handle.
fn registered(engine: &Engine, scene: &Arc<Scene>) -> SceneId {
    engine
        .register_scene(Arc::clone(scene))
        .expect("valid scene registers")
}

fn trajectory(views: usize) -> CameraTrajectory {
    CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 96, 64),
        Vec3::new(0.0, 0.0, 6.0),
        4.0,
        0.6,
        views,
    )
}

/// Acceptance: with the `Block` policy and a single worker, waiting on the
/// handles in submission order yields framebuffers (and `StageCounts`)
/// bit-identical to a local GS-TG session rendering the same requests in
/// the same order — and the pixels of a local baseline session.
#[test]
fn submit_with_block_policy_and_one_worker_matches_a_local_session() {
    let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 7));
    let cameras: Vec<Camera> = trajectory(6).cameras().collect();

    let config = GstgConfig::paper_default();
    let mut local: Box<dyn RenderBackend> = Box::new(GstgSession::from_config(config));
    let mut baseline: Box<dyn RenderBackend> =
        Box::new(RenderSession::from_config(config.equivalent_baseline()));

    let engine = Engine::builder()
        .admission(AdmissionPolicy::Block)
        .build()
        .unwrap();
    assert_eq!(engine.worker_count(), 1);
    let id = registered(&engine, &scene);
    let handles: Vec<JobHandle> = cameras
        .iter()
        .map(|camera| {
            engine
                .submit(SubmitRequest::new(id, *camera))
                .expect("valid submission")
        })
        .collect();

    for (index, (handle, camera)) in handles.into_iter().zip(&cameras).enumerate() {
        let submitted = handle.wait().expect("valid request");
        let request = RenderRequest::new(&scene, *camera);
        let direct = local.render(&request).expect("valid request");
        assert_eq!(
            submitted.image.max_abs_diff(&direct.image),
            0.0,
            "request {index} diverged between submit and the local session"
        );
        assert_eq!(
            submitted.stats.counts, direct.stats.counts,
            "request {index} counted differently"
        );
        let reference = baseline.render(&request).expect("valid request");
        assert_eq!(
            submitted.image.max_abs_diff(&reference.image),
            0.0,
            "request {index} diverged from the local baseline session"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, cameras.len() as u64);
    assert_eq!(stats.rejected, 0);
}

/// Acceptance: `ShedLowPriority` rejects exactly the lowest-priority jobs
/// with `RenderError::Overloaded` while higher-priority jobs complete.
#[test]
fn shed_low_priority_rejects_exactly_the_lowest_priority_jobs() {
    let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 3));
    let camera = trajectory(1).camera(0);

    // Paused engine: the whole burst is admitted (and deflated) before any
    // job runs, so the outcome depends only on the admission rule.
    let engine = Engine::builder()
        .admission(AdmissionPolicy::ShedLowPriority { capacity: 3 })
        .build()
        .unwrap();
    engine.pause();
    let id = registered(&engine, &scene);

    // Three low-priority jobs fill the queue…
    let low: Vec<JobHandle> = (0..3)
        .map(|_| {
            engine
                .submit(SubmitRequest::new(id, camera).with_priority(Priority::Low))
                .expect("queue has room")
        })
        .collect();
    // …then three high-priority jobs arrive. Each evicts one queued
    // low-priority job (all same cost, so youngest-first within the class).
    let high: Vec<JobHandle> = (0..3)
        .map(|_| {
            engine
                .submit(SubmitRequest::new(id, camera).with_priority(Priority::High))
                .expect("shedding admits the higher-priority job")
        })
        .collect();
    // A fourth low-priority submission is refused at the door: it would
    // itself be the cheapest to reject.
    let refused = engine
        .submit(SubmitRequest::new(id, camera).with_priority(Priority::Low))
        .expect_err("queue full of higher-priority work");
    assert_eq!(refused, RenderError::Overloaded { capacity: 3 });

    engine.resume();

    // Every high-priority job completes with real pixels…
    let reference = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
    for handle in high {
        assert_eq!(handle.priority(), Priority::High);
        let output = handle.wait().expect("high priority jobs must be served");
        assert_eq!(output.image.max_abs_diff(&reference.image), 0.0);
    }
    // …and every low-priority job was shed with the typed overload error.
    for handle in low {
        assert_eq!(
            handle.wait().expect_err("low priority jobs must be shed"),
            RenderError::Overloaded { capacity: 3 }
        );
    }

    let stats = engine.stats();
    assert_eq!(stats.submitted, 6, "3 low + 3 high were admitted");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 4, "3 shed from the queue + 1 at the door");
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.queue_high_water, 3);
}

/// MPMC under contention: many submitting threads, several workers, every
/// job completes with pixels identical to a fresh renderer.
#[test]
fn concurrent_submitters_all_get_identical_pixels() {
    let scene = Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 2));
    let camera = trajectory(1).camera(0);
    let engine = Engine::builder().workers(3).build().unwrap();
    let id = registered(&engine, &scene);
    let reference = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = &engine;
                scope.spawn(move || {
                    (0..3)
                        .map(|_| {
                            engine
                                .submit(SubmitRequest::new(id, camera))
                                .expect("valid submission")
                                .wait()
                                .expect("render succeeds")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in handles {
            for output in thread.join().expect("no panic") {
                assert_eq!(output.image.max_abs_diff(&reference.image), 0.0);
                assert_eq!(output.stats.counts, reference.stats.counts);
            }
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.rejected, 0);
    let final_stats = engine.shutdown(ShutdownMode::Drain);
    assert_eq!(final_stats.completed, 12);
}

/// Priorities jump the queue: with dispatch paused, a later critical job
/// runs before an earlier low one (observed through completion order on a
/// single worker).
#[test]
fn critical_jobs_dispatch_before_earlier_low_jobs() {
    let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
    let camera = trajectory(1).camera(0);
    let engine = Engine::builder().build().unwrap();
    engine.pause();
    let id = registered(&engine, &scene);
    let low = engine
        .submit(SubmitRequest::new(id, camera).with_priority(Priority::Low))
        .unwrap();
    let critical = engine
        .submit(SubmitRequest::new(id, camera).with_priority(Priority::Critical))
        .unwrap();
    engine.resume();
    // The critical job finishes first even though it was submitted second:
    // by the time its result is visible, the low job may or may not have
    // started, but it cannot have *finished* before the critical one.
    let critical_output = critical.wait().expect("render succeeds");
    assert!(critical_output.image.pixel_count() > 0);
    let low_output = low.wait().expect("render succeeds");
    assert_eq!(
        low_output.image.max_abs_diff(&critical_output.image),
        0.0,
        "same request, same pixels, regardless of dispatch order"
    );
    assert_eq!(engine.stats().completed, 2);
}
