//! The persistent worker threads behind [`Engine::submit`](crate::Engine::submit):
//! each drains the job queue onto the one pooled session it owns.

use crate::queue::Job;
use crate::sync::LeafMutex;
use crate::EngineShared;
use splat_core::{RenderBackend, RenderOutput, RenderRequest};
use splat_scene::Scene;
use splat_types::RenderError;
use std::sync::Arc;

/// The drain loop of one persistent worker thread: pop a job, render it on
/// the thread's dedicated pool slot at its assigned
/// [`QualityTier`](crate::QualityTier), publish the result, repeat until
/// the queue shuts down.
pub(crate) fn worker_loop(shared: &Arc<EngineShared>, slot: usize) {
    while let Some(job) = shared.queue.pop() {
        // A panicking backend (a pipeline bug — the documented contract is
        // typed errors, never panics) must not take the worker thread down
        // with it: waiters on the job would deadlock and the queue would
        // silently lose a drain. Catch the panic, fail the one job, keep
        // serving. The slot's poisoned lock is recovered on the next
        // render — sessions rebuild every buffer per frame.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            render_job(&shared.pool[slot], &job)
        }))
        .unwrap_or_else(|_| {
            Err(RenderError::BackendFault {
                reason: "backend panicked mid-render (pipeline bug); job aborted".to_owned(),
            })
        });
        shared.queue.mark_completed(job.tier);
        job.shared.finish(result);
    }
}

/// Serves one popped job at its admission-assigned tier: a degraded job
/// renders the tier scene of the ladder prebuilt at registration (no job
/// derives a scene), and the half-resolution tier renders at the
/// outward-rounded half camera before a nearest-neighbor upsample restores
/// the requested dimensions — every step bit-reproducible, so a degraded
/// frame is as deterministic as a full-quality one.
fn render_job(
    pool_slot: &LeafMutex<Box<dyn RenderBackend>>,
    job: &Job,
) -> Result<RenderOutput, RenderError> {
    let scene: &Scene = if job.tier.is_degraded() {
        // A tier is degraded only under a `QualityPolicy` that can
        // degrade, and under one every registration builds the ladder.
        job.ladder
            .as_ref()
            .and_then(|ladder| ladder.scene(job.tier))
            .ok_or_else(|| RenderError::BackendFault {
                reason: format!("job admitted at {} without a LOD ladder", job.tier),
            })?
    } else {
        &job.scene
    };
    let mut backend = pool_slot.lock();
    if job.tier.half_resolution() {
        let half = job.camera.half_resolution();
        let mut output = backend.render(&RenderRequest::new(scene, half))?;
        output.image = output
            .image
            .upsample_nearest(job.camera.width(), job.camera.height());
        Ok(output)
    } else {
        backend.render(&RenderRequest::new(scene, job.camera))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, QualityPolicy, QualityTier, SubmitRequest};
    use gstg::{GstgConfig, GstgRenderer, GstgSession};
    use splat_core::{RenderBackend, RenderOutput, RenderRequest};
    use splat_scene::{PaperScene, Scene, SceneScale};
    use splat_types::{Camera, CameraIntrinsics, RenderError, Vec3};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
        )
    }

    /// Puts `backend` into the engine's only pool slot, returning the old
    /// occupant.
    fn swap(engine: &Engine, backend: Box<dyn RenderBackend>) -> Box<dyn RenderBackend> {
        std::mem::replace(&mut *engine.shared.pool[0].lock(), backend)
    }

    /// The pipeline bug `worker_loop` guards against, on demand.
    struct PanickingBackend;

    impl RenderBackend for PanickingBackend {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn render(&mut self, _: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
            panic!("injected pipeline bug");
        }
    }

    #[test]
    fn a_panicking_backend_fails_its_job_and_the_worker_keeps_serving() {
        let engine = Engine::builder().build().expect("default engine");
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let id = engine.register_scene(Arc::clone(&scene)).expect("valid");
        let camera = camera();

        let real = swap(&engine, Box::new(PanickingBackend));
        let error = engine
            .submit(SubmitRequest::new(id, camera))
            .expect("admitted")
            .wait()
            .expect_err("the panic surfaces as the job's typed error");
        assert!(
            matches!(&error, RenderError::BackendFault { reason }
                if reason.starts_with("backend panicked")),
            "{error:?}"
        );
        // The panic unwound through the slot's guard.
        assert!(engine.shared.pool[0].is_poisoned());

        // Same worker thread, real session back in its (poisoned) slot.
        drop(swap(&engine, real));
        let served = engine
            .submit(SubmitRequest::new(id, camera))
            .expect("admitted")
            .wait()
            .expect("the worker survived");
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert_eq!(served.stats.counts, fresh.stats.counts);

        let stats = engine.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2, "the failed job still completed");
        assert_eq!(stats.in_flight(), 0);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
    }

    /// A real session that notes which scene it was handed.
    struct RecordingBackend {
        inner: GstgSession,
        rendered: Arc<AtomicUsize>,
    }

    impl RenderBackend for RecordingBackend {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn render(&mut self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
            let address = request.scene as *const Scene as usize;
            self.rendered.store(address, Ordering::SeqCst);
            RenderBackend::render(&mut self.inner, request)
        }
    }

    #[test]
    fn a_degraded_job_renders_the_ladder_scene_built_at_registration() {
        let engine = Engine::builder()
            .quality(QualityPolicy::Pinned(QualityTier::Tier2))
            .build()
            .expect("valid engine");
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let id = engine.register_scene(scene).expect("valid");
        let (_, ladder) = engine
            .shared
            .registry
            .resolve_with_ladder(id)
            .expect("resident");
        let ladder = ladder.expect("a degrading policy builds ladders");
        let tier2 = ladder.scene(QualityTier::Tier2).expect("a degraded tier");

        let rendered = Arc::new(AtomicUsize::new(0));
        drop(swap(
            &engine,
            Box::new(RecordingBackend {
                inner: GstgSession::from_config(GstgConfig::paper_default()),
                rendered: Arc::clone(&rendered),
            }),
        ));
        engine
            .submit(SubmitRequest::new(id, camera()))
            .expect("admitted")
            .wait()
            .expect("served");
        // The very allocation the registry holds: no job derives a scene.
        assert_eq!(rendered.load(Ordering::SeqCst), Arc::as_ptr(tier2) as usize);
    }
}
