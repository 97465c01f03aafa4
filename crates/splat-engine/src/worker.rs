//! The persistent worker threads behind [`Engine::submit`](crate::Engine::submit):
//! each drains the job queue onto the one pooled session it owns.

use crate::queue::Job;
use crate::EngineShared;
use splat_core::{RenderBackend, RenderOutput, RenderRequest};
use splat_scene::Scene;
use splat_types::RenderError;
use std::sync::{Arc, Mutex};

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
/// renders the tier scene (the registered scene's prebuilt ladder, or a
/// deterministic on-the-fly derivation for inline submissions), and the
/// half-resolution tier renders at the outward-rounded half camera before
/// a nearest-neighbor upsample restores the requested dimensions — every
/// step bit-reproducible, so a degraded frame is as deterministic as a
/// full-quality one.
fn render_job(
    pool_slot: &Mutex<Box<dyn RenderBackend>>,
    job: &Job,
) -> Result<RenderOutput, RenderError> {
    let derived;
    let scene: &Scene = if job.tier.is_degraded() {
        match job
            .ladder
            .as_ref()
            .and_then(|ladder| ladder.scene(job.tier))
        {
            Some(tier_scene) => tier_scene,
            None => {
                derived = job.tier.apply(&job.scene);
                &derived
            }
        }
    } else {
        &job.scene
    };
    let mut backend = pool_slot
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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
    use crate::{Engine, SubmitRequest};
    use gstg::{GstgConfig, GstgRenderer};
    use splat_core::{RenderBackend, RenderOutput, RenderRequest};
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::{Camera, CameraIntrinsics, RenderError, Vec3};
    use std::sync::Arc;

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
        let camera = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
        );
        let swap = |backend: Box<dyn RenderBackend>| {
            let mut slot = engine.shared.pool[0]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::replace(&mut *slot, backend)
        };

        let real = swap(Box::new(PanickingBackend));
        let error = engine
            .submit(SubmitRequest::new(Arc::clone(&scene), camera))
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
        drop(swap(real));
        let served = engine
            .submit(SubmitRequest::new(Arc::clone(&scene), camera))
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
}
