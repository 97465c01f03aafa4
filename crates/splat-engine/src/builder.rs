//! [`EngineBuilder`]: the one place an [`Engine`] is configured.
//!
//! The builder validates every policy and pipeline configuration before
//! anything is allocated, builds the pool of recycled sessions and spawns
//! one persistent worker thread per pooled session — an engine never holds
//! a configuration that could panic mid-render.

use crate::policy::{AdmissionPolicy, QualityPolicy, ShutdownMode};
use crate::queue::JobQueue;
use crate::registry::{ResidencyPolicy, SceneRegistry};
use crate::sync::LeafMutex;
use crate::worker::worker_loop;
use crate::{Engine, EngineShared, DEFAULT_QUEUE_CAPACITY};
use gstg::{GstgConfig, GstgSession};
use splat_core::RenderBackend;
use splat_types::RenderError;
use std::sync::Arc;

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    gstg: GstgConfig,
    workers: usize,
    admission: AdmissionPolicy,
    quality: QualityPolicy,
    queue_capacity: usize,
    residency: ResidencyPolicy,
}

impl EngineBuilder {
    /// The default configuration behind [`Engine::builder`].
    pub(crate) fn new() -> Self {
        Self {
            gstg: GstgConfig::paper_default(),
            workers: 1,
            admission: AdmissionPolicy::default(),
            quality: QualityPolicy::default(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            residency: ResidencyPolicy::default(),
        }
    }

    /// Replaces the GS-TG pipeline configuration every pooled session
    /// renders with (default [`GstgConfig::paper_default`]). The engine
    /// serves the GS-TG pipeline only; the baseline it is lossless against
    /// is a local `splat_render::RenderSession`.
    pub fn gstg_config(mut self, config: GstgConfig) -> Self {
        self.gstg = config;
        self
    }

    /// Sets the number of persistent worker threads draining
    /// [`Engine::submit`]'s job queue, each rendering on its own recycled
    /// session (clamped to at least one; default one).
    ///
    /// This is the *job-level* parallelism knob. Each worker renders its
    /// jobs with the per-frame thread count of the pipeline configuration
    /// (sequential by default), so total parallelism is
    /// `workers × config.exec.threads`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects what [`Engine::submit`] does when the job queue is at
    /// capacity (default [`AdmissionPolicy::Block`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Selects how [`Engine::submit`] trades quality for admission under
    /// queue pressure (default [`QualityPolicy::FullOnly`]: every job
    /// renders at full quality and overload handling falls entirely to the
    /// admission policy).
    ///
    /// With [`QualityPolicy::DegradeUnderPressure`], submissions observe
    /// the queue depth at admission and are assigned a
    /// [`QualityTier`](crate::QualityTier) deterministically: the band
    /// `[capacity, 2 * capacity)` admits jobs at degraded tiers *instead
    /// of* shedding them, so degradation strictly precedes rejection.
    /// Scenes get their LOD ladders prebuilt at
    /// [`Engine::register_scene`] (and charged to the [`ResidencyPolicy`]
    /// budget), so no job ever derives a tier scene.
    pub fn quality(mut self, policy: QualityPolicy) -> Self {
        self.quality = policy;
        self
    }

    /// Bounds the submission queue for the [`AdmissionPolicy::Block`] and
    /// [`AdmissionPolicy::RejectWhenFull`] policies (clamped to at least
    /// one; default [`DEFAULT_QUEUE_CAPACITY`]).
    /// [`AdmissionPolicy::ShedLowPriority`] carries its own capacity and
    /// ignores this knob.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the scene registry's residency budget (default: unlimited).
    /// When a registration pushes the resident set over either bound, the
    /// least-recently-served scene is deflated (see
    /// [`Engine::register_scene`]).
    pub fn residency(mut self, policy: ResidencyPolicy) -> Self {
        self.residency = policy;
        self
    }

    /// Validates the configuration and builds the engine, allocating its
    /// worker pool (the sessions themselves allocate lazily on first use)
    /// and spawning one persistent worker thread per pooled session to
    /// drain the submission queue.
    ///
    /// # Errors
    ///
    /// Returns the [`RenderError`] of the pipeline configuration
    /// (e.g. [`RenderError::InvalidTileSize`]) — the engine never holds a
    /// configuration that could panic mid-render — or
    /// [`RenderError::InvalidConfiguration`] when the OS refuses to spawn
    /// a worker thread.
    pub fn build(self) -> Result<Engine, RenderError> {
        self.admission.validate()?;
        self.residency.validate()?;
        self.gstg.validate()?;
        let pool = (0..self.workers)
            .map(|_| {
                LeafMutex::new(
                    "pool slot",
                    Box::new(GstgSession::from_config(self.gstg)) as Box<dyn RenderBackend>,
                )
            })
            .collect();
        let shared = Arc::new(EngineShared {
            pool,
            queue: Arc::new(JobQueue::new(
                self.admission,
                self.quality,
                self.queue_capacity,
            )),
            registry: SceneRegistry::new(self.residency, self.quality.can_degrade()),
        });
        let mut worker_threads = Vec::with_capacity(self.workers);
        for slot in 0..self.workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("splat-engine-worker-{slot}"))
                .spawn(move || worker_loop(&worker_shared, slot))
            {
                Ok(thread) => worker_threads.push(thread),
                Err(error) => {
                    // Don't leak the workers that did spawn: they are
                    // parked in `pop` and would otherwise live (with the
                    // whole session pool) for the rest of the process.
                    shared.queue.shutdown(ShutdownMode::Abort);
                    for thread in worker_threads {
                        let _ = thread.join();
                    }
                    return Err(RenderError::InvalidConfiguration {
                        reason: format!("failed to spawn engine worker thread: {error}"),
                    });
                }
            }
        }
        Ok(Engine {
            admission: self.admission,
            quality: self.quality,
            shared,
            workers: worker_threads,
        })
    }
}
