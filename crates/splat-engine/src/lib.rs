//! Batch-serving front door for the GS-TG rendering pipelines.
//!
//! [`Engine`] is the one entry point a serving deployment needs: it is
//! configured once through a builder ([`Engine::builder`]), owns a pool of
//! recycled per-worker render sessions (so steady-state pipeline scratch
//! never touches the allocator), and serves [`RenderRequest`]s through the
//! backend-agnostic [`RenderBackend`] trait — one at a time
//! ([`Engine::render_one`]) or as a deterministic batch
//! ([`Engine::render_batch`]) fanned out across worker threads via the same
//! [`TileScheduler`] machinery the rasterizers use.
//!
//! Everything is fallible and panic-free: malformed requests (degenerate
//! cameras, zero-dimension intrinsics, empty scenes) and malformed
//! configurations (tile size 0, impossible groupings) come back as typed
//! [`RenderError`]s, which is what lets a server keep serving the rest of a
//! batch when one request is bad.
//!
//! # Quickstart
//!
//! ```
//! use splat_engine::{Backend, Engine};
//! use splat_core::RenderRequest;
//! use splat_scene::{PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, Vec3};
//!
//! let engine = Engine::builder()
//!     .backend(Backend::Gstg)
//!     .threads(2)
//!     .build()?;
//!
//! let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
//! let camera = Camera::try_look_at(
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::Y,
//!     CameraIntrinsics::try_from_fov_y(1.0, 96, 64)?,
//! )?;
//!
//! // One request…
//! let output = engine.render_one(&RenderRequest::new(&scene, camera))?;
//! assert_eq!(output.image.width(), 96);
//!
//! // …or a whole batch, rendered across the worker pool with outputs in
//! // request order.
//! let requests = vec![RenderRequest::new(&scene, camera); 4];
//! let outputs = engine.render_batch(&requests);
//! assert_eq!(outputs.len(), 4);
//! assert!(outputs.iter().all(|r| r.is_ok()));
//! # Ok::<(), splat_types::RenderError>(())
//! ```
//!
//! # Asynchronous serving
//!
//! `render_batch` blocks the caller for the whole batch. A serving
//! deployment instead wants to *submit* work and get on with its life:
//! [`Engine::submit`] enqueues a [`SubmitRequest`] on a bounded job queue
//! drained by persistent worker threads (one per pooled session) and
//! returns a [`JobHandle`] supporting [`wait`](JobHandle::wait),
//! [`try_poll`](JobHandle::try_poll) and [`cancel`](JobHandle::cancel).
//! An [`AdmissionPolicy`] decides what happens at capacity — block the
//! submitter, reject the newcomer, or deterministically shed the
//! cheapest-to-reject queued job ([`RenderError::Overloaded`]) so
//! high-[`Priority`] traffic keeps flowing. [`Engine::stats`] exposes the
//! serving counters and [`Engine::shutdown`] drains or aborts the queue.
//!
//! ```
//! use splat_engine::{Engine, SubmitRequest};
//! use splat_scene::{PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, Priority, Vec3};
//! use std::sync::Arc;
//!
//! let engine = Engine::builder().build()?;
//! let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
//! let camera = Camera::try_look_at(
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::Y,
//!     CameraIntrinsics::try_from_fov_y(1.0, 96, 64)?,
//! )?;
//!
//! let handle = engine.submit(
//!     SubmitRequest::new(Arc::clone(&scene), camera).with_priority(Priority::High),
//! )?;
//! let output = handle.wait()?;
//! assert_eq!(output.image.width(), 96);
//! assert_eq!(engine.stats().completed, 1);
//! # Ok::<(), splat_types::RenderError>(())
//! ```
//!
//! # Scene registry: handle-based serving
//!
//! Shipping an `Arc<Scene>` with every submission works for one tenant,
//! but a deployment serving many users over a shared scene set wants to
//! hand the engine each scene **once**:
//! [`Engine::register_scene`] prepares the scene (footprint, bounds and
//! cost statistics precomputed into a [`PreparedScene`]) and returns a
//! [`SceneId`] that every later job names through [`SceneRef::Id`] — and a
//! [`ResidencyPolicy`] bounds how many scenes (and bytes) stay resident,
//! deflating the least-recently-served scene deterministically when the
//! budget is exceeded. This is the slow-timescale control loop next to
//! per-job admission (the fast one).
//!
//! ```
//! use splat_engine::{Engine, ResidencyPolicy, SubmitRequest};
//! use splat_scene::{PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, Vec3};
//! use std::sync::Arc;
//!
//! let engine = Engine::builder()
//!     .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(8))
//!     .build()?;
//! let id = engine.register_scene(Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0)))?;
//! let camera = Camera::try_look_at(
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::Y,
//!     CameraIntrinsics::try_from_fov_y(1.0, 96, 64)?,
//! )?;
//!
//! // Handle-based serving: the job carries 8 bytes of scene reference.
//! let output = engine.submit(SubmitRequest::new(id, camera))?.wait()?;
//! assert_eq!(output.image.width(), 96);
//! // …and the synchronous counterparts work off the same handle.
//! let again = engine.render_one_registered(id, camera)?;
//! assert_eq!(again.image.max_abs_diff(&output.image), 0.0);
//!
//! engine.evict_scene(id)?;
//! assert!(engine.render_one_registered(id, camera).is_err()); // Evicted
//! # Ok::<(), splat_types::RenderError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod policy;
pub mod registry;
pub mod stats;

mod queue;

pub use job::{JobHandle, JobStatus, SceneRef, SubmitRequest, TrajectoryHandle};
pub use policy::{AdmissionPolicy, QualityPolicy, ShutdownMode};
pub use registry::{PreparedScene, ResidencyPolicy};
pub use splat_scene::lod::{LodLadder, QualityTier};
pub use splat_types::{Priority, SceneId};
pub use stats::EngineStats;

use gstg::{GstgConfig, GstgRenderer, GstgSession};
use queue::JobQueue;
use registry::SceneRegistry;
use splat_core::{ExecutionConfig, RenderBackend, RenderOutput, RenderRequest, TileScheduler};
use splat_render::{RenderConfig, RenderSession, Renderer};
use splat_scene::{CameraTrajectory, Scene};
use splat_types::{Camera, RenderError, Rgb};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default bound of the submission queue when the admission policy does
/// not carry its own capacity (see [`EngineBuilder::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Which rendering pipeline an [`Engine`] serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Backend {
    /// The conventional tile-based 3D-GS pipeline (`splat-render`).
    Baseline,
    /// The paper's tile-grouping pipeline (`gstg`). The default: it renders
    /// the identical image with a fraction of the sorting work.
    #[default]
    Gstg,
}

impl Backend {
    /// Short stable label used in tables and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Baseline => "baseline",
            Backend::Gstg => "gstg",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    backend: Backend,
    baseline: RenderConfig,
    gstg: GstgConfig,
    background: Rgb,
    exec: ExecutionConfig,
    workers: Option<usize>,
    admission: AdmissionPolicy,
    quality: QualityPolicy,
    queue_capacity: usize,
    start_paused: bool,
    residency: ResidencyPolicy,
}

impl EngineBuilder {
    /// Selects the pipeline the engine serves with (default:
    /// [`Backend::Gstg`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the baseline pipeline configuration used when the backend
    /// is [`Backend::Baseline`].
    pub fn render_config(mut self, config: RenderConfig) -> Self {
        self.baseline = config;
        self
    }

    /// Replaces the GS-TG pipeline configuration used when the backend is
    /// [`Backend::Gstg`].
    pub fn gstg_config(mut self, config: GstgConfig) -> Self {
        self.gstg = config;
        self
    }

    /// Sets the background color frames start from (default black).
    pub fn background(mut self, background: Rgb) -> Self {
        self.background = background;
        self
    }

    /// Sets the number of worker threads [`Engine::render_batch`] fans
    /// requests out across (clamped to at least one; default sequential).
    ///
    /// This is the *batch-level* parallelism knob. Each worker renders its
    /// requests with the per-frame thread count of the pipeline
    /// configuration (sequential by default), so total parallelism is
    /// `threads × config.exec.threads`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.exec.threads = threads.max(1);
        self
    }

    /// Overrides the size of the recycled session pool (default: the
    /// batch thread count). More workers than threads lets a later request
    /// proceed while another worker is still mid-frame; fewer makes no
    /// sense and is clamped up to the thread count. The pool size is also
    /// the number of persistent worker threads draining
    /// [`Engine::submit`]'s job queue.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
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
    /// the queue depth at admission and are assigned a [`QualityTier`]
    /// deterministically: the band `[capacity, 2 * capacity)` admits jobs
    /// at degraded tiers *instead of* shedding them, so degradation
    /// strictly precedes rejection. Registered scenes get their LOD
    /// ladders prebuilt at [`Engine::register_scene`] (and charged to the
    /// [`ResidencyPolicy`] budget); inline submissions derive the tier
    /// scene on the fly.
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

    /// Builds the engine with dispatch paused: submissions are admitted
    /// (and shed) normally, but no worker picks a job up until
    /// [`Engine::resume`]. Useful for staging a burst deterministically —
    /// admission control decides the whole burst before any job runs —
    /// and in tests.
    ///
    /// Beware pairing this with the default [`AdmissionPolicy::Block`]:
    /// while paused, nothing drains the queue, so a submitter that fills
    /// it blocks until some *other* thread resumes the engine. To stage a
    /// burst larger than the queue from a single thread, use
    /// [`AdmissionPolicy::RejectWhenFull`] or
    /// [`AdmissionPolicy::ShedLowPriority`], or keep the burst within
    /// [`EngineBuilder::queue_capacity`].
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
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
    /// Returns the [`RenderError`] of the selected pipeline configuration
    /// (e.g. [`RenderError::InvalidTileSize`]) — the engine never holds a
    /// configuration that could panic mid-render — or
    /// [`RenderError::InvalidConfiguration`] when the OS refuses to spawn
    /// a worker thread.
    pub fn build(self) -> Result<Engine, RenderError> {
        self.admission.validate()?;
        self.quality.validate()?;
        self.residency.validate()?;
        let workers = self
            .workers
            .unwrap_or(self.exec.threads)
            .max(self.exec.threads);
        let pool: Vec<Mutex<Box<dyn RenderBackend>>> = match self.backend {
            Backend::Baseline => {
                self.baseline.validate()?;
                (0..workers)
                    .map(|_| {
                        let renderer =
                            Renderer::new(self.baseline).with_background(self.background);
                        Mutex::new(Box::new(RenderSession::new(renderer)) as Box<dyn RenderBackend>)
                    })
                    .collect()
            }
            Backend::Gstg => {
                self.gstg.validate()?;
                (0..workers)
                    .map(|_| {
                        let renderer =
                            GstgRenderer::new(self.gstg).with_background(self.background);
                        Mutex::new(Box::new(GstgSession::new(renderer)) as Box<dyn RenderBackend>)
                    })
                    .collect()
            }
        };
        let shared = Arc::new(EngineShared {
            pool,
            queue: Arc::new(JobQueue::new(
                self.admission,
                self.quality,
                self.queue_capacity,
                self.start_paused,
            )),
            registry: SceneRegistry::new(self.residency, self.quality.can_degrade()),
        });
        let mut worker_threads = Vec::with_capacity(workers);
        for slot in 0..workers {
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
            backend: self.backend,
            exec: self.exec,
            admission: self.admission,
            quality: self.quality,
            shared,
            workers: worker_threads,
            next_worker: AtomicUsize::new(0),
        })
    }
}

/// Everything a persistent worker thread needs — the session pool it
/// renders on and the queue it drains — plus the scene registry the
/// submission path resolves handles against.
struct EngineShared {
    pool: Vec<Mutex<Box<dyn RenderBackend>>>,
    queue: Arc<JobQueue>,
    registry: SceneRegistry,
}

/// The drain loop of one persistent worker thread: pop a job, render it on
/// the thread's dedicated pool slot at its assigned [`QualityTier`],
/// publish the result, repeat until the queue shuts down.
fn worker_loop(shared: &Arc<EngineShared>, slot: usize) {
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
            Err(RenderError::InvalidConfiguration {
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
    job: &queue::Job,
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

/// A batch-serving render engine over a pool of recycled sessions.
///
/// See the [crate-level documentation](crate) for the full story and a
/// quickstart. Engines are `Sync`: one engine can serve requests from many
/// threads — synchronously ([`Engine::render_one`] /
/// [`Engine::render_batch`]) or asynchronously ([`Engine::submit`], backed
/// by persistent worker threads draining a bounded job queue).
///
/// Dropping an engine aborts its queue (queued jobs complete with
/// [`RenderError::ShutDown`]) and joins the workers; call
/// [`Engine::shutdown`] with [`ShutdownMode::Drain`] first to serve the
/// backlog instead.
pub struct Engine {
    backend: Backend,
    exec: ExecutionConfig,
    admission: AdmissionPolicy,
    quality: QualityPolicy,
    shared: Arc<EngineShared>,
    /// Persistent submit-queue workers; drained (joined) on shutdown/drop.
    workers: Vec<JoinHandle<()>>,
    /// Rotating start index for worker selection (see
    /// [`Engine::with_worker`]).
    next_worker: AtomicUsize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend)
            .field("threads", &self.exec.threads)
            .field("workers", &self.shared.pool.len())
            .field("admission", &self.admission)
            .field("quality", &self.quality)
            .field("queue_capacity", &self.shared.queue.capacity())
            .finish()
    }
}

impl Engine {
    /// Starts an engine builder with the default configuration: the GS-TG
    /// backend at the paper's 16+64 grouping, black background, sequential
    /// batch execution, one worker.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            backend: Backend::default(),
            baseline: RenderConfig::default(),
            gstg: GstgConfig::paper_default(),
            background: Rgb::BLACK,
            exec: ExecutionConfig::sequential(),
            workers: None,
            admission: AdmissionPolicy::default(),
            quality: QualityPolicy::default(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            start_paused: false,
            residency: ResidencyPolicy::default(),
        }
    }

    /// The pipeline this engine serves with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Worker threads used by [`Engine::render_batch`].
    pub fn threads(&self) -> usize {
        self.exec.threads
    }

    /// Number of pooled recycled sessions (also the number of persistent
    /// submit-queue worker threads).
    pub fn worker_count(&self) -> usize {
        self.shared.pool.len()
    }

    /// The admission policy applied by [`Engine::submit`].
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The quality policy applied by [`Engine::submit`] (see
    /// [`EngineBuilder::quality`]).
    pub fn quality(&self) -> QualityPolicy {
        self.quality
    }

    /// The submission queue's capacity (maximum queued jobs).
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// The scene registry's residency budget.
    pub fn residency(&self) -> ResidencyPolicy {
        self.shared.registry.policy()
    }

    /// Registers a scene with the engine's scene registry, returning the
    /// [`SceneId`] handle later submissions reference through
    /// [`SceneRef::Id`].
    ///
    /// Registration is the slow-timescale control point: the scene is
    /// prepared once (footprint, bounds and cost statistics precomputed
    /// into a [`PreparedScene`]) and, when the registration pushes the
    /// resident set over the [`ResidencyPolicy`] budget, the registry
    /// deflates deterministically — the least-recently-served scene is
    /// evicted first (never-served before served, ties broken by the
    /// smallest [`SceneId`]; the scene being registered is never its own
    /// victim). Evicted scenes' handles resolve to
    /// [`RenderError::Evicted`] until re-registered; jobs already holding
    /// the scene keep rendering, and the memory is freed when the last
    /// holder drops.
    ///
    /// # Errors
    ///
    /// * [`RenderError::EmptyScene`] — an empty scene could never serve a
    ///   render, so it is refused a handle.
    /// * [`RenderError::InvalidConfiguration`] — the scene's
    ///   [`footprint_bytes`](Scene::footprint_bytes) alone exceeds the
    ///   residency byte budget, so it could never stay resident.
    pub fn register_scene(&self, scene: Arc<Scene>) -> Result<SceneId, RenderError> {
        self.shared.registry.register(scene)
    }

    /// Removes a registered scene from the resident set. Later
    /// resolutions of the handle fail with [`RenderError::Evicted`];
    /// in-flight jobs holding the scene are unaffected.
    ///
    /// # Errors
    ///
    /// * [`RenderError::UnknownScene`] — the handle was never issued by
    ///   this engine.
    /// * [`RenderError::Evicted`] — the scene already left the resident
    ///   set (deflation or a previous eviction).
    pub fn evict_scene(&self, id: SceneId) -> Result<(), RenderError> {
        self.shared.registry.evict(id)
    }

    /// Ids of the currently resident scenes in registration order.
    /// Read-only: recency and the hit/miss counters are untouched, so
    /// observing residency never perturbs eviction order.
    pub fn resident_scenes(&self) -> Vec<SceneId> {
        self.shared.registry.resident()
    }

    /// The precomputed statistics of a resident scene, or `None` when the
    /// handle does not resolve. Read-only like
    /// [`Engine::resident_scenes`].
    pub fn prepared_scene(&self, id: SceneId) -> Option<PreparedScene> {
        self.shared.registry.prepared(id)
    }

    /// Resolves a [`SceneRef`] to the scene a job will own, plus the
    /// prebuilt LOD ladder when one exists: inline refs pass through
    /// untouched (no ladder — a degraded worker derives the tier scene on
    /// the fly), registered handles go through the registry (a miss counts
    /// immediately; the hit and LRU recency commit only once the job is
    /// actually admitted or served).
    fn resolve(
        &self,
        scene: &SceneRef,
    ) -> Result<(Arc<Scene>, Option<Arc<LodLadder>>), RenderError> {
        match scene {
            SceneRef::Inline(scene) => Ok((Arc::clone(scene), None)),
            SceneRef::Id(id) => self.shared.registry.resolve_with_ladder(*id),
        }
    }

    /// Renders one request on the first free pooled session.
    ///
    /// # Errors
    ///
    /// Returns a [`RenderError`] when the request is invalid (see
    /// [`RenderRequest::validate`]); never panics on malformed input.
    pub fn render_one(&self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
        self.with_worker(|backend| backend.render(request))
    }

    /// Renders a slice of requests across the worker pool, returning one
    /// result per request **in request order**.
    ///
    /// Requests fan out over [`TileScheduler`] with the engine's batch
    /// thread count; each scheduled request renders on a free pooled
    /// session. Outputs are deterministic: the scheduler merges results in
    /// request order and every pooled session renders bit-identically to a
    /// fresh renderer, so the batch output is independent of the thread
    /// count and of which worker served which request — the
    /// `backend_parity` integration test pins this down.
    ///
    /// An invalid request yields an `Err` in its slot without affecting
    /// the rest of the batch.
    pub fn render_batch(
        &self,
        requests: &[RenderRequest<'_>],
    ) -> Vec<Result<RenderOutput, RenderError>> {
        let scheduler = TileScheduler::from_exec(&self.exec);
        scheduler.run(requests.len(), |index| {
            self.with_worker(|backend| backend.render(&requests[index]))
        })
    }

    /// Submits one job to the asynchronous serving queue and returns its
    /// [`JobHandle`] without waiting for the render.
    ///
    /// The submission is validated at the door (an invalid request is
    /// refused immediately, never queued) and then admitted under the
    /// engine's [`AdmissionPolicy`]. Persistent worker threads drain the
    /// queue highest-priority-first, FIFO within a class; with the
    /// [`AdmissionPolicy::Block`] policy and a single worker, waiting on
    /// the handles in submission order yields framebuffers bit-identical
    /// to [`Engine::render_batch`] over the same requests (pinned by the
    /// `engine_async` integration test).
    ///
    /// # Errors
    ///
    /// * The request's own [`RenderError`] when it fails validation.
    /// * [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when a
    ///   [`SceneRef::Id`] reference does not resolve — misses are refused
    ///   at the door, never queued.
    /// * [`RenderError::Overloaded`] when admission control refuses the
    ///   submission ([`AdmissionPolicy::RejectWhenFull`], or an incoming
    ///   job that loses the [`AdmissionPolicy::ShedLowPriority`]
    ///   comparison).
    /// * [`RenderError::ShutDown`] after [`Engine::shutdown`] has begun.
    pub fn submit(&self, request: SubmitRequest) -> Result<JobHandle, RenderError> {
        let (scene, ladder) = self.resolve(&request.scene)?;
        let handle = self.submit_resolved(scene, ladder, request.camera, request.priority)?;
        // Only an *admitted* job counts as serving the scene: a submission
        // refused by validation or admission control must not refresh the
        // scene's LRU recency or the hit counter.
        if let SceneRef::Id(id) = request.scene {
            self.shared.registry.commit_serve(id);
        }
        Ok(handle)
    }

    /// Admits one job whose scene reference has already been resolved.
    /// The cost hint is computed from the resolved scene, so handle-based
    /// and inline submissions of the same scene shed identically.
    fn submit_resolved(
        &self,
        scene: Arc<Scene>,
        ladder: Option<Arc<LodLadder>>,
        camera: Camera,
        priority: Priority,
    ) -> Result<JobHandle, RenderError> {
        let render = RenderRequest::new(&scene, camera);
        render.validate()?;
        let cost = render.cost_hint();
        let shared = job::JobShared::new();
        let (id, tier) =
            self.shared
                .queue
                .push(scene, camera, priority, cost, ladder, Arc::clone(&shared))?;
        Ok(JobHandle::new(
            Arc::clone(&self.shared.queue),
            shared,
            id,
            priority,
            tier,
        ))
    }

    /// Fans a whole camera path into per-frame jobs and returns a
    /// [`TrajectoryHandle`] delivering the frames **in path order** —
    /// the shape a video encoder or a streaming client consumes.
    ///
    /// The scene reference is resolved once (one registry touch for the
    /// whole path), then every pose is submitted as its own job at the
    /// given priority, so frames interleave with other traffic under the
    /// normal admission policy and render with whatever parallelism the
    /// engine has. A frame refused by admission control (e.g. shed under
    /// [`AdmissionPolicy::RejectWhenFull`]) still occupies its slot in the
    /// handle and yields its error in order — one bad frame never tears
    /// down the path.
    ///
    /// # Errors
    ///
    /// * [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when a
    ///   [`SceneRef::Id`] reference does not resolve.
    /// * [`RenderError::EmptyScene`] for an inline reference to an empty
    ///   scene.
    pub fn submit_trajectory(
        &self,
        scene: impl Into<SceneRef>,
        trajectory: &CameraTrajectory,
        priority: Priority,
    ) -> Result<TrajectoryHandle, RenderError> {
        let scene_ref = scene.into();
        let (scene, ladder) = self.resolve(&scene_ref)?;
        if scene.is_empty() {
            return Err(RenderError::EmptyScene);
        }
        let frames: Vec<Result<JobHandle, RenderError>> = trajectory
            .cameras()
            .map(|camera| {
                self.submit_resolved(Arc::clone(&scene), ladder.clone(), camera, priority)
            })
            .collect();
        // One recency/hit commit for the whole path — and only if at least
        // one frame was actually admitted.
        if let SceneRef::Id(id) = scene_ref {
            if frames.iter().any(|frame| frame.is_ok()) {
                self.shared.registry.commit_serve(id);
            }
        }
        Ok(TrajectoryHandle::new(frames))
    }

    /// Windowed counterpart of [`Engine::submit_trajectory`] for
    /// streaming delivery across a connection: instead of fanning the
    /// whole path into the queue up front, at most `window` frames are in
    /// flight at a time — submitted lazily as earlier frames are taken
    /// through [`TrajectoryStream::next_frame`].
    ///
    /// This is the backpressure shape a network server needs: a slow
    /// reader holds at most `window` queue slots and `window` rendered
    /// framebuffers, instead of pinning the entire path's worth of worker
    /// output. Delivery is still strictly path order, refused frames still
    /// occupy their slot and yield their error in order, and the scene
    /// reference is still resolved once (one registry touch for the whole
    /// path, committed when the first frame is admitted).
    ///
    /// `window` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// Exactly [`Engine::submit_trajectory`]'s:
    /// [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when a
    /// [`SceneRef::Id`] reference does not resolve, or
    /// [`RenderError::EmptyScene`] for an inline empty scene.
    pub fn stream_trajectory(
        &self,
        scene: impl Into<SceneRef>,
        trajectory: &CameraTrajectory,
        priority: Priority,
        window: usize,
    ) -> Result<TrajectoryStream<'_>, RenderError> {
        let scene_ref = scene.into();
        let (scene, ladder) = self.resolve(&scene_ref)?;
        if scene.is_empty() {
            return Err(RenderError::EmptyScene);
        }
        let mut stream = TrajectoryStream {
            engine: self,
            scene_ref,
            scene,
            ladder,
            cameras: trajectory.cameras().collect::<Vec<Camera>>().into_iter(),
            priority,
            window: window.max(1),
            pending: std::collections::VecDeque::new(),
            len: trajectory.len(),
            delivered: 0,
            committed: false,
        };
        stream.top_up();
        Ok(stream)
    }

    /// Handle-based counterpart of [`Engine::render_one`]: resolves the
    /// registered scene and serves one view of it, bit-identically to the
    /// inline path.
    ///
    /// # Errors
    ///
    /// [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when the
    /// handle does not resolve, otherwise exactly the errors of
    /// [`Engine::render_one`].
    pub fn render_one_registered(
        &self,
        id: SceneId,
        camera: Camera,
    ) -> Result<RenderOutput, RenderError> {
        let scene = self.shared.registry.resolve(id)?;
        let output = self.render_one(&RenderRequest::new(&scene, camera))?;
        // Served successfully: now the scene is most recently served.
        self.shared.registry.commit_serve(id);
        Ok(output)
    }

    /// Handle-based counterpart of [`Engine::render_batch`]: each slot
    /// names its scene by [`SceneId`], outputs come back in request order.
    ///
    /// Handles are resolved up front and served slots commit their
    /// registry recency after the batch **in request order** (so LRU
    /// order — and therefore eviction order — does not depend on worker
    /// timing); a slot whose handle does not resolve fails alone with
    /// [`RenderError::UnknownScene`] / [`RenderError::Evicted`], exactly
    /// like an invalid request in the inline batch path.
    pub fn render_batch_registered(
        &self,
        requests: &[(SceneId, Camera)],
    ) -> Vec<Result<RenderOutput, RenderError>> {
        let resolved: Vec<Result<Arc<Scene>, RenderError>> = requests
            .iter()
            .map(|(id, _)| self.shared.registry.resolve(*id))
            .collect();
        let scheduler = TileScheduler::from_exec(&self.exec);
        let results = scheduler.run(requests.len(), |index| {
            let scene = resolved[index].as_ref().map_err(|error| error.clone())?;
            self.with_worker(|backend| {
                backend.render(&RenderRequest::new(scene, requests[index].1))
            })
        });
        for (index, result) in results.iter().enumerate() {
            if result.is_ok() {
                self.shared.registry.commit_serve(requests[index].0);
            }
        }
        results
    }

    /// A point-in-time snapshot of the serving counters: the job-queue
    /// side (queued/active gauges, cumulative submitted/completed/
    /// rejected/cancelled counts, queue high-water mark) and the scene-
    /// registry side (registered/evicted/hit/miss counters plus the
    /// resident-scenes and resident-bytes gauges).
    pub fn stats(&self) -> EngineStats {
        let queue_side = self.shared.queue.stats();
        self.shared.registry.stats(queue_side)
    }

    /// Pauses dispatch: workers finish their current render, then wait.
    /// Submissions are still admitted (and shed) normally, so a paused
    /// engine stages a burst deterministically. With the
    /// [`AdmissionPolicy::Block`] policy, a submitter that fills the
    /// paused queue blocks until another thread calls [`Engine::resume`]
    /// (see [`EngineBuilder::start_paused`]).
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Resumes dispatch after [`Engine::pause`] (or a
    /// [`EngineBuilder::start_paused`] build).
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// Whether submit-queue dispatch is currently paused.
    pub fn is_paused(&self) -> bool {
        self.shared.queue.is_paused()
    }

    /// Shuts the serving queue down and joins the worker threads,
    /// returning the final counters.
    ///
    /// [`ShutdownMode::Drain`] serves every queued job first (resuming a
    /// paused engine); [`ShutdownMode::Abort`] completes queued jobs'
    /// handles with [`RenderError::ShutDown`] instead. Either way,
    /// submissions racing with the shutdown receive
    /// [`RenderError::ShutDown`] and in-flight renders finish normally.
    /// Dropping an engine without calling this is equivalent to an abort.
    ///
    /// This consumes the engine. A caller that only holds the engine
    /// behind a shared `Arc` — a network server fanning one engine out
    /// across connection threads — cannot consume it; use
    /// [`Engine::begin_shutdown`] there and let the final `Arc` drop join
    /// the workers.
    pub fn shutdown(mut self, mode: ShutdownMode) -> EngineStats {
        self.shared.queue.shutdown(mode);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }

    /// Shared-ownership counterpart of [`Engine::shutdown`]: enters
    /// shutdown through `&self`, so callers holding the engine in an
    /// `Arc<Engine>` can begin a graceful drain without consuming it.
    ///
    /// The queue stops admitting immediately (racing submissions receive
    /// [`RenderError::ShutDown`]); under [`ShutdownMode::Drain`] the
    /// workers then serve the backlog, under [`ShutdownMode::Abort`] the
    /// backlog's handles complete with [`RenderError::ShutDown`]. Worker
    /// threads exit once the queue empties (or immediately on abort) but
    /// are only *joined* when the engine drops — poll
    /// [`Engine::stats`]' [`EngineStats::in_flight`] to observe drain
    /// progress against a deadline. Idempotent, and safe to combine with
    /// a later drop (which re-issues an abort as a no-op).
    pub fn begin_shutdown(&self, mode: ShutdownMode) {
        self.shared.queue.shutdown(mode);
    }

    /// Bytes currently reserved by the pooled sessions' recycled buffers.
    /// Stable once every worker has served the steady-state working set.
    pub fn footprint_bytes(&self) -> usize {
        self.shared
            .pool
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .footprint_bytes()
            })
            .sum()
    }

    /// Runs `work` on a free pooled session.
    ///
    /// Slot selection rotates through the pool (an atomic counter picks the
    /// starting slot), so concurrent callers spread across workers instead
    /// of all hammering slot 0. One fast scan looks for an uncontended
    /// session; if every slot is busy — more concurrent callers than pooled
    /// workers — the caller parks on its rotated slot's lock rather than
    /// spinning. The pool is sized to at least the batch thread count, so
    /// under `render_batch` the scan always finds a free worker.
    ///
    /// A poisoned slot (a caller panicked mid-render, e.g. through a bug in
    /// a pipeline stage) is recovered rather than skipped: sessions rebuild
    /// every buffer from scratch each frame, so a worker abandoned
    /// mid-frame serves the next request correctly — and the engine never
    /// wedges on a lock nobody will unpoison.
    fn with_worker<R>(&self, work: impl FnOnce(&mut dyn RenderBackend) -> R) -> R {
        use std::sync::TryLockError;
        let start = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let workers = self.shared.pool.len();
        for offset in 0..workers {
            match self.shared.pool[(start + offset) % workers].try_lock() {
                Ok(mut guard) => return work(guard.as_mut()),
                Err(TryLockError::Poisoned(poisoned)) => {
                    return work(poisoned.into_inner().as_mut())
                }
                Err(TryLockError::WouldBlock) => {}
            }
        }
        match self.shared.pool[start % workers].lock() {
            Ok(mut guard) => work(guard.as_mut()),
            Err(poisoned) => work(poisoned.into_inner().as_mut()),
        }
    }
}

/// Windowed, in-order streaming of a camera path, created by
/// [`Engine::stream_trajectory`].
///
/// Semantically a [`TrajectoryHandle`] with a bounded in-flight window:
/// frames are still delivered strictly in path order and refused frames
/// still yield their error in their slot, but at most `window` frames
/// occupy queue slots (or sit rendered awaiting delivery) at any moment.
/// Each [`TrajectoryStream::next_frame`] tops the window back up after
/// taking a frame, so workers stay busy exactly `window` frames ahead of
/// the consumer. Dropping the stream abandons undelivered frames without
/// cancelling submitted ones (like dropping a [`JobHandle`]); frames never
/// submitted are simply never admitted.
#[derive(Debug)]
pub struct TrajectoryStream<'a> {
    engine: &'a Engine,
    scene_ref: SceneRef,
    scene: Arc<Scene>,
    ladder: Option<Arc<splat_scene::lod::LodLadder>>,
    cameras: std::vec::IntoIter<Camera>,
    priority: Priority,
    window: usize,
    pending: std::collections::VecDeque<Result<JobHandle, RenderError>>,
    len: usize,
    delivered: usize,
    committed: bool,
}

impl TrajectoryStream<'_> {
    /// Total number of frames in the trajectory.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the trajectory has no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Frames already taken through [`TrajectoryStream::next_frame`].
    pub fn frames_delivered(&self) -> usize {
        self.delivered
    }

    /// The configured in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Submits frames until the window is full or the path is exhausted.
    /// A refused submission (admission control, or a shutdown racing the
    /// stream) occupies its window slot like an admitted one, so delivery
    /// order is preserved and the refusal surfaces in its frame's turn.
    fn top_up(&mut self) {
        while self.pending.len() < self.window {
            let Some(camera) = self.cameras.next() else {
                return;
            };
            let frame = self.engine.submit_resolved(
                Arc::clone(&self.scene),
                self.ladder.clone(),
                camera,
                self.priority,
            );
            // One recency/hit commit for the whole path, on the first
            // admitted frame — same accounting as `submit_trajectory`.
            if frame.is_ok() && !self.committed {
                if let SceneRef::Id(id) = self.scene_ref {
                    self.engine.shared.registry.commit_serve(id);
                }
                self.committed = true;
            }
            self.pending.push_back(frame);
        }
    }

    /// Blocks for the next frame **in path order**, returns it along with
    /// the [`QualityTier`] admission assigned it (`None` for a frame that
    /// was refused admission), and tops the in-flight window back up.
    /// Returns `None` once every frame has been delivered.
    pub fn next_frame_tiered(
        &mut self,
    ) -> Option<(Option<QualityTier>, Result<RenderOutput, RenderError>)> {
        self.top_up();
        let frame = self.pending.pop_front()?;
        self.delivered += 1;
        let delivered = match frame {
            Ok(handle) => {
                let tier = handle.tier();
                (Some(tier), handle.wait())
            }
            Err(error) => (None, Err(error)),
        };
        // Re-fill before the caller consumes the frame so the window stays
        // ahead of a slow reader.
        self.top_up();
        Some(delivered)
    }

    /// Blocks for the next frame **in path order** and returns it, or
    /// `None` once every frame has been delivered.
    pub fn next_frame(&mut self) -> Option<Result<RenderOutput, RenderError>> {
        self.next_frame_tiered().map(|(_, result)| result)
    }

    /// Waits for every remaining frame and returns them in path order.
    pub fn wait_all(mut self) -> Vec<Result<RenderOutput, RenderError>> {
        let mut outputs = Vec::with_capacity(self.len - self.delivered);
        while let Some(frame) = self.next_frame() {
            outputs.push(frame);
        }
        outputs
    }
}

impl Drop for Engine {
    /// Aborts the queue (pending handles complete with
    /// [`RenderError::ShutDown`]) and joins the worker threads. A no-op
    /// after [`Engine::shutdown`].
    fn drop(&mut self) {
        self.shared.queue.shutdown(ShutdownMode::Abort);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_core::HasExecution as _;
    use splat_scene::{CameraTrajectory, PaperScene, Scene, SceneScale};
    use splat_types::{Camera, CameraIntrinsics, Vec3};

    fn trajectory(views: usize) -> CameraTrajectory {
        CameraTrajectory::orbit(
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
            Vec3::new(0.0, 0.0, 6.0),
            4.0,
            0.6,
            views,
        )
    }

    #[test]
    fn builder_defaults_are_gstg_sequential() {
        let engine = Engine::builder().build().expect("default engine");
        assert_eq!(engine.backend(), Backend::Gstg);
        assert_eq!(engine.threads(), 1);
        assert_eq!(engine.worker_count(), 1);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let mut bad = GstgConfig::paper_default();
        bad.tile_size = 0;
        assert!(matches!(
            Engine::builder().gstg_config(bad).build(),
            Err(RenderError::InvalidTileSize { tile_size: 0 })
        ));
        let mut bad = RenderConfig::default();
        bad.tile_size = 7;
        assert!(Engine::builder()
            .backend(Backend::Baseline)
            .render_config(bad)
            .build()
            .is_err());
    }

    #[test]
    fn pool_is_at_least_the_thread_count() {
        let engine = Engine::builder().threads(4).workers(2).build().unwrap();
        assert_eq!(engine.worker_count(), 4);
        let engine = Engine::builder().threads(2).workers(6).build().unwrap();
        assert_eq!(engine.worker_count(), 6);
    }

    #[test]
    fn render_one_matches_a_fresh_renderer_for_both_backends() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 1);
        let camera = trajectory(1).camera(0);
        let request = RenderRequest::new(&scene, camera);

        let engine = Engine::builder()
            .backend(Backend::Baseline)
            .build()
            .unwrap();
        let fresh = Renderer::new(RenderConfig::default()).render(&scene, &camera);
        let served = engine.render_one(&request).expect("valid request");
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert_eq!(served.stats.counts, fresh.stats.counts);

        let engine = Engine::builder().backend(Backend::Gstg).build().unwrap();
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        let served = engine.render_one(&request).expect("valid request");
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert_eq!(served.stats.counts, fresh.stats.counts);
    }

    #[test]
    fn batch_outputs_are_in_request_order_and_thread_invariant() {
        let scene = PaperScene::Train.build(SceneScale::Tiny, 3);
        let cameras: Vec<Camera> = trajectory(6).cameras().collect();
        let requests: Vec<RenderRequest<'_>> = cameras
            .iter()
            .map(|camera| RenderRequest::new(&scene, *camera))
            .collect();

        let sequential = Engine::builder().threads(1).build().unwrap();
        let parallel = Engine::builder().threads(4).build().unwrap();
        let a = sequential.render_batch(&requests);
        let b = parallel.render_batch(&requests);
        assert_eq!(a.len(), requests.len());
        for (index, (left, right)) in a.iter().zip(&b).enumerate() {
            let left = left.as_ref().expect("valid request");
            let right = right.as_ref().expect("valid request");
            assert_eq!(
                left.image.max_abs_diff(&right.image),
                0.0,
                "request {index} diverged across thread counts"
            );
            assert_eq!(left.stats.counts, right.stats.counts);
            // And each slot matches its own camera, i.e. order was kept.
            let fresh =
                GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &cameras[index]);
            assert_eq!(left.image.max_abs_diff(&fresh.image), 0.0);
        }
    }

    #[test]
    fn invalid_requests_fail_their_slot_only() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let empty = Scene::new("empty", 64, 48, Vec::new());
        let camera = trajectory(1).camera(0);
        let degenerate = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 5.0, 0.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 64, 48),
        );
        let requests = [
            RenderRequest::new(&scene, camera),
            RenderRequest::new(&empty, camera),
            RenderRequest::new(&scene, degenerate),
            RenderRequest::new(&scene, camera),
        ];
        let engine = Engine::builder().threads(2).build().unwrap();
        let results = engine.render_batch(&requests);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err(), &RenderError::EmptyScene);
        assert!(matches!(
            results[2].as_ref().unwrap_err(),
            RenderError::DegenerateCamera { .. }
        ));
        assert!(results[3].is_ok());
        let first = results[0].as_ref().unwrap();
        let last = results[3].as_ref().unwrap();
        assert_eq!(first.image.max_abs_diff(&last.image), 0.0);
    }

    #[test]
    fn poisoned_worker_is_recovered_not_wedged() {
        let engine = Engine::builder().build().expect("default engine");
        assert_eq!(engine.worker_count(), 1);
        // Poison the only pool slot by panicking while holding its lock —
        // the stand-in for a panic inside a pipeline stage.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.shared.pool[0].lock().unwrap();
            panic!("mid-render panic");
        }));
        assert!(result.is_err());
        assert!(engine.shared.pool[0].is_poisoned());
        // The engine recovers the worker instead of spinning forever, and
        // the recovered session still renders correctly (every buffer is
        // rebuilt per frame).
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 1);
        let camera = trajectory(1).camera(0);
        let served = engine
            .render_one(&RenderRequest::new(&scene, camera))
            .expect("poisoned worker must serve again");
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert!(engine.footprint_bytes() > 0);
    }

    #[test]
    fn more_concurrent_callers_than_workers_all_get_served() {
        // A 1-worker engine under 4 concurrent render_one callers: the
        // overflow callers park on the busy lock (no deadlock, no spin
        // requirement) and every call succeeds with identical pixels.
        let engine = Engine::builder().build().expect("default engine");
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 4);
        let camera = trajectory(1).camera(0);
        let reference = engine
            .render_one(&RenderRequest::new(&scene, camera))
            .expect("valid request");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        engine
                            .render_one(&RenderRequest::new(&scene, camera))
                            .expect("valid request")
                    })
                })
                .collect();
            for handle in handles {
                let output = handle.join().expect("no panic");
                assert_eq!(output.image.max_abs_diff(&reference.image), 0.0);
                assert_eq!(output.stats.counts, reference.stats.counts);
            }
        });
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::builder().threads(4).build().unwrap();
        assert!(engine.render_batch(&[]).is_empty());
    }

    #[test]
    fn submit_serves_a_job_and_counts_it() {
        let engine = Engine::builder().build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 2));
        let camera = trajectory(1).camera(0);
        let handle = engine
            .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
            .expect("valid submission");
        assert_eq!(handle.priority(), splat_types::Priority::Normal);
        let output = handle.wait().expect("render succeeds");
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(output.image.max_abs_diff(&fresh.image), 0.0);
        let stats = engine.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.in_flight(), 0);
        assert_eq!(stats.queue_high_water, 1);
    }

    #[test]
    fn submit_rejects_invalid_requests_at_the_door() {
        let engine = Engine::builder().build().unwrap();
        let empty = std::sync::Arc::new(Scene::new("empty", 64, 48, Vec::new()));
        let camera = trajectory(1).camera(0);
        let error = engine
            .submit(SubmitRequest::new(empty, camera))
            .expect_err("empty scene must be refused");
        assert_eq!(error, RenderError::EmptyScene);
        // Refused submissions never touch the queue.
        assert_eq!(engine.stats().submitted, 0);
    }

    #[test]
    fn try_poll_transitions_none_to_some_and_keeps_the_result() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let camera = trajectory(1).camera(0);
        let handle = engine
            .submit(SubmitRequest::new(scene, camera))
            .expect("valid submission");
        assert_eq!(handle.status(), JobStatus::Queued);
        assert!(handle.try_poll().is_none(), "paused engine: still queued");
        engine.resume();
        while handle.try_poll().is_none() {
            std::thread::yield_now();
        }
        assert!(handle.is_finished());
        // Polling clones; the handle still owns the result for wait().
        let polled = handle.try_poll().unwrap().expect("render succeeds");
        let waited = handle.wait().expect("render succeeds");
        assert_eq!(polled.image.max_abs_diff(&waited.image), 0.0);
    }

    #[test]
    fn cancel_withdraws_a_queued_job() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let camera = trajectory(1).camera(0);
        let victim = engine
            .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
            .unwrap();
        let survivor = engine
            .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
            .unwrap();
        assert!(victim.cancel());
        assert!(!victim.cancel(), "cancelling twice finds nothing");
        engine.resume();
        assert_eq!(victim.wait().unwrap_err(), RenderError::Cancelled);
        assert!(survivor.wait().is_ok());
        let stats = engine.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn drain_shutdown_serves_the_backlog() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| {
                engine
                    .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
                    .unwrap()
            })
            .collect();
        // Drain resumes the paused queue, serves all three, then stops.
        let stats = engine.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.in_flight(), 0);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn abort_shutdown_fails_queued_jobs_with_shut_down() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handle = engine
            .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
            .unwrap();
        let stats = engine.shutdown(ShutdownMode::Abort);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(handle.wait().unwrap_err(), RenderError::ShutDown);
    }

    #[test]
    fn dropping_the_engine_aborts_outstanding_jobs() {
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handle = {
            let engine = Engine::builder().start_paused(true).build().unwrap();
            engine
                .submit(SubmitRequest::new(std::sync::Arc::clone(&scene), camera))
                .unwrap()
            // Engine dropped here: abort + join.
        };
        assert_eq!(handle.wait().unwrap_err(), RenderError::ShutDown);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let engine = Engine::builder().build().unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let camera = trajectory(1).camera(0);
        // Shutdown consumes the engine; re-create the submission path via a
        // second engine whose queue is already draining.
        let stats = engine.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.submitted, 0);
        let engine = Engine::builder().start_paused(true).build().unwrap();
        engine.shared.queue.shutdown(ShutdownMode::Drain);
        assert_eq!(
            engine
                .submit(SubmitRequest::new(scene, camera))
                .expect_err("draining queue refuses new work"),
            RenderError::ShutDown
        );
    }

    #[test]
    fn registered_handle_serves_bit_identically_to_inline() {
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 2));
        let camera = trajectory(1).camera(0);
        let engine = Engine::builder().build().unwrap();
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();

        let inline = engine
            .submit(SubmitRequest::new(Arc::clone(&scene), camera))
            .unwrap()
            .wait()
            .unwrap();
        let by_id = engine
            .submit(SubmitRequest::new(id, camera))
            .unwrap()
            .wait()
            .unwrap();
        let sync = engine.render_one_registered(id, camera).unwrap();
        assert_eq!(by_id.image.max_abs_diff(&inline.image), 0.0);
        assert_eq!(sync.image.max_abs_diff(&inline.image), 0.0);
        assert_eq!(by_id.stats.counts, inline.stats.counts);

        let stats = engine.stats();
        assert_eq!(stats.registered, 1);
        assert_eq!(stats.resident_scenes, 1);
        assert_eq!(stats.scene_hits, 2, "one submit + one render_one");
        assert_eq!(stats.scene_misses, 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn submitting_an_unknown_or_evicted_handle_is_refused_at_the_door() {
        let engine = Engine::builder().build().unwrap();
        let camera = trajectory(1).camera(0);
        let bogus = SceneId::from_raw(7);
        assert_eq!(
            engine
                .submit(SubmitRequest::new(bogus, camera))
                .expect_err("never registered"),
            RenderError::UnknownScene { id: bogus }
        );
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let id = engine.register_scene(scene).unwrap();
        engine.evict_scene(id).unwrap();
        assert_eq!(
            engine
                .submit(SubmitRequest::new(id, camera))
                .expect_err("evicted"),
            RenderError::Evicted { id }
        );
        let stats = engine.stats();
        assert_eq!(stats.submitted, 0, "misses never touch the queue");
        assert_eq!(stats.scene_misses, 2);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
    }

    #[test]
    fn refused_submissions_count_neither_hits_nor_recency() {
        // A full RejectWhenFull queue refuses handle-based submissions:
        // those must not count scene hits or refresh LRU recency, so
        // rejected traffic cannot keep a scene resident.
        let engine = Engine::builder()
            .admission(AdmissionPolicy::RejectWhenFull)
            .queue_capacity(1)
            .start_paused(true)
            .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(2))
            .build()
            .unwrap();
        let camera = trajectory(1).camera(0);
        let a = engine
            .register_scene(Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0)))
            .unwrap();
        let b = engine
            .register_scene(Arc::new(PaperScene::Train.build(SceneScale::Tiny, 1)))
            .unwrap();
        // Admit one job for `b` (a hit), filling the queue…
        let _queued = engine.submit(SubmitRequest::new(b, camera)).unwrap();
        // …then hammer `a` with submissions that are all refused.
        for _ in 0..3 {
            assert!(matches!(
                engine.submit(SubmitRequest::new(a, camera)),
                Err(RenderError::Overloaded { .. })
            ));
        }
        let stats = engine.stats();
        assert_eq!(stats.scene_hits, 1, "only the admitted job is a hit");
        // `a` never actually served a job, so it (not `b`) deflates.
        let c = engine
            .register_scene(Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 2)))
            .unwrap();
        assert_eq!(engine.resident_scenes(), vec![b, c]);
    }

    #[test]
    fn render_batch_registered_fails_bad_slots_alone() {
        let engine = Engine::builder().threads(2).build().unwrap();
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        let bogus = SceneId::from_raw(99);
        let results =
            engine.render_batch_registered(&[(id, camera), (bogus, camera), (id, camera)]);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &RenderError::UnknownScene { id: bogus }
        );
        assert!(results[2].is_ok());
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(
            results[0]
                .as_ref()
                .unwrap()
                .image
                .max_abs_diff(&fresh.image),
            0.0
        );
    }

    #[test]
    fn residency_budget_deflates_the_least_recently_served_scene() {
        let engine = Engine::builder()
            .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(2))
            .build()
            .unwrap();
        let camera = trajectory(1).camera(0);
        let a = engine
            .register_scene(Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0)))
            .unwrap();
        let b = engine
            .register_scene(Arc::new(PaperScene::Train.build(SceneScale::Tiny, 1)))
            .unwrap();
        // Serving `a` makes `b` the deflation victim of the next register.
        engine.render_one_registered(a, camera).unwrap();
        let c = engine
            .register_scene(Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 2)))
            .unwrap();
        assert_eq!(engine.resident_scenes(), vec![a, c]);
        assert_eq!(
            engine.render_one_registered(b, camera).unwrap_err(),
            RenderError::Evicted { id: b }
        );
        let stats = engine.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.resident_scenes, 2);
    }

    #[test]
    fn eviction_does_not_disturb_in_flight_jobs() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 3));
        let camera = trajectory(1).camera(0);
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        // The job resolved (and pinned) the scene at submission…
        let handle = engine.submit(SubmitRequest::new(id, camera)).unwrap();
        // …so evicting it mid-queue must not affect the render.
        engine.evict_scene(id).unwrap();
        engine.resume();
        let output = handle.wait().expect("pinned scene renders");
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(output.image.max_abs_diff(&fresh.image), 0.0);
    }

    #[test]
    fn prepared_scene_statistics_are_observable_without_perturbing_lru() {
        let engine = Engine::builder().build().unwrap();
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        let prepared = engine.prepared_scene(id).expect("resident");
        assert_eq!(prepared.id(), id);
        assert_eq!(prepared.splat_count(), scene.len());
        assert_eq!(prepared.footprint_bytes(), scene.footprint_bytes());
        assert_eq!(
            prepared.cost_hint(96, 64),
            RenderRequest::new(&scene, trajectory(1).camera(0)).cost_hint()
        );
        // Observability is not a serve: no hits were counted.
        assert_eq!(engine.stats().scene_hits, 0);
        assert!(engine.prepared_scene(SceneId::from_raw(9)).is_none());
    }

    #[test]
    fn submit_trajectory_delivers_frames_in_path_order() {
        let engine = Engine::builder().workers(3).build().unwrap();
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 5));
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        let path = trajectory(5);
        let mut handle = engine
            .submit_trajectory(id, &path, Priority::Normal)
            .unwrap();
        assert_eq!(handle.len(), 5);
        assert_eq!(handle.frames_delivered(), 0);
        for index in 0..path.len() {
            let frame = handle
                .next_frame()
                .expect("frame available")
                .expect("valid render");
            let fresh =
                GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &path.camera(index));
            assert_eq!(
                frame.image.max_abs_diff(&fresh.image),
                0.0,
                "frame {index} out of order or wrong"
            );
        }
        assert!(handle.next_frame().is_none());
        assert_eq!(handle.frames_delivered(), 5);
        // One registry touch for the whole path.
        assert_eq!(engine.stats().scene_hits, 1);
    }

    #[test]
    fn submit_trajectory_misses_and_cancellation() {
        let engine = Engine::builder().start_paused(true).build().unwrap();
        let path = trajectory(3);
        let bogus = SceneId::from_raw(1);
        assert_eq!(
            engine
                .submit_trajectory(bogus, &path, Priority::Normal)
                .expect_err("unknown handle"),
            RenderError::UnknownScene { id: bogus }
        );
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let handle = engine
            .submit_trajectory(Arc::clone(&scene), &path, Priority::Low)
            .unwrap();
        assert_eq!(handle.cancel_remaining(), 3, "all frames still queued");
        engine.resume();
        let outputs = handle.wait_all();
        assert_eq!(outputs.len(), 3);
        for frame in outputs {
            assert_eq!(frame.unwrap_err(), RenderError::Cancelled);
        }
    }

    #[test]
    fn trajectory_frames_refused_by_admission_keep_their_slot() {
        // Capacity-1 reject-when-full queue, paused: only the first frame
        // is admitted, the rest are refused — and still delivered as
        // in-order errors.
        let engine = Engine::builder()
            .admission(AdmissionPolicy::RejectWhenFull)
            .queue_capacity(1)
            .start_paused(true)
            .build()
            .unwrap();
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let path = trajectory(3);
        let handle = engine
            .submit_trajectory(Arc::clone(&scene), &path, Priority::Normal)
            .unwrap();
        engine.resume();
        let outputs = handle.wait_all();
        assert!(outputs[0].is_ok());
        for frame in &outputs[1..] {
            assert!(matches!(
                frame.as_ref().unwrap_err(),
                RenderError::Overloaded { .. }
            ));
        }
    }

    #[test]
    fn begin_shutdown_drains_through_shared_ownership() {
        // The server shape: the engine lives in an Arc shared across
        // connection threads, so the consuming `shutdown(self)` is
        // unreachable — `begin_shutdown(&self)` must drain in its place.
        let engine = Arc::new(Engine::builder().start_paused(true).build().unwrap());
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| {
                engine
                    .submit(SubmitRequest::new(Arc::clone(&scene), camera))
                    .unwrap()
            })
            .collect();
        engine.begin_shutdown(ShutdownMode::Drain);
        // Racing submissions are refused immediately.
        assert_eq!(
            engine
                .submit(SubmitRequest::new(Arc::clone(&scene), camera))
                .expect_err("draining engine refuses new work"),
            RenderError::ShutDown
        );
        // The backlog is served: every handle resolves successfully.
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.in_flight(), 0);
        // Idempotent, and compatible with the final drop's abort.
        engine.begin_shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn job_handles_expose_their_admission_tier() {
        let engine = Engine::builder()
            .quality(QualityPolicy::Pinned(QualityTier::Tier2))
            .build()
            .unwrap();
        let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let handle = engine
            .submit(SubmitRequest::new(scene, trajectory(1).camera(0)))
            .unwrap();
        assert_eq!(handle.tier(), QualityTier::Tier2);
        assert!(handle.wait().is_ok());
        assert_eq!(engine.stats().degraded_t2, 1);
    }

    #[test]
    fn stream_trajectory_is_windowed_in_order_and_bit_identical() {
        let engine = Engine::builder().workers(2).build().unwrap();
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 5));
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        let path = trajectory(5);
        let mut stream = engine
            .stream_trajectory(id, &path, Priority::Normal, 2)
            .unwrap();
        assert_eq!(stream.len(), 5);
        assert_eq!(stream.window(), 2);
        assert_eq!(stream.frames_delivered(), 0);
        for index in 0..path.len() {
            // The in-flight window bounds queue occupancy: never more than
            // `window` frames queued or rendering at once.
            assert!(engine.stats().in_flight() <= 2, "window exceeded");
            let (tier, frame) = stream.next_frame_tiered().expect("frame available");
            assert_eq!(tier, Some(QualityTier::Full));
            let frame = frame.expect("valid render");
            let fresh =
                GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &path.camera(index));
            assert_eq!(
                frame.image.max_abs_diff(&fresh.image),
                0.0,
                "frame {index} out of order or wrong"
            );
        }
        assert!(stream.next_frame().is_none());
        assert_eq!(stream.frames_delivered(), 5);
        // One registry touch for the whole path, like submit_trajectory.
        assert_eq!(engine.stats().scene_hits, 1);
    }

    #[test]
    fn stream_trajectory_misses_and_refusals_keep_their_slot() {
        let engine = Engine::builder()
            .admission(AdmissionPolicy::RejectWhenFull)
            .queue_capacity(1)
            .start_paused(true)
            .build()
            .unwrap();
        let path = trajectory(3);
        let bogus = SceneId::from_raw(1);
        assert_eq!(
            engine
                .stream_trajectory(bogus, &path, Priority::Normal, 4)
                .expect_err("unknown handle"),
            RenderError::UnknownScene { id: bogus }
        );
        // Window 4 over a capacity-1 paused queue: frame 0 is admitted,
        // frames 1 and 2 are refused — and still delivered in order.
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let stream = engine
            .stream_trajectory(Arc::clone(&scene), &path, Priority::Normal, 4)
            .unwrap();
        engine.resume();
        let outputs = stream.wait_all();
        assert_eq!(outputs.len(), 3);
        assert!(outputs[0].is_ok());
        for frame in &outputs[1..] {
            assert!(matches!(
                frame.as_ref().unwrap_err(),
                RenderError::Overloaded { .. }
            ));
        }
    }

    #[test]
    fn engine_respects_per_frame_thread_configs() {
        // Batch threads × per-frame threads: outputs must stay bit-exact.
        let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 1);
        let cameras: Vec<Camera> = trajectory(3).cameras().collect();
        let requests: Vec<RenderRequest<'_>> = cameras
            .iter()
            .map(|camera| RenderRequest::new(&scene, *camera))
            .collect();
        let reference = Engine::builder().build().unwrap().render_batch(&requests);
        let nested = Engine::builder()
            .threads(2)
            .gstg_config(GstgConfig::paper_default().with_threads(2))
            .build()
            .unwrap()
            .render_batch(&requests);
        for (a, b) in reference.iter().zip(&nested) {
            let a = a.as_ref().unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(a.image.max_abs_diff(&b.image), 0.0);
            assert_eq!(a.stats.counts, b.stats.counts);
        }
    }
}
