//! Serving front door for the GS-TG rendering pipelines.
//!
//! [`Engine`] is the one entry point a serving deployment needs: it is
//! configured once through a builder ([`Engine::builder`]), owns a pool of
//! recycled per-worker render sessions (so steady-state pipeline scratch
//! never touches the allocator), and renders **only through its queue**:
//! [`Engine::submit`] enqueues one [`SubmitRequest`] on a bounded job queue
//! drained by persistent worker threads (one per pooled session) and
//! returns a [`JobHandle`] supporting [`wait`](JobHandle::wait) and
//! [`cancel`](JobHandle::cancel);
//! [`Engine::stream_trajectory`] does the same for a whole camera path
//! behind a bounded in-flight window. Every render is therefore admitted,
//! tiered, counted and stoppable — there is no side door around admission
//! control, the quality ladder, [`Engine::pause`] or shutdown.
//!
//! An [`AdmissionPolicy`] decides what happens at capacity — block the
//! submitter, reject the newcomer, or deterministically shed the
//! cheapest-to-reject queued job ([`RenderError::Overloaded`]) so
//! high-[`Priority`] traffic keeps flowing. [`Engine::stats`] exposes the
//! serving counters and [`Engine::shutdown`] drains or aborts the queue.
//!
//! Everything is fallible and panic-free: malformed requests (degenerate
//! cameras, zero-dimension intrinsics, empty scenes) are refused at the
//! door and malformed configurations (tile size 0, impossible groupings)
//! at [`EngineBuilder::build`], both as typed [`RenderError`]s.
//!
//! The engine serves the GS-TG pipeline. A caller holding a borrowed
//! `&Scene` with no need of a queue does not need an engine at all: a
//! `gstg::GstgSession` is the same recycled frame loop the workers run,
//! behind the same [`RenderBackend`] trait — and the baseline GS-TG is
//! lossless against is a local `splat_render::RenderSession`.
//!
//! ```
//! use splat_engine::{Engine, SubmitRequest};
//! use splat_scene::{CameraTrajectory, PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, Priority, Vec3};
//! use std::sync::Arc;
//!
//! let engine = Engine::builder().workers(2).build()?;
//! // A scene is handed to the engine once and named by its handle after.
//! let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
//! let scene = engine.register_scene(scene)?;
//! let intrinsics = CameraIntrinsics::try_from_fov_y(1.0, 96, 64)?;
//! let camera = Camera::try_look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), Vec3::Y, intrinsics)?;
//!
//! // One job…
//! let handle = engine.submit(SubmitRequest::new(scene, camera).with_priority(Priority::High))?;
//! let output = handle.wait()?;
//! assert_eq!(output.image.width(), 96);
//!
//! // …or a camera path, delivered in path order with at most two frames
//! // in flight.
//! let path = CameraTrajectory::orbit(intrinsics, Vec3::new(0.0, 0.0, 6.0), 4.0, 0.6, 4);
//! let frames = engine
//!     .stream_trajectory(scene, &path, Priority::Normal, 2)?
//!     .wait_all();
//! assert!(frames.iter().all(|frame| frame.is_ok()));
//! assert_eq!(engine.stats().completed, 5);
//! # Ok::<(), splat_types::RenderError>(())
//! ```
//!
//! # Scene registry: handle-based serving
//!
//! A deployment serving many users over a shared scene set hands the
//! engine each scene **once**:
//! [`Engine::register_scene`] prepares the scene (footprint, bounds and
//! cost statistics precomputed into a [`PreparedScene`], the LOD ladder
//! prebuilt when the [`QualityPolicy`] can degrade) and returns the
//! [`SceneId`] every later job names it by — and a
//! [`ResidencyPolicy`] bounds how many scenes (and bytes) stay resident,
//! deflating the least-recently-served scene deterministically when the
//! budget is exceeded. This is the slow-timescale control loop next to
//! per-job admission (the fast one).
//!
//! ```
//! use splat_engine::{Engine, ResidencyPolicy, SubmitRequest};
//! use splat_scene::{PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, RenderError, Vec3};
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
//!
//! // An evicted handle is refused at the door, never queued.
//! engine.evict_scene(id)?;
//! assert_eq!(
//!     engine.submit(SubmitRequest::new(id, camera)).unwrap_err(),
//!     RenderError::Evicted { id },
//! );
//! # Ok::<(), splat_types::RenderError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod job;
mod policy;
mod registry;
mod stats;

mod builder;
mod queue;
mod sync;
mod worker;

pub use builder::EngineBuilder;
pub use job::{JobHandle, SubmitRequest, TrajectoryStream};
pub use policy::{AdmissionPolicy, QualityPolicy, ShutdownMode};
pub use registry::{PreparedScene, ResidencyPolicy};
pub use splat_scene::QualityTier;
pub use stats::EngineStats;

use queue::JobQueue;
use registry::SceneRegistry;
use splat_core::{RenderBackend, RenderRequest};
use splat_scene::{CameraTrajectory, LodLadder, Scene};
use splat_types::{Camera, Priority, RenderError, SceneId};
use std::sync::Arc;
use std::thread::JoinHandle;
use sync::LeafMutex;

/// Default bound of the submission queue when the admission policy does
/// not carry its own capacity (see [`EngineBuilder::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Everything a persistent worker thread needs — the session pool it
/// renders on and the queue it drains — plus the scene registry the
/// submission path resolves handles against.
struct EngineShared {
    /// One recycled session per worker thread. A slot is locked only by
    /// the worker that owns it (and by [`Engine::footprint_bytes`]).
    pool: Vec<LeafMutex<Box<dyn RenderBackend>>>,
    queue: Arc<JobQueue>,
    registry: SceneRegistry,
}

/// A serving render engine: a bounded, admission-controlled job queue
/// drained by persistent worker threads over a pool of recycled sessions.
///
/// See the [crate-level documentation](crate) for the full story and a
/// quickstart. Engines are `Sync`: one engine can serve submissions from
/// many threads, and every render enters through [`Engine::submit`] or
/// [`Engine::stream_trajectory`].
///
/// Dropping an engine aborts its queue (queued jobs complete with
/// [`RenderError::ShutDown`]) and joins the workers; call
/// [`Engine::shutdown`] with [`ShutdownMode::Drain`] first to serve the
/// backlog instead.
pub struct Engine {
    admission: AdmissionPolicy,
    quality: QualityPolicy,
    shared: Arc<EngineShared>,
    /// Persistent submit-queue workers; drained (joined) on shutdown/drop.
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.shared.pool.len())
            .field("admission", &self.admission)
            .field("quality", &self.quality)
            .field("queue_capacity", &self.shared.queue.capacity())
            .finish()
    }
}

impl Engine {
    /// Starts an engine builder with the default configuration: the GS-TG
    /// pipeline at the paper's 16+64 grouping, one worker, blocking
    /// admission at full quality.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Number of pooled recycled sessions, which is the number of
    /// persistent worker threads draining the submission queue.
    pub fn worker_count(&self) -> usize {
        self.shared.pool.len()
    }

    /// Registers a scene with the engine's scene registry, returning the
    /// [`SceneId`] handle submissions name it by.
    ///
    /// Registration is the slow-timescale control point: the scene is
    /// prepared once (footprint, bounds and cost statistics precomputed
    /// into a [`PreparedScene`], with the LOD ladder when the
    /// [`QualityPolicy`] can degrade) and, when the registration pushes the
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

    /// Submits one job to the asynchronous serving queue and returns its
    /// [`JobHandle`] without waiting for the render.
    ///
    /// The submission is validated at the door (an invalid request is
    /// refused immediately, never queued) and then admitted under the
    /// engine's [`AdmissionPolicy`]. Persistent worker threads drain the
    /// queue highest-priority-first, FIFO within a class; with the
    /// [`AdmissionPolicy::Block`] policy and a single worker, execution
    /// order is submission order, and at any worker count every frame is
    /// bit-identical to a local session rendering the same request
    /// (pinned by the `engine_async` and `backend_parity` integration
    /// tests).
    ///
    /// # Errors
    ///
    /// * The request's own [`RenderError`] when it fails validation.
    /// * [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when the
    ///   scene handle does not resolve — misses are refused at the door
    ///   (and counted), never queued.
    /// * [`RenderError::Overloaded`] when admission control refuses the
    ///   submission ([`AdmissionPolicy::RejectWhenFull`], or an incoming
    ///   job that loses the [`AdmissionPolicy::ShedLowPriority`]
    ///   comparison).
    /// * [`RenderError::ShutDown`] after [`Engine::shutdown`] has begun.
    pub fn submit(&self, request: SubmitRequest) -> Result<JobHandle, RenderError> {
        let (scene, ladder) = self.shared.registry.resolve_with_ladder(request.scene)?;
        let handle = self.submit_resolved(scene, ladder, request.camera, request.priority)?;
        // Only an *admitted* job counts as serving the scene: a submission
        // refused by validation or admission control must not refresh the
        // scene's LRU recency or the hit counter.
        self.shared.registry.commit_serve(request.scene);
        Ok(handle)
    }

    /// Admits one job whose scene handle has already been resolved.
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

    /// Fans a camera path into per-frame jobs and returns a
    /// [`TrajectoryStream`] delivering the frames **in path order** — the
    /// shape a video encoder or a streaming client consumes — with at most
    /// `window` frames in flight at a time: frames are submitted lazily as
    /// earlier ones are taken through [`TrajectoryStream::next_frame`].
    ///
    /// This is the backpressure shape a network server needs: a slow
    /// reader holds at most `window` queue slots and `window` rendered
    /// framebuffers, instead of pinning the entire path's worth of worker
    /// output (pass `trajectory.len()` to fan the whole path out up
    /// front). The scene handle is resolved once (one registry touch
    /// for the whole path, committed when the first frame is admitted),
    /// then every pose is submitted as its own job at the given priority,
    /// so frames interleave with other traffic under the normal admission
    /// policy and render with whatever parallelism the engine has. A frame
    /// refused by admission control (e.g. under
    /// [`AdmissionPolicy::RejectWhenFull`]) still occupies its slot and
    /// yields its error in order — one bad frame never tears down the
    /// path.
    ///
    /// `window` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// [`RenderError::UnknownScene`] / [`RenderError::Evicted`] when the
    /// scene handle does not resolve.
    pub fn stream_trajectory(
        &self,
        scene: SceneId,
        trajectory: &CameraTrajectory,
        priority: Priority,
        window: usize,
    ) -> Result<TrajectoryStream<'_>, RenderError> {
        let (resolved, ladder) = self.shared.registry.resolve_with_ladder(scene)?;
        Ok(TrajectoryStream::new(
            self, scene, resolved, ladder, trajectory, priority, window,
        ))
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
    /// engine stages a burst deterministically: `build()` then `pause()`
    /// before the first submission, and admission control decides the
    /// whole burst before any job runs.
    ///
    /// Beware pairing this with the default [`AdmissionPolicy::Block`]:
    /// while paused, nothing drains the queue, so a submitter that fills
    /// it blocks until some *other* thread calls [`Engine::resume`]. To
    /// stage a burst larger than the queue from a single thread, use
    /// [`AdmissionPolicy::RejectWhenFull`] or
    /// [`AdmissionPolicy::ShedLowPriority`], or keep the burst within
    /// [`EngineBuilder::queue_capacity`].
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Resumes dispatch after [`Engine::pause`].
    pub fn resume(&self) {
        self.shared.queue.resume();
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
            .map(|slot| slot.lock().footprint_bytes())
            .sum()
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
    use gstg::{GstgConfig, GstgRenderer, GstgSession};
    use splat_core::{HasExecution as _, RenderOutput};
    use splat_render::Renderer;
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

    /// Registers `scene` with `engine` and returns its handle.
    fn registered(engine: &Engine, scene: &Arc<Scene>) -> SceneId {
        engine
            .register_scene(Arc::clone(scene))
            .expect("a servable scene")
    }

    /// An engine with dispatch paused before the first submission.
    fn paused(builder: EngineBuilder) -> Engine {
        let engine = builder.build().unwrap();
        engine.pause();
        engine
    }

    /// Registers the scene, submits every camera, then waits the handles
    /// in submission order.
    fn serve_all(
        engine: &Engine,
        scene: &Arc<Scene>,
        cameras: &[Camera],
    ) -> Vec<Result<RenderOutput, RenderError>> {
        let id = registered(engine, scene);
        let handles: Vec<Result<JobHandle, RenderError>> = cameras
            .iter()
            .map(|camera| engine.submit(SubmitRequest::new(id, *camera)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.and_then(JobHandle::wait))
            .collect()
    }

    #[test]
    fn builder_defaults_are_gstg_sequential() {
        let engine = Engine::builder().build().expect("default engine");
        assert_eq!(engine.worker_count(), 1);
        assert_eq!(engine.shared.pool[0].lock().name(), "gstg-session");
        assert_eq!(engine.admission, AdmissionPolicy::Block);
        assert_eq!(engine.quality, QualityPolicy::FullOnly);
        assert_eq!(engine.shared.queue.capacity(), DEFAULT_QUEUE_CAPACITY);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let mut bad = GstgConfig::paper_default();
        bad.tile_size = 0;
        assert!(matches!(
            Engine::builder().gstg_config(bad).build(),
            Err(RenderError::InvalidTileSize { tile_size: 0 })
        ));
        assert!(matches!(
            Engine::builder()
                .admission(AdmissionPolicy::ShedLowPriority { capacity: 0 })
                .build(),
            Err(RenderError::InvalidConfiguration { .. })
        ));
        assert!(matches!(
            Engine::builder()
                .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(0))
                .build(),
            Err(RenderError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn pool_is_at_least_the_thread_count() {
        // One pooled session per worker thread, and never fewer than one.
        for (requested, expected) in [(0, 1), (1, 1), (6, 6)] {
            let engine = Engine::builder().workers(requested).build().unwrap();
            assert_eq!(engine.worker_count(), expected);
            assert_eq!(engine.workers.len(), expected);
        }
    }

    #[test]
    fn submit_matches_a_fresh_renderer_for_both_backends() {
        // The engine holds the GS-TG pipeline only; the baseline it is
        // lossless against is a local renderer.
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let engine = Engine::builder().build().unwrap();
        let served = engine
            .submit(SubmitRequest::new(registered(&engine, &scene), camera))
            .expect("valid request")
            .wait()
            .expect("valid request");

        let config = GstgConfig::paper_default();
        let fresh = GstgRenderer::new(config).render(&scene, &camera);
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert_eq!(served.stats.counts, fresh.stats.counts);

        let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
        assert_eq!(served.image.max_abs_diff(&baseline.image), 0.0);
    }

    #[test]
    fn batch_outputs_are_in_request_order_and_thread_invariant() {
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 3));
        let cameras: Vec<Camera> = trajectory(6).cameras().collect();

        let sequential = Engine::builder().workers(1).build().unwrap();
        let parallel = Engine::builder().workers(4).build().unwrap();
        let a = serve_all(&sequential, &scene, &cameras);
        let b = serve_all(&parallel, &scene, &cameras);
        assert_eq!(a.len(), cameras.len());
        for (index, (left, right)) in a.iter().zip(&b).enumerate() {
            let left = left.as_ref().expect("valid request");
            let right = right.as_ref().expect("valid request");
            assert_eq!(
                left.image.max_abs_diff(&right.image),
                0.0,
                "request {index} diverged across worker counts"
            );
            assert_eq!(left.stats.counts, right.stats.counts);
            // And each handle delivers its own camera, whichever worker
            // served it.
            let fresh =
                GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &cameras[index]);
            assert_eq!(left.image.max_abs_diff(&fresh.image), 0.0);
        }
    }

    #[test]
    fn invalid_requests_fail_their_slot_only() {
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let empty = Arc::new(Scene::new("empty", 64, 48, Vec::new()));
        let camera = trajectory(1).camera(0);
        let degenerate = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 5.0, 0.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 64, 48),
        );
        let engine = Engine::builder().workers(2).build().unwrap();
        let id = registered(&engine, &scene);
        // An empty scene never gets a handle to submit against.
        assert_eq!(
            engine.register_scene(empty).unwrap_err(),
            RenderError::EmptyScene
        );
        let results: Vec<Result<RenderOutput, RenderError>> = [camera, degenerate, camera]
            .into_iter()
            .map(|camera| {
                engine
                    .submit(SubmitRequest::new(id, camera))
                    .and_then(JobHandle::wait)
            })
            .collect();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1].as_ref().unwrap_err(),
            RenderError::DegenerateCamera { .. }
        ));
        assert!(results[2].is_ok());
        let first = results[0].as_ref().unwrap();
        let last = results[2].as_ref().unwrap();
        assert_eq!(first.image.max_abs_diff(&last.image), 0.0);
        // The bad request was refused at the door, never queued.
        assert_eq!(engine.stats().submitted, 2);
    }

    #[test]
    fn poisoned_worker_is_recovered_not_wedged() {
        let engine = Engine::builder().build().expect("default engine");
        assert_eq!(engine.worker_count(), 1);
        // Poison the only pool slot by panicking while holding its lock —
        // the stand-in for a panic inside a pipeline stage.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.shared.pool[0].lock();
            panic!("mid-render panic");
        }));
        assert!(result.is_err());
        assert!(engine.shared.pool[0].is_poisoned());
        // The worker recovers its slot instead of failing every later job,
        // and the recovered session still renders correctly (every buffer
        // is rebuilt per frame).
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let served = engine
            .submit(SubmitRequest::new(registered(&engine, &scene), camera))
            .expect("admitted")
            .wait()
            .expect("poisoned worker must serve again");
        let fresh = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera);
        assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
        assert!(engine.footprint_bytes() > 0);
    }

    #[test]
    fn more_concurrent_callers_than_workers_all_get_served() {
        // A 1-worker engine under 4 concurrent submitters: the jobs queue
        // behind the one session and every caller gets identical pixels.
        let engine = Engine::builder().build().expect("default engine");
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 4));
        let id = registered(&engine, &scene);
        let camera = trajectory(1).camera(0);
        let serve = || {
            engine
                .submit(SubmitRequest::new(id, camera))
                .expect("valid request")
                .wait()
                .expect("valid request")
        };
        let reference = serve();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(serve)).collect();
            for handle in handles {
                let output = handle.join().expect("no panic");
                assert_eq!(output.image.max_abs_diff(&reference.image), 0.0);
                assert_eq!(output.stats.counts, reference.stats.counts);
            }
        });
        assert_eq!(engine.stats().completed, 5);
    }

    #[test]
    fn submit_serves_a_job_and_counts_it() {
        let engine = Engine::builder().build().unwrap();
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 2));
        let camera = trajectory(1).camera(0);
        let handle = engine
            .submit(SubmitRequest::new(registered(&engine, &scene), camera))
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
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let zero_area = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 0, 48),
        );
        let error = engine
            .submit(SubmitRequest::new(registered(&engine, &scene), zero_area))
            .expect_err("a zero-width frame must be refused");
        assert!(matches!(error, RenderError::InvalidResolution { .. }));
        // Refused submissions never touch the queue, nor count as a serve.
        let stats = engine.stats();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.scene_hits, 0);
    }

    #[test]
    fn cancel_withdraws_a_queued_job() {
        let engine = paused(Engine::builder());
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let id = registered(&engine, &scene);
        let camera = trajectory(1).camera(0);
        let victim = engine.submit(SubmitRequest::new(id, camera)).unwrap();
        let survivor = engine.submit(SubmitRequest::new(id, camera)).unwrap();
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
        let engine = paused(Engine::builder());
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let id = registered(&engine, &scene);
        let camera = trajectory(1).camera(0);
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| engine.submit(SubmitRequest::new(id, camera)).unwrap())
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
        let engine = paused(Engine::builder());
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handle = engine
            .submit(SubmitRequest::new(registered(&engine, &scene), camera))
            .unwrap();
        let stats = engine.shutdown(ShutdownMode::Abort);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(handle.wait().unwrap_err(), RenderError::ShutDown);
    }

    #[test]
    fn dropping_the_engine_aborts_outstanding_jobs() {
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let handle = {
            let engine = paused(Engine::builder());
            engine
                .submit(SubmitRequest::new(registered(&engine, &scene), camera))
                .unwrap()
            // Engine dropped here: abort + join.
        };
        assert_eq!(handle.wait().unwrap_err(), RenderError::ShutDown);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let engine = Engine::builder().build().unwrap();
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let camera = trajectory(1).camera(0);
        // Shutdown consumes the engine; re-create the submission path via a
        // second engine whose queue is already draining.
        let stats = engine.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.submitted, 0);
        let engine = paused(Engine::builder());
        let id = registered(&engine, &scene);
        engine.shared.queue.shutdown(ShutdownMode::Drain);
        assert_eq!(
            engine
                .submit(SubmitRequest::new(id, camera))
                .expect_err("draining queue refuses new work"),
            RenderError::ShutDown
        );
    }

    #[test]
    fn registered_handle_serves_bit_identically_to_a_local_session() {
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 2));
        let camera = trajectory(1).camera(0);
        let engine = Engine::builder().build().unwrap();
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();

        let mut session = GstgSession::from_config(GstgConfig::paper_default());
        let local = RenderBackend::render(&mut session, &RenderRequest::new(&scene, camera))
            .expect("valid request");
        let by_id = engine
            .submit(SubmitRequest::new(id, camera))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(by_id.image.max_abs_diff(&local.image), 0.0);
        assert_eq!(by_id.stats.counts, local.stats.counts);

        let stats = engine.stats();
        assert_eq!(stats.registered, 1);
        assert_eq!(stats.resident_scenes, 1);
        assert_eq!(stats.scene_hits, 1);
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
        // A full RejectWhenFull queue refuses submissions: those must not
        // count scene hits or refresh LRU recency, so rejected traffic
        // cannot keep a scene resident.
        let engine = paused(
            Engine::builder()
                .admission(AdmissionPolicy::RejectWhenFull)
                .queue_capacity(1)
                .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(2)),
        );
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
    fn registered_submissions_fail_bad_slots_alone() {
        let engine = Engine::builder().workers(2).build().unwrap();
        let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 1));
        let camera = trajectory(1).camera(0);
        let id = engine.register_scene(Arc::clone(&scene)).unwrap();
        let bogus = SceneId::from_raw(99);
        let results: Vec<Result<RenderOutput, RenderError>> = [id, bogus, id]
            .into_iter()
            .map(|id| {
                engine
                    .submit(SubmitRequest::new(id, camera))
                    .and_then(JobHandle::wait)
            })
            .collect();
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
        engine
            .submit(SubmitRequest::new(a, camera))
            .unwrap()
            .wait()
            .unwrap();
        let c = engine
            .register_scene(Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 2)))
            .unwrap();
        assert_eq!(engine.resident_scenes(), vec![a, c]);
        assert_eq!(
            engine.submit(SubmitRequest::new(b, camera)).unwrap_err(),
            RenderError::Evicted { id: b }
        );
        let stats = engine.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.resident_scenes, 2);
    }

    #[test]
    fn eviction_does_not_disturb_in_flight_jobs() {
        let engine = paused(Engine::builder());
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
    fn stream_trajectory_cancellation_delivers_cancelled_in_order() {
        let engine = paused(Engine::builder());
        let path = trajectory(3);
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let stream = engine
            .stream_trajectory(
                registered(&engine, &scene),
                &path,
                Priority::Low,
                path.len(),
            )
            .unwrap();
        assert_eq!(stream.cancel_remaining(), 3, "all frames still queued");
        assert_eq!(stream.cancel_remaining(), 0, "nothing left to withdraw");
        engine.resume();
        let outputs = stream.wait_all();
        assert_eq!(outputs.len(), 3);
        for frame in outputs {
            assert_eq!(frame.unwrap_err(), RenderError::Cancelled);
        }
        assert_eq!(engine.stats().cancelled, 3);
    }

    #[test]
    fn trajectory_frames_refused_by_admission_keep_their_slot() {
        // Capacity-1 reject-when-full queue, paused: only the first frame
        // is admitted, the rest are refused — and still delivered as
        // in-order errors.
        let engine = paused(
            Engine::builder()
                .admission(AdmissionPolicy::RejectWhenFull)
                .queue_capacity(1),
        );
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let path = trajectory(3);
        // A whole-path window: every frame is submitted up front.
        let stream = engine
            .stream_trajectory(
                registered(&engine, &scene),
                &path,
                Priority::Normal,
                path.len(),
            )
            .unwrap();
        engine.resume();
        let outputs = stream.wait_all();
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
        let engine = Arc::new(paused(Engine::builder()));
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 1));
        let id = registered(&engine, &scene);
        let camera = trajectory(1).camera(0);
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| engine.submit(SubmitRequest::new(id, camera)).unwrap())
            .collect();
        engine.begin_shutdown(ShutdownMode::Drain);
        // Racing submissions are refused immediately.
        assert_eq!(
            engine
                .submit(SubmitRequest::new(id, camera))
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
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        let handle = engine
            .submit(SubmitRequest::new(
                registered(&engine, &scene),
                trajectory(1).camera(0),
            ))
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
        // One registry touch for the whole path.
        assert_eq!(engine.stats().scene_hits, 1);
    }

    #[test]
    fn stream_trajectory_misses_and_refusals_keep_their_slot() {
        let engine = paused(
            Engine::builder()
                .admission(AdmissionPolicy::RejectWhenFull)
                .queue_capacity(1),
        );
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
            .stream_trajectory(registered(&engine, &scene), &path, Priority::Normal, 4)
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
        // Worker threads × per-frame threads: outputs must stay bit-exact.
        let scene = Arc::new(PaperScene::Drjohnson.build(SceneScale::Tiny, 1));
        let cameras: Vec<Camera> = trajectory(3).cameras().collect();
        let reference = serve_all(&Engine::builder().build().unwrap(), &scene, &cameras);
        let nested = Engine::builder()
            .workers(2)
            .gstg_config(GstgConfig::paper_default().with_threads(2))
            .build()
            .unwrap();
        for (a, b) in reference.iter().zip(&serve_all(&nested, &scene, &cameras)) {
            let a = a.as_ref().unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(a.image.max_abs_diff(&b.image), 0.0);
            assert_eq!(a.stats.counts, b.stats.counts);
        }
    }
}
