//! Submissions and job handles for the asynchronous serving path.
//!
//! [`Engine::submit`](crate::Engine::submit) turns a [`SubmitRequest`] into
//! a queued job and hands back a [`JobHandle`] — the caller's only view of
//! the job. The handle supports the two things a client needs:
//! [`JobHandle::wait`] (block for the result) and [`JobHandle::cancel`]
//! (withdraw a job that has not started, freeing its queue slot).
//!
//! A submission names its scene by the [`SceneId`] handle
//! [`Engine::register_scene`](crate::Engine::register_scene) returned: the
//! registry resolves it at the door, so many jobs share one prepared scene
//! (and its prebuilt LOD ladder) and every served job is charged to the
//! residency budget. The job *owns* an `Arc` once admitted, so a scene
//! evicted mid-queue keeps rendering for jobs already holding it.
//!
//! [`Engine::stream_trajectory`](crate::Engine::stream_trajectory) fans a
//! whole camera path into per-frame jobs behind a bounded in-flight window
//! and returns a [`TrajectoryStream`] that delivers the frames in path
//! order.

use crate::queue::JobQueue;
use crate::sync::LeafMutex;
use crate::Engine;
use splat_core::RenderOutput;
use splat_scene::{CameraTrajectory, LodLadder, QualityTier, Scene};
use splat_types::{Camera, Priority, RenderError, SceneId};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar};

/// One asynchronous render submission: a registered scene's handle, a
/// posed camera and an admission priority.
///
/// # Examples
///
/// ```
/// use splat_engine::{Engine, SubmitRequest};
/// use splat_scene::{PaperScene, SceneScale};
/// use splat_types::{Camera, CameraIntrinsics, Priority, Vec3};
/// use std::sync::Arc;
///
/// let engine = Engine::builder().build()?;
/// let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
/// let scene = engine.register_scene(scene)?;
/// let camera = Camera::try_look_at(
///     Vec3::ZERO,
///     Vec3::new(0.0, 0.0, 1.0),
///     Vec3::Y,
///     CameraIntrinsics::try_from_fov_y(1.0, 96, 64)?,
/// )?;
/// let request = SubmitRequest::new(scene, camera).with_priority(Priority::High);
/// assert_eq!(request.priority, Priority::High);
/// # Ok::<(), splat_types::RenderError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// The scene to render, as registered with the engine the request is
    /// submitted to. A handle that does not resolve there is refused with
    /// [`RenderError::UnknownScene`] or [`RenderError::Evicted`].
    pub(crate) scene: SceneId,
    /// The posed camera; the framebuffer takes its dimensions from the
    /// camera intrinsics.
    pub(crate) camera: Camera,
    /// Admission priority: higher classes dispatch first and shed last
    /// (default [`Priority::Normal`]).
    pub priority: Priority,
}

impl SubmitRequest {
    /// Creates a normal-priority submission for one view of a registered
    /// scene.
    pub fn new(scene: SceneId, camera: Camera) -> Self {
        Self {
            scene,
            camera,
            priority: Priority::default(),
        }
    }

    /// Sets the admission priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// The state cell shared between a [`JobHandle`] and the worker that
/// eventually serves (or rejects) the job.
#[derive(Debug)]
pub(crate) struct JobShared {
    phase: LeafMutex<JobPhase>,
    ready: Condvar,
}

#[derive(Debug)]
enum JobPhase {
    /// Queued or rendering.
    Pending,
    /// `Some` until [`JobHandle::wait`] takes the result. Boxed so the
    /// pending phase does not carry a framebuffer-sized slot.
    Finished(Box<Option<Result<RenderOutput, RenderError>>>),
}

impl JobShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            phase: LeafMutex::new("job phase", JobPhase::Pending),
            ready: Condvar::new(),
        })
    }

    /// Stores the final result and wakes every waiter. Called exactly once
    /// per job — by the serving worker, or by the queue when the job is
    /// shed, cancelled or aborted.
    pub(crate) fn finish(&self, result: Result<RenderOutput, RenderError>) {
        *self.phase.lock() = JobPhase::Finished(Box::new(Some(result)));
        self.ready.notify_all();
    }

    fn wait_take(&self) -> Result<RenderOutput, RenderError> {
        let mut phase = self.phase.lock();
        loop {
            if let JobPhase::Finished(result) = &mut *phase {
                // `wait` consumes the handle and is the only taker, so the
                // slot still holds the result; `Cancelled` is a defensive
                // fallback that no current path can reach.
                return result.take().unwrap_or(Err(RenderError::Cancelled));
            }
            phase = phase.wait(&self.ready);
        }
    }
}

/// A claim on the future result of one submitted job.
///
/// Handles are not clonable: the job's result belongs to exactly one
/// caller. Dropping the handle abandons the result but never the work — a
/// queued job still renders (use [`JobHandle::cancel`] to withdraw it).
#[derive(Debug)]
pub struct JobHandle {
    queue: Arc<JobQueue>,
    shared: Arc<JobShared>,
    id: u64,
    priority: Priority,
    tier: QualityTier,
}

impl JobHandle {
    pub(crate) fn new(
        queue: Arc<JobQueue>,
        shared: Arc<JobShared>,
        id: u64,
        priority: Priority,
        tier: QualityTier,
    ) -> Self {
        Self {
            queue,
            shared,
            id,
            priority,
            tier,
        }
    }

    /// The admission priority the job was submitted with.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The [`QualityTier`] admission control assigned to this job. Decided
    /// once, under the queue lock, from the depth the submission observed
    /// (see `EngineBuilder::quality`); it never changes afterwards, so a
    /// server can stamp the tier on the response before the render even
    /// starts.
    pub fn tier(&self) -> QualityTier {
        self.tier
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// The render's own [`RenderError`] for an invalid request, or one of
    /// the serving errors: [`RenderError::Overloaded`] (shed by admission
    /// control), [`RenderError::Cancelled`] (withdrawn via
    /// [`JobHandle::cancel`]) or [`RenderError::ShutDown`] (engine torn
    /// down before the job ran).
    pub fn wait(self) -> Result<RenderOutput, RenderError> {
        self.shared.wait_take()
    }

    /// Withdraws the job if a worker has not picked it up yet.
    ///
    /// Returns `true` when the job was still queued: its slot is freed
    /// (unblocking a `Block`-policy submitter) and [`JobHandle::wait`]
    /// returns [`RenderError::Cancelled`]. Returns `false` when the job is
    /// already rendering or finished — in-flight work is never interrupted.
    pub fn cancel(&self) -> bool {
        self.queue.cancel(self.id)
    }
}

/// Windowed, in-order streaming of a camera path, created by
/// [`Engine::stream_trajectory`].
///
/// Frames are delivered strictly in path order and refused frames yield
/// their error in their slot, but at most `window` frames occupy queue
/// slots (or sit rendered awaiting delivery) at any moment. Each
/// [`TrajectoryStream::next_frame`] tops the window back up after taking a
/// frame, so workers stay busy exactly `window` frames ahead of the
/// consumer. Dropping the stream withdraws whatever it still has queued —
/// a consumer that walks away
/// stops costing renders; a frame already rendering finishes and is
/// discarded, and frames never submitted are simply never admitted.
#[derive(Debug)]
pub struct TrajectoryStream<'a> {
    engine: &'a Engine,
    scene_id: SceneId,
    scene: Arc<Scene>,
    ladder: Option<Arc<LodLadder>>,
    cameras: std::vec::IntoIter<Camera>,
    priority: Priority,
    window: usize,
    pending: VecDeque<Result<JobHandle, RenderError>>,
    len: usize,
    delivered: usize,
    committed: bool,
}

impl<'a> TrajectoryStream<'a> {
    /// Starts a stream over an already-resolved scene and fills its first
    /// window.
    pub(crate) fn new(
        engine: &'a Engine,
        scene_id: SceneId,
        scene: Arc<Scene>,
        ladder: Option<Arc<LodLadder>>,
        trajectory: &CameraTrajectory,
        priority: Priority,
        window: usize,
    ) -> Self {
        let mut stream = Self {
            engine,
            scene_id,
            scene,
            ladder,
            cameras: trajectory.cameras().collect::<Vec<Camera>>().into_iter(),
            priority,
            window: window.max(1),
            pending: VecDeque::new(),
            len: trajectory.len(),
            delivered: 0,
            committed: false,
        };
        stream.top_up();
        stream
    }

    /// Total number of frames in the trajectory.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the trajectory has no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            // admitted frame.
            if frame.is_ok() && !self.committed {
                self.engine.shared.registry.commit_serve(self.scene_id);
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

    /// Cancels every undelivered frame that is still queued, returning how
    /// many were withdrawn. Frames already rendering (or finished) are
    /// untouched and still deliverable; cancelled frames deliver
    /// [`RenderError::Cancelled`] in order.
    pub(crate) fn cancel_remaining(&self) -> usize {
        self.pending
            .iter()
            .filter(|frame| matches!(frame, Ok(handle) if handle.cancel()))
            .count()
    }
}

impl Drop for TrajectoryStream<'_> {
    /// Nobody will take the window's frames any more: free their queue
    /// slots instead of rendering them for no one.
    fn drop(&mut self) {
        self.cancel_remaining();
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, ShutdownMode};
    use splat_scene::{CameraTrajectory, PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Priority, Vec3};
    use std::sync::Arc;

    #[test]
    fn dropping_a_stream_cancels_its_queued_window() {
        let engine = Engine::builder().build().unwrap();
        engine.pause();
        let scene = engine
            .register_scene(Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0)))
            .unwrap();
        let path = CameraTrajectory::orbit(
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
            Vec3::new(0.0, 0.0, 6.0),
            4.0,
            0.6,
            5,
        );
        let stream = engine
            .stream_trajectory(scene, &path, Priority::Normal, 3)
            .unwrap();
        assert_eq!(engine.stats().queued, 3, "the window, not the path");
        drop(stream);
        let stats = engine.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.cancelled, 3);
        assert_eq!(stats.queued, 0);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
        // Nothing is left to render once dispatch resumes.
        engine.resume();
        assert_eq!(engine.shutdown(ShutdownMode::Drain).completed, 0);
    }
}
