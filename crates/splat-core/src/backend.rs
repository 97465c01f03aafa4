//! The backend-agnostic rendering API: [`RenderRequest`], [`RenderOutput`]
//! and the [`RenderBackend`] trait.
//!
//! The one frame loop (`splat_render::Session<K>`) implements
//! [`RenderBackend`] for every keying — the baseline tile-sort session and
//! the GS-TG group-sort session — so callers, most importantly the
//! serving `Engine` in `splat-engine`, can hold either as a
//! `dyn RenderBackend` and swap pipelines without changing a line of
//! serving code. The contract is:
//!
//! * **Fallible, panic-free.** Every render goes through
//!   [`RenderRequest::validate`]: degenerate cameras, zero-dimension
//!   intrinsics and empty scenes come back as typed
//!   [`RenderError`] values instead of panicking deep
//!   inside a stage.
//! * **Deterministic.** For a given request and backend configuration the
//!   framebuffer and [`StageCounts`](crate::StageCounts) are bit-identical
//!   regardless of thread count and of how many frames the backend has
//!   already served.

use crate::image::Framebuffer;
use crate::stats::RenderStats;
use splat_scene::Scene;
use splat_types::{Camera, RenderError};

/// The admission-control cost estimate for serving `splats` Gaussians at a
/// `width`×`height` output: the two inputs every pipeline stage scales
/// with, summed with saturating arithmetic so pathological sizes rank as
/// "maximally expensive" instead of wrapping. The single source of truth
/// behind [`RenderRequest::cost_hint`] and the engine-side
/// `PreparedScene::cost_hint` — they must agree, or a scene's prepared
/// statistics would rank it differently from the jobs that render it.
pub fn request_cost_hint(splats: usize, width: u32, height: u32) -> u64 {
    let pixels = u64::from(width).saturating_mul(u64::from(height));
    (splats as u64).saturating_add(pixels)
}

/// One view to render: a scene and a posed camera.
///
/// Requests are cheap to construct (the scene is borrowed) and carry
/// everything a [`RenderBackend`] needs; per-pipeline knobs (tile size,
/// boundary method, thread count, background color) belong to the backend's
/// configuration, not to the request.
///
/// # Examples
///
/// ```
/// use splat_core::RenderRequest;
/// use splat_scene::{PaperScene, SceneScale};
/// use splat_types::{Camera, CameraIntrinsics, Vec3};
///
/// let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
/// let camera = Camera::look_at(
///     Vec3::ZERO,
///     Vec3::new(0.0, 0.0, 1.0),
///     Vec3::Y,
///     CameraIntrinsics::from_fov_y(1.0, 160, 120),
/// );
/// let request = RenderRequest::new(&scene, camera);
/// assert!(request.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RenderRequest<'a> {
    /// The scene to render.
    pub scene: &'a Scene,
    /// The posed camera; the framebuffer takes its dimensions from the
    /// camera intrinsics.
    pub camera: Camera,
}

impl<'a> RenderRequest<'a> {
    /// Creates a request for one view of `scene`.
    pub fn new(scene: &'a Scene, camera: Camera) -> Self {
        Self { scene, camera }
    }

    /// A dimensionless estimate of how much work serving this request
    /// costs, used by admission control to deflate over-capacity load.
    ///
    /// The estimate is the splat count plus the output pixel count — the
    /// two inputs every pipeline stage scales with. It is *not* a cycle
    /// count: its only job is to rank queued requests so a shedding policy
    /// can reject the submission that frees the most capacity, and to do so
    /// deterministically (the hint depends only on the request, never on
    /// engine state). The arithmetic saturates (see [`request_cost_hint`]),
    /// so pathological inputs (e.g. a `u32::MAX`-square camera) rank as
    /// "maximally expensive" instead of wrapping into a cheap-looking hint
    /// — or overflowing the intermediate `usize` math on 32-bit targets.
    pub fn cost_hint(&self) -> u64 {
        request_cost_hint(self.scene.len(), self.camera.width(), self.camera.height())
    }

    /// Validates the request without rendering it.
    ///
    /// Every [`RenderBackend`] implementation performs this check before
    /// touching a pipeline stage, so a malformed request is rejected
    /// up front instead of panicking mid-render.
    ///
    /// # Errors
    ///
    /// * [`RenderError::EmptyScene`] when the scene holds no Gaussians.
    /// * [`RenderError::InvalidResolution`],
    ///   [`RenderError::InvalidIntrinsics`] or
    ///   [`RenderError::DegenerateCamera`] when the camera cannot serve a
    ///   render (see [`Camera::validate`]).
    pub fn validate(&self) -> Result<(), RenderError> {
        if self.scene.is_empty() {
            return Err(RenderError::EmptyScene);
        }
        self.camera.validate()
    }
}

/// Everything produced by rendering one request: the framebuffer and the
/// per-stage operation counts and timings.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// The rendered image, sized to the request's camera resolution.
    pub image: Framebuffer,
    /// Operation counts and per-stage wall-clock timings.
    pub stats: RenderStats,
}

/// A rendering pipeline that can serve [`RenderRequest`]s.
///
/// Implemented once, by `splat_render::Session<K>` (so by
/// `splat_render::RenderSession` and `gstg::GstgSession`); the
/// `splat-engine` crate builds its serving `Engine` on a pool of
/// boxed backends. `render` takes `&mut self` so that sessions can recycle
/// their frame arenas between calls.
///
/// # Contract
///
/// * `render` must validate the request (via [`RenderRequest::validate`]
///   plus any backend-configuration checks) and return `Err` rather than
///   panic on malformed input.
/// * For a fixed backend configuration the output must be bit-identical
///   across calls, thread counts and prior requests served — the
///   `backend_parity` integration test pins this down for every in-tree
///   implementation.
pub trait RenderBackend: Send {
    /// Short stable label for logs, tables and error messages
    /// (e.g. `"baseline"`, `"gstg-session"`).
    fn name(&self) -> &'static str;

    /// Renders one request.
    ///
    /// # Errors
    ///
    /// Returns a [`RenderError`] when the request or the backend's own
    /// configuration is invalid; never panics on malformed input.
    fn render(&mut self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError>;

    /// Bytes currently reserved by the backend's recycled buffers.
    ///
    /// Sessions report their arena footprint (stable once warmed up);
    /// stateless implementations report the default of zero.
    fn footprint_bytes(&self) -> usize {
        0
    }
}

impl<B: RenderBackend + ?Sized> RenderBackend for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn render(&mut self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
        (**self).render(request)
    }

    fn footprint_bytes(&self) -> usize {
        (**self).footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Vec3};

    fn camera(width: u32, height: u32) -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, width, height),
        )
    }

    #[test]
    fn valid_request_passes_validation() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let request = RenderRequest::new(&scene, camera(64, 48));
        assert!(request.validate().is_ok());
    }

    #[test]
    fn cost_hint_scales_with_splats_and_pixels() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let small = RenderRequest::new(&scene, camera(64, 48));
        let large = RenderRequest::new(&scene, camera(128, 96));
        assert!(small.cost_hint() > 0);
        assert!(large.cost_hint() > small.cost_hint());
        assert_eq!(
            large.cost_hint() - small.cost_hint(),
            128 * 96 - 64 * 48,
            "same scene: the hint differs by exactly the pixel delta"
        );
    }

    #[test]
    fn cost_hint_saturates_instead_of_wrapping() {
        // Regression: a u32::MAX-square camera multiplies to just under
        // u64::MAX; the hint must rank it as maximally expensive, never
        // wrap. (Admission control compares hints, so a wrapped hint would
        // make the most expensive request look like the cheapest.)
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let pathological = RenderRequest::new(&scene, camera(u32::MAX, u32::MAX));
        let expected = u64::from(u32::MAX).saturating_mul(u64::from(u32::MAX)) + scene.len() as u64;
        assert_eq!(pathological.cost_hint(), expected);
        let sane = RenderRequest::new(&scene, camera(64, 48));
        assert!(pathological.cost_hint() > sane.cost_hint());
    }

    #[test]
    fn empty_scene_is_rejected() {
        let scene = Scene::new("empty", 64, 48, Vec::new());
        let request = RenderRequest::new(&scene, camera(64, 48));
        assert_eq!(request.validate(), Err(RenderError::EmptyScene));
    }

    #[test]
    fn zero_resolution_camera_is_rejected() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let request = RenderRequest::new(&scene, camera(0, 48));
        assert!(matches!(
            request.validate(),
            Err(RenderError::InvalidResolution { width: 0, .. })
        ));
    }

    #[test]
    fn degenerate_pose_is_rejected() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let degenerate = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 5.0, 0.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 64, 48),
        );
        let request = RenderRequest::new(&scene, degenerate);
        assert!(matches!(
            request.validate(),
            Err(RenderError::DegenerateCamera { .. })
        ));
    }

    #[test]
    fn boxed_backends_delegate() {
        struct Constant;
        impl RenderBackend for Constant {
            fn name(&self) -> &'static str {
                "constant"
            }
            fn render(&mut self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
                request.validate()?;
                Ok(RenderOutput {
                    image: Framebuffer::black(request.camera.width(), request.camera.height()),
                    stats: RenderStats::default(),
                })
            }
        }
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let mut boxed: Box<dyn RenderBackend> = Box::new(Constant);
        assert_eq!(boxed.name(), "constant");
        let out = boxed
            .render(&RenderRequest::new(&scene, camera(32, 24)))
            .expect("valid request");
        assert_eq!((out.image.width(), out.image.height()), (32, 24));
    }
}
