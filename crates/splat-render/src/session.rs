//! The one frame loop: [`Session<K>`].
//!
//! Every frame of either pipeline is the same four stages —
//! preprocess → identify → sort → rasterize — over a recycled
//! [`FrameArena`]. What GS-TG changes is only how work is *keyed*: the
//! baseline identifies, sorts and rasterizes per tile, GS-TG identifies and
//! sorts per tile *group* and recovers each tile's list at raster time with
//! a bitmask filter. [`Keying`] captures exactly that delta and is
//! implemented twice ([`Renderer`](crate::Renderer) here,
//! `gstg::GstgRenderer` in the `gstg` crate); everything else —
//! preprocessing, the stage timing windows, the arena, the tile-shading
//! driver, request validation, the [`RenderBackend`] impl — exists once, in
//! this file and the shared stage functions it calls.
//!
//! A session recycles every buffer between frames (projected splats, CSR
//! assignment storage, key-sort scratch, framebuffer), so only the first
//! frame — or one that grows past every previous one — touches the
//! allocator. A one-shot `Renderer::render` is a session with a fresh arena
//! whose framebuffer is moved out ([`Session::into_output`]), so one-shot
//! and session frames are the same code and report the same stage windows.

#![expect(
    clippy::disallowed_methods,
    reason = "the frame loop's four per-stage timing windows are wall-clock by design; no reading feeds a pixel or a counter"
)]

use crate::config::RenderConfig;
use crate::preprocess::preprocess_into;
use crate::tiling::TileGrid;
use splat_core::{
    shade_tiles, CsrScratch, FrameArena, KeySortScratch, ProjectedGaussian, RenderBackend,
    RenderOutput, RenderRequest, RenderStats, SessionFrame, SortEntry, StageCounts, TileLists,
};
use splat_scene::Scene;
use splat_types::{Camera, RenderError, Rgb};
use std::fmt::Debug;
use std::time::Instant;

/// The color every frame starts from, in both pipelines.
pub const BACKGROUND: Rgb = Rgb::BLACK;

/// How a pipeline keys its work: which bins splats are identified into,
/// how those bins are sorted, and (through [`TileLists`]) how a tile's
/// sorted splat list is read back out of them at raster time.
pub trait Keying: Clone + Debug + Send {
    /// One assignment entry: a projected-splat slot (`u32`) for per-tile
    /// lists, slot plus tile bitmask for per-group lists. The depth sort
    /// parks it in one or two `u64` words ([`SortEntry`]).
    type Entry: SortEntry + Debug + Send;
    /// The per-bin lists identification builds, sorting orders and the
    /// tile kernel reads.
    type Assignments: TileLists<Entry = Self::Entry> + Clone + Debug + Send;

    /// Backend label of a session over this keying (e.g. `"gstg-session"`).
    const NAME: &'static str;

    /// Configuration of the shared stages: the rasterization tile size and
    /// the execution settings (the thread count).
    fn render_config(&self) -> RenderConfig;

    /// Checks the keying's own configuration.
    ///
    /// # Errors
    ///
    /// Returns the typed error describing the first violated constraint.
    fn validate(&self) -> Result<(), RenderError>;

    /// An empty assignment set, rebuilt in place by [`Keying::identify`].
    fn empty_assignments() -> Self::Assignments;

    /// Bytes currently reserved by an assignment set's buffers.
    fn assignments_footprint(assignments: &Self::Assignments) -> usize;

    /// Identifies the bins every projected splat influences, rebuilding
    /// `out` through `scratch` and charging every test to `counts`.
    fn identify(
        &self,
        projected: &[ProjectedGaussian],
        width: u32,
        height: u32,
        counts: &mut StageCounts,
        scratch: &mut CsrScratch<Self::Entry>,
        out: &mut Self::Assignments,
    );

    /// Depth-sorts every bin in place.
    fn sort(
        assignments: &mut Self::Assignments,
        projected: &[ProjectedGaussian],
        counts: &mut StageCounts,
        scratch: &mut KeySortScratch<Self::Entry>,
    );
}

/// A renderer plus the recyclable state to render many frames without
/// steady-state allocation. [`RenderSession`](crate::RenderSession) and
/// `gstg::GstgSession` are the two instantiations.
#[derive(Debug, Clone)]
pub struct Session<K: Keying> {
    renderer: K,
    arena: FrameArena<K::Entry>,
    assignments: K::Assignments,
}

impl<K: Keying> Session<K> {
    /// Creates a session around a renderer. No buffers are allocated until
    /// the first frame.
    pub fn new(renderer: K) -> Self {
        Self {
            renderer,
            arena: FrameArena::new(),
            assignments: K::empty_assignments(),
        }
    }

    /// Convenience constructor from the renderer's configuration.
    pub fn from_config<C>(config: C) -> Self
    where
        K: From<C>,
    {
        Self::new(K::from(config))
    }

    /// The splats that survived culling in the last rendered frame, in
    /// scene order.
    pub fn projected(&self) -> &[ProjectedGaussian] {
        &self.arena.projected
    }

    /// The sorted per-bin lists of the last rendered frame.
    pub fn assignments(&self) -> &K::Assignments {
        &self.assignments
    }

    /// Bytes currently reserved by the session's recycled buffers. After a
    /// warm-up frame this is stable across steady-state frames.
    pub fn footprint_bytes(&self) -> usize {
        self.arena.footprint_bytes() + K::assignments_footprint(&self.assignments)
    }

    /// Renders one view into the session's recycled framebuffer.
    ///
    /// The returned frame borrows the framebuffer; copy it out if it must
    /// survive the next [`Session::render`] call. Pixels and
    /// [`StageCounts`] depend only on the renderer and the view, never on
    /// how many frames the session has served.
    ///
    /// # Panics
    ///
    /// Panics when the tile size is zero or the camera has a zero
    /// dimension; the [`RenderBackend`] impl validates both up front.
    pub fn render(&mut self, scene: &Scene, camera: &Camera) -> SessionFrame<'_> {
        let mut counts = StageCounts::new();
        let config = self.renderer.render_config();
        let arena = &mut self.arena;

        let start = Instant::now();
        preprocess_into(scene, camera, &config, &mut counts, &mut arena.projected);
        let preprocess_time = start.elapsed();

        let start = Instant::now();
        self.renderer.identify(
            &arena.projected,
            camera.width(),
            camera.height(),
            &mut counts,
            &mut arena.csr,
            &mut self.assignments,
        );
        let identify_time = start.elapsed();

        let start = Instant::now();
        K::sort(
            &mut self.assignments,
            &arena.projected,
            &mut counts,
            &mut arena.keys,
        );
        let sort_time = start.elapsed();

        let start = Instant::now();
        arena
            .framebuffer
            .reset(camera.width(), camera.height(), BACKGROUND);
        counts += shade_tiles(
            &self.assignments,
            &arena.projected,
            BACKGROUND,
            &config.exec,
            &mut arena.framebuffer,
        );
        let raster_time = start.elapsed();

        SessionFrame {
            image: &arena.framebuffer,
            stats: RenderStats {
                counts,
                preprocess_time,
                identify_time,
                sort_time,
                raster_time,
            },
        }
    }

    /// Renders one view and moves the framebuffer out, consuming the
    /// session — the one-shot form `Renderer::render` is built on.
    pub fn into_output(mut self, scene: &Scene, camera: &Camera) -> RenderOutput {
        let stats = self.render(scene, camera).stats;
        RenderOutput {
            image: self.arena.framebuffer,
            stats,
        }
    }
}

impl<K: Keying> RenderBackend for Session<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    /// Serves one request through the session's recycled buffers after
    /// validating the configuration, the request and the tile grid, so
    /// malformed input returns a typed error instead of panicking. The
    /// returned image is an owned copy of the arena framebuffer (the
    /// borrow-free contract of the trait); the pipeline scratch itself is
    /// still recycled across calls.
    fn render(&mut self, request: &RenderRequest<'_>) -> Result<RenderOutput, RenderError> {
        self.renderer.validate()?;
        request.validate()?;
        TileGrid::try_new(
            request.camera.width(),
            request.camera.height(),
            self.renderer.render_config().tile_size,
        )?;
        let stats = Session::render(self, request.scene, &request.camera).stats;
        Ok(RenderOutput {
            image: self.arena.framebuffer.clone(),
            stats,
        })
    }

    fn footprint_bytes(&self) -> usize {
        Session::footprint_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    //! Unit tests of the loop with the one keying visible in this crate;
    //! `tests/session_contract.rs` runs the full contract for both.
    use super::*;
    use crate::config::BoundaryMethod;
    use crate::{RenderSession, Renderer};
    use splat_scene::{CameraTrajectory, PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Vec3};

    fn trajectory(views: usize) -> CameraTrajectory {
        CameraTrajectory::orbit(
            CameraIntrinsics::from_fov_y(1.0, 96, 64),
            Vec3::new(0.0, 0.0, 6.0),
            4.0,
            0.5,
            views,
        )
    }

    #[test]
    fn session_frames_match_fresh_renders_bit_exactly() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 1);
        let renderer = Renderer::new(RenderConfig::new(16, BoundaryMethod::Ellipse));
        let mut session = RenderSession::new(renderer.clone());
        for camera in trajectory(4).cameras() {
            let fresh = renderer.render(&scene, &camera);
            let frame = session.render(&scene, &camera);
            assert_eq!(frame.image.max_abs_diff(&fresh.image), 0.0);
            assert_eq!(frame.stats.counts, fresh.stats.counts);
        }
    }

    #[test]
    fn steady_state_footprint_is_stable() {
        let scene = PaperScene::Train.build(SceneScale::Tiny, 2);
        let mut session = RenderSession::from_config(RenderConfig::new(16, BoundaryMethod::Aabb));
        let trajectory = trajectory(3);
        // Warm-up pass: buffers grow to the trajectory's high-water mark.
        for camera in trajectory.cameras() {
            let _ = session.render(&scene, &camera);
        }
        let warmed = session.footprint_bytes();
        assert!(warmed > 0);
        // Steady-state pass: re-rendering the same trajectory must not
        // grow any buffer.
        for camera in trajectory.cameras() {
            let _ = session.render(&scene, &camera);
            assert_eq!(session.footprint_bytes(), warmed);
        }
    }

    #[test]
    fn session_backend_trait_matches_fresh_renders() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 3);
        let renderer = Renderer::new(RenderConfig::new(16, BoundaryMethod::Ellipse));
        let mut backend: Box<dyn RenderBackend> = Box::new(RenderSession::new(renderer.clone()));
        assert_eq!(backend.name(), "baseline-session");
        for camera in trajectory(3).cameras() {
            let fresh = renderer.render(&scene, &camera);
            let served = backend
                .render(&RenderRequest::new(&scene, camera))
                .expect("valid request");
            assert_eq!(served.image.max_abs_diff(&fresh.image), 0.0);
            assert_eq!(served.stats.counts, fresh.stats.counts);
        }
    }

    #[test]
    fn session_backend_trait_rejects_empty_scenes() {
        let mut session = RenderSession::from_config(RenderConfig::default());
        let empty = Scene::new("empty", 32, 32, Vec::new());
        let camera = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 32, 32),
        );
        assert!(RenderBackend::render(&mut session, &RenderRequest::new(&empty, camera)).is_err());
    }

    #[test]
    fn session_supports_changing_resolution() {
        let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
        let mut session = RenderSession::from_config(RenderConfig::new(16, BoundaryMethod::Aabb));
        for (w, h) in [(64, 48), (96, 64), (64, 48)] {
            let camera = Camera::look_at(
                Vec3::ZERO,
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::Y,
                CameraIntrinsics::from_fov_y(1.0, w, h),
            );
            let frame = session.render(&scene, &camera);
            assert_eq!((frame.image.width(), frame.image.height()), (w, h));
        }
    }
}
