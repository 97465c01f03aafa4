//! GS-TG reproduction — umbrella crate.
//!
//! This crate re-exports the workspace's building blocks so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`types`] — math primitives and the 3D Gaussian data model,
//! * [`core`] — the shared stage engine (execution config, tile
//!   scheduler, stage counters, one in-place blending kernel per walk
//!   shared by the sequential and parallel paths, CSR assignment storage,
//!   radix key sort and the frame arenas behind the allocation-free render
//!   sessions) both pipelines build on,
//! * [`scene`] — synthetic scenes matching the paper's evaluation set,
//! * [`render`] — the conventional tile-based 3D-GS pipeline (the
//!   baseline),
//! * [`tile_grouping`] — the GS-TG pipeline: group-wise sorting with
//!   per-Gaussian tile bitmasks,
//! * [`engine`] — the serving [`Engine`](engine::Engine): a pool of
//!   recycled sessions behind the backend-agnostic
//!   [`RenderBackend`](core::RenderBackend) trait, rendering only through
//!   a bounded admission-controlled job queue
//!   ([`Engine::submit`](engine::Engine::submit) for one view,
//!   [`Engine::stream_trajectory`](engine::Engine::stream_trajectory) for
//!   a camera path); a scene is registered once into a budgeted,
//!   LRU-deflated registry
//!   ([`Engine::register_scene`](engine::Engine::register_scene)) and
//!   named by its [`SceneId`](types::SceneId) handle in every submission,
//! * [`server`] — the dependency-free HTTP/1.1 network front door
//!   (`splat-serve`): binary scene upload, digest-stable frame
//!   responses, chunked trajectory streaming, and connection
//!   backpressure composing with the engine's admission control,
//! * [`accel`] — the cycle-level accelerator simulator,
//! * [`metrics`] — means, geometric means, markdown tables and the
//!   canonical frame digest.
//!
//! # Quickstart
//!
//! ```
//! use gs_tg::prelude::*;
//!
//! // Build a small synthetic version of the paper's playroom scene.
//! let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
//! let camera = Camera::look_at(
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::Y,
//!     CameraIntrinsics::from_fov_y(1.0, 160, 120),
//! );
//!
//! // The baseline is a local renderer; GS-TG is what the serving engine
//! // runs: register the scene once, then submit views by its handle.
//! let baseline = Renderer::new(RenderConfig::try_new(16, BoundaryMethod::Ellipse)?)
//!     .render(&scene, &camera);
//! let engine = Engine::builder().build()?;
//! let id = engine.register_scene(scene)?;
//! let grouped = engine.submit(SubmitRequest::new(id, camera))?.wait()?;
//!
//! // GS-TG is lossless: the images match bit-exactly, but it sorted far
//! // fewer (group, splat) keys than the baseline's (tile, splat) keys.
//! assert_eq!(grouped.image.max_abs_diff(&baseline.image), 0.0);
//! assert!(grouped.stats.counts.tile_intersections < baseline.stats.counts.tile_intersections);
//! # Ok::<(), gs_tg::types::RenderError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's contribution: the tile-grouping pipeline.
pub use gstg as tile_grouping;
pub use splat_accel as accel;
/// The shared stage engine both pipelines build on.
pub use splat_core as core;
/// The serving engine over the `RenderBackend` trait.
pub use splat_engine as engine;
pub use splat_metrics as metrics;
pub use splat_render as render;
pub use splat_scene as scene;
/// The dependency-free network front door (`splat-serve`).
pub use splat_server as server;
pub use splat_types as types;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use gstg::{verify_lossless, GstgConfig, GstgRenderer, GstgSession};
    pub use splat_accel::{AccelConfig, PipelineVariant, Simulator};
    pub use splat_core::{
        ExecutionConfig, FrameArena, HasExecution, RenderBackend, RenderOutput, RenderRequest,
        SessionFrame, StageCounts,
    };
    pub use splat_engine::{
        AdmissionPolicy, Engine, EngineBuilder, EngineStats, JobHandle, JobStatus, LodLadder,
        PreparedScene, QualityPolicy, QualityTier, ResidencyPolicy, ShutdownMode, SubmitRequest,
        TrajectoryStream,
    };
    pub use splat_metrics::{geometric_mean, Table};
    pub use splat_render::{BoundaryMethod, RenderConfig, RenderSession, Renderer};
    pub use splat_scene::{CameraTrajectory, PaperScene, Scene, SceneScale};
    pub use splat_server::{Server, ServerConfig, ServerStats};
    pub use splat_types::{
        Camera, CameraIntrinsics, Gaussian3d, Priority, Quat, RenderError, Rgb, SceneId, Vec3,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let config = GstgConfig::paper_default();
        assert_eq!(config.tile_size, 16);
        let scene = PaperScene::Train.build(SceneScale::Tiny, 0);
        assert!(!scene.is_empty());
        let _ = RenderConfig::new(16, BoundaryMethod::Aabb);
        let engine = Engine::builder()
            .workers(2)
            .build()
            .expect("default engine configuration is valid");
        assert_eq!(engine.worker_count(), 2);
    }
}
