//! Baseline tile-based 3D Gaussian Splatting rendering pipeline.
//!
//! This crate implements the conventional 3D-GS rendering pipeline the GS-TG
//! paper builds on and compares against:
//!
//! 1. **Preprocessing** — project every splat, cull invisible ones, compute
//!    depth, 2D mean, 2D covariance (EWA) and view-dependent color, and
//!    identify the tiles each splat influences using one of three boundary
//!    methods (AABB as in the original 3D-GS, OBB as in GSCore, or the exact
//!    ellipse test as in FlashGS).
//! 2. **Tile-wise sorting** — sort the splat list of every tile by depth.
//! 3. **Tile-wise rasterization** — α-computation and front-to-back
//!    α-blending per pixel with the 1/255 and 10⁻⁴ early-exit thresholds of
//!    the reference implementation.
//!
//! This crate also hosts the one frame loop both pipelines run:
//! [`Session<K>`] composes preprocess → identify → sort → rasterize over a
//! recycled `splat_core::FrameArena`, generic over a [`Keying`] — the
//! baseline's per-tile keying ([`Renderer`]) here, GS-TG's per-group keying
//! in the `gstg` crate. The execution configuration, stage instrumentation
//! (`splat_core::StageCounts`), tile scheduler, tile-shading driver and the
//! blending kernels live in `splat-core`. An analytic [`cost::CostModel`]
//! converts operation counts into normalized stage times for the
//! figure-regeneration binaries.
//!
//! # Quick example
//!
//! ```
//! use splat_render::{RenderConfig, Renderer, BoundaryMethod};
//! use splat_scene::{PaperScene, SceneScale};
//!
//! let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
//! let camera = PaperScene::Playroom.default_camera();
//! let config = RenderConfig::try_new(16, BoundaryMethod::Ellipse)?;
//! let renderer = Renderer::new(config);
//! let output = renderer.render(&scene, &camera);
//! assert_eq!(output.image.width(), scene.width());
//! # Ok::<(), splat_types::RenderError>(())
//! ```
//!
//! A one-shot [`Renderer::render`] is a session with a fresh arena; the
//! allocation-free [`RenderSession`] (`Session<Renderer>`) implements the
//! backend-agnostic [`splat_core::RenderBackend`] trait, the fallible
//! request/response API (`RenderRequest` → `RenderOutput` / `RenderError`)
//! the serving `Engine` in `splat-engine` builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod bounds;
mod config;
mod cost;
mod pipeline;
mod preprocess;
mod session;
pub mod sort;
mod tiling;

pub use bounds::{Ellipse, Footprint, OrientedBox, Shape, Square};
pub use config::{BoundaryMethod, PrepassMode, RenderConfig};
pub use cost::{CostModel, ExecutionModel, StageTimes};
pub use pipeline::Renderer;
pub use preprocess::preprocess_into;
pub use session::{Keying, Session, BACKGROUND};
pub use tiling::{identify_tiles_into, TileAssignments, TileGrid};

/// The baseline session: the one frame loop keyed per tile.
pub type RenderSession = Session<Renderer>;
