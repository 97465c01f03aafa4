//! GS-TG: tile-grouping-based 3D Gaussian Splatting rendering.
//!
//! This crate implements the paper's contribution. The baseline pipeline
//! (in [`splat_render`]) sorts the splat list of every tile independently,
//! so a splat covering `k` tiles is sorted `k` times; shrinking the tile
//! size improves rasterization efficiency but makes that redundancy
//! explode. GS-TG decouples the two concerns:
//!
//! * **Group identification** — tiles are grouped into aligned squares
//!   (e.g. 16 × 16-pixel tiles grouped into a 64 × 64-pixel group) and the
//!   splats influencing each *group* are identified, exactly like tile
//!   identification with a larger tile size.
//! * **Bitmask generation** — for every (group, splat) pair a per-splat
//!   bitmask records which small tiles inside the group the splat actually
//!   touches (16 bits for the 4×4 grouping used by the accelerator).
//! * **Group-wise sorting** — each group's splat list is depth-sorted
//!   *once*, as if a large tile size were in use.
//! * **Tile-wise rasterization** — each small tile rasterizes only the
//!   splats of the group-sorted list whose bitmask has its bit set,
//!   preserving the efficiency of the small tile size. (The accelerator
//!   filters the list per tile; the software path scatters it once per
//!   group, which yields the same lists.)
//!
//! Because the small tiles are perfectly aligned inside the groups, every
//! splat that touches a tile also touches its group, so the tile's list
//! is exactly the baseline's per-tile sorted list and the rendered image is
//! identical — GS-TG is lossless ([`verify_lossless`] checks this).
//!
//! # Quick example
//!
//! ```
//! use gstg::{GstgConfig, GstgRenderer};
//! use splat_render::BoundaryMethod;
//! use splat_scene::{PaperScene, SceneScale};
//!
//! let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
//! let camera = PaperScene::Playroom.default_camera();
//! let config = GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse)?;
//! let output = GstgRenderer::new(config).render(&scene, &camera);
//! assert_eq!(output.image.width(), scene.width());
//! # Ok::<(), splat_types::RenderError>(())
//! ```
//!
//! Those four bullets are the whole delta: [`GstgRenderer`] implements
//! `splat_render::Keying` (group identification, group-wise sort, the
//! bitmask scatter as per-tile list provider) and everything else — the
//! frame loop, preprocessing, timing, the frame arena, the tile-shading
//! driver — is the baseline's, shared through `splat_render::Session`. The
//! allocation-free [`GstgSession`] (`Session<GstgRenderer>`) implements the
//! backend-agnostic [`splat_core::RenderBackend`] trait; it is the one
//! pipeline the serving `Engine` in `splat-engine` pools behind its queue.
//! The baseline session is what a test or example compares it against,
//! locally. [`GstgConfig`] validates straight into
//! [`splat_types::RenderError`], like every other configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod bitmask;
mod config;
mod group;
mod lossless;
mod pipeline;
mod raster;
pub mod sort;

pub use config::GstgConfig;
pub use group::{identify_groups_into, GroupAssignments, GroupEntry};
pub use lossless::verify_lossless;
pub use pipeline::{GstgRenderer, GstgSession};
pub use raster::rasterize_groups_into_with;
