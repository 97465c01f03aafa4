//! Shared stage engine for the GS-TG rendering pipelines.
//!
//! Both the conventional tile-based pipeline (`splat-render`) and the
//! tile-grouping pipeline (`gstg`) are compositions of the same three
//! phases — preprocessing, depth sorting, rasterization — differing only
//! in *how* work is keyed (per tile vs per group). This crate owns the
//! machinery that is identical between them; the one frame loop that
//! composes it (`splat_render::Session`) is generic over that keying:
//!
//! * [`backend`] — the backend-agnostic rendering API: [`RenderRequest`] /
//!   [`RenderOutput`] with panic-free validation, and the [`RenderBackend`]
//!   trait sessions implement so callers (most importantly the
//!   serving `Engine` in `splat-engine`) can swap pipelines behind a
//!   `dyn RenderBackend`.
//! * [`arena`] — [`FrameArena`], the recyclable per-frame scratch (and the
//!   [`SessionFrame`] output type) the render sessions build on to reach an
//!   allocation-free steady state over camera trajectories.
//! * [`csr`] — the flat CSR-style assignment layout (counting prepass →
//!   prefix-sum offsets → stable scatter) both identification stages build
//!   their per-tile / per-group lists into.
//! * [`keysort`] — the order-preserving radix key sort on
//!   `(depth_bits << 32) | scene_index` ([`sort_bins_by_depth`] sorts every
//!   CSR bin with it), plus the modeled comparison count that keeps the
//!   paper's redundancy accounting.
//! * [`exec`] — the shared execution configuration: the worker thread
//!   count, with the single `with_threads` knob every pipeline
//!   configuration re-uses through [`HasExecution`].
//! * [`schedule`] — [`TileScheduler`], the deterministic scoped-thread
//!   work-partition scheduler the rasterization fan-out runs on.
//! * [`shade`] — [`shade_tiles`], the one tile-shading driver both
//!   pipelines feed with `(rect, sorted slot list)` through [`TileLists`].
//! * [`blend`] — the front-to-back α-blending tile kernel and the
//!   reference thresholds.
//! * [`reference`](mod@reference) — the brute-force, tile-free image both
//!   pipelines are checked against; no render path calls it.
//! * [`splat`], [`rect`], [`image`], [`stats`] — the data types the stages
//!   exchange: projected splats, pixel rectangles, framebuffers and
//!   operation counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod arena;
pub mod backend;
pub mod blend;
pub mod csr;
pub mod exec;
pub mod image;
pub mod keysort;
pub mod rect;
pub mod reference;
pub mod schedule;
pub mod shade;
pub mod splat;
pub mod stats;

pub use arena::{FrameArena, SessionFrame, SpanScratch};
pub use backend::{request_cost_hint, RenderBackend, RenderOutput, RenderRequest};
pub use blend::{
    alpha_at, rasterize_tile_into_with, ALPHA_CULL_THRESHOLD, ALPHA_MAX, TRANSMITTANCE_EPSILON,
};
pub use csr::{CsrAssignments, CsrScratch};
pub use exec::{ExecutionConfig, HasExecution, SimdMode, SpanMode};
pub use image::Framebuffer;
pub use keysort::{is_sorted_by_depth, sort_bins_by_depth, splat_key, KeySortRun, KeySortScratch};
pub use rect::{TileRect, MAHALANOBIS_CUTOFF, SIGMA_EXTENT};
pub use schedule::TileScheduler;
pub use shade::{shade_tiles, TileLists};
pub use splat::ProjectedGaussian;
pub use stats::{RenderStats, StageCounts};
