//! Shared stage engine for the GS-TG rendering pipelines.
//!
//! Both the conventional tile-based pipeline (`splat-render`) and the
//! tile-grouping pipeline (`gstg`) are compositions of the same three
//! phases — preprocessing, depth sorting, rasterization — differing only
//! in *how* work is keyed (per tile vs per group). This crate owns the
//! machinery that is identical between them; the one frame loop that
//! composes it (`splat_render::Session`) is generic over that keying:
//!
//! * `backend` — the backend-agnostic rendering API: [`RenderRequest`] /
//!   [`RenderOutput`] with panic-free validation, and the [`RenderBackend`]
//!   trait sessions implement so callers (most importantly the
//!   serving `Engine` in `splat-engine`) can swap pipelines behind a
//!   `dyn RenderBackend`.
//! * `arena` — [`FrameArena`], the recyclable per-frame scratch (and the
//!   [`SessionFrame`] output type) the render sessions build on to reach an
//!   allocation-free steady state over camera trajectories.
//! * `csr` — the flat CSR-style assignment layout (counting prepass →
//!   prefix-sum offsets → stable scatter) both identification stages build
//!   their per-tile / per-group lists into.
//! * `keysort` — [`sort_bins_by_depth`], the stable radix argsort of
//!   every CSR bin on the 32-bit depth key; bins arrive in ascending scene
//!   index, so it yields `(depth, scene index)` order. An entry type
//!   implements [`SortEntry`] so the sort can park it in its two key
//!   buffers instead of copying the bin. Plus
//!   `splat_key`, the 64-bit key the reference sorts by, and the modeled
//!   comparison count that keeps the paper's redundancy accounting.
//! * `exec` — the shared execution configuration: the worker thread
//!   count, with the single `with_threads` knob every pipeline
//!   configuration re-uses through [`HasExecution`].
//! * `schedule` — `TileScheduler`, the deterministic scoped-thread
//!   work-partition scheduler the rasterization fan-out runs on.
//! * `shade` — [`shade_tiles`], the one tile-shading driver both
//!   pipelines feed with `(rect, sorted bin, tile bit)` through
//!   [`TileLists`]; the kernel shades the bin's entries that are in the
//!   tile ([`SortEntry::in_tile`]).
//! * `blend` — the front-to-back α-blending tile kernel and the
//!   reference thresholds.
//! * `exp` — `exp_neg`, the owned exponential every α evaluation
//!   calls.
//! * [`reference`](mod@reference) — the brute-force, tile-free image both
//!   pipelines are checked against; no render path calls it.
//! * `splat`, `rect`, `image`, `stats` — the data types the stages
//!   exchange: projected splats, pixel rectangles, framebuffers and
//!   operation counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod arena;
mod backend;
mod blend;
mod csr;
mod exec;
mod exp;
mod image;
mod keysort;
mod rect;
pub mod reference;
mod schedule;
mod shade;
mod splat;
mod stats;

pub use arena::{FrameArena, SessionFrame, SpanScratch};
pub use backend::{request_cost_hint, RenderBackend, RenderOutput, RenderRequest};
pub use blend::{ALPHA_CULL_THRESHOLD, TRANSMITTANCE_EPSILON};
pub use csr::{CsrAssignments, CsrScratch};
pub use exec::{ExecutionConfig, HasExecution, SimdMode, SpanMode};
pub use image::Framebuffer;
pub use keysort::{is_sorted_by_depth, sort_bins_by_depth, KeySortScratch, SortEntry};
pub use rect::{TileRect, MAHALANOBIS_CUTOFF, SIGMA_EXTENT};
pub use shade::{shade_tiles, TileLists};
pub use splat::ProjectedGaussian;
pub use stats::{RenderStats, StageCounts};
