//! Cycle-level simulator of the GS-TG accelerator.
//!
//! The paper evaluates GS-TG in hardware: a 28 nm design with four
//! preprocessing modules (PM) and four GS-TG cores, each core containing a
//! bitmask generation module (BGM, four tile-check units), a group-wise
//! sorting module (GSM, a quick-sort unit with 16 comparators) and a
//! rasterization module (RM, an 8-wide bitmask filter feeding 16
//! rasterization units), backed by double-buffered 42 KB SRAM and a
//! 51.2 GB/s DRAM channel (Section V, Table III).
//!
//! This crate reproduces that evaluation *in simulation*, the same way the
//! paper does (its numbers come from a cycle-level simulator, not silicon):
//!
//! * each module is modelled by its throughput (work items per cycle) and
//!   the unit counts from the paper;
//! * the rendering pipelines from [`splat_render`] / [`gstg`] provide the
//!   exact operation counts of a frame (tile tests, sort keys, α-blends …);
//! * a DRAM model converts per-stage traffic into bandwidth-limited time
//!   and energy;
//! * the area/power figures of Table III turn active cycles into energy.
//!
//! Three pipeline variants are modelled: the conventional pipeline running
//! on the proposed accelerator (the paper's baseline), a behavioural model
//! of GSCore (per-tile sorting, OBB intersection tests), and GS-TG itself
//! with bitmask generation overlapped with group-wise sorting.
//!
//! # Quick example
//!
//! ```
//! use splat_accel::{AccelConfig, PipelineVariant, Simulator};
//! use splat_scene::{PaperScene, SceneScale};
//! use splat_types::{Camera, CameraIntrinsics, Vec3};
//!
//! let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
//! let camera = Camera::look_at(
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::Y,
//!     CameraIntrinsics::from_fov_y(1.0, 160, 120),
//! );
//! let sim = Simulator::new(AccelConfig::paper());
//! let report = sim.simulate(&scene, &camera, &PipelineVariant::gstg_paper());
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod buffer;
mod config;
mod dram;
mod energy;
mod gscore;
mod modules;
mod report;
mod sim;

pub use config::AccelConfig;
pub use energy::PowerTable;
pub use report::ComparisonReport;
pub use sim::{PipelineVariant, Simulator};
