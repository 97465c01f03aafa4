//! Scene substrate for the GS-TG reproduction.
//!
//! The paper evaluates on six pre-trained 3D-GS scenes (Tanks&Temples
//! *train*/*truck*, Deep Blending *drjohnson*/*playroom*, Mill-19 *rubble*
//! and UrbanScene3D *residence*). Those checkpoints are not redistributable,
//! so this crate synthesises Gaussian clouds whose *geometric statistics*
//! (splat count, spatial clustering, screen-space footprint distribution,
//! opacity distribution) are calibrated per scene profile, at the paper's
//! exact image resolutions. The tile-size trade-off that GS-TG exploits is a
//! function of those statistics, not of the photometric content, so the
//! synthetic scenes exercise the same code paths and produce the same
//! qualitative behaviour.
//!
//! # Quick example
//!
//! ```
//! use splat_scene::{PaperScene, SceneScale};
//!
//! let scene = PaperScene::Train.build(SceneScale::Tiny, 42);
//! assert!(scene.len() > 0);
//! let cam = PaperScene::Train.default_camera();
//! assert_eq!(cam.width(), 1959);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod datasets;
pub mod io;
mod lod;
mod scene;
mod synth;
mod trajectory;

pub use datasets::{PaperScene, SceneScale};
pub use lod::{LodLadder, QualityTier};
pub use scene::{Scene, SceneSoA};
pub use synth::{SceneGenerator, SynthProfile};
pub use trajectory::CameraTrajectory;
