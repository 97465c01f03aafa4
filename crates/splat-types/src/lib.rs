//! Math primitives and the 3D Gaussian data model used throughout the GS-TG
//! reproduction.
//!
//! The crate is intentionally free of external math dependencies: every type
//! (vectors, matrices, quaternions, IEEE-754 binary16 conversion, spherical
//! harmonics) is implemented here so that the rendering pipeline and the
//! cycle-level accelerator simulator are fully self-contained and
//! deterministic across platforms.
//!
//! # Quick example
//!
//! ```
//! use splat_types::{Gaussian3d, Vec3, Quat, Camera, CameraIntrinsics};
//!
//! // A single isotropic splat one unit in front of the camera.
//! let g = Gaussian3d::builder()
//!     .position(Vec3::new(0.0, 0.0, 1.0))
//!     .scale(Vec3::splat(0.05))
//!     .rotation(Quat::IDENTITY)
//!     .opacity(0.9)
//!     .base_color([0.8, 0.2, 0.2])
//!     .build();
//!
//! let cam = Camera::look_at(
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//!     CameraIntrinsics::from_fov_y(std::f32::consts::FRAC_PI_3, 640, 480),
//! );
//!
//! // The splat is inside the view frustum.
//! assert!(cam.is_in_frustum(g.position(), 0.2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod camera;
mod color;
mod counters;
mod error;
mod gaussian;
pub mod half;
mod id;
mod mat;
mod priority;
mod quat;
pub mod rng;
mod sh;
mod vec;

pub use camera::{Camera, CameraIntrinsics, Frustum};
pub use color::Rgb;
pub use error::{Error, RenderError};
pub use gaussian::{Gaussian3d, Gaussian3dBuilder, Precision};
pub use id::SceneId;
pub use mat::{Mat2, Mat3};
pub use priority::Priority;
pub use quat::Quat;
pub use sh::{coefficient_count, eval_color, ShCoefficients, SH_DEGREE_MAX};
pub use vec::{Vec2, Vec3};
