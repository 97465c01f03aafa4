//! Error type shared by the math and data-model layer.

use crate::id::SceneId;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub(crate) type Result<T> = std::result::Result<T, Error>;

/// Errors raised while constructing or manipulating the Gaussian data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A matrix inversion was requested for a singular (non-invertible)
    /// matrix. Carries the determinant that was computed.
    SingularMatrix {
        /// Determinant of the offending matrix.
        determinant: f32,
    },
    /// A parameter was outside its documented domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A spherical-harmonics degree outside the supported range was used.
    UnsupportedShDegree {
        /// The requested degree.
        degree: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SingularMatrix { determinant } => {
                write!(f, "matrix is singular (determinant {determinant:e})")
            }
            Error::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            Error::UnsupportedShDegree { degree } => {
                write!(f, "unsupported spherical harmonics degree {degree} (max 3)")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Errors raised while validating or serving a render request.
///
/// The rendering front door ([`RenderRequest::validate`] in `splat-core` and
/// the `Engine` built on it) is panic-free: every malformed input that used
/// to panic or assert somewhere inside a pipeline — a degenerate camera, a
/// zero-dimension resolution, an empty scene, a tile size of zero — is
/// reported as one of these variants instead.
///
/// [`RenderRequest::validate`]: https://docs.rs/splat-core
#[derive(Debug, Clone, PartialEq)]
pub enum RenderError {
    /// The camera pose cannot be used for rendering: the view matrix is
    /// non-finite (e.g. a `look_at` with an up vector parallel to the view
    /// direction, or `eye == target`), or a clip plane is malformed.
    DegenerateCamera {
        /// Human-readable description of what is degenerate.
        reason: String,
    },
    /// The camera intrinsics describe a zero-area image.
    InvalidResolution {
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
    },
    /// A focal length or principal point is outside its domain.
    InvalidIntrinsics {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The scene contains no Gaussians, so there is nothing to render.
    EmptyScene,
    /// The tile size is not a power of two of at least 4 pixels
    /// (zero included).
    InvalidTileSize {
        /// The offending tile size.
        tile_size: u32,
    },
    /// Any other configuration violation (group sizing, accelerator
    /// parameters, worker counts, …).
    InvalidConfiguration {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The rendering backend itself failed while serving an admitted,
    /// well-formed job (it panicked — a pipeline bug, not a caller error).
    /// Only that job is lost; the engine keeps serving.
    BackendFault {
        /// Human-readable description of the fault.
        reason: String,
    },
    /// Admission control deflated the submission: the serving queue was at
    /// capacity and this job was (or would have been) the cheapest to
    /// reject — lowest priority first, then highest estimated cost, then
    /// most recent arrival.
    Overloaded {
        /// The admission capacity that was exceeded (queued jobs).
        capacity: usize,
    },
    /// The job was cancelled through its handle before a worker picked
    /// it up.
    Cancelled,
    /// The engine was shut down before the job could be served.
    ShutDown,
    /// A scene handle that this engine never issued: the [`SceneId`] is
    /// from another engine, fabricated, or ahead of the registration
    /// counter.
    UnknownScene {
        /// The unresolvable handle.
        id: SceneId,
    },
    /// A scene handle that *was* registered but has since left the
    /// resident set — deflated by the residency policy or explicitly
    /// evicted. Re-register the scene to serve it again.
    Evicted {
        /// The handle of the no-longer-resident scene.
        id: SceneId,
    },
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::DegenerateCamera { reason } => {
                write!(f, "degenerate camera: {reason}")
            }
            RenderError::InvalidResolution { width, height } => {
                write!(
                    f,
                    "invalid resolution {width}x{height}: both dimensions must be non-zero"
                )
            }
            RenderError::InvalidIntrinsics { reason } => {
                write!(f, "invalid camera intrinsics: {reason}")
            }
            RenderError::EmptyScene => write!(f, "scene contains no gaussians"),
            RenderError::InvalidTileSize { tile_size } => {
                write!(f, "tile size {tile_size} must be a power of two >= 4")
            }
            RenderError::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            RenderError::BackendFault { reason } => write!(f, "backend fault: {reason}"),
            RenderError::Overloaded { capacity } => {
                write!(
                    f,
                    "engine overloaded: admission queue at capacity {capacity}, job shed"
                )
            }
            RenderError::Cancelled => write!(f, "job cancelled before execution"),
            RenderError::ShutDown => write!(f, "engine shut down before the job was served"),
            RenderError::UnknownScene { id } => {
                write!(f, "unknown scene {id}: never registered with this engine")
            }
            RenderError::Evicted { id } => {
                write!(f, "{id} evicted from the resident set; register it again")
            }
        }
    }
}

impl std::error::Error for RenderError {}

impl From<Error> for RenderError {
    fn from(error: Error) -> Self {
        RenderError::InvalidConfiguration {
            reason: error.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = Error::SingularMatrix { determinant: 0.0 };
        let s = e.to_string();
        assert!(s.starts_with("matrix is singular"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn invalid_parameter_mentions_name() {
        let e = Error::InvalidParameter {
            name: "opacity",
            reason: "must be in [0, 1]".to_owned(),
        };
        assert!(e.to_string().contains("opacity"));
    }

    #[test]
    fn render_error_is_send_sync_and_displays_specifics() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RenderError>();
        let e = RenderError::InvalidResolution {
            width: 0,
            height: 480,
        };
        assert!(e.to_string().contains("0x480"));
        let e = RenderError::InvalidTileSize { tile_size: 0 };
        assert!(e.to_string().contains("tile size 0"));
        assert!(RenderError::EmptyScene.to_string().contains("no gaussians"));
    }

    #[test]
    fn serving_errors_display_their_cause() {
        let e = RenderError::Overloaded { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        assert!(RenderError::Cancelled.to_string().contains("cancelled"));
        assert!(RenderError::ShutDown.to_string().contains("shut down"));
    }

    #[test]
    fn registry_errors_name_the_scene_id() {
        let id = SceneId::from_raw(3);
        let unknown = RenderError::UnknownScene { id };
        assert!(unknown.to_string().contains("scene#3"));
        assert!(unknown.to_string().contains("never registered"));
        let evicted = RenderError::Evicted { id };
        assert!(evicted.to_string().contains("scene#3"));
        assert!(evicted.to_string().contains("evicted"));
    }

    #[test]
    fn math_errors_convert_to_configuration_errors() {
        let e: RenderError = Error::InvalidParameter {
            name: "focal",
            reason: "must be positive".to_owned(),
        }
        .into();
        match e {
            RenderError::InvalidConfiguration { reason } => {
                assert!(reason.contains("focal"));
            }
            other => panic!("unexpected conversion {other:?}"),
        }
    }
}
