//! Typed identifiers for registry-managed resources.
//!
//! The serving engine's scene registry hands out a [`SceneId`] per
//! registered scene. The id is an opaque token: callers obtain one from
//! `Engine::register_scene`, pass it back in a `SubmitRequest`, and never
//! need to look inside. The raw value is still reachable
//! ([`SceneId::raw`]) for logs and JSON output, and
//! [`SceneId::from_raw`] exists so registries (and tests) can mint ids —
//! an id only means something to the engine that issued it.

use std::fmt;

/// Opaque handle to a scene registered with a serving engine.
///
/// Ids are issued monotonically per engine, so they double as registration
/// order: a smaller id was registered earlier. They are `Copy` and cheap to
/// pass around; sharing an id across threads is how many submitters serve
/// off one prepared scene.
///
/// # Examples
///
/// ```
/// use splat_types::SceneId;
///
/// let id = SceneId::from_raw(7);
/// assert_eq!(id.raw(), 7);
/// assert_eq!(id.to_string(), "scene#7");
/// assert!(SceneId::from_raw(3) < id, "ids order by registration");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SceneId(u64);

impl SceneId {
    /// Reconstructs an id from its raw value.
    ///
    /// Only meaningful for values previously observed via [`SceneId::raw`]
    /// from the same engine; a fabricated id simply misses the registry
    /// (`RenderError::UnknownScene`).
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw numeric value, for logs and JSON output.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SceneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scene#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_raw() {
        let id = SceneId::from_raw(42);
        assert_eq!(SceneId::from_raw(id.raw()), id);
    }

    #[test]
    fn orders_by_registration_order() {
        assert!(SceneId::from_raw(0) < SceneId::from_raw(1));
        let mut ids = [SceneId::from_raw(5), SceneId::from_raw(2)];
        ids.sort_unstable();
        assert_eq!(ids[0].raw(), 2);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(SceneId::from_raw(0).to_string(), "scene#0");
    }

    #[test]
    fn id_is_send_sync_and_hash() {
        fn assert_send_sync<T: Send + Sync + std::hash::Hash>() {}
        assert_send_sync::<SceneId>();
    }
}
