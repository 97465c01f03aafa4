//! Recyclable per-frame scratch storage for render sessions.
//!
//! A one-shot `render()` call allocates projected-splat storage, assignment
//! buffers, sort scratch and a framebuffer, and drops them all when the
//! frame is done. When rendering a camera trajectory those allocations are
//! pure overhead: every frame needs buffers of (roughly) the same size.
//! [`FrameArena`] owns all of that scratch so the render sessions built on
//! it (`splat_render::RenderSession`, `gstg::GstgSession`) reach an
//! allocation-free steady state — after warm-up, rendering another frame
//! touches the heap zero times.
//!
//! The arena is generic over the assignment entry type: `u32` splat slots
//! for the baseline's per-tile lists, `gstg`'s `GroupEntry` for per-group
//! lists with bitmasks.

use crate::csr::CsrScratch;
use crate::image::Framebuffer;
use crate::keysort::KeySortScratch;
use crate::splat::ProjectedGaussian;
use crate::stats::RenderStats;
use splat_types::Rgb;
use std::time::Duration;

/// Recyclable scratch for one render session.
///
/// The fields are public so session implementations can split-borrow them
/// (e.g. sort assignments while reading `projected`).
#[derive(Debug, Clone)]
pub struct FrameArena<T> {
    /// Projected splats of the current frame (cleared and refilled by
    /// preprocessing; capacity is retained).
    pub projected: Vec<ProjectedGaussian>,
    /// Staging buffers for the CSR assignment build.
    pub csr: CsrScratch<T>,
    /// Buffers for the radix key sort.
    pub keys: KeySortScratch<T>,
    /// The recycled framebuffer frames are rasterized into.
    pub framebuffer: Framebuffer,
    /// Shell kept only because `benchmark/src/layers.rs` names it; it goes in ROADMAP item 2a.
    pub span: SpanScratch,
}

impl<T: Copy> FrameArena<T> {
    /// Creates an empty arena; every buffer grows on first use and is
    /// retained afterwards.
    pub fn new() -> Self {
        Self {
            projected: Vec::new(),
            csr: CsrScratch::new(),
            keys: KeySortScratch::new(),
            framebuffer: Framebuffer::new(0, 0, Rgb::BLACK),
            span: SpanScratch::new(),
        }
    }

    /// Bytes currently reserved by the arena's buffers. Stable across
    /// steady-state frames of a reused session — the property the
    /// session-reuse tests and `splat-bench`'s `steady_state_allocations`
    /// test check.
    pub fn footprint_bytes(&self) -> usize {
        self.projected.capacity() * std::mem::size_of::<ProjectedGaussian>()
            + self.csr.footprint_bytes()
            + self.keys.footprint_bytes()
            + self.framebuffer.footprint_bytes()
    }
}

impl<T: Copy> Default for FrameArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shell kept only because `benchmark/src/layers.rs` names it; it goes in ROADMAP item 2a.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanScratch;

impl SpanScratch {
    /// The only value.
    pub fn new() -> Self {
        Self
    }

    /// Always [`Duration::ZERO`].
    pub fn take_build_time(&mut self) -> Duration {
        Duration::ZERO
    }
}

/// One frame rendered by a session: the framebuffer is borrowed from the
/// session's arena (copy it out if it must outlive the next frame), the
/// statistics are owned.
#[derive(Debug)]
pub struct SessionFrame<'a> {
    /// The rendered image, borrowed from the session's recycled
    /// framebuffer.
    pub image: &'a Framebuffer,
    /// Operation counts and per-stage wall-clock timings of this frame.
    pub stats: RenderStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_arena_is_empty_and_grows_on_use() {
        let mut arena: FrameArena<u32> = FrameArena::new();
        assert_eq!(arena.footprint_bytes(), 0);
        arena.projected.reserve(8);
        arena.framebuffer.reset(4, 4, Rgb::BLACK);
        assert!(arena.footprint_bytes() > 0);
    }

    #[test]
    fn footprint_counts_every_buffer() {
        let mut arena: FrameArena<u32> = FrameArena::new();
        let empty = arena.footprint_bytes();
        arena.csr.stage(0, 1);
        let mut out = crate::csr::CsrAssignments::new();
        arena.csr.build_into(1, &mut out);
        assert!(arena.footprint_bytes() > empty);
    }
}
