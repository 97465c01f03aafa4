//! The zero-allocation gate: a reused render session never touches the
//! heap once it is warm, and holds exactly the bytes it reports.
//!
//! A 4-pose lateral sweep of the tiny playroom scene is rendered twice
//! through a *reused* session of each pipeline (baseline `RenderSession`,
//! GS-TG `GstgSession`) under a counting global allocator. The first pass
//! is the warm-up: the session's arena grows to the trajectory's
//! high-water mark. The second pass is the measured steady state, where
//! every buffer is recycled — each frame must allocate **zero bytes in
//! zero calls**.
//!
//! The allocator also tracks live bytes. What the warm session holds on
//! the heap must equal its `footprint_bytes()`, so a retained buffer the
//! footprint leaves out fails here instead of making the reported memory
//! fall while the real memory does not. Both footprints are pinned, so a
//! retained copy that comes back fails too.
//!
//! This file holds exactly one `#[test]`: the allocator counts the whole
//! process, so a sibling test running on another harness thread would
//! allocate inside a measured window.

use gstg::{GstgConfig, GstgSession};
use splat_bench::HarnessOptions;
use splat_render::{BoundaryMethod, Keying, RenderConfig, RenderSession, Session};
use splat_scene::{CameraTrajectory, PaperScene, Scene, SceneScale};
use splat_types::CameraIntrinsics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocated bytes and call counts, so
/// the test can prove steady-state frames never touch the heap, and the
/// bytes live at any moment, so it can weigh what a session holds.
struct CountingAllocator;

static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// The one justified `unsafe` in the workspace (`unsafe_code` is denied
// crate-wide and forbidden everywhere else): a `GlobalAlloc` impl cannot
// be written without it, and the counting allocator is what lets the
// steady-state zero-allocation invariant fail loudly.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            let grown = (new_size - layout.size()) as u64;
            BYTES_ALLOCATED.fetch_add(grown, Ordering::Relaxed);
            ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Renders the trajectory once, returning each frame's `(bytes, calls)`
/// as counted by the allocator. The window spans the render and a scan of
/// the framebuffer it returns.
fn run_pass<K: Keying>(
    session: &mut Session<K>,
    scene: &Scene,
    trajectory: &CameraTrajectory,
) -> Vec<(u64, u64)> {
    (0..trajectory.len())
        .map(|index| {
            let camera = trajectory.camera(index);
            let bytes_before = BYTES_ALLOCATED.load(Ordering::Relaxed);
            let calls_before = ALLOCATION_CALLS.load(Ordering::Relaxed);
            let frame = session.render(scene, &camera);
            assert!(frame.image.mean_luminance() > 0.0, "frame {index} is blank");
            (
                BYTES_ALLOCATED.load(Ordering::Relaxed) - bytes_before,
                ALLOCATION_CALLS.load(Ordering::Relaxed) - calls_before,
            )
        })
        .collect()
}

/// Warm-up pass, then the measured pass, which must not allocate. Returns
/// the warm session's `footprint_bytes()`, after checking that it is what
/// the session holds on the heap.
fn assert_steady_state_is_allocation_free<K: Keying>(
    label: &str,
    new_session: impl FnOnce() -> Session<K>,
    scene: &Scene,
    trajectory: &CameraTrajectory,
) -> usize {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut session = new_session();
    let warmup = run_pass(&mut session, scene, trajectory);
    assert!(
        warmup.iter().any(|&(bytes, _)| bytes > 0),
        "{label}: the warm-up pass grows the arena, so the counter is live"
    );
    drop(warmup);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let footprint = session.footprint_bytes();
    assert_eq!(
        held, footprint as u64,
        "{label}: heap bytes the warm session holds vs its footprint_bytes()"
    );
    let steady = run_pass(&mut session, scene, trajectory);
    assert_eq!(
        steady,
        vec![(0, 0); trajectory.len()],
        "{label}: (bytes, calls) per steady-state frame — the frame arena must recycle every buffer"
    );
    footprint
}

#[test]
fn steady_state_frames_allocate_nothing() {
    let options = HarnessOptions {
        scale: SceneScale::Tiny,
        resolution_divisor: 8,
        ..HarnessOptions::default()
    };
    let scene_id = PaperScene::Playroom;
    let scene = options.scene(scene_id);
    let reference = options.camera(scene_id);
    let profile = scene_id.profile(options.scale);
    let trajectory = CameraTrajectory::lateral_sweep(
        CameraIntrinsics::from_fov_y(
            reference.intrinsics().fov_y(),
            reference.width(),
            reference.height(),
        ),
        profile.lateral_extent * 0.25,
        (profile.depth_range.0 + profile.depth_range.1) * 0.4,
        4,
    );

    // The scene's SoA is built on its first render and held by the scene,
    // not by a session: build it before any session's bytes are weighed.
    scene.soa();

    // The baseline runs the original 3D-GS configuration (AABB boundary).
    let baseline = assert_steady_state_is_allocation_free(
        "baseline",
        || RenderSession::from_config(RenderConfig::new(16, BoundaryMethod::Aabb)),
        &scene,
        &trajectory,
    );
    let gstg = assert_steady_state_is_allocation_free(
        "gstg",
        || GstgSession::from_config(GstgConfig::paper_default()),
        &scene,
        &trajectory,
    );
    // What each warm session retains, in bytes. A buffer added to or
    // removed from a frame moves these; update them only with a reason.
    // Projected splats are reserved for the most cull survivors of any
    // frame: on this sweep one splat fewer (52 B) than the scene holds.
    assert_eq!(
        (baseline, gstg),
        (377_952, 344_144),
        "(baseline, gstg) footprint_bytes()"
    );
}
