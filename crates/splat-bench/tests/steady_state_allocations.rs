//! The zero-allocation gate: a reused render session never touches the
//! heap once it is warm.
//!
//! A 4-pose lateral sweep of the tiny playroom scene is rendered twice
//! through a *reused* session of each pipeline (baseline `RenderSession`,
//! GS-TG `GstgSession`) under a counting global allocator. The first pass
//! is the warm-up: the session's arena grows to the trajectory's
//! high-water mark. The second pass is the measured steady state, where
//! every buffer is recycled — each frame must allocate **zero bytes in
//! zero calls**, at every mode point the kernels have.
//!
//! This file holds exactly one `#[test]`: the allocator counts the whole
//! process, so a sibling test running on another harness thread would
//! allocate inside a measured window.

use gstg::{GstgConfig, GstgSession};
use splat_bench::HarnessOptions;
use splat_core::{HasExecution, SimdMode, SpanMode};
use splat_render::{BoundaryMethod, Keying, RenderConfig, RenderSession, Session};
use splat_scene::{CameraTrajectory, PaperScene, Scene, SceneScale};
use splat_types::CameraIntrinsics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocated bytes and call counts, so
/// the test can prove steady-state frames never touch the heap.
struct CountingAllocator;

static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);

// The one justified `unsafe` in the workspace (`unsafe_code` is denied
// crate-wide and forbidden everywhere else): a `GlobalAlloc` impl cannot
// be written without it, and the counting allocator is what lets the
// steady-state zero-allocation invariant fail loudly.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            BYTES_ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Warm-up pass, then the measured pass, which must not allocate.
fn assert_steady_state_is_allocation_free<K: Keying>(
    label: &str,
    mut session: Session<K>,
    scene: &Scene,
    trajectory: &CameraTrajectory,
) {
    let warmup = run_pass(&mut session, scene, trajectory);
    assert!(
        warmup.iter().any(|&(bytes, _)| bytes > 0),
        "{label}: the warm-up pass grows the arena, so the counter is live"
    );
    let steady = run_pass(&mut session, scene, trajectory);
    assert_eq!(
        steady,
        vec![(0, 0); trajectory.len()],
        "{label}: (bytes, calls) per steady-state frame — the frame arena must recycle every buffer"
    );
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

    let modes = [
        ("default", SimdMode::default(), SpanMode::default()),
        ("scalar", SimdMode::Scalar, SpanMode::Full),
        ("rows+wide8", SimdMode::Wide8, SpanMode::RowSpans),
    ];
    for (mode, simd, span) in modes {
        // The baseline runs the original 3D-GS configuration (AABB boundary).
        let baseline = RenderConfig::new(16, BoundaryMethod::Aabb)
            .with_simd(simd)
            .with_span(span);
        assert_steady_state_is_allocation_free(
            &format!("baseline {mode}"),
            RenderSession::from_config(baseline),
            &scene,
            &trajectory,
        );
        let grouped = GstgConfig::paper_default().with_simd(simd).with_span(span);
        assert_steady_state_is_allocation_free(
            &format!("gstg {mode}"),
            GstgSession::from_config(grouped),
            &scene,
            &trajectory,
        );
    }
}
