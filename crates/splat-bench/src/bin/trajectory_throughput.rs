//! Trajectory throughput — steady-state session rendering.
//!
//! Renders N poses of a camera trajectory through a *reused* render
//! session for both pipelines (baseline `RenderSession`, GS-TG
//! `GstgSession`) and reports frames per second plus **bytes allocated per
//! steady-state frame**, measured with a counting global allocator.
//!
//! The trajectory is rendered twice. The first pass is the warm-up: the
//! session's arena grows to the trajectory's high-water mark (this is
//! where the "allocates only on the first frames" cost is paid). The
//! second pass is the measured steady state, where every buffer is
//! recycled — the expected allocation is **zero bytes per frame**, and the
//! binary exits non-zero if any steady-state frame touches the heap, so CI
//! enforces the property mechanically.
//!
//! ```text
//! cargo run --release -p splat-bench --bin trajectory_throughput -- \
//!     --scale tiny --resolution-divisor 8 --frames 8 --json
//! ```
//!
//! `--json` emits one machine-readable object per pipeline for
//! `BENCH_*.json` capture — including measured per-stage wall-clock
//! attribution (preprocess / identify / sort / raster), the prepass
//! accounting counters and the span-walk counters; the shared `--scale` /
//! `--resolution-divisor` / `--seed-offset` / `--exact-prepass` /
//! `--simd` / `--span` knobs of the experiment harness apply. The binary
//! exits non-zero if the prepass accounting drifts (a hit without a test,
//! or baseline hits that disagree with the intersection-list entries),
//! the two pipelines' checksums diverge, or the span-walk cross-check
//! fails: both pipelines are re-rendered under `SpanMode::Full` and
//! `SpanMode::RowSpans`, and the checksums must match bit-for-bit while
//! `alpha_computations + span_skipped_alpha` reconciles exactly against
//! the full walk's brute-force count.

use gstg::{GstgConfig, GstgSession};
use splat_bench::{run_engine_batch, HarnessOptions};
use splat_core::{HasExecution, RenderStats, SpanMode, StageCounts};
use splat_engine::Backend;
use splat_render::{BoundaryMethod, RenderConfig, RenderSession};
use splat_scene::{CameraTrajectory, PaperScene};
use splat_types::{Camera, CameraIntrinsics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// System allocator wrapper counting allocated bytes and call counts, so
/// the bench can prove steady-state frames never touch the heap.
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

#[derive(Debug, Clone, Copy, Default)]
struct PassStats {
    time: Duration,
    bytes: u64,
    allocation_calls: u64,
    max_frame_bytes: u64,
    frames: u64,
    /// Mean-luminance checksum keeping the rendered pixels observable.
    checksum: f64,
    /// Per-stage wall-clock attribution summed over the pass, from the
    /// sessions' measured `RenderStats` windows.
    preprocess: Duration,
    identify: Duration,
    sort: Duration,
    raster: Duration,
    /// Operation counts summed over the pass, for the accounting check.
    counts: StageCounts,
}

impl PassStats {
    fn fps(&self) -> f64 {
        if self.time.as_secs_f64() <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.time.as_secs_f64()
        }
    }

    fn bytes_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.bytes as f64 / self.frames as f64
        }
    }
}

/// Runs one pass over the trajectory. The `render` closure times the
/// session's `render` call itself and returns `(render_time, luminance,
/// stats)`, so the checksum's framebuffer scan stays outside the timed
/// window; the allocation window spans the whole closure (the scan
/// allocates nothing, and any stray allocation should be caught).
fn run_pass(
    trajectory: &CameraTrajectory,
    mut render: impl FnMut(&Camera) -> (Duration, f64, RenderStats),
) -> PassStats {
    let mut stats = PassStats::default();
    for index in 0..trajectory.len() {
        let camera = trajectory.camera(index);
        let bytes_before = BYTES_ALLOCATED.load(Ordering::Relaxed);
        let calls_before = ALLOCATION_CALLS.load(Ordering::Relaxed);
        let (render_time, luminance, frame_stats) = render(&camera);
        stats.time += render_time;
        let frame_bytes = BYTES_ALLOCATED.load(Ordering::Relaxed) - bytes_before;
        stats.bytes += frame_bytes;
        stats.allocation_calls += ALLOCATION_CALLS.load(Ordering::Relaxed) - calls_before;
        stats.max_frame_bytes = stats.max_frame_bytes.max(frame_bytes);
        stats.frames += 1;
        stats.checksum += luminance;
        stats.preprocess += frame_stats.preprocess_time;
        stats.identify += frame_stats.identify_time;
        stats.sort += frame_stats.sort_time;
        stats.raster += frame_stats.raster_time;
        stats.counts += frame_stats.counts;
    }
    stats
}

/// Renders one frame through a session closure, timing only the render and
/// reading the checksum afterwards.
macro_rules! timed_frame {
    ($session:expr, $scene:expr, $camera:expr) => {{
        let start = Instant::now();
        let frame = $session.render($scene, $camera);
        let render_time = start.elapsed();
        let luminance = f64::from(frame.image.mean_luminance());
        let stats = frame.stats.clone();
        (render_time, luminance, stats)
    }};
}

struct PipelineReport {
    name: &'static str,
    warmup: PassStats,
    steady: PassStats,
    footprint_bytes: usize,
}

fn report_human(report: &PipelineReport) {
    println!(
        "{:<9} : {:>7.1} frames/s steady ({} frames), warm-up {} B ({} allocs), \
         steady {} B/frame (max {} B, {} allocs), arena {} B, checksum {:.4}",
        report.name,
        report.steady.fps(),
        report.steady.frames,
        report.warmup.bytes,
        report.warmup.allocation_calls,
        report.steady.bytes_per_frame(),
        report.steady.max_frame_bytes,
        report.steady.allocation_calls,
        report.footprint_bytes,
        report.steady.checksum,
    );
    let steady = &report.steady;
    println!(
        "          stages: preprocess {:.3} ms, identify {:.3} ms, sort {:.3} ms, \
         raster {:.3} ms | tiles tested {}, hit {}, trimmed {}",
        steady.preprocess.as_secs_f64() * 1e3,
        steady.identify.as_secs_f64() * 1e3,
        steady.sort.as_secs_f64() * 1e3,
        steady.raster.as_secs_f64() * 1e3,
        steady.counts.tiles_tested,
        steady.counts.tiles_hit,
        steady.counts.prepass_overcount_trimmed,
    );
    println!(
        "          spans: {} rows built, {} alpha skipped, {} saturation exits",
        steady.counts.span_rows_built,
        steady.counts.span_skipped_alpha,
        steady.counts.tile_saturation_exits,
    );
}

fn report_json(report: &PipelineReport, options: &HarnessOptions, width: u32, height: u32) {
    let steady = &report.steady;
    println!(
        "{{\"bench\":\"trajectory_throughput\",\"pipeline\":\"{}\",\"scale\":\"{:?}\",\
         \"prepass\":\"{:?}\",\"simd\":\"{:?}\",\"span\":\"{:?}\",\
         \"width\":{},\"height\":{},\"frames\":{},\"steady_fps\":{:.3},\
         \"preprocess_ms\":{:.3},\"identify_ms\":{:.3},\"sort_ms\":{:.3},\"raster_ms\":{:.3},\
         \"tiles_tested\":{},\"tiles_hit\":{},\"prepass_overcount_trimmed\":{},\
         \"tile_intersections\":{},\"sort_keys\":{},\"alpha_computations\":{},\
         \"span_rows_built\":{},\"span_skipped_alpha\":{},\"tile_saturation_exits\":{},\
         \"warmup_bytes\":{},\"steady_bytes_total\":{},\"steady_bytes_per_frame\":{:.3},\
         \"steady_max_frame_bytes\":{},\"steady_allocation_calls\":{},\
         \"arena_footprint_bytes\":{},\"checksum_luminance\":{:.6},\"counts\":{}}}",
        report.name,
        options.scale,
        options.prepass,
        options.simd,
        options.span,
        width,
        height,
        steady.frames,
        steady.fps(),
        steady.preprocess.as_secs_f64() * 1e3,
        steady.identify.as_secs_f64() * 1e3,
        steady.sort.as_secs_f64() * 1e3,
        steady.raster.as_secs_f64() * 1e3,
        steady.counts.tiles_tested,
        steady.counts.tiles_hit,
        steady.counts.prepass_overcount_trimmed,
        steady.counts.tile_intersections,
        steady.counts.sort_keys,
        steady.counts.alpha_computations,
        steady.counts.span_rows_built,
        steady.counts.span_skipped_alpha,
        steady.counts.tile_saturation_exits,
        report.warmup.bytes,
        steady.bytes,
        steady.bytes_per_frame(),
        steady.max_frame_bytes,
        steady.allocation_calls,
        report.footprint_bytes,
        steady.checksum,
        steady.counts.to_json(),
    );
}

fn main() {
    let options = HarnessOptions::from_args();
    let frames = options.frames.unwrap_or(12);
    let scene_id = PaperScene::Playroom;
    let scene = options.scene(scene_id);
    let reference = options.camera(scene_id);
    let intrinsics = CameraIntrinsics::from_fov_y(
        reference.intrinsics().fov_y(),
        reference.width(),
        reference.height(),
    );
    let profile = scene_id.profile(options.scale);
    let trajectory = CameraTrajectory::lateral_sweep(
        intrinsics,
        profile.lateral_extent * 0.25,
        (profile.depth_range.0 + profile.depth_range.1) * 0.4,
        frames,
    );

    if !options.json {
        println!("# Trajectory throughput — reused sessions over {frames} poses");
        println!(
            "# workload: {}, scene `{}` ({} Gaussians) at {}x{}",
            options.describe(),
            scene.name(),
            scene.len(),
            reference.width(),
            reference.height()
        );
        println!();
    }

    // The baseline session runs the original 3D-GS configuration (AABB
    // boundary) — exactly the conservative overcount the exact prepass is
    // built to trim, so the conservative/exact stage times are comparable.
    let baseline_config = options.tuned_render_config(RenderConfig::new(16, BoundaryMethod::Aabb));
    let mut baseline = RenderSession::from_config(baseline_config);
    let baseline_report = PipelineReport {
        name: "baseline",
        warmup: run_pass(&trajectory, |camera| timed_frame!(baseline, &scene, camera)),
        steady: run_pass(&trajectory, |camera| timed_frame!(baseline, &scene, camera)),
        footprint_bytes: baseline.footprint_bytes(),
    };

    let mut grouped =
        GstgSession::from_config(options.tuned_gstg_config(GstgConfig::paper_default()));
    let gstg_report = PipelineReport {
        name: "gstg",
        warmup: run_pass(&trajectory, |camera| timed_frame!(grouped, &scene, camera)),
        steady: run_pass(&trajectory, |camera| timed_frame!(grouped, &scene, camera)),
        footprint_bytes: grouped.footprint_bytes(),
    };

    let mut steady_state_clean = true;
    let mut accounting_clean = true;
    for report in [&baseline_report, &gstg_report] {
        if options.json {
            report_json(report, &options, reference.width(), reference.height());
        } else {
            report_human(report);
        }
        if report.steady.bytes > 0 {
            steady_state_clean = false;
        }
        // Prepass accounting: a hit can only come from a test, and in the
        // baseline pipeline every accepted tile becomes exactly one CSR
        // intersection entry (the GS-TG pipeline counts hits at small-tile
        // granularity and entries at group granularity, so only the
        // test-vs-hit bound applies there).
        let counts = &report.steady.counts;
        for (identity, left, right) in counts.identities() {
            if left != right {
                eprintln!(
                    "error: {}: {identity} fails ({left} != {right})",
                    report.name
                );
                accounting_clean = false;
            }
        }
        if counts.tiles_hit > counts.tiles_tested {
            eprintln!(
                "error: {}: tiles_hit {} exceeds tiles_tested {}",
                report.name, counts.tiles_hit, counts.tiles_tested
            );
            accounting_clean = false;
        }
        if report.name == "baseline" && counts.tiles_hit != counts.tile_intersections {
            eprintln!(
                "error: {}: tiles_hit {} diverged from the {} intersection-list entries",
                report.name, counts.tiles_hit, counts.tile_intersections
            );
            accounting_clean = false;
        }
    }
    // Both pipelines rendered the same poses from the same scene: the
    // checksums must agree bit-for-bit (losslessness), and with the
    // conservative prepass nothing may be trimmed.
    if (baseline_report.steady.checksum - gstg_report.steady.checksum).abs() > 0.0 {
        eprintln!(
            "error: baseline checksum {:.9} != gstg checksum {:.9}",
            baseline_report.steady.checksum, gstg_report.steady.checksum
        );
        accounting_clean = false;
    }
    if options.prepass == splat_render::PrepassMode::Conservative
        && (baseline_report.steady.counts.prepass_overcount_trimmed != 0
            || gstg_report.steady.counts.prepass_overcount_trimmed != 0)
    {
        eprintln!("error: conservative prepass must trim nothing");
        accounting_clean = false;
    }

    // Span-walk cross-check: render the trajectory once per span mode
    // through both pipelines and prove the row-interval walk is lossless
    // (bit-identical checksums) and its accounting reconciles exactly —
    // the α evaluations it performs plus the ones it skips equal the full
    // walk's brute-force count, and the full walk reports no span
    // activity. This is CI's mechanical guard against the span math
    // drifting out from under the pinned golden digests.
    for name in ["baseline", "gstg"] {
        let mut per_mode: Vec<(f64, StageCounts)> = Vec::new();
        for span in SpanMode::ALL {
            let pass = if name == "baseline" {
                let config = options
                    .tuned_render_config(RenderConfig::new(16, BoundaryMethod::Aabb))
                    .with_span(span);
                let mut session = RenderSession::from_config(config);
                run_pass(&trajectory, |camera| timed_frame!(session, &scene, camera))
            } else {
                let config = options
                    .tuned_gstg_config(GstgConfig::paper_default())
                    .with_span(span);
                let mut session = GstgSession::from_config(config);
                run_pass(&trajectory, |camera| timed_frame!(session, &scene, camera))
            };
            per_mode.push((pass.checksum, pass.counts));
        }
        let (full_checksum, full_counts) = &per_mode[0];
        let (rows_checksum, rows_counts) = &per_mode[1];
        if (full_checksum - rows_checksum).abs() > 0.0 {
            eprintln!(
                "error: {name}: span checksum {rows_checksum:.9} diverged from \
                 full-walk checksum {full_checksum:.9}"
            );
            accounting_clean = false;
        }
        if rows_counts.alpha_computations + rows_counts.span_skipped_alpha
            != full_counts.alpha_computations
        {
            eprintln!(
                "error: {name}: span accounting drifted — {} computed + {} skipped != {} full",
                rows_counts.alpha_computations,
                rows_counts.span_skipped_alpha,
                full_counts.alpha_computations
            );
            accounting_clean = false;
        }
        if rows_counts.blend_operations != full_counts.blend_operations {
            eprintln!(
                "error: {name}: span walk changed blend count {} vs {}",
                rows_counts.blend_operations, full_counts.blend_operations
            );
            accounting_clean = false;
        }
        if full_counts.span_rows_built != 0
            || full_counts.span_skipped_alpha != 0
            || full_counts.tile_saturation_exits != 0
        {
            eprintln!("error: {name}: full walk reported span activity");
            accounting_clean = false;
        }
        if options.json {
            println!(
                "{{\"bench\":\"trajectory_throughput\",\"check\":\"span_reconciliation\",\
                 \"pipeline\":\"{name}\",\"full_alpha_computations\":{},\
                 \"rows_alpha_computations\":{},\"span_skipped_alpha\":{},\
                 \"span_rows_built\":{},\"tile_saturation_exits\":{},\
                 \"checksum_luminance\":{:.6}}}",
                full_counts.alpha_computations,
                rows_counts.alpha_computations,
                rows_counts.span_skipped_alpha,
                rows_counts.span_rows_built,
                rows_counts.tile_saturation_exits,
                rows_checksum,
            );
        } else {
            println!(
                "span check {name:<9}: full {} α, rows {} α + {} skipped \
                 ({} rows built, {} saturation exits) — reconciled",
                full_counts.alpha_computations,
                rows_counts.alpha_computations,
                rows_counts.span_skipped_alpha,
                rows_counts.span_rows_built,
                rows_counts.tile_saturation_exits,
            );
        }
    }

    // Batch-serving engine throughput over the same trajectory: one
    // `Engine::render_batch` per backend and thread count, timed in its
    // warmed-up steady state. The engine's outputs are owned framebuffers
    // (the product of a batch), so this pass is intentionally outside the
    // zero-allocation check that guards the session loops above.
    let cameras: Vec<Camera> = trajectory.cameras().collect();
    for backend in [Backend::Baseline, Backend::Gstg] {
        for threads in [1usize, 4] {
            let run = run_engine_batch(backend, threads, &scene, &cameras, &options);
            if options.json {
                println!(
                    "{}",
                    run.to_json(
                        "trajectory_throughput",
                        &options,
                        reference.width(),
                        reference.height()
                    )
                );
            } else {
                println!(
                    "engine {:<9} t={} : {:>7.1} frames/s batch ({} frames, {} workers, arena {} B, checksum {:.4})",
                    run.backend.label(),
                    run.threads,
                    run.fps(),
                    run.frames,
                    run.threads,
                    run.footprint_bytes,
                    run.checksum,
                );
            }
        }
    }

    if !options.json {
        println!();
        println!(
            "steady-state heap growth: {}",
            if steady_state_clean {
                "0 B across all frames (allocation-free)"
            } else {
                "NON-ZERO — session reuse is broken"
            }
        );
    }
    if !steady_state_clean {
        eprintln!("error: steady-state frames allocated memory; the frame arena must recycle every buffer");
        std::process::exit(1);
    }
    if !accounting_clean {
        std::process::exit(1);
    }
}
