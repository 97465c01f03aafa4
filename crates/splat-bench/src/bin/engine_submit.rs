//! Engine submit throughput/latency — the asynchronous serving path.
//!
//! Times `Engine::submit` + `JobHandle::wait` on a warmed-up engine for
//! both pipelines at 1 and 4 workers: a burst of submissions waited in
//! order (throughput, the shape a request router produces under load) and
//! single-job round trips on an idle engine (latency floor). The same
//! trajectory is also served through the synchronous `render_batch` so the
//! two serving paths can be compared line by line.
//!
//! ```text
//! cargo run --release -p splat-bench --bin engine_submit -- \
//!     --scale tiny --resolution-divisor 8 --frames 8 --json
//! ```
//!
//! `--json` emits one machine-readable object per configuration for
//! `BENCH_*.json` capture; the shared `--scale` / `--resolution-divisor` /
//! `--seed-offset` / `--frames` knobs of the experiment harness apply.
//!
//! `--registry` switches every submission to the handle-based path: the
//! scene is registered once (`Engine::register_scene`) and jobs reference
//! it through `SceneRef::Id`. The run also evicts the scene, provokes one
//! typed miss and re-registers, so the emitted `engine_stats` carry live
//! registered/evicted/hit/miss counters.
//!
//! The binary exits non-zero if the engine's counters disagree with the
//! work submitted (a lost or double-served job) — and, under
//! `--registry`, if the registry accounting drifts (`registered !=
//! resident + evicted`, a served job that was not a hit, or more than the
//! one provoked miss) — so CI smoke-runs enforce the serving accounting
//! mechanically.

use splat_bench::{
    run_engine_batch, run_engine_submit, run_engine_submit_registry, HarnessOptions,
};
use splat_engine::Backend;
use splat_scene::{CameraTrajectory, PaperScene};
use splat_types::{Camera, CameraIntrinsics};
use std::sync::Arc;

fn main() {
    let options = HarnessOptions::from_args();
    let registry_mode = std::env::args().any(|arg| arg == "--registry");
    let frames = options.frames.unwrap_or(12);
    let scene_id = PaperScene::Playroom;
    let scene = Arc::new(options.scene(scene_id));
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
    let cameras: Vec<Camera> = trajectory.cameras().collect();

    if !options.json {
        let mode = if registry_mode {
            "handle-based (SceneRef::Id)"
        } else {
            "inline (SceneRef::Inline)"
        };
        println!("# Engine submit throughput/latency — async serving over {frames} jobs, {mode}");
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

    let mut accounting_clean = true;
    for backend in [Backend::Baseline, Backend::Gstg] {
        for workers in [1usize, 4] {
            let run = if registry_mode {
                run_engine_submit_registry(backend, workers, &scene, &cameras, &options)
            } else {
                run_engine_submit(backend, workers, &scene, &cameras, &options)
            };
            let batch = run_engine_batch(backend, workers, &scene, &cameras, &options);
            if options.json {
                println!(
                    "{}",
                    run.to_json(
                        if registry_mode {
                            "engine_submit_registry"
                        } else {
                            "engine_submit"
                        },
                        &options,
                        reference.width(),
                        reference.height()
                    )
                );
            } else {
                println!(
                    "submit {:<9} w={} : {:>7.1} jobs/s burst, round trip {:.2} ms mean \
                     / {:.2} ms p50 / {:.2} ms p99 / {:.2} ms max, batch {:.1} frames/s, \
                     checksum {:.4}",
                    run.backend.label(),
                    run.workers,
                    run.jobs_per_second(),
                    run.round_trip_mean.as_secs_f64() * 1e3,
                    run.round_trip_p50.as_secs_f64() * 1e3,
                    run.round_trip_p99.as_secs_f64() * 1e3,
                    run.round_trip_max.as_secs_f64() * 1e3,
                    batch.fps(),
                    run.checksum,
                );
                if registry_mode {
                    println!(
                        "       registry    : {} registered, {} resident ({} B), {} evicted, \
                         {} hits, {} misses",
                        run.stats.registered,
                        run.stats.resident_scenes,
                        run.stats.resident_bytes,
                        run.stats.evicted,
                        run.stats.scene_hits,
                        run.stats.scene_misses,
                    );
                }
            }
            // Serving accounting: the engine must have served exactly the
            // submitted work — two bursts of `frames` plus the round trips
            // — and never shed or cancelled anything under Block admission.
            let expected =
                2 * run.frames as u64 + splat_bench::ROUND_TRIP_SAMPLES.min(run.frames) as u64;
            if run.stats.completed != expected
                || run.stats.rejected != 0
                || run.stats.cancelled != 0
                || run.stats.in_flight() != 0
            {
                eprintln!(
                    "error: {backend} w={workers}: expected {expected} completed jobs, \
                     got counters {}",
                    run.stats
                );
                accounting_clean = false;
            }
            // The same pixels must come out of both serving paths at every
            // quality tier: `run_engine_batch` degrades exactly like the
            // engine's async path, so the checksums cross-check the ladder.
            if (run.checksum - batch.checksum).abs() > 1e-12 {
                eprintln!(
                    "error: {backend} w={workers}: submit checksum {:.9} != batch checksum {:.9}",
                    run.checksum, batch.checksum
                );
                accounting_clean = false;
            }
            // Every identity `EngineStats` declares (quality split, scene
            // residency, job conservation) must hold on the drained engine.
            let stats = run.stats;
            for (identity, left, right) in stats.identities() {
                if left != right {
                    eprintln!(
                        "error: {backend} w={workers}: {identity} fails \
                         ({left} != {right}): {stats}"
                    );
                    accounting_clean = false;
                }
            }
            // A pinned tier degrades everything (a full-quality engine,
            // nothing).
            let expected_degraded = if options.quality.is_degraded() {
                expected
            } else {
                0
            };
            if stats.degraded != expected_degraded {
                eprintln!(
                    "error: {backend} w={workers}: expected {expected_degraded} degraded \
                     serves at quality {}, got counters {stats}",
                    options.quality
                );
                accounting_clean = false;
            }
            // Registry accounting: every handle-served job was a hit, and
            // exactly the one provoked miss occurred.
            if registry_mode {
                if stats.scene_hits != expected || stats.scene_misses != 1 {
                    eprintln!(
                        "error: {backend} w={workers}: expected {expected} hits / 1 miss, \
                         got {} hits / {} misses",
                        stats.scene_hits, stats.scene_misses
                    );
                    accounting_clean = false;
                }
            } else if run.stats.registered != 0 || run.stats.scene_hits != 0 {
                eprintln!(
                    "error: {backend} w={workers}: inline mode must not touch the registry, \
                     got counters {}",
                    run.stats
                );
                accounting_clean = false;
            }
        }
    }

    if !accounting_clean {
        std::process::exit(1);
    }
}
