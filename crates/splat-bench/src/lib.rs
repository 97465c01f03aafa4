//! Shared experiment harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the GS-TG
//! paper. They share the machinery here: the scene set, a proxy camera that
//! scales the paper's output resolution down so a full sweep finishes in
//! minutes on a laptop, and helpers that run the pipelines and convert
//! operation counts into normalized stage times.
//!
//! Resolution and scene size are controlled from the command line:
//!
//! ```text
//! cargo run --release -p splat-bench --bin fig03_runtime_breakdown -- \
//!     --scale small --resolution-divisor 4
//! ```
//!
//! `--scale {tiny|small|medium|paper}` selects the synthetic splat count
//! and `--resolution-divisor N` divides the paper's image resolution by `N`
//! (default 4). Trends are unaffected; absolute operation counts scale with
//! both knobs, which `EXPERIMENTS.md` documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gstg::{ExecutionModel, GstgConfig};
use splat_core::{HasExecution, RenderRequest, SimdMode, SpanMode};
use splat_engine::{Backend, Engine, QualityPolicy, QualityTier, SceneRef, SubmitRequest};
use splat_render::{
    BoundaryMethod, CostModel, PrepassMode, RenderConfig, Renderer, StageCounts, StageTimes,
};
use splat_scene::{PaperScene, Scene, SceneScale};
use splat_types::{Camera, CameraIntrinsics, RenderError, Vec3};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Synthetic scene size.
    pub scale: SceneScale,
    /// Divisor applied to the paper's output resolution.
    pub resolution_divisor: u32,
    /// Seed offset mixed into every scene's deterministic seed.
    pub seed_offset: u64,
    /// Emit machine-readable JSON instead of (or alongside) the human
    /// tables, so perf trajectories can be captured mechanically
    /// (`BENCH_*.json`).
    pub json: bool,
    /// Frame/view count override for trajectory-driven binaries; `None`
    /// keeps each binary's default.
    pub frames: Option<usize>,
    /// Tile-intersection prepass mode applied to both pipelines
    /// (`--exact-prepass` switches to [`PrepassMode::Exact`]).
    pub prepass: PrepassMode,
    /// SIMD lane width of the projection/blending kernels
    /// (`--simd {scalar|wide4|wide8}`).
    pub simd: SimdMode,
    /// Rasterization span mode (`--span {full|rows}`): the full tile walk
    /// or conservative per-row ellipse intervals with the tile-saturation
    /// early-out.
    pub span: SpanMode,
    /// Quality tier pinned on the serving engine
    /// (`--quality {full|t1|t2|t3}`): `full` leaves the engine on
    /// [`QualityPolicy::FullOnly`], any other tier pins every submitted job
    /// to that rung of the LOD ladder so the degraded serving path can be
    /// benchmarked and smoke-tested.
    pub quality: QualityTier,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: SceneScale::Small,
            resolution_divisor: 4,
            seed_offset: 0,
            json: false,
            frames: None,
            prepass: PrepassMode::Conservative,
            simd: SimdMode::Scalar,
            span: SpanMode::Full,
            quality: QualityTier::Full,
        }
    }
}

impl HarnessOptions {
    /// Parses options from process arguments; unknown arguments are
    /// ignored so binaries can add their own flags.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument list (used by tests).
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = Self::default();
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    options.scale = match args[i + 1].to_lowercase().as_str() {
                        "tiny" => SceneScale::Tiny,
                        "small" => SceneScale::Small,
                        "medium" => SceneScale::Medium,
                        "paper" => SceneScale::Paper,
                        other => {
                            eprintln!("unknown scale `{other}`, using small");
                            SceneScale::Small
                        }
                    };
                    i += 1;
                }
                "--resolution-divisor" if i + 1 < args.len() => {
                    options.resolution_divisor = args[i + 1].parse().unwrap_or(4).max(1);
                    i += 1;
                }
                "--seed-offset" if i + 1 < args.len() => {
                    options.seed_offset = args[i + 1].parse().unwrap_or(0);
                    i += 1;
                }
                "--json" => {
                    options.json = true;
                }
                "--frames" if i + 1 < args.len() => {
                    options.frames = args[i + 1].parse().ok().map(|n: usize| n.max(1));
                    i += 1;
                }
                "--exact-prepass" => {
                    options.prepass = PrepassMode::Exact;
                }
                "--simd" if i + 1 < args.len() => {
                    options.simd = match args[i + 1].to_lowercase().as_str() {
                        "scalar" => SimdMode::Scalar,
                        "wide4" => SimdMode::Wide4,
                        "wide8" => SimdMode::Wide8,
                        other => {
                            eprintln!("unknown simd mode `{other}`, using scalar");
                            SimdMode::Scalar
                        }
                    };
                    i += 1;
                }
                "--span" if i + 1 < args.len() => {
                    options.span = match args[i + 1].to_lowercase().as_str() {
                        "full" => SpanMode::Full,
                        "rows" => SpanMode::RowSpans,
                        other => {
                            eprintln!("unknown span mode `{other}`, using full");
                            SpanMode::Full
                        }
                    };
                    i += 1;
                }
                "--quality" if i + 1 < args.len() => {
                    options.quality = QualityTier::from_label(args[i + 1].to_lowercase().as_str())
                        .unwrap_or_else(|| {
                            eprintln!("unknown quality tier `{}`, using full", args[i + 1]);
                            QualityTier::Full
                        });
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        options
    }

    /// Builds the synthetic scene for a paper scene at the configured
    /// scale.
    pub fn scene(&self, scene: PaperScene) -> Scene {
        scene.build(self.scale, self.seed_offset)
    }

    /// The evaluation camera for a scene: the paper's field of view at the
    /// paper's resolution divided by `resolution_divisor`.
    pub fn camera(&self, scene: PaperScene) -> Camera {
        let full = scene.default_camera();
        let (w, h) = scene.resolution();
        let divisor = self.resolution_divisor.max(1);
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(
                full.intrinsics().fov_y(),
                (w / divisor).max(64),
                (h / divisor).max(64),
            ),
        )
    }

    /// Human-readable description of the workload configuration, printed
    /// at the top of every experiment's output.
    pub fn describe(&self) -> String {
        let mut description = format!(
            "scale={:?}, resolution divisor={}, seed offset={}",
            self.scale, self.resolution_divisor, self.seed_offset
        );
        if let Some(frames) = self.frames {
            description.push_str(&format!(", frames={frames}"));
        }
        if self.prepass != PrepassMode::Conservative {
            description.push_str(&format!(", prepass={:?}", self.prepass));
        }
        if self.simd != SimdMode::Scalar {
            description.push_str(&format!(", simd={:?}", self.simd));
        }
        if self.span != SpanMode::Full {
            description.push_str(&format!(", span={:?}", self.span));
        }
        if self.quality != QualityTier::Full {
            description.push_str(&format!(", quality={}", self.quality));
        }
        description
    }

    /// The engine [`QualityPolicy`] implied by `--quality`: `full` keeps
    /// the default [`QualityPolicy::FullOnly`] engine, any other tier is
    /// pinned so every submitted job serves at exactly that rung.
    pub fn quality_policy(&self) -> QualityPolicy {
        if self.quality == QualityTier::Full {
            QualityPolicy::FullOnly
        } else {
            QualityPolicy::Pinned(self.quality)
        }
    }

    /// Applies the shared `--exact-prepass` / `--simd` / `--span` knobs to
    /// a baseline pipeline configuration.
    pub fn tuned_render_config(&self, config: RenderConfig) -> RenderConfig {
        config
            .with_prepass(self.prepass)
            .with_simd(self.simd)
            .with_span(self.span)
    }

    /// Applies the shared `--exact-prepass` / `--simd` / `--span` knobs to
    /// a GS-TG pipeline configuration.
    pub fn tuned_gstg_config(&self, config: GstgConfig) -> GstgConfig {
        config
            .with_prepass(self.prepass)
            .with_simd(self.simd)
            .with_span(self.span)
    }
}

/// Result of running one pipeline configuration over one scene/view.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Operation counts of the frame.
    pub counts: StageCounts,
    /// Normalized stage times from the analytic cost model.
    pub times: StageTimes,
}

/// Runs the conventional baseline pipeline and converts its counts into
/// normalized stage times.
pub fn run_baseline(
    scene: &Scene,
    camera: &Camera,
    tile_size: u32,
    boundary: BoundaryMethod,
) -> PipelineRun {
    let renderer = Renderer::new(RenderConfig::new(tile_size, boundary));
    let output = renderer.render(scene, camera);
    let times = CostModel::new().baseline_times(&output.stats.counts, boundary);
    PipelineRun {
        counts: output.stats.counts,
        times,
    }
}

/// Runs the GS-TG pipeline and converts its counts into normalized stage
/// times for the execution model selected by `config.exec.model`
/// ([`ExecutionModel::AcceleratorOverlapped`] hides bitmask generation
/// behind group-wise sorting; the default GPU model pays for it in
/// preprocessing).
pub fn run_gstg(scene: &Scene, camera: &Camera, config: GstgConfig) -> PipelineRun {
    let output = gstg::GstgRenderer::new(config).render(scene, camera);
    let model = CostModel::new();
    let times = match config.exec.model {
        ExecutionModel::AcceleratorOverlapped => model.gstg_overlapped_times(
            &output.stats.counts,
            config.group_boundary,
            config.bitmask_boundary,
        ),
        ExecutionModel::GpuSequential => model.gstg_sequential_times(
            &output.stats.counts,
            config.group_boundary,
            config.bitmask_boundary,
        ),
    };
    PipelineRun {
        counts: output.stats.counts,
        times,
    }
}

/// Result of timing one warmed-up [`Engine::render_batch`] call over a
/// set of views.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// The engine backend the batch was served with.
    pub backend: Backend,
    /// Batch-level worker thread count.
    pub threads: usize,
    /// Requests served.
    pub frames: usize,
    /// Wall-clock time of the timed (second) batch.
    pub elapsed: Duration,
    /// Mean-luminance checksum keeping the rendered pixels observable.
    pub checksum: f64,
    /// Bytes reserved by the engine's recycled per-worker sessions after
    /// the batch.
    pub footprint_bytes: usize,
}

impl BatchRun {
    /// Frames per second of the timed batch.
    pub fn fps(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// One machine-readable JSON object for `BENCH_*.json` capture on the
    /// shared `--json` path.
    pub fn to_json(
        &self,
        bench: &str,
        options: &HarnessOptions,
        width: u32,
        height: u32,
    ) -> String {
        format!(
            "{{\"bench\":\"{bench}\",\"pipeline\":\"engine-{}\",\"scale\":\"{:?}\",\
             \"prepass\":\"{:?}\",\"simd\":\"{:?}\",\"span\":\"{:?}\",\"quality\":\"{}\",\
             \"width\":{width},\"height\":{height},\"threads\":{},\"frames\":{},\
             \"batch_fps\":{:.3},\"batch_ms\":{:.3},\"engine_footprint_bytes\":{},\
             \"checksum_luminance\":{:.6}}}",
            self.backend,
            options.scale,
            options.prepass,
            options.simd,
            options.span,
            options.quality,
            self.threads,
            self.frames,
            self.fps(),
            self.elapsed.as_secs_f64() * 1e3,
            self.footprint_bytes,
            self.checksum,
        )
    }
}

/// Serves every view once as a warm-up batch (growing the per-worker
/// arenas), then times a second batch — the recycled steady state a server
/// runs in — and returns its timing.
///
/// # Panics
///
/// Panics if the engine rejects a request: the harness only builds valid
/// scenes and cameras, so a rejection is a bug worth failing loudly on.
pub fn run_engine_batch(
    backend: Backend,
    threads: usize,
    scene: &Scene,
    cameras: &[Camera],
    options: &HarnessOptions,
) -> BatchRun {
    let engine = Engine::builder()
        .backend(backend)
        .threads(threads)
        .quality(options.quality_policy())
        .render_config(options.tuned_render_config(RenderConfig::default()))
        .gstg_config(options.tuned_gstg_config(GstgConfig::paper_default()))
        .build()
        // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
        .expect("default pipeline configurations are valid");
    // A degraded `--quality` serves the tier exactly the way the engine's
    // async path does — the derived tier scene, rendered at half
    // resolution and upsampled back for tiers that call for it — so
    // submit-vs-batch checksums stay comparable at every rung.
    let tier = options.quality;
    let derived;
    let serve_scene: &Scene = if tier.is_degraded() {
        derived = tier.apply(scene);
        &derived
    } else {
        scene
    };
    let render_cameras: Vec<Camera> = if tier.half_resolution() {
        cameras
            .iter()
            .map(|camera| camera.half_resolution())
            .collect()
    } else {
        cameras.to_vec()
    };
    let requests: Vec<RenderRequest<'_>> = render_cameras
        .iter()
        .map(|camera| RenderRequest::new(serve_scene, *camera))
        .collect();
    let _ = engine.render_batch(&requests);
    let start = Instant::now();
    let results = engine.render_batch(&requests);
    let elapsed = start.elapsed();
    let mut checksum = 0.0;
    for (result, camera) in results.iter().zip(cameras) {
        let output = result
            .as_ref()
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            .unwrap_or_else(|error| panic!("engine rejected a harness request: {error}"));
        checksum += if tier.half_resolution() {
            f64::from(
                output
                    .image
                    .upsample_nearest(camera.width(), camera.height())
                    .mean_luminance(),
            )
        } else {
            f64::from(output.image.mean_luminance())
        };
    }
    BatchRun {
        backend,
        threads,
        frames: results.len(),
        elapsed,
        checksum,
        footprint_bytes: engine.footprint_bytes(),
    }
}

/// Result of timing the asynchronous serving path: one warmed-up
/// submit-all/wait-all burst plus a sequence of single-job round trips.
#[derive(Debug, Clone)]
pub struct SubmitRun {
    /// The engine backend the jobs were served with.
    pub backend: Backend,
    /// Worker threads (pooled sessions) draining the queue.
    pub workers: usize,
    /// Jobs served in the timed burst.
    pub frames: usize,
    /// Wall-clock time of the timed burst (submit all, wait all).
    pub elapsed: Duration,
    /// Mean single-job submit→wait round-trip time on an idle engine.
    pub round_trip_mean: Duration,
    /// Median (nearest-rank p50) single-job round trip.
    pub round_trip_p50: Duration,
    /// Nearest-rank p99 single-job round trip (the tail a latency SLO
    /// watches; with few samples this degenerates to the maximum).
    pub round_trip_p99: Duration,
    /// Worst single-job round trip observed.
    pub round_trip_max: Duration,
    /// Mean-luminance checksum keeping the rendered pixels observable.
    pub checksum: f64,
    /// Serving counters after the run.
    pub stats: splat_engine::EngineStats,
}

impl SubmitRun {
    /// Jobs per second of the timed burst.
    pub fn jobs_per_second(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// One machine-readable JSON object for `BENCH_*.json` capture on the
    /// shared `--json` path.
    pub fn to_json(
        &self,
        bench: &str,
        options: &HarnessOptions,
        width: u32,
        height: u32,
    ) -> String {
        format!(
            "{{\"bench\":\"{bench}\",\"pipeline\":\"engine-submit-{}\",\"scale\":\"{:?}\",\
             \"prepass\":\"{:?}\",\"simd\":\"{:?}\",\"span\":\"{:?}\",\"quality\":\"{}\",\
             \"width\":{width},\"height\":{height},\"workers\":{},\"frames\":{},\
             \"submit_jobs_per_s\":{:.3},\"burst_ms\":{:.3},\
             \"round_trip_mean_ms\":{:.3},\"round_trip_p50_ms\":{:.3},\
             \"round_trip_p99_ms\":{:.3},\"round_trip_max_ms\":{:.3},\
             \"checksum_luminance\":{:.6},\"engine_stats\":{}}}",
            self.backend,
            options.scale,
            options.prepass,
            options.simd,
            options.span,
            options.quality,
            self.workers,
            self.frames,
            self.jobs_per_second(),
            self.elapsed.as_secs_f64() * 1e3,
            self.round_trip_mean.as_secs_f64() * 1e3,
            self.round_trip_p50.as_secs_f64() * 1e3,
            self.round_trip_p99.as_secs_f64() * 1e3,
            self.round_trip_max.as_secs_f64() * 1e3,
            self.checksum,
            self.stats.to_json(),
        )
    }
}

/// Times the asynchronous serving path on a warmed-up engine: submits every
/// view as one burst through [`Engine::submit`] and waits the handles in
/// submission order (throughput), then measures single-job submit→wait
/// round trips on the idle engine (latency).
///
/// # Panics
///
/// Panics if the engine rejects or fails a request: the harness uses the
/// blocking admission policy and valid scenes, so nothing should ever be
/// shed.
pub fn run_engine_submit(
    backend: Backend,
    workers: usize,
    scene: &Arc<splat_scene::Scene>,
    cameras: &[Camera],
    options: &HarnessOptions,
) -> SubmitRun {
    let engine = Engine::builder()
        .backend(backend)
        .workers(workers)
        .quality(options.quality_policy())
        .render_config(options.tuned_render_config(RenderConfig::default()))
        .gstg_config(options.tuned_gstg_config(GstgConfig::paper_default()))
        .build()
        // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
        .expect("default pipeline configurations are valid");
    run_submit_on(engine, backend, workers, scene, None, cameras)
}

/// Handle-based variant of [`run_engine_submit`]: the scene is registered
/// once and every job references it through `SceneRef::Id`, so the timed
/// path includes the registry resolution. The run also exercises the
/// slow-timescale controls — the scene is evicted, a miss is provoked
/// (`RenderError::Evicted`), and the scene re-registered — so the
/// returned stats carry non-trivial registered/evicted/hit/miss counters
/// for the `engine_submit --registry` accounting check.
///
/// # Panics
///
/// Panics if registration, any handle-based submission, or the provoked
/// miss behaves differently than the registry contract promises.
pub fn run_engine_submit_registry(
    backend: Backend,
    workers: usize,
    scene: &Arc<splat_scene::Scene>,
    cameras: &[Camera],
    options: &HarnessOptions,
) -> SubmitRun {
    let engine = Engine::builder()
        .backend(backend)
        .workers(workers)
        .quality(options.quality_policy())
        .render_config(options.tuned_render_config(RenderConfig::default()))
        .gstg_config(options.tuned_gstg_config(GstgConfig::paper_default()))
        .build()
        // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
        .expect("default pipeline configurations are valid");
    let id = engine
        .register_scene(Arc::clone(scene))
        // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
        .expect("harness scenes are non-empty");
    run_submit_on(engine, backend, workers, scene, Some(id), cameras)
}

/// Shared burst/round-trip timing over one engine; jobs reference the
/// scene by registered handle when `id` is `Some`, inline otherwise. In
/// handle mode the eviction/miss/re-register sequence is exercised after
/// timing, so the final stats include non-trivial registry counters.
fn run_submit_on(
    engine: Engine,
    backend: Backend,
    workers: usize,
    scene: &Arc<splat_scene::Scene>,
    id: Option<splat_engine::SceneId>,
    cameras: &[Camera],
) -> SubmitRun {
    let scene_ref = match id {
        Some(id) => SceneRef::Id(id),
        None => SceneRef::Inline(Arc::clone(scene)),
    };
    let submit_all = |engine: &Engine| -> f64 {
        let handles: Vec<splat_engine::JobHandle> = cameras
            .iter()
            .map(|camera| {
                engine
                    .submit(SubmitRequest::new(scene_ref.clone(), *camera))
                    // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
                    .expect("blocking admission never rejects")
            })
            .collect();
        let mut checksum = 0.0;
        for handle in handles {
            let output = handle
                .wait()
                // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
                .unwrap_or_else(|error| panic!("engine rejected a harness request: {error}"));
            checksum += f64::from(output.image.mean_luminance());
        }
        checksum
    };
    // Warm-up burst grows the per-worker arenas; the timed burst is the
    // recycled steady state a server runs in.
    let _ = submit_all(&engine);
    let start = Instant::now();
    let checksum = submit_all(&engine);
    let elapsed = start.elapsed();

    let round_trips = ROUND_TRIP_SAMPLES.min(cameras.len());
    let mut total = Duration::ZERO;
    let mut samples: Vec<Duration> = Vec::with_capacity(round_trips);
    for camera in &cameras[..round_trips] {
        let start = Instant::now();
        let output = engine
            .submit(SubmitRequest::new(scene_ref.clone(), *camera))
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            .expect("blocking admission never rejects")
            .wait()
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            .expect("valid request");
        let trip = start.elapsed();
        assert!(output.image.pixel_count() > 0);
        total += trip;
        samples.push(trip);
    }
    samples.sort_unstable();
    let percentile = |pct: f64| -> Duration {
        match samples.len() {
            0 => Duration::ZERO,
            n => {
                // Nearest-rank percentile over the sorted samples.
                let rank = ((pct / 100.0) * n as f64).ceil() as usize;
                samples[rank.clamp(1, n) - 1]
            }
        }
    };

    // Registry mode: exercise the slow-timescale controls so the counters
    // in the JSON output are non-trivial (and checkable).
    if let Some(id) = id {
        // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
        engine.evict_scene(id).expect("scene is resident");
        match engine.submit(SubmitRequest::new(id, cameras[0])) {
            Err(RenderError::Evicted { id: missed }) if missed == id => {}
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            other => panic!("evicted handle must miss with Evicted, got {other:?}"),
        }
        let again = engine
            .register_scene(Arc::clone(scene))
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            .expect("re-registration succeeds");
        let prepared = engine
            .prepared_scene(again)
            // lint:allow(no-panic-paths): bench harness invariant; aborting loudly beats timing a lie
            .expect("re-registered scene is resident");
        assert!(prepared.footprint_bytes() > 0);
    }

    SubmitRun {
        backend,
        workers,
        frames: cameras.len(),
        elapsed,
        round_trip_mean: total.div_f64(round_trips.max(1) as f64),
        round_trip_p50: percentile(50.0),
        round_trip_p99: percentile(99.0),
        round_trip_max: samples.last().copied().unwrap_or(Duration::ZERO),
        checksum,
        stats: engine.stats(),
    }
}

/// Round-trip latency samples taken by [`run_engine_submit`] after the
/// timed burst (capped by the view count). Enough samples that the
/// nearest-rank p50/p99 are distinct on the default 12-frame trajectory.
pub const ROUND_TRIP_SAMPLES: usize = 16;

/// The tile sizes swept by the motivation figures (Figs. 3, 5, 7, Table I).
pub const TILE_SIZE_SWEEP: [u32; 4] = [8, 16, 32, 64];

/// The tile+group combinations swept by Fig. 11.
pub const GROUPING_SWEEP: [(u32, u32); 5] = [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_quarter_resolution() {
        let o = HarnessOptions::default();
        assert_eq!(o.scale, SceneScale::Small);
        assert_eq!(o.resolution_divisor, 4);
    }

    #[test]
    fn parse_reads_known_flags_and_ignores_unknown() {
        let o = HarnessOptions::parse([
            "--scale",
            "tiny",
            "--unknown",
            "--resolution-divisor",
            "8",
            "--seed-offset",
            "3",
            "--json",
            "--frames",
            "7",
            "--exact-prepass",
            "--simd",
            "wide8",
            "--span",
            "rows",
            "--quality",
            "t2",
        ]);
        assert_eq!(o.scale, SceneScale::Tiny);
        assert_eq!(o.resolution_divisor, 8);
        assert_eq!(o.seed_offset, 3);
        assert!(o.json);
        assert_eq!(o.frames, Some(7));
        assert_eq!(o.prepass, PrepassMode::Exact);
        assert_eq!(o.simd, SimdMode::Wide8);
        assert_eq!(o.span, SpanMode::RowSpans);
        assert_eq!(o.quality, QualityTier::Tier2);
        assert_eq!(
            o.quality_policy(),
            QualityPolicy::Pinned(QualityTier::Tier2)
        );
        assert!(o.describe().contains("frames=7"));
        assert!(o.describe().contains("prepass=Exact"));
        assert!(o.describe().contains("simd=Wide8"));
        assert!(o.describe().contains("span=RowSpans"));
        assert!(o.describe().contains("quality=t2"));
        let d = HarnessOptions::default();
        assert!(!d.json);
        assert_eq!(d.frames, None);
        assert_eq!(d.prepass, PrepassMode::Conservative);
        assert_eq!(d.simd, SimdMode::Scalar);
        assert_eq!(d.span, SpanMode::Full);
        assert_eq!(d.quality, QualityTier::Full);
        assert_eq!(d.quality_policy(), QualityPolicy::FullOnly);
        assert!(!d.describe().contains("frames="));
        assert!(!d.describe().contains("prepass="));
        assert!(!d.describe().contains("simd="));
        assert!(!d.describe().contains("span="));
        assert!(!d.describe().contains("quality="));
    }

    #[test]
    fn parse_falls_back_on_bad_values() {
        let o = HarnessOptions::parse([
            "--scale",
            "bogus",
            "--resolution-divisor",
            "zero",
            "--simd",
            "avx512",
            "--span",
            "diagonal",
            "--quality",
            "t9",
        ]);
        assert_eq!(o.scale, SceneScale::Small);
        assert_eq!(o.resolution_divisor, 4);
        assert_eq!(o.simd, SimdMode::Scalar);
        assert_eq!(o.span, SpanMode::Full);
        assert_eq!(o.quality, QualityTier::Full);
    }

    #[test]
    fn tuned_configs_carry_the_prepass_and_simd_knobs() {
        let o = HarnessOptions::parse(["--exact-prepass", "--simd", "wide4", "--span", "rows"]);
        let render = o.tuned_render_config(RenderConfig::default());
        assert_eq!(render.prepass, PrepassMode::Exact);
        assert_eq!(render.simd(), SimdMode::Wide4);
        assert_eq!(render.span(), SpanMode::RowSpans);
        let grouped = o.tuned_gstg_config(GstgConfig::paper_default());
        assert_eq!(grouped.prepass, PrepassMode::Exact);
        assert_eq!(grouped.simd(), SimdMode::Wide4);
        assert_eq!(grouped.span(), SpanMode::RowSpans);
        // Default knobs leave the configurations untouched.
        let d = HarnessOptions::default();
        assert_eq!(
            d.tuned_render_config(RenderConfig::default()),
            RenderConfig::default()
        );
    }

    #[test]
    fn camera_resolution_is_divided() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 4,
            ..HarnessOptions::default()
        };
        let cam = o.camera(PaperScene::Train);
        assert_eq!(cam.width(), 1959 / 4);
        assert_eq!(cam.height(), 1090 / 4);
    }

    #[test]
    fn engine_batch_harness_reports_fps_and_json() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 16,
            json: true,
            ..HarnessOptions::default()
        };
        let scene = o.scene(PaperScene::Playroom);
        let camera = o.camera(PaperScene::Playroom);
        let cameras = vec![camera; 3];
        let run = run_engine_batch(Backend::Gstg, 2, &scene, &cameras, &o);
        assert_eq!(run.frames, 3);
        assert!(run.fps() > 0.0);
        assert!(run.footprint_bytes > 0);
        let json = run.to_json("trajectory_throughput", &o, camera.width(), camera.height());
        assert!(json.contains("\"pipeline\":\"engine-gstg\""));
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"prepass\":\"Conservative\""));
        assert!(json.contains("\"simd\":\"Scalar\""));
    }

    #[test]
    fn engine_submit_harness_reports_throughput_latency_and_json() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 16,
            json: true,
            ..HarnessOptions::default()
        };
        let scene = Arc::new(o.scene(PaperScene::Playroom));
        let camera = o.camera(PaperScene::Playroom);
        let cameras = vec![camera; 3];
        let run = run_engine_submit(Backend::Gstg, 2, &scene, &cameras, &o);
        assert_eq!(run.frames, 3);
        assert!(run.jobs_per_second() > 0.0);
        assert!(run.round_trip_mean > Duration::ZERO);
        assert!(run.round_trip_p50 <= run.round_trip_p99);
        assert!(run.round_trip_p99 <= run.round_trip_max);
        assert!(run.round_trip_max >= run.round_trip_mean);
        // Two bursts of 3 plus 3 round trips, nothing shed.
        assert_eq!(run.stats.completed, 9);
        assert_eq!(run.stats.rejected, 0);
        let json = run.to_json("engine_submit", &o, camera.width(), camera.height());
        assert!(json.contains("\"pipeline\":\"engine-submit-gstg\""));
        assert!(json.contains("\"workers\":2"));
        assert!(json.contains("\"round_trip_p50_ms\""));
        assert!(json.contains("\"round_trip_p99_ms\""));
        assert!(json.contains("\"engine_stats\":{\"submitted\":9"));
    }

    #[test]
    fn engine_submit_registry_harness_reconciles_registry_counters() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 16,
            json: true,
            ..HarnessOptions::default()
        };
        let scene = Arc::new(o.scene(PaperScene::Playroom));
        let camera = o.camera(PaperScene::Playroom);
        let cameras = vec![camera; 3];
        let inline = run_engine_submit(Backend::Gstg, 2, &scene, &cameras, &o);
        let registry = run_engine_submit_registry(Backend::Gstg, 2, &scene, &cameras, &o);
        // Same jobs, same pixels: the handle is invisible in the output.
        assert_eq!(registry.stats.completed, inline.stats.completed);
        assert!((registry.checksum - inline.checksum).abs() < 1e-12);
        // Two registrations (initial + the post-eviction re-register), one
        // eviction, one provoked miss, every served job a hit.
        assert_eq!(registry.stats.registered, 2);
        assert_eq!(registry.stats.evicted, 1);
        assert_eq!(registry.stats.resident_scenes, 1);
        for (identity, left, right) in registry.stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
        assert_eq!(registry.stats.scene_hits, registry.stats.submitted);
        assert_eq!(registry.stats.scene_misses, 1);
        let json = registry.to_json("engine_submit", &o, camera.width(), camera.height());
        assert!(json.contains("\"registered\":2"));
        assert!(json.contains("\"scene_misses\":1"));
        // The inline run keeps zeroed registry counters.
        assert_eq!(inline.stats.registered, 0);
        assert_eq!(inline.stats.scene_hits, 0);
    }

    #[test]
    fn pinned_quality_serves_every_submitted_job_degraded() {
        // The degraded smoke run: a `--quality t1` engine must serve every
        // job below full quality and report it in the per-tier counters.
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 16,
            json: true,
            quality: QualityTier::Tier1,
            ..HarnessOptions::default()
        };
        let scene = Arc::new(o.scene(PaperScene::Playroom));
        let camera = o.camera(PaperScene::Playroom);
        let cameras = vec![camera; 3];
        let run = run_engine_submit(Backend::Gstg, 2, &scene, &cameras, &o);
        assert_eq!(run.stats.completed, 9);
        assert_eq!(run.stats.full_quality, 0);
        assert_eq!(run.stats.degraded, 9);
        assert_eq!(run.stats.degraded_t1, 9);
        for (identity, left, right) in run.stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
        let json = run.to_json("engine_submit", &o, camera.width(), camera.height());
        assert!(json.contains("\"quality\":\"t1\""));
        assert!(json.contains("\"degraded\":9"));
        assert!(json.contains("\"degraded_t1\":9"));
    }

    #[test]
    fn baseline_and_gstg_runs_produce_consistent_counts() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 8,
            ..HarnessOptions::default()
        };
        let scene = o.scene(PaperScene::Playroom);
        let camera = o.camera(PaperScene::Playroom);
        let baseline = run_baseline(&scene, &camera, 16, BoundaryMethod::Ellipse);
        let grouped = run_gstg(&scene, &camera, GstgConfig::paper_default());
        assert!(baseline.times.total() > 0.0);
        assert!(grouped.times.total() > 0.0);
        assert_eq!(
            baseline.counts.alpha_computations,
            grouped.counts.alpha_computations
        );
    }
}
