//! The one adapter between the benchmark and the program under test.
//!
//! Every call into `crates/*` goes through this file and nothing else in
//! the benchmark names a `splat_*`/`gstg` item, so a later signature
//! change in the program breaks this one file. The adapter measures the
//! path users get: `GstgConfig::paper_default()`, `equivalent_baseline()`,
//! `Engine::builder()` and `ServerConfig::default()` with only worker
//! counts, queue capacity, admission, quality and residency set. It names
//! no `SimdMode` / `SpanMode` / `PrepassMode` variant — the modes reach the
//! stage functions as whatever values the default configuration carries —
//! so a changed default is measured, not compiled out.
//!
//! Nothing here reads a clock: callers time the calls.

use std::sync::Arc;
use std::time::Duration;

use gstg::{
    identify_groups_into, rasterize_groups_into_with, GroupAssignments, GroupEntry, GstgConfig,
    GstgRenderer, GstgSession,
};
use splat_accel::{AccelConfig, PipelineVariant, Simulator};
use splat_core::{FrameArena, Framebuffer, HasExecution, StageCounts};
use splat_engine::{
    AdmissionPolicy, Engine, EngineStats, JobHandle, QualityPolicy, QualityTier, ResidencyPolicy,
    SubmitRequest,
};
use splat_render::{
    identify_tiles_into, preprocess_into, RenderConfig, RenderSession, Renderer, TileAssignments,
    TileGrid,
};
use splat_scene::{LodLadder, PaperScene, SceneGenerator, SceneScale, SceneSoA, SynthProfile};
use splat_server::{Connection, JsonValue, Server, ServerConfig};
use splat_types::{Camera, CameraIntrinsics, Priority, SceneId, Vec3};

pub use splat_scene::Scene;
pub use splat_types::rng::Rng;

/// A rendered image, opaque to the rest of the benchmark.
pub type Image = Framebuffer;

// ---------------------------------------------------------------------------
// splat-types / splat-scene: views, cameras, scenes
// ---------------------------------------------------------------------------

/// One camera pose as plain numbers: what the wire request carries and
/// what the local reference render is built from, so both sides see the
/// same `f32`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    pub eye: [f32; 3],
    pub target: [f32; 3],
    pub fov_y: f32,
    pub width: u32,
    pub height: u32,
}

impl View {
    /// The posed camera (`Camera::look_at`, +Y up).
    pub fn camera(&self) -> Camera {
        Camera::look_at(
            Vec3::new(self.eye[0], self.eye[1], self.eye[2]),
            Vec3::new(self.target[0], self.target[1], self.target[2]),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(self.fov_y, self.width, self.height),
        )
    }

    /// The `POST /render` body for this view. `{}` prints the shortest
    /// decimal that parses back to the same `f32`, so the server's camera
    /// equals [`View::camera`] bit for bit.
    pub fn render_body(&self, scene_id: u64) -> String {
        format!(
            "{{\"scene_id\":{scene_id},\"priority\":\"normal\",\
             \"camera\":{{\"eye\":[{},{},{}],\"target\":[{},{},{}],\"up\":[0,1,0],\
             \"fov_y\":{},\"width\":{},\"height\":{}}}}}",
            self.eye[0],
            self.eye[1],
            self.eye[2],
            self.target[0],
            self.target[1],
            self.target[2],
            self.fov_y,
            self.width,
            self.height,
        )
    }
}

/// The cameras `CameraTrajectory::lateral_sweep` / `::orbit` produce for
/// the same arguments (`tests/inputs.rs` pins the equality); the benchmark
/// keeps the poses as numbers because the wire needs them.
pub fn trajectory_cameras(kind: TrajectoryKind, views: &[View]) -> Vec<Camera> {
    let Some(first) = views.first() else {
        return Vec::new();
    };
    let intrinsics = CameraIntrinsics::from_fov_y(first.fov_y, first.width, first.height);
    let trajectory = match kind {
        TrajectoryKind::LateralSweep {
            lateral_extent,
            focus_depth,
        } => splat_scene::CameraTrajectory::lateral_sweep(
            intrinsics,
            lateral_extent,
            focus_depth,
            views.len(),
        ),
        TrajectoryKind::Orbit {
            center,
            radius,
            height,
        } => splat_scene::CameraTrajectory::orbit(
            intrinsics,
            Vec3::new(center[0], center[1], center[2]),
            radius,
            height,
            views.len(),
        ),
    };
    trajectory.cameras().collect()
}

/// Arguments of the program's two trajectory constructors.
#[derive(Debug, Clone, Copy)]
pub enum TrajectoryKind {
    LateralSweep {
        lateral_extent: f32,
        focus_depth: f32,
    },
    Orbit {
        center: [f32; 3],
        radius: f32,
        height: f32,
    },
}

/// Which synthetic population a scene is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// `PaperScene::Playroom.profile(Small)` with the paper scene's own seed.
    Playroom,
    /// `PaperScene::Truck.profile(Small)` with the paper scene's own seed.
    Truck,
    /// `SynthProfile::default()` with the given seed.
    Generic(u64),
}

/// Synthesises a scene of `count` splats.
pub fn synth_scene(kind: SceneKind, count: usize, width: u32, height: u32) -> Scene {
    let (profile, seed, name) = match kind {
        SceneKind::Playroom => {
            let scene = PaperScene::Playroom;
            (scene.profile(SceneScale::Small), scene.seed(), scene.name())
        }
        SceneKind::Truck => {
            let scene = PaperScene::Truck;
            (scene.profile(SceneScale::Small), scene.seed(), scene.name())
        }
        SceneKind::Generic(seed) => (SynthProfile::default(), seed, "generic"),
    };
    SceneGenerator::new(profile.with_count(count), seed).generate(name, width, height)
}

pub fn splat_count(scene: &Scene) -> usize {
    scene.len()
}

// ---------------------------------------------------------------------------
// splat-core: counters
// ---------------------------------------------------------------------------

/// One frame's `StageCounts`; equality is exact, field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts(StageCounts);

impl Counts {
    /// The field-wise sum of several frames' counters.
    pub fn sum(frames: &[Counts]) -> Counts {
        let mut total = StageCounts::new();
        for frame in frames {
            total += frame.0;
        }
        Counts(total)
    }
    pub fn json(&self) -> String {
        self.0.to_json()
    }
    pub fn input_gaussians(&self) -> u64 {
        self.0.input_gaussians
    }
    pub fn visible_gaussians(&self) -> u64 {
        self.0.visible_gaussians
    }
    pub fn tiles_tested(&self) -> u64 {
        self.0.tiles_tested
    }
    pub fn tiles_hit(&self) -> u64 {
        self.0.tiles_hit
    }
    pub fn sort_keys(&self) -> u64 {
        self.0.sort_keys
    }
    pub fn alpha_computations(&self) -> u64 {
        self.0.alpha_computations
    }
    pub fn blend_operations(&self) -> u64 {
        self.0.blend_operations
    }
    pub fn bitmask_filter_ops(&self) -> u64 {
        self.0.bitmask_filter_ops
    }
}

// ---------------------------------------------------------------------------
// gstg / splat-render: reused sessions (what a caller of the library runs)
// ---------------------------------------------------------------------------

/// A reused `GstgSession` and a reused `RenderSession` over
/// `paper_default()` and its `equivalent_baseline()`.
pub struct Sessions {
    gstg: GstgSession,
    baseline: RenderSession,
}

impl Default for Sessions {
    fn default() -> Self {
        Self::new()
    }
}

impl Sessions {
    pub fn new() -> Self {
        let config = GstgConfig::paper_default();
        Self {
            gstg: GstgSession::from_config(config),
            baseline: RenderSession::from_config(config.equivalent_baseline()),
        }
    }

    pub fn render_gstg(&mut self, scene: &Scene, camera: &Camera) -> (&Image, Counts) {
        let frame = self.gstg.render(scene, camera);
        (frame.image, Counts(frame.stats.counts))
    }

    pub fn render_baseline(&mut self, scene: &Scene, camera: &Camera) -> (&Image, Counts) {
        let frame = self.baseline.render(scene, camera);
        (frame.image, Counts(frame.stats.counts))
    }

    /// Bytes reserved by the GS-TG session's recycled buffers.
    pub fn gstg_footprint_bytes(&self) -> usize {
        self.gstg.footprint_bytes()
    }
}

/// The canonical frame digest (`splat_server::frame_digest`, FNV-1a 64
/// over dimensions and pixel bit patterns).
pub fn frame_digest(image: &Image) -> u64 {
    splat_server::frame_digest(image)
}

// ---------------------------------------------------------------------------
// gstg / splat-render: the public stage functions, composed exactly as
// `GstgSession::render` / `RenderSession::render` compose them
// ---------------------------------------------------------------------------

/// The four GS-TG stage calls over a `FrameArena`, one method per stage so
/// the traced run can put a span around each.
pub struct ComposedGstg {
    config: GstgConfig,
    baseline: RenderConfig,
    arena: FrameArena<GroupEntry>,
    assignments: GroupAssignments,
    tile_list: Vec<u32>,
    counts: StageCounts,
}

impl Default for ComposedGstg {
    fn default() -> Self {
        Self::new()
    }
}

impl ComposedGstg {
    pub fn new() -> Self {
        let config = GstgConfig::paper_default();
        Self {
            config,
            baseline: config.equivalent_baseline(),
            arena: FrameArena::new(),
            assignments: GroupAssignments::empty(),
            tile_list: Vec::new(),
            counts: StageCounts::new(),
        }
    }

    /// `splat_render::preprocess_into`; starts a new frame.
    pub fn preprocess(&mut self, scene: &Scene, camera: &Camera) {
        self.counts = StageCounts::new();
        preprocess_into(
            scene,
            camera,
            &self.baseline,
            &mut self.counts,
            &mut self.arena.projected,
        );
    }

    /// `gstg::identify_groups_into`.
    pub fn identify(&mut self, camera: &Camera) {
        identify_groups_into(
            &self.arena.projected,
            camera.width(),
            camera.height(),
            &self.config,
            &mut self.counts,
            &mut self.arena.csr,
            &mut self.assignments,
        );
    }

    /// `gstg::sort::sort_groups_with`.
    pub fn sort(&mut self) {
        gstg::sort::sort_groups_with(
            &mut self.assignments,
            &self.arena.projected,
            &mut self.counts,
            &mut self.arena.keys,
        );
    }

    /// `gstg::rasterize_groups_into_with`.
    pub fn raster(&mut self, camera: &Camera) {
        self.counts += rasterize_groups_into_with(
            &self.arena.projected,
            &self.assignments,
            camera.width(),
            camera.height(),
            GstgRenderer::new(self.config).background(),
            self.config.threads(),
            self.config.simd(),
            self.config.span(),
            &mut self.arena.framebuffer,
            &mut self.tile_list,
            &mut self.arena.span,
        );
        let _ = self.arena.span.take_build_time();
    }

    pub fn image(&self) -> &Image {
        &self.arena.framebuffer
    }

    pub fn counts(&self) -> Counts {
        Counts(self.counts)
    }

    /// `FrameArena::footprint_bytes` of the composed frame's arena.
    pub fn arena_footprint_bytes(&self) -> usize {
        self.arena.footprint_bytes()
    }
}

/// The four baseline stage calls over a `FrameArena`.
pub struct ComposedBaseline {
    renderer: Renderer,
    arena: FrameArena<u32>,
    assignments: TileAssignments,
    counts: StageCounts,
}

impl Default for ComposedBaseline {
    fn default() -> Self {
        Self::new()
    }
}

impl ComposedBaseline {
    pub fn new() -> Self {
        Self {
            renderer: Renderer::new(GstgConfig::paper_default().equivalent_baseline()),
            arena: FrameArena::new(),
            assignments: TileAssignments::empty(),
            counts: StageCounts::new(),
        }
    }

    /// `splat_render::preprocess_into`; starts a new frame.
    pub fn preprocess(&mut self, scene: &Scene, camera: &Camera) {
        self.counts = StageCounts::new();
        preprocess_into(
            scene,
            camera,
            self.renderer.config(),
            &mut self.counts,
            &mut self.arena.projected,
        );
    }

    /// `splat_render::identify_tiles_into`.
    pub fn identify(&mut self, camera: &Camera) {
        let config = *self.renderer.config();
        let grid = TileGrid::new(camera.width(), camera.height(), config.tile_size);
        identify_tiles_into(
            &self.arena.projected,
            grid,
            config.boundary,
            config.prepass,
            &mut self.counts,
            &mut self.arena.csr,
            &mut self.assignments,
        );
    }

    /// `splat_render::sort::sort_tiles_with`.
    pub fn sort(&mut self) {
        splat_render::sort::sort_tiles_with(
            &mut self.assignments,
            &self.arena.projected,
            &mut self.counts,
            &mut self.arena.keys,
        );
    }

    /// `Renderer::rasterize_into`.
    pub fn raster(&mut self, camera: &Camera) {
        self.counts += self.renderer.rasterize_into(
            &self.arena.projected,
            &self.assignments,
            camera,
            &mut self.arena.framebuffer,
            &mut self.arena.span,
        );
        let _ = self.arena.span.take_build_time();
    }

    pub fn image(&self) -> &Image {
        &self.arena.framebuffer
    }

    pub fn counts(&self) -> Counts {
        Counts(self.counts)
    }
}

// ---------------------------------------------------------------------------
// splat-accel: the cycle model (simulated time)
// ---------------------------------------------------------------------------

/// Simulated frame cycles on the paper's accelerator configuration:
/// `(conventional pipeline, GS-TG)`. Deterministic; says nothing about host
/// time.
pub fn simulate_cycles(scene: &Scene, camera: &Camera) -> (u64, u64) {
    let simulator = Simulator::new(AccelConfig::paper());
    let baseline = simulator.simulate(scene, camera, &PipelineVariant::baseline_paper());
    let gstg = simulator.simulate(scene, camera, &PipelineVariant::gstg_paper());
    (baseline.total_cycles, gstg.total_cycles)
}

// ---------------------------------------------------------------------------
// splat-scene: io, soa, lod
// ---------------------------------------------------------------------------

pub fn encode_scene(scene: &Scene) -> Vec<u8> {
    splat_scene::io::encode_scene(scene)
}

pub fn decode_scene(bytes: &[u8]) -> Option<Scene> {
    splat_scene::io::decode_scene(bytes).ok()
}

/// `SceneSoA::from_gaussians` — the view `Scene::soa()` builds lazily and
/// caches; returns its footprint so the work cannot be optimised away.
pub fn build_soa(scene: &Scene) -> usize {
    SceneSoA::from_gaussians(scene.gaussians()).footprint_bytes()
}

/// `LodLadder::build`; returns the ladder's footprint.
pub fn build_lod(scene: &Scene) -> usize {
    LodLadder::build(scene).footprint_bytes()
}

// ---------------------------------------------------------------------------
// splat-engine
// ---------------------------------------------------------------------------

/// Quality tiers by index: 0 = full, 1..=3 = the degraded ladder.
pub const TIER_COUNT: usize = 4;
pub const TIER_LABELS: [&str; TIER_COUNT] = ["full", "t1", "t2", "t3"];

fn tier_index(tier: QualityTier) -> usize {
    QualityTier::ALL
        .iter()
        .position(|t| *t == tier)
        .unwrap_or(0)
}

/// Priority classes by index, lowest first.
pub const PRIORITY_COUNT: usize = Priority::ALL.len();

/// What `Engine::submit` does at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    RejectWhenFull,
    ShedLowPriority { capacity: usize },
}

/// How the engine trades quality for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// `QualityPolicy::degrade_default()`.
    DegradeDefault,
    /// `QualityPolicy::Pinned(tier)` by tier index.
    Pinned(usize),
}

/// The only engine settings the benchmark touches.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub workers: usize,
    pub queue_capacity: usize,
    pub admission: Admission,
    pub quality: Quality,
    pub max_resident_scenes: Option<usize>,
}

/// `Engine::builder()` with the spec's settings and every other default.
pub fn build_engine(spec: EngineSpec) -> Result<Arc<Engine>, String> {
    let admission = match spec.admission {
        Admission::RejectWhenFull => AdmissionPolicy::RejectWhenFull,
        Admission::ShedLowPriority { capacity } => AdmissionPolicy::ShedLowPriority { capacity },
    };
    let quality = match spec.quality {
        Quality::DegradeDefault => QualityPolicy::degrade_default(),
        Quality::Pinned(index) => {
            QualityPolicy::Pinned(*QualityTier::ALL.get(index).ok_or("no such tier")?)
        }
    };
    let mut residency = ResidencyPolicy::unlimited();
    if let Some(scenes) = spec.max_resident_scenes {
        residency = residency.with_max_resident_scenes(scenes);
    }
    Engine::builder()
        .workers(spec.workers)
        .queue_capacity(spec.queue_capacity)
        .admission(admission)
        .quality(quality)
        .residency(residency)
        .build()
        .map(Arc::new)
        .map_err(|error| format!("engine build: {error}"))
}

pub type EngineRef = Arc<Engine>;

/// `Engine::register_scene`; the raw `SceneId`.
pub fn register_scene(engine: &Engine, scene: Arc<Scene>) -> Result<u64, String> {
    engine
        .register_scene(scene)
        .map(SceneId::raw)
        .map_err(|error| format!("register: {error}"))
}

/// An admitted job.
pub struct Job {
    handle: JobHandle,
}

impl Job {
    /// The tier admission control assigned (index into [`TIER_LABELS`]).
    pub fn tier(&self) -> usize {
        tier_index(self.handle.tier())
    }

    /// `JobHandle::wait`: the frame, or `None` when the job was shed after
    /// admission (`Overloaded`); any other error is a failure.
    pub fn wait(self) -> Result<Option<Image>, String> {
        match self.handle.wait() {
            Ok(output) => Ok(Some(output.image)),
            Err(splat_types::RenderError::Overloaded { .. }) => Ok(None),
            Err(error) => Err(format!("job: {error}")),
        }
    }
}

/// `Engine::submit` by scene handle. `Ok(None)` is a policy refusal at the
/// door (`Overloaded`), which is an outcome, not a failure.
pub fn submit(
    engine: &Engine,
    scene_id: u64,
    camera: Camera,
    priority: usize,
) -> Result<Option<Job>, String> {
    let priority = *Priority::ALL.get(priority).ok_or("no such priority")?;
    let request = SubmitRequest::new(SceneId::from_raw(scene_id), camera).with_priority(priority);
    match engine.submit(request) {
        Ok(handle) => Ok(Some(Job { handle })),
        Err(splat_types::RenderError::Overloaded { .. }) => Ok(None),
        Err(error) => Err(format!("submit: {error}")),
    }
}

pub fn pause(engine: &Engine) {
    engine.pause();
}

pub fn resume(engine: &Engine) {
    engine.resume();
}

/// `Engine::footprint_bytes` (the pooled sessions' recycled buffers).
pub fn engine_footprint_bytes(engine: &Engine) -> usize {
    engine.footprint_bytes()
}

/// `EngineStats`, the fields the benchmark reads plus the full JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCounts {
    pub submitted: u64,
    pub completed: u64,
    pub full_quality: u64,
    pub degraded: u64,
    pub by_tier: [u64; TIER_COUNT],
    pub rejected: u64,
    pub in_flight: usize,
    pub queue_high_water: usize,
    pub registered: u64,
    pub evicted: u64,
    pub resident_bytes: usize,
    pub json: String,
}

impl From<EngineStats> for EngineCounts {
    fn from(stats: EngineStats) -> Self {
        Self {
            submitted: stats.submitted,
            completed: stats.completed,
            full_quality: stats.full_quality,
            degraded: stats.degraded,
            by_tier: [
                stats.full_quality,
                stats.degraded_t1,
                stats.degraded_t2,
                stats.degraded_t3,
            ],
            rejected: stats.rejected,
            in_flight: stats.in_flight(),
            queue_high_water: stats.queue_high_water,
            registered: stats.registered,
            evicted: stats.evicted,
            resident_bytes: stats.resident_bytes,
            json: stats.to_json(),
        }
    }
}

impl Default for EngineCounts {
    /// The counters of an engine that never saw a job.
    fn default() -> Self {
        EngineStats::default().into()
    }
}

pub fn engine_counts(engine: &Engine) -> EngineCounts {
    engine.stats().into()
}

/// The reference render of one view at one tier, mirroring the engine
/// worker exactly (ladder scene for degraded tiers, half-resolution render
/// plus nearest-neighbour upsample for the last tier) but on a local
/// session, so a served frame can be compared with it.
pub struct Reference {
    sessions: Sessions,
    ladder: LodLadder,
    scene: Arc<Scene>,
}

impl Reference {
    pub fn new(scene: Arc<Scene>) -> Self {
        Self {
            sessions: Sessions::new(),
            ladder: LodLadder::build(&scene),
            scene,
        }
    }

    pub fn render(&mut self, camera: &Camera, tier: usize) -> Image {
        let tier = QualityTier::ALL.get(tier).copied().unwrap_or_default();
        let scene: &Scene = self
            .ladder
            .scene(tier)
            .map(Arc::as_ref)
            .unwrap_or(&self.scene);
        if tier.half_resolution() {
            let half = camera.half_resolution();
            let (image, _) = self.sessions.render_gstg(scene, &half);
            image.upsample_nearest(camera.width(), camera.height())
        } else {
            let (image, _) = self.sessions.render_gstg(scene, camera);
            image.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// splat-server: the front door and its client
// ---------------------------------------------------------------------------

/// An in-process `Server` on `127.0.0.1:0`.
pub struct Door {
    server: Server,
}

/// `Server::start` with `ServerConfig::default()` and the worker count.
pub fn start_server(engine: EngineRef, workers: usize) -> Result<Door, String> {
    Server::start(engine, ServerConfig::default().with_workers(workers))
        .map(|server| Door { server })
        .map_err(|error| format!("server start: {error}"))
}

impl Door {
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// `Server::shutdown`: the final `ServerStats` and `EngineStats`.
    pub fn shutdown(self) -> (ServerCounts, EngineCounts) {
        let (server, engine) = self.server.shutdown();
        (server.into(), engine.into())
    }
}

/// `ServerStats`, the fields the benchmark reads plus the full JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerCounts {
    pub requests: u64,
    pub routed: u64,
    pub responded: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub json: String,
}

impl From<splat_server::ServerStats> for ServerCounts {
    fn from(stats: splat_server::ServerStats) -> Self {
        Self {
            requests: stats.requests,
            routed: stats.routed(),
            responded: stats.responded(),
            ok: stats.ok,
            overloaded: stats.overloaded,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
            json: stats.to_json(),
        }
    }
}

/// One `/render` response.
pub struct Rendered {
    pub status: u16,
    /// `X-Splat-Quality` as a tier index, when present and known.
    pub tier: Option<usize>,
    /// `X-Splat-Digest`, when present and well-formed.
    pub digest: Option<u64>,
    pub body: Vec<u8>,
}

/// A keep-alive `splat_server::Connection`.
pub struct Client {
    connection: Connection,
}

impl Client {
    pub fn open(addr: &str) -> Result<Self, String> {
        Connection::open(addr, Duration::from_secs(30))
            .map(|connection| Self { connection })
            .map_err(|error| format!("connect {addr}: {error}"))
    }

    /// `POST /scenes`: the status and, on `201`, the scene id.
    pub fn upload(&mut self, bytes: &[u8]) -> Result<(u16, Option<u64>), String> {
        let response = self
            .connection
            .request("POST", "/scenes", bytes)
            .map_err(|error| format!("upload: {error}"))?;
        let id = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| splat_server::parse_json(text).ok())
            .and_then(|json| json.get("scene_id").and_then(JsonValue::as_u64));
        Ok((response.status, id))
    }

    /// `POST /render`.
    pub fn render(&mut self, body: &str) -> Result<Rendered, String> {
        let response = self
            .connection
            .request("POST", "/render", body.as_bytes())
            .map_err(|error| format!("render: {error}"))?;
        let tier = response
            .header("x-splat-quality")
            .and_then(QualityTier::from_label)
            .map(tier_index);
        let digest = response
            .header("x-splat-digest")
            .and_then(|text| u64::from_str_radix(text, 16).ok());
        Ok(Rendered {
            status: response.status,
            tier,
            digest,
            body: response.body,
        })
    }

    /// `GET /stats`: `(section, field)` lookups into the served JSON.
    pub fn stats(&mut self) -> Result<WireStats, String> {
        let response = self
            .connection
            .request("GET", "/stats", &[])
            .map_err(|error| format!("stats: {error}"))?;
        let text = String::from_utf8(response.body).map_err(|_| "stats: not UTF-8".to_string())?;
        let json = splat_server::parse_json(&text).map_err(|error| format!("stats: {error}"))?;
        Ok(WireStats { json, text })
    }
}

/// The body of `GET /stats`.
pub struct WireStats {
    json: JsonValue,
    pub text: String,
}

impl WireStats {
    pub fn get(&self, section: &str, field: &str) -> Option<u64> {
        self.json.get(section)?.get(field)?.as_u64()
    }
}

// ---------------------------------------------------------------------------
// splat-server: json and wire functions, timed directly on payloads that
// crossed the socket
// ---------------------------------------------------------------------------

/// `parse_json` + `parse_render_request`, as `handle_render` runs them.
pub fn parse_render_body(body: &str) -> bool {
    splat_server::parse_json(body)
        .ok()
        .and_then(|json| splat_server::wire::parse_render_request(&json).ok())
        .is_some()
}

pub fn encode_frame(image: &Image) -> Vec<u8> {
    splat_server::encode_frame(image)
}

pub fn decode_frame(bytes: &[u8]) -> Option<Image> {
    splat_server::decode_frame(bytes).ok()
}

/// Reads every string under `key` in an array of objects (`BENCHMARK.json`
/// is parsed with the program's own JSON reader; the benchmark has no
/// other).
pub fn json_names(text: &str, array: &str, key: &str) -> Option<Vec<String>> {
    let json = splat_server::parse_json(text).ok()?;
    json.get(array)?
        .as_array()?
        .iter()
        .map(|item| item.get(key)?.as_str().map(str::to_string))
        .collect()
}
