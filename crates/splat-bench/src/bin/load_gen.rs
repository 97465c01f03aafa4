//! `load_gen`: a measured open-loop load generator for `splat-serve`.
//!
//! Drives the wire with a fixed request schedule (`t0 + i / rate`) over a
//! pool of keep-alive connections, mixing render requests across several
//! uploaded synthetic scenes. Every served frame is decoded and its
//! canonical digest compared against a locally rendered reference at the
//! tier the server reports — the load test doubles as a bit-exactness
//! check of the whole serving stack.
//!
//! ```text
//! # against an external server
//! load_gen --addr 127.0.0.1:8090 --requests 64 --rate 200 --reconcile
//! # fully self-contained (ephemeral port, in-process server)
//! load_gen --spawn --requests 64 --rate 400 --connections 8 \
//!          --engine-workers 1 --queue-capacity 4 --reconcile --json
//! ```
//!
//! Exit codes: `0` clean, `1` digest drift (a served frame disagreed with
//! the direct `Engine` render), `2` counter reconciliation failure
//! (`ServerStats` does not agree with `EngineStats` and the client's own
//! tallies), `3` usage or transport setup errors.
//!
//! Reconciliation (`--reconcile`) assumes this client is the server's
//! only traffic; it checks every identity `ServerStats` and `EngineStats`
//! declare, cross-checks `render_requests` against the schedule,
//! ties every observed 200/503 to the engine's completed/rejected
//! counters, and ties the observed quality-tier headers to the engine's
//! per-tier degradation counters.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use splat_core::RenderRequest;
use splat_engine::{AdmissionPolicy, Engine, EngineStats, QualityPolicy, QualityTier};
use splat_scene::io::{decode_scene, encode_scene};
use splat_scene::{LodLadder, Scene, SceneGenerator, SynthProfile};
use splat_server::{
    decode_frame, frame_digest, one_shot, parse_json, JsonValue, ServerConfig, ServerStats,
};
use splat_types::{Camera, CameraIntrinsics, Vec3};

struct Options {
    addr: Option<String>,
    spawn: bool,
    requests: usize,
    rate: f64,
    connections: usize,
    scenes: usize,
    splats: usize,
    width: u32,
    height: u32,
    fov_y: f32,
    orbit_frames: usize,
    seed: u64,
    timeout_ms: u64,
    json: bool,
    reconcile: bool,
    shutdown: bool,
    server_workers: usize,
    engine_workers: usize,
    queue_capacity: usize,
    admission: AdmissionPolicy,
    quality: QualityPolicy,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: None,
            spawn: false,
            requests: 64,
            rate: 200.0,
            connections: 4,
            scenes: 2,
            splats: 192,
            width: 64,
            height: 48,
            fov_y: 0.9,
            orbit_frames: 8,
            seed: 42,
            timeout_ms: 30_000,
            json: false,
            reconcile: false,
            shutdown: false,
            server_workers: 8,
            engine_workers: 1,
            queue_capacity: 4,
            admission: AdmissionPolicy::RejectWhenFull,
            quality: QualityPolicy::degrade_default(),
        }
    }
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid value `{text}`"))
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => options.addr = Some(value("--addr")?),
            "--spawn" => options.spawn = true,
            "--requests" => options.requests = parse_number(&value("--requests")?, "--requests")?,
            "--rate" => options.rate = parse_number(&value("--rate")?, "--rate")?,
            "--connections" => {
                options.connections = parse_number(&value("--connections")?, "--connections")?;
            }
            "--scenes" => options.scenes = parse_number(&value("--scenes")?, "--scenes")?,
            "--splats" => options.splats = parse_number(&value("--splats")?, "--splats")?,
            "--width" => options.width = parse_number(&value("--width")?, "--width")?,
            "--height" => options.height = parse_number(&value("--height")?, "--height")?,
            "--fov" => options.fov_y = parse_number(&value("--fov")?, "--fov")?,
            "--orbit-frames" => {
                options.orbit_frames = parse_number(&value("--orbit-frames")?, "--orbit-frames")?;
            }
            "--seed" => options.seed = parse_number(&value("--seed")?, "--seed")?,
            "--timeout-ms" => {
                options.timeout_ms = parse_number(&value("--timeout-ms")?, "--timeout-ms")?;
            }
            "--json" => options.json = true,
            "--reconcile" => options.reconcile = true,
            "--shutdown" => options.shutdown = true,
            "--server-workers" => {
                options.server_workers =
                    parse_number(&value("--server-workers")?, "--server-workers")?;
            }
            "--engine-workers" => {
                options.engine_workers =
                    parse_number(&value("--engine-workers")?, "--engine-workers")?;
            }
            "--queue-capacity" => {
                options.queue_capacity =
                    parse_number(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--admission" => {
                options.admission = match value("--admission")?.as_str() {
                    "reject" => AdmissionPolicy::RejectWhenFull,
                    "block" => AdmissionPolicy::Block,
                    "shed" => AdmissionPolicy::ShedLowPriority {
                        capacity: options.queue_capacity,
                    },
                    other => return Err(format!("unknown admission policy `{other}`")),
                };
            }
            "--quality" => {
                let label = value("--quality")?;
                options.quality = match label.as_str() {
                    "degrade" => QualityPolicy::degrade_default(),
                    "full" => QualityPolicy::FullOnly,
                    other => QualityTier::from_label(other)
                        .map(QualityPolicy::Pinned)
                        .ok_or_else(|| format!("unknown quality policy `{other}`"))?,
                };
            }
            "--help" | "-h" => {
                return Err(
                    "usage: load_gen (--addr HOST:PORT | --spawn) [--requests N] \
                            [--rate R] [--connections C] [--scenes S] [--splats N] \
                            [--width N] [--height N] [--fov F] [--orbit-frames N] \
                            [--seed N] [--timeout-ms N] [--json] [--reconcile] [--shutdown] \
                            [--server-workers N] [--engine-workers N] [--queue-capacity N] \
                            [--admission reject|block|shed] [--quality degrade|full|t1|t2|t3]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if options.addr.is_none() && !options.spawn {
        return Err("pass --addr HOST:PORT or --spawn (see --help)".to_string());
    }
    if options.rate <= 0.0 || !options.rate.is_finite() {
        return Err("--rate must be a positive, finite requests-per-second".to_string());
    }
    if options.requests == 0 || options.connections == 0 || options.scenes == 0 {
        return Err("--requests, --connections and --scenes must be non-zero".to_string());
    }
    if options.orbit_frames == 0 {
        return Err("--orbit-frames must be non-zero".to_string());
    }
    Ok(options)
}

/// The eye/target pair for request slot `(scene, position)` — a
/// parametric orbit around the synthetic cluster center. The same f32
/// values are formatted into the wire request and used for the local
/// reference render; shortest-round-trip float formatting keeps both
/// sides bit-identical.
fn orbit_pose(options: &Options, scene: usize, position: usize) -> (Vec3, Vec3) {
    let center = Vec3::new(0.0, 0.0, 6.0);
    let radius = 4.0f32;
    let elevation = 0.6 + 0.15 * scene as f32;
    let angle = std::f32::consts::TAU * position as f32 / options.orbit_frames as f32;
    let eye = Vec3::new(
        center.x + radius * angle.sin(),
        center.y + elevation,
        center.z - radius * angle.cos(),
    );
    (eye, center)
}

fn orbit_camera(options: &Options, scene: usize, position: usize) -> Camera {
    let (eye, target) = orbit_pose(options, scene, position);
    Camera::look_at(
        eye,
        target,
        Vec3::Y,
        CameraIntrinsics::from_fov_y(options.fov_y, options.width, options.height),
    )
}

fn render_body(options: &Options, scene_id: u64, scene: usize, position: usize) -> String {
    let (eye, target) = orbit_pose(options, scene, position);
    format!(
        "{{\"scene_id\":{scene_id},\"priority\":\"normal\",\
         \"camera\":{{\"eye\":[{},{},{}],\"target\":[{},{},{}],\"up\":[0,1,0],\
         \"fov_y\":{},\"width\":{},\"height\":{}}}}}",
        eye.x,
        eye.y,
        eye.z,
        target.x,
        target.y,
        target.z,
        options.fov_y,
        options.width,
        options.height,
    )
}

/// Locally rendered reference digest for `(scene, position)` at `tier`,
/// mirroring the engine worker exactly: ladder scene for degraded tiers,
/// half-resolution render plus nearest-neighbor upsample for Tier3.
struct ReferenceOracle {
    engine: Engine,
    scenes: Vec<Arc<Scene>>,
    ladders: Vec<LodLadder>,
    digests: Mutex<BTreeMap<(usize, usize, u8), u64>>,
}

impl ReferenceOracle {
    fn new(scenes: Vec<Arc<Scene>>) -> Result<Self, String> {
        let engine = Engine::builder()
            .workers(1)
            .build()
            .map_err(|error| format!("reference engine: {error}"))?;
        let ladders = scenes.iter().map(|scene| LodLadder::build(scene)).collect();
        Ok(Self {
            engine,
            scenes,
            ladders,
            digests: Mutex::new(BTreeMap::new()),
        })
    }

    fn digest(&self, options: &Options, scene: usize, position: usize, tier: QualityTier) -> u64 {
        let tier_index = QualityTier::ALL
            .iter()
            .position(|t| *t == tier)
            .unwrap_or(0) as u8;
        let key = (scene, position, tier_index);
        if let Ok(cache) = self.digests.lock() {
            if let Some(digest) = cache.get(&key) {
                return *digest;
            }
        }
        let digest = self.render_digest(options, scene, position, tier);
        if let Ok(mut cache) = self.digests.lock() {
            cache.insert(key, digest);
        }
        digest
    }

    fn render_digest(
        &self,
        options: &Options,
        scene: usize,
        position: usize,
        tier: QualityTier,
    ) -> u64 {
        let Some(full_scene) = self.scenes.get(scene) else {
            return 0;
        };
        let tier_scene: &Scene = self
            .ladders
            .get(scene)
            .and_then(|ladder| ladder.scene(tier))
            .map(Arc::as_ref)
            .unwrap_or(full_scene);
        let camera = orbit_camera(options, scene, position);
        let rendered = if tier.half_resolution() {
            self.engine
                .render_one(&RenderRequest::new(tier_scene, camera.half_resolution()))
                .map(|output| {
                    output
                        .image
                        .upsample_nearest(camera.width(), camera.height())
                })
        } else {
            self.engine
                .render_one(&RenderRequest::new(tier_scene, camera))
                .map(|output| output.image)
        };
        match rendered {
            Ok(image) => frame_digest(&image),
            Err(_) => 0,
        }
    }
}

#[derive(Default)]
struct Sample {
    latency: Duration,
    status: u16,
    tier: Option<QualityTier>,
    digest_ok: bool,
    transport_error: bool,
}

struct Tally {
    samples: Vec<Sample>,
}

impl Tally {
    fn count_status(&self, status: u16) -> usize {
        self.samples.iter().filter(|s| s.status == status).count()
    }

    fn count_tier(&self, tier: QualityTier) -> usize {
        self.samples.iter().filter(|s| s.tier == Some(tier)).count()
    }

    fn drift(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.status == 200 && !s.digest_ok)
            .count()
    }

    fn transport_errors(&self) -> usize {
        self.samples.iter().filter(|s| s.transport_error).count()
    }

    fn latencies_sorted(&self) -> Vec<Duration> {
        let mut sorted: Vec<Duration> = self
            .samples
            .iter()
            .filter(|s| !s.transport_error)
            .map(|s| s.latency)
            .collect();
        sorted.sort();
        sorted
    }
}

/// Nearest-rank percentile over an already-sorted latency list.
fn percentile(sorted: &[Duration], quantile: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (quantile * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    sorted.get(index).copied().unwrap_or(Duration::ZERO)
}

fn run_load(
    options: &Arc<Options>,
    addr: &str,
    bodies: Arc<Vec<String>>,
    oracle: Arc<ReferenceOracle>,
) -> Tally {
    let timeout = Duration::from_millis(options.timeout_ms);
    let start = Instant::now() + Duration::from_millis(20);
    let mut threads = Vec::new();
    for worker in 0..options.connections {
        let addr = addr.to_string();
        let bodies = Arc::clone(&bodies);
        let oracle = Arc::clone(&oracle);
        let options = Arc::clone(options);
        threads.push(std::thread::spawn(move || {
            let mut connection = splat_server::Connection::open(&addr, timeout).ok();
            let mut samples = Vec::new();
            let mut index = worker;
            while index < options.requests {
                let due = start + Duration::from_secs_f64(index as f64 / options.rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let scene = index % options.scenes;
                let position = index % options.orbit_frames;
                let body = bodies
                    .get(scene * options.orbit_frames + position)
                    .map(String::as_str)
                    .unwrap_or("");
                let sent = Instant::now();
                let mut sample = Sample::default();
                // Keep-alive with one reconnect attempt per request: the
                // server closes connections after malformed requests or
                // during shutdown and an open-loop client must carry on.
                let response = match connection
                    .as_mut()
                    .map(|c| c.request("POST", "/render", body.as_bytes()))
                {
                    Some(Ok(response)) => Some(response),
                    _ => {
                        connection = splat_server::Connection::open(&addr, timeout).ok();
                        match connection
                            .as_mut()
                            .map(|c| c.request("POST", "/render", body.as_bytes()))
                        {
                            Some(Ok(response)) => Some(response),
                            _ => {
                                connection = None;
                                None
                            }
                        }
                    }
                };
                sample.latency = sent.elapsed();
                match response {
                    Some(response) => {
                        sample.status = response.status;
                        sample.tier = response
                            .header("x-splat-quality")
                            .and_then(QualityTier::from_label);
                        if response.status == 200 {
                            sample.digest_ok =
                                verify_digest(&options, &oracle, scene, position, &response);
                        }
                    }
                    None => sample.transport_error = true,
                }
                samples.push(sample);
                index += options.connections;
            }
            samples
        }));
    }
    let mut samples = Vec::with_capacity(options.requests);
    for thread in threads {
        if let Ok(mut chunk) = thread.join() {
            samples.append(&mut chunk);
        }
    }
    Tally { samples }
}

fn verify_digest(
    options: &Options,
    oracle: &ReferenceOracle,
    scene: usize,
    position: usize,
    response: &splat_server::ClientResponse,
) -> bool {
    let Some(tier) = response
        .header("x-splat-quality")
        .and_then(QualityTier::from_label)
    else {
        return false;
    };
    let Ok(image) = decode_frame(&response.body) else {
        return false;
    };
    let wire_digest = frame_digest(&image);
    let advertised = response
        .header("x-splat-digest")
        .and_then(|text| u64::from_str_radix(text, 16).ok());
    advertised == Some(wire_digest) && wire_digest == oracle.digest(options, scene, position, tier)
}

fn stat(json: &JsonValue, section: &str, field: &str) -> u64 {
    json.get(section)
        .and_then(|s| s.get(field))
        .and_then(JsonValue::as_u64)
        .unwrap_or(u64::MAX)
}

/// Exact cross-layer reconciliation: the wire's own tallies, the
/// server's counters and the engine's counters must tell one story.
fn reconcile(options: &Options, tally: &Tally, stats: &JsonValue) -> Vec<String> {
    // Back into the typed snapshots, so the identities each struct
    // declares are checked here and not restated. A server that lacks a
    // counter (`stat`'s `u64::MAX`) cannot be reconciled at all.
    let server = ServerStats::FIELDS.map(|field| stat(stats, "server", field));
    let engine = EngineStats::FIELDS.map(|field| stat(stats, "engine", field));
    if server.iter().chain(&engine).any(|&value| value == u64::MAX) {
        return vec!["/stats does not carry every ServerStats/EngineStats counter".to_string()];
    }
    let (server, engine) = (ServerStats::from(server), EngineStats::from(engine));
    let mut failures = Vec::new();
    let mut check = |name: &str, left: u64, right: u64| {
        if left != right {
            failures.push(format!("{name}: {left} != {right}"));
        }
    };
    let declared = server.identities().into_iter().chain(engine.identities());
    for (identity, left, right) in declared {
        check(identity, left, right);
    }

    // The schedule against the server, assuming we are the only client.
    check(
        "render_requests == schedule",
        server.render_requests + tally.transport_errors() as u64,
        options.requests as u64,
    );
    check(
        "scenes_requests == uploads",
        server.scenes_requests,
        options.scenes as u64,
    );

    // The server against the engine.
    check(
        // A shed victim is in both `submitted` and `rejected`.
        "render_requests == submitted + rejected - shed",
        server.render_requests,
        engine.submitted + engine.rejected - engine.shed,
    );
    check("overloaded == rejected", server.overloaded, engine.rejected);

    // The engine against what the wire delivered to us.
    check(
        "observed 200s == completed",
        tally.count_status(200) as u64,
        engine.completed,
    );
    check(
        "observed 503s == rejected + refused_connections",
        tally.count_status(503) as u64,
        engine.rejected + server.refused_connections,
    );
    check(
        "observed full == full_quality",
        tally.count_tier(QualityTier::Full) as u64,
        engine.full_quality,
    );
    check(
        "observed t1 == degraded_t1",
        tally.count_tier(QualityTier::Tier1) as u64,
        engine.degraded_t1,
    );
    check(
        "observed t2 == degraded_t2",
        tally.count_tier(QualityTier::Tier2) as u64,
        engine.degraded_t2,
    );
    check(
        "observed t3 == degraded_t3",
        tally.count_tier(QualityTier::Tier3) as u64,
        engine.degraded_t3,
    );
    failures
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => Arc::new(options),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(3);
        }
    };
    let timeout = Duration::from_millis(options.timeout_ms);

    // Synthesize the scene mix; the local reference copy must go through
    // the codec because decode re-normalizes rotations, and the server
    // only ever sees the decoded bytes.
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    for index in 0..options.scenes {
        let scene = SceneGenerator::new(
            SynthProfile::default().with_count(options.splats),
            options.seed + index as u64,
        )
        .generate(format!("load-{index}"), options.width, options.height);
        let bytes = encode_scene(&scene);
        match decode_scene(&bytes) {
            Ok(scene) => decoded.push(Arc::new(scene)),
            Err(error) => {
                eprintln!("scene {index} failed to round-trip: {error}");
                return ExitCode::from(3);
            }
        }
        encoded.push(bytes);
    }
    let oracle = match ReferenceOracle::new(decoded) {
        Ok(oracle) => Arc::new(oracle),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(3);
        }
    };

    // Spawn the in-process server if asked, otherwise use --addr.
    let spawned = if options.spawn {
        let engine = Engine::builder()
            .workers(options.engine_workers)
            .queue_capacity(options.queue_capacity)
            .admission(options.admission)
            .quality(options.quality)
            .build();
        let engine = match engine {
            Ok(engine) => Arc::new(engine),
            Err(error) => {
                eprintln!("failed to build the serving engine: {error}");
                return ExitCode::from(3);
            }
        };
        let config = ServerConfig::default()
            .with_workers(options.server_workers)
            .with_read_timeout_ms(options.timeout_ms);
        match splat_server::Server::start(engine, config) {
            Ok(server) => Some(server),
            Err(error) => {
                eprintln!("failed to start the in-process server: {error}");
                return ExitCode::from(3);
            }
        }
    } else {
        None
    };
    let addr = match (&spawned, &options.addr) {
        (Some(server), _) => server.local_addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => unreachable!("parse_options enforces addr-or-spawn"),
    };

    // Upload the mix and prebuild one request body per (scene, position).
    let mut scene_ids = Vec::new();
    for (index, bytes) in encoded.iter().enumerate() {
        let response = match one_shot(&addr, timeout, "POST", "/scenes", bytes) {
            Ok(response) => response,
            Err(error) => {
                eprintln!("upload {index} failed: {error}");
                return ExitCode::from(3);
            }
        };
        let scene_id = String::from_utf8(response.body)
            .ok()
            .and_then(|body| parse_json(&body).ok())
            .and_then(|json| json.get("scene_id").and_then(JsonValue::as_u64));
        match (response.status, scene_id) {
            (201, Some(id)) => scene_ids.push(id),
            (status, _) => {
                eprintln!("upload {index} refused with status {status}");
                return ExitCode::from(3);
            }
        }
    }
    let mut bodies = Vec::with_capacity(options.scenes * options.orbit_frames);
    for (scene, scene_id) in scene_ids.iter().enumerate() {
        for position in 0..options.orbit_frames {
            bodies.push(render_body(&options, *scene_id, scene, position));
        }
    }

    let started = Instant::now();
    let tally = run_load(&options, &addr, Arc::new(bodies), Arc::clone(&oracle));
    let elapsed = started.elapsed();

    // Snapshot the counters over the wire (before any shutdown), then
    // stop the server if asked.
    let stats_json = match one_shot(&addr, timeout, "GET", "/stats", b"") {
        Ok(response) if response.status == 200 => String::from_utf8(response.body)
            .ok()
            .and_then(|body| parse_json(&body).ok()),
        _ => None,
    };
    if options.shutdown || spawned.is_some() {
        let _ = one_shot(&addr, timeout, "POST", "/shutdown", b"");
    }
    if let Some(server) = spawned {
        let _ = server.shutdown();
    }

    let failures = match (&stats_json, options.reconcile) {
        (Some(stats), true) => reconcile(&options, &tally, stats),
        (None, true) => vec!["GET /stats did not return a parseable snapshot".to_string()],
        _ => Vec::new(),
    };

    let sorted = tally.latencies_sorted();
    let mean = if sorted.is_empty() {
        Duration::ZERO
    } else {
        sorted.iter().sum::<Duration>() / sorted.len() as u32
    };
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let max = sorted.last().copied().unwrap_or(Duration::ZERO);
    let drift = tally.drift();

    if options.json {
        let stats_text = match &stats_json {
            Some(stats) => format!(
                ",\"stats\":{{\"server\":{{\"requests\":{},\"render_requests\":{},\
                 \"overloaded\":{},\"ok\":{}}},\"engine\":{{\"submitted\":{},\
                 \"completed\":{},\"rejected\":{},\"full_quality\":{},\"degraded\":{}}}}}",
                stat(stats, "server", "requests"),
                stat(stats, "server", "render_requests"),
                stat(stats, "server", "overloaded"),
                stat(stats, "server", "ok"),
                stat(stats, "engine", "submitted"),
                stat(stats, "engine", "completed"),
                stat(stats, "engine", "rejected"),
                stat(stats, "engine", "full_quality"),
                stat(stats, "engine", "degraded"),
            ),
            None => String::new(),
        };
        println!(
            "{{\"bench\":\"load_gen\",\"requests\":{},\"rate\":{},\"connections\":{},\
             \"scenes\":{},\"splats\":{},\"width\":{},\"height\":{},\"elapsed_ms\":{:.3},\
             \"ok\":{},\"overloaded\":{},\"transport_errors\":{},\
             \"tiers\":{{\"full\":{},\"t1\":{},\"t2\":{},\"t3\":{}}},\
             \"latency_ms\":{{\"mean\":{:.3},\"p50\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
             \"digest_drift\":{},\"reconcile_failures\":{}{}}}",
            options.requests,
            options.rate,
            options.connections,
            options.scenes,
            options.splats,
            options.width,
            options.height,
            elapsed.as_secs_f64() * 1e3,
            tally.count_status(200),
            tally.count_status(503),
            tally.transport_errors(),
            tally.count_tier(QualityTier::Full),
            tally.count_tier(QualityTier::Tier1),
            tally.count_tier(QualityTier::Tier2),
            tally.count_tier(QualityTier::Tier3),
            mean.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
            drift,
            failures.len(),
            stats_text,
        );
    } else {
        println!(
            "load_gen: {} requests at {}/s over {} connections against {addr}",
            options.requests, options.rate, options.connections
        );
        println!(
            "  status : {} ok, {} overloaded, {} transport errors",
            tally.count_status(200),
            tally.count_status(503),
            tally.transport_errors(),
        );
        println!(
            "  tiers  : {} full, {} t1, {} t2, {} t3",
            tally.count_tier(QualityTier::Full),
            tally.count_tier(QualityTier::Tier1),
            tally.count_tier(QualityTier::Tier2),
            tally.count_tier(QualityTier::Tier3),
        );
        println!(
            "  latency: {:.2} ms mean / {:.2} ms p50 / {:.2} ms p99 / {:.2} ms max",
            mean.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        );
        println!("  digest : {drift} drifted frames");
        for failure in &failures {
            eprintln!("  reconcile failure: {failure}");
        }
    }

    if drift > 0 {
        eprintln!("error: {drift} served frames drifted from the direct Engine render");
        return ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("error: reconcile: {failure}");
        }
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
