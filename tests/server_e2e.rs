//! Loopback end-to-end tests for the `splat-server` front door.
//!
//! Everything runs against an ephemeral port on 127.0.0.1: scenes are
//! uploaded through the wire, frames are rendered through the wire, and
//! every digest is compared bit-for-bit against a local in-process
//! session — the serving stack must be invisible in the pixels.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_tg::prelude::*;
use splat_scene::io::encode_scene;
use splat_scene::{SceneGenerator, SynthProfile};
use splat_server::{
    decode_frame, decode_frame_chunk, frame_digest, one_shot, parse_json, Connection, FrameChunk,
    JsonValue,
};

const TIMEOUT: Duration = Duration::from_secs(30);

fn synth_scene(seed: u64, count: usize) -> Scene {
    SceneGenerator::new(SynthProfile::default().with_count(count), seed).generate("e2e", 160, 120)
}

fn test_camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 1.0, -6.0),
        Vec3::new(0.0, 0.0, 6.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(0.9, width, height),
    )
}

fn camera_body(scene_id: u64, priority: &str, width: u32, height: u32) -> String {
    format!(
        "{{\"scene_id\":{scene_id},\"priority\":\"{priority}\",\
         \"camera\":{{\"eye\":[0.0,1.0,-6.0],\"target\":[0.0,0.0,6.0],\"up\":[0.0,1.0,0.0],\
         \"fov_y\":0.9,\"width\":{width},\"height\":{height}}}}}"
    )
}

fn start_server(
    admission: AdmissionPolicy,
    quality: QualityPolicy,
    queue_capacity: usize,
    paused: bool,
    workers: usize,
) -> splat_server::Server {
    let engine = Engine::builder()
        .workers(1)
        .queue_capacity(queue_capacity)
        .admission(admission)
        .quality(quality)
        .build()
        .expect("engine config is valid");
    if paused {
        engine.pause();
    }
    splat_server::Server::start(
        Arc::new(engine),
        ServerConfig::default()
            .with_workers(workers)
            .with_read_timeout_ms(30_000),
    )
    .expect("server binds an ephemeral port")
}

fn upload(addr: &str, scene: &Scene) -> u64 {
    let response = one_shot(addr, TIMEOUT, "POST", "/scenes", &encode_scene(scene))
        .expect("upload round-trips");
    assert_eq!(response.status, 201, "upload must succeed");
    let body = String::from_utf8(response.body).expect("json body");
    parse_json(&body)
        .expect("upload response is json")
        .get("scene_id")
        .and_then(JsonValue::as_u64)
        .expect("scene_id in upload response")
}

/// The direct in-process reference for a tier: the ladder scene (or the
/// full scene) rendered on a local session of the engine's default
/// pipeline, with the half-resolution render + nearest-neighbor upsample
/// for Tier3 — exactly what the engine workers do for a degraded job.
fn direct_tier_digest(scene: &Scene, tier: QualityTier, camera: Camera) -> u64 {
    let ladder = LodLadder::build(scene);
    let tier_scene: &Scene = match ladder.scene(tier) {
        Some(scene) => scene,
        None => scene,
    };
    let mut local = GstgSession::from_config(GstgConfig::paper_default());
    if tier.half_resolution() {
        let half = local.render(tier_scene, &camera.half_resolution());
        frame_digest(&half.image.upsample_nearest(camera.width(), camera.height()))
    } else {
        frame_digest(local.render(tier_scene, &camera).image)
    }
}

#[test]
fn wire_digests_are_bit_identical_to_the_direct_engine_path_for_all_tiers() {
    let scene = synth_scene(21, 96);
    for tier in QualityTier::ALL {
        let server = start_server(
            AdmissionPolicy::Block,
            QualityPolicy::Pinned(tier),
            8,
            false,
            2,
        );
        let addr = server.local_addr().to_string();
        let scene_id = upload(&addr, &scene);

        let response = one_shot(
            &addr,
            TIMEOUT,
            "POST",
            "/render",
            camera_body(scene_id, "high", 96, 72).as_bytes(),
        )
        .expect("render round-trips");
        assert_eq!(response.status, 200, "tier {tier:?} render must succeed");
        assert_eq!(
            response.header("x-splat-quality"),
            Some(tier.label()),
            "served tier must be pinned"
        );
        let image = decode_frame(&response.body).expect("frame decodes");
        let wire_digest = frame_digest(&image);
        assert_eq!(
            response.header("x-splat-digest"),
            Some(format!("{wire_digest:016x}").as_str()),
            "digest header must match the decoded frame"
        );

        // The engine registered the *decoded* upload; read it back out of
        // the server's registry (a read-only look, not a serve) so the
        // reference renders the very scene the server holds…
        let camera = test_camera(96, 72);
        let registered = server
            .engine()
            .prepared_scene(SceneId::from_raw(scene_id))
            .expect("the upload is resident");
        assert_eq!(
            wire_digest,
            direct_tier_digest(registered.scene(), tier, camera),
            "wire frame must be bit-identical to a local render of the registered scene"
        );
        // …which is bit-for-bit what decoding the upload locally yields.
        let decoded_upload =
            splat_scene::io::decode_scene(&encode_scene(&scene)).expect("re-decode");
        assert_eq!(
            wire_digest,
            direct_tier_digest(&decoded_upload, tier, camera),
            "wire frame must be bit-identical to the direct {tier:?} path"
        );
        let (server_stats, engine_stats) = server.shutdown();
        assert_eq!(server_stats.render_requests, 1);
        assert_eq!(server_stats.scenes_requests, 1);
        assert_eq!(engine_stats.completed, 1);
    }
}

#[test]
fn trajectory_streams_ordered_frames_with_direct_path_digests() {
    let scene = synth_scene(22, 64);
    let server = start_server(AdmissionPolicy::Block, QualityPolicy::FullOnly, 8, false, 2);
    let addr = server.local_addr().to_string();
    let scene_id = upload(&addr, &scene);

    let body = format!(
        "{{\"scene_id\":{scene_id},\"priority\":\"normal\",\
         \"trajectory\":{{\"center\":[0.0,0.0,6.0],\"radius\":4.0,\"elevation\":0.6,\
         \"frames\":5,\"fov_y\":1.0,\"width\":64,\"height\":48}}}}"
    );
    let mut connection = Connection::open(&addr, TIMEOUT).expect("connects");
    connection
        .send_request("POST", "/trajectories", body.as_bytes())
        .expect("request sends");
    let (status, headers) = connection.read_response_head().expect("head arrives");
    assert_eq!(status, 200);
    assert_eq!(
        headers
            .iter()
            .find(|(name, _)| name == "x-splat-frames")
            .map(|(_, value)| value.as_str()),
        Some("5")
    );

    let trajectory = CameraTrajectory::orbit(
        CameraIntrinsics::from_fov_y(1.0, 64, 48),
        Vec3::new(0.0, 0.0, 6.0),
        4.0,
        0.6,
        5,
    );
    let decoded_upload = splat_scene::io::decode_scene(&encode_scene(&scene)).expect("re-decode");
    let mut local = GstgSession::from_config(GstgConfig::paper_default());
    let mut frames = 0usize;
    while let Some(chunk) = connection.read_chunk().expect("chunk arrives") {
        match decode_frame_chunk(&chunk).expect("chunk decodes") {
            FrameChunk::Frame { tier, image } => {
                assert_eq!(tier, QualityTier::Full);
                let direct = local.render(&decoded_upload, &trajectory.camera(frames));
                assert_eq!(
                    frame_digest(&image),
                    frame_digest(direct.image),
                    "streamed frame {frames} must match the direct path"
                );
                frames += 1;
            }
            FrameChunk::Refusal(reason) => panic!("unexpected refusal: {reason}"),
        }
    }
    assert_eq!(frames, 5, "all frames must stream in order");

    let (server_stats, engine_stats) = server.shutdown();
    assert_eq!(server_stats.frames_streamed, 5);
    assert_eq!(server_stats.trajectory_requests, 1);
    assert_eq!(engine_stats.completed, 5);
    assert_eq!(engine_stats.scene_hits, 1, "one stream, one recency touch");
}

/// A client that walks away mid-stream: the bytes it was sent stay in
/// `bytes_out` (they used to be added only after the last chunk, so every
/// write error dropped the whole stream's count), the request is still
/// routed and answered exactly once, and the engine's books balance: the
/// abandoned window's queued jobs are cancelled with the stream, and the
/// rest of the path is never submitted.
#[test]
fn a_dropped_trajectory_stream_keeps_its_bytes_and_balances_the_books() {
    let scene = synth_scene(26, 200);
    let server = start_server(AdmissionPolicy::Block, QualityPolicy::FullOnly, 8, false, 2);
    let addr = server.local_addr().to_string();
    let scene_id = upload(&addr, &scene);
    let before = server.stats();

    // 48 frames of 921 KB: far more than the loopback socket buffers hold,
    // so the server is still writing when the client disappears.
    let body = format!(
        "{{\"scene_id\":{scene_id},\"priority\":\"normal\",\
         \"trajectory\":{{\"center\":[0.0,0.0,6.0],\"radius\":4.0,\"elevation\":0.6,\
         \"frames\":48,\"fov_y\":1.0,\"width\":320,\"height\":240}}}}"
    );
    let mut connection = Connection::open(&addr, TIMEOUT).expect("connects");
    connection
        .send_request("POST", "/trajectories", body.as_bytes())
        .expect("request sends");
    let (status, _) = connection.read_response_head().expect("head arrives");
    assert_eq!(status, 200);
    let chunk = connection
        .read_chunk()
        .expect("chunk arrives")
        .expect("a frame");
    drop(connection);

    let stats = loop {
        let stats = server.stats();
        if stats.active_connections == 0 {
            break stats;
        }
        std::thread::yield_now();
    };
    assert!(
        stats.bytes_out - before.bytes_out >= chunk.len() as u64,
        "the client read {} bytes of frame, bytes_out moved by {}",
        chunk.len(),
        stats.bytes_out - before.bytes_out
    );
    assert!(stats.frames_streamed < 48, "the stream was cut short");
    for (identity, left, right) in stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    // Nothing is lost or double-counted on the engine side either.
    let engine_stats = loop {
        let stats = server.engine().stats();
        if stats.in_flight() == 0 {
            break stats;
        }
        std::thread::yield_now();
    };
    for (identity, left, right) in engine_stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    assert_eq!(
        engine_stats.submitted,
        engine_stats.completed + engine_stats.cancelled
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_4xx_without_killing_the_pool() {
    let scene = synth_scene(23, 32);
    let engine = Engine::builder()
        .workers(1)
        .build()
        .expect("engine config is valid");
    let server = splat_server::Server::start(
        Arc::new(engine),
        ServerConfig::default()
            .with_workers(2)
            .with_max_body_bytes(1 << 20)
            .with_read_timeout_ms(30_000),
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let scene_id = upload(&addr, &scene);

    // Bad magic: typed DecodeError Display on the wire.
    let response = one_shot(&addr, TIMEOUT, "POST", "/scenes", b"XXXX not a scene")
        .expect("bad-magic upload answers");
    assert_eq!(response.status, 400);
    assert!(
        String::from_utf8_lossy(&response.body).contains("not a GSTG scene"),
        "the typed DecodeError Display must reach the client"
    );

    // Truncated body: declared 64 bytes, sent 10, then half-closed.
    let mut truncated = Connection::open(&addr, TIMEOUT).expect("connects");
    truncated
        .send_truncated_request("POST", "/render", 64, b"0123456789")
        .expect("partial request sends");
    let response = truncated.read_response().expect("refusal arrives");
    assert_eq!(response.status, 400);
    assert!(String::from_utf8_lossy(&response.body).contains("Content-Length"));

    // Oversized Content-Length: refused with 413 before reading the body.
    let mut oversized = Connection::open(&addr, TIMEOUT).expect("connects");
    oversized
        .send_truncated_request("POST", "/scenes", 64 << 20, b"")
        .expect("oversized head sends");
    let response = oversized.read_response().expect("refusal arrives");
    assert_eq!(response.status, 413);

    // Bad JSON, an oversized frame, unknown scene, evicted scene, unknown
    // route.
    let response =
        one_shot(&addr, TIMEOUT, "POST", "/render", b"not json at all").expect("bad json answers");
    assert_eq!(response.status, 400);

    // 65535 x 65535 would be ~51 GB of pixels: refused at the wire, on a
    // live scene, before a worker allocates anything.
    let response = one_shot(
        &addr,
        TIMEOUT,
        "POST",
        "/render",
        camera_body(scene_id, "normal", 65_535, 65_535).as_bytes(),
    )
    .expect("oversized frame answers");
    assert_eq!(response.status, 400);
    assert!(String::from_utf8_lossy(&response.body).contains("camera.height"));

    let response = one_shot(
        &addr,
        TIMEOUT,
        "POST",
        "/render",
        camera_body(9_999, "normal", 32, 24).as_bytes(),
    )
    .expect("unknown scene answers");
    assert_eq!(response.status, 404);

    server
        .engine()
        .evict_scene(SceneId::from_raw(scene_id))
        .expect("evict succeeds");
    let response = one_shot(
        &addr,
        TIMEOUT,
        "POST",
        "/render",
        camera_body(scene_id, "normal", 32, 24).as_bytes(),
    )
    .expect("evicted scene answers");
    assert_eq!(response.status, 410);

    let response = one_shot(&addr, TIMEOUT, "GET", "/nope", b"").expect("unknown route answers");
    assert_eq!(response.status, 404);

    // The pool survived all of it: health and a real render still work.
    let response = one_shot(&addr, TIMEOUT, "GET", "/healthz", b"").expect("health answers");
    assert_eq!(response.status, 200);
    let scene_id = upload(&addr, &scene);
    let response = one_shot(
        &addr,
        TIMEOUT,
        "POST",
        "/render",
        camera_body(scene_id, "critical", 32, 24).as_bytes(),
    )
    .expect("render after abuse succeeds");
    assert_eq!(response.status, 200);

    let (stats, _engine_stats) = server.shutdown();
    for (identity, left, right) in stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    assert_eq!(
        stats.bad_request, 4,
        "bad magic + truncated + bad json + oversized frame"
    );
    assert_eq!(stats.payload_too_large, 1);
    assert_eq!(stats.not_found, 2, "unknown scene + unknown route");
    assert_eq!(stats.gone, 1);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
}

#[test]
fn double_capacity_burst_degrades_then_sheds_with_exact_reconciliation() {
    let scene = synth_scene(24, 48);
    // Capacity 4 with the default degradation ladder: the bound extends
    // to 8, depths 0..8 admit at Full,Full,T1,T2,T3,T3,T3,T3, and the
    // remaining 8 of a 16-request burst shed with 503.
    let server = start_server(
        AdmissionPolicy::RejectWhenFull,
        QualityPolicy::degrade_default(),
        4,
        true,
        16,
    );
    let addr = server.local_addr().to_string();
    let scene_id = upload(&addr, &scene);

    let mut clients = Vec::new();
    for _ in 0..16 {
        let addr = addr.clone();
        let body = camera_body(scene_id, "normal", 32, 24);
        clients.push(std::thread::spawn(move || {
            let response = one_shot(&addr, TIMEOUT, "POST", "/render", body.as_bytes())
                .expect("burst request answers");
            let tier = response
                .header("x-splat-quality")
                .map(|label| label.to_string());
            let retry_after = response.header("retry-after").map(|v| v.to_string());
            (response.status, tier, retry_after)
        }));
    }

    // Wait until every request has reached admission (engine paused, so
    // admitted jobs sit in the queue), then release the worker.
    let engine = Arc::clone(server.engine());
    loop {
        let stats = engine.stats();
        if stats.submitted + stats.rejected >= 16 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.resume();

    let mut served = Vec::new();
    let mut shed = 0usize;
    for client in clients {
        let (status, tier, retry_after) = client.join().expect("client thread");
        match status {
            200 => served.push(tier.expect("served responses carry a tier")),
            503 => {
                assert_eq!(
                    retry_after.as_deref(),
                    Some("1"),
                    "503 must carry Retry-After"
                );
                shed += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    served.sort();
    let mut tier_counts = [0usize; 4];
    for label in &served {
        let tier = QualityTier::from_label(label).expect("valid tier label");
        let index = QualityTier::ALL
            .iter()
            .position(|t| *t == tier)
            .expect("tier in ALL");
        if let Some(slot) = tier_counts.get_mut(index) {
            *slot += 1;
        }
    }
    assert_eq!(served.len(), 8, "half the burst is admitted");
    assert_eq!(shed, 8, "half the burst is shed");
    assert_eq!(
        tier_counts,
        [2, 1, 1, 4],
        "deterministic degradation ladder"
    );

    let (server_stats, engine_stats) = server.shutdown();
    // Exact cross-layer reconciliation, wire against engine.
    assert_eq!(server_stats.render_requests, 16);
    assert_eq!(
        server_stats.render_requests,
        engine_stats.submitted + engine_stats.rejected
    );
    assert_eq!(server_stats.overloaded, engine_stats.rejected);
    assert_eq!(
        server_stats.ok,
        1 + engine_stats.completed,
        "201 upload + 200 renders"
    );
    assert_eq!(engine_stats.submitted, 8);
    assert_eq!(engine_stats.rejected, 8);
    assert_eq!(engine_stats.completed, 8);
    assert_eq!(engine_stats.full_quality, 2);
    assert_eq!(engine_stats.degraded, 6);
    assert_eq!(engine_stats.degraded_t1, 1);
    assert_eq!(engine_stats.degraded_t2, 1);
    assert_eq!(engine_stats.degraded_t3, 4);
    assert_eq!(server_stats.refused_connections, 0);
    for (identity, left, right) in server_stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    for (identity, left, right) in engine_stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
}

/// Teardown is bounded by work, not by the read timeout: a worker parked
/// reading an idle keep-alive connection (30 s timeout here) is woken by
/// shutdown closing the connection's read half.
#[test]
fn shutdown_wakes_an_idle_keep_alive_connection() {
    let server = start_server(AdmissionPolicy::Block, QualityPolicy::FullOnly, 8, false, 2);
    let addr = server.local_addr().to_string();
    let mut connection = Connection::open(&addr, TIMEOUT).expect("connects");
    let response = connection
        .request("GET", "/healthz", b"")
        .expect("keep-alive request round-trips");
    assert_eq!(response.status, 200);

    // The connection stays open and silent; its worker is back in
    // `read_request` (or about to be — either way shutdown must not wait).
    let started = Instant::now();
    let (server_stats, engine_stats) = server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown sat out the read timeout: {took:?}"
    );
    assert_eq!(server_stats.health_requests, 1);
    assert_eq!(server_stats.active_connections, 0);
    for (identity, left, right) in server_stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    for (identity, left, right) in engine_stats.identities() {
        assert_eq!(left, right, "{identity}");
    }
    // The peer sees the close instead of a hung socket.
    assert!(connection.request("GET", "/healthz", b"").is_err());
}

#[test]
fn post_shutdown_drains_gracefully_through_shared_ownership() {
    let scene = synth_scene(25, 32);
    let server = start_server(AdmissionPolicy::Block, QualityPolicy::FullOnly, 8, false, 2);
    let addr = server.local_addr().to_string();
    let scene_id = upload(&addr, &scene);
    let response = one_shot(
        &addr,
        TIMEOUT,
        "POST",
        "/render",
        camera_body(scene_id, "normal", 32, 24).as_bytes(),
    )
    .expect("render succeeds");
    assert_eq!(response.status, 200);

    let response = one_shot(&addr, TIMEOUT, "POST", "/shutdown", b"").expect("shutdown answers");
    assert_eq!(response.status, 200);
    assert!(String::from_utf8_lossy(&response.body).contains("shutting_down"));
    assert!(server.is_shutting_down());

    let (server_stats, engine_stats) = server.shutdown();
    assert_eq!(server_stats.shutdown_requests, 1);
    assert_eq!(engine_stats.in_flight(), 0, "drain leaves nothing queued");
    assert_eq!(engine_stats.completed, 1);

    // The listener is gone: new connections must fail fast.
    assert!(Connection::open(&addr, Duration::from_millis(500)).is_err());
}
