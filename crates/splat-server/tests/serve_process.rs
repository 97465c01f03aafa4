//! `splat-serve` as a process: it starts, announces its port, serves a
//! verified frame, refuses a malformed body, reports reconciling counters
//! and exits 0 on `POST /shutdown` with its final snapshot on stdout.
//!
//! The in-process loopback tests (`tests/server_e2e.rs` at the workspace
//! root) cover the wire in depth; this test covers what only the binary
//! has — flag parsing into a running server, the `{"listening":…}`
//! handshake, the exit status and the last stdout line.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use gstg::{GstgConfig, GstgSession};
use splat_engine::EngineStats;
use splat_scene::io::{decode_scene, encode_scene};
use splat_scene::{SceneGenerator, SynthProfile};
use splat_server::{decode_frame, frame_digest, one_shot, parse_json, JsonValue, ServerStats};
use splat_types::{Camera, CameraIntrinsics, Vec3};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Kills the child if the test fails before it has exited by itself.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Rebuilds both typed snapshots from a `{"server":…,"engine":…}` object,
/// so the identities each struct declares are checked, not restated.
fn snapshots(json: &JsonValue) -> (ServerStats, EngineStats) {
    let stat = |section: &str, field: &str| {
        json.get(section)
            .and_then(|stats| stats.get(field))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("`{section}.{field}` is missing"))
    };
    (
        ServerStats::from(ServerStats::FIELDS.map(|field| stat("server", field))),
        EngineStats::from(EngineStats::FIELDS.map(|field| stat("engine", field))),
    )
}

fn assert_identities(when: &str, server: &ServerStats, engine: &EngineStats) {
    let declared = server.identities().into_iter().chain(engine.identities());
    for (identity, left, right) in declared {
        assert_eq!(left, right, "{when}: {identity}");
    }
}

#[test]
fn splat_serve_starts_serves_a_verified_frame_and_exits_zero() {
    let mut serve = Serve(
        Command::new(env!("CARGO_BIN_EXE_splat-serve"))
            .args(["--addr", "127.0.0.1:0", "--engine-workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("splat-serve spawns"),
    );
    let mut stdout = BufReader::new(serve.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("stdout is readable");
    let addr = parse_json(&line)
        .ok()
        .and_then(|json| json.get("listening")?.as_str().map(str::to_owned))
        .unwrap_or_else(|| panic!("first stdout line must announce the port, got `{line}`"));

    // Upload: the server registers the *decoded* bytes.
    let scene = SceneGenerator::new(SynthProfile::default().with_count(200), 18)
        .generate("serve", 160, 120);
    let bytes = encode_scene(&scene);
    let upload = one_shot(&addr, TIMEOUT, "POST", "/scenes", &bytes).expect("upload round-trips");
    assert_eq!(upload.status, 201);
    let scene_id = parse_json(&String::from_utf8_lossy(&upload.body))
        .ok()
        .and_then(|json| json.get("scene_id")?.as_u64())
        .expect("scene_id in the upload response");

    // Render: header digest == decoded frame == a local session's frame.
    let body = format!(
        "{{\"scene_id\":{scene_id},\"camera\":{{\"eye\":[0.0,1.0,-6.0],\
         \"target\":[0.0,0.0,6.0],\"up\":[0.0,1.0,0.0],\
         \"fov_y\":0.9,\"width\":96,\"height\":72}}}}"
    );
    let response =
        one_shot(&addr, TIMEOUT, "POST", "/render", body.as_bytes()).expect("render round-trips");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-splat-quality"), Some("full"));
    let wire_digest = frame_digest(&decode_frame(&response.body).expect("frame decodes"));
    assert_eq!(
        response.header("x-splat-digest"),
        Some(format!("{wire_digest:016x}").as_str()),
        "digest header must match the decoded frame"
    );
    let camera = Camera::look_at(
        Vec3::new(0.0, 1.0, -6.0),
        Vec3::new(0.0, 0.0, 6.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(0.9, 96, 72),
    );
    let decoded_upload = decode_scene(&bytes).expect("re-decode");
    let mut local = GstgSession::from_config(GstgConfig::paper_default());
    assert_eq!(
        wire_digest,
        frame_digest(local.render(&decoded_upload, &camera).image),
        "the process must serve the frame a local session renders"
    );

    let malformed =
        one_shot(&addr, TIMEOUT, "POST", "/render", b"{\"scene_id\":").expect("answers");
    assert_eq!(malformed.status, 400);

    let stats = one_shot(&addr, TIMEOUT, "GET", "/stats", b"").expect("stats round-trips");
    assert_eq!(stats.status, 200);
    let live = parse_json(&String::from_utf8_lossy(&stats.body)).expect("stats is json");
    let (server, engine) = snapshots(&live);
    assert_identities("GET /stats", &server, &engine);
    assert_eq!((server.render_requests, server.bad_request), (2, 1));
    assert_eq!((engine.submitted, engine.completed), (1, 1));

    let shutdown = one_shot(&addr, TIMEOUT, "POST", "/shutdown", b"").expect("shutdown answers");
    assert_eq!(shutdown.status, 200);
    let status = serve.0.wait().expect("splat-serve exits");
    assert!(status.success(), "exit status {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("stdout drains");
    let last = rest.lines().last().expect("a final stdout line");
    let (server, engine) = snapshots(&parse_json(last).expect("final line is json"));
    assert_identities("final snapshot", &server, &engine);
    assert_eq!(server.shutdown_requests, 1);
    assert_eq!(engine.completed, 1);
    assert_eq!(engine.in_flight(), 0);
}
