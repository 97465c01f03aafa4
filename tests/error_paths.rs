//! Error-path coverage: every `RenderError` variant a caller can provoke is
//! constructed through the *public* `Engine`/backend API — never with a
//! literal — and its `Display` output is asserted non-empty and stable.
//! `BackendFault` is the one variant no input can provoke (it reports a
//! panic inside the pipeline); its text is pinned from a literal here and
//! `splat-engine`'s `worker::tests` produce it from an injected backend.
//!
//! This pins two things at once: that each failure mode actually reaches
//! callers as the documented variant (not a panic, not a coarser error),
//! and that the human-readable messages server logs depend on don't drift
//! silently.

use gs_tg::prelude::*;
use std::sync::Arc;

fn valid_camera() -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 64, 48),
    )
}

fn scene() -> Arc<Scene> {
    Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0))
}

/// Registers `scene` with `engine` and returns its handle.
fn registered(engine: &Engine, scene: &Arc<Scene>) -> SceneId {
    engine
        .register_scene(Arc::clone(scene))
        .expect("valid scene registers")
}

/// Stable name of a `RenderError` variant. The `match` has no wildcard
/// arm, so a new variant does not compile until it is named here (and in
/// `splat-server`'s `status_for_render_error`).
fn variant_name(error: &RenderError) -> &'static str {
    match error {
        RenderError::DegenerateCamera { .. } => "DegenerateCamera",
        RenderError::InvalidResolution { .. } => "InvalidResolution",
        RenderError::InvalidIntrinsics { .. } => "InvalidIntrinsics",
        RenderError::EmptyScene => "EmptyScene",
        RenderError::InvalidTileSize { .. } => "InvalidTileSize",
        RenderError::InvalidConfiguration { .. } => "InvalidConfiguration",
        RenderError::BackendFault { .. } => "BackendFault",
        RenderError::Overloaded { .. } => "Overloaded",
        RenderError::Cancelled => "Cancelled",
        RenderError::ShutDown => "ShutDown",
        RenderError::UnknownScene { .. } => "UnknownScene",
        RenderError::Evicted { .. } => "Evicted",
    }
}

/// Constructs one specimen of every variant through public entry points.
fn all_variants_via_public_api() -> Vec<(RenderError, &'static str)> {
    let scene = scene();
    let engine = Engine::builder().build().expect("default engine");
    let id = registered(&engine, &scene);
    let mut specimens = Vec::new();

    // DegenerateCamera: up vector parallel to the view direction.
    let degenerate = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 5.0, 0.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 64, 48),
    );
    specimens.push((
        engine
            .submit(SubmitRequest::new(id, degenerate))
            .expect_err("degenerate camera must be rejected"),
        "degenerate camera",
    ));

    // InvalidResolution: a zero-width image served through the engine.
    let zero_width = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 0, 48),
    );
    specimens.push((
        engine
            .submit(SubmitRequest::new(id, zero_width))
            .expect_err("zero-width image must be rejected"),
        "invalid resolution 0x48",
    ));

    // InvalidIntrinsics: a non-finite field of view.
    let bad_fov = Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(f32::NAN, 64, 48),
    );
    specimens.push((
        engine
            .submit(SubmitRequest::new(id, bad_fov))
            .expect_err("NaN field of view must be rejected"),
        "invalid camera intrinsics",
    ));

    // EmptyScene: nothing to render, so no handle to submit against.
    let empty = Arc::new(Scene::new("empty", 64, 48, Vec::new()));
    specimens.push((
        engine
            .register_scene(empty)
            .expect_err("empty scene must be rejected"),
        "no gaussians",
    ));

    // InvalidTileSize: a hand-mutated config with tile size 0.
    let mut bad_tile = GstgConfig::paper_default();
    bad_tile.tile_size = 0;
    specimens.push((
        Engine::builder()
            .gstg_config(bad_tile)
            .build()
            .expect_err("tile size 0 must be rejected"),
        "tile size 0",
    ));

    // InvalidConfiguration: a group size that is not a multiple of the
    // tile size.
    let mut bad_group = GstgConfig::paper_default();
    bad_group.group_size = bad_group.tile_size + 1;
    specimens.push((
        Engine::builder()
            .gstg_config(bad_group)
            .build()
            .expect_err("misaligned group size must be rejected"),
        "invalid configuration",
    ));

    // Overloaded: the second submission to a paused, capacity-1,
    // reject-when-full queue.
    let reject_engine = Engine::builder()
        .admission(AdmissionPolicy::RejectWhenFull)
        .queue_capacity(1)
        .build()
        .expect("valid engine");
    reject_engine.pause();
    let id = registered(&reject_engine, &scene);
    let _queued = reject_engine
        .submit(SubmitRequest::new(id, valid_camera()))
        .expect("first submission fits");
    specimens.push((
        reject_engine
            .submit(SubmitRequest::new(id, valid_camera()))
            .expect_err("full queue must reject"),
        "engine overloaded",
    ));

    // Cancelled: a queued job withdrawn through its handle.
    let cancel_engine = Engine::builder().build().expect("valid engine");
    cancel_engine.pause();
    let handle = cancel_engine
        .submit(SubmitRequest::new(
            registered(&cancel_engine, &scene),
            valid_camera(),
        ))
        .expect("valid submission");
    assert!(handle.cancel());
    specimens.push((
        handle.wait().expect_err("cancelled job must not render"),
        "cancelled",
    ));

    // ShutDown: a queued job orphaned by an aborting shutdown.
    let abort_engine = Engine::builder().build().expect("valid engine");
    abort_engine.pause();
    let orphan = abort_engine
        .submit(SubmitRequest::new(
            registered(&abort_engine, &scene),
            valid_camera(),
        ))
        .expect("valid submission");
    abort_engine.shutdown(ShutdownMode::Abort);
    specimens.push((
        orphan.wait().expect_err("aborted job must not render"),
        "shut down",
    ));

    // UnknownScene: a handle this engine never issued.
    let registry_engine = Engine::builder().build().expect("valid engine");
    specimens.push((
        registry_engine
            .submit(SubmitRequest::new(SceneId::from_raw(42), valid_camera()))
            .expect_err("fabricated handles must not resolve"),
        "unknown scene scene#42",
    ));

    // Evicted: a registered handle served after its scene left the
    // resident set.
    let evicted_id = registered(&registry_engine, &scene);
    registry_engine
        .evict_scene(evicted_id)
        .expect("resident scene evicts");
    specimens.push((
        registry_engine
            .submit(SubmitRequest::new(evicted_id, valid_camera()))
            .expect_err("evicted handles must not resolve"),
        "evicted from the resident set",
    ));

    specimens
}

#[test]
fn every_variant_is_reachable_through_the_public_api() {
    let specimens = all_variants_via_public_api();
    let mut names: Vec<&'static str> = specimens
        .iter()
        .map(|(error, _)| variant_name(error))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        vec![
            "Cancelled",
            "DegenerateCamera",
            "EmptyScene",
            "Evicted",
            "InvalidConfiguration",
            "InvalidIntrinsics",
            "InvalidResolution",
            "InvalidTileSize",
            "Overloaded",
            "ShutDown",
            "UnknownScene",
        ],
        "one specimen of every RenderError variant"
    );
}

#[test]
fn display_output_is_non_empty_and_stable() {
    for (error, expected_fragment) in all_variants_via_public_api() {
        let message = error.to_string();
        assert!(!message.is_empty(), "{error:?} displays nothing");
        assert!(
            message.contains(expected_fragment),
            "{error:?} display drifted: `{message}` no longer contains `{expected_fragment}`"
        );
        // House style: lowercase start, no trailing period.
        assert!(
            message.starts_with(|c: char| c.is_lowercase() || c.is_ascii_digit()),
            "`{message}` should start lowercase"
        );
        assert!(
            !message.ends_with('.'),
            "`{message}` should not end with a period"
        );
    }
}

#[test]
fn exact_messages_of_the_fixed_variants_are_pinned() {
    // Variants without interpolated context must never change their text:
    // deployments grep serving logs for these strings.
    let specimens = all_variants_via_public_api();
    let by_name = |name: &str| {
        specimens
            .iter()
            .find(|(error, _)| variant_name(error) == name)
            .map(|(error, _)| error.to_string())
            .expect("specimen exists")
    };
    assert_eq!(by_name("EmptyScene"), "scene contains no gaussians");
    assert_eq!(by_name("Cancelled"), "job cancelled before execution");
    assert_eq!(
        by_name("ShutDown"),
        "engine shut down before the job was served"
    );
    assert_eq!(
        by_name("Overloaded"),
        "engine overloaded: admission queue at capacity 1, job shed"
    );
    assert_eq!(
        by_name("InvalidResolution"),
        "invalid resolution 0x48: both dimensions must be non-zero"
    );
    assert_eq!(
        by_name("InvalidTileSize"),
        "tile size 0 must be a power of two >= 4"
    );
}

#[test]
fn a_backend_fault_is_a_server_side_error_with_a_pinned_message() {
    let fault = RenderError::BackendFault {
        reason: "backend panicked mid-render (pipeline bug); job aborted".to_owned(),
    };
    assert_eq!(variant_name(&fault), "BackendFault");
    assert_eq!(
        fault.to_string(),
        "backend fault: backend panicked mid-render (pipeline bug); job aborted"
    );
}

#[test]
fn render_errors_implement_the_error_trait() {
    for (error, _) in all_variants_via_public_api() {
        let dynamic: &dyn std::error::Error = &error;
        assert!(!dynamic.to_string().is_empty());
    }
}

/// Every `DecodeError` variant is reachable by corrupting a buffer that
/// `encode_scene` itself produced — the decoder's failure modes are part
/// of the public serving surface (scene upload rejects must be typed).
#[test]
fn every_decode_error_variant_is_reachable_from_a_corrupted_buffer() {
    use gs_tg::scene::io::{decode_scene, encode_scene, DecodeError};

    let good = encode_scene(&scene());
    assert!(decode_scene(&good).is_ok(), "round-trip baseline");

    // BadMagic: first four bytes are not `GSTG`.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert_eq!(decode_scene(&bad_magic), Err(DecodeError::BadMagic));

    // UnsupportedVersion: version word (offset 4) bumped past the writer's.
    let mut bad_version = good.clone();
    bad_version[4] = 0x63; // version 99
    bad_version[5] = 0x00;
    assert_eq!(
        decode_scene(&bad_version),
        Err(DecodeError::UnsupportedVersion(99))
    );

    // UnexpectedEof: any truncation after the header.
    let truncated = &good[..good.len() - 1];
    assert_eq!(decode_scene(truncated), Err(DecodeError::UnexpectedEof));

    // InvalidField: the scene-name bytes are not UTF-8.
    let name_len = u16::from_le_bytes([good[6], good[7]]) as usize;
    assert!(name_len > 0, "paper scenes have names");
    let mut bad_name = good.clone();
    bad_name[8] = 0xFF;
    bad_name[8..8 + name_len].fill(0xFF);
    assert_eq!(
        decode_scene(&bad_name),
        Err(DecodeError::InvalidField("name"))
    );

    // NonFinite: first position float (right after name/width/height/count)
    // replaced by a NaN bit pattern.
    let first_position = 8 + name_len + 4 + 4 + 4;
    let mut non_finite = good.clone();
    non_finite[first_position..first_position + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    assert_eq!(
        decode_scene(&non_finite),
        Err(DecodeError::NonFinite("position"))
    );

    // Display messages are pinned like the RenderError ones above.
    assert_eq!(
        DecodeError::BadMagic.to_string(),
        "buffer is not a GSTG scene"
    );
    assert_eq!(
        DecodeError::UnexpectedEof.to_string(),
        "scene buffer ended unexpectedly"
    );
    // One specimen of every variant, each decoded from a corrupted buffer
    // above. The `match` has no wildcard arm, so a new variant does not
    // compile until it is named here.
    let mut names = Vec::new();
    let corrupted: [&[u8]; 5] = [&bad_magic, &bad_version, truncated, &bad_name, &non_finite];
    for buffer in corrupted {
        let error = decode_scene(buffer).expect_err("corrupted buffer is refused");
        let dynamic: &dyn std::error::Error = &error;
        assert!(!dynamic.to_string().is_empty());
        names.push(match error {
            DecodeError::BadMagic => "BadMagic",
            DecodeError::UnsupportedVersion(_) => "UnsupportedVersion",
            DecodeError::UnexpectedEof => "UnexpectedEof",
            DecodeError::InvalidField(_) => "InvalidField",
            DecodeError::NonFinite(_) => "NonFinite",
        });
    }
    assert_eq!(
        names,
        [
            "BadMagic",
            "UnsupportedVersion",
            "UnexpectedEof",
            "InvalidField",
            "NonFinite"
        ]
    );
}
