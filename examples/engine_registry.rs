//! Scene-registry walkthrough: register scenes once into a budgeted
//! registry, serve them by handle (one job at a time and as a whole
//! trajectory), watch the residency policy deflate the
//! least-recently-served scene under memory pressure, and reconcile the
//! registry counters — the slow-timescale control loop a multi-tenant
//! deployment runs next to per-job admission control.
//!
//! Run with:
//! ```text
//! cargo run --release --example engine_registry
//! ```
//!
//! CI smoke-runs this example, and every claim it prints is enforced with
//! a non-zero exit if violated.

use gs_tg::prelude::*;
use std::sync::Arc;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn main() -> Result<(), RenderError> {
    let camera = Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::try_from_fov_y(1.0, 316, 208)?,
    )?;

    // --- 1. Register once, serve many -------------------------------------
    println!("## register once, serve by handle");
    let engine = Engine::builder().workers(2).build()?;
    let playroom = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
    let id = engine.register_scene(Arc::clone(&playroom))?;
    let prepared = engine
        .prepared_scene(id)
        .unwrap_or_else(|| fail("freshly registered scene must be resident"));
    println!(
        "registered `{}` as {id}: {} splats, {} bytes resident, cost hint {} at {}x{}",
        playroom.name(),
        prepared.splat_count(),
        prepared.footprint_bytes(),
        prepared.cost_hint(camera.width(), camera.height()),
        camera.width(),
        camera.height(),
    );

    // The engine is invisible in the pixels: bit-identical to a local
    // session rendering the same scene.
    let local = GstgRenderer::new(GstgConfig::paper_default()).render(&playroom, &camera);
    let by_handle = engine.submit(SubmitRequest::new(id, camera))?.wait()?;
    if by_handle.image.max_abs_diff(&local.image) != 0.0 {
        fail("handle-based serving must be bit-identical to a local render");
    }
    println!("submit by handle matches a local GS-TG render bit-exactly");

    // --- 2. A trajectory through one handle --------------------------------
    println!();
    println!("## trajectory serving (in-order frame delivery)");
    let path = CameraTrajectory::orbit(
        CameraIntrinsics::try_from_fov_y(1.0, 316, 208)?,
        Vec3::new(0.0, 0.0, 6.0),
        4.5,
        1.0,
        6,
    );
    let mut frames = engine.stream_trajectory(id, &path, Priority::High, 4)?;
    let mut delivered = 0usize;
    while let Some(frame) = frames.next_frame() {
        if let Err(error) = frame {
            fail(&format!("trajectory frame {delivered} failed: {error}"));
        }
        delivered += 1;
    }
    if delivered != path.len() {
        fail("every trajectory frame must be delivered exactly once");
    }
    println!("{delivered} frames delivered in path order through one registry hit");

    // --- 3. Residency control: deterministic deflation ---------------------
    println!();
    println!("## residency control (budget: 2 resident scenes)");
    let budgeted = Engine::builder()
        .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(2))
        .build()?;
    let train = budgeted.register_scene(Arc::new(PaperScene::Train.build(SceneScale::Tiny, 1)))?;
    let truck = budgeted.register_scene(Arc::new(PaperScene::Truck.build(SceneScale::Tiny, 2)))?;
    // Serving `train` makes `truck` the least-recently-served scene…
    budgeted.submit(SubmitRequest::new(train, camera))?.wait()?;
    // …so registering a third scene deflates `truck`, deterministically.
    let rubble =
        budgeted.register_scene(Arc::new(PaperScene::Rubble.build(SceneScale::Tiny, 3)))?;
    if budgeted.resident_scenes() != vec![train, rubble] {
        fail("deflation must evict the least-recently-served scene");
    }
    match budgeted.submit(SubmitRequest::new(truck, camera)) {
        Err(RenderError::Evicted { id }) if id == truck => {
            println!("{id} deflated under the budget; serving it reports `Evicted`")
        }
        other => fail(&format!("expected an Evicted miss, got {other:?}")),
    }
    match budgeted.submit(SubmitRequest::new(SceneId::from_raw(99), camera)) {
        Err(RenderError::UnknownScene { .. }) => {
            println!("a fabricated handle reports `UnknownScene`")
        }
        other => fail(&format!("expected an UnknownScene miss, got {other:?}")),
    }

    // --- 4. Counters reconcile ---------------------------------------------
    println!();
    println!("## accounting");
    for (label, stats) in [("serving", engine.stats()), ("budgeted", budgeted.stats())] {
        println!("{label} engine: {stats}");
        for (identity, left, right) in stats.identities() {
            if left != right {
                fail(&format!("{identity} fails: {left} != {right}"));
            }
        }
    }
    let stats = budgeted.stats();
    if stats.scene_hits != 1 || stats.scene_misses != 2 || stats.evicted != 1 {
        fail("budgeted engine hit/miss/eviction counters drifted");
    }

    Ok(())
}
