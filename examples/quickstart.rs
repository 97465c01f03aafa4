//! Quickstart: render one view of a synthetic scene with the conventional
//! 3D-GS pipeline (a local [`Renderer`]) and with GS-TG through the serving
//! [`Engine`], and verify that tile grouping is lossless while removing
//! redundant sorting.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use gs_tg::prelude::*;

fn main() -> Result<(), RenderError> {
    // A small synthetic stand-in for the Deep Blending "playroom" scene,
    // rendered at a reduced resolution so the example finishes in seconds.
    let scene = std::sync::Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
    let camera = Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::try_from_fov_y(1.05, 632, 416)?,
    )?;
    println!(
        "scene `{}`: {} Gaussians, rendering at {}x{}",
        scene.name(),
        scene.len(),
        camera.width(),
        camera.height()
    );

    // Conventional pipeline: 16x16 tiles, exact ellipse boundary.
    let baseline =
        Renderer::new(RenderConfig::try_new(16, BoundaryMethod::Ellipse)?).render(&scene, &camera);
    println!(
        "baseline : {:>9} sort keys, {:>9} sort comparisons, {:>10} alpha computations, {:.1} ms wall clock",
        baseline.stats.counts.tile_intersections,
        baseline.stats.counts.sort_comparisons,
        baseline.stats.counts.alpha_computations,
        baseline.stats.total_time().as_secs_f64() * 1e3
    );

    // GS-TG: sorting shared across 64x64 groups, rasterization still 16x16
    // thanks to the per-Gaussian tile bitmasks. This is the pipeline the
    // serving engine runs: register the scene once, submit views by handle.
    let engine = Engine::builder().build()?;
    let id = engine.register_scene(std::sync::Arc::clone(&scene))?;
    let grouped = engine.submit(SubmitRequest::new(id, camera))?.wait()?;
    println!(
        "GS-TG    : {:>9} sort keys, {:>9} sort comparisons, {:>10} alpha computations, {:.1} ms wall clock",
        grouped.stats.counts.tile_intersections,
        grouped.stats.counts.sort_comparisons,
        grouped.stats.counts.alpha_computations,
        grouped.stats.total_time().as_secs_f64() * 1e3
    );

    let diff = grouped.image.max_abs_diff(&baseline.image);
    let reduction = baseline.stats.counts.sort_comparisons as f64
        / grouped.stats.counts.sort_comparisons.max(1) as f64;
    println!();
    println!(
        "max pixel difference      : {diff} (lossless: {})",
        diff == 0.0
    );
    println!("sorting-work reduction    : {reduction:.2}x");
    println!(
        "rasterization work ratio  : {:.3} (1.0 = efficiency fully preserved)",
        grouped.stats.counts.alpha_computations as f64
            / baseline.stats.counts.alpha_computations.max(1) as f64
    );

    // Malformed input is refused at the door with a typed error instead
    // of a panic — the serving path stays up.
    let empty = std::sync::Arc::new(Scene::new("empty", 64, 48, Vec::new()));
    match engine.register_scene(empty) {
        Err(RenderError::EmptyScene) => println!("empty-scene request       : Err(EmptyScene)"),
        other => println!("unexpected result for the empty scene: {other:?}"),
    }

    // Steady-state trajectory rendering: a reused session recycles the
    // framebuffer, the projected splats, the CSR assignments and the sort
    // scratch, so frames after the first allocate nothing.
    let trajectory = CameraTrajectory::orbit(
        CameraIntrinsics::try_from_fov_y(1.05, 316, 208)?,
        Vec3::new(0.0, 0.0, 6.0),
        4.0,
        0.8,
        8,
    );
    let mut session = GstgSession::new(GstgRenderer::new(GstgConfig::paper_default()));
    let mut total = std::time::Duration::ZERO;
    for index in 0..trajectory.len() {
        let frame = session.render(&scene, &trajectory.camera(index));
        total += frame.stats.total_time();
    }
    println!();
    println!(
        "trajectory session        : {} frames at {:.1} frames/s ({} B arena, reused across frames)",
        trajectory.len(),
        trajectory.len() as f64 / total.as_secs_f64().max(1e-9),
        session.footprint_bytes()
    );
    Ok(())
}
