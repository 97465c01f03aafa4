//! Asynchronous serving walkthrough: submit jobs to a bounded,
//! admission-controlled queue, poll or wait on their handles, watch the
//! engine deflate an over-capacity burst by priority, and shut down
//! gracefully — the serving loop a production front end runs.
//!
//! Run with:
//! ```text
//! cargo run --release --example engine_serve
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

/// Every bookkeeping identity the engine declares must hold in `stats`.
fn reconcile(stats: &EngineStats) {
    for (identity, left, right) in stats.identities() {
        if left != right {
            fail(&format!("{identity} fails: {left} != {right}"));
        }
    }
}

fn main() -> Result<(), RenderError> {
    let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 0));
    let trajectory = CameraTrajectory::orbit(
        CameraIntrinsics::try_from_fov_y(1.0, 316, 208)?,
        Vec3::new(0.0, 0.0, 6.0),
        4.5,
        1.0,
        8,
    );
    let cameras: Vec<Camera> = trajectory.cameras().collect();
    println!(
        "scene `{}`: {} Gaussians, {} poses at {}x{}",
        scene.name(),
        scene.len(),
        cameras.len(),
        cameras[0].width(),
        cameras[0].height()
    );

    // --- 1. Submit / await -------------------------------------------------
    // Two workers drain the queue; handles come back immediately and the
    // caller waits (or polls) at its leisure.
    println!();
    println!(
        "## submit / await ({} jobs, 2 workers, Block admission)",
        cameras.len()
    );
    let engine = Engine::builder().workers(2).build()?;
    // A scene is handed to an engine once; jobs name it by handle.
    let id = engine.register_scene(Arc::clone(&scene))?;
    let handles: Vec<JobHandle> = cameras
        .iter()
        .map(|camera| engine.submit(SubmitRequest::new(id, *camera)))
        .collect::<Result<_, _>>()?;
    let mut luminance = 0.0;
    for handle in handles {
        luminance += f64::from(handle.wait()?.image.mean_luminance());
    }
    let stats = engine.stats();
    println!(
        "served {} jobs (checksum {luminance:.4}); stats: {stats}",
        cameras.len()
    );
    reconcile(&stats);
    if stats.completed != cameras.len() as u64 || stats.rejected != 0 {
        fail("every submitted job should have completed");
    }

    // --- 2. Deterministic load shedding ------------------------------------
    // A paused engine stages a burst twice the queue's capacity: admission
    // control must keep every high-priority job and shed every low one,
    // before any rendering happens.
    println!();
    println!("## admission control (capacity 4, 4 low + 4 high submissions)");
    let shedding = Engine::builder()
        .admission(AdmissionPolicy::ShedLowPriority { capacity: 4 })
        .build()?;
    shedding.pause();
    let id = shedding.register_scene(Arc::clone(&scene))?;
    let low: Vec<JobHandle> = (0..4)
        .map(|i| shedding.submit(SubmitRequest::new(id, cameras[i]).with_priority(Priority::Low)))
        .collect::<Result<_, _>>()?;
    let high: Vec<JobHandle> = (4..8)
        .map(|i| shedding.submit(SubmitRequest::new(id, cameras[i]).with_priority(Priority::High)))
        .collect::<Result<_, _>>()?;
    shedding.resume();
    let mut shed = 0;
    for handle in low {
        match handle.wait() {
            Err(RenderError::Overloaded { capacity }) => {
                if capacity != 4 {
                    fail("the overload error should carry the admission capacity");
                }
                shed += 1;
            }
            Ok(_) => fail("a low-priority job survived a fully deflated queue"),
            Err(other) => fail(&format!("unexpected low-priority outcome: {other}")),
        }
    }
    for handle in high {
        if handle.wait().is_err() {
            fail("every high-priority job should have been served");
        }
    }
    let stats = shedding.stats();
    println!("shed {shed}/4 low-priority jobs, served 4/4 high-priority; stats: {stats}");
    reconcile(&stats);
    if shed != 4 || stats.shed != shed || stats.completed != 4 {
        fail("shedding should reject exactly the low-priority jobs");
    }

    // --- 3. Cancellation and graceful shutdown -----------------------------
    println!();
    println!("## cancellation + drain shutdown");
    let draining = Engine::builder().build()?;
    draining.pause();
    let id = draining.register_scene(scene)?;
    let keep = draining.submit(SubmitRequest::new(id, cameras[0]))?;
    let withdraw = draining.submit(SubmitRequest::new(id, cameras[1]))?;
    if !withdraw.cancel() {
        fail("a queued job should be cancellable");
    }
    // Drain: the remaining job is served before the workers stop.
    let final_stats = draining.shutdown(ShutdownMode::Drain);
    match (keep.wait(), withdraw.wait()) {
        (Ok(_), Err(RenderError::Cancelled)) => {}
        _ => fail("drain should serve the kept job and cancel the withdrawn one"),
    }
    println!("kept job served, cancelled job withdrawn; final stats: {final_stats}");
    reconcile(&final_stats);
    if final_stats.completed != 1 || final_stats.cancelled != 1 || final_stats.in_flight() != 0 {
        fail("drain shutdown accounting is off");
    }

    Ok(())
}
