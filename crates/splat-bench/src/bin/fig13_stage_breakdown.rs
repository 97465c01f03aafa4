//! Fig. 13 — Stage-wise runtime breakdown for the Train scene.
//!
//! Compares the conventional pipeline with the ellipse boundary at tile
//! sizes 16, 32 and 64 against GS-TG (16+64, Ellipse+Ellipse) running with
//! the GPU's sequential execution model. The shape to reproduce: GS-TG's
//! sorting time approaches the 64×64 baseline (group-level sorting) while
//! its rasterization time matches the 16×16 baseline, and its
//! preprocessing is *slower* than the baseline because the GPU cannot hide
//! bitmask generation — the motivation for the dedicated accelerator.

use gstg::GstgConfig;
use splat_bench::{run_baseline, run_gstg, HarnessOptions};
use splat_metrics::Table;
use splat_render::{BoundaryMethod, ExecutionModel};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Fig. 13 — stage-wise runtime breakdown, train scene (ellipse boundary)");
    println!("# workload: {}", options.describe());
    println!();

    let scene = options.scene(PaperScene::Train);
    let camera = options.camera(PaperScene::Train);

    let mut table = Table::new(["pipeline", "preprocess", "sort", "raster", "total"]);
    let mut rows = Vec::new();
    for tile in [16u32, 32, 64] {
        let run = run_baseline(&scene, &camera, tile, BoundaryMethod::Ellipse);
        rows.push((format!("baseline {tile}x{tile}"), run.times));
    }
    let config = GstgConfig::paper_default();
    let gstg_run = run_gstg(&scene, &camera, config, ExecutionModel::GpuSequential);
    rows.push(("GS-TG 16+64 (GPU, sequential)".to_string(), gstg_run.times));
    let gstg_hw = run_gstg(
        &scene,
        &camera,
        config,
        ExecutionModel::AcceleratorOverlapped,
    );
    rows.push((
        "GS-TG 16+64 (accelerator, overlapped)".to_string(),
        gstg_hw.times,
    ));

    for (label, times) in &rows {
        table.add_row([
            label.clone(),
            format!("{:.3e}", times.preprocess),
            format!("{:.3e}", times.sort),
            format!("{:.3e}", times.raster),
            format!("{:.3e}", times.total()),
        ]);
    }
    println!("{}", table.to_markdown());

    let base16 = &rows[0].1;
    let base64 = &rows[2].1;
    let gstg_t = &rows[3].1;
    println!("checks:");
    println!(
        "- GS-TG sort vs 16x16 baseline sort: {:.2}x smaller (target: approach the 64x64 level of {:.2}x)",
        base16.sort / gstg_t.sort.max(1e-9),
        base16.sort / base64.sort.max(1e-9)
    );
    println!(
        "- GS-TG raster / 16x16 baseline raster: {:.3} (target: 1.0, rasterization efficiency preserved)",
        gstg_t.raster / base16.raster.max(1e-9)
    );
    println!(
        "- GS-TG (GPU) preprocess / 16x16 baseline preprocess: {:.3} (expected > 1 on a GPU; the accelerator hides it)",
        gstg_t.preprocess / base16.preprocess.max(1e-9)
    );
}
