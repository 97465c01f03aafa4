//! Ablation — sequential (GPU) vs overlapped (accelerator) bitmask
//! generation.
//!
//! Quantifies why a dedicated accelerator is needed: on a GPU the bitmask
//! generation cannot run in parallel with group-wise sorting, so its cost
//! lands in the preprocessing stage; the accelerator hides it behind the
//! sorting phase (Sections V-A and VI-B).

use gstg::GstgConfig;
use splat_bench::{run_baseline, run_gstg, HarnessOptions};
use splat_metrics::{geometric_mean, Table};
use splat_render::{BoundaryMethod, ExecutionModel};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Ablation — GS-TG with sequential vs overlapped bitmask generation");
    println!(
        "# workload: {} (speedups vs the 16x16 ellipse baseline)",
        options.describe()
    );
    println!();

    let mut table = Table::new([
        "scene",
        "GS-TG sequential (GPU)",
        "GS-TG overlapped (accelerator)",
    ]);
    let mut seq_all = Vec::new();
    let mut ovl_all = Vec::new();
    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = options.scene(scene_id);
        let camera = options.camera(scene_id);
        let baseline = run_baseline(&scene, &camera, 16, BoundaryMethod::Ellipse);
        let config = GstgConfig::paper_default();
        let sequential = run_gstg(&scene, &camera, config, ExecutionModel::GpuSequential);
        let overlapped = run_gstg(
            &scene,
            &camera,
            config,
            ExecutionModel::AcceleratorOverlapped,
        );
        let s = sequential.times.speedup_over(&baseline.times);
        let o = overlapped.times.speedup_over(&baseline.times);
        seq_all.push(s);
        ovl_all.push(o);
        table.add_row([
            scene_id.name().to_string(),
            format!("{s:.3}"),
            format!("{o:.3}"),
        ]);
    }
    table.add_row([
        "geomean".to_string(),
        format!("{:.3}", geometric_mean(&seq_all).unwrap_or(0.0)),
        format!("{:.3}", geometric_mean(&ovl_all).unwrap_or(0.0)),
    ]);
    println!("{}", table.to_markdown());
    println!(
        "Reading: overlapping bitmask generation with group sorting recovers the time the GPU"
    );
    println!(
        "loses in preprocessing, which is the architectural justification for the GS-TG core."
    );
}
