//! Ablation — what the per-tile bitmask buys.
//!
//! GS-TG sorts at the group (64×64) granularity; without the bitmask the
//! rasterizer would also have to run at that granularity, i.e. every pixel
//! of a group would examine every splat of the group. This ablation
//! quantifies that: it compares GS-TG (16+64 with bitmask filtering)
//! against the conventional pipeline at a 64×64 tile size (equivalent to
//! grouping without bitmasks) and against the 16×16 baseline.

use gstg::GstgConfig;
use splat_bench::{run_baseline, run_gstg, HarnessOptions};
use splat_metrics::Table;
use splat_render::{BoundaryMethod, ExecutionModel};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Ablation — rasterization work with and without the tile bitmask");
    println!("# workload: {} (ellipse boundary)", options.describe());
    println!();

    let mut table = Table::new([
        "scene",
        "alpha/px 16x16 base",
        "alpha/px 64x64 base (no bitmask)",
        "alpha/px GS-TG 16+64",
        "sort keys 16x16",
        "sort keys GS-TG",
    ]);

    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = options.scene(scene_id);
        let camera = options.camera(scene_id);
        let base16 = run_baseline(&scene, &camera, 16, BoundaryMethod::Ellipse);
        let base64 = run_baseline(&scene, &camera, 64, BoundaryMethod::Ellipse);
        let grouped = run_gstg(
            &scene,
            &camera,
            GstgConfig::paper_default(),
            ExecutionModel::AcceleratorOverlapped,
        );
        table.add_row([
            scene_id.name().to_string(),
            format!("{:.1}", base16.counts.gaussians_per_pixel()),
            format!("{:.1}", base64.counts.gaussians_per_pixel()),
            format!("{:.1}", grouped.counts.gaussians_per_pixel()),
            base16.counts.tile_intersections.to_string(),
            grouped.counts.tile_intersections.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("Reading: the bitmask keeps GS-TG's per-pixel work at the 16x16 level while its");
    println!("sort-key count drops to the 64x64 level — the paper's central trade-off resolution.");
}
