//! Table I — Percentage of Gaussians shared with adjacent tiles.
//!
//! For every tile size, reports the fraction of visible splats that
//! intersect two or more tiles (i.e. whose sorting work is duplicated
//! across tiles). The paper reports 91.5 % on average at 8×8 falling to
//! 55.6 % at 64×64 (AABB boundary).

use splat_bench::{HarnessOptions, TILE_SIZE_SWEEP};
use splat_core::{CsrScratch, StageCounts};
use splat_metrics::{mean, Table};
use splat_render::{
    identify_tiles_into, preprocess_into, BoundaryMethod, PrepassMode, RenderConfig,
    TileAssignments, TileGrid,
};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Table I — % of Gaussians shared with adjacent tiles");
    println!(
        "# workload: {} (AABB boundary, as in the original 3D-GS)",
        options.describe()
    );
    println!();

    let boundary = BoundaryMethod::Aabb;
    let mut table = Table::new(["%", "8x8", "16x16", "32x32", "64x64"]);
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); TILE_SIZE_SWEEP.len()];

    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = options.scene(scene_id);
        let camera = options.camera(scene_id);
        let mut counts = StageCounts::new();
        let config = RenderConfig::new(16, boundary);
        let mut projected = Vec::new();
        preprocess_into(&scene, &camera, &config, &mut counts, &mut projected);
        let mut scratch = CsrScratch::new();
        let mut assignments = TileAssignments::empty();

        let mut values = Vec::new();
        for (i, &tile) in TILE_SIZE_SWEEP.iter().enumerate() {
            let grid = TileGrid::new(camera.width(), camera.height(), tile);
            let mut id_counts = StageCounts::new();
            identify_tiles_into(
                &projected,
                grid,
                boundary,
                PrepassMode::Conservative,
                &mut id_counts,
                &mut scratch,
                &mut assignments,
            );
            let shared = assignments.shared_fraction() * 100.0;
            per_size[i].push(shared);
            values.push(shared);
        }
        table.add_row([
            scene_id.name().to_string(),
            format!("{:.1}", values[0]),
            format!("{:.1}", values[1]),
            format!("{:.1}", values[2]),
            format!("{:.1}", values[3]),
        ]);
    }

    let averages: Vec<f64> = per_size.iter().map(|v| mean(v).unwrap_or(0.0)).collect();
    table.add_row([
        "Average".to_string(),
        format!("{:.1}", averages[0]),
        format!("{:.1}", averages[1]),
        format!("{:.1}", averages[2]),
        format!("{:.1}", averages[3]),
    ]);
    println!("{}", table.to_markdown());
    println!("(paper, AABB: 91.5 / 84.0 / 71.9 / 55.6 on the real checkpoints)");
}
