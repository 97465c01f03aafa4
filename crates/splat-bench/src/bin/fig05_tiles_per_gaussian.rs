//! Fig. 5 — Average number of intersecting tiles per Gaussian.
//!
//! For every tile size in {8, 16, 32, 64} and the AABB / ellipse boundary
//! methods, reports the mean number of tiles each visible splat intersects,
//! averaged over the four algorithm-evaluation scenes (plus per-scene
//! values). The paper's observation: the count grows steeply as the tile
//! size shrinks (18.3× from 64×64 to 8×8 for playroom with AABB, 7.09×
//! with the ellipse boundary).

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
    println!("# Fig. 5 — average intersecting tiles per Gaussian");
    println!("# workload: {}", options.describe());
    println!();

    for boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
        println!("## boundary: {boundary}");
        let mut table = Table::new(["scene", "8x8", "16x16", "32x32", "64x64", "8x8 / 64x64"]);
        let mut per_size_means: Vec<Vec<f64>> = vec![Vec::new(); TILE_SIZE_SWEEP.len()];

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
                let v = assignments.mean_tiles_per_gaussian();
                per_size_means[i].push(v);
                values.push(v);
            }
            let ratio = values[0] / values[values.len() - 1];
            table.add_row([
                scene_id.name().to_string(),
                format!("{:.2}", values[0]),
                format!("{:.2}", values[1]),
                format!("{:.2}", values[2]),
                format!("{:.2}", values[3]),
                format!("{ratio:.2}x"),
            ]);
        }

        let averages: Vec<f64> = per_size_means
            .iter()
            .map(|v| mean(v).unwrap_or(0.0))
            .collect();
        table.add_row([
            "average".to_string(),
            format!("{:.2}", averages[0]),
            format!("{:.2}", averages[1]),
            format!("{:.2}", averages[2]),
            format!("{:.2}", averages[3]),
            format!("{:.2}x", averages[0] / averages[3]),
        ]);
        println!("{}", table.to_markdown());
    }
}
