//! Fig. 11 — GS-TG speedup for different tile + group size combinations.
//!
//! Sweeps the tile+group combinations {8+16, 8+32, 8+64, 16+32, 16+64}
//! with the ellipse boundary for both group identification and bitmask
//! generation, modelling the accelerator's overlap of bitmask generation
//! with group-wise sorting. Speedups are normalized to the conventional
//! baseline at the same tile size. The paper finds 16+64 fastest in most
//! cases, which is why the remaining experiments use it.

use gstg::GstgConfig;
use splat_bench::{run_baseline, run_gstg, HarnessOptions, GROUPING_SWEEP};
use splat_metrics::{geometric_mean, Table};
use splat_render::{BoundaryMethod, ExecutionModel};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Fig. 11 — speedup of GS-TG for tile+group combinations");
    println!(
        "# workload: {} (ellipse boundary, overlapped bitmask generation)",
        options.describe()
    );
    println!();

    let labels: Vec<String> = GROUPING_SWEEP
        .iter()
        .map(|(t, g)| format!("{t}+{g}"))
        .collect();
    let mut headers = vec!["scene".to_string()];
    headers.extend(labels.iter().cloned());
    let mut table = Table::new(headers);

    let mut per_combo: Vec<Vec<f64>> = vec![Vec::new(); GROUPING_SWEEP.len()];
    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = options.scene(scene_id);
        let camera = options.camera(scene_id);
        let mut row = vec![scene_id.name().to_string()];
        for (i, &(tile, group)) in GROUPING_SWEEP.iter().enumerate() {
            let baseline = run_baseline(&scene, &camera, tile, BoundaryMethod::Ellipse);
            let config = GstgConfig::new(
                tile,
                group,
                BoundaryMethod::Ellipse,
                BoundaryMethod::Ellipse,
            )
            .expect("sweep combination is valid");
            let grouped = run_gstg(
                &scene,
                &camera,
                config,
                ExecutionModel::AcceleratorOverlapped,
            );
            let speedup = grouped.times.speedup_over(&baseline.times);
            per_combo[i].push(speedup);
            row.push(format!("{speedup:.3}"));
        }
        table.add_row(row);
    }

    let mut geo_row = vec!["geomean".to_string()];
    let mut best = (0usize, 0.0f64);
    for (i, values) in per_combo.iter().enumerate() {
        let g = geometric_mean(values).unwrap_or(0.0);
        if g > best.1 {
            best = (i, g);
        }
        geo_row.push(format!("{g:.3}"));
    }
    table.add_row(geo_row);
    println!("{}", table.to_markdown());
    println!(
        "best combination by geomean: {} (the paper selects 16+64)",
        labels[best.0]
    );
}
