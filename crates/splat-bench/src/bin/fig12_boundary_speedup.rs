//! Fig. 12 — GS-TG speedup on a GPU for boundary-method combinations.
//!
//! Models the GPU (SIMT) execution of GS-TG, where bitmask generation runs
//! sequentially inside preprocessing, for every combination of the
//! group-identification boundary (x-axis groups in the paper) and the
//! bitmask-generation boundary (bar colors). All results are normalized to
//! the conventional baseline with the AABB boundary at 16×16 tiles.
//!
//! Findings to reproduce: (1) Ellipse+Ellipse is the fastest overall,
//! (2) GS-TG with boundary X+X beats the conventional baseline using X,
//! (3) tile grouping composes with any boundary method. The binary exits
//! non-zero when finding 2 fails on any scene.

use gstg::GstgConfig;
use splat_bench::{run_baseline, run_gstg, HarnessOptions};
use splat_metrics::Table;
use splat_render::{BoundaryMethod, ExecutionModel};
use splat_scene::PaperScene;

fn main() {
    let options = HarnessOptions::from_args();
    println!("# Fig. 12 — GS-TG speedup vs boundary combinations (GPU execution model)");
    println!(
        "# workload: {} (normalized to the AABB baseline, 16x16 tiles)",
        options.describe()
    );
    println!();

    let mut table = Table::new([
        "scene",
        "base AABB",
        "base OBB",
        "base Ellipse",
        "GS-TG A+A",
        "GS-TG A+O",
        "GS-TG A+E",
        "GS-TG O+O",
        "GS-TG E+E",
    ]);

    let mut finding2_violations = 0u32;
    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = options.scene(scene_id);
        let camera = options.camera(scene_id);

        let reference = run_baseline(&scene, &camera, 16, BoundaryMethod::Aabb);
        let speedup_of = |total: f64| reference.times.total() / total;

        let base_obb = run_baseline(&scene, &camera, 16, BoundaryMethod::Obb);
        let base_ell = run_baseline(&scene, &camera, 16, BoundaryMethod::Ellipse);

        let gstg = |group: BoundaryMethod, bitmask: BoundaryMethod| {
            let config = GstgConfig::new(16, 64, group, bitmask).expect("valid configuration");
            run_gstg(&scene, &camera, config, ExecutionModel::GpuSequential)
        };
        let aa = gstg(BoundaryMethod::Aabb, BoundaryMethod::Aabb);
        let ao = gstg(BoundaryMethod::Aabb, BoundaryMethod::Obb);
        let ae = gstg(BoundaryMethod::Aabb, BoundaryMethod::Ellipse);
        let oo = gstg(BoundaryMethod::Obb, BoundaryMethod::Obb);
        let ee = gstg(BoundaryMethod::Ellipse, BoundaryMethod::Ellipse);

        // Finding 2: same boundary on both sides beats the same-boundary
        // baseline.
        if speedup_of(aa.times.total()) < 1.0 {
            finding2_violations += 1;
        }
        if speedup_of(oo.times.total()) < speedup_of(base_obb.times.total()) {
            finding2_violations += 1;
        }
        if speedup_of(ee.times.total()) < speedup_of(base_ell.times.total()) {
            finding2_violations += 1;
        }

        table.add_row([
            scene_id.name().to_string(),
            "1.000".to_string(),
            format!("{:.3}", speedup_of(base_obb.times.total())),
            format!("{:.3}", speedup_of(base_ell.times.total())),
            format!("{:.3}", speedup_of(aa.times.total())),
            format!("{:.3}", speedup_of(ao.times.total())),
            format!("{:.3}", speedup_of(ae.times.total())),
            format!("{:.3}", speedup_of(oo.times.total())),
            format!("{:.3}", speedup_of(ee.times.total())),
        ]);
    }

    println!("{}", table.to_markdown());
    println!(
        "(columns: baseline boundary at 16x16, then GS-TG 16+64 with group+bitmask boundaries)"
    );
    println!(
        "finding 2 check (GS-TG X+X >= baseline X): {} violations across scenes",
        finding2_violations
    );
    if finding2_violations > 0 {
        eprintln!("error: finding 2 fails on {finding2_violations} (scene, boundary) pairs");
        std::process::exit(1);
    }
}
