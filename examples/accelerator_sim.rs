//! Accelerator simulation walkthrough: simulate one frame of each
//! evaluation scene on the cycle-level GS-TG accelerator model and compare
//! the baseline, GSCore and GS-TG pipelines (a miniature of Figs. 14/15).
//!
//! Run with:
//! ```text
//! cargo run --release --example accelerator_sim
//! ```

use gs_tg::prelude::*;

fn main() -> Result<(), RenderError> {
    let sim = Simulator::new(AccelConfig::paper());
    let variants = [
        PipelineVariant::baseline_paper(),
        PipelineVariant::gscore_paper(),
        PipelineVariant::gstg_paper(),
    ];

    let mut table = Table::new([
        "scene",
        "variant",
        "cycles",
        "fps @1GHz",
        "DRAM MB",
        "energy mJ",
        "speedup",
        "energy eff.",
    ]);

    let mut gstg_speedups = Vec::new();
    for scene_id in [PaperScene::Train, PaperScene::Truck, PaperScene::Playroom] {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        // Reduced-resolution proxy view keeps the example under a minute;
        // the figure binaries in `splat-bench` sweep larger settings.
        let camera = Camera::try_look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::try_from_fov_y(0.9, scene.width() / 4, scene.height() / 4)?,
        )?;
        let reports: Vec<_> = variants
            .iter()
            .map(|v| sim.simulate(&scene, &camera, v))
            .collect();
        let baseline = reports[0].clone();
        for report in &reports {
            table.add_row([
                scene_id.name().to_string(),
                report.label.clone(),
                report.total_cycles.to_string(),
                format!("{:.1}", report.fps),
                format!("{:.2}", report.traffic.total_bytes() as f64 / 1e6),
                format!("{:.3}", report.energy.total_j() * 1e3),
                format!("{:.3}", report.speedup_over(&baseline)),
                format!("{:.3}", report.energy_efficiency_over(&baseline)),
            ]);
        }
        gstg_speedups.push(reports[2].speedup_over(&baseline));
    }

    println!("{}", table.to_markdown());
    println!(
        "GS-TG geomean speedup over the accelerator baseline on this miniature run: {:.3}x",
        geometric_mean(&gstg_speedups).unwrap_or(0.0)
    );
    println!("(run `cargo run --release -p splat-bench --bin fig14_accel_speedup` for the full six-scene sweep)");
    Ok(())
}
