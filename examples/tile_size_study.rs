//! Tile-size trade-off study — the paper's motivation (Section III) on a
//! single synthetic scene: sweeping the tile size shows preprocessing and
//! sorting work falling while rasterization work rises, and GS-TG getting
//! the best of both ends.
//!
//! Run with:
//! ```text
//! cargo run --release --example tile_size_study
//! ```

use gs_tg::prelude::*;
use gs_tg::render::{CostModel, ExecutionModel};

fn main() -> Result<(), RenderError> {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 0);
    let camera = Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::try_from_fov_y(0.9, 640, 360)?,
    )?;
    let model = CostModel::new();

    let mut table = Table::new([
        "configuration",
        "sort keys",
        "gaussians/pixel",
        "shared %",
        "normalized time",
    ]);

    let mut baseline_16_total = None;
    for tile in [8u32, 16, 32, 64] {
        let config = RenderConfig::try_new(tile, BoundaryMethod::Ellipse)?;
        let mut session = RenderSession::from_config(config);
        let counts = session.render(&scene, &camera).stats.counts;
        let times = model.baseline_times(&counts, BoundaryMethod::Ellipse);
        if tile == 16 {
            baseline_16_total = Some(times.total());
        }
        table.add_row([
            format!("baseline {tile}x{tile}"),
            counts.tile_intersections.to_string(),
            format!("{:.1}", counts.gaussians_per_pixel()),
            format!("{:.1}", session.assignments().shared_fraction() * 100.0),
            format!("{:.3e}", times.total()),
        ]);
    }

    let mut gstg_session = GstgSession::from_config(GstgConfig::paper_default());
    let gstg_counts = gstg_session.render(&scene, &camera).stats.counts;
    let gstg_times = model.gstg_times(
        &gstg_counts,
        BoundaryMethod::Ellipse,
        BoundaryMethod::Ellipse,
        ExecutionModel::AcceleratorOverlapped,
    );
    table.add_row([
        "GS-TG 16+64 (overlapped)".to_string(),
        gstg_counts.tile_intersections.to_string(),
        format!("{:.1}", gstg_counts.gaussians_per_pixel()),
        "-".to_string(),
        format!("{:.3e}", gstg_times.total()),
    ]);
    println!("{}", table.to_markdown());

    if let Some(base) = baseline_16_total {
        println!(
            "GS-TG vs the 16x16 baseline on this view: {:.3}x faster under the analytic cost model",
            base / gstg_times.total()
        );
    }
    println!("Reading: sort keys fall and gaussians/pixel rises as tiles grow; GS-TG keeps the");
    println!("16x16 per-pixel cost while its key count matches the 64x64 configuration.");
    Ok(())
}
