//! Lossless verification across scenes, grouping configurations and
//! boundary methods — the paper's "requires no retraining or fine-tuning"
//! claim, checked bit-exactly. Exits non-zero, naming the first lossy
//! configuration, when any image differs.
//!
//! Run with:
//! ```text
//! cargo run --release --example lossless_check
//! ```

use gs_tg::prelude::*;
use gs_tg::tile_grouping::verify_lossless;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let camera_for = |scene: &Scene| {
        let aspect = scene.width() as f32 / scene.height() as f32;
        let height = 360u32;
        Camera::try_look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::try_from_fov_y(0.95, (height as f32 * aspect) as u32, height)?,
        )
    };

    let combos = [(8u32, 16u32), (8, 32), (8, 64), (16, 32), (16, 64)];
    let boundaries = [
        BoundaryMethod::Aabb,
        BoundaryMethod::Obb,
        BoundaryMethod::Ellipse,
    ];

    let mut table = Table::new([
        "scene",
        "tile+group",
        "bitmask boundary",
        "identical",
        "sort reduction",
    ]);
    let mut first_lossy = None;

    for scene_id in [PaperScene::Train, PaperScene::Drjohnson] {
        let scene = scene_id.build(SceneScale::Tiny, 7);
        let camera = camera_for(&scene)?;
        for &(tile, group) in &combos {
            for &boundary in &boundaries {
                let config = GstgConfig::new(tile, group, boundary, boundary)?;
                let report = verify_lossless(&scene, &camera, config);
                if !report.identical && first_lossy.is_none() {
                    first_lossy = Some(format!("{} {tile}+{group} {boundary}", scene_id.name()));
                }
                table.add_row([
                    scene_id.name().to_string(),
                    format!("{tile}+{group}"),
                    boundary.to_string(),
                    report.identical.to_string(),
                    format!("{:.2}x", report.sort_reduction()),
                ]);
            }
        }
    }

    println!("{}", table.to_markdown());
    if let Some(config) = first_lossy {
        return Err(format!("GS-TG changed pixels: first lossy configuration is {config}").into());
    }
    println!(
        "every configuration lossless: true (GS-TG never changes a pixel, it only removes redundant sorting)"
    );
    Ok(())
}
