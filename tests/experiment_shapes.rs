//! Integration test: the qualitative shapes of the paper's experiments
//! hold on the synthetic workloads — the trends of Figs. 3/5/7, Table I,
//! and the orderings of Figs. 11/14/15. Absolute values differ from the
//! paper (different substrate, smaller scenes), but who wins and in which
//! direction each curve moves must match.

use gs_tg::prelude::*;
use gs_tg::render::{CostModel, ExecutionModel, RenderConfig, Renderer};

fn camera_for(scene: &Scene, height: u32) -> Camera {
    let aspect = scene.width() as f32 / scene.height() as f32;
    Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(0.95, (height as f32 * aspect) as u32, height),
    )
    .expect("valid pose")
}

/// Fig. 5 / Table I / Fig. 7: tiles-per-Gaussian and shared fraction fall
/// with larger tiles, Gaussians-per-pixel rises.
#[test]
fn tile_size_trends_match_the_motivation_figures() {
    let scene = PaperScene::Train.build(SceneScale::Tiny, 0);
    let camera = camera_for(&scene, 200);

    let mut tiles_per_gaussian = Vec::new();
    let mut shared = Vec::new();
    let mut gaussians_per_pixel = Vec::new();
    for tile in [8u32, 16, 32, 64] {
        let mut session = RenderSession::from_config(
            RenderConfig::try_new(tile, BoundaryMethod::Aabb).expect("valid configuration"),
        );
        let counts = session.render(&scene, &camera).stats.counts;
        tiles_per_gaussian.push(session.assignments().mean_tiles_per_gaussian());
        shared.push(session.assignments().shared_fraction());
        gaussians_per_pixel.push(counts.gaussians_per_pixel());
    }

    for w in tiles_per_gaussian.windows(2) {
        assert!(
            w[0] > w[1],
            "tiles per gaussian must fall with tile size: {tiles_per_gaussian:?}"
        );
    }
    for w in shared.windows(2) {
        assert!(
            w[0] >= w[1],
            "shared fraction must not rise with tile size: {shared:?}"
        );
    }
    for w in gaussians_per_pixel.windows(2) {
        assert!(
            w[0] <= w[1],
            "gaussians per pixel must not fall with tile size: {gaussians_per_pixel:?}"
        );
    }
    // The extreme ratio is substantial, as in Fig. 5 (18.3x) / Fig. 7 (10.6x).
    assert!(tiles_per_gaussian[0] / tiles_per_gaussian[3] > 2.0);
    assert!(gaussians_per_pixel[3] / gaussians_per_pixel[0] > 2.0);
}

/// Fig. 3: preprocessing+sorting cost falls with tile size while
/// rasterization cost rises (under the analytic cost model).
#[test]
fn stage_cost_trade_off_matches_fig3() {
    let scene = PaperScene::Drjohnson.build(SceneScale::Tiny, 0);
    let camera = camera_for(&scene, 200);
    let model = CostModel::new();

    let mut sort_costs = Vec::new();
    let mut raster_costs = Vec::new();
    for tile in [8u32, 16, 32, 64] {
        let renderer = Renderer::new(
            RenderConfig::try_new(tile, BoundaryMethod::Aabb).expect("valid configuration"),
        );
        let output = renderer.render(&scene, &camera);
        let times = model.baseline_times(&output.stats.counts, BoundaryMethod::Aabb);
        sort_costs.push(times.sort);
        raster_costs.push(times.raster);
    }
    assert!(
        sort_costs[0] > sort_costs[3],
        "sorting must shrink with larger tiles"
    );
    assert!(
        raster_costs[3] > raster_costs[0],
        "rasterization must grow with larger tiles"
    );
}

/// Fig. 11 ordering: grouping never loses to the same-tile-size baseline
/// under the overlapped execution model, and larger groups reduce the sort
/// keys further.
#[test]
fn grouping_sweep_orders_as_in_fig11() {
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 0);
    let camera = camera_for(&scene, 200);
    let model = CostModel::new();

    let baseline = Renderer::new(
        RenderConfig::try_new(16, BoundaryMethod::Ellipse).expect("valid configuration"),
    )
    .render(&scene, &camera);
    let baseline_times = model.baseline_times(&baseline.stats.counts, BoundaryMethod::Ellipse);

    let mut previous_keys = u64::MAX;
    for group in [32u32, 64] {
        let config =
            GstgConfig::new(16, group, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let output = GstgRenderer::new(config).render(&scene, &camera);
        let times = model.gstg_times(
            &output.stats.counts,
            BoundaryMethod::Ellipse,
            BoundaryMethod::Ellipse,
            ExecutionModel::AcceleratorOverlapped,
        );
        // The paper's Fig. 11 shows some combinations dipping slightly
        // below 1.0 on some scenes; require the selected 16+64 point to win
        // outright and any other combination to stay within a few percent.
        let tolerance = if group == 64 { 1.0 } else { 1.05 };
        assert!(
            times.total() <= baseline_times.total() * tolerance,
            "16+{group} is more than {tolerance}x the 16x16 baseline"
        );
        assert!(
            output.stats.counts.tile_intersections < previous_keys,
            "larger groups must produce fewer sort keys"
        );
        previous_keys = output.stats.counts.tile_intersections;
    }
}

/// Figs. 14/15 ordering on the accelerator model: GS-TG is at least as fast
/// and at least as energy-efficient as the baseline, and the baseline is
/// not slower than the OBB-based GSCore model.
#[test]
fn accelerator_orderings_match_fig14_and_fig15() {
    let sim = Simulator::new(AccelConfig::paper());
    for scene_id in [PaperScene::Train, PaperScene::Residence] {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        let camera = camera_for(&scene, 180);
        let baseline = sim.simulate(&scene, &camera, &PipelineVariant::baseline_paper());
        let gscore = sim.simulate(&scene, &camera, &PipelineVariant::gscore_paper());
        let gstg = sim.simulate(&scene, &camera, &PipelineVariant::gstg_paper());

        assert!(
            gstg.speedup_over(&baseline) >= 1.0,
            "{}: GS-TG slower than baseline",
            scene_id.name()
        );
        assert!(
            gstg.speedup_over(&gscore) >= 1.0,
            "{}: GS-TG slower than GSCore",
            scene_id.name()
        );
        assert!(
            gscore.total_cycles >= baseline.total_cycles,
            "{}: GSCore faster than ellipse baseline",
            scene_id.name()
        );
        assert!(
            gstg.energy_efficiency_over(&baseline) >= 1.0,
            "{}: GS-TG less energy-efficient than baseline",
            scene_id.name()
        );
        assert!(
            gstg.traffic.total_bytes() < baseline.traffic.total_bytes(),
            "{}: GS-TG must reduce DRAM traffic",
            scene_id.name()
        );
    }
}

/// Speedups reported by the comparison machinery are internally consistent
/// (geomean between min and max across scenes).
#[test]
fn comparison_report_geomean_is_consistent() {
    let sim = Simulator::new(AccelConfig::paper());
    let mut comparison = gs_tg::accel::ComparisonReport::new(["baseline", "gstg"]);
    let mut speedups = Vec::new();
    for scene_id in [PaperScene::Truck, PaperScene::Playroom] {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        let camera = camera_for(&scene, 160);
        let baseline = sim.simulate(&scene, &camera, &PipelineVariant::baseline_paper());
        let gstg = sim.simulate(&scene, &camera, &PipelineVariant::gstg_paper());
        let s = gstg.speedup_over(&baseline);
        speedups.push(s);
        comparison.add_scene(scene_id.name(), vec![1.0, s]);
    }
    let geo = comparison.geomean().expect("two scenes added")[1];
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(geo >= min - 1e-9 && geo <= max + 1e-9);
}
