//! Shared experiment harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the GS-TG
//! paper. They share the machinery here: the scene set, a proxy camera that
//! scales the paper's output resolution down so a full sweep finishes in
//! minutes on a laptop, and helpers that run the pipelines and convert
//! operation counts into normalized stage times.
//!
//! Resolution and scene size are controlled from the command line:
//!
//! ```text
//! cargo run --release -p splat-bench --bin fig03_runtime_breakdown -- \
//!     --scale small --resolution-divisor 4
//! ```
//!
//! `--scale {tiny|small|medium|paper}` selects the synthetic splat count
//! and `--resolution-divisor N` divides the paper's image resolution by `N`
//! (default 4). Trends are unaffected; absolute operation counts scale with
//! both knobs (see "Reproducing paper figures" in the README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use gstg::GstgConfig;
use splat_core::StageCounts;
use splat_render::{BoundaryMethod, CostModel, ExecutionModel, RenderConfig, Renderer, StageTimes};
use splat_scene::{PaperScene, Scene, SceneScale};
use splat_types::{Camera, CameraIntrinsics, Vec3};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Synthetic scene size.
    pub scale: SceneScale,
    /// Divisor applied to the paper's output resolution.
    pub resolution_divisor: u32,
    /// Seed offset mixed into every scene's deterministic seed.
    pub seed_offset: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: SceneScale::Small,
            resolution_divisor: 4,
            seed_offset: 0,
        }
    }
}

impl HarnessOptions {
    /// Parses options from process arguments. An argument that is not one
    /// of the three flags, or a flag with no value after it, is ignored
    /// with a note on stderr.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument list (used by tests).
    pub(crate) fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::parse_noting(args, &mut |note| eprintln!("{note}"))
    }

    /// [`HarnessOptions::parse`] with the stderr notes handed to `note`.
    fn parse_noting<I, S>(args: I, note: &mut dyn FnMut(String)) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_ref();
            if !matches!(flag, "--scale" | "--resolution-divisor" | "--seed-offset") {
                note(format!("unknown flag `{flag}` ignored"));
                continue;
            }
            let Some(value) = args.next() else {
                note(format!("flag `{flag}` has no value, ignored"));
                break;
            };
            let value = value.as_ref();
            match flag {
                "--scale" => {
                    options.scale = match value.to_lowercase().as_str() {
                        "tiny" => SceneScale::Tiny,
                        "small" => SceneScale::Small,
                        "medium" => SceneScale::Medium,
                        "paper" => SceneScale::Paper,
                        other => {
                            note(format!("unknown scale `{other}`, using small"));
                            SceneScale::Small
                        }
                    };
                }
                "--resolution-divisor" => {
                    options.resolution_divisor = value.parse().unwrap_or(4).max(1);
                }
                // The gate above leaves only `--seed-offset`.
                _ => options.seed_offset = value.parse().unwrap_or(0),
            }
        }
        options
    }

    /// Builds the synthetic scene for a paper scene at the configured
    /// scale.
    pub fn scene(&self, scene: PaperScene) -> Scene {
        scene.build(self.scale, self.seed_offset)
    }

    /// The evaluation camera for a scene: the paper's field of view at the
    /// paper's resolution divided by `resolution_divisor`.
    pub fn camera(&self, scene: PaperScene) -> Camera {
        let full = scene.default_camera();
        let (w, h) = scene.resolution();
        let divisor = self.resolution_divisor.max(1);
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(
                full.intrinsics().fov_y(),
                (w / divisor).max(64),
                (h / divisor).max(64),
            ),
        )
    }

    /// Human-readable description of the workload configuration, printed
    /// at the top of every experiment's output.
    pub fn describe(&self) -> String {
        format!(
            "scale={:?}, resolution divisor={}, seed offset={}",
            self.scale, self.resolution_divisor, self.seed_offset
        )
    }
}

/// Result of running one pipeline configuration over one scene/view.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Operation counts of the frame.
    pub counts: StageCounts,
    /// Normalized stage times from the analytic cost model.
    pub times: StageTimes,
}

/// Runs the conventional baseline pipeline and converts its counts into
/// normalized stage times.
pub fn run_baseline(
    scene: &Scene,
    camera: &Camera,
    tile_size: u32,
    boundary: BoundaryMethod,
) -> PipelineRun {
    let renderer = Renderer::new(RenderConfig::new(tile_size, boundary));
    let output = renderer.render(scene, camera);
    let times = CostModel::new().baseline_times(&output.stats.counts, boundary);
    PipelineRun {
        counts: output.stats.counts,
        times,
    }
}

/// Runs the GS-TG pipeline and converts its counts into normalized stage
/// times under the given schedule
/// ([`ExecutionModel::AcceleratorOverlapped`] hides bitmask generation
/// behind group-wise sorting; [`ExecutionModel::GpuSequential`] pays for it
/// in preprocessing).
pub fn run_gstg(
    scene: &Scene,
    camera: &Camera,
    config: GstgConfig,
    model: ExecutionModel,
) -> PipelineRun {
    let output = gstg::GstgRenderer::new(config).render(scene, camera);
    let times = CostModel::new().gstg_times(
        &output.stats.counts,
        config.group_boundary,
        config.bitmask_boundary,
        model,
    );
    PipelineRun {
        counts: output.stats.counts,
        times,
    }
}

/// The tile sizes swept by the motivation figures (Figs. 3, 5, 7, Table I).
pub const TILE_SIZE_SWEEP: [u32; 4] = [8, 16, 32, 64];

/// The tile+group combinations swept by Fig. 11.
pub const GROUPING_SWEEP: [(u32, u32); 5] = [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_quarter_resolution() {
        let o = HarnessOptions::default();
        assert_eq!(o.scale, SceneScale::Small);
        assert_eq!(o.resolution_divisor, 4);
    }

    #[test]
    fn parse_reads_known_flags_and_ignores_unknown() {
        let o = HarnessOptions::parse([
            "--scale",
            "tiny",
            "--unknown",
            "--resolution-divisor",
            "8",
            "--seed-offset",
            "3",
        ]);
        assert_eq!(o.scale, SceneScale::Tiny);
        assert_eq!(o.resolution_divisor, 8);
        assert_eq!(o.seed_offset, 3);
        assert_eq!(
            o.describe(),
            "scale=Tiny, resolution divisor=8, seed offset=3"
        );
    }

    #[test]
    fn unknown_and_value_less_flags_are_noted_not_swallowed() {
        let mut notes = Vec::new();
        let o = HarnessOptions::parse_noting(
            [
                "--resolution-divisior",
                "2",
                "--scale",
                "bogus",
                "--seed-offset",
            ],
            &mut |note| notes.push(note),
        );
        assert_eq!(o, HarnessOptions::default(), "nothing valid was passed");
        assert_eq!(
            notes,
            [
                "unknown flag `--resolution-divisior` ignored",
                "unknown flag `2` ignored",
                "unknown scale `bogus`, using small",
                "flag `--seed-offset` has no value, ignored",
            ]
        );
        let mut notes = Vec::new();
        HarnessOptions::parse_noting(["--scale", "tiny"], &mut |note| notes.push(note));
        assert!(notes.is_empty(), "{notes:?}");
    }

    #[test]
    fn parse_falls_back_on_bad_values() {
        let o = HarnessOptions::parse(["--scale", "bogus", "--resolution-divisor", "zero"]);
        assert_eq!(o.scale, SceneScale::Small);
        assert_eq!(o.resolution_divisor, 4);
    }

    #[test]
    fn camera_resolution_is_divided() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 4,
            ..HarnessOptions::default()
        };
        let cam = o.camera(PaperScene::Train);
        assert_eq!(cam.width(), 1959 / 4);
        assert_eq!(cam.height(), 1090 / 4);
    }

    #[test]
    fn baseline_and_gstg_runs_produce_consistent_counts() {
        let o = HarnessOptions {
            scale: SceneScale::Tiny,
            resolution_divisor: 8,
            ..HarnessOptions::default()
        };
        let scene = o.scene(PaperScene::Playroom);
        let camera = o.camera(PaperScene::Playroom);
        let baseline = run_baseline(&scene, &camera, 16, BoundaryMethod::Ellipse);
        let grouped = run_gstg(
            &scene,
            &camera,
            GstgConfig::paper_default(),
            ExecutionModel::GpuSequential,
        );
        assert!(baseline.times.total() > 0.0);
        assert!(grouped.times.total() > 0.0);
        assert_eq!(
            baseline.counts.alpha_computations,
            grouped.counts.alpha_computations
        );
    }
}
