//! The five workloads and the inputs each is made of; the program under
//! test only ever sees these generated scenes, views, schedules and
//! priorities.
//!
//! A workload's scenes are its *dataset*: pinned, like the paper's playroom
//! and truck, so that every seed asks for the same amount of work. What
//! `--seed` drives is what differs between two runs of a deployment — where
//! on its path the camera starts (a phase offset, so every seed renders
//! different frames of the same path), the arrival schedule, and the
//! burst's views and priorities. Scenes drawn per seed were tried first:
//! one 12k-splat scene differs from the next by 9 % in frame time (a
//! 200-splat one by 15 %), which is more than the bounds this benchmark
//! is there to enforce.

use std::sync::Arc;

use crate::layers::{
    decode_scene, encode_scene, synth_scene, Rng, Scene, SceneKind, TrajectoryKind, View,
};
use crate::schedule::Seeds;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OrbitRaster,
    OrbitFrontend,
    ServeSteady,
    ServeThin,
    EngineBurst,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OrbitRaster,
        Workload::OrbitFrontend,
        Workload::ServeSteady,
        Workload::ServeThin,
        Workload::EngineBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OrbitRaster => "orbit-raster",
            Workload::OrbitFrontend => "orbit-frontend",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeThin => "serve-thin",
            Workload::EngineBurst => "engine-burst",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Views per scene on every workload's cycle.
pub const ORBIT_VIEWS: usize = 24;
pub const SERVE_VIEWS: usize = 8;

/// `serve-steady` uploads this many distinct scenes through `POST /scenes`
/// into a registry that keeps [`MAX_RESIDENT_SCENES`]; the last
/// [`READ_SCENES`] are the ones rendered.
pub const STEADY_UPLOADS: usize = 24;
pub const MAX_RESIDENT_SCENES: usize = 4;
pub const READ_SCENES: usize = 2;

/// Offered load of `serve-steady`, requests per second. One engine worker
/// sustains 45 to 75 of these renders a second depending on how fast the
/// (shared) box currently is, so this is a utilisation of 0.3 to 0.5: high
/// enough that requests queue, low enough that a slow spell of the host
/// does not push the queue into its steep part.
pub const STEADY_RATE: f64 = 24.0;
/// A `serve-steady` response counts as good when it is a full-quality,
/// digest-correct `200` within this many milliseconds of its due instant.
pub const STEADY_LIMIT_MS: f64 = 100.0;

/// `engine-burst`: jobs per burst (twice the extended queue bound) and the
/// shedding queue's capacity.
pub const BURST_JOBS: usize = 32;
pub const BURST_CAPACITY: usize = 8;

/// The burst's priority classes by admission band. A job's quality tier is
/// set by the queue depth it is admitted at (`degrade_default()` over a
/// capacity of [`BURST_CAPACITY`]): the first 4 submissions are admitted at
/// full quality, the next 2 at t1, the next 2 at t2, the next 8 at t3, and
/// the last 16 meet a full queue. `--seed` shuffles the classes *within*
/// each band. The 16 jobs of the two highest classes always survive, so
/// every seed serves the same tier mix (2 full, 1 t1, 1 t2, 12 t3) and the
/// same amount of work, while which jobs are shed from the queue, which
/// are refused at the door and which views are served differ.
pub const BURST_BANDS: [&[usize]; 5] = [
    &[0, 1, 2, 3],
    &[0, 2],
    &[1, 3],
    &[0, 0, 1, 1, 2, 2, 3, 3],
    &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
];

/// One priority class per job: [`BURST_BANDS`], each band shuffled.
pub fn burst_priorities(seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut classes = Vec::with_capacity(BURST_JOBS);
    for band in BURST_BANDS {
        let mut band = band.to_vec();
        for last in (1..band.len()).rev() {
            band.swap(last, rng.gen_index(last + 1));
        }
        classes.extend(band);
    }
    classes
}

/// What a workload renders: its scenes and the cycle of `(scene, view)`
/// operations it repeats.
pub struct Inputs {
    /// The scenes that are rendered.
    pub scenes: Vec<Arc<Scene>>,
    /// The operation cycle: `(index into scenes, view)`.
    pub views: Vec<(usize, View)>,
    /// Wire workloads only: the `.splat` bytes uploaded through
    /// `POST /scenes`, in upload order. The last `scenes.len()` of them are
    /// the rendered scenes — `scenes` then holds what the codec decodes
    /// them to, which is what the server renders — and on `serve-steady`
    /// the ones before are evicted again by the registry.
    pub uploads: Vec<Vec<u8>>,
    /// Seed of the open-loop arrival schedule.
    pub schedule_seed: u64,
    /// `engine-burst` only: `(index into views, priority class)` per job.
    pub burst: Vec<(usize, usize)>,
    /// The program's trajectory constructor the views must equal, if any.
    pub trajectory: Option<TrajectoryKind>,
}

/// `CameraTrajectory::lateral_sweep` shifted `phase` steps along the sweep.
fn lateral_sweep(
    phase: f32,
    extent: f32,
    focus: f32,
    fov_y: f32,
    width: u32,
    height: u32,
) -> Vec<View> {
    (0..ORBIT_VIEWS)
        .map(|i| {
            let t = (i as f32 + phase) / (ORBIT_VIEWS - 1) as f32;
            let x = (t * 2.0 - 1.0) * extent;
            View {
                eye: [x, 0.0, 0.0],
                target: [x * 0.3, 0.0, focus],
                fov_y,
                width,
                height,
            }
        })
        .collect()
}

/// `CameraTrajectory::orbit` turned `phase` steps around the circle.
#[allow(clippy::too_many_arguments)]
fn orbit(
    phase: f32,
    count: usize,
    center: [f32; 3],
    radius: f32,
    height: f32,
    fov_y: f32,
    width: u32,
    pixel_height: u32,
) -> Vec<View> {
    (0..count)
        .map(|i| {
            let angle = std::f32::consts::TAU * (i as f32 + phase) / count as f32;
            View {
                eye: [
                    center[0] + radius * angle.cos(),
                    center[1] + height,
                    center[2] + radius * angle.sin(),
                ],
                target: center,
                fov_y,
                width,
                height: pixel_height,
            }
        })
        .collect()
}

/// `SERVE_VIEWS` orbit views around the generic scene's cluster centre for
/// each of `scenes` scenes (a little higher for each next scene).
fn serve_views(phase: f32, scenes: usize, width: u32, height: u32) -> Vec<(usize, View)> {
    (0..scenes)
        .flat_map(|scene| {
            let elevation = 0.6 + 0.15 * scene as f32;
            let center = [0.0, 0.0, 6.0];
            orbit(
                phase,
                SERVE_VIEWS,
                center,
                4.0,
                elevation,
                0.9,
                width,
                height,
            )
            .into_iter()
            .map(move |view| (scene, view))
        })
        .collect()
}

/// The pinned generic dataset: scene `i` is `SynthProfile::default()` drawn
/// with seed `i + 1`.
fn generic_scenes(count: usize, splats: usize, w: u32, h: u32) -> Vec<Scene> {
    (0..count)
        .map(|index| synth_scene(SceneKind::Generic(index as u64 + 1), splats, w, h))
        .collect()
}

/// Encodes `count` generic scenes for upload and keeps the decoded form of
/// the last `rendered` as the scenes the reference renders.
fn uploaded_scenes(
    inputs: &mut Inputs,
    count: usize,
    rendered: usize,
    splats: usize,
    (w, h): (u32, u32),
) {
    inputs.uploads = generic_scenes(count, splats, w, h)
        .iter()
        .map(encode_scene)
        .collect();
    inputs.scenes = inputs.uploads[count - rendered..]
        .iter()
        .filter_map(|bytes| decode_scene(bytes))
        .map(Arc::new)
        .collect();
}

/// Builds a workload's inputs: the pinned dataset, and from `--seed` the
/// camera phase, the schedule seed and the burst.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    generate_at_phase(workload, seed, None)
}

/// [`generate`] with the camera phase given instead of drawn (`Some(0.0)`
/// yields exactly the program's own trajectories).
pub fn generate_at_phase(workload: Workload, seed: u64, phase: Option<f32>) -> Inputs {
    let mut seeds = Seeds::new(seed);
    let drawn = seeds.unit();
    let phase = phase.unwrap_or(drawn);
    let mut inputs = Inputs {
        scenes: Vec::new(),
        views: Vec::new(),
        uploads: Vec::new(),
        schedule_seed: 0,
        burst: Vec::new(),
        trajectory: None,
    };
    match workload {
        Workload::OrbitRaster => {
            let (w, h) = (256, 160);
            inputs.scenes = vec![Arc::new(synth_scene(SceneKind::Playroom, 12_000, w, h))];
            inputs.views = lateral_sweep(phase, 1.5, 6.0, 1.05, w, h)
                .into_iter()
                .map(|view| (0, view))
                .collect();
            inputs.trajectory = Some(TrajectoryKind::LateralSweep {
                lateral_extent: 1.5,
                focus_depth: 6.0,
            });
        }
        Workload::OrbitFrontend => {
            let (w, h) = (96, 64);
            inputs.scenes = vec![Arc::new(synth_scene(SceneKind::Truck, 80_000, w, h))];
            let center = [0.0, 0.0, 16.0];
            inputs.views = orbit(phase, ORBIT_VIEWS, center, 10.0, 1.0, 0.6, w, h)
                .into_iter()
                .map(|view| (0, view))
                .collect();
            inputs.trajectory = Some(TrajectoryKind::Orbit {
                center,
                radius: 10.0,
                height: 1.0,
            });
        }
        Workload::ServeSteady => {
            let (w, h) = (128, 96);
            uploaded_scenes(&mut inputs, STEADY_UPLOADS, READ_SCENES, 8_000, (w, h));
            inputs.views = serve_views(phase, READ_SCENES, w, h);
            inputs.schedule_seed = seeds.next_seed();
        }
        Workload::ServeThin => {
            let (w, h) = (320, 240);
            uploaded_scenes(&mut inputs, 1, 1, 200, (w, h));
            inputs.views = serve_views(phase, 1, w, h);
        }
        Workload::EngineBurst => {
            let (w, h) = (128, 96);
            // The two scenes `serve-steady` renders.
            inputs.scenes = generic_scenes(STEADY_UPLOADS, 8_000, w, h)
                .split_off(STEADY_UPLOADS - READ_SCENES)
                .into_iter()
                .map(Arc::new)
                .collect();
            inputs.views = serve_views(phase, READ_SCENES, w, h);
            let first_view = seeds.next_seed() as usize % inputs.views.len();
            inputs.burst = burst_priorities(seeds.next_seed())
                .into_iter()
                .enumerate()
                .map(|(job, class)| ((first_view + job) % inputs.views.len(), class))
                .collect();
        }
    }
    inputs
}
