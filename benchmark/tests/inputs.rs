//! Seed discipline: one `--seed` reproduces every input, another seed
//! changes them, and the views equal what the program's own trajectory
//! constructors produce.

use gstg_benchmark::inputs::{
    burst_priorities, generate, generate_at_phase, Workload, BURST_BANDS, BURST_JOBS, STEADY_RATE,
    STEADY_UPLOADS,
};
use gstg_benchmark::layers::{decode_scene, encode_scene, trajectory_cameras, PRIORITY_COUNT};
use gstg_benchmark::schedule::{poisson_schedule, Seeds};

#[test]
fn the_schedule_is_reproducible_per_seed() {
    let first = poisson_schedule(7, STEADY_RATE, 500);
    assert_eq!(first, poisson_schedule(7, STEADY_RATE, 500));
    assert_ne!(first, poisson_schedule(8, STEADY_RATE, 500));
}

#[test]
fn the_schedule_offers_exactly_the_rate_over_its_span() {
    let count = 720;
    let schedule = poisson_schedule(3, STEADY_RATE, count);
    assert_eq!(schedule.len(), count);
    assert!(schedule.windows(2).all(|pair| pair[0] <= pair[1]));
    let span = count as f64 / STEADY_RATE;
    assert!(schedule.iter().all(|due| (0.0..span).contains(due)));
    // Poisson arrivals clump: the gaps are far from uniform.
    let gaps: Vec<f64> = schedule.windows(2).map(|pair| pair[1] - pair[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let longest = gaps.iter().copied().fold(0.0, f64::max);
    assert!(longest > 3.0 * mean, "longest gap {longest}, mean {mean}");
}

#[test]
fn sub_seeds_are_reproducible_per_seed() {
    let (mut a, mut b, mut c) = (Seeds::new(1), Seeds::new(1), Seeds::new(2));
    let first = a.next_seed();
    assert_eq!(first, b.next_seed());
    assert_ne!(first, a.next_seed());
    assert_ne!(first, c.next_seed());
    assert!((0.0..1.0).contains(&a.unit()));
}

#[test]
fn burst_priorities_are_a_seeded_shuffle_within_each_admission_band() {
    assert_eq!(
        BURST_BANDS.iter().map(|band| band.len()).sum::<usize>(),
        BURST_JOBS
    );
    assert_eq!(burst_priorities(5), burst_priorities(5));
    assert_ne!(burst_priorities(5), burst_priorities(6));
    let classes = burst_priorities(5);
    let mut start = 0;
    for band in BURST_BANDS {
        let mut drawn = classes[start..start + band.len()].to_vec();
        drawn.sort_unstable();
        assert_eq!(drawn, band.to_vec());
        start += band.len();
    }
    assert!(classes.iter().all(|class| *class < PRIORITY_COUNT));
    // Half the jobs are of the two highest classes: exactly the 16 an
    // 8-deep queue extended by the quality ladder can hold.
    assert_eq!(classes.iter().filter(|class| **class >= 2).count(), 16);
}

#[test]
fn a_seed_reproduces_the_inputs_and_another_seed_changes_them() {
    for workload in [
        Workload::EngineBurst,
        Workload::OrbitRaster,
        Workload::ServeThin,
    ] {
        let first = generate(workload, 11);
        let again = generate(workload, 11);
        let other = generate(workload, 12);
        assert_eq!(first.views, again.views);
        assert_ne!(first.views, other.views, "{}", workload.name());
        assert_eq!(first.burst, again.burst);
        assert_eq!(first.schedule_seed, again.schedule_seed);
    }
    let first = generate(Workload::EngineBurst, 11);
    assert_eq!(first.burst.len(), BURST_JOBS);
    assert_ne!(first.burst, generate(Workload::EngineBurst, 12).burst);
    assert_ne!(
        generate(Workload::ServeSteady, 11).schedule_seed,
        generate(Workload::ServeSteady, 12).schedule_seed
    );
}

#[test]
fn the_dataset_is_pinned() {
    let bytes = |seed: u64| -> Vec<Vec<u8>> {
        generate(Workload::EngineBurst, seed)
            .scenes
            .iter()
            .map(|scene| encode_scene(scene))
            .collect()
    };
    assert!(bytes(1) == bytes(2));
    let thin = generate(Workload::ServeThin, 4);
    assert!(thin.uploads == generate(Workload::ServeThin, 5).uploads);
    assert_eq!(thin.uploads.len(), 1);
    assert_eq!(thin.scenes.len(), 1);
    assert_eq!(thin.views.len(), 8);
    // The rendered scene is what the codec decodes the upload to (which
    // is not what was encoded: the round trip is not the identity).
    let decoded = decode_scene(&thin.uploads[0]).expect("the upload decodes");
    assert!(encode_scene(&decoded) == encode_scene(&thin.scenes[0]));
}

#[test]
fn serve_steady_uploads_all_its_scenes_and_renders_the_last_two() {
    // 200-splat stand-ins would do, but the real inputs are cheap enough.
    let inputs = generate(Workload::ServeSteady, 9);
    assert_eq!(inputs.uploads.len(), STEADY_UPLOADS);
    assert_eq!(inputs.scenes.len(), 2);
    assert_eq!(inputs.views.len(), 16);
    for (scene, upload) in inputs
        .scenes
        .iter()
        .zip(&inputs.uploads[STEADY_UPLOADS - 2..])
    {
        let decoded = decode_scene(upload).expect("the upload decodes");
        assert!(encode_scene(&decoded) == encode_scene(scene));
    }
    let mut distinct = inputs.uploads.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), STEADY_UPLOADS);
}

#[test]
fn orbit_views_at_phase_zero_equal_the_programs_trajectories() {
    for workload in [Workload::OrbitRaster, Workload::OrbitFrontend] {
        // At phase 0; `--seed` only moves the start along the same path.
        let inputs = generate_at_phase(workload, 1, Some(0.0));
        let views: Vec<_> = inputs.views.iter().map(|(_, view)| *view).collect();
        assert_eq!(views.len(), 24);
        let kind = inputs
            .trajectory
            .expect("orbit workloads name their trajectory");
        let cameras = trajectory_cameras(kind, &views);
        assert_eq!(cameras.len(), views.len());
        for (view, camera) in views.iter().zip(&cameras) {
            assert_eq!(view.camera(), *camera, "{}", workload.name());
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
    assert_eq!(Workload::from_name("no-such-workload"), None);
}
