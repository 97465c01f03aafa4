//! Counter reconciliation: every `StageCounts`, `EngineStats` and
//! `ServerStats` field is tied to a declared bookkeeping identity
//! (`identities()`, asserted here on real render / serving runs) or to an
//! explicit bound, so no counter can silently drift or rot.
//! `every_counter_moves_an_identity_or_is_bound_checked` walks the three
//! `FIELDS` tables, so adding a counter without deciding which of the two
//! it is fails this file.

use gs_tg::prelude::*;
use gs_tg::types::rng::Rng;
use std::sync::Arc;

/// Asserts every identity of an `identities()` table, naming the one that
/// fails.
fn assert_identities<const N: usize>(identities: [(&'static str, u64, u64); N], context: &str) {
    for (identity, left, right) in identities {
        assert_eq!(left, right, "{context}: {identity}");
    }
}

fn camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, width, height),
    )
}

fn render_counts(config: RenderConfig, scene: &Scene, cam: &Camera) -> StageCounts {
    Renderer::new(config).render(scene, cam).stats.counts
}

/// Every preprocessing / identification / sort / raster counter of the
/// baseline pipeline reconciles against the documented identities.
#[test]
fn baseline_stage_counts_reconcile() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 3);
    let cam = camera(160, 120);
    let config = RenderConfig::try_new(16, BoundaryMethod::Ellipse).expect("valid configuration");
    let c = render_counts(config, &scene, &cam);

    // Preprocess: every submitted splat is either culled or visible.
    assert_eq!(c.input_gaussians, scene.len() as u64);
    assert_identities(c.identities(), "baseline");
    assert!(c.visible_gaussians > 0);

    // Identification: with per-tile lists every accepted candidate is one
    // sorting key, every test is one boundary test, and the prepass never
    // accepts more than it tested.
    assert_eq!(c.tiles_hit, c.tile_intersections);
    assert!(c.tile_tests > 0);
    assert_eq!(c.tiles_tested, c.tile_tests);
    assert!(c.tiles_tested >= c.tiles_hit);
    assert_eq!(c.prepass_overcount_trimmed, 0, "nothing increments it");
    assert_eq!(c.bitmask_tests, 0, "baseline pipeline has no bitmasks");
    assert_eq!(c.bitmask_filter_ops, 0, "baseline pipeline has no bitmasks");

    // Sort: only lists of length >= 2 contribute keys, the modeled
    // n·⌈log₂ n⌉ comparison bound dominates the key count, and a sorted
    // key implies at least one radix digit pass.
    assert!(c.sort_keys <= c.tile_intersections);
    assert!(c.sort_comparisons >= c.sort_keys);
    assert!(c.radix_passes > 0);

    // Raster: one shaded pixel per framebuffer slot, a blend requires an
    // α-computation first, and an early exit requires a pixel.
    assert_eq!(c.pixels, 160 * 120);
    assert!(c.alpha_computations >= c.blend_operations);
    assert!(c.blend_operations > 0);
    assert!(c.early_exits <= c.pixels);

    // Span-walk counters are exactly zero in `SpanMode::Full`.
    assert_eq!(c.span_rows_built, 0);
    assert_eq!(c.span_skipped_alpha, 0);
    assert_eq!(c.tile_saturation_exits, 0);
}

/// Span-walk rasterization skips α-computations but must account for every
/// one of them: full = span + skipped, with identical blends and pixels.
#[test]
fn span_walk_alpha_accounting_reconciles() {
    let scene = PaperScene::Train.build(SceneScale::Tiny, 9);
    let cam = camera(128, 96);
    let base = RenderConfig::try_new(16, BoundaryMethod::Ellipse).expect("valid configuration");
    let full = render_counts(base.with_span(SpanMode::Full), &scene, &cam);
    let span = render_counts(base.with_span(SpanMode::RowSpans), &scene, &cam);
    assert_eq!(
        full.alpha_computations,
        span.alpha_computations + span.span_skipped_alpha
    );
    assert_eq!(full.blend_operations, span.blend_operations);
    assert_eq!(full.early_exits, span.early_exits);
    assert_eq!(full.pixels, span.pixels);
    assert!(span.span_rows_built > 0);
    assert!(span.tile_saturation_exits <= span.tiles_hit);
}

/// The GS-TG pipeline exercises the bitmask counters the baseline leaves
/// at zero, with the same bookkeeping shape.
#[test]
fn gstg_bitmask_counters_reconcile() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 3);
    let cam = camera(160, 120);
    let out = GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &cam);
    let c = out.stats.counts;
    assert_identities(c.identities(), "gstg");
    assert!(
        c.bitmask_tests > 0,
        "GS-TG tests small tiles through bitmasks"
    );
    assert!(
        c.bitmask_filter_ops > 0,
        "GS-TG rasterization front-end filters through bitmasks"
    );
    // GS-TG counts hits at small-tile granularity inside each hit group,
    // so tiles_hit can exceed the per-group intersection-list length but
    // never the number of small-tile tests.
    assert!(c.tiles_hit >= c.tile_intersections);
    assert!(c.tiles_hit <= c.tiles_tested);
    assert_eq!(c.tiles_tested, c.bitmask_tests);
}

/// Engine serving counters reconcile after a drain: every declared
/// identity (jobs, quality split, scenes) plus the exact values.
#[test]
fn engine_stats_reconcile_after_drain() {
    let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 7));
    let engine = Engine::builder()
        .admission(AdmissionPolicy::Block)
        .build()
        .expect("valid engine configuration");

    let id = engine
        .register_scene(Arc::clone(&scene))
        .expect("registered");
    let cam = camera(96, 64);
    let handles: Vec<JobHandle> = (0..4)
        .map(|_| {
            engine
                .submit(SubmitRequest::new(id, cam))
                .expect("blocking admission admits")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("render succeeds");
    }

    let stats = engine.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.queued, 0, "drained queue is empty");
    assert_eq!(stats.active, 0, "no job still rendering after wait()");
    assert_eq!(stats.shed, 0);
    assert_identities(stats.identities(), "drained");
    assert!(stats.queue_high_water >= 1, "jobs passed through the queue");
    assert_eq!(stats.scene_hits, 4, "one recency touch per admitted job");
    assert_eq!(stats.scene_misses, 0);

    // Quality timescale: a FullOnly engine serves everything at full
    // quality.
    assert_eq!(stats.full_quality, 4);
    assert_eq!(stats.degraded, 0);

    // Scene timescale: the identities hold before and after an explicit
    // eviction; resident bytes track the scene footprints.
    assert_eq!(stats.registered, 1);
    assert_eq!(stats.resident_scenes, 1);
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.resident_bytes, scene.footprint_bytes());
    engine.evict_scene(id).expect("scene is resident");
    let after = engine.stats();
    assert_eq!(after.evicted, 1);
    assert_eq!(after.resident_scenes, 0);
    assert_eq!(after.resident_bytes, 0);
    assert_identities(after.identities(), "after eviction");
}

/// The quality ladder under pressure: a paused engine loaded to twice the
/// shed capacity admits the nominal band at full quality and the extended
/// band at deterministic degraded tiers, sheds the rest, and reconciles
/// every declared identity — while rejecting strictly fewer jobs than a
/// `FullOnly` twin fed the identical burst.
#[test]
fn quality_ladder_counters_reconcile_under_pressure() {
    let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 7));
    let cam = camera(64, 48);
    let burst = |quality: QualityPolicy| {
        let engine = Engine::builder()
            .admission(AdmissionPolicy::ShedLowPriority { capacity: 4 })
            .quality(quality)
            .build()
            .expect("valid engine configuration");
        engine.pause();
        let id = engine
            .register_scene(Arc::clone(&scene))
            .expect("valid scene registers");
        // Sixteen submissions against the paused queue: depths — and
        // therefore tiers — are a pure function of the arrival index.
        let handles: Vec<JobHandle> = (0..16)
            .filter_map(|_| engine.submit(SubmitRequest::new(id, cam)).ok())
            .collect();
        engine.resume();
        let admitted = handles.len();
        for handle in handles {
            handle.wait().expect("admitted job completes");
        }
        (admitted, engine.stats())
    };

    let (admitted, stats) = burst(QualityPolicy::degrade_default());
    // Nominal band [0, 4) at depths 0..4: 0% and 25% stay Full, 50% is
    // Tier1, 75% is Tier2; the extension band [4, 8) is all Tier3.
    assert_eq!(admitted, 8, "2x capacity admitted under the ladder");
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.rejected, 8);
    assert_eq!(stats.full_quality, 2);
    assert_eq!(stats.degraded, 6);
    assert_eq!(stats.degraded_t1, 1);
    assert_eq!(stats.degraded_t2, 1);
    assert_eq!(stats.degraded_t3, 4);
    assert_eq!(
        stats.shed, 0,
        "one priority class: the newcomer always loses"
    );
    assert_identities(stats.identities(), "ladder burst");

    let (full_admitted, full_stats) = burst(QualityPolicy::FullOnly);
    assert_eq!(full_admitted, 4, "FullOnly keeps the nominal bound");
    assert_eq!(full_stats.rejected, 12);
    assert_eq!(full_stats.degraded, 0);
    assert!(
        stats.rejected < full_stats.rejected,
        "degrading before shedding must reject strictly fewer jobs"
    );
}

/// The job identity `submitted == completed + cancelled + shed + queued +
/// active` on the `engine-burst` shape — 32 jobs with seeded mixed
/// priorities into a paused 8-deep shedding queue with the quality ladder —
/// at three points: staged, after a partial drain, and fully drained. A
/// shed victim was `submitted` first and is in `rejected` too; without
/// `shed` no snapshot could tell it from a refusal at the door.
#[test]
fn job_identity_holds_while_a_shedding_queue_deflates_and_drains() {
    let scene = Arc::new(PaperScene::Train.build(SceneScale::Tiny, 7));
    let cam = camera(64, 48);
    let engine = Engine::builder()
        .workers(2)
        .admission(AdmissionPolicy::ShedLowPriority { capacity: 8 })
        .quality(QualityPolicy::degrade_default())
        .build()
        .expect("valid engine configuration");
    engine.pause();
    let id = engine.register_scene(scene).expect("valid scene registers");
    let mut rng = Rng::seed_from_u64(15);
    let submissions: Vec<Result<JobHandle, RenderError>> = (0..32)
        .map(|_| {
            let priority = Priority::ALL[rng.gen_index(Priority::ALL.len())];
            engine.submit(SubmitRequest::new(id, cam).with_priority(priority))
        })
        .collect();
    let refused_at_the_door = submissions.iter().filter(|s| s.is_err()).count() as u64;

    let staged = engine.stats();
    assert_identities(staged.identities(), "staged");
    assert_eq!(staged.queued, 16, "the ladder doubles the 8-deep bound");
    assert_eq!((staged.completed, staged.active), (0, 0), "still paused");
    assert!(
        staged.shed > 0,
        "a later, higher class deflates a queued job"
    );
    assert_eq!(staged.rejected, staged.shed + refused_at_the_door);
    assert!(
        refused_at_the_door > 0,
        "a later, lower class is turned away"
    );
    assert_eq!(staged.submitted + refused_at_the_door, 32);

    // Partial drain: let the workers start, stop dispatch again and wait
    // for the renders in progress; the books balance at every snapshot on
    // the way, whatever the workers are doing.
    engine.resume();
    while engine.stats().completed == 0 {
        std::thread::yield_now();
    }
    engine.pause();
    let partial = loop {
        let stats = engine.stats();
        assert_identities(stats.identities(), "draining");
        if stats.active == 0 {
            break stats;
        }
        std::thread::yield_now();
    };
    assert!(partial.completed > 0);
    assert_eq!(
        partial.shed, staged.shed,
        "nothing arrives during the drain"
    );

    engine.resume();
    let mut shed_seen = 0;
    for handle in submissions.into_iter().flatten() {
        match handle.wait() {
            Ok(_) => {}
            Err(RenderError::Overloaded { .. }) => shed_seen += 1,
            Err(other) => panic!("unexpected outcome: {other}"),
        }
    }
    let drained = engine.stats();
    assert_identities(drained.identities(), "drained");
    assert_eq!(drained.in_flight(), 0);
    assert_eq!(
        drained.shed, shed_seen,
        "every victim's handle saw Overloaded"
    );
    assert_eq!(drained.completed, 16);
}

/// Counters that no declared identity constrains; each is pinned to an
/// exact value or a bound by the named test instead.
const BOUND_CHECKED: &[&str] = &[
    // `StageCounts`: `baseline_stage_counts_reconcile`,
    // `gstg_bitmask_counters_reconcile`, `span_walk_alpha_accounting_reconciles`.
    "tile_tests",
    "tile_intersections",
    "tiles_tested",
    "tiles_hit",
    "prepass_overcount_trimmed",
    "bitmask_tests",
    "sort_comparisons",
    "sort_keys",
    "radix_passes",
    "bitmask_filter_ops",
    "alpha_computations",
    "blend_operations",
    "early_exits",
    "pixels",
    "span_rows_built",
    "span_skipped_alpha",
    "tile_saturation_exits",
    // `EngineStats`: `engine_stats_reconcile_after_drain`,
    // `job_identity_holds_while_a_shedding_queue_deflates_and_drains`.
    "rejected",
    "queue_high_water",
    "scene_hits",
    "scene_misses",
    "resident_bytes",
    // `ServerStats`: `tests/server_e2e.rs` pins these against the engine
    // and the bytes the client saw.
    "accepted",
    "refused_connections",
    "active_connections",
    "frames_streamed",
    "bytes_in",
    "bytes_out",
];

/// The fields of one counter struct that neither move a declared identity
/// (set alone to 1, some identity's sides leave zero) nor are listed in
/// [`BOUND_CHECKED`], plus the listed names this struct used up.
fn unaccounted<const N: usize, const M: usize>(
    fields: [&'static str; N],
    identities: impl Fn([u64; N]) -> [(&'static str, u64, u64); M],
    listed: &mut Vec<&'static str>,
) -> Vec<&'static str> {
    let mut missing = Vec::new();
    for (index, field) in fields.into_iter().enumerate() {
        let mut unit = [0; N];
        unit[index] = 1;
        let moves_an_identity = identities(unit).iter().any(|&(_, l, r)| (l, r) != (0, 0));
        match (moves_an_identity, BOUND_CHECKED.contains(&field)) {
            (true, false) => {}
            (false, true) => listed.push(field),
            (true, true) => panic!("`{field}` is in an identity; drop it from BOUND_CHECKED"),
            (false, false) => missing.push(field),
        }
    }
    missing
}

/// Replaces the third leg of the deleted `counter-coverage` lint: a counter
/// added to any of the three structs fails here until it joins a declared
/// identity or `BOUND_CHECKED` (with a test that pins it), and the list
/// cannot keep a name that no longer exists.
#[test]
fn every_counter_moves_an_identity_or_is_bound_checked() {
    let mut listed = Vec::new();
    let mut missing = unaccounted(
        StageCounts::FIELDS,
        |v| StageCounts::from(v).identities(),
        &mut listed,
    );
    missing.extend(unaccounted(
        EngineStats::FIELDS,
        |v| EngineStats::from(v).identities(),
        &mut listed,
    ));
    missing.extend(unaccounted(
        ServerStats::FIELDS,
        |v| ServerStats::from(v).identities(),
        &mut listed,
    ));
    assert_eq!(missing, Vec::<&str>::new(), "counters nobody checks");
    assert_eq!(
        listed, BOUND_CHECKED,
        "stale or reordered BOUND_CHECKED entry"
    );
}

/// The scenario the deleted `counter-coverage` rule policed, on what
/// replaced it: a counter added to a `counters!` struct cannot miss the
/// JSON or `Display` surface (both are generated from the field list), and
/// one that no declared identity constrains is found from `FIELDS` and
/// `identities()` alone — the walk `every_counter_moves_an_identity_or_is_bound_checked`
/// runs over the three live structs.
#[test]
fn an_uncovered_scratch_counter_field_fails_the_check() {
    splat_types::counters! {
        /// Scratch counters.
        #[derive(Clone, Copy)]
        struct Scratch {
            /// Started.
            ops: u64,
            /// Finished.
            done: u64,
            /// Added without joining an identity.
            phantom_ops: u64,
        }
    }
    impl Scratch {
        fn identities(&self) -> [(&'static str, u64, u64); 1] {
            [("ops == done", self.ops, self.done)]
        }
    }

    let scratch = Scratch::from([2, 2, 7]);
    assert!(scratch.to_json().contains("\"phantom_ops\":7"));
    assert!(scratch.to_string().contains("7 phantom_ops"));
    let unconstrained: Vec<&str> = (0..Scratch::FIELDS.len())
        .filter(|&index| {
            let mut unit = [0; 3];
            unit[index] = 1;
            let identities = Scratch::from(unit).identities();
            identities.iter().all(|&(_, l, r)| (l, r) == (0, 0))
        })
        .map(|index| Scratch::FIELDS[index])
        .collect();
    assert_eq!(unconstrained, ["phantom_ops"]);
}
