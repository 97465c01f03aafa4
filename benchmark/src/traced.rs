//! The traced run: per-layer metrics, measured on the workload's own scene
//! and views, from spans the benchmark records around its calls into each
//! layer's public functions.
//!
//! * Kernel layers are traced by composing the public stage functions
//!   exactly as the sessions do (`layers::ComposedGstg` /
//!   `ComposedBaseline`); the composed frame's digest and counters must
//!   equal the session's.
//! * Serving layers are attributed by nested-depth replay: the same view is
//!   served by a session, through `Engine::submit`, and over the wire,
//!   interleaved view by view, and a layer's self time is the paired
//!   difference between adjacent depths. The `json`, `wire`, `io`, `lod`
//!   and `soa` functions are also timed directly, on the payloads that
//!   crossed the socket.
//! * The workload's own traffic then runs twice at reduced length, once
//!   without and once with spans; the difference is the tracing overhead.
//!
//! Host time everywhere except `splat-accel.sim.*`, which is simulated
//! time: exact, repeatable, and not validated against hardware.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::Workload;
use crate::layers::{
    build_engine, build_lod, build_soa, decode_frame, decode_scene, encode_frame, encode_scene,
    engine_counts, frame_digest, parse_render_body, register_scene, simulate_cycles, splat_count,
    submit, Admission, Client, ComposedBaseline, ComposedGstg, Counts, EngineCounts, EngineSpec,
    Quality, TIER_COUNT, TIER_LABELS,
};
use crate::pairs::laps;
use crate::run::{
    account_pairs, burst_traffic, engine_identities, reconcile_stats, serve_traffic, setup,
    Outcome, Ready,
};
use crate::serving::{
    serving_engine, ClientTally, FrameRefs, Stack, ENGINE_WORKERS, QUEUE_CAPACITY,
};
use crate::stats::{median, share, tail_or_max};
use crate::trace::Trace;

/// Shares of `--seconds` per section; the fixed-count sections (cycle
/// model, registration path) come on top.
const KERNEL_SHARE: f64 = 0.15;
const DEPTH_SHARE: f64 = 0.15;
const TIER_SHARE: f64 = 0.10;
/// The workload's own traffic runs twice for this share each.
const TRAFFIC_PASS_SHARE: f64 = 0.20;
/// Repetitions of each call on the registration path.
const REGISTRATION_REPEATS: usize = 6;

/// The views the engine and wire probes replay: all of them, or every
/// third when the cycle is long (the orbit workloads' 24).
fn probe_views(ready: &Ready) -> Vec<usize> {
    let views = ready.inputs.views.len();
    (0..views).step_by(if views > 16 { 3 } else { 1 }).collect()
}

/// Per-stage milliseconds of the frames composed from the stage functions.
#[derive(Default)]
struct StageSamples {
    preprocess: Vec<f64>,
    identify: Vec<f64>,
    sort: Vec<f64>,
    raster: Vec<f64>,
}

/// Section 1: the kernel layers.
fn kernel_probe(ready: &mut Ready, budget: Duration, trace: &mut Trace, outcome: &mut Outcome) {
    let mut gstg = ComposedGstg::new();
    let mut baseline = ComposedBaseline::new();
    let mut gstg_ms = StageSamples::default();
    let mut baseline_ms = StageSamples::default();
    let (mut session_ms, mut glue_ms) = (Vec::new(), Vec::new());
    let (mut stage_sum_share, mut raster_share, mut frontend_share) =
        (Vec::new(), Vec::new(), Vec::new());
    // Grow the composed arenas on a few views first (the sessions' own are
    // warm from set-up), so that growth is not what the first lap times.
    for (scene, view) in ready.inputs.views.iter().step_by(4) {
        let (scene, camera) = (&ready.inputs.scenes[*scene], view.camera());
        gstg.preprocess(scene, &camera);
        gstg.identify(&camera);
        gstg.sort();
        gstg.raster(&camera);
        baseline.preprocess(scene, &camera);
        baseline.identify(&camera);
        baseline.sort();
        baseline.raster(&camera);
    }
    let started = Instant::now();
    let mut lap = 0u64;
    // Whole laps, because the counters are known per lap.
    while lap == 0 || started.elapsed() < budget {
        for (index, (scene, view)) in ready.inputs.views.iter().enumerate() {
            let scene = &ready.inputs.scenes[*scene];
            let camera = view.camera();
            let request = lap * ready.inputs.views.len() as u64 + index as u64;
            let expected = ready.reference.digests[index];

            let span = trace.begin("gstg.session.frame", None, request);
            let (image, counts) = ready.sessions.render_gstg(black_box(scene), &camera);
            let frame_ms = trace.end(span);
            outcome.attempted += 3;
            if frame_digest(image) != expected || counts != ready.reference.gstg_counts[index] {
                outcome.fail(format!("session frame {index} differs from the reference"));
            }

            let frame = trace.begin("gstg.composed.frame", None, request);
            let (_, pre) = trace.span("splat-render.preprocess", Some(frame), request, || {
                gstg.preprocess(black_box(scene), &camera)
            });
            let (_, ident) = trace.span("gstg.group.identify", Some(frame), request, || {
                gstg.identify(&camera)
            });
            let (_, sort) = trace.span("gstg.sort", Some(frame), request, || gstg.sort());
            let (_, raster) =
                trace.span("gstg.raster", Some(frame), request, || gstg.raster(&camera));
            trace.end(frame);
            if frame_digest(gstg.image()) != expected || gstg.counts() != counts {
                outcome.fail(format!(
                    "composed GS-TG frame {index} differs from the session's"
                ));
            }

            let frame = trace.begin("splat-render.composed.frame", None, request);
            let (_, base_pre) = trace.span("splat-render.preprocess", Some(frame), request, || {
                baseline.preprocess(black_box(scene), &camera)
            });
            let (_, base_ident) =
                trace.span("splat-render.tiling.identify", Some(frame), request, || {
                    baseline.identify(&camera)
                });
            let (_, base_sort) = trace.span("splat-render.sort", Some(frame), request, || {
                baseline.sort()
            });
            let (_, base_raster) = trace.span("splat-render.raster", Some(frame), request, || {
                baseline.raster(&camera)
            });
            trace.end(frame);
            if frame_digest(baseline.image()) != expected
                || baseline.counts() != ready.reference.baseline_counts[index]
            {
                outcome.fail(format!(
                    "composed baseline frame {index} differs from the session's"
                ));
            }

            let stages = pre + ident + sort + raster;
            session_ms.push(frame_ms);
            glue_ms.push(frame_ms - stages);
            stage_sum_share.push(stages / frame_ms);
            raster_share.push(raster / frame_ms);
            frontend_share.push((pre + ident + sort) / frame_ms);
            gstg_ms.preprocess.push(pre);
            gstg_ms.identify.push(ident);
            gstg_ms.sort.push(sort);
            gstg_ms.raster.push(raster);
            baseline_ms.preprocess.push(base_pre);
            baseline_ms.identify.push(base_ident);
            baseline_ms.sort.push(base_sort);
            baseline_ms.raster.push(base_raster);
        }
        lap += 1;
    }
    let laps_timed = lap as f64;
    let views = ready.inputs.views.len() as f64;
    let lap_gstg = Counts::sum(&ready.reference.gstg_counts);
    let lap_baseline = Counts::sum(&ready.reference.baseline_counts);
    let ns_per = |samples: &[f64], per_lap: u64| {
        samples.iter().sum::<f64>() * 1e6 / (per_lap as f64 * laps_timed).max(1.0)
    };
    let m = &mut outcome.metrics;
    m.set(
        "splat-render.preprocess.ms_p50",
        median(&gstg_ms.preprocess),
    );
    m.set(
        "splat-render.preprocess.ns_per_splat",
        ns_per(&gstg_ms.preprocess, lap_gstg.input_gaussians()),
    );
    m.set(
        "splat-render.preprocess.visible_share",
        share(lap_gstg.visible_gaussians(), lap_gstg.input_gaussians()),
    );
    m.set("gstg.group.identify_ms_p50", median(&gstg_ms.identify));
    m.set(
        "gstg.group.tile_hit_share",
        share(lap_gstg.tiles_hit(), lap_gstg.tiles_tested()),
    );
    m.set("gstg.sort.ms_p50", median(&gstg_ms.sort));
    m.set("gstg.sort.keys", lap_gstg.sort_keys() as f64 / views);
    m.set(
        "gstg.sort.key_ratio",
        share(lap_gstg.sort_keys(), lap_baseline.sort_keys()),
    );
    m.set(
        "gstg.sort.ns_per_key",
        ns_per(&gstg_ms.sort, lap_gstg.sort_keys()),
    );
    m.set("gstg.raster.ms_p50", median(&gstg_ms.raster));
    m.set(
        "gstg.raster.alpha_computations",
        lap_gstg.alpha_computations() as f64 / views,
    );
    m.set(
        "gstg.raster.blend_share",
        share(lap_gstg.blend_operations(), lap_gstg.alpha_computations()),
    );
    m.set(
        "gstg.raster.bitmask_filter_ops",
        lap_gstg.bitmask_filter_ops() as f64 / views,
    );
    m.set(
        "gstg.raster.ns_per_alpha",
        ns_per(&gstg_ms.raster, lap_gstg.alpha_computations()),
    );
    m.set("gstg.raster.frame_share", median(&raster_share));
    m.set("gstg.frontend.frame_share", median(&frontend_share));
    m.set("gstg.session.frame_ms_p50", median(&session_ms));
    m.set("gstg.session.glue_ms_p50", median(&glue_ms));
    m.set("gstg.session.stage_sum_share", median(&stage_sum_share));
    m.set(
        "splat-render.tiling.identify_ms_p50",
        median(&baseline_ms.identify),
    );
    m.set("splat-render.sort.ms_p50", median(&baseline_ms.sort));
    m.set(
        "splat-render.sort.keys",
        lap_baseline.sort_keys() as f64 / views,
    );
    m.set("splat-render.raster.ms_p50", median(&baseline_ms.raster));
    m.set(
        "splat-render.raster.alpha_computations",
        lap_baseline.alpha_computations() as f64 / views,
    );
    m.set(
        "splat-core.arena.footprint_bytes",
        gstg.arena_footprint_bytes() as f64,
    );
    outcome.notes.push(format!(
        "kernel probe: {} timed laps of {} views; baseline preprocess p50 {:.4} ms",
        laps_timed,
        views,
        median(&baseline_ms.preprocess)
    ));
}

/// Section 2: the cycle model on view 0 (simulated time).
fn accel_probe(ready: &Ready, outcome: &mut Outcome) {
    let (scene, view) = &ready.inputs.views[0];
    let camera = view.camera();
    let scene = &ready.inputs.scenes[*scene];
    let (baseline, gstg) = simulate_cycles(scene, &camera);
    outcome.attempted += 1;
    if simulate_cycles(scene, &camera) != (baseline, gstg) {
        outcome.fail("the cycle model is not repeatable");
    }
    let m = &mut outcome.metrics;
    m.set("splat-accel.sim.cycles_baseline", baseline as f64);
    m.set("splat-accel.sim.cycles_gstg", gstg as f64);
    m.set("splat-accel.sim.speedup", share(baseline, gstg));
    outcome.check("splat-accel.sim.cycles", format!("{baseline} -> {gstg}"));
}

/// Section 3: the registration path, each call timed on the workload's
/// first scene — decode, SoA build, LOD build, `Engine::register_scene`,
/// `POST /scenes` — and the probe stack brought up with the workload's
/// scenes resident.
fn registration_probe(
    ready: &Ready,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> Result<(Stack, Vec<u64>, ClientTally), String> {
    let scene = &ready.inputs.scenes[0];
    let bytes = encode_scene(scene);
    let decoded = decode_scene(&bytes).ok_or("scene does not round-trip")?;
    let timed = |trace: &mut Trace, name: &'static str, work: &mut dyn FnMut() -> usize| {
        let samples: Vec<f64> = (0..REGISTRATION_REPEATS)
            .map(|repeat| {
                trace
                    .span(name, None, repeat as u64, || black_box(work()))
                    .1
            })
            .collect();
        median(&samples)
    };
    let decode_ms = timed(trace, "splat-scene.io.decode", &mut || {
        decode_scene(black_box(&bytes)).map_or(0, |scene| splat_count(&scene))
    });
    let soa_ms = timed(trace, "splat-scene.soa.build", &mut || build_soa(&decoded));
    let lod_ms = timed(trace, "splat-scene.lod.build", &mut || build_lod(&decoded));

    // A fresh `Scene` per registration, so its SoA view is built, not reused.
    let mut fresh: Vec<_> = (0..REGISTRATION_REPEATS)
        .filter_map(|_| decode_scene(&bytes).map(Arc::new))
        .collect();
    let engine = serving_engine()?;
    let mut failed = REGISTRATION_REPEATS - fresh.len();
    let register_ms = timed(trace, "splat-engine.registry.register", &mut || {
        let registered = fresh.pop().map(|scene| register_scene(&engine, scene));
        failed += usize::from(!matches!(registered, Some(Ok(_))));
        failed
    });
    let registry = engine_counts(&engine);
    outcome.attempted += REGISTRATION_REPEATS as u64;
    if failed > 0 || registry.registered != REGISTRATION_REPEATS as u64 {
        outcome.fail("registration probe: a registration failed");
    }

    let stack = Stack::start()?;
    let mut client = Client::open(&stack.addr)?;
    let mut tally = ClientTally::default();
    let mut upload_ms = Vec::new();
    for _ in 0..REGISTRATION_REPEATS {
        let span = trace.begin("splat-server.upload", None, tally.uploads);
        let (status, _) = client.upload(&bytes)?;
        upload_ms.push(trace.end(span));
        tally.uploads += 1;
        tally.count_status(status);
        outcome.attempted += 1;
        if status != 201 {
            outcome.fail(format!("probe upload answered {status}"));
        }
    }
    // Last, the scenes the replay renders, so they are the resident ones;
    // registered directly, because the reference frames were rendered from
    // these very `Scene`s (a scene that went through the codec renders
    // slightly different pixels, see README).
    let mut scene_ids = Vec::new();
    for scene in &ready.inputs.scenes {
        scene_ids.push(register_scene(&stack.engine, Arc::clone(scene))?);
        tally.direct_registrations += 1;
    }

    let m = &mut outcome.metrics;
    m.set("splat-scene.io.decode_ms_p50", decode_ms);
    m.set(
        "splat-scene.io.bytes_per_splat",
        bytes.len() as f64 / splat_count(scene).max(1) as f64,
    );
    m.set("splat-scene.soa.build_ms_p50", soa_ms);
    m.set("splat-scene.lod.build_ms_p50", lod_ms);
    m.set("splat-engine.registry.register_ms_p50", register_ms);
    m.set("splat-engine.registry.evictions", registry.evicted as f64);
    m.set(
        "splat-engine.registry.resident_bytes",
        registry.resident_bytes as f64,
    );
    m.set("splat-server.upload.ms_p50", median(&upload_ms));
    outcome.check(
        "registry.probe",
        format!(
            "{} registered, {} evicted, {} resident bytes",
            registry.registered, registry.evicted, registry.resident_bytes
        ),
    );
    Ok((stack, scene_ids, tally))
}

/// Section 4: nested-depth replay. Returns the unloaded wire round trip per
/// view (median, ms).
fn depth_replay(
    ready: &mut Ready,
    stack: &Stack,
    scene_ids: &[u64],
    tally: &mut ClientTally,
    budget: Duration,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let views = ready.inputs.views.len();
    let bodies: Vec<String> = ready
        .inputs
        .views
        .iter()
        .map(|(scene, view)| view.render_body(scene_ids[*scene]))
        .collect();
    let mut client = Client::open(&stack.addr)?;
    let (mut engine_over, mut http_over, mut serving_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire_by_view: Vec<Vec<f64>> = vec![Vec::new(); views];
    let (mut parse_us, mut encode_us, mut decode_us, mut digest_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut frame_bytes = 0usize;
    let replayed = probe_views(ready);
    let started = Instant::now();
    let mut lap = 0u64;
    while lap < 2 || started.elapsed() < budget {
        for &index in &replayed {
            let (scene, view) = &ready.inputs.views[index];
            let camera = view.camera();
            let request = lap * views as u64 + index as u64;
            let expected = ready.reference.digests[index];
            let scene_ref = &ready.inputs.scenes[*scene];

            // The three depths in an order that rotates per lap, so that no
            // depth always runs on the caches another one warmed.
            let (mut session_ms, mut engine_ms, mut wire_ms) = (0.0, 0.0, 0.0);
            let (mut served, mut response) = (None, None);
            for turn in 0..3 {
                match (turn + lap) % 3 {
                    0 => {
                        let span = trace.begin("depth.session", None, request);
                        black_box(ready.sessions.render_gstg(black_box(scene_ref), &camera).1);
                        session_ms = trace.end(span);
                    }
                    1 => {
                        let span = trace.begin("depth.engine", None, request);
                        let job = submit(&stack.engine, scene_ids[*scene], camera, 1)?
                            .ok_or("replay job refused by an idle engine")?;
                        let tier = job.tier();
                        let image = job.wait()?.ok_or("replay job shed by an idle engine")?;
                        engine_ms = trace.end(span);
                        tally.direct_jobs_by_tier[tier] += 1;
                        served = Some((tier, image));
                    }
                    _ => {
                        let span = trace.begin("depth.wire", None, request);
                        let answer = client.render(&bodies[index])?;
                        wire_ms = trace.end(span);
                        tally.count_render(&answer);
                        response = Some(answer);
                    }
                }
            }
            let ((tier, image), response) = served.zip(response).ok_or("replay skipped a depth")?;

            outcome.attempted += 2;
            if tier != 0 || frame_digest(&image) != expected {
                outcome.fail(format!("view {index} through Engine::submit is wrong"));
            }
            let body_image = decode_frame(&response.body);
            let served_right = response.status == 200
                && response.tier == Some(0)
                && response.digest == Some(expected)
                && body_image.as_ref().map(frame_digest) == Some(expected);
            if !served_right {
                outcome.fail(format!("view {index} over the wire is wrong"));
            }
            if lap == 0 {
                // The engine's and the server's sessions warm up.
                continue;
            }
            engine_over.push(engine_ms - session_ms);
            http_over.push(wire_ms - engine_ms);
            serving_share.push((wire_ms - session_ms) / wire_ms);
            wire_by_view[index].push(wire_ms);

            // The same functions the server ran on this exchange, timed
            // directly on what crossed the socket.
            let us = |trace: &mut Trace, name: &'static str, work: &mut dyn FnMut() -> u64| {
                trace.span(name, None, request, || black_box(work())).1 * 1e3
            };
            parse_us.push(us(trace, "splat-server.json.parse", &mut || {
                u64::from(parse_render_body(black_box(&bodies[index])))
            }));
            if let Some(body_image) = &body_image {
                encode_us.push(us(trace, "splat-server.wire.encode", &mut || {
                    encode_frame(black_box(body_image)).len() as u64
                }));
                digest_us.push(us(trace, "splat-server.wire.digest", &mut || {
                    frame_digest(black_box(body_image))
                }));
            }
            decode_us.push(us(trace, "splat-server.wire.decode", &mut || {
                u64::from(black_box(decode_frame(black_box(&response.body))).is_some())
            }));
            frame_bytes = response.body.len();
        }
        lap += 1;
    }
    let m = &mut outcome.metrics;
    m.set("splat-engine.submit.overhead_ms_p50", median(&engine_over));
    m.set("splat-server.http.overhead_ms_p50", median(&http_over));
    m.set(
        "splat-server.serving.overhead_share",
        median(&serving_share),
    );
    m.set("splat-server.json.parse_us_p50", median(&parse_us));
    m.set("splat-server.wire.encode_us_p50", median(&encode_us));
    m.set("splat-server.wire.decode_us_p50", median(&decode_us));
    m.set("splat-server.wire.digest_us_p50", median(&digest_us));
    m.set("splat-server.wire.bytes_per_frame", frame_bytes as f64);
    let overall = median(&wire_by_view.concat());
    outcome.notes.push(format!(
        "depth replay: {} timed laps of {} views; unloaded wire round trip p50 {overall:.4} ms",
        lap - 1,
        replayed.len()
    ));
    Ok(wire_by_view
        .iter()
        .map(|samples| {
            if samples.is_empty() {
                overall
            } else {
                median(samples)
            }
        })
        .collect())
}

/// Section 5: each quality tier's render path, closed loop through an
/// engine pinned to it. Returns the median milliseconds per tier.
fn tier_probe(
    ready: &Ready,
    budget: Duration,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> Result<[f64; TIER_COUNT], String> {
    const SPAN_NAMES: [&str; TIER_COUNT] = [
        "splat-engine.tier.full",
        "splat-engine.tier.t1",
        "splat-engine.tier.t2",
        "splat-engine.tier.t3",
    ];
    let mut refs = FrameRefs::new(&ready.inputs, Arc::clone(&ready.reference));
    let replayed = probe_views(ready);
    let mut medians = [0.0; TIER_COUNT];
    for tier in 0..TIER_COUNT {
        let engine = build_engine(EngineSpec {
            workers: ENGINE_WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            admission: Admission::RejectWhenFull,
            quality: Quality::Pinned(tier),
            max_resident_scenes: None,
        })?;
        let scene_ids = ready
            .inputs
            .scenes
            .iter()
            .map(|scene| register_scene(&engine, Arc::clone(scene)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut samples = Vec::new();
        let started = Instant::now();
        let mut lap = 0u64;
        while lap < 2 || started.elapsed() < budget / TIER_COUNT as u32 {
            for &index in &replayed {
                let (scene, view) = &ready.inputs.views[index];
                let span = trace.begin(SPAN_NAMES[tier], None, lap);
                let job = submit(&engine, scene_ids[*scene], view.camera(), 1)?
                    .ok_or("tier job refused by an idle engine")?;
                let served = job.tier();
                let image = job.wait()?.ok_or("tier job shed by an idle engine")?;
                let ms = trace.end(span);
                outcome.attempted += 1;
                if served != tier || frame_digest(&image) != refs.digest(&ready.inputs, index, tier)
                {
                    outcome.fail(format!(
                        "view {index} at tier {} is wrong",
                        TIER_LABELS[tier]
                    ));
                }
                if lap > 0 {
                    samples.push(ms);
                }
            }
            lap += 1;
        }
        engine_identities(&engine_counts(&engine), outcome);
        medians[tier] = median(&samples);
    }
    let m = &mut outcome.metrics;
    m.set("splat-engine.tier.full.ms_p50", medians[0]);
    m.set("splat-engine.tier.t1.ms_p50", medians[1]);
    m.set("splat-engine.tier.t2.ms_p50", medians[2]);
    m.set("splat-engine.tier.t3.ms_p50", medians[3]);
    Ok(medians)
}

/// What the workload's own traffic says about the engine queue.
#[derive(Default)]
struct QueueFacts {
    /// Milliseconds each operation waited beyond its unloaded time.
    wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// The end-to-end latency of every operation of both passes (a GS-TG
    /// frame, due to last byte, a burst's drain).
    latency_ms: Vec<f64>,
    engine: Option<EngineCounts>,
}

/// Section 6: the workload's own traffic, once without and once with
/// spans. Returns the median operation latency of each pass.
fn own_traffic(
    ready: &mut Ready,
    pass: Duration,
    unloaded_wire_ms: &[f64],
    tier_ms: &[f64; TIER_COUNT],
    trace: &mut Trace,
    epoch: Instant,
    outcome: &mut Outcome,
) -> Result<(f64, f64, QueueFacts), String> {
    let mut facts = QueueFacts::default();
    let mut medians = [0.0; 2];
    for (index, traced) in [false, true].into_iter().enumerate() {
        medians[index] = match ready.workload {
            Workload::OrbitRaster | Workload::OrbitFrontend => {
                let pairs = laps(
                    &mut ready.sessions,
                    &ready.inputs,
                    &ready.reference,
                    pass,
                    traced.then_some(&mut *trace),
                );
                account_pairs(outcome, &pairs);
                facts.latency_ms.extend(&pairs.gstg_ms);
                median(&pairs.gstg_ms)
            }
            Workload::ServeSteady | Workload::ServeThin => {
                let (traffic, traces) =
                    serve_traffic(ready, pass.as_secs_f64(), traced.then_some(epoch), outcome)?;
                for thread_trace in traces {
                    trace.absorb(thread_trace);
                }
                for sample in traffic.samples.iter().filter(|s| s.status == 200) {
                    facts
                        .wait_ms
                        .push((sample.latency_ms() - unloaded_wire_ms[sample.view]).max(0.0));
                    facts.late_ms.push(sample.late_ms());
                    facts.latency_ms.push(sample.latency_ms());
                }
                // Sent to answered, not due to answered: the generator's own
                // queue is not something a span could have slowed.
                let round_trips: Vec<f64> = traffic
                    .samples
                    .iter()
                    .map(|sample| (sample.done_s - sample.sent_s) * 1e3)
                    .collect();
                median(&round_trips)
            }
            Workload::EngineBurst => {
                let traffic = burst_traffic(ready, pass, traced.then_some(&mut *trace), outcome)?;
                facts.wait_ms.extend(
                    traffic
                        .jobs
                        .iter()
                        .map(|(tier, done_ms)| (done_ms - tier_ms[*tier]).max(0.0)),
                );
                facts.latency_ms.extend(&traffic.drains_ms);
                median(&traffic.drains_ms)
            }
        };
    }
    if let Some(serve) = ready.serve.as_mut() {
        reconcile_stats(&serve.stack.addr, &mut serve.tally, outcome);
        facts.engine = Some(engine_counts(&serve.stack.engine));
    }
    if let Some(burst) = ready.burst.as_ref() {
        facts.engine = Some(engine_counts(&burst.engine));
    }
    Ok((medians[0], medians[1], facts))
}

/// The traced run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut ready = setup(workload, seed)?;
    let mut outcome = Outcome::default();
    outcome.attempted += ready.attempted;
    for failure in std::mem::take(&mut ready.failures) {
        outcome.fail(format!("set-up: {failure}"));
    }
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let share_of = |share: f64| Duration::from_secs_f64(seconds * share);

    kernel_probe(&mut ready, share_of(KERNEL_SHARE), &mut trace, &mut outcome);
    accel_probe(&ready, &mut outcome);
    let (stack, scene_ids, mut tally) = registration_probe(&ready, &mut trace, &mut outcome)?;
    let replay = depth_replay(
        &mut ready,
        &stack,
        &scene_ids,
        &mut tally,
        share_of(DEPTH_SHARE),
        &mut trace,
        &mut outcome,
    );
    reconcile_stats(&stack.addr, &mut tally, &mut outcome);
    let (server, engine) = stack.door.shutdown();
    let unloaded_wire_ms = replay?;
    let m = &mut outcome.metrics;
    m.set("splat-server.stats.requests", server.requests as f64);
    m.set("splat-server.stats.ok", server.ok as f64);
    m.set("splat-server.stats.overloaded", server.overloaded as f64);
    m.set("splat-server.stats.bytes_in", server.bytes_in as f64);
    m.set("splat-server.stats.bytes_out", server.bytes_out as f64);
    outcome.attempted += 1;
    if server.requests != server.routed || server.requests != server.responded {
        outcome.fail("probe server: requests != routed or != responded at shutdown");
    }
    engine_identities(&engine, &mut outcome);
    // Notes, not checks: how many replay laps fit depends on the clock.
    outcome
        .notes
        .push(format!("probe ServerStats: {}", server.json));
    outcome
        .notes
        .push(format!("probe EngineStats: {}", engine.json));

    let tier_ms = tier_probe(&ready, share_of(TIER_SHARE), &mut trace, &mut outcome)?;
    let (untraced_ms, traced_ms, facts) = own_traffic(
        &mut ready,
        share_of(TRAFFIC_PASS_SHARE),
        &unloaded_wire_ms,
        &tier_ms,
        &mut trace,
        epoch,
        &mut outcome,
    )?;
    let m = &mut outcome.metrics;
    // The orbit workloads have no queue and no schedule: nothing waited.
    let p50 = |values: &[f64]| {
        if values.is_empty() {
            0.0
        } else {
            median(values)
        }
    };
    let p90 = |values: &[f64]| {
        if values.is_empty() {
            0.0
        } else {
            tail_or_max(values, 0.9).0
        }
    };
    m.set("splat-engine.queue.wait_ms_p50", p50(&facts.wait_ms));
    m.set("splat-engine.queue.wait_ms_p90", p90(&facts.wait_ms));
    m.set("bench.generator.late_ms_p90", p90(&facts.late_ms));
    m.set("bench.latency.ms_p90", p90(&facts.latency_ms));
    let engine = facts.engine.unwrap_or_default();
    m.set(
        "splat-engine.queue.high_water",
        engine.queue_high_water as f64,
    );
    m.set("splat-engine.policy.admitted", engine.submitted as f64);
    m.set("splat-engine.policy.rejected", engine.rejected as f64);
    m.set("splat-engine.policy.full", engine.by_tier[0] as f64);
    m.set("splat-engine.policy.t1", engine.by_tier[1] as f64);
    m.set("splat-engine.policy.t2", engine.by_tier[2] as f64);
    m.set("splat-engine.policy.t3", engine.by_tier[3] as f64);
    m.set(
        "bench.trace.overhead_share",
        (traced_ms - untraced_ms) / untraced_ms,
    );
    outcome.notes.push(format!(
        "own traffic: operation p50 {untraced_ms:.4} ms without spans, {traced_ms:.4} ms with"
    ));
    ready.teardown();
    match trace.write(workload.name(), seed) {
        Ok(path) => outcome.notes.push(format!(
            "{} spans written to {}",
            trace.len(),
            path.display()
        )),
        Err(error) => outcome.fail(format!("writing the trace: {error}")),
    }
    Ok(outcome)
}
