//! Set-up and the run with tracing off: one function per workload shape,
//! each returning every end-to-end metric plus the exact counts it checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::{
    generate, Inputs, Workload, BURST_CAPACITY, BURST_JOBS, STEADY_LIMIT_MS, STEADY_RATE,
};
use crate::layers::{
    build_engine, engine_counts, engine_footprint_bytes, frame_digest, pause, register_scene,
    resume, submit, Admission, Client, Counts, EngineCounts, EngineRef, EngineSpec, Image, Quality,
    Sessions, TIER_LABELS,
};
use crate::pairs::{laps, warm_up, PairReference, PairSamples};
use crate::schedule::poisson_schedule;
use crate::serving::{
    closed_loop, open_loop, reconcile, ClientTally, FrameRefs, Plan, Sample, Stack, ThreadResult,
    ENGINE_WORKERS,
};
use crate::spec::Metrics;
use crate::stats::{median, tail_or_max};
use crate::trace::Trace;

/// How often a run repeats set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` the wire and burst workloads spend on their own
/// traffic; the rest goes to the paired laps that give `gstg_speedup`.
pub const TRAFFIC_SHARE: f64 = 0.8;

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted and operations that failed: a wrong digest, an
    /// unexpected status or error, a counter that does not reconcile.
    /// Policy refusals are outcomes, not failures.
    pub attempted: u64,
    pub failed: u64,
    /// Exact counts, identical between two runs of one seed.
    pub checks: Vec<(String, String)>,
    /// Measured values worth a line that are not declared metrics.
    pub notes: Vec<String>,
    /// What failed, for the reader.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    pub fn check(&mut self, name: &str, value: impl ToString) {
        self.checks.push((name.to_string(), value.to_string()));
    }
}

/// The serving side of a wire workload after set-up.
pub struct ServeReady {
    pub stack: Stack,
    pub bodies: Vec<String>,
    pub tally: ClientTally,
    pub upload_ms: Vec<f64>,
    pub frame_refs: FrameRefs,
}

/// What each job of the burst came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Refused at the door.
    Refused,
    /// Admitted, then shed from the queue by a later submission.
    Shed,
    /// Rendered at this tier.
    Done(usize),
}

pub struct BurstReady {
    pub engine: EngineRef,
    pub scene_ids: Vec<u64>,
    pub frame_refs: FrameRefs,
    /// The split every burst must reproduce.
    pub expected: Vec<JobOutcome>,
}

/// A workload after set-up: inputs generated, sessions warm, stack up.
pub struct Ready {
    pub workload: Workload,
    pub inputs: Inputs,
    pub sessions: Sessions,
    pub reference: Arc<PairReference>,
    pub serve: Option<ServeReady>,
    pub burst: Option<BurstReady>,
    /// Operations attempted and failed during set-up.
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ready {
    /// Stops what set-up started.
    pub fn teardown(self) {
        if let Some(serve) = self.serve {
            let _ = serve.stack.door.shutdown();
        }
    }
}

fn bring_up_serving(ready: &mut Ready) -> Result<(), String> {
    let stack = Stack::start()?;
    let mut client = Client::open(&stack.addr)?;
    let mut tally = ClientTally::default();
    let mut upload_ms = Vec::new();
    let mut scene_ids = Vec::new();
    for bytes in &ready.inputs.uploads {
        let start = Instant::now();
        let (status, id) = client.upload(bytes)?;
        upload_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.uploads += 1;
        tally.count_status(status);
        ready.attempted += 1;
        match id {
            Some(id) if status == 201 => scene_ids.push(id),
            _ => ready.failures.push(format!("upload answered {status}")),
        }
    }
    let read_ids = &scene_ids[scene_ids.len().saturating_sub(ready.inputs.scenes.len())..];
    if read_ids.len() != ready.inputs.scenes.len() {
        return Err("scene uploads failed".to_string());
    }
    let bodies: Vec<String> = ready
        .inputs
        .views
        .iter()
        .map(|(scene, view)| view.render_body(read_ids[*scene]))
        .collect();
    // Warm-up: every view once over the wire, each response decoded and
    // its digest compared with the header and the local reference.
    for (view, body) in bodies.iter().enumerate() {
        let response = client.render(body)?;
        tally.count_render(&response);
        ready.attempted += 1;
        let decoded = crate::layers::decode_frame(&response.body).map(|image| frame_digest(&image));
        let right = response.status == 200
            && response.tier == Some(0)
            && response.digest == Some(ready.reference.digests[view])
            && decoded == response.digest
            && response.body == ready.reference.encoded[view];
        if !right {
            ready
                .failures
                .push(format!("warm-up view {view} served wrong"));
        }
    }
    drop(client);
    ready.serve = Some(ServeReady {
        stack,
        bodies,
        tally,
        upload_ms,
        frame_refs: FrameRefs::new(&ready.inputs, Arc::clone(&ready.reference)),
    });
    Ok(())
}

/// One job of a burst after the drain.
pub struct JobResult {
    pub outcome: JobOutcome,
    /// The frame, when the job was served.
    pub image: Option<Image>,
    /// Milliseconds from resume to this job's completion.
    pub done_ms: f64,
}

/// One burst: pause, submit every job, resume, wait for all. Returns the
/// drain time in milliseconds (resume to last completion) and every job's
/// result, in submission order.
pub fn run_burst(
    engine: &EngineRef,
    inputs: &Inputs,
    scene_ids: &[u64],
) -> Result<(f64, Vec<JobResult>), String> {
    pause(engine);
    let mut jobs = Vec::with_capacity(inputs.burst.len());
    for (view, priority) in &inputs.burst {
        let (scene, pose) = &inputs.views[*view];
        jobs.push(submit(engine, scene_ids[*scene], pose.camera(), *priority)?);
    }
    // The engine dispatches the highest priority first and, within a
    // class, the earliest submission; waiting in that order makes each
    // wait return as its job completes.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&job| (std::cmp::Reverse(inputs.burst[job].1), job));
    let mut results: Vec<JobResult> = jobs
        .iter()
        .map(|job| JobResult {
            // Admitted jobs count as shed until their frame arrives.
            outcome: if job.is_some() {
                JobOutcome::Shed
            } else {
                JobOutcome::Refused
            },
            image: None,
            done_ms: 0.0,
        })
        .collect();
    let start = Instant::now();
    resume(engine);
    for index in order {
        let Some(job) = jobs[index].take() else {
            continue;
        };
        let tier = job.tier();
        if let Some(image) = job.wait()? {
            results[index] = JobResult {
                outcome: JobOutcome::Done(tier),
                image: Some(image),
                done_ms: start.elapsed().as_secs_f64() * 1e3,
            };
        }
    }
    Ok((start.elapsed().as_secs_f64() * 1e3, results))
}

fn bring_up_burst(ready: &mut Ready) -> Result<(), String> {
    let engine = build_engine(EngineSpec {
        workers: ENGINE_WORKERS,
        queue_capacity: BURST_CAPACITY,
        admission: Admission::ShedLowPriority {
            capacity: BURST_CAPACITY,
        },
        quality: Quality::DegradeDefault,
        max_resident_scenes: None,
    })?;
    let scene_ids = ready
        .inputs
        .scenes
        .iter()
        .map(|scene| register_scene(&engine, Arc::clone(scene)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut burst = BurstReady {
        engine,
        scene_ids,
        frame_refs: FrameRefs::new(&ready.inputs, Arc::clone(&ready.reference)),
        expected: Vec::new(),
    };
    // Warm-up, every view once at full quality: the pooled session's
    // buffers reach their steady size whichever views the bursts serve in
    // full, so `mem_bytes` does not depend on the seed's shuffle.
    for (index, (scene, view)) in ready.inputs.views.iter().enumerate() {
        let job = submit(&burst.engine, burst.scene_ids[*scene], view.camera(), 1)?
            .ok_or("warm-up job refused by an idle engine")?;
        let tier = job.tier();
        let image = job.wait()?.ok_or("warm-up job shed by an idle engine")?;
        ready.attempted += 1;
        if tier != 0 || frame_digest(&image) != ready.reference.digests[index] {
            ready
                .failures
                .push(format!("warm-up view {index} through the engine is wrong"));
        }
    }
    // Warm-up burst: fixes the split and renders the references it needs.
    let (_, results) = run_burst(&burst.engine, &ready.inputs, &burst.scene_ids)?;
    ready.attempted += results.len() as u64;
    let wrong = verify_burst(&ready.inputs, &mut burst.frame_refs, &results);
    if wrong > 0 {
        ready
            .failures
            .push(format!("warm-up burst: {wrong} wrong frames"));
    }
    burst.expected = results.iter().map(|job| job.outcome).collect();
    ready.burst = Some(burst);
    Ok(())
}

/// Frames of a burst whose digest differs from the reference at their tier.
pub fn verify_burst(inputs: &Inputs, refs: &mut FrameRefs, results: &[JobResult]) -> u64 {
    let mut wrong = 0;
    for (index, job) in results.iter().enumerate() {
        if let (JobOutcome::Done(tier), Some(image)) = (job.outcome, &job.image) {
            if frame_digest(image) != refs.digest(inputs, inputs.burst[index].0, tier) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Everything a run needs before it can measure: scene synthesis, session
/// warm-up with the reference digests, and — where the workload has one —
/// engine and server start, scene upload and a warm-up pass over the wire.
pub fn setup(workload: Workload, seed: u64) -> Result<Ready, String> {
    let inputs = generate(workload, seed);
    let mut sessions = Sessions::new();
    let wire = matches!(workload, Workload::ServeSteady | Workload::ServeThin);
    let reference = warm_up(&mut sessions, &inputs, wire);
    let mut ready = Ready {
        workload,
        attempted: 2 * inputs.views.len() as u64,
        failures: Vec::new(),
        inputs,
        sessions,
        reference: Arc::new(reference),
        serve: None,
        burst: None,
    };
    if ready.reference.mismatches > 0 {
        ready.failures.push(format!(
            "GS-TG != baseline on {} views",
            ready.reference.mismatches
        ));
    }
    if wire {
        bring_up_serving(&mut ready)?;
    }
    if workload == Workload::EngineBurst {
        bring_up_burst(&mut ready)?;
    }
    Ok(ready)
}

/// Sets up `repeats` times, tearing down all but the last; returns the
/// last and the median set-up time in seconds.
pub fn setup_repeated(
    workload: Workload,
    seed: u64,
    repeats: usize,
) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            Ready::teardown(previous);
        }
        let start = Instant::now();
        last = Some(setup(workload, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let ready = last.ok_or("no set-up ran")?;
    Ok((ready, median(&times)))
}

fn pair_checks(outcome: &mut Outcome, ready: &Ready) {
    let digest_of_digests = ready
        .reference
        .digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, digest| {
            (hash ^ digest).wrapping_mul(0x0000_0100_0000_01b3)
        });
    outcome.check("frames.digest", format!("{digest_of_digests:016x}"));
    outcome.check(
        "counts.gstg.lap",
        Counts::sum(&ready.reference.gstg_counts).json(),
    );
    outcome.check(
        "counts.baseline.lap",
        Counts::sum(&ready.reference.baseline_counts).json(),
    );
}

/// Counts a segment of paired laps into the outcome.
pub fn account_pairs(outcome: &mut Outcome, pairs: &PairSamples) {
    outcome.attempted += pairs.frames;
    if pairs.failed > 0 {
        outcome.failed += pairs.failed;
        outcome
            .failures
            .push(format!("{} frames differ from the reference", pairs.failed));
    }
    outcome.notes.push(format!(
        "paired laps: {} laps, {} view pairs, session frame p50 {:.4} ms GS-TG / {:.4} ms baseline",
        pairs.laps,
        pairs.gstg_ms.len(),
        median(&pairs.gstg_ms),
        median(&pairs.baseline_ms)
    ));
}

fn set_latency(outcome: &mut Outcome, latencies_ms: &[f64]) {
    outcome.metrics.set("latency_ms_p50", median(latencies_ms));
    // The tail is a note here and a per-layer metric of the traced run
    // (`bench.latency.ms_p90`): between runs of one seed it moved by more
    // than any bound the contract allows (see README).
    let (tail, supported) = tail_or_max(latencies_ms, 0.9);
    outcome.notes.push(format!(
        "latency_ms_p90 = {tail:.4} ms over {} samples{}",
        latencies_ms.len(),
        if supported {
            ""
        } else {
            " (too few for a p90: this is the maximum)"
        }
    ));
}

fn measure_orbit(ready: &mut Ready, seconds: f64, outcome: &mut Outcome) {
    let pairs = laps(
        &mut ready.sessions,
        &ready.inputs,
        &ready.reference,
        Duration::from_secs_f64(seconds),
        None,
    );
    account_pairs(outcome, &pairs);
    set_latency(outcome, &pairs.gstg_ms);
    let good = pairs.gstg_ms.len() as u64 - pairs.failed.min(pairs.gstg_ms.len() as u64);
    let busy_s: f64 = pairs.gstg_ms.iter().sum::<f64>() / 1e3;
    outcome.metrics.set("goodput_per_s", good as f64 / busy_s);
    outcome.metrics.set("gstg_speedup", pairs.speedup());
    outcome
        .metrics
        .set("mem_bytes", ready.sessions.gstg_footprint_bytes() as f64);
}

fn paired_segment(ready: &mut Ready, seconds: f64, outcome: &mut Outcome) {
    let pairs = laps(
        &mut ready.sessions,
        &ready.inputs,
        &ready.reference,
        Duration::from_secs_f64(seconds * (1.0 - TRAFFIC_SHARE)),
        None,
    );
    account_pairs(outcome, &pairs);
    outcome.metrics.set("gstg_speedup", pairs.speedup());
}

/// Folds the generator threads' results into the outcome; returns every
/// sample and the merged tally.
pub fn collect_samples(
    results: Vec<ThreadResult>,
    inputs: &Inputs,
    refs: &mut FrameRefs,
    outcome: &mut Outcome,
) -> (Vec<Sample>, ClientTally) {
    let mut samples = Vec::new();
    let mut tally = ClientTally::default();
    for result in results {
        if let Some(error) = result.error {
            outcome.fail(format!("generator: {error}"));
        }
        tally.merge(&result.tally);
        samples.extend(result.samples);
    }
    outcome.attempted += samples.len() as u64;
    for sample in &mut samples {
        if let (Some(digest), Some(tier)) = (sample.deferred_digest, sample.tier) {
            sample.verified &= digest == refs.digest(inputs, sample.view, tier);
        }
        match sample.status {
            // A refusal under the admission policy is an outcome.
            503 => {}
            200 if sample.verified => {}
            200 => outcome.fail(format!("view {} served with a wrong frame", sample.view)),
            status => outcome.fail(format!("view {} answered {status}", sample.view)),
        }
    }
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    (samples, tally)
}

/// `GET /stats` on a fresh connection, reconciled against the tally.
pub fn reconcile_stats(
    addr: &str,
    tally: &mut ClientTally,
    outcome: &mut Outcome,
) -> Option<crate::layers::WireStats> {
    outcome.attempted += 1;
    let stats = match Client::open(addr).and_then(|mut client| client.stats()) {
        Ok(stats) => stats,
        Err(error) => {
            outcome.fail(error);
            return None;
        }
    };
    tally.stats_calls += 1;
    tally.count_status(200);
    for failure in reconcile(&stats, tally) {
        outcome.fail(format!("reconcile: {failure}"));
    }
    Some(stats)
}

/// What a wire workload's own traffic produced.
pub struct ServeTraffic {
    /// Every exchange, ordered by due instant.
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

/// Runs a wire workload's own traffic for `traffic_s` seconds — the seeded
/// Poisson open loop on `serve-steady`, the closed loop on `serve-thin` —
/// checks every response and folds the tally into the set-up's.
pub fn serve_traffic(
    ready: &mut Ready,
    traffic_s: f64,
    trace_epoch: Option<Instant>,
    outcome: &mut Outcome,
) -> Result<(ServeTraffic, Vec<Trace>), String> {
    let serve = ready.serve.as_mut().ok_or("serving stack missing")?;
    let plan = Arc::new(Plan {
        addr: serve.stack.addr.clone(),
        bodies: serve.bodies.clone(),
        full: Arc::clone(&ready.reference),
        trace_epoch,
    });
    let views = ready.inputs.views.len();
    let started = Instant::now();
    let mut results = if ready.workload == Workload::ServeSteady {
        let count = ((STEADY_RATE * traffic_s).round() as usize).max(1);
        let schedule: Vec<(f64, usize)> =
            poisson_schedule(ready.inputs.schedule_seed, STEADY_RATE, count)
                .into_iter()
                .enumerate()
                .map(|(index, due)| (due, index % views))
                .collect();
        open_loop(plan, Arc::new(schedule))
    } else {
        closed_loop(plan, Duration::from_secs_f64(traffic_s))
    };
    let wall_s = started.elapsed().as_secs_f64();
    let traces = results
        .iter_mut()
        .filter_map(|result| result.trace.take())
        .collect();
    let (samples, traffic) =
        collect_samples(results, &ready.inputs, &mut serve.frame_refs, outcome);
    serve.tally.merge(&traffic);
    Ok((ServeTraffic { samples, wall_s }, traces))
}

fn measure_serve(ready: &mut Ready, seconds: f64, outcome: &mut Outcome) -> Result<(), String> {
    let open = ready.workload == Workload::ServeSteady;
    let (traffic, _) = serve_traffic(ready, seconds * TRAFFIC_SHARE, None, outcome)?;
    let samples = &traffic.samples;
    let serve = ready.serve.as_mut().ok_or("serving stack missing")?;
    let stats = reconcile_stats(&serve.stack.addr, &mut serve.tally, outcome);

    let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    set_latency(outcome, &latencies);
    let good = samples
        .iter()
        .filter(|s| s.status == 200 && s.tier == Some(0) && s.verified)
        .filter(|s| !open || s.latency_ms() <= STEADY_LIMIT_MS)
        .count();
    // Good responses per second of the traffic phase, first due instant to
    // last answer. The open loop offers exactly STEADY_RATE, so there this
    // is that rate times the share of requests sent that were good, less
    // the time the last answer took.
    outcome
        .metrics
        .set("goodput_per_s", good as f64 / traffic.wall_s);
    let engine = engine_counts(&serve.stack.engine);
    let footprint = engine_footprint_bytes(&serve.stack.engine);
    outcome
        .metrics
        .set("mem_bytes", (engine.resident_bytes + footprint) as f64);

    if open {
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        outcome.notes.push(format!(
            "bench.generator.late_ms_p90 = {:.4} ms (send instant - due instant; latency is timed from due)",
            tail_or_max(&late, 0.9).0
        ));
        outcome.notes.push(format!(
            "within_limit_share = {:.4} ({} of {} sent answered 200, full quality, right digest, within {} ms of due)",
            good as f64 / samples.len().max(1) as f64,
            good,
            samples.len(),
            STEADY_LIMIT_MS
        ));
        outcome.check("requests.sent", samples.len());
        outcome.check("engine.evicted", engine.evicted);
    }
    outcome.notes.push(format!(
        "upload_ms_p50 = {:.4} ms over {} uploads (part of setup_s)",
        median(&serve.upload_ms),
        serve.upload_ms.len()
    ));
    outcome.notes.push(format!(
        "responses: {} x 200 ({}), {} x 503",
        serve.tally.render_200,
        TIER_LABELS
            .iter()
            .zip(serve.tally.by_tier)
            .map(|(label, count)| format!("{label} {count}"))
            .collect::<Vec<_>>()
            .join(", "),
        serve.tally.status_503
    ));
    outcome.check("engine.registered", engine.registered);
    outcome.check("engine.resident_bytes", engine.resident_bytes);
    if let Some(stats) = stats {
        outcome.notes.push(format!("GET /stats: {}", stats.text));
    }
    Ok(())
}

/// Checks `EngineStats` at quiescence: `completed == full_quality +
/// degraded`, the tiers sum to `completed`, nothing in flight.
pub fn engine_identities(stats: &EngineCounts, outcome: &mut Outcome) {
    outcome.attempted += 1;
    if stats.completed != stats.full_quality + stats.degraded {
        outcome.fail("completed != full_quality + degraded");
    }
    let by_tier: u64 = stats.by_tier.iter().sum();
    if by_tier != stats.completed || stats.in_flight != 0 {
        outcome.fail("engine counters do not reconcile at quiescence");
    }
}

/// What repeated bursts produced.
#[derive(Default)]
pub struct BurstTraffic {
    /// Resume to last completion, per burst.
    pub drains_ms: Vec<f64>,
    /// `(tier, milliseconds from resume to completion)` per served job.
    pub jobs: Vec<(usize, f64)>,
}

/// Repeats the burst until `budget` has passed (at least once), checking
/// every frame and that every burst splits exactly like the first.
pub fn burst_traffic(
    ready: &mut Ready,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    outcome: &mut Outcome,
) -> Result<BurstTraffic, String> {
    let burst = ready.burst.as_mut().ok_or("burst engine missing")?;
    let mut traffic = BurstTraffic::default();
    let started = Instant::now();
    while traffic.drains_ms.is_empty() || started.elapsed() < budget {
        let request = traffic.drains_ms.len() as u64;
        let span = trace
            .as_deref_mut()
            .map(|trace| trace.begin("splat-engine.burst", None, request));
        let (drain_ms, results) = run_burst(&burst.engine, &ready.inputs, &burst.scene_ids)?;
        if let (Some(trace), Some(span)) = (trace.as_deref_mut(), span) {
            trace.end(span);
        }
        traffic.drains_ms.push(drain_ms);
        outcome.attempted += results.len() as u64;
        let wrong = verify_burst(&ready.inputs, &mut burst.frame_refs, &results);
        if wrong > 0 {
            outcome.failed += wrong;
            outcome
                .failures
                .push(format!("burst: {wrong} wrong frames"));
        }
        let split: Vec<JobOutcome> = results.iter().map(|job| job.outcome).collect();
        if split != burst.expected {
            outcome.fail("burst split differs from the first burst");
        }
        for job in &results {
            if let JobOutcome::Done(tier) = job.outcome {
                traffic.jobs.push((tier, job.done_ms));
            }
        }
    }
    // Every burst so far, the warm-up one included, split the same way, so
    // the engine's cumulative counters are that split times the bursts
    // (plus set-up's one full-quality job per view).
    let stats = engine_counts(&burst.engine);
    engine_identities(&stats, outcome);
    let count = |wanted: fn(&JobOutcome) -> bool| {
        burst.expected.iter().filter(|job| wanted(job)).count() as u64
    };
    let done = count(|job| matches!(job, JobOutcome::Done(_)));
    let turned_away = count(|job| !matches!(job, JobOutcome::Done(_)));
    let in_bursts = stats.completed - ready.inputs.views.len() as u64;
    if !in_bursts.is_multiple_of(done.max(1))
        || stats.rejected != in_bursts / done.max(1) * turned_away
    {
        outcome.fail("EngineStats do not equal bursts x the per-burst split");
    }
    Ok(traffic)
}

fn measure_burst(ready: &mut Ready, seconds: f64, outcome: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds * TRAFFIC_SHARE);
    let traffic = burst_traffic(ready, budget, None, outcome)?;
    set_latency(outcome, &traffic.drains_ms);
    let drain_s: f64 = traffic.drains_ms.iter().sum::<f64>() / 1e3;
    outcome
        .metrics
        .set("goodput_per_s", traffic.jobs.len() as f64 / drain_s);
    let burst = ready.burst.as_ref().ok_or("burst engine missing")?;
    let stats = engine_counts(&burst.engine);
    outcome.metrics.set(
        "mem_bytes",
        (stats.resident_bytes + engine_footprint_bytes(&burst.engine)) as f64,
    );
    let count = |wanted: JobOutcome| burst.expected.iter().filter(|job| **job == wanted).count();
    let per_tier: Vec<String> = TIER_LABELS
        .iter()
        .enumerate()
        .map(|(tier, label)| format!("{label} {}", count(JobOutcome::Done(tier))))
        .collect();
    outcome.check(
        "burst.split",
        format!(
            "{BURST_JOBS} jobs: {} refused, {} shed, served {}",
            count(JobOutcome::Refused),
            count(JobOutcome::Shed),
            per_tier.join(", ")
        ),
    );
    outcome.check("engine.resident_bytes", stats.resident_bytes);
    outcome
        .notes
        .push(format!("bursts: {}", traffic.drains_ms.len()));
    outcome.notes.push(format!("EngineStats: {}", stats.json));
    Ok(())
}

/// The run with tracing off: set-up (`setup_repeats` times), then
/// `seconds` of measured work, every output checked.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
) -> Result<Outcome, String> {
    let (mut ready, setup_s) = setup_repeated(workload, seed, setup_repeats)?;
    let mut outcome = Outcome::default();
    outcome.metrics.set("setup_s", setup_s);
    outcome.attempted += ready.attempted;
    for failure in std::mem::take(&mut ready.failures) {
        outcome.fail(format!("set-up: {failure}"));
    }
    pair_checks(&mut outcome, &ready);
    let measured = match workload {
        Workload::OrbitRaster | Workload::OrbitFrontend => {
            measure_orbit(&mut ready, seconds, &mut outcome);
            Ok(())
        }
        Workload::ServeSteady | Workload::ServeThin => {
            measure_serve(&mut ready, seconds, &mut outcome)
        }
        Workload::EngineBurst => measure_burst(&mut ready, seconds, &mut outcome),
    };
    if !matches!(workload, Workload::OrbitRaster | Workload::OrbitFrontend) && measured.is_ok() {
        paired_segment(&mut ready, seconds, &mut outcome);
    }
    ready.teardown();
    measured?;
    Ok(outcome)
}
