//! The serving stack as the benchmark drives it: an engine and an
//! in-process server on `127.0.0.1:0`, the load generator's open and
//! closed loops over keep-alive connections, the check of every response
//! against a local reference render, and the reconciliation of
//! `GET /stats` against the client's own tallies.
//!
//! The generator is one process with at most [`CONNECTIONS`] threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::{Inputs, MAX_RESIDENT_SCENES};
use crate::layers::{
    build_engine, decode_frame, frame_digest, start_server, Admission, Client, Door, EngineRef,
    EngineSpec, Quality, Reference, Rendered, TIER_COUNT,
};
use crate::pairs::PairReference;
use crate::trace::Trace;

/// Engine workers, server workers and the open loop's connections: sized
/// for the two cores of the box the benchmark was defined on.
pub const ENGINE_WORKERS: usize = 1;
pub const SERVER_WORKERS: usize = 2;
pub const CONNECTIONS: usize = 2;
pub const QUEUE_CAPACITY: usize = 8;

/// The engine every wire workload and every wire probe runs against.
pub fn serving_engine() -> Result<EngineRef, String> {
    build_engine(EngineSpec {
        workers: ENGINE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        admission: Admission::RejectWhenFull,
        quality: Quality::DegradeDefault,
        max_resident_scenes: Some(MAX_RESIDENT_SCENES),
    })
}

/// An engine behind a front door.
pub struct Stack {
    pub engine: EngineRef,
    pub door: Door,
    pub addr: String,
}

impl Stack {
    pub fn start() -> Result<Self, String> {
        let engine = serving_engine()?;
        let door = start_server(Arc::clone(&engine), SERVER_WORKERS)?;
        let addr = door.addr();
        Ok(Self { engine, door, addr })
    }
}

/// What the client saw, tallied for reconciliation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientTally {
    pub uploads: u64,
    pub renders: u64,
    pub stats_calls: u64,
    pub status_2xx: u64,
    pub status_503: u64,
    pub status_other: u64,
    pub render_200: u64,
    pub by_tier: [u64; TIER_COUNT],
    /// Scenes registered and jobs submitted on the engine directly, not
    /// through the door (the traced run's probes do both).
    pub direct_registrations: u64,
    pub direct_jobs_by_tier: [u64; TIER_COUNT],
}

impl ClientTally {
    pub fn count_status(&mut self, status: u16) {
        match status {
            200..=299 => self.status_2xx += 1,
            503 => self.status_503 += 1,
            _ => self.status_other += 1,
        }
    }

    pub fn count_render(&mut self, response: &Rendered) {
        self.renders += 1;
        self.count_status(response.status);
        if response.status == 200 {
            self.render_200 += 1;
            if let Some(tier) = response.tier {
                self.by_tier[tier] += 1;
            }
        }
    }

    pub fn merge(&mut self, other: &ClientTally) {
        self.uploads += other.uploads;
        self.renders += other.renders;
        self.stats_calls += other.stats_calls;
        self.status_2xx += other.status_2xx;
        self.status_503 += other.status_503;
        self.status_other += other.status_other;
        self.render_200 += other.render_200;
        self.direct_registrations += other.direct_registrations;
        for tier in 0..TIER_COUNT {
            self.by_tier[tier] += other.by_tier[tier];
            self.direct_jobs_by_tier[tier] += other.direct_jobs_by_tier[tier];
        }
    }
}

/// Local reference frames by `(view, tier)`: full quality comes from the
/// warm-up lap, degraded tiers are rendered on first use.
pub struct FrameRefs {
    references: Vec<Reference>,
    full: Arc<PairReference>,
    degraded: BTreeMap<(usize, usize), u64>,
}

impl FrameRefs {
    pub fn new(inputs: &Inputs, full: Arc<PairReference>) -> Self {
        Self {
            references: inputs
                .scenes
                .iter()
                .map(|scene| Reference::new(Arc::clone(scene)))
                .collect(),
            full,
            degraded: BTreeMap::new(),
        }
    }

    /// The reference digest of `view` served at `tier`.
    pub fn digest(&mut self, inputs: &Inputs, view: usize, tier: usize) -> u64 {
        if tier == 0 {
            return self.full.digests[view];
        }
        let references = &mut self.references;
        *self.degraded.entry((view, tier)).or_insert_with(|| {
            let (scene, pose) = &inputs.views[view];
            frame_digest(&references[*scene].render(&pose.camera(), tier))
        })
    }
}

/// One `/render` exchange as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub view: usize,
    /// Seconds from the start of the run at which the request was due
    /// (open loop) or was sent (closed loop), was sent, and was answered.
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub status: u16,
    pub tier: Option<usize>,
    /// The response was a `200` whose digest header and body were checked
    /// and found right (full quality), or whose check is deferred.
    pub verified: bool,
    /// A degraded `200`: the body's own digest, to be compared with a
    /// reference rendered after the run.
    pub deferred_digest: Option<u64>,
}

impl Sample {
    /// Milliseconds from due to last byte.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// Milliseconds the generator sent the request after it was due.
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Checks a response against the full-quality reference in place; a
/// degraded frame is decoded and its digest kept for later.
fn check(response: &Rendered, view: usize, full: &PairReference) -> (bool, Option<u64>) {
    if response.status != 200 {
        return (false, None);
    }
    match response.tier {
        Some(0) => (
            response.digest == Some(full.digests[view]) && response.body == full.encoded[view],
            None,
        ),
        Some(_) => match decode_frame(&response.body) {
            Some(image) => {
                let digest = frame_digest(&image);
                (response.digest == Some(digest), Some(digest))
            }
            None => (false, None),
        },
        None => (false, None),
    }
}

/// What one generator thread brings back.
pub struct ThreadResult {
    pub samples: Vec<Sample>,
    pub tally: ClientTally,
    pub trace: Option<Trace>,
    pub error: Option<String>,
}

/// The request plan shared by the generator threads.
pub struct Plan {
    pub addr: String,
    /// `/render` body per view.
    pub bodies: Vec<String>,
    pub full: Arc<PairReference>,
    /// Record a span per round trip against this epoch.
    pub trace_epoch: Option<Instant>,
}

fn exchange(
    client: &mut Client,
    plan: &Plan,
    view: usize,
    due_s: Option<f64>,
    started: Instant,
    request: u64,
    result: &mut ThreadResult,
) -> Result<(), String> {
    let span = result
        .trace
        .as_mut()
        .map(|trace| trace.begin("splat-server.round_trip", None, request));
    let sent_s = started.elapsed().as_secs_f64();
    let response = client.render(&plan.bodies[view])?;
    let done_s = started.elapsed().as_secs_f64();
    if let (Some(trace), Some(span)) = (result.trace.as_mut(), span) {
        trace.end(span);
    }
    result.tally.count_render(&response);
    let (verified, deferred_digest) = check(&response, view, &plan.full);
    result.samples.push(Sample {
        view,
        // A closed loop's request is due when it is sent.
        due_s: due_s.unwrap_or(sent_s),
        sent_s,
        done_s,
        status: response.status,
        tier: response.tier,
        verified,
        deferred_digest,
    });
    Ok(())
}

fn generator_threads(
    plan: Arc<Plan>,
    connections: usize,
    work: impl Fn(usize, &mut Client, &Plan, &mut ThreadResult) -> Result<(), String>
        + Send
        + Sync
        + 'static,
) -> Vec<ThreadResult> {
    let work = Arc::new(work);
    let threads: Vec<_> = (0..connections)
        .map(|thread| {
            let plan = Arc::clone(&plan);
            let work = Arc::clone(&work);
            std::thread::spawn(move || {
                let mut result = ThreadResult {
                    samples: Vec::new(),
                    tally: ClientTally::default(),
                    trace: plan.trace_epoch.map(Trace::new),
                    error: None,
                };
                match Client::open(&plan.addr) {
                    Ok(mut client) => {
                        if let Err(error) = work(thread, &mut client, &plan, &mut result) {
                            result.error = Some(error);
                        }
                    }
                    Err(error) => result.error = Some(error),
                }
                result
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|thread| {
            thread.join().unwrap_or_else(|_| ThreadResult {
                samples: Vec::new(),
                tally: ClientTally::default(),
                trace: None,
                error: Some("generator thread panicked".to_string()),
            })
        })
        .collect()
}

/// Open loop: request `i` is due at `schedule[i].0` seconds and goes out on
/// whichever connection is free first; it is timed from its due instant,
/// so the wait for a connection counts.
pub fn open_loop(plan: Arc<Plan>, schedule: Arc<Vec<(f64, usize)>>) -> Vec<ThreadResult> {
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now() + Duration::from_millis(20);
    generator_threads(plan, CONNECTIONS, move |_, client, plan, result| loop {
        let index = next.fetch_add(1, Ordering::SeqCst);
        let Some(&(due_s, view)) = schedule.get(index) else {
            return Ok(());
        };
        let due = started + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        exchange(
            client,
            plan,
            view,
            Some(due_s),
            started,
            index as u64,
            result,
        )?;
    })
}

/// Closed loop: one connection sends its next request when the previous
/// one is answered, cycling through the views, until `budget` has passed.
///
/// One connection, not two: with two, a render always overlaps the other
/// request's transfer, five threads contend for two cores, and where the
/// scheduler happens to put them moved the median round trip by 18 %
/// between runs of one seed on the box this was defined on (7 % with one).
pub fn closed_loop(plan: Arc<Plan>, budget: Duration) -> Vec<ThreadResult> {
    let started = Instant::now();
    generator_threads(plan, 1, move |_, client, plan, result| {
        let views = plan.bodies.len();
        let mut step = 0;
        while started.elapsed() < budget {
            exchange(
                client,
                plan,
                step % views,
                None,
                started,
                step as u64,
                result,
            )?;
            step += 1;
        }
        Ok(())
    })
}

/// Failures found by comparing `GET /stats` with what the client counted.
/// `tally` must already include the stats call itself.
pub fn reconcile(stats: &crate::layers::WireStats, tally: &ClientTally) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |name: &str, left: Option<u64>, right: u64| {
        if left != Some(right) {
            failures.push(format!("{name}: {left:?} != {right}"));
        }
    };
    let server = |field: &str| stats.get("server", field);
    let engine = |field: &str| stats.get("engine", field);
    let sum = |fields: &[&str]| -> Option<u64> { fields.iter().map(|f| server(f)).sum() };
    let requests = server("requests").unwrap_or(u64::MAX);
    check(
        "requests == routed",
        sum(&[
            "scenes_requests",
            "render_requests",
            "trajectory_requests",
            "stats_requests",
            "health_requests",
            "shutdown_requests",
            "unrouted_requests",
        ]),
        requests,
    );
    check(
        "requests == responded",
        sum(&[
            "ok",
            "bad_request",
            "not_found",
            "gone",
            "payload_too_large",
            "overloaded",
        ]),
        requests,
    );
    check(
        "requests == sent",
        server("requests"),
        tally.uploads + tally.renders + tally.stats_calls,
    );
    check(
        "scenes_requests == uploads",
        server("scenes_requests"),
        tally.uploads,
    );
    check(
        "render_requests == renders",
        server("render_requests"),
        tally.renders,
    );
    check("ok == 2xx seen", server("ok"), tally.status_2xx);
    check(
        "overloaded == 503 seen",
        server("overloaded"),
        tally.status_503,
    );
    check("no other status", Some(tally.status_other), 0);
    check(
        "engine.completed == 200 renders + direct jobs",
        engine("completed"),
        tally.render_200 + tally.direct_jobs_by_tier.iter().sum::<u64>(),
    );
    check(
        "engine.rejected == 503 seen",
        engine("rejected"),
        tally.status_503,
    );
    check(
        "completed == full_quality + degraded",
        engine("full_quality")
            .zip(engine("degraded"))
            .map(|(full, degraded)| full + degraded),
        engine("completed").unwrap_or(u64::MAX),
    );
    for (tier, field) in ["full_quality", "degraded_t1", "degraded_t2", "degraded_t3"]
        .iter()
        .enumerate()
    {
        check(
            field,
            engine(field),
            tally.by_tier[tier] + tally.direct_jobs_by_tier[tier],
        );
    }
    check(
        "registered == uploads + direct registrations",
        engine("registered"),
        tally.uploads + tally.direct_registrations,
    );
    check(
        "registered == resident + evicted",
        engine("resident_scenes")
            .zip(engine("evicted"))
            .map(|(resident, evicted)| resident + evicted),
        engine("registered").unwrap_or(u64::MAX),
    );
    failures
}
