//! The names this benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the root of
//! the repository declares the same sets (`tests/names.rs` pins that), and
//! [`Metrics`] refuses to print a set that differs from the declared one.

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "orbit-raster",
        "closed loop, sessions only, 12k-splat indoor scene at 256x160: raster is 3/4 of the frame, so raster work shows here and front-end work must not",
    ),
    (
        "orbit-frontend",
        "closed loop, sessions only, 80k-splat outdoor scene at 96x64, half the splats culled: preprocess+identify+sort are 3/4 of the frame, so front-end and sort-key work shows here and raster work must not",
    ),
    (
        "serve-steady",
        "open loop over the wire: Poisson arrivals at 24/s, a third to half of one worker's capacity, on 8k-splat scenes, timed from due; render is 90% of the round trip, so kernel gains show in p50 and p90",
    ),
    (
        "serve-thin",
        "closed loop over the wire, one keep-alive connection, 200-splat scene at 320x240 (921 KB a frame): server+engine cost per request and per byte is a third of the round trip; kernel work barely moves it",
    ),
    (
        "engine-burst",
        "engine only: 32 jobs with seeded priorities into a paused 8-deep shedding queue with the quality ladder, then drained; the only workload on the degraded render tiers and deep-queue victim selection",
    ),
];

/// `(name, unit)` of every end-to-end metric; every workload reports all of
/// them from a run with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("goodput_per_s", "1/s"),
    ("gstg_speedup", "x"),
    ("mem_bytes", "bytes"),
];

/// `(name, unit)` of every per-layer metric (`<crate>.<module>.<metric>`);
/// every workload reports all of them from a traced run, measured on that
/// workload's scene and views.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("splat-render.preprocess.ms_p50", "ms"),
    ("splat-render.preprocess.ns_per_splat", "ns"),
    ("splat-render.preprocess.visible_share", "share"),
    ("gstg.group.identify_ms_p50", "ms"),
    ("gstg.group.tile_hit_share", "share"),
    ("gstg.sort.ms_p50", "ms"),
    ("gstg.sort.keys", "count"),
    ("gstg.sort.key_ratio", "x"),
    ("gstg.sort.ns_per_key", "ns"),
    ("gstg.raster.ms_p50", "ms"),
    ("gstg.raster.alpha_computations", "count"),
    ("gstg.raster.blend_share", "share"),
    ("gstg.raster.bitmask_filter_ops", "count"),
    ("gstg.raster.ns_per_alpha", "ns"),
    ("gstg.raster.frame_share", "share"),
    ("gstg.frontend.frame_share", "share"),
    ("gstg.session.frame_ms_p50", "ms"),
    ("gstg.session.glue_ms_p50", "ms"),
    ("gstg.session.stage_sum_share", "share"),
    ("splat-render.tiling.identify_ms_p50", "ms"),
    ("splat-render.sort.ms_p50", "ms"),
    ("splat-render.sort.keys", "count"),
    ("splat-render.raster.ms_p50", "ms"),
    ("splat-render.raster.alpha_computations", "count"),
    ("splat-core.arena.footprint_bytes", "bytes"),
    ("splat-accel.sim.cycles_baseline", "cycles"),
    ("splat-accel.sim.cycles_gstg", "cycles"),
    ("splat-accel.sim.speedup", "x"),
    ("splat-engine.submit.overhead_ms_p50", "ms"),
    ("splat-engine.queue.wait_ms_p50", "ms"),
    ("splat-engine.queue.wait_ms_p90", "ms"),
    ("splat-engine.queue.high_water", "count"),
    ("splat-engine.tier.full.ms_p50", "ms"),
    ("splat-engine.tier.t1.ms_p50", "ms"),
    ("splat-engine.tier.t2.ms_p50", "ms"),
    ("splat-engine.tier.t3.ms_p50", "ms"),
    ("splat-engine.policy.admitted", "count"),
    ("splat-engine.policy.rejected", "count"),
    ("splat-engine.policy.full", "count"),
    ("splat-engine.policy.t1", "count"),
    ("splat-engine.policy.t2", "count"),
    ("splat-engine.policy.t3", "count"),
    ("splat-engine.registry.register_ms_p50", "ms"),
    ("splat-engine.registry.evictions", "count"),
    ("splat-engine.registry.resident_bytes", "bytes"),
    ("splat-scene.io.decode_ms_p50", "ms"),
    ("splat-scene.io.bytes_per_splat", "bytes"),
    ("splat-scene.lod.build_ms_p50", "ms"),
    ("splat-scene.soa.build_ms_p50", "ms"),
    ("splat-server.upload.ms_p50", "ms"),
    ("splat-server.http.overhead_ms_p50", "ms"),
    ("splat-server.serving.overhead_share", "share"),
    ("splat-server.json.parse_us_p50", "us"),
    ("splat-server.wire.encode_us_p50", "us"),
    ("splat-server.wire.decode_us_p50", "us"),
    ("splat-server.wire.digest_us_p50", "us"),
    ("splat-server.wire.bytes_per_frame", "bytes"),
    ("splat-server.stats.requests", "count"),
    ("splat-server.stats.ok", "count"),
    ("splat-server.stats.overloaded", "count"),
    ("splat-server.stats.bytes_in", "bytes"),
    ("splat-server.stats.bytes_out", "bytes"),
    ("bench.generator.late_ms_p90", "ms"),
    ("bench.latency.ms_p90", "ms"),
    ("bench.trace.overhead_share", "share"),
];

/// Measured values, keyed by metric name, checked against one of the
/// declared sets before anything is printed.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| *value)
    }

    /// `(name, value, unit)` in declaration order, or the names that are
    /// missing, duplicated, undeclared or not finite.
    pub fn declared(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, Vec<String>> {
        let mut problems = Vec::new();
        for (name, _) in &self.values {
            if !declared.iter().any(|(key, _)| key == name) {
                problems.push(format!("undeclared metric `{name}`"));
            }
            if self.values.iter().filter(|(key, _)| key == name).count() > 1 {
                problems.push(format!("metric `{name}` set twice"));
            }
        }
        let mut rows = Vec::new();
        for (name, unit) in declared {
            match self.get(name) {
                Some(value) if value.is_finite() => rows.push((*name, value, *unit)),
                Some(value) => problems.push(format!("metric `{name}` is {value}")),
                None => problems.push(format!("metric `{name}` was not measured")),
            }
        }
        if problems.is_empty() {
            Ok(rows)
        } else {
            problems.sort();
            problems.dedup();
            Err(problems)
        }
    }
}
