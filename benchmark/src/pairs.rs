//! Paired laps: every view of a workload rendered back to back by a reused
//! GS-TG session and a reused baseline session, the order alternating per
//! lap. Timing the two pipelines view by view, back to back, is what makes
//! their ratio repeatable on a noisy box; the orbit workloads are nothing
//! but these laps, and the other workloads run a short segment of them on
//! their own scenes so `gstg_speedup` is defined everywhere.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::layers::{encode_frame, frame_digest, Counts, Sessions};
use crate::stats::median;
use crate::trace::Trace;

/// Per-view facts established by the warm-up lap, which every timed frame
/// is then checked against.
pub struct PairReference {
    /// Canonical digest of each view's frame (GS-TG == baseline).
    pub digests: Vec<u64>,
    pub gstg_counts: Vec<Counts>,
    pub baseline_counts: Vec<Counts>,
    /// `encode_frame` of each view's frame, when asked for: what a
    /// full-quality `/render` response body must equal.
    pub encoded: Vec<Vec<u8>>,
    /// Views on which the two pipelines disagreed during warm-up.
    pub mismatches: u64,
}

/// The warm-up lap: fills the sessions' arenas and records the reference.
pub fn warm_up(sessions: &mut Sessions, inputs: &Inputs, want_encoded: bool) -> PairReference {
    let mut reference = PairReference {
        digests: Vec::new(),
        gstg_counts: Vec::new(),
        baseline_counts: Vec::new(),
        encoded: Vec::new(),
        mismatches: 0,
    };
    for (scene, view) in &inputs.views {
        let scene = &inputs.scenes[*scene];
        let camera = view.camera();
        let (image, counts) = sessions.render_baseline(scene, &camera);
        let baseline_digest = frame_digest(image);
        reference.baseline_counts.push(counts);
        let (image, counts) = sessions.render_gstg(scene, &camera);
        let digest = frame_digest(image);
        if want_encoded {
            reference.encoded.push(encode_frame(image));
        }
        reference.gstg_counts.push(counts);
        reference.digests.push(digest);
        if digest != baseline_digest {
            reference.mismatches += 1;
        }
    }
    reference
}

#[derive(Default)]
pub struct PairSamples {
    /// Milliseconds per GS-TG frame, in render order.
    pub gstg_ms: Vec<f64>,
    pub baseline_ms: Vec<f64>,
    /// Frames rendered (both pipelines) and frames whose digest or counters
    /// differed from the reference.
    pub frames: u64,
    pub failed: u64,
    pub laps: u64,
}

impl PairSamples {
    /// Median over view pairs of baseline time / GS-TG time.
    pub fn speedup(&self) -> f64 {
        let ratios: Vec<f64> = self
            .gstg_ms
            .iter()
            .zip(&self.baseline_ms)
            .map(|(gstg, baseline)| baseline / gstg)
            .collect();
        median(&ratios)
    }
}

/// Runs whole laps until `budget` has passed (at least one lap), recording
/// a span per frame when given a trace.
pub fn laps(
    sessions: &mut Sessions,
    inputs: &Inputs,
    reference: &PairReference,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) -> PairSamples {
    let mut samples = PairSamples::default();
    let started = Instant::now();
    while samples.laps == 0 || started.elapsed() < budget {
        let gstg_first = samples.laps % 2 == 0;
        for (index, (scene, view)) in inputs.views.iter().enumerate() {
            let scene = &inputs.scenes[*scene];
            let camera = view.camera();
            let mut gstg_ms = 0.0;
            let mut baseline_ms = 0.0;
            for gstg_turn in [gstg_first, !gstg_first] {
                let span = trace.as_deref_mut().map(|trace| {
                    let name = if gstg_turn {
                        "gstg.session.frame"
                    } else {
                        "splat-render.session.frame"
                    };
                    trace.begin(name, None, samples.gstg_ms.len() as u64)
                });
                let start = Instant::now();
                let (image, counts) = if gstg_turn {
                    sessions.render_gstg(black_box(scene), black_box(&camera))
                } else {
                    sessions.render_baseline(black_box(scene), black_box(&camera))
                };
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                if let (Some(trace), Some(span)) = (trace.as_deref_mut(), span) {
                    trace.end(span);
                }
                let expected = if gstg_turn {
                    gstg_ms = elapsed;
                    &reference.gstg_counts[index]
                } else {
                    baseline_ms = elapsed;
                    &reference.baseline_counts[index]
                };
                samples.frames += 1;
                if frame_digest(image) != reference.digests[index] || counts != *expected {
                    samples.failed += 1;
                }
            }
            samples.gstg_ms.push(gstg_ms);
            samples.baseline_ms.push(baseline_ms);
        }
        samples.laps += 1;
    }
    samples
}
