//! Admission control for the asynchronous serving queue.
//!
//! A serving deployment at capacity has to decide what to do with the next
//! submission: make the caller wait, turn the caller away, or turn away
//! whoever in the queue is cheapest to reject. [`AdmissionPolicy`] picks
//! between those three, and [`ShutdownMode`] picks what happens to the
//! queue when the engine is torn down.
//!
//! The shedding policy follows the *deflation* idea from joint power and
//! admission control: when demand exceeds capacity, remove the
//! cheapest-to-reject request — lowest [`Priority`](splat_types::Priority)
//! class first, then the highest cost hint
//! ([`RenderRequest::cost_hint`](splat_core::RenderRequest::cost_hint),
//! rejecting it frees the most capacity), then the most recent arrival
//! (earlier submissions keep their place). The rule depends only on what
//! is queued, never on worker timing, so an over-capacity burst deflates
//! deterministically.

use splat_scene::QualityTier;
use splat_types::RenderError;

/// What [`Engine::submit`](crate::Engine::submit) does when the job queue
/// is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a worker frees a slot (the
    /// default). Backpressure propagates to the caller; nothing is ever
    /// rejected. With one worker, execution order is submission order.
    #[default]
    Block,
    /// Fail fast: return [`RenderError::Overloaded`] to the submitter
    /// without queueing. The queue itself is never disturbed.
    RejectWhenFull,
    /// Deflate: keep at most `capacity` queued jobs, and when a submission
    /// would exceed that, reject the cheapest-to-reject job — the incoming
    /// one or an already-queued one, whichever has the lowest priority
    /// (ties: highest cost hint, then latest arrival). A shed queued job's
    /// handle completes with `RenderError::Overloaded`.
    ShedLowPriority {
        /// Maximum number of queued (not yet running) jobs.
        capacity: usize,
    },
}

impl AdmissionPolicy {
    /// The queue capacity this policy enforces, given the engine's
    /// configured default capacity.
    pub(crate) fn capacity(self, default_capacity: usize) -> usize {
        match self {
            AdmissionPolicy::Block | AdmissionPolicy::RejectWhenFull => default_capacity.max(1),
            // Zero capacity is rejected by `validate` at build time, so no
            // silent clamping happens here.
            AdmissionPolicy::ShedLowPriority { capacity } => capacity,
        }
    }

    /// Rejects configurations that would otherwise be silently rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidConfiguration`] for
    /// `ShedLowPriority { capacity: 0 }` — a queue that can hold nothing
    /// would shed every submission, which is almost certainly a
    /// misconfiguration; earlier versions clamped it to 1 and silently
    /// served a different policy than the caller wrote.
    pub(crate) fn validate(self) -> Result<(), RenderError> {
        match self {
            AdmissionPolicy::ShedLowPriority { capacity: 0 } => {
                Err(RenderError::InvalidConfiguration {
                    reason: "ShedLowPriority capacity must be >= 1 (a zero-capacity queue \
                             would shed every submission)"
                        .to_owned(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Short stable label used in logs and JSON output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::RejectWhenFull => "reject-when-full",
            AdmissionPolicy::ShedLowPriority { .. } => "shed-low-priority",
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the engine trades quality for admission under queue pressure.
///
/// JPAC-style serving tunes service *quality* jointly with admission
/// instead of only turning requests away: under load, a cheaper frame
/// beats an `Overloaded` error. This policy maps the queue state observed
/// at admission — depth versus configured capacity — to a
/// [`QualityTier`] for the incoming job, **deterministically**: the same
/// queue state always picks the same tier, so a replayed burst degrades
/// identically.
///
/// With [`QualityPolicy::DegradeUnderPressure`], the ladder extends the
/// queue's effective bound: jobs that would have been shed at `capacity`
/// are admitted at a degraded tier until depth reaches `2 × capacity`,
/// and only then does the admission policy (shed/reject/block) fire —
/// degradation strictly precedes shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QualityPolicy {
    /// Every job renders at full quality; overload handling is left
    /// entirely to the [`AdmissionPolicy`] (the default, and the exact
    /// pre-ladder behaviour).
    #[default]
    FullOnly,
    /// Every job renders at the given tier regardless of queue state.
    /// Useful for capacity planning and for pinning golden tier digests.
    Pinned(QualityTier),
    /// Climb down the ladder as the queue fills, in three fixed bands of
    /// `depth * 100 / capacity`: [`QualityTier::Tier1`] from 50 %,
    /// [`QualityTier::Tier2`] from 75 %, [`QualityTier::Tier3`] from 100 %
    /// (the deepest band reached wins), so a job is served at full quality
    /// below half capacity and at the deepest degradation once the nominal
    /// capacity is reached.
    DegradeUnderPressure,
}

// The bands of `QualityPolicy::DegradeUnderPressure`: the queue depth, as
// a percentage of capacity, from which each degraded tier applies.
const TIER1_FROM_PCT: u64 = 50;
const TIER2_FROM_PCT: u64 = 75;
const TIER3_FROM_PCT: u64 = 100;

impl QualityPolicy {
    /// [`QualityPolicy::DegradeUnderPressure`], under the name every caller
    /// builds it by.
    pub fn degrade_default() -> Self {
        QualityPolicy::DegradeUnderPressure
    }

    /// Whether this policy can ever serve below full quality (and the
    /// registry should therefore prebuild LOD ladders at registration).
    pub fn can_degrade(self) -> bool {
        self != QualityPolicy::FullOnly
    }

    /// Whether this policy extends the queue bound beyond the admission
    /// capacity (degrade-before-shed doubles the effective bound).
    pub(crate) fn extends_queue(self) -> bool {
        self == QualityPolicy::DegradeUnderPressure
    }

    /// The tier a job admitted at queue `depth` (jobs queued, not yet
    /// running) serves at, for a queue configured with `capacity`.
    ///
    /// Pure integer arithmetic on the queue state — no clocks, no
    /// randomness — so the mapping is deterministic and replayable.
    pub(crate) fn tier_for(self, depth: usize, capacity: usize) -> QualityTier {
        match self {
            QualityPolicy::FullOnly => QualityTier::Full,
            QualityPolicy::Pinned(tier) => tier,
            QualityPolicy::DegradeUnderPressure => {
                let pct = (depth as u64).saturating_mul(100) / (capacity.max(1) as u64);
                if pct >= TIER3_FROM_PCT {
                    QualityTier::Tier3
                } else if pct >= TIER2_FROM_PCT {
                    QualityTier::Tier2
                } else if pct >= TIER1_FROM_PCT {
                    QualityTier::Tier1
                } else {
                    QualityTier::Full
                }
            }
        }
    }

    /// Short stable label used in logs and JSON output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            QualityPolicy::FullOnly => "full-only",
            QualityPolicy::Pinned(QualityTier::Full) => "pinned-full",
            QualityPolicy::Pinned(QualityTier::Tier1) => "pinned-t1",
            QualityPolicy::Pinned(QualityTier::Tier2) => "pinned-t2",
            QualityPolicy::Pinned(QualityTier::Tier3) => "pinned-t3",
            QualityPolicy::DegradeUnderPressure => "degrade-under-pressure",
        }
    }
}

impl std::fmt::Display for QualityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How [`Engine::shutdown`](crate::Engine::shutdown) disposes of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownMode {
    /// Serve every queued job, then stop the workers (the default).
    /// Submissions arriving after shutdown begins are rejected with
    /// `RenderError::ShutDown`. A paused engine is resumed so the drain
    /// can finish.
    #[default]
    Drain,
    /// Stop as soon as in-flight renders finish: every still-queued job's
    /// handle completes with `RenderError::ShutDown`.
    Abort,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_blocks() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Block);
        assert_eq!(ShutdownMode::default(), ShutdownMode::Drain);
    }

    #[test]
    fn shed_policy_overrides_the_default_capacity() {
        assert_eq!(AdmissionPolicy::Block.capacity(64), 64);
        assert_eq!(AdmissionPolicy::RejectWhenFull.capacity(64), 64);
        assert_eq!(
            AdmissionPolicy::ShedLowPriority { capacity: 3 }.capacity(64),
            3
        );
    }

    #[test]
    fn zero_default_capacity_is_clamped_but_zero_shed_capacity_is_rejected() {
        assert_eq!(AdmissionPolicy::Block.capacity(0), 1);
        // ShedLowPriority { capacity: 0 } used to be silently clamped to 1;
        // it is now a typed validation error instead of a rewritten config.
        assert!(AdmissionPolicy::Block.validate().is_ok());
        assert!(AdmissionPolicy::RejectWhenFull.validate().is_ok());
        assert!(AdmissionPolicy::ShedLowPriority { capacity: 1 }
            .validate()
            .is_ok());
        let error = AdmissionPolicy::ShedLowPriority { capacity: 0 }
            .validate()
            .expect_err("zero shed capacity must be rejected");
        assert!(matches!(error, RenderError::InvalidConfiguration { .. }));
        assert!(error.to_string().contains("capacity must be >= 1"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AdmissionPolicy::Block.to_string(), "block");
        assert_eq!(
            AdmissionPolicy::ShedLowPriority { capacity: 1 }.to_string(),
            "shed-low-priority"
        );
        assert_eq!(QualityPolicy::FullOnly.to_string(), "full-only");
        assert_eq!(
            QualityPolicy::Pinned(QualityTier::Tier2).to_string(),
            "pinned-t2"
        );
        assert_eq!(
            QualityPolicy::degrade_default().to_string(),
            "degrade-under-pressure"
        );
    }

    #[test]
    fn quality_policy_defaults_to_full_only() {
        assert_eq!(QualityPolicy::default(), QualityPolicy::FullOnly);
        assert!(!QualityPolicy::FullOnly.can_degrade());
        assert!(QualityPolicy::Pinned(QualityTier::Tier1).can_degrade());
        assert!(QualityPolicy::degrade_default().can_degrade());
        assert!(!QualityPolicy::FullOnly.extends_queue());
        assert!(!QualityPolicy::Pinned(QualityTier::Tier3).extends_queue());
        assert!(QualityPolicy::degrade_default().extends_queue());
    }

    #[test]
    fn tier_mapping_is_deterministic_in_queue_state() {
        let policy = QualityPolicy::degrade_default();
        // Same state, same tier — and the default thresholds carve the
        // depth range [0, 2*capacity) into the documented bands.
        let capacity = 4;
        let expected = [
            QualityTier::Full,  // depth 0 ->   0%
            QualityTier::Full,  // depth 1 ->  25%
            QualityTier::Tier1, // depth 2 ->  50%
            QualityTier::Tier2, // depth 3 ->  75%
            QualityTier::Tier3, // depth 4 -> 100%
            QualityTier::Tier3, // depth 5 -> 125%
            QualityTier::Tier3, // depth 6 -> 150%
            QualityTier::Tier3, // depth 7 -> 175%
        ];
        for (depth, want) in expected.iter().enumerate() {
            assert_eq!(policy.tier_for(depth, capacity), *want, "depth {depth}");
            assert_eq!(
                policy.tier_for(depth, capacity),
                policy.tier_for(depth, capacity),
                "replay at depth {depth}"
            );
        }
        assert_eq!(QualityPolicy::FullOnly.tier_for(1000, 1), QualityTier::Full);
        assert_eq!(
            QualityPolicy::Pinned(QualityTier::Tier2).tier_for(0, 64),
            QualityTier::Tier2
        );
    }
}
