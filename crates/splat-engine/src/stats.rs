//! Observable serving counters.

splat_types::counters! {
    /// A point-in-time snapshot of the engine's serving counters, taken with
    /// [`Engine::stats`](crate::Engine::stats).
    ///
    /// Counters are cumulative over the engine's lifetime; `queued`, `active`,
    /// `resident_scenes` and `resident_bytes` are instantaneous gauges. The
    /// bookkeeping identities that hold at every snapshot — jobs on the fast
    /// timescale, scenes on the slow one — are declared once, in
    /// [`identities`](EngineStats::identities).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    #[non_exhaustive]
    pub struct EngineStats {
        /// Jobs admitted into the queue.
        submitted: u64,
        /// Jobs fully served by a worker (whether the render succeeded or
        /// returned a typed error).
        completed: u64,
        /// Completed jobs served at [`QualityTier::Full`](splat_scene::lod::QualityTier).
        full_quality: u64,
        /// Completed jobs served below full quality by the `QualityPolicy`
        /// ladder (the sum of the three per-tier counters).
        degraded: u64,
        /// Completed jobs served at tier 1 (reduced SH degree).
        degraded_t1: u64,
        /// Completed jobs served at tier 2 (tier 1 + opacity pruning).
        degraded_t2: u64,
        /// Completed jobs served at tier 3 (tier 2 + decimation, rendered at
        /// half resolution and upsampled at delivery).
        degraded_t3: u64,
        /// Jobs rejected with `RenderError::Overloaded`: submissions refused at
        /// the door (`RejectWhenFull`, or an incoming job that lost the
        /// shedding comparison) plus queued jobs deflated by `ShedLowPriority`.
        rejected: u64,
        /// The part of `rejected` that was admitted (`submitted`) first and
        /// deflated from the queue later by `ShedLowPriority`; the rest of
        /// `rejected` was turned away at the door and never `submitted`.
        shed: u64,
        /// Jobs withdrawn before running: cancelled through their handle, or
        /// discarded by an aborting shutdown (`RenderError::ShutDown`).
        cancelled: u64,
        /// Jobs currently waiting in the queue.
        queued: usize,
        /// Jobs currently being rendered by workers.
        active: usize,
        /// The largest queue length ever observed — how close the engine came
        /// to its admission capacity.
        queue_high_water: usize,
        /// Scenes ever registered through `Engine::register_scene`.
        registered: u64,
        /// Scenes removed from the resident set: deflated by the
        /// `ResidencyPolicy` or explicitly evicted via `Engine::evict_scene`.
        evicted: u64,
        /// Scene-handle resolutions that led to an admitted job or a served
        /// render. A resolution whose job was then refused (validation or
        /// admission control) counts neither a hit nor a recency touch, so
        /// rejected traffic cannot distort the LRU eviction order.
        scene_hits: u64,
        /// Scene-handle resolutions that missed (`RenderError::UnknownScene`
        /// or `RenderError::Evicted`).
        scene_misses: u64,
        /// Scenes currently resident in the registry.
        resident_scenes: usize,
        /// Total `Scene::footprint_bytes` of the resident scenes — bounded by
        /// the `ResidencyPolicy` byte budget.
        resident_bytes: usize,
    }
}

impl EngineStats {
    /// Jobs admitted but not yet finished (queued + active).
    pub fn in_flight(&self) -> usize {
        self.queued + self.active
    }

    /// The bookkeeping identities that hold at every snapshot, as
    /// `(name, left, right)` with `left == right`: completions split by
    /// quality tier, every registered scene is resident or evicted, and
    /// every admitted job is finished, withdrawn, shed or still in flight.
    pub fn identities(&self) -> [(&'static str, u64, u64); 4] {
        [
            (
                "completed == full_quality + degraded",
                self.completed,
                self.full_quality + self.degraded,
            ),
            (
                "degraded == t1 + t2 + t3",
                self.degraded,
                self.degraded_t1 + self.degraded_t2 + self.degraded_t3,
            ),
            (
                "registered == resident_scenes + evicted",
                self.registered,
                self.resident_scenes as u64 + self.evicted,
            ),
            (
                "submitted == completed + cancelled + shed + queued + active",
                self.submitted,
                self.completed + self.cancelled + self.shed + self.in_flight() as u64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_sums_the_gauges() {
        let stats = EngineStats {
            queued: 3,
            active: 2,
            ..Default::default()
        };
        assert_eq!(stats.in_flight(), 5);
    }

    /// Field *i* holds the *i*-th prime, so every value is distinct.
    fn sample() -> EngineStats {
        const PRIMES: [u64; 19] = [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
        ];
        EngineStats::from(PRIMES)
    }

    #[test]
    fn json_and_display_cover_every_counter() {
        let (json, text) = (sample().to_json(), sample().to_string());
        for (name, value) in EngineStats::FIELDS.iter().zip(sample().values()) {
            assert!(
                json.contains(&format!("\"{name}\":{value}")),
                "missing {name} in {json}"
            );
            assert!(
                text.contains(&format!("{value} {name}")),
                "missing {name} in {text}"
            );
        }
    }

    /// Key order and formatting are consumed by `GET /stats` clients and
    /// `splat-serve`'s final stdout line.
    #[test]
    fn json_bytes_are_pinned() {
        assert_eq!(
            sample().to_json(),
            "{\"submitted\":2,\"completed\":3,\"full_quality\":5,\"degraded\":7,\
             \"degraded_t1\":11,\"degraded_t2\":13,\"degraded_t3\":17,\
             \"rejected\":19,\"shed\":23,\"cancelled\":29,\
             \"queued\":31,\"active\":37,\"queue_high_water\":41,\
             \"registered\":43,\"evicted\":47,\"scene_hits\":53,\"scene_misses\":59,\
             \"resident_scenes\":61,\"resident_bytes\":67}"
        );
    }

    /// A balanced book, then each identity broken in turn by bumping one
    /// of its terms: exactly the identities naming that term fail.
    fn balanced() -> EngineStats {
        EngineStats {
            submitted: 12,
            completed: 6,
            full_quality: 4,
            degraded: 2,
            degraded_t1: 1,
            degraded_t3: 1,
            rejected: 5,
            shed: 2,
            cancelled: 1,
            queued: 2,
            active: 1,
            registered: 5,
            evicted: 3,
            resident_scenes: 2,
            ..Default::default()
        }
    }

    /// Indices (into the `identities()` table) of the identities that fail.
    fn failing(stats: &EngineStats) -> Vec<usize> {
        let identities = stats.identities();
        (0..identities.len())
            .filter(|&index| identities[index].1 != identities[index].2)
            .collect()
    }

    #[test]
    fn quality_identity_reconciles_in_the_documented_way() {
        assert_eq!(failing(&balanced()), []);
        let mut stats = balanced();
        stats.full_quality += 1;
        assert_eq!(failing(&stats), [0], "completed no longer splits");
        let mut stats = balanced();
        stats.degraded_t2 += 1;
        assert_eq!(failing(&stats), [1], "the tiers no longer sum to degraded");
    }

    #[test]
    fn registry_identity_reconciles_in_the_documented_way() {
        let mut stats = balanced();
        stats.evicted += 1;
        assert_eq!(failing(&stats), [2]);
    }

    #[test]
    fn job_identity_counts_shed_victims_once() {
        // A shed victim was `submitted` and is in `rejected`; only `shed`
        // lets a snapshot tell it from a refusal at the door.
        let mut stats = balanced();
        stats.rejected += 1;
        assert_eq!(failing(&stats), [], "a door refusal");
        stats.shed += 1;
        assert_eq!(failing(&stats), [3]);
    }
}
