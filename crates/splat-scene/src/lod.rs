//! Deterministic level-of-detail ladder for quality-degraded serving.
//!
//! Overloaded serving wants a cheaper frame, not a refusal: the JPAC line
//! of work tunes service *quality* jointly with admission instead of
//! shedding outright. This module is the scene half of that ladder — a
//! fixed sequence of [`QualityTier`]s, each derived **deterministically**
//! from the full scene (stable index order, no randomness, no
//! configuration), so a degraded frame is bit-reproducible across
//! threads and pipelines exactly like a full-quality one.
//!
//! The ladder is cumulative — every step keeps the previous step's
//! reductions and adds one more:
//!
//! | Tier | Derivation | Saves |
//! |---|---|---|
//! | [`QualityTier::Full`] | the scene itself | — |
//! | [`QualityTier::Tier1`] | SH degree capped at `REDUCED_SH_DEGREE` (0, the base color) | SH evaluation + bandwidth |
//! | [`QualityTier::Tier2`] | + opacity-pruned splats | preprocessing + sorting |
//! | [`QualityTier::Tier3`] | + 2:1 decimation, rendered at half resolution | everything, ~4× pixels |
//!
//! [`LodLadder::build`] derives all three tiers once (the serving engine
//! does this at `register_scene` and shares them via `Arc`, so no job ever
//! derives a scene); [`QualityTier::apply`] derives a single tier on
//! demand and is the oracle the ladder is tested against.

use crate::scene::Scene;
use splat_types::{coefficient_count, Gaussian3d, Rgb, ShCoefficients};
use std::sync::Arc;

/// Opacity below which a splat is dropped at [`QualityTier::Tier2`].
///
/// Nearly transparent splats contribute little to the blend but cost the
/// full preprocessing/sorting path; pruning them first is the cheapest
/// rung of the ladder after SH reduction.
pub(crate) const OPACITY_PRUNE_THRESHOLD: f32 = 0.2;

/// Decimation stride of [`QualityTier::Tier3`]: every `DECIMATION_STRIDE`-th
/// splat (starting at index 0) is kept.
pub(crate) const DECIMATION_STRIDE: usize = 2;

/// SH degree cap applied from [`QualityTier::Tier1`] down.
///
/// Zero keeps only the DC band: degraded serves drop view-dependent color
/// entirely, which degrades every scene (the synthetic evaluation set
/// carries degree-1 SH, so any higher cap would be a no-op rung there).
pub(crate) const REDUCED_SH_DEGREE: usize = 0;

/// One rung of the serving quality ladder.
///
/// Tiers order by degradation: `Full < Tier1 < Tier2 < Tier3`. The engine's
/// `QualityPolicy` maps queue pressure to a tier; the scene side of each
/// tier is derived by [`QualityTier::apply`] / [`LodLadder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QualityTier {
    /// Full quality: the scene exactly as registered.
    #[default]
    Full,
    /// SH degree capped at `REDUCED_SH_DEGREE`: view-dependent color
    /// keeps only the DC band.
    Tier1,
    /// [`QualityTier::Tier1`] plus opacity pruning below
    /// `OPACITY_PRUNE_THRESHOLD` (stable index order; falls back to the
    /// unpruned set rather than ever serving an empty scene).
    Tier2,
    /// [`QualityTier::Tier2`] plus 2:1 decimation, rendered at half
    /// resolution and upsampled (nearest-neighbor) at delivery.
    Tier3,
}

impl QualityTier {
    /// Every tier, most to least faithful.
    pub const ALL: [QualityTier; 4] = [
        QualityTier::Full,
        QualityTier::Tier1,
        QualityTier::Tier2,
        QualityTier::Tier3,
    ];

    /// Short stable label used in flags, tables and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            QualityTier::Full => "full",
            QualityTier::Tier1 => "t1",
            QualityTier::Tier2 => "t2",
            QualityTier::Tier3 => "t3",
        }
    }

    /// Parses a [`QualityTier::label`] back into a tier.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "full" => Some(QualityTier::Full),
            "t1" => Some(QualityTier::Tier1),
            "t2" => Some(QualityTier::Tier2),
            "t3" => Some(QualityTier::Tier3),
            _ => None,
        }
    }

    /// Whether this tier serves below full quality.
    #[inline]
    pub fn is_degraded(self) -> bool {
        self != QualityTier::Full
    }

    /// Whether this tier renders at half resolution (the framebuffer is
    /// upsampled back to the requested dimensions at delivery).
    #[inline]
    pub fn half_resolution(self) -> bool {
        self == QualityTier::Tier3
    }

    /// Derives this tier's scene from a full-quality scene.
    ///
    /// [`QualityTier::Full`] returns a plain clone. The derivation is
    /// cumulative and deterministic: applying the same tier to the same
    /// scene always yields an identical scene (pinned by the golden-frame
    /// tier digests).
    pub fn apply(self, scene: &Scene) -> Scene {
        match self {
            QualityTier::Full => scene.clone(),
            QualityTier::Tier1 => scene.with_max_sh_degree(REDUCED_SH_DEGREE),
            QualityTier::Tier2 => QualityTier::Tier1
                .apply(scene)
                .opacity_pruned(OPACITY_PRUNE_THRESHOLD),
            QualityTier::Tier3 => QualityTier::Tier2.apply(scene).decimated(DECIMATION_STRIDE),
        }
    }
}

impl std::fmt::Display for QualityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The three degraded tiers of one scene, derived once and shared.
///
/// Built by the serving engine at `register_scene` when its quality policy
/// can degrade; the tier scenes are `Arc`-shared into jobs so a degraded
/// serve costs one pointer clone, and [`LodLadder::footprint_bytes`] is
/// what the residency policy charges for keeping the ladder resident.
#[derive(Debug, Clone)]
pub struct LodLadder {
    tier1: Arc<Scene>,
    tier2: Arc<Scene>,
    tier3: Arc<Scene>,
}

impl LodLadder {
    /// Derives every degraded tier of `scene` (cumulatively, in stable
    /// index order). Deterministic: the same scene always builds an
    /// identical ladder.
    pub fn build(scene: &Scene) -> Self {
        let tier1 = scene.with_max_sh_degree(REDUCED_SH_DEGREE);
        let tier2 = tier1.opacity_pruned(OPACITY_PRUNE_THRESHOLD);
        let tier3 = tier2.decimated(DECIMATION_STRIDE);
        Self {
            tier1: Arc::new(tier1),
            tier2: Arc::new(tier2),
            tier3: Arc::new(tier3),
        }
    }

    /// The shared scene of a degraded tier, or `None` for
    /// [`QualityTier::Full`] (the full scene lives outside the ladder).
    pub fn scene(&self, tier: QualityTier) -> Option<&Arc<Scene>> {
        match tier {
            QualityTier::Full => None,
            QualityTier::Tier1 => Some(&self.tier1),
            QualityTier::Tier2 => Some(&self.tier2),
            QualityTier::Tier3 => Some(&self.tier3),
        }
    }

    /// Resident-memory estimate of the three tier scenes, in the same
    /// units as [`Scene::footprint_bytes`] — what the residency policy
    /// additionally charges for a ladder-carrying registration.
    pub fn footprint_bytes(&self) -> usize {
        self.tier1.footprint_bytes() + self.tier2.footprint_bytes() + self.tier3.footprint_bytes()
    }
}

impl Scene {
    /// Returns a copy with every splat's SH coefficients truncated to
    /// `max_degree` (view-dependent bands above it are dropped; splats at
    /// or below the cap are cloned unchanged). Stable index order.
    pub(crate) fn with_max_sh_degree(&self, max_degree: usize) -> Scene {
        Scene::new(
            self.name().to_owned(),
            self.width(),
            self.height(),
            self.iter().map(|g| truncate_sh(g, max_degree)).collect(),
        )
    }

    /// Returns a copy keeping only splats with opacity at or above
    /// `threshold`, in stable index order. A pruning that would empty the
    /// scene falls back to the unpruned splat set — a degraded tier must
    /// never turn a servable scene into an `EmptyScene` error.
    pub(crate) fn opacity_pruned(&self, threshold: f32) -> Scene {
        let kept: Vec<Gaussian3d> = self
            .iter()
            .filter(|g| g.opacity() >= threshold)
            .cloned()
            .collect();
        let gaussians = if kept.is_empty() && !self.is_empty() {
            self.gaussians().to_vec()
        } else {
            kept
        };
        Scene::new(
            self.name().to_owned(),
            self.width(),
            self.height(),
            gaussians,
        )
    }

    /// Returns a copy keeping every `stride`-th splat starting at index 0
    /// (a stride of 0 or 1 keeps everything). Index 0 is always kept, so a
    /// non-empty scene stays non-empty.
    pub(crate) fn decimated(&self, stride: usize) -> Scene {
        if stride <= 1 {
            return self.clone();
        }
        Scene::new(
            self.name().to_owned(),
            self.width(),
            self.height(),
            self.iter().step_by(stride).cloned().collect(),
        )
    }
}

/// Truncates one splat's SH coefficients to `max_degree`, preserving every
/// other parameter bit-exactly.
fn truncate_sh(g: &Gaussian3d, max_degree: usize) -> Gaussian3d {
    if g.sh().degree() <= max_degree {
        return g.clone();
    }
    let kept: Vec<Rgb> = g
        .sh()
        .coefficients()
        .iter()
        .take(coefficient_count(max_degree))
        .copied()
        .collect();
    let Ok(sh) = ShCoefficients::from_coefficients(kept) else {
        // Unreachable for a validly constructed splat (the truncated count
        // is always complete); keep the original rather than panic.
        return g.clone();
    };
    // Swap only the SH: rebuilding through the validating builder would
    // re-normalize the rotation and drift its low bits, and a tier view
    // must stay geometrically bit-identical to its source.
    g.with_sh(sh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{PaperScene, SceneScale};
    use splat_types::{Quat, Vec3};

    fn scene() -> Scene {
        PaperScene::Playroom.build(SceneScale::Tiny, 0)
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in QualityTier::ALL {
            assert_eq!(QualityTier::from_label(tier.label()), Some(tier));
            assert_eq!(tier.to_string(), tier.label());
        }
        assert_eq!(QualityTier::from_label("t9"), None);
    }

    #[test]
    fn tiers_order_by_degradation() {
        assert!(QualityTier::Full < QualityTier::Tier1);
        assert!(QualityTier::Tier2 < QualityTier::Tier3);
        assert!(!QualityTier::Full.is_degraded());
        assert!(QualityTier::Tier1.is_degraded());
        assert!(QualityTier::Tier3.half_resolution());
        assert!(!QualityTier::Tier2.half_resolution());
    }

    #[test]
    fn sh_truncation_caps_degree_and_keeps_everything_else() {
        let full = scene();
        let reduced = full.with_max_sh_degree(REDUCED_SH_DEGREE);
        assert_eq!(reduced.len(), full.len());
        for (a, b) in full.iter().zip(reduced.iter()) {
            assert_eq!(b.sh().degree(), REDUCED_SH_DEGREE);
            assert_eq!(a.position(), b.position());
            assert_eq!(a.scale(), b.scale());
            assert_eq!(a.rotation(), b.rotation());
            assert_eq!(a.opacity().to_bits(), b.opacity().to_bits());
            // The kept coefficients are the leading ones, bit-exact.
            let kept = coefficient_count(b.sh().degree());
            assert_eq!(&a.sh().coefficients()[..kept], b.sh().coefficients());
        }
    }

    #[test]
    fn opacity_pruning_is_stable_and_never_empties() {
        let full = scene();
        let pruned = full.opacity_pruned(OPACITY_PRUNE_THRESHOLD);
        assert!(!pruned.is_empty());
        assert!(pruned.len() <= full.len());
        assert!(pruned
            .iter()
            .all(|g| g.opacity() >= OPACITY_PRUNE_THRESHOLD));
        // Stable order: the kept splats appear in their original order.
        let expected: Vec<&Gaussian3d> = full
            .iter()
            .filter(|g| g.opacity() >= OPACITY_PRUNE_THRESHOLD)
            .collect();
        assert_eq!(pruned.len(), expected.len());
        for (a, b) in expected.iter().zip(pruned.iter()) {
            assert_eq!(*a, b);
        }
        // A threshold nothing survives falls back to the full set.
        let all_pruned = full.opacity_pruned(2.0);
        assert_eq!(all_pruned.len(), full.len());
    }

    #[test]
    fn decimation_keeps_every_stride_th_splat() {
        let full = scene();
        let half = full.decimated(2);
        assert_eq!(half.len(), full.len().div_ceil(2));
        for (i, g) in half.iter().enumerate() {
            assert_eq!(g, &full.gaussians()[i * 2]);
        }
        assert_eq!(full.decimated(0).len(), full.len());
        assert_eq!(full.decimated(1).len(), full.len());
        // A single-splat scene survives any stride.
        let one = full.truncated(1);
        assert_eq!(one.decimated(1000).len(), 1);
    }

    #[test]
    fn ladder_matches_tier_apply_and_is_deterministic() {
        let full = scene();
        let ladder_a = LodLadder::build(&full);
        let ladder_b = LodLadder::build(&full);
        for tier in [QualityTier::Tier1, QualityTier::Tier2, QualityTier::Tier3] {
            let from_ladder_a = ladder_a.scene(tier).expect("degraded tier");
            let from_ladder_b = ladder_b.scene(tier).expect("degraded tier");
            let on_demand = tier.apply(&full);
            assert_eq!(**from_ladder_a, on_demand, "{tier} replay drifted");
            assert_eq!(**from_ladder_a, **from_ladder_b, "{tier} rebuild drifted");
        }
        assert!(ladder_a.scene(QualityTier::Full).is_none());
    }

    #[test]
    fn ladder_is_cumulative_and_monotonically_smaller() {
        let full = scene();
        let ladder = LodLadder::build(&full);
        let t1 = ladder.scene(QualityTier::Tier1).expect("t1");
        let t2 = ladder.scene(QualityTier::Tier2).expect("t2");
        let t3 = ladder.scene(QualityTier::Tier3).expect("t3");
        assert!(t1.len() >= t2.len());
        assert!(t2.len() >= t3.len());
        assert!(!t3.is_empty());
        assert!(t1.footprint_bytes() <= full.footprint_bytes());
        assert_eq!(
            ladder.footprint_bytes(),
            t1.footprint_bytes() + t2.footprint_bytes() + t3.footprint_bytes()
        );
        // Tier 2 keeps tier 1's SH cap; tier 3 keeps tier 2's pruning.
        assert!(t2.iter().all(|g| g.sh().degree() == REDUCED_SH_DEGREE));
        assert!(t3.iter().all(|g| g.sh().degree() == REDUCED_SH_DEGREE));
    }

    #[test]
    fn degenerate_scenes_stay_servable() {
        let single = Scene::new(
            "one",
            32,
            32,
            vec![Gaussian3d::builder()
                .position(Vec3::ZERO)
                .scale(Vec3::splat(0.1))
                .rotation(Quat::IDENTITY)
                .opacity(0.01)
                .base_color([0.5, 0.5, 0.5])
                .build()],
        );
        // The only splat is below the prune threshold: fallback keeps it.
        let ladder = LodLadder::build(&single);
        for tier in [QualityTier::Tier1, QualityTier::Tier2, QualityTier::Tier3] {
            assert_eq!(ladder.scene(tier).expect("tier").len(), 1);
        }
        let empty = Scene::new("empty", 8, 8, Vec::new());
        let empty_ladder = LodLadder::build(&empty);
        assert!(empty_ladder
            .scene(QualityTier::Tier3)
            .expect("tier")
            .is_empty());
    }
}
