//! Deterministic procedural generation of Gaussian splat clouds.
//!
//! Trained 3D-GS checkpoints place splats in clusters along surfaces, with a
//! heavy-tailed (approximately log-normal) distribution of splat scales and
//! a bimodal opacity distribution (many near-transparent splats plus a core
//! of opaque ones). The generator reproduces those population statistics so
//! that the tile-level behaviour studied by the paper (tiles per Gaussian,
//! sharing between adjacent tiles, Gaussians per pixel) falls in the same
//! ranges as the real scenes.

#![expect(
    clippy::disallowed_methods,
    reason = "the deterministic scene synthesizer seeds its xoshiro RNG from the scene seed"
)]

use crate::scene::Scene;
use splat_types::rng::Rng;
use splat_types::{Gaussian3d, Quat, Rgb, ShCoefficients, Vec3};

/// Statistical profile of a synthetic splat population.
///
/// All distances are in world units; the default cameras produced by
/// [`crate::datasets::PaperScene::default_camera`] sit at the origin looking
/// along +Z, so splats are generated inside a frustum-shaped slab spanning
/// `depth_range` along +Z.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProfile {
    /// Number of splats to generate.
    pub gaussian_count: usize,
    /// Number of surface-like clusters.
    pub cluster_count: usize,
    /// Standard deviation of splat placement around a cluster center,
    /// as a fraction of the lateral extent.
    pub(crate) cluster_spread: f32,
    /// Fraction of splats scattered uniformly instead of clustered
    /// (background / floater splats).
    pub(crate) background_fraction: f32,
    /// Lateral half-extent of the populated volume at the far end of
    /// `depth_range` (the slab widens with depth like a frustum).
    pub lateral_extent: f32,
    /// Range of depths (distance from the canonical camera) populated.
    pub depth_range: (f32, f32),
    /// Mean of `ln(scale)` for the log-normal splat scale distribution.
    pub(crate) scale_log_mean: f32,
    /// Standard deviation of `ln(scale)`.
    pub(crate) scale_log_std: f32,
    /// Maximum axis ratio between the largest and smallest scale axis.
    pub(crate) anisotropy: f32,
    /// Fraction of splats that are nearly opaque (opacity ≥ 0.9);
    /// the remainder follow a decaying distribution toward zero.
    pub opaque_fraction: f32,
    /// Spherical-harmonics degree of the generated color coefficients.
    pub sh_degree: usize,
}

impl Default for SynthProfile {
    fn default() -> Self {
        Self {
            gaussian_count: 10_000,
            cluster_count: 64,
            cluster_spread: 0.035,
            background_fraction: 0.15,
            lateral_extent: 12.0,
            depth_range: (2.5, 30.0),
            scale_log_mean: -3.0,
            scale_log_std: 0.9,
            anisotropy: 4.0,
            opaque_fraction: 0.45,
            sh_degree: 1,
        }
    }
}

impl SynthProfile {
    /// Returns a copy with the splat count replaced.
    pub fn with_count(mut self, count: usize) -> Self {
        self.gaussian_count = count;
        self
    }
}

/// Deterministic scene generator.
///
/// The same `(profile, seed)` pair always produces an identical scene, which
/// keeps every experiment in the repository reproducible.
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    profile: SynthProfile,
    seed: u64,
}

impl SceneGenerator {
    /// Creates a generator for the given profile and seed.
    pub fn new(profile: SynthProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// Generates the scene with the given name and output resolution.
    pub fn generate(&self, name: impl Into<String>, width: u32, height: u32) -> Scene {
        let mut rng = Rng::seed_from_u64(self.seed);
        let p = &self.profile;

        // Cluster centers: scattered through the slab, biased toward the
        // middle depths where trained scenes concentrate geometry.
        let clusters: Vec<Vec3> = (0..p.cluster_count.max(1))
            .map(|_| self.sample_volume_point(&mut rng, 0.85))
            .collect();

        let mut gaussians = Vec::with_capacity(p.gaussian_count);
        for _ in 0..p.gaussian_count {
            let position = if rng.gen_f32() < p.background_fraction {
                self.sample_volume_point(&mut rng, 1.0)
            } else {
                let center = clusters[rng.gen_index(clusters.len())];
                let spread = p.cluster_spread * p.lateral_extent;
                center
                    + Vec3::new(
                        normal(&mut rng) * spread,
                        normal(&mut rng) * spread,
                        normal(&mut rng) * spread,
                    )
            };

            let base_scale = (p.scale_log_mean + p.scale_log_std * normal(&mut rng)).exp();
            let aniso = 1.0 + rng.gen_f32() * (p.anisotropy - 1.0);
            // Distribute the anisotropy over two axes so splats are
            // surface-aligned "pancakes" more often than needles.
            let scale = Vec3::new(
                base_scale * aniso,
                base_scale * (1.0 + rng.gen_f32() * (aniso - 1.0) * 0.5),
                base_scale,
            );

            let rotation = Quat::from_euler(
                rng.gen_f32() * std::f32::consts::TAU,
                (rng.gen_f32() - 0.5) * std::f32::consts::PI,
                rng.gen_f32() * std::f32::consts::TAU,
            );

            let opacity = if rng.gen_f32() < p.opaque_fraction {
                0.9 + 0.1 * rng.gen_f32()
            } else {
                // Decaying distribution toward zero but above the 1/255
                // culling threshold most of the time.
                (rng.gen_f32().powi(2) * 0.85 + 0.02).min(1.0)
            };

            let sh = random_sh(&mut rng, p.sh_degree);

            gaussians.push(
                Gaussian3d::builder()
                    .position(position)
                    .scale(Vec3::new(
                        scale.x.clamp(1e-4, 5.0),
                        scale.y.clamp(1e-4, 5.0),
                        scale.z.clamp(1e-4, 5.0),
                    ))
                    .rotation(rotation)
                    .opacity(opacity)
                    .sh(sh)
                    .build(),
            );
        }

        Scene::new(name, width, height, gaussians)
    }

    /// Samples a point inside the frustum-shaped slab. `lateral_bias` < 1
    /// shrinks the lateral extent (used to keep cluster centers away from
    /// the very edge of the frustum).
    fn sample_volume_point(&self, rng: &mut Rng, lateral_bias: f32) -> Vec3 {
        let p = &self.profile;
        let (near, far) = p.depth_range;
        // Bias depth sampling toward the near half (real captures have more
        // geometry close to the camera path).
        let t = rng.gen_f32().powf(1.35);
        let depth = near + t * (far - near);
        let frac = depth / far;
        let half = p.lateral_extent * frac.max(0.15) * lateral_bias;
        Vec3::new(
            (rng.gen_f32() * 2.0 - 1.0) * half,
            (rng.gen_f32() * 2.0 - 1.0) * half * 0.75,
            depth,
        )
    }
}

/// Standard normal sample via Box–Muller.
fn normal(rng: &mut Rng) -> f32 {
    let u1: f32 = rng.gen_f32().max(1e-7);
    let u2: f32 = rng.gen_f32();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Generates random SH coefficients of the requested degree with a plausible
/// energy fall-off per band.
#[expect(
    clippy::expect_used,
    reason = "the loop above pushes exactly coefficient_count(degree) entries"
)]
fn random_sh(rng: &mut Rng, degree: usize) -> ShCoefficients {
    let count = splat_types::coefficient_count(degree.min(splat_types::SH_DEGREE_MAX));
    let mut coeffs = Vec::with_capacity(count);
    // DC term: random base color mapped through the inverse SH0 weighting.
    let base = Rgb::new(rng.gen_f32(), rng.gen_f32(), rng.gen_f32());
    coeffs.push(Rgb::new(
        (base.r - 0.5) / 0.282_094_79,
        (base.g - 0.5) / 0.282_094_79,
        (base.b - 0.5) / 0.282_094_79,
    ));
    for band in 1..count {
        let falloff = 0.25 / (band as f32).sqrt();
        coeffs.push(Rgb::new(
            (rng.gen_f32() - 0.5) * falloff,
            (rng.gen_f32() - 0.5) * falloff,
            (rng.gen_f32() - 0.5) * falloff,
        ));
    }
    ShCoefficients::from_coefficients(coeffs).expect("complete coefficient count")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile() -> SynthProfile {
        SynthProfile {
            gaussian_count: 500,
            ..SynthProfile::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SceneGenerator::new(small_profile(), 7).generate("a", 320, 240);
        let b = SceneGenerator::new(small_profile(), 7).generate("a", 320, 240);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneGenerator::new(small_profile(), 1).generate("a", 320, 240);
        let b = SceneGenerator::new(small_profile(), 2).generate("a", 320, 240);
        assert_ne!(a, b);
    }

    #[test]
    fn generates_requested_count() {
        let scene = SceneGenerator::new(small_profile(), 3).generate("a", 320, 240);
        assert_eq!(scene.len(), 500);
    }

    #[test]
    fn splats_lie_inside_depth_range() {
        let profile = small_profile();
        let (near, far) = profile.depth_range;
        let scene = SceneGenerator::new(profile, 11).generate("a", 320, 240);
        // Cluster spread can push a few splats slightly outside; allow a
        // small margin.
        let margin = 2.0;
        for g in &scene {
            assert!(g.position().z > near - margin && g.position().z < far + margin);
        }
    }

    #[test]
    fn opacities_are_valid() {
        let scene = SceneGenerator::new(small_profile(), 5).generate("a", 320, 240);
        for g in &scene {
            assert!((0.0..=1.0).contains(&g.opacity()));
        }
    }

    #[test]
    fn opaque_fraction_is_respected_roughly() {
        let mut profile = small_profile();
        profile.gaussian_count = 4000;
        profile.opaque_fraction = 0.5;
        let scene = SceneGenerator::new(profile, 9).generate("a", 320, 240);
        let opaque = scene.iter().filter(|g| g.opacity() >= 0.9).count();
        let frac = opaque as f32 / scene.len() as f32;
        assert!((0.4..0.6).contains(&frac), "opaque fraction {frac}");
    }

    #[test]
    fn scales_are_positive_and_bounded() {
        let scene = SceneGenerator::new(small_profile(), 13).generate("a", 320, 240);
        for g in &scene {
            let s = g.scale();
            assert!(s.x > 0.0 && s.y > 0.0 && s.z > 0.0);
            assert!(s.max_component() <= 5.0);
        }
    }

    #[test]
    fn with_count_overrides_count() {
        let p = SynthProfile::default().with_count(42);
        assert_eq!(p.gaussian_count, 42);
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_variance() {
        let mut rng = Rng::seed_from_u64(100);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
