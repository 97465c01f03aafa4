//! The 3D Gaussian splat data model.
//!
//! Each splat carries the learnable parameters of 3D-GS: a world-space
//! center, an anisotropic scale, a rotation quaternion, an opacity and
//! spherical-harmonics color coefficients. The 3D covariance used by the
//! preprocessing stage is `Σ = R S Sᵀ Rᵀ`.

use crate::color::Rgb;
use crate::error::{Error, Result};
use crate::half::round_trip_f16;
use crate::mat::Mat3;
use crate::quat::Quat;
use crate::sh::ShCoefficients;
use crate::vec::Vec3;

/// Numeric precision of the stored splat parameters.
///
/// The GS-TG evaluation converts models trained in 32-bit floating point to
/// 16-bit floating point before feeding the accelerator; [`Precision::Half`]
/// models that conversion by rounding every parameter through binary16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE-754 binary32 (training precision).
    #[default]
    Full,
    /// IEEE-754 binary16 (accelerator storage precision).
    Half,
}

/// A single anisotropic 3D Gaussian splat.
#[derive(Debug, Clone, PartialEq)]
pub struct Gaussian3d {
    position: Vec3,
    scale: Vec3,
    rotation: Quat,
    opacity: f32,
    sh: ShCoefficients,
}

impl Gaussian3d {
    /// Starts building a splat; see [`Gaussian3dBuilder`].
    pub fn builder() -> Gaussian3dBuilder {
        Gaussian3dBuilder::default()
    }

    /// World-space center (`3D_XYZ` in the paper's notation).
    #[inline]
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// Per-axis standard deviations of the Gaussian before rotation.
    #[inline]
    pub fn scale(&self) -> Vec3 {
        self.scale
    }

    /// Orientation of the principal axes.
    #[inline]
    pub fn rotation(&self) -> Quat {
        self.rotation
    }

    /// Opacity `σ ∈ [0, 1]`.
    #[inline]
    pub fn opacity(&self) -> f32 {
        self.opacity
    }

    /// Spherical-harmonics color coefficients (`SHs`).
    #[inline]
    pub fn sh(&self) -> &ShCoefficients {
        &self.sh
    }

    /// Returns a copy with the SH coefficients replaced and every other
    /// parameter preserved bit-exactly — no re-validation and no rotation
    /// re-normalization, so derived views (LOD tiers) stay geometrically
    /// identical to their source splat.
    pub fn with_sh(&self, sh: ShCoefficients) -> Gaussian3d {
        Gaussian3d { sh, ..self.clone() }
    }

    /// Replaces the rotation with an already-unit quaternion *as stored* —
    /// no re-normalization, which could perturb its last mantissa bit — and
    /// keeps every other parameter bit-exactly. The scene codec restores
    /// stored rotation bits with it so that decoding is the exact inverse
    /// of encoding.
    pub fn with_unit_rotation(self, rotation: Quat) -> Gaussian3d {
        Gaussian3d { rotation, ..self }
    }

    /// The 3×3 world-space covariance `Σ = R S Sᵀ Rᵀ` (`3D_Cov`).
    pub fn covariance(&self) -> Mat3 {
        Self::covariance_of(self.scale, self.rotation)
    }

    /// [`Gaussian3d::covariance`] from raw parameters, shared with the
    /// structure-of-arrays scene storage (`SceneSoA`) so both layouts run
    /// the exact same floating-point operations.
    pub fn covariance_of(scale: Vec3, rotation: Quat) -> Mat3 {
        let r = rotation.to_rotation_matrix();
        let s = Mat3::from_diagonal(Vec3::new(
            scale.x * scale.x,
            scale.y * scale.y,
            scale.z * scale.z,
        ));
        r * s * r.transpose()
    }

    /// Radius of a sphere that bounds the 3-sigma extent of the splat,
    /// used for conservative frustum culling.
    #[inline]
    pub fn bounding_radius(&self) -> f32 {
        Self::bounding_radius_of(self.scale)
    }

    /// [`Gaussian3d::bounding_radius`] from a raw scale, shared with the
    /// structure-of-arrays scene storage.
    #[inline]
    pub fn bounding_radius_of(scale: Vec3) -> f32 {
        3.0 * scale.max_component()
    }

    /// Returns a copy with every parameter rounded through the requested
    /// precision. [`Precision::Full`] returns the splat unchanged.
    #[expect(
        clippy::expect_used,
        reason = "quantization preserves the validated count"
    )]
    pub fn to_precision(&self, precision: Precision) -> Self {
        match precision {
            Precision::Full => self.clone(),
            Precision::Half => {
                let q = |v: f32| round_trip_f16(v);
                let qv = |v: Vec3| Vec3::new(q(v.x), q(v.y), q(v.z));
                let coeffs = self
                    .sh
                    .coefficients()
                    .iter()
                    .map(|c| Rgb::new(q(c.r), q(c.g), q(c.b)))
                    .collect();
                Self {
                    position: qv(self.position),
                    scale: qv(self.scale),
                    rotation: Quat::new(
                        q(self.rotation.w),
                        q(self.rotation.x),
                        q(self.rotation.y),
                        q(self.rotation.z),
                    )
                    .normalized(),
                    opacity: q(self.opacity),
                    sh: ShCoefficients::from_coefficients(coeffs)
                        .expect("coefficient count preserved"),
                }
            }
        }
    }

    /// Number of stored parameter scalars, used by the DRAM traffic model:
    /// 3 (position) + 3 (scale) + 4 (rotation) + 1 (opacity) + SH values.
    #[inline]
    pub fn parameter_count(&self) -> usize {
        3 + 3 + 4 + 1 + self.sh.value_count()
    }
}

/// Builder for [`Gaussian3d`] with validation of every parameter.
///
/// ```
/// use splat_types::{Gaussian3d, Vec3, Quat};
///
/// let g = Gaussian3d::builder()
///     .position(Vec3::new(1.0, 2.0, 3.0))
///     .scale(Vec3::new(0.1, 0.2, 0.05))
///     .rotation(Quat::from_axis_angle(Vec3::Z, 0.4))
///     .opacity(0.75)
///     .base_color([0.9, 0.4, 0.1])
///     .build();
/// assert_eq!(g.position(), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gaussian3dBuilder {
    position: Vec3,
    scale: Option<Vec3>,
    rotation: Quat,
    opacity: Option<f32>,
    sh: Option<ShCoefficients>,
}

impl Gaussian3dBuilder {
    /// Sets the world-space center.
    pub fn position(mut self, position: Vec3) -> Self {
        self.position = position;
        self
    }

    /// Sets the per-axis standard deviations (must be positive).
    pub fn scale(mut self, scale: Vec3) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Sets the orientation.
    pub fn rotation(mut self, rotation: Quat) -> Self {
        self.rotation = rotation;
        self
    }

    /// Sets the opacity in `[0, 1]`.
    pub fn opacity(mut self, opacity: f32) -> Self {
        self.opacity = Some(opacity);
        self
    }

    /// Sets a view-independent base color (degree-0 SH).
    pub fn base_color(mut self, rgb: [f32; 3]) -> Self {
        self.sh = Some(ShCoefficients::constant(Rgb::from(rgb)));
        self
    }

    /// Sets full spherical-harmonics coefficients.
    pub fn sh(mut self, sh: ShCoefficients) -> Self {
        self.sh = Some(sh);
        self
    }

    /// Builds the splat, falling back to documented defaults
    /// (scale `0.01`, opacity `0.5`, mid-gray color) for unset fields.
    ///
    /// # Panics
    ///
    /// Panics if a set parameter is invalid; use [`Self::try_build`] for a
    /// fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking builder; try_build is the typed path"
    )]
    pub fn build(self) -> Gaussian3d {
        self.try_build().expect("invalid Gaussian3d parameters")
    }

    /// Fallible variant of [`Self::build`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the scale is not strictly
    /// positive, the opacity is outside `[0, 1]`, or the position is not
    /// finite.
    pub fn try_build(self) -> Result<Gaussian3d> {
        let scale = self.scale.unwrap_or(Vec3::splat(0.01));
        if !(scale.x > 0.0 && scale.y > 0.0 && scale.z > 0.0 && scale.is_finite()) {
            return Err(Error::InvalidParameter {
                name: "scale",
                reason: format!("components must be strictly positive, got {scale:?}"),
            });
        }
        let opacity = self.opacity.unwrap_or(0.5);
        if !(0.0..=1.0).contains(&opacity) || !opacity.is_finite() {
            return Err(Error::InvalidParameter {
                name: "opacity",
                reason: format!("must be in [0, 1], got {opacity}"),
            });
        }
        if !self.position.is_finite() {
            return Err(Error::InvalidParameter {
                name: "position",
                reason: "components must be finite".to_owned(),
            });
        }
        Ok(Gaussian3d {
            position: self.position,
            scale,
            rotation: self.rotation.normalized(),
            opacity,
            sh: self.sh.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    fn sample() -> Gaussian3d {
        Gaussian3d::builder()
            .position(Vec3::new(0.5, -0.2, 2.0))
            .scale(Vec3::new(0.3, 0.1, 0.05))
            .rotation(Quat::from_euler(0.4, 0.1, -0.3))
            .opacity(0.8)
            .base_color([0.7, 0.3, 0.2])
            .build()
    }

    #[test]
    fn covariance_is_symmetric_positive_definite() {
        let g = sample();
        let cov = g.covariance();
        for r in 0..3 {
            for c in 0..3 {
                assert!(approx(cov.at(r, c), cov.at(c, r)), "symmetry ({r},{c})");
            }
        }
        // Determinant of R S^2 R^T is the product of squared scales.
        let expected_det = (g.scale().x * g.scale().y * g.scale().z).powi(2);
        assert!(approx(cov.determinant(), expected_det));
    }

    #[test]
    fn identity_rotation_covariance_is_diagonal() {
        let g = Gaussian3d::builder()
            .scale(Vec3::new(0.2, 0.3, 0.4))
            .opacity(1.0)
            .build();
        let cov = g.covariance();
        assert!(approx(cov.at(0, 0), 0.04));
        assert!(approx(cov.at(1, 1), 0.09));
        assert!(approx(cov.at(2, 2), 0.16));
        assert!(approx(cov.at(0, 1), 0.0));
    }

    #[test]
    fn bounding_radius_is_three_sigma() {
        let g = Gaussian3d::builder()
            .scale(Vec3::new(0.1, 0.5, 0.2))
            .build();
        assert!(approx(g.bounding_radius(), 1.5));
    }

    #[test]
    fn builder_rejects_bad_opacity() {
        let result = Gaussian3d::builder().opacity(1.5).try_build();
        assert!(matches!(
            result,
            Err(Error::InvalidParameter {
                name: "opacity",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_non_positive_scale() {
        let result = Gaussian3d::builder()
            .scale(Vec3::new(0.1, 0.0, 0.1))
            .try_build();
        assert!(matches!(
            result,
            Err(Error::InvalidParameter { name: "scale", .. })
        ));
    }

    #[test]
    fn builder_rejects_non_finite_position() {
        let result = Gaussian3d::builder()
            .position(Vec3::new(f32::NAN, 0.0, 0.0))
            .try_build();
        assert!(result.is_err());
    }

    #[test]
    fn half_precision_round_trip_stays_close() {
        let g = sample();
        let h = g.to_precision(Precision::Half);
        assert!((g.position() - h.position()).length() < 1e-2);
        assert!((g.opacity() - h.opacity()).abs() < 1e-2);
        // Rotation stays a unit quaternion.
        assert!(approx(h.rotation().norm(), 1.0));
    }

    #[test]
    fn full_precision_is_identity() {
        let g = sample();
        assert_eq!(g.to_precision(Precision::Full), g);
    }

    #[test]
    fn parameter_count_accounts_for_sh() {
        let g = sample(); // degree-0 SH: 3 values
        assert_eq!(g.parameter_count(), 3 + 3 + 4 + 1 + 3);
    }

    #[test]
    fn covariance_determinant_matches_scales() {
        let mut rng = Rng::seed_from_u64(0xA5A5_5A5A_DEAD_BEEF);
        for case in 0..300 {
            let sx = rng.range_f32(0.01, 1.0);
            let sy = rng.range_f32(0.01, 1.0);
            let sz = rng.range_f32(0.01, 1.0);
            let g = Gaussian3d::builder()
                .scale(Vec3::new(sx, sy, sz))
                .rotation(Quat::from_euler(
                    rng.range_f32(-3.0, 3.0),
                    rng.range_f32(-1.5, 1.5),
                    rng.range_f32(-3.0, 3.0),
                ))
                .build();
            let det = g.covariance().determinant();
            let expected = (sx * sy * sz).powi(2);
            assert!(
                (det - expected).abs() < 1e-3 * (1.0 + expected),
                "case {case}: det {det} expected {expected}"
            );
        }
    }

    #[test]
    fn builder_accepts_valid_opacity() {
        for i in 0..=100 {
            let op = i as f32 / 100.0;
            assert!(
                Gaussian3d::builder().opacity(op).try_build().is_ok(),
                "opacity {op}"
            );
        }
    }
}
