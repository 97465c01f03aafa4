//! Real spherical harmonics used for view-dependent splat color.
//!
//! 3D-GS stores per-Gaussian RGB spherical-harmonics coefficients up to
//! degree 3 (16 coefficients per channel) and evaluates them against the
//! normalized camera→splat direction during preprocessing to obtain the
//! view-dependent color `G_RGB` consumed by rasterization.

use crate::color::Rgb;
use crate::error::{Error, Result};
use crate::vec::Vec3;

/// Highest supported spherical-harmonics degree (matching 3D-GS).
pub const SH_DEGREE_MAX: usize = 3;

/// Number of SH basis functions for a given degree.
///
/// ```
/// assert_eq!(splat_types::coefficient_count(0), 1);
/// assert_eq!(splat_types::coefficient_count(3), 16);
/// ```
#[inline]
pub const fn coefficient_count(degree: usize) -> usize {
    (degree + 1) * (degree + 1)
}

// Real SH basis constants as used by the 3D-GS reference implementation.
const SH_C0: f32 = 0.282_094_79;
const SH_C1: f32 = 0.488_602_51;
const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];
const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluates the real SH basis functions of `degree` in direction `dir`
/// (which must be normalized) into a stack buffer and returns how many
/// values were written (`coefficient_count(degree)`). The per-frame color
/// evaluation goes through here, so preprocessing never touches the heap.
///
/// # Errors
///
/// Returns [`Error::UnsupportedShDegree`] for degrees above
/// [`SH_DEGREE_MAX`].
pub(crate) fn eval_basis_into(
    degree: usize,
    dir: Vec3,
    basis: &mut [f32; coefficient_count(SH_DEGREE_MAX)],
) -> Result<usize> {
    if degree > SH_DEGREE_MAX {
        return Err(Error::UnsupportedShDegree { degree });
    }
    let (x, y, z) = (dir.x, dir.y, dir.z);
    basis[0] = SH_C0;
    if degree >= 1 {
        basis[1] = -SH_C1 * y;
        basis[2] = SH_C1 * z;
        basis[3] = -SH_C1 * x;
    }
    if degree >= 2 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        let (xy, yz, xz) = (x * y, y * z, x * z);
        basis[4] = SH_C2[0] * xy;
        basis[5] = SH_C2[1] * yz;
        basis[6] = SH_C2[2] * (2.0 * zz - xx - yy);
        basis[7] = SH_C2[3] * xz;
        basis[8] = SH_C2[4] * (xx - yy);
    }
    if degree >= 3 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        basis[9] = SH_C3[0] * y * (3.0 * xx - yy);
        basis[10] = SH_C3[1] * x * y * z;
        basis[11] = SH_C3[2] * y * (4.0 * zz - xx - yy);
        basis[12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy);
        basis[13] = SH_C3[4] * x * (4.0 * zz - xx - yy);
        basis[14] = SH_C3[5] * z * (xx - yy);
        basis[15] = SH_C3[6] * x * (xx - 3.0 * yy);
    }
    Ok(coefficient_count(degree))
}

/// Evaluates the view-dependent color of a basis-major coefficient slice
/// in direction `dir` (normalized camera→splat direction), clamped to
/// non-negative values as in the 3D-GS reference renderer.
///
/// This is the one evaluator: a [`ShCoefficients`] is evaluated through
/// its [`degree`](ShCoefficients::degree) and
/// [`coefficients`](ShCoefficients::coefficients), and the
/// structure-of-arrays scene storage (`SceneSoA`) passes its flat slice,
/// so every path runs bit-identical floating point.
///
/// `degree` must be at most [`SH_DEGREE_MAX`] and `coeffs` must hold
/// `coefficient_count(degree)` entries; extra entries are ignored.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "degree <= SH_DEGREE_MAX is enforced at ShCoefficients construction"
)]
pub fn eval_color(degree: usize, coeffs: &[Rgb], dir: Vec3) -> Rgb {
    let mut basis = [0.0f32; coefficient_count(SH_DEGREE_MAX)];
    let count = eval_basis_into(degree, dir, &mut basis).expect("degree validated at construction");
    let mut color = Rgb::new(0.5, 0.5, 0.5);
    for (w, c) in basis[..count].iter().zip(coeffs) {
        color += *c * *w;
    }
    Rgb::new(color.r.max(0.0), color.g.max(0.0), color.b.max(0.0))
}

/// Per-Gaussian RGB spherical-harmonics coefficients.
///
/// Coefficients are stored interleaved per basis function:
/// `coeffs[i]` is the RGB weight of basis function `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShCoefficients {
    degree: usize,
    coeffs: Vec<Rgb>,
}

impl ShCoefficients {
    /// Creates degree-0 coefficients that reproduce `base_color` exactly
    /// for every viewing direction.
    pub(crate) fn constant(base_color: Rgb) -> Self {
        Self {
            degree: 0,
            coeffs: vec![Rgb::new(
                (base_color.r - 0.5) / SH_C0,
                (base_color.g - 0.5) / SH_C0,
                (base_color.b - 0.5) / SH_C0,
            )],
        }
    }

    /// Creates coefficients from raw per-basis RGB weights.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the coefficient count does
    /// not correspond to a complete degree (1, 4, 9 or 16 entries), and
    /// [`Error::UnsupportedShDegree`] above degree 3.
    pub fn from_coefficients(coeffs: Vec<Rgb>) -> Result<Self> {
        let degree = match coeffs.len() {
            1 => 0,
            4 => 1,
            9 => 2,
            16 => 3,
            n => {
                return Err(Error::InvalidParameter {
                    name: "coeffs",
                    reason: format!("{n} is not a complete SH coefficient count (1, 4, 9, 16)"),
                })
            }
        };
        if degree > SH_DEGREE_MAX {
            return Err(Error::UnsupportedShDegree { degree });
        }
        Ok(Self { degree, coeffs })
    }

    /// The SH degree stored.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Raw coefficient access (basis-major).
    #[inline]
    pub fn coefficients(&self) -> &[Rgb] {
        &self.coeffs
    }

    /// Number of floating-point values stored (3 per basis function), used
    /// by the DRAM traffic model.
    #[inline]
    pub(crate) fn value_count(&self) -> usize {
        self.coeffs.len() * 3
    }
}

impl Default for ShCoefficients {
    fn default() -> Self {
        Self::constant(Rgb::splat(0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// `sh`'s colour toward `dir` through the published evaluator.
    fn eval(sh: &ShCoefficients, dir: Vec3) -> Rgb {
        eval_color(sh.degree(), sh.coefficients(), dir)
    }

    #[test]
    fn coefficient_counts() {
        assert_eq!(coefficient_count(0), 1);
        assert_eq!(coefficient_count(1), 4);
        assert_eq!(coefficient_count(2), 9);
        assert_eq!(coefficient_count(3), 16);
    }

    #[test]
    fn basis_rejects_unsupported_degree() {
        let mut basis = [0.0f32; coefficient_count(SH_DEGREE_MAX)];
        assert!(eval_basis_into(4, Vec3::Z, &mut basis).is_err());
    }

    #[test]
    fn basis_lengths_match_degree() {
        let mut basis = [0.0f32; coefficient_count(SH_DEGREE_MAX)];
        for degree in 0..=SH_DEGREE_MAX {
            let dir = Vec3::new(0.3, 0.5, 0.8).normalized();
            let count = eval_basis_into(degree, dir, &mut basis).unwrap();
            assert_eq!(count, coefficient_count(degree));
        }
    }

    #[test]
    fn constant_coefficients_reproduce_base_color() {
        let base = Rgb::new(0.2, 0.6, 0.9);
        let sh = ShCoefficients::constant(base);
        for dir in [
            Vec3::X,
            Vec3::Y,
            Vec3::Z,
            Vec3::new(-0.5, 0.3, 0.8).normalized(),
        ] {
            let c = eval(&sh, dir);
            assert!(c.max_abs_diff(base) < 1e-5, "direction {dir:?}");
        }
    }

    #[test]
    fn from_coefficients_validates_count() {
        assert!(ShCoefficients::from_coefficients(vec![Rgb::BLACK; 5]).is_err());
        assert!(ShCoefficients::from_coefficients(vec![Rgb::BLACK; 9]).is_ok());
    }

    #[test]
    fn eval_clamps_to_non_negative() {
        // Strongly negative DC coefficient would drive the color negative.
        let sh = ShCoefficients::from_coefficients(vec![Rgb::splat(-10.0)]).unwrap();
        let c = eval(&sh, Vec3::Z);
        assert_eq!(c, Rgb::BLACK);
    }

    #[test]
    fn higher_degree_adds_view_dependence() {
        let mut coeffs = vec![Rgb::splat(0.0); 4];
        coeffs[0] = Rgb::splat(0.3);
        coeffs[2] = Rgb::new(0.5, 0.0, 0.0); // z-linear band
        let sh = ShCoefficients::from_coefficients(coeffs).unwrap();
        let from_front = eval(&sh, Vec3::Z);
        let from_back = eval(&sh, -Vec3::Z);
        assert!(from_front.r > from_back.r);
    }

    #[test]
    fn eval_color_slice_matches_owned_eval_bit_exactly() {
        let mut rng = Rng::seed_from_u64(0x5EED_C0DE);
        for _ in 0..64 {
            let coeffs: Vec<Rgb> = (0..16)
                .map(|_| Rgb::splat(rng.range_f32(-1.0, 1.0)))
                .collect();
            let sh = ShCoefficients::from_coefficients(coeffs.clone()).unwrap();
            let dir = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(0.1, 1.0),
            )
            .normalized();
            let owned = eval(&sh, dir);
            let slice = eval_color(3, &coeffs, dir);
            assert_eq!(owned.r.to_bits(), slice.r.to_bits());
            assert_eq!(owned.g.to_bits(), slice.g.to_bits());
            assert_eq!(owned.b.to_bits(), slice.b.to_bits());
        }
    }

    #[test]
    fn value_count_counts_rgb_floats() {
        let sh = ShCoefficients::from_coefficients(vec![Rgb::BLACK; 16]).unwrap();
        assert_eq!(sh.value_count(), 48);
    }

    #[test]
    fn eval_is_finite_for_unit_directions() {
        let mut rng = Rng::seed_from_u64(0x0BAD_CAFE_DEAD_F00D);
        let mut tested = 0;
        while tested < 400 {
            let x = rng.range_f32(-1.0, 1.0);
            let y = rng.range_f32(-1.0, 1.0);
            let z = rng.range_f32(-1.0, 1.0);
            if Vec3::new(x, y, z).length() <= 1e-3 {
                continue;
            }
            tested += 1;
            let seed = (rng.range_f32(0.0, 255.0)).floor();
            let dir = Vec3::new(x, y, z).normalized();
            let coeffs: Vec<Rgb> = (0..16)
                .map(|i| Rgb::splat(((i as f32) + seed) * 0.01 - 0.5))
                .collect();
            let sh = ShCoefficients::from_coefficients(coeffs).unwrap();
            let c = eval(&sh, dir);
            assert!(c.r.is_finite() && c.g.is_finite() && c.b.is_finite());
            assert!(c.r >= 0.0 && c.g >= 0.0 && c.b >= 0.0);
        }
    }
}
