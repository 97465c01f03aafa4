//! The projected-splat representation exchanged between pipeline stages.

use splat_types::{Mat2, Rgb, Vec2};

/// A splat after preprocessing: everything sorting and rasterization need.
///
/// The conic `Σ⁻¹` that α-computation reads is not stored: the record keeps
/// the covariance and `1 / det Σ`, and [`ProjectedGaussian::conic`] rebuilds
/// the inverse from them bit for bit, so a splat is 52 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedGaussian {
    /// Index of the splat in the source scene.
    pub index: u32,
    /// Depth along the viewing direction (`D`), used as the sort key.
    pub depth: f32,
    /// Projected center in pixel coordinates (`2D_XY`).
    pub mean: Vec2,
    /// Projected 2D covariance (`2D_Cov`).
    pub cov: Mat2,
    /// `1 / det(cov)`, the one number the conic needs beyond `cov`.
    pub inv_det: f32,
    /// Opacity `σ`.
    pub opacity: f32,
    /// View-dependent color (`G_RGB`).
    pub color: Rgb,
}

const _: () = assert!(std::mem::size_of::<ProjectedGaussian>() == 52);

impl ProjectedGaussian {
    /// The conic `Σ⁻¹` used by α-computation: `cov`'s adjugate times
    /// `inv_det`, the operations [`Mat2::inverse`] performs, so it equals
    /// `cov.inverse()` bit for bit when `inv_det == 1.0 / cov.determinant()`.
    #[inline]
    pub fn conic(&self) -> Mat2 {
        self.cov.scaled_adjugate(self.inv_det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::rng::Rng;

    fn record(cov: Mat2) -> ProjectedGaussian {
        ProjectedGaussian {
            index: 0,
            depth: 1.0,
            mean: Vec2::ZERO,
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.5,
            color: Rgb::WHITE,
        }
    }

    fn entry_bits(m: Mat2) -> [u32; 4] {
        [m.at(0, 0), m.at(0, 1), m.at(1, 0), m.at(1, 1)].map(f32::to_bits)
    }

    /// The conic rebuilt from `cov` and `inv_det` is `cov.inverse()` in
    /// every bit, over symmetric and asymmetric matrices, both signs of the
    /// determinant, magnitudes from 2⁻⁴⁰ to 2⁴⁰ and determinants just above
    /// the singular threshold.
    #[test]
    fn conic_is_the_inverse_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xC0_41C5);
        let mut covs = Vec::new();
        for _ in 0..20_000 {
            let scale = 2f32.powi(rng.range_f32(-20.0, 20.0) as i32);
            let sym = |rng: &mut Rng| {
                Mat2::from_symmetric(
                    rng.range_f32(-4.0, 4.0) * scale,
                    rng.range_f32(-4.0, 4.0) * scale,
                    rng.range_f32(-4.0, 4.0) * scale,
                )
            };
            let a = sym(&mut rng);
            // A product of two symmetric matrices is asymmetric in general.
            covs.extend([a, a * sym(&mut rng)]);
        }
        // Determinants within a few ulp above 1e-12, both signs.
        let mut c = 1e-6f32;
        for _ in 0..64 {
            covs.push(Mat2::from_symmetric(1e-6, 0.0, c));
            covs.push(Mat2::from_symmetric(-1e-6, 0.0, c));
            c = f32::from_bits(c.to_bits() + 1);
        }

        let (mut compared, mut asymmetric, mut negative, mut near) = (0, 0, 0, 0);
        for cov in covs {
            let Ok(inverse) = cov.inverse() else {
                continue;
            };
            let conic = record(cov).conic();
            assert_eq!(entry_bits(conic), entry_bits(inverse), "{cov:?}");
            compared += 1;
            asymmetric += usize::from(cov.at(0, 1).to_bits() != cov.at(1, 0).to_bits());
            negative += usize::from(cov.determinant() < 0.0);
            near += usize::from(cov.determinant().abs() < 1.00001e-12);
        }
        assert!(compared > 30_000 && asymmetric > 10_000 && negative > 10_000 && near > 20);
    }
}
