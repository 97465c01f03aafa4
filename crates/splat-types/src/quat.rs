//! Unit quaternions representing splat orientations.
//!
//! 3D-GS parameterizes each Gaussian's covariance as `R S S^T R^T` where `R`
//! comes from a learned quaternion and `S` is a diagonal scale matrix. The
//! quaternion type here provides exactly that conversion plus the usual
//! composition and axis-angle constructors needed by the synthetic scene
//! generators.

use crate::mat::Mat3;
use crate::vec::Vec3;
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk` used to represent rotations.
///
/// Construction helpers always return normalized quaternions; deserialized
/// or manually constructed values can be re-normalized with
/// [`Quat::normalized`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar (real) part.
    pub w: f32,
    /// `i` coefficient.
    pub x: f32,
    /// `j` coefficient.
    pub y: f32,
    /// `k` coefficient.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Self = Self {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from raw coefficients (`w`, `x`, `y`, `z`).
    ///
    /// The result is *not* normalized; call [`Quat::normalized`] when the
    /// coefficients do not already lie on the unit sphere.
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Creates a rotation of `angle` radians around `axis`.
    ///
    /// A zero-length axis yields the identity rotation.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        if axis == Vec3::ZERO {
            return Self::IDENTITY;
        }
        let (s, c) = (0.5 * angle).sin_cos();
        Self::new(c, axis.x * s, axis.y * s, axis.z * s)
    }

    /// Creates a rotation from intrinsic Euler angles (yaw around Y, pitch
    /// around X, roll around Z), applied in that order.
    pub fn from_euler(yaw: f32, pitch: f32, roll: f32) -> Self {
        Self::from_axis_angle(Vec3::Y, yaw)
            * Self::from_axis_angle(Vec3::X, pitch)
            * Self::from_axis_angle(Vec3::Z, roll)
    }

    /// Squared norm of the coefficients.
    #[inline]
    pub(crate) fn norm_squared(self) -> f32 {
        self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm of the coefficients.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm_squared().sqrt()
    }

    /// Returns a unit quaternion in the same direction, or the identity if
    /// the norm is (near) zero.
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n <= f32::EPSILON {
            Self::IDENTITY
        } else {
            Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Converts the (assumed unit) quaternion to a 3×3 rotation matrix.
    pub(crate) fn to_rotation_matrix(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3::from_rows(
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        )
    }
}

impl Mul for Quat {
    type Output = Self;

    /// Hamilton product; composes rotations (`a * b` applies `b` first).
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4
    }

    fn vec_approx(a: Vec3, b: Vec3) -> bool {
        approx(a.x, b.x) && approx(a.y, b.y) && approx(a.z, b.z)
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Quat::IDENTITY.to_rotation_matrix().mul_vec(v), v);
    }

    #[test]
    fn quarter_turn_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        assert!(vec_approx(q.to_rotation_matrix().mul_vec(Vec3::X), Vec3::Y));
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let q = Quat::from_euler(0.3, -0.7, 1.1);
        let r = q.to_rotation_matrix();
        let rt_r = r.transpose() * r;
        for row in 0..3 {
            for col in 0..3 {
                let expected = if row == col { 1.0 } else { 0.0 };
                assert!(approx(rt_r.at(row, col), expected), "entry ({row},{col})");
            }
        }
        assert!(approx(r.determinant(), 1.0));
    }

    #[test]
    fn zero_axis_yields_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }

    #[test]
    fn normalizing_zero_quaternion_yields_identity() {
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalized(), Quat::IDENTITY);
    }

    #[test]
    fn rotation_preserves_length() {
        let mut rng = Rng::seed_from_u64(0xAAAA_BBBB_CCCC_DDDD);
        for case in 0..400 {
            let q = Quat::from_euler(
                rng.range_f32(-3.0, 3.0),
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-3.0, 3.0),
            );
            let v = Vec3::new(
                rng.range_f32(-10.0, 10.0),
                rng.range_f32(-10.0, 10.0),
                rng.range_f32(-10.0, 10.0),
            );
            assert!(
                (q.to_rotation_matrix().mul_vec(v).length() - v.length()).abs()
                    < 1e-3 * (1.0 + v.length()),
                "case {case}"
            );
        }
    }

    #[test]
    fn composition_matches_matrix_product() {
        let mut rng = Rng::seed_from_u64(0x0F0F_0F0F_F0F0_F0F0);
        for case in 0..300 {
            let q1 = Quat::from_euler(
                rng.range_f32(-3.0, 3.0),
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-3.0, 3.0),
            );
            let q2 = Quat::from_euler(
                rng.range_f32(-3.0, 3.0),
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-3.0, 3.0),
            );
            let v = Vec3::new(
                rng.range_f32(-5.0, 5.0),
                rng.range_f32(-5.0, 5.0),
                rng.range_f32(-5.0, 5.0),
            );
            let via_quat = (q1 * q2).to_rotation_matrix().mul_vec(v);
            let via_mat = q1
                .to_rotation_matrix()
                .mul_vec(q2.to_rotation_matrix().mul_vec(v));
            assert!(
                (via_quat - via_mat).length() < 1e-2 * (1.0 + v.length()),
                "case {case}"
            );
        }
    }

    #[test]
    fn product_of_unit_quats_is_unit() {
        let mut rng = Rng::seed_from_u64(0x1357_9BDF_2468_ACE0);
        for case in 0..400 {
            let q = Quat::from_euler(
                rng.range_f32(-3.0, 3.0),
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-3.0, 3.0),
            ) * Quat::from_euler(
                rng.range_f32(-3.0, 3.0),
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-3.0, 3.0),
            );
            assert!((q.norm() - 1.0).abs() < 1e-3, "case {case}");
        }
    }
}
