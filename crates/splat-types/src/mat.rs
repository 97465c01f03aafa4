//! Small square matrices (`Mat2`, `Mat3`, `Mat4`) over `f32`.
//!
//! Matrices are stored column-major (matching the usual graphics convention)
//! and provide exactly the operations required by the splatting pipeline:
//! multiplication, transpose, inversion, determinants and the symmetric
//! 2×2 eigendecomposition used to derive screen-space splat extents.

use crate::error::{Error, Result};
use crate::vec::{Vec2, Vec3, Vec4};
use std::ops::{Add, Mul, Sub};

/// A 2×2 single-precision matrix (projected 2D covariance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2 {
    /// Columns of the matrix.
    pub(crate) cols: [Vec2; 2],
}

/// A 3×3 single-precision matrix (3D covariance, rotations, Jacobians).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Columns of the matrix.
    pub(crate) cols: [Vec3; 3],
}

/// A 4×4 single-precision matrix (view and projection transforms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns of the matrix.
    pub(crate) cols: [Vec4; 4],
}

impl Default for Mat2 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat2 {
    /// The identity matrix.
    pub(crate) const IDENTITY: Self = Self {
        cols: [Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)],
    };

    /// The zero matrix.
    pub const ZERO: Self = Self {
        cols: [Vec2::ZERO, Vec2::ZERO],
    };

    /// Builds a matrix from two columns.
    #[inline]
    pub(crate) const fn from_cols(c0: Vec2, c1: Vec2) -> Self {
        Self { cols: [c0, c1] }
    }

    /// Builds a matrix from row-major scalar entries.
    #[inline]
    pub(crate) const fn from_rows(m00: f32, m01: f32, m10: f32, m11: f32) -> Self {
        Self::from_cols(Vec2::new(m00, m10), Vec2::new(m01, m11))
    }

    /// Builds a symmetric matrix from the upper-triangular entries
    /// `[a, b; b, c]`, the storage format used for 2D covariances.
    #[inline]
    pub const fn from_symmetric(a: f32, b: f32, c: f32) -> Self {
        Self::from_rows(a, b, b, c)
    }

    /// Entry accessor: `row`, `col`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Determinant.
    #[inline]
    pub fn determinant(&self) -> f32 {
        self.at(0, 0) * self.at(1, 1) - self.at(0, 1) * self.at(1, 0)
    }

    /// Matrix inverse.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when the determinant magnitude is
    /// below `1e-12`, which for a covariance matrix corresponds to a fully
    /// degenerate splat.
    pub fn inverse(&self) -> Result<Self> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return Err(Error::SingularMatrix { determinant: det });
        }
        Ok(self.scaled_adjugate(1.0 / det))
    }

    /// The adjugate `[m11, −m01; −m10, m00]` times `inv_det`: the inverse
    /// when `inv_det` is `1 / determinant()`. [`Mat2::inverse`] computes
    /// its result with exactly these operations, so a caller that stored
    /// the matrix and `inv_det` gets the inverse back bit for bit.
    #[inline]
    pub fn scaled_adjugate(&self, inv_det: f32) -> Self {
        Self::from_rows(
            self.at(1, 1) * inv_det,
            -self.at(0, 1) * inv_det,
            -self.at(1, 0) * inv_det,
            self.at(0, 0) * inv_det,
        )
    }

    /// Eigenvalues of a *symmetric* 2×2 matrix, returned as
    /// `(lambda_max, lambda_min)`.
    ///
    /// The caller is responsible for only passing symmetric matrices (2D
    /// covariances); the off-diagonal entries are averaged defensively.
    #[inline]
    pub fn symmetric_eigenvalues(&self) -> (f32, f32) {
        let a = self.at(0, 0);
        let b = 0.5 * (self.at(0, 1) + self.at(1, 0));
        let c = self.at(1, 1);
        let mid = 0.5 * (a + c);
        let disc = (0.25 * (a - c) * (a - c) + b * b).max(0.0).sqrt();
        (mid + disc, mid - disc)
    }

    /// Eigenvectors of a *symmetric* 2×2 matrix, returned as unit vectors
    /// `(v_max, v_min)` matching [`Mat2::symmetric_eigenvalues`].
    pub fn symmetric_eigenvectors(&self) -> (Vec2, Vec2) {
        let a = self.at(0, 0);
        let b = 0.5 * (self.at(0, 1) + self.at(1, 0));
        let c = self.at(1, 1);
        let (l_max, _) = self.symmetric_eigenvalues();
        let v_max = if b.abs() > 1e-12 {
            Vec2::new(l_max - c, b).normalized()
        } else if a >= c {
            Vec2::new(1.0, 0.0)
        } else {
            Vec2::new(0.0, 1.0)
        };
        let v_min = Vec2::new(-v_max.y, v_max.x);
        (v_max, v_min)
    }

    /// Multiplies the matrix by a column vector.
    #[inline]
    pub fn mul_vec(&self, v: Vec2) -> Vec2 {
        self.cols[0] * v.x + self.cols[1] * v.y
    }
}

impl Mul for Mat2 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(self.mul_vec(rhs.cols[0]), self.mul_vec(rhs.cols[1]))
    }
}

impl Add for Mat2 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_cols(self.cols[0] + rhs.cols[0], self.cols[1] + rhs.cols[1])
    }
}

impl Sub for Mat2 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_cols(self.cols[0] - rhs.cols[0], self.cols[1] - rhs.cols[1])
    }
}

impl Mul<f32> for Mat2 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        Self::from_cols(self.cols[0] * rhs, self.cols[1] * rhs)
    }
}

impl Mat3 {
    /// The identity matrix.
    pub(crate) const IDENTITY: Self = Self {
        cols: [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from three columns.
    #[inline]
    pub(crate) const fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self { cols: [c0, c1, c2] }
    }

    /// Builds a matrix from row-major scalar entries.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub const fn from_rows(
        m00: f32,
        m01: f32,
        m02: f32,
        m10: f32,
        m11: f32,
        m12: f32,
        m20: f32,
        m21: f32,
        m22: f32,
    ) -> Self {
        Self::from_cols(
            Vec3::new(m00, m10, m20),
            Vec3::new(m01, m11, m21),
            Vec3::new(m02, m12, m22),
        )
    }

    /// Builds a diagonal matrix.
    #[inline]
    pub(crate) const fn from_diagonal(d: Vec3) -> Self {
        Self::from_rows(d.x, 0.0, 0.0, 0.0, d.y, 0.0, 0.0, 0.0, d.z)
    }

    /// Entry accessor: `row`, `col`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        Self::from_rows(
            self.at(0, 0),
            self.at(1, 0),
            self.at(2, 0),
            self.at(0, 1),
            self.at(1, 1),
            self.at(2, 1),
            self.at(0, 2),
            self.at(1, 2),
            self.at(2, 2),
        )
    }

    /// Determinant.
    pub(crate) fn determinant(&self) -> f32 {
        let c = &self.cols;
        c[0].dot(c[1].cross(c[2]))
    }

    /// Multiplies the matrix by a column vector.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z
    }

    /// Extracts the upper-left 2×2 block (used when projecting a 3D
    /// covariance to the screen).
    #[inline]
    pub fn upper_left_2x2(&self) -> Mat2 {
        Mat2::from_rows(self.at(0, 0), self.at(0, 1), self.at(1, 0), self.at(1, 1))
    }
}

impl Mul for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(
            self.mul_vec(rhs.cols[0]),
            self.mul_vec(rhs.cols[1]),
            self.mul_vec(rhs.cols[2]),
        )
    }
}

impl Add for Mat3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_cols(
            self.cols[0] + rhs.cols[0],
            self.cols[1] + rhs.cols[1],
            self.cols[2] + rhs.cols[2],
        )
    }
}

impl Sub for Mat3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_cols(
            self.cols[0] - rhs.cols[0],
            self.cols[1] - rhs.cols[1],
            self.cols[2] - rhs.cols[2],
        )
    }
}

impl Mul<f32> for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        Self::from_cols(self.cols[0] * rhs, self.cols[1] * rhs, self.cols[2] * rhs)
    }
}

impl Mat4 {
    /// The identity matrix.
    pub(crate) const IDENTITY: Self = Self {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four columns.
    #[inline]
    pub(crate) const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Entry accessor: `row`, `col`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Multiplies the matrix by a column vector.
    #[inline]
    pub(crate) fn mul_vec(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Transforms a 3D point (implicit `w = 1`).
    #[inline]
    pub(crate) fn transform_point(&self, p: Vec3) -> Vec4 {
        self.mul_vec(p.extend(1.0))
    }

    /// Extracts the upper-left 3×3 rotation/scale block.
    pub(crate) fn upper_left_3x3(&self) -> Mat3 {
        Mat3::from_cols(
            self.cols[0].truncate(),
            self.cols[1].truncate(),
            self.cols[2].truncate(),
        )
    }

    /// Right-handed look-at view matrix (camera looks along -Z in view
    /// space, matching the OpenGL convention used by the 3D-GS reference
    /// renderer).
    pub(crate) fn look_at_rh(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Self::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }
}

impl Mul for Mat4 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(
            self.mul_vec(rhs.cols[0]),
            self.mul_vec(rhs.cols[1]),
            self.mul_vec(rhs.cols[2]),
            self.mul_vec(rhs.cols[3]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    fn mat2_approx(a: &Mat2, b: &Mat2) -> bool {
        (0..2).all(|r| (0..2).all(|c| approx(a.at(r, c), b.at(r, c))))
    }

    #[test]
    fn mat2_inverse_round_trip() {
        let m = Mat2::from_rows(2.0, 1.0, 1.0, 3.0);
        let inv = m.inverse().expect("invertible");
        assert!(mat2_approx(&(m * inv), &Mat2::IDENTITY));
    }

    #[test]
    fn mat2_singular_inverse_fails() {
        let m = Mat2::from_rows(1.0, 2.0, 2.0, 4.0);
        assert!(m.inverse().is_err());
    }

    #[test]
    fn mat2_symmetric_eigenvalues_of_diagonal() {
        let m = Mat2::from_symmetric(4.0, 0.0, 1.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        assert!(approx(l1, 4.0));
        assert!(approx(l2, 1.0));
    }

    #[test]
    fn mat2_eigenvectors_are_orthonormal() {
        let m = Mat2::from_symmetric(3.0, 1.2, 2.0);
        let (v1, v2) = m.symmetric_eigenvectors();
        assert!(approx(v1.length(), 1.0));
        assert!(approx(v2.length(), 1.0));
        assert!(approx(v1.dot(v2), 0.0));
    }

    #[test]
    fn mat2_eigen_reconstruction() {
        // A = V diag(l) V^T for symmetric A.
        let m = Mat2::from_symmetric(5.0, -1.5, 2.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        let (v1, v2) = m.symmetric_eigenvectors();
        let recon = |r: usize, c: usize| -> f32 { l1 * v1[r] * v1[c] + l2 * v2[r] * v2[c] };
        for r in 0..2 {
            for c in 0..2 {
                assert!(approx(recon(r, c), m.at(r, c)), "entry ({r},{c})");
            }
        }
    }

    #[test]
    fn mat3_determinant_of_diagonal() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx(m.determinant(), 24.0));
    }

    #[test]
    fn mat4_look_at_places_eye_at_origin() {
        let eye = Vec3::new(1.0, 2.0, 3.0);
        let view = Mat4::look_at_rh(eye, Vec3::ZERO, Vec3::Y);
        let p = view.transform_point(eye).truncate();
        assert!(approx(p.x, 0.0) && approx(p.y, 0.0) && approx(p.z, 0.0));
    }

    #[test]
    fn mat4_look_at_target_is_in_front() {
        // Looking down -Z in view space: the target must have negative z.
        let view = Mat4::look_at_rh(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let p = view.transform_point(Vec3::ZERO).truncate();
        assert!(p.z < 0.0);
    }

    #[test]
    fn upper_left_blocks_match() {
        let m3 = Mat3::from_rows(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0);
        let m2 = m3.upper_left_2x2();
        assert_eq!(m2.at(0, 0), 1.0);
        assert_eq!(m2.at(0, 1), 2.0);
        assert_eq!(m2.at(1, 0), 4.0);
        assert_eq!(m2.at(1, 1), 5.0);
    }

    #[test]
    fn mat2_symmetric_eigenvalues_are_ordered() {
        let mut rng = Rng::seed_from_u64(0x0123_4567_89AB_CDEF);
        for case in 0..500 {
            let m = Mat2::from_symmetric(
                rng.range_f32(-10.0, 10.0),
                rng.range_f32(-10.0, 10.0),
                rng.range_f32(-10.0, 10.0),
            );
            let (l1, l2) = m.symmetric_eigenvalues();
            assert!(l1 >= l2, "case {case}");
            // Trace and determinant are preserved by the eigendecomposition.
            assert!(approx(l1 + l2, m.at(0, 0) + m.at(1, 1)), "case {case}");
            assert!(
                (l1 * l2 - m.determinant()).abs() <= 1e-2 * (1.0 + m.determinant().abs()),
                "case {case}"
            );
        }
    }

    #[test]
    fn mat3_transpose_is_involutive() {
        let mut rng = Rng::seed_from_u64(0xFEDC_BA98_7654_3210);
        for _ in 0..300 {
            let v: Vec<f32> = (0..9).map(|_| rng.range_f32(-10.0, 10.0)).collect();
            let m = Mat3::from_rows(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]);
            assert_eq!(m.transpose().transpose(), m);
        }
    }
}
