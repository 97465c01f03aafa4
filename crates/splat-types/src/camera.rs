//! Pinhole camera model used by the preprocessing stage.
//!
//! The camera carries the intrinsics (focal lengths in pixels, principal
//! point, resolution) and the extrinsic pose. Preprocessing uses it to
//! transform splat centers into view space, project them to pixel
//! coordinates and compute the local affine (Jacobian) approximation for
//! EWA covariance projection.

use crate::error::{Error, RenderError, Result};
use crate::mat::{Mat3, Mat4};
use crate::vec::{Vec2, Vec3};

/// Pinhole intrinsics in pixel units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Focal length along X, in pixels.
    pub focal_x: f32,
    /// Focal length along Y, in pixels.
    pub focal_y: f32,
    /// Principal point X, in pixels.
    pub center_x: f32,
    /// Principal point Y, in pixels.
    pub center_y: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl CameraIntrinsics {
    /// Builds intrinsics from a vertical field of view (radians) and an
    /// output resolution, placing the principal point at the image center.
    pub fn from_fov_y(fov_y: f32, width: u32, height: u32) -> Self {
        let focal_y = 0.5 * height as f32 / (0.5 * fov_y).tan();
        Self {
            focal_x: focal_y,
            focal_y,
            center_x: 0.5 * width as f32,
            center_y: 0.5 * height as f32,
            width,
            height,
        }
    }

    /// Fallible variant of [`CameraIntrinsics::from_fov_y`] rejecting
    /// zero-dimension resolutions and non-positive fields of view instead
    /// of producing intrinsics that fail `CameraIntrinsics::validate`.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidResolution`] when either dimension is
    /// zero and [`RenderError::InvalidIntrinsics`] when `fov_y` is not a
    /// usable positive angle.
    pub fn try_from_fov_y(
        fov_y: f32,
        width: u32,
        height: u32,
    ) -> std::result::Result<Self, RenderError> {
        if width == 0 || height == 0 {
            return Err(RenderError::InvalidResolution { width, height });
        }
        if !(fov_y.is_finite() && fov_y > 0.0 && fov_y < std::f32::consts::PI) {
            return Err(RenderError::InvalidIntrinsics {
                reason: format!("vertical fov {fov_y} must be a finite angle in (0, pi)"),
            });
        }
        Ok(Self::from_fov_y(fov_y, width, height))
    }

    /// Horizontal field of view in radians.
    pub fn fov_x(&self) -> f32 {
        2.0 * (0.5 * self.width as f32 / self.focal_x).atan()
    }

    /// Vertical field of view in radians.
    pub fn fov_y(&self) -> f32 {
        2.0 * (0.5 * self.height as f32 / self.focal_y).atan()
    }

    /// Validates that the intrinsics describe a usable camera.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the resolution is zero or a
    /// focal length is not strictly positive and finite (NaN and infinite
    /// focal lengths — e.g. from a NaN field of view — are rejected).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.width == 0 || self.height == 0 {
            return Err(Error::InvalidParameter {
                name: "resolution",
                reason: format!("{}x{} must be non-zero", self.width, self.height),
            });
        }
        // `!(x > 0.0)` rather than `x <= 0.0`: a NaN focal length (e.g.
        // from a NaN field of view) fails every comparison and must still
        // be rejected here.
        if !(self.focal_x > 0.0
            && self.focal_x.is_finite()
            && self.focal_y > 0.0
            && self.focal_y.is_finite())
        {
            return Err(Error::InvalidParameter {
                name: "focal",
                reason: "focal lengths must be strictly positive and finite".to_owned(),
            });
        }
        Ok(())
    }
}

/// Lateral guard band of the frustum: the cull keeps, and the projection
/// Jacobian is evaluated no further out than, 1.3× the half-field-of-view
/// tangent, as in the reference 3D-GS implementation.
pub(crate) const FRUSTUM_GUARD_BAND: f32 = 1.3;

/// The per-frame culling limits of a [`Camera`] ([`Camera::frustum`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frustum {
    /// Near clipping distance.
    pub near: f32,
    /// Far clipping distance.
    pub(crate) far: f32,
    /// Largest kept `|x| / depth`: the 1.3× guard band × `tan(fov_x / 2)`.
    pub limit_x: f32,
    /// Largest kept `|y| / depth`: the 1.3× guard band × `tan(fov_y / 2)`.
    pub limit_y: f32,
}

impl Frustum {
    /// Conservative frustum test for a sphere of `radius` around a point
    /// already in view space.
    ///
    /// Matches the culling performed in 3D-GS preprocessing: points behind
    /// the near plane, beyond the far plane or outside the lateral frustum
    /// widened by the guard band are culled. The comparisons are combined
    /// with `|` and `&`, not short-circuited, so the test compiles without
    /// branches and preprocessing's survivor count vectorizes.
    #[inline]
    pub fn contains_view(&self, view: Vec3, radius: f32) -> bool {
        let depth = -view.z;
        let outside_depth = (depth + radius < self.near) | (depth - radius > self.far);
        let safe_depth = depth.max(self.near);
        !outside_depth
            & (view.x.abs() - radius <= self.limit_x * safe_depth)
            & (view.y.abs() - radius <= self.limit_y * safe_depth)
    }
}

/// A posed pinhole camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    intrinsics: CameraIntrinsics,
    /// World-to-view transform.
    view: Mat4,
    /// Camera position in world space (cached inverse translation).
    position: Vec3,
    near: f32,
    far: f32,
}

impl Camera {
    /// Default near plane used when not otherwise specified (matches the
    /// 3D-GS reference renderer's 0.2 near clip).
    pub(crate) const DEFAULT_NEAR: f32 = 0.2;
    /// Default far plane.
    pub(crate) const DEFAULT_FAR: f32 = 1000.0;

    /// Creates a camera looking from `eye` toward `target` with the given
    /// `up` vector and intrinsics.
    ///
    /// The pose is not validated: a degenerate orientation (`eye == target`
    /// or `up` parallel to the view direction) produces a non-finite view
    /// matrix that [`Camera::validate`] — and every fallible render entry
    /// point built on it — rejects. Use [`Camera::try_look_at`] to surface
    /// the problem at construction time instead.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3, intrinsics: CameraIntrinsics) -> Self {
        Self {
            intrinsics,
            view: Mat4::look_at_rh(eye, target, up),
            position: eye,
            near: Self::DEFAULT_NEAR,
            far: Self::DEFAULT_FAR,
        }
    }

    /// Fallible variant of [`Camera::look_at`] that rejects degenerate
    /// poses instead of silently producing a NaN view matrix.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::DegenerateCamera`] when `eye == target`, the
    /// `up` vector is (numerically) parallel to the viewing direction or
    /// any input is non-finite, and propagates intrinsics validation
    /// failures ([`RenderError::InvalidResolution`] /
    /// [`RenderError::InvalidIntrinsics`]).
    pub fn try_look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        intrinsics: CameraIntrinsics,
    ) -> std::result::Result<Self, RenderError> {
        let camera = Self::look_at(eye, target, up, intrinsics);
        camera.validate()?;
        Ok(camera)
    }

    /// Validates that the camera can serve a render request: finite view
    /// matrix (i.e. a non-degenerate pose), usable intrinsics and an
    /// ordered positive clip range.
    ///
    /// # Errors
    ///
    /// Returns the [`RenderError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> std::result::Result<(), RenderError> {
        if self.intrinsics.width == 0 || self.intrinsics.height == 0 {
            return Err(RenderError::InvalidResolution {
                width: self.intrinsics.width,
                height: self.intrinsics.height,
            });
        }
        if let Err(error) = self.intrinsics.validate() {
            return Err(RenderError::InvalidIntrinsics {
                reason: error.to_string(),
            });
        }
        for row in 0..4 {
            for col in 0..4 {
                if !self.view.at(row, col).is_finite() {
                    return Err(RenderError::DegenerateCamera {
                        reason: "view matrix is non-finite".to_owned(),
                    });
                }
            }
        }
        // A degenerate look_at (up parallel to the view direction, or
        // eye == target) zeroes one or more basis vectors, collapsing the
        // rotation block; a usable pose has |det| == 1.
        let det = self.view_rotation().determinant();
        if !det.is_finite() || (det.abs() - 1.0).abs() > 1e-3 {
            return Err(RenderError::DegenerateCamera {
                reason: format!(
                    "view rotation is not orthonormal (determinant {det}); the up vector \
                     is parallel to the view direction or eye coincides with the target"
                ),
            });
        }
        if !(self.near.is_finite()
            && self.far.is_finite()
            && 0.0 < self.near
            && self.near < self.far)
        {
            return Err(RenderError::DegenerateCamera {
                reason: format!(
                    "clip range [{}, {}] must be finite, positive and ordered",
                    self.near, self.far
                ),
            });
        }
        Ok(())
    }

    /// The same pose at half the output resolution.
    ///
    /// Focal lengths and the principal point are scaled by exactly 0.5 (a
    /// power of two, so the scaling is bit-exact); odd dimensions round
    /// *outward* (`div_ceil`) so every full-resolution pixel has a source
    /// texel when the half-resolution frame is upsampled 2× at delivery,
    /// and the tile grid stays consistent with the intrinsics. The pose,
    /// clip range and field of view are unchanged.
    pub fn half_resolution(&self) -> Self {
        let i = &self.intrinsics;
        Self {
            intrinsics: CameraIntrinsics {
                focal_x: i.focal_x * 0.5,
                focal_y: i.focal_y * 0.5,
                center_x: i.center_x * 0.5,
                center_y: i.center_y * 0.5,
                width: i.width.div_ceil(2),
                height: i.height.div_ceil(2),
            },
            view: self.view,
            position: self.position,
            near: self.near,
            far: self.far,
        }
    }

    /// The camera intrinsics.
    #[inline]
    pub fn intrinsics(&self) -> &CameraIntrinsics {
        &self.intrinsics
    }

    /// World-space camera position.
    #[inline]
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// World-to-view transform.
    #[inline]
    pub fn view_matrix(&self) -> &Mat4 {
        &self.view
    }

    /// Near clipping distance.
    #[inline]
    pub fn near(&self) -> f32 {
        self.near
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.intrinsics.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.intrinsics.height
    }

    /// Transforms a world-space point into view space (camera looks along
    /// -Z; visible points have negative `z`).
    #[inline]
    pub fn to_view(&self, world: Vec3) -> Vec3 {
        self.view.transform_point(world).truncate()
    }

    /// Lane-chunked variant of [`Camera::to_view`]: transforms `W`
    /// world-space points given as coordinate lanes and returns the view
    /// coordinates as lanes.
    ///
    /// Each lane performs exactly the floating-point operations of
    /// [`Camera::to_view`] in the same order (no fused multiply-add), so
    /// every lane is bit-identical to the scalar transform — the chunked
    /// projection path is pinned against this property. The fixed lane
    /// count `W` lets the compiler unroll and vectorize the loop.
    pub fn to_view_lanes<const W: usize>(
        &self,
        xs: &[f32; W],
        ys: &[f32; W],
        zs: &[f32; W],
    ) -> ([f32; W], [f32; W], [f32; W]) {
        // The same coefficients `Mat4::mul_vec` reads, hoisted out of the
        // lane loop; `w = 1` makes the fourth column a plain translation
        // (`t * 1.0` is bit-exact).
        let (m00, m01, m02, m03) = (
            self.view.at(0, 0),
            self.view.at(0, 1),
            self.view.at(0, 2),
            self.view.at(0, 3),
        );
        let (m10, m11, m12, m13) = (
            self.view.at(1, 0),
            self.view.at(1, 1),
            self.view.at(1, 2),
            self.view.at(1, 3),
        );
        let (m20, m21, m22, m23) = (
            self.view.at(2, 0),
            self.view.at(2, 1),
            self.view.at(2, 2),
            self.view.at(2, 3),
        );
        let mut vx = [0.0f32; W];
        let mut vy = [0.0f32; W];
        let mut vz = [0.0f32; W];
        for lane in 0..W {
            let (x, y, z) = (xs[lane], ys[lane], zs[lane]);
            vx[lane] = ((m00 * x + m01 * y) + m02 * z) + m03 * 1.0;
            vy[lane] = ((m10 * x + m11 * y) + m12 * z) + m13 * 1.0;
            vz[lane] = ((m20 * x + m21 * y) + m22 * z) + m23 * 1.0;
        }
        (vx, vy, vz)
    }

    /// Depth of a world-space point along the viewing direction
    /// (positive in front of the camera). This is the `D` value used for
    /// tile-wise sorting.
    #[inline]
    pub fn depth_of(&self, world: Vec3) -> f32 {
        -self.to_view(world).z
    }

    /// Projects a view-space point to pixel coordinates.
    ///
    /// Returns `None` for points at or behind the camera plane.
    pub fn view_to_pixel(&self, view: Vec3) -> Option<Vec2> {
        let depth = -view.z;
        if depth <= 1e-6 {
            return None;
        }
        Some(Vec2::new(
            self.intrinsics.focal_x * view.x / depth + self.intrinsics.center_x,
            self.intrinsics.focal_y * view.y / depth + self.intrinsics.center_y,
        ))
    }

    /// The camera-constant culling quantities: the clip range and the
    /// guard-band tangent limits. They depend only on the camera, so a
    /// renderer computes them once per frame, not once per splat.
    pub fn frustum(&self) -> Frustum {
        Frustum {
            near: self.near,
            far: self.far,
            limit_x: FRUSTUM_GUARD_BAND * (0.5 * self.intrinsics.fov_x()).tan(),
            limit_y: FRUSTUM_GUARD_BAND * (0.5 * self.intrinsics.fov_y()).tan(),
        }
    }

    /// Conservative frustum test for a sphere of `radius` around `world`:
    /// [`Frustum::contains_view`] on the point's view-space position.
    pub fn is_in_frustum(&self, world: Vec3, radius: f32) -> bool {
        self.frustum().contains_view(self.to_view(world), radius)
    }

    /// The Jacobian of the projection at a view-space point, used by EWA
    /// splatting to project the 3D covariance to the screen:
    ///
    /// `J = [[fx/z, 0, -fx·x/z²], [0, fy/z, -fy·y/z²]]` (rows packed into a
    /// 3×3 matrix with a zero last row).
    pub fn projection_jacobian(&self, view: Vec3) -> Mat3 {
        let depth = (-view.z).max(1e-6);
        let inv_z = 1.0 / depth;
        let inv_z2 = inv_z * inv_z;
        // Note view.z is negative; the reference implementation clamps
        // lateral extent before computing the Jacobian, which we mirror in
        // the preprocessing stage rather than here.
        Mat3::from_rows(
            self.intrinsics.focal_x * inv_z,
            0.0,
            self.intrinsics.focal_x * view.x * inv_z2,
            0.0,
            self.intrinsics.focal_y * inv_z,
            self.intrinsics.focal_y * view.y * inv_z2,
            0.0,
            0.0,
            0.0,
        )
    }

    /// The world-to-view rotation block (no translation), used to rotate
    /// covariances into view space.
    pub fn view_rotation(&self) -> Mat3 {
        self.view.upper_left_3x3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_camera() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(std::f32::consts::FRAC_PI_2, 800, 600),
        )
    }

    #[test]
    fn center_point_projects_to_principal_point() {
        let cam = test_camera();
        let px = cam
            .view_to_pixel(cam.to_view(Vec3::new(0.0, 0.0, 5.0)))
            .expect("in front");
        assert!((px.x - 400.0).abs() < 1e-3);
        assert!((px.y - 300.0).abs() < 1e-3);
    }

    #[test]
    fn depth_increases_along_view_direction() {
        let cam = test_camera();
        assert!(cam.depth_of(Vec3::new(0.0, 0.0, 2.0)) < cam.depth_of(Vec3::new(0.0, 0.0, 5.0)));
        assert!((cam.depth_of(Vec3::new(0.0, 0.0, 2.0)) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn points_behind_camera_do_not_project() {
        let cam = test_camera();
        assert!(cam
            .view_to_pixel(cam.to_view(Vec3::new(0.0, 0.0, -1.0)))
            .is_none());
    }

    #[test]
    fn frustum_culls_behind_and_far_points() {
        let cam = test_camera();
        assert!(!cam.is_in_frustum(Vec3::new(0.0, 0.0, -5.0), 0.1));
        assert!(!cam.is_in_frustum(Vec3::new(0.0, 0.0, 5000.0), 0.1));
        assert!(cam.is_in_frustum(Vec3::new(0.0, 0.0, 10.0), 0.1));
    }

    #[test]
    fn frustum_keeps_points_near_the_border_with_guard_band() {
        let cam = test_camera();
        // 90° vertical FOV at depth 10 → half-extent 10; the 1.3 guard band
        // keeps points slightly outside.
        assert!(cam.is_in_frustum(Vec3::new(0.0, 11.0, 10.0), 0.0));
        assert!(!cam.is_in_frustum(Vec3::new(0.0, 20.0, 10.0), 0.0));
    }

    /// Reference frustum test for [`Frustum::contains_view`]: one
    /// self-contained call that transforms the point and recomputes the
    /// guard-band tangents itself.
    fn per_call_is_in_frustum(camera: &Camera, world: Vec3, radius: f32) -> bool {
        let view = camera.to_view(world);
        let depth = -view.z;
        if depth + radius < camera.near || depth - radius > camera.far {
            return false;
        }
        let limit_x = 1.3 * (0.5 * camera.intrinsics.fov_x()).tan();
        let limit_y = 1.3 * (0.5 * camera.intrinsics.fov_y()).tan();
        let safe_depth = depth.max(camera.near);
        view.x.abs() - radius <= limit_x * safe_depth
            && view.y.abs() - radius <= limit_y * safe_depth
    }

    #[test]
    fn frustum_decides_like_the_per_call_test() {
        let off_axis = |intrinsics| Camera {
            near: 0.5,
            far: 40.0,
            ..Camera::look_at(
                Vec3::new(2.0, -1.5, 3.0),
                Vec3::new(-0.5, 0.75, 9.0),
                Vec3::Y,
                intrinsics,
            )
        };
        let cameras = [
            test_camera(),
            // Non-square: fov_x ≠ fov_y.
            off_axis(CameraIntrinsics::from_fov_y(0.7, 640, 200)),
            // Odd size at half resolution: rounding the size outward shifts
            // the field of view.
            off_axis(CameraIntrinsics::from_fov_y(1.1, 97, 63)).half_resolution(),
            Camera::look_at(
                Vec3::new(f32::NAN, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::Y,
                CameraIntrinsics::from_fov_y(1.0, 640, 480),
            ),
        ];
        let mut rng = crate::rng::Rng::seed_from_u64(0x5EED_F00D_0000_0027);
        for (c, camera) in cameras.iter().enumerate() {
            let frustum = camera.frustum();
            // Map a view-space point back to the world: `R^T (v - t)`.
            let rotation_t = camera.view_rotation().transpose();
            let m = camera.view_matrix();
            let translation = Vec3::new(m.at(0, 3), m.at(1, 3), m.at(2, 3));
            let (mut kept, mut culled) = (0, 0);
            for case in 0..4000 {
                let radius = match case % 4 {
                    0 => 0.0,
                    _ => rng.range_f32(0.0, 0.5),
                };
                // Crowd the depths at the near and far planes (±radius, the
                // cull's edges) or spread them through the range.
                let jitter = rng.range_f32(-1e-3, 1e-3);
                let depth = match case % 3 {
                    0 => camera.near + radius * rng.range_f32(-1.0, 1.0).signum() + jitter,
                    1 => camera.far - radius * rng.range_f32(-1.0, 1.0).signum() + jitter,
                    _ => rng.range_f32(camera.near, camera.far),
                };
                // Crowd the lateral offsets at the guard band on one axis.
                let side_x = rng.range_f32(-1.0, 1.0).signum();
                let side_y = rng.range_f32(-1.0, 1.0).signum();
                let band = rng.range_f32(0.999, 1.001);
                let safe_depth = depth.max(camera.near);
                let (x, y) = if case % 2 == 0 {
                    (
                        side_x * (frustum.limit_x * safe_depth * band + radius),
                        rng.range_f32(-1.0, 1.0) * frustum.limit_y * safe_depth,
                    )
                } else {
                    (
                        rng.range_f32(-1.0, 1.0) * frustum.limit_x * safe_depth,
                        side_y * (frustum.limit_y * safe_depth * band + radius),
                    )
                };
                let view = Vec3::new(x, y, -depth);
                let world = rotation_t.mul_vec(view - translation);
                let expected = per_call_is_in_frustum(camera, world, radius);
                assert_eq!(
                    frustum.contains_view(camera.to_view(world), radius),
                    expected,
                    "camera {c}, case {case}: {world:?} r={radius}"
                );
                assert_eq!(camera.is_in_frustum(world, radius), expected);
                if expected {
                    kept += 1;
                } else {
                    culled += 1;
                }
            }
            // The cloud straddles the boundary: both decisions occur, except
            // for the NaN pose, which culls everything.
            if c == cameras.len() - 1 {
                assert_eq!(kept, 0, "a NaN pose keeps nothing");
            } else {
                assert!(
                    kept > 500 && culled > 500,
                    "camera {c}: {kept} kept, {culled} culled"
                );
            }
        }
    }

    #[test]
    fn half_resolution_halves_intrinsics_and_rounds_outward() {
        let cam = test_camera();
        let half = cam.half_resolution();
        let (full_i, half_i) = (cam.intrinsics(), half.intrinsics());
        assert_eq!(half_i.width, 400);
        assert_eq!(half_i.height, 300);
        assert_eq!(half_i.focal_x.to_bits(), (full_i.focal_x * 0.5).to_bits());
        assert_eq!(half_i.focal_y.to_bits(), (full_i.focal_y * 0.5).to_bits());
        assert_eq!(half_i.center_x.to_bits(), (full_i.center_x * 0.5).to_bits());
        assert_eq!(half_i.center_y.to_bits(), (full_i.center_y * 0.5).to_bits());
        // Pose, clip range and field of view are untouched.
        assert_eq!(half.view_matrix(), cam.view_matrix());
        assert_eq!(half.position(), cam.position());
        assert_eq!(half.near(), cam.near());
        assert_eq!(half.far, cam.far);
        assert!((half_i.fov_y() - full_i.fov_y()).abs() < 1e-5);
        assert!(half.validate().is_ok());

        // Odd dimensions round outward so upsampling 2x always has a
        // source texel: 97x63 -> 49x32, and 2*49 >= 97, 2*32 >= 63.
        let odd = Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 97, 63),
        )
        .half_resolution();
        assert_eq!(odd.intrinsics().width, 49);
        assert_eq!(odd.intrinsics().height, 32);
        assert!(odd.validate().is_ok());

        // Half-resolution is idempotent in shape: applying it twice keeps
        // shrinking without ever hitting zero.
        let tiny = odd.half_resolution().half_resolution().half_resolution();
        assert!(tiny.intrinsics().width >= 1);
        assert!(tiny.intrinsics().height >= 1);
        assert!(tiny.validate().is_ok());
    }

    #[test]
    fn lateral_offset_moves_projection() {
        let cam = test_camera();
        let left = cam
            .view_to_pixel(cam.to_view(Vec3::new(-1.0, 0.0, 5.0)))
            .unwrap();
        let right = cam
            .view_to_pixel(cam.to_view(Vec3::new(1.0, 0.0, 5.0)))
            .unwrap();
        // Symmetric offsets land symmetrically around the principal point
        // and on opposite sides of it.
        assert!((left.x - 400.0).abs() > 1.0);
        assert!(((left.x - 400.0) + (right.x - 400.0)).abs() < 1e-3);
    }

    #[test]
    fn to_view_lanes_is_bit_identical_to_the_scalar_transform() {
        let cam = Camera::look_at(
            Vec3::new(3.0, -2.0, 4.5),
            Vec3::new(0.3, 1.0, 0.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        );
        let xs = [0.1f32, -3.7, 12.5, 0.0, 8.25, -0.001, 4.0, 1e3];
        let ys = [2.0f32, 0.5, -9.25, 1.0, -2.5, 7.125, 0.0, -1e3];
        let zs = [5.0f32, 1.25, 3.0, -4.0, 0.75, 2.5, -8.0, 0.5];
        let (vx, vy, vz) = cam.to_view_lanes(&xs, &ys, &zs);
        for lane in 0..8 {
            let scalar = cam.to_view(Vec3::new(xs[lane], ys[lane], zs[lane]));
            assert_eq!(scalar.x.to_bits(), vx[lane].to_bits(), "lane {lane} x");
            assert_eq!(scalar.y.to_bits(), vy[lane].to_bits(), "lane {lane} y");
            assert_eq!(scalar.z.to_bits(), vz[lane].to_bits(), "lane {lane} z");
        }
    }

    #[test]
    fn intrinsics_validate_rejects_zero_resolution() {
        let mut intr = CameraIntrinsics::from_fov_y(1.0, 640, 480);
        intr.width = 0;
        assert!(intr.validate().is_err());
    }

    #[test]
    fn intrinsics_fov_round_trip() {
        let fov = std::f32::consts::FRAC_PI_3;
        let intr = CameraIntrinsics::from_fov_y(fov, 1920, 1080);
        assert!((intr.fov_y() - fov).abs() < 1e-4);
    }

    #[test]
    fn jacobian_scales_with_inverse_depth() {
        let cam = test_camera();
        let near = cam.projection_jacobian(Vec3::new(0.0, 0.0, -2.0));
        let far = cam.projection_jacobian(Vec3::new(0.0, 0.0, -4.0));
        assert!((near.at(0, 0) / far.at(0, 0) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn view_rotation_is_orthonormal() {
        let cam = Camera::look_at(
            Vec3::new(3.0, 2.0, -4.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        );
        let r = cam.view_rotation();
        let rt_r = r.transpose() * r;
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((rt_r.at(i, j) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn try_look_at_rejects_degenerate_poses() {
        let intr = CameraIntrinsics::from_fov_y(1.0, 640, 480);
        // Up parallel to the viewing direction.
        let parallel_up = Camera::try_look_at(Vec3::ZERO, Vec3::new(0.0, 5.0, 0.0), Vec3::Y, intr);
        assert!(matches!(
            parallel_up,
            Err(RenderError::DegenerateCamera { .. })
        ));
        // Eye coincides with the target.
        let zero_dir = Camera::try_look_at(Vec3::splat(1.0), Vec3::splat(1.0), Vec3::Y, intr);
        assert!(matches!(
            zero_dir,
            Err(RenderError::DegenerateCamera { .. })
        ));
        // A healthy pose round-trips.
        let ok = Camera::try_look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), Vec3::Y, intr)
            .expect("valid pose");
        assert_eq!(ok.width(), 640);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn try_look_at_rejects_zero_resolution() {
        let mut intr = CameraIntrinsics::from_fov_y(1.0, 640, 480);
        intr.height = 0;
        let result = Camera::try_look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), Vec3::Y, intr);
        assert_eq!(
            result.unwrap_err(),
            RenderError::InvalidResolution {
                width: 640,
                height: 0
            }
        );
    }

    #[test]
    fn validate_rejects_bad_clip_ranges() {
        let intr = CameraIntrinsics::from_fov_y(1.0, 320, 240);
        let camera = Camera {
            near: 10.0,
            far: 1.0,
            ..Camera::look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), Vec3::Y, intr)
        };
        assert!(matches!(
            camera.validate(),
            Err(RenderError::DegenerateCamera { .. })
        ));
    }

    #[test]
    fn try_from_fov_y_rejects_bad_inputs() {
        assert!(matches!(
            CameraIntrinsics::try_from_fov_y(1.0, 0, 480),
            Err(RenderError::InvalidResolution { .. })
        ));
        assert!(matches!(
            CameraIntrinsics::try_from_fov_y(0.0, 640, 480),
            Err(RenderError::InvalidIntrinsics { .. })
        ));
        assert!(matches!(
            CameraIntrinsics::try_from_fov_y(f32::NAN, 640, 480),
            Err(RenderError::InvalidIntrinsics { .. })
        ));
        assert!(CameraIntrinsics::try_from_fov_y(1.0, 640, 480).is_ok());
    }
}
