//! Camera trajectory generation for multi-view experiments.
//!
//! The paper's evaluation renders held-out test views of each scene (every
//! 8th/64th/128th image depending on the dataset). The synthetic analogue is
//! a deterministic camera path through the populated volume; experiments
//! sample a handful of views from it.

use splat_types::{Camera, CameraIntrinsics, Vec3};

/// A deterministic sequence of camera poses sharing one set of intrinsics.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraTrajectory {
    intrinsics: CameraIntrinsics,
    keyframes: Vec<Pose>,
}

/// A single camera pose (eye position plus look-at target).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pose {
    /// Camera position.
    pub(crate) eye: Vec3,
    /// Point the camera looks at.
    pub(crate) target: Vec3,
}

impl CameraTrajectory {
    /// A lateral sweep in front of the scene: the camera slides along X at
    /// the origin plane while looking into the populated slab, which mimics
    /// the capture paths of Tanks&Temples-style scenes.
    ///
    /// `lateral_extent` is the half-width of the sweep, `focus_depth` the
    /// depth of the look-at point and `view_count` the number of poses.
    pub fn lateral_sweep(
        intrinsics: CameraIntrinsics,
        lateral_extent: f32,
        focus_depth: f32,
        view_count: usize,
    ) -> Self {
        let count = view_count.max(1);
        let keyframes = (0..count)
            .map(|i| {
                let t = if count == 1 {
                    0.5
                } else {
                    i as f32 / (count - 1) as f32
                };
                let x = (t * 2.0 - 1.0) * lateral_extent;
                Pose {
                    eye: Vec3::new(x, 0.0, 0.0),
                    target: Vec3::new(x * 0.3, 0.0, focus_depth),
                }
            })
            .collect();
        Self {
            intrinsics,
            keyframes,
        }
    }

    /// An orbit around a center point at fixed height and radius, looking
    /// inward — the typical object-centric capture (e.g. *truck*).
    pub fn orbit(
        intrinsics: CameraIntrinsics,
        center: Vec3,
        radius: f32,
        height: f32,
        view_count: usize,
    ) -> Self {
        let count = view_count.max(1);
        let keyframes = (0..count)
            .map(|i| {
                let angle = std::f32::consts::TAU * i as f32 / count as f32;
                Pose {
                    eye: center + Vec3::new(radius * angle.cos(), height, radius * angle.sin()),
                    target: center,
                }
            })
            .collect();
        Self {
            intrinsics,
            keyframes,
        }
    }

    /// Number of poses.
    pub fn len(&self) -> usize {
        self.keyframes.len()
    }

    /// Returns `true` when the trajectory holds no poses.
    pub fn is_empty(&self) -> bool {
        self.keyframes.is_empty()
    }

    /// The camera for pose `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn camera(&self, index: usize) -> Camera {
        let pose = self.keyframes[index];
        Camera::look_at(pose.eye, pose.target, Vec3::Y, self.intrinsics)
    }

    /// Iterates over all cameras of the trajectory.
    pub fn cameras(&self) -> impl Iterator<Item = Camera> + '_ {
        (0..self.len()).map(|i| self.camera(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intr() -> CameraIntrinsics {
        CameraIntrinsics::from_fov_y(1.0, 640, 480)
    }

    #[test]
    fn lateral_sweep_spans_extent() {
        let traj = CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 11);
        assert_eq!(traj.len(), 11);
        let first = traj.camera(0);
        let last = traj.camera(10);
        assert!((first.position().x + 5.0).abs() < 1e-5);
        assert!((last.position().x - 5.0).abs() < 1e-5);
    }

    #[test]
    fn single_view_sweep_is_centered() {
        let traj = CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 1);
        assert_eq!(traj.len(), 1);
        assert!(traj.camera(0).position().x.abs() < 1e-5);
    }

    #[test]
    fn orbit_keeps_constant_distance() {
        let center = Vec3::new(1.0, 0.0, 5.0);
        let traj = CameraTrajectory::orbit(intr(), center, 4.0, 2.0, 8);
        for cam in traj.cameras() {
            let lateral = (cam.position() - center - Vec3::new(0.0, 2.0, 0.0)).length();
            assert!((lateral - 4.0).abs() < 1e-4);
        }
    }

    #[test]
    fn trajectories_are_pose_deterministic() {
        // Rebuilding a trajectory from the same parameters must yield
        // bitwise-identical poses and cameras — sessions and benches rely
        // on frame N of a replayed trajectory matching frame N exactly.
        let orbit_a = CameraTrajectory::orbit(intr(), Vec3::new(1.0, 0.5, 5.0), 4.0, 2.0, 9);
        let orbit_b = CameraTrajectory::orbit(intr(), Vec3::new(1.0, 0.5, 5.0), 4.0, 2.0, 9);
        assert_eq!(orbit_a, orbit_b);
        let sweep_a = CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 7);
        let sweep_b = CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 7);
        assert_eq!(sweep_a, sweep_b);
        for i in 0..orbit_a.len() {
            assert_eq!(
                orbit_a.camera(i).view_matrix(),
                orbit_b.camera(i).view_matrix(),
                "orbit pose {i}"
            );
        }
    }

    #[test]
    fn zero_view_count_is_clamped_to_a_single_pose() {
        let sweep = CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 0);
        assert_eq!(sweep.len(), 1);
        assert!(!sweep.is_empty());
        // The single pose equals the explicit one-view trajectory (the
        // centered pose).
        assert_eq!(sweep, CameraTrajectory::lateral_sweep(intr(), 5.0, 10.0, 1));

        let orbit = CameraTrajectory::orbit(intr(), Vec3::ZERO, 3.0, 1.0, 0);
        assert_eq!(orbit.len(), 1);
        assert_eq!(
            orbit,
            CameraTrajectory::orbit(intr(), Vec3::ZERO, 3.0, 1.0, 1)
        );
        // Angle 0 of a one-pose orbit: eye at center + (radius, height, 0).
        let eye = orbit.camera(0).position();
        assert!((eye.x - 3.0).abs() < 1e-6 && (eye.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_view_orbit_camera_is_finite() {
        let orbit = CameraTrajectory::orbit(intr(), Vec3::new(0.0, 0.0, 5.0), 2.0, 0.5, 1);
        let cam = orbit.camera(0);
        assert!(cam.position().x.is_finite());
        assert!(cam.depth_of(Vec3::new(0.0, 0.0, 5.0)) > 0.0);
    }

    #[test]
    fn cameras_look_toward_target() {
        let traj = CameraTrajectory::lateral_sweep(intr(), 3.0, 12.0, 5);
        for (i, cam) in traj.cameras().enumerate() {
            let target = traj.keyframes[i].target;
            assert!(
                cam.depth_of(target) > 0.0,
                "target behind camera for pose {i}"
            );
        }
    }
}
