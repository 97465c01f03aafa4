//! Linear RGB color values.

use crate::vec::Vec3;
use std::ops::{Add, AddAssign, Mul};

/// A linear-space RGB color with unclamped `f32` channels.
///
/// Colors stay unclamped throughout α-blending (matching the reference
/// 3D-GS rasterizer) and are only clamped when written to an 8-bit
/// framebuffer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: f32,
    /// Green channel.
    pub g: f32,
    /// Blue channel.
    pub b: f32,
}

impl Rgb {
    /// Pure black.
    pub const BLACK: Self = Self::new(0.0, 0.0, 0.0);
    /// Pure white.
    pub const WHITE: Self = Self::new(1.0, 1.0, 1.0);

    /// Creates a color from its channels.
    #[inline]
    pub const fn new(r: f32, g: f32, b: f32) -> Self {
        Self { r, g, b }
    }

    /// Creates a gray color with all channels equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self::new(v, v, v)
    }

    /// Maximum absolute per-channel difference to another color.
    #[inline]
    pub fn max_abs_diff(self, other: Self) -> f32 {
        (self.r - other.r)
            .abs()
            .max((self.g - other.g).abs())
            .max((self.b - other.b).abs())
    }

    /// Mean of the three channels (luma proxy used by scene statistics).
    #[inline]
    pub fn mean(self) -> f32 {
        (self.r + self.g + self.b) / 3.0
    }
}

impl From<Vec3> for Rgb {
    #[inline]
    fn from(v: Vec3) -> Self {
        Self::new(v.x, v.y, v.z)
    }
}

impl From<Rgb> for Vec3 {
    #[inline]
    fn from(c: Rgb) -> Self {
        Vec3::new(c.r, c.g, c.b)
    }
}

impl From<[f32; 3]> for Rgb {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl Add for Rgb {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.r + rhs.r, self.g + rhs.g, self.b + rhs.b)
    }
}

impl AddAssign for Rgb {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.r += rhs.r;
        self.g += rhs.g;
        self.b += rhs.b;
    }
}

impl Mul<f32> for Rgb {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        Self::new(self.r * rhs, self.g * rhs, self.b * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_picks_largest_channel() {
        let a = Rgb::new(0.1, 0.5, 0.9);
        let b = Rgb::new(0.2, 0.1, 0.85);
        assert!((a.max_abs_diff(b) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn blending_arithmetic_matches_vec() {
        let c = Rgb::new(0.25, 0.5, 0.75) * 0.5 + Rgb::splat(0.1);
        assert!((c.r - 0.225).abs() < 1e-6);
        assert!((c.g - 0.35).abs() < 1e-6);
        assert!((c.b - 0.475).abs() < 1e-6);
    }

    #[test]
    fn vec3_round_trip() {
        let c = Rgb::new(0.3, 0.6, 0.9);
        let v: Vec3 = c.into();
        assert_eq!(Rgb::from(v), c);
    }
}
