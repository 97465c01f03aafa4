//! Small fixed-size vectors (`Vec2`, `Vec3`, `Vec4`) over `f32`.
//!
//! These mirror the subset of a typical linear-algebra crate that the
//! rendering pipeline needs: component-wise arithmetic, dot/cross products,
//! norms and normalization. All operations are `#[inline]` and panic-free.

use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 2-component single-precision vector (screen-space positions, tile
/// coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component single-precision vector (world-space positions, scales,
/// colors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component single-precision vector (homogeneous coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Vec4 {
    /// X component.
    pub(crate) x: f32,
    /// Y component.
    pub(crate) y: f32,
    /// Z component.
    pub(crate) z: f32,
    /// W component.
    pub(crate) w: f32,
}

/// Norms, products and component-wise helpers of `Vec2` and `Vec3`.
macro_rules! impl_metric {
    ($ty:ident, $($comp:ident),+) => {
        impl $ty {
            /// The zero vector.
            pub const ZERO: Self = Self { $($comp: 0.0),+ };

            /// Creates a vector with every component set to `v`.
            #[inline]
            pub const fn splat(v: f32) -> Self {
                Self { $($comp: v),+ }
            }

            /// Component-wise dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$comp * rhs.$comp)+
            }

            /// Squared Euclidean norm.
            #[inline]
            pub(crate) fn length_squared(self) -> f32 {
                self.dot(self)
            }

            /// Euclidean norm.
            #[inline]
            pub fn length(self) -> f32 {
                self.length_squared().sqrt()
            }

            /// Returns the unit vector in the same direction, or the zero
            /// vector if the length is (near) zero.
            #[inline]
            pub fn normalized(self) -> Self {
                let len = self.length();
                if len <= f32::EPSILON {
                    Self::ZERO
                } else {
                    self / len
                }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($comp: self.$comp.min(rhs.$comp)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($comp: self.$comp.max(rhs.$comp)),+ }
            }

            /// Largest component value.
            #[inline]
            pub fn max_component(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $( m = m.max(self.$comp); )+
                m
            }

            /// Returns `true` when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$comp.is_finite())+
            }
        }
    };
}

/// Construction and component-wise arithmetic of every vector type.
macro_rules! impl_common {
    ($vis:vis $ty:ident, $($comp:ident),+) => {
        impl $ty {
            /// Creates a vector from its components.
            #[inline]
            $vis const fn new($($comp: f32),+) -> Self {
                Self { $($comp),+ }
            }
        }

        impl Add for $ty {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($comp: self.$comp + rhs.$comp),+ }
            }
        }

        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                $(self.$comp += rhs.$comp;)+
            }
        }

        impl Sub for $ty {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($comp: self.$comp - rhs.$comp),+ }
            }
        }

        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                $(self.$comp -= rhs.$comp;)+
            }
        }

        impl Mul<f32> for $ty {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($comp: self.$comp * rhs),+ }
            }
        }

        impl Mul<$ty> for f32 {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty {
                rhs * self
            }
        }

        impl MulAssign<f32> for $ty {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                $(self.$comp *= rhs;)+
            }
        }

        impl Div<f32> for $ty {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($comp: self.$comp / rhs),+ }
            }
        }

        impl DivAssign<f32> for $ty {
            #[inline]
            fn div_assign(&mut self, rhs: f32) {
                $(self.$comp /= rhs;)+
            }
        }

        impl Neg for $ty {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($comp: -self.$comp),+ }
            }
        }
    };
}

impl_common!(pub Vec2, x, y);
impl_common!(pub Vec3, x, y, z);
impl_common!(pub(crate) Vec4, x, y, z, w);
impl_metric!(Vec2, x, y);
impl_metric!(Vec3, x, y, z);

impl Vec2 {
    /// Converts to an array `[x, y]`.
    #[inline]
    pub(crate) fn to_array(self) -> [f32; 2] {
        [self.x, self.y]
    }
}

impl Vec3 {
    /// Unit vector along +X.
    pub(crate) const X: Self = Self::new(1.0, 0.0, 0.0);
    /// Unit vector along +Y.
    pub const Y: Self = Self::new(0.0, 1.0, 0.0);
    /// Unit vector along +Z.
    pub const Z: Self = Self::new(0.0, 0.0, 1.0);

    /// Converts to an array `[x, y, z]`.
    #[inline]
    pub(crate) fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Cross product.
    #[inline]
    pub(crate) fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Extends to homogeneous coordinates with the given `w`.
    #[inline]
    pub(crate) fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Vec4 {
    /// Converts to an array `[x, y, z, w]`.
    #[inline]
    pub(crate) fn to_array(self) -> [f32; 4] {
        [self.x, self.y, self.z, self.w]
    }

    /// Drops the homogeneous coordinate (without dividing by it).
    #[inline]
    pub(crate) fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }
}

impl From<[f32; 2]> for Vec2 {
    #[inline]
    fn from(a: [f32; 2]) -> Self {
        Self::new(a[0], a[1])
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<[f32; 4]> for Vec4 {
    #[inline]
    fn from(a: [f32; 4]) -> Self {
        Self::new(a[0], a[1], a[2], a[3])
    }
}

impl From<Vec2> for [f32; 2] {
    #[inline]
    fn from(v: Vec2) -> Self {
        v.to_array()
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl From<Vec4> for [f32; 4] {
    #[inline]
    fn from(v: Vec4) -> Self {
        v.to_array()
    }
}

/// The out-of-bounds arm of the vector `Index` impls. It lives outside
/// `impl_index!` because `clippy::panic` does not see a `panic!` written
/// inside a local macro body.
#[cold]
#[expect(
    clippy::panic,
    reason = "std's Index contract is to panic out of bounds"
)]
fn index_out_of_bounds(ty: &'static str, index: usize) -> ! {
    panic!("index {index} out of bounds for {ty}")
}

macro_rules! impl_index {
    ($ty:ident, $n:expr, $($idx:expr => $comp:ident),+) => {
        impl Index<usize> for $ty {
            type Output = f32;
            #[inline]
            fn index(&self, index: usize) -> &f32 {
                match index {
                    $($idx => &self.$comp,)+
                    _ => index_out_of_bounds(stringify!($ty), index),
                }
            }
        }
        impl IndexMut<usize> for $ty {
            #[inline]
            fn index_mut(&mut self, index: usize) -> &mut f32 {
                match index {
                    $($idx => &mut self.$comp,)+
                    _ => index_out_of_bounds(stringify!($ty), index),
                }
            }
        }
    };
}

impl_index!(Vec2, 2, 0 => x, 1 => y);
impl_index!(Vec3, 3, 0 => x, 1 => y, 2 => z);
impl_index!(Vec4, 4, 0 => x, 1 => y, 2 => z, 3 => w);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    const EPS: f32 = 1e-5;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= EPS * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(approx(c.dot(a), 0.0));
        assert!(approx(c.dot(b), 0.0));
    }

    #[test]
    fn vec3_basis_cross_products() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn normalization_produces_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert!(approx(v.normalized().length(), 1.0));
    }

    #[test]
    fn normalizing_zero_vector_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn indexing_round_trips() {
        let mut v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        v[2] = 9.0;
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let v = Vec2::new(1.0, 2.0);
        let _ = v[2];
    }

    #[test]
    fn array_conversions_round_trip() {
        let v = Vec3::new(0.5, -1.5, 2.5);
        let a: [f32; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    fn sample_vec3(rng: &mut Rng, extent: f32) -> Vec3 {
        Vec3::new(
            rng.range_f32(-extent, extent),
            rng.range_f32(-extent, extent),
            rng.range_f32(-extent, extent),
        )
    }

    #[test]
    fn dot_product_is_commutative() {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00_0000_0001);
        for _ in 0..500 {
            let a = sample_vec3(&mut rng, 100.0);
            let b = sample_vec3(&mut rng, 100.0);
            assert!(approx(a.dot(b), b.dot(a)));
        }
    }

    #[test]
    fn cross_product_is_anticommutative() {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00_0000_0002);
        for _ in 0..500 {
            let a = sample_vec3(&mut rng, 10.0);
            let b = sample_vec3(&mut rng, 10.0);
            let lhs = a.cross(b);
            let rhs = -(b.cross(a));
            assert!(approx(lhs.x, rhs.x));
            assert!(approx(lhs.y, rhs.y));
            assert!(approx(lhs.z, rhs.z));
        }
    }

    #[test]
    fn triangle_inequality() {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00_0000_0003);
        for _ in 0..500 {
            let a = sample_vec3(&mut rng, 100.0);
            let b = sample_vec3(&mut rng, 100.0);
            assert!((a + b).length() <= a.length() + b.length() + EPS);
        }
    }

    #[test]
    fn normalized_length_is_one_or_zero() {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00_0000_0004);
        for _ in 0..500 {
            let v = sample_vec3(&mut rng, 100.0);
            let n = v.normalized();
            let len = n.length();
            assert!(approx(len, 1.0) || approx(len, 0.0));
        }
    }
}
