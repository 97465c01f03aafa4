//! Screen-space splat footprints, as tile identification walks them.
//!
//! Tile identification asks, for every projected splat, which tiles its
//! 3σ extent touches. The paper compares three boundary methods (Fig. 2),
//! each a convex [`Shape`] around the projected mean:
//!
//! * **AABB** ([`Square`]) — the original 3D-GS conservatively uses a square
//!   whose half-extent is `3·√λ_max` (the largest eigenvalue of the 2D
//!   covariance). Most false positives.
//! * **OBB** ([`OrientedBox`]) — GSCore uses the rectangle spanned by the
//!   ellipse's principal axes with half-extents `3·√λ_max` × `3·√λ_min`.
//! * **Ellipse** ([`Ellipse`]) — FlashGS uses the exact 3σ ellipse.
//!
//! No method tests a tile on its own. Over a horizontal band a convex
//! footprint covers one x-interval: the hull of its chords at the band's
//! two edge lines, widened to its leftmost or rightmost point when the band
//! holds that point. A [`Footprint`] holds what this takes for every method
//! (the mean, the axis-aligned half extent that bounds the candidate tiles,
//! where the extremes lie) and its [`Shape`] adds only the chord.
//! [`TileGrid::for_each_row_span`](crate::TileGrid::for_each_row_span)
//! turns the intervals into one column range per tile row.
//!
//! The rectangle type and the 3σ constants live in [`splat_core::rect`]
//! (they are shared with the blending kernel).

use splat_core::{ProjectedGaussian, MAHALANOBIS_CUTOFF, SIGMA_EXTENT};

use crate::config::BoundaryMethod;
use splat_types::Vec2;

/// The shape of one boundary method: where a horizontal line crosses it.
pub trait Shape: Copy {
    /// The boundary method this shape implements.
    const METHOD: BoundaryMethod;

    /// The footprint of `splat`, whose covariance must be positive
    /// definite; [`Footprint::of`] checks that first.
    fn footprint(splat: &ProjectedGaussian) -> Footprint<Self>;

    /// The x-offsets from the mean at which the line `dy` below the mean
    /// enters and leaves the shape, `None` when it misses the shape.
    fn chord(&self, dy: f32) -> Option<(f32, f32)>;
}

/// A splat's 3σ footprint under one boundary method, as the row walk
/// ([`TileGrid::for_each_row_span`](crate::TileGrid::for_each_row_span))
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint<S> {
    /// Projected center in pixels.
    mean: Vec2,
    /// Tight axis-aligned half extent: bounds the candidate tile range.
    half_extent: Vec2,
    /// `dy` of the rightmost point; every shape is symmetric about its
    /// mean, so the leftmost is at `-lean`.
    lean: f32,
    shape: S,
}

/// Where one horizontal line `y = mean.y + dy` crosses a footprint: the
/// x-offsets of its chord, `None` when the line misses the footprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    dy: f32,
    chord: Option<(f32, f32)>,
}

impl<S: Shape> Footprint<S> {
    /// The footprint of `splat`, `None` when its covariance is not positive
    /// definite (or is NaN): such a splat touches no tile under any method.
    #[inline]
    pub fn of(splat: &ProjectedGaussian) -> Option<Self> {
        let cov = splat.cov;
        ((cov.at(0, 0) > 0.0) & (cov.at(1, 1) > 0.0) & (cov.determinant() > 0.0))
            .then(|| S::footprint(splat))
    }

    /// Tight axis-aligned half extent of the footprint, which bounds its
    /// candidate tile range.
    #[inline]
    pub fn half_extent(&self) -> Vec2 {
        self.half_extent
    }

    /// The chord of the horizontal line at pixel row `y`.
    #[inline]
    pub(crate) fn edge(&self, y: f32) -> Edge {
        let dy = y - self.mean.y;
        Edge {
            dy,
            chord: self.shape.chord(dy),
        }
    }

    /// The pixel x-interval `[lo, hi]` the footprint covers inside the band
    /// between the lines `top` and `bottom` (`top.dy ≤ bottom.dy`), or
    /// `None` when it misses the band. Over the band the footprint's left
    /// boundary is smallest at an edge or at the footprint's own leftmost
    /// point, if the band holds it; likewise the right boundary.
    #[inline]
    pub(crate) fn span(&self, top: &Edge, bottom: &Edge) -> Option<(f32, f32)> {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for (left, right) in [top.chord, bottom.chord].into_iter().flatten() {
            lo = lo.min(left);
            hi = hi.max(right);
        }
        let within = |dy: f32| top.dy <= dy && dy <= bottom.dy;
        if within(-self.lean) {
            lo = -self.half_extent.x;
        }
        if within(self.lean) {
            hi = self.half_extent.x;
        }
        (lo <= hi).then_some((self.mean.x + lo, self.mean.x + hi))
    }
}

/// The square AABB of the original 3D-GS: half-extent `3·√λ_max` on both
/// axes, so it holds the ellipse however the ellipse is turned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Square {
    half: f32,
}

impl Shape for Square {
    const METHOD: BoundaryMethod = BoundaryMethod::Aabb;

    #[inline]
    fn footprint(splat: &ProjectedGaussian) -> Footprint<Self> {
        let (l_max, _) = splat.cov.symmetric_eigenvalues();
        let half = SIGMA_EXTENT * l_max.sqrt();
        Footprint {
            mean: splat.mean,
            half_extent: Vec2::splat(half),
            lean: 0.0,
            shape: Self { half },
        }
    }

    /// The square's full width while the line crosses it.
    #[inline]
    fn chord(&self, dy: f32) -> Option<(f32, f32)> {
        (dy.abs() <= self.half).then_some((-self.half, self.half))
    }
}

/// GSCore's OBB: the rectangle `|(p − μ)·aᵢ| ≤ rᵢ` over the ellipse's unit
/// principal axes `aᵢ`, with the 3σ radii `3·√λ_max` and `3·√λ_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientedBox {
    /// The principal axes, each turned to point right (`x ≥ +0`).
    axes: [Vec2; 2],
    radii: [f32; 2],
}

impl Shape for OrientedBox {
    const METHOD: BoundaryMethod = BoundaryMethod::Obb;

    #[inline]
    fn footprint(splat: &ProjectedGaussian) -> Footprint<Self> {
        let (l_max, l_min) = splat.cov.symmetric_eigenvalues();
        let (major, minor) = splat.cov.symmetric_eigenvectors();
        let axes = [major, minor].map(|axis| {
            if axis.x.is_sign_negative() {
                -axis
            } else {
                axis
            }
        });
        let radii = [l_max, l_min].map(|l| SIGMA_EXTENT * l.max(0.0).sqrt());
        // With both axes pointing right, the rightmost corner is the sum of
        // the scaled axes: the box's extent along x is Σ rᵢ|aᵢ·x|.
        let corner = axes[0] * radii[0] + axes[1] * radii[1];
        let height = radii[0] * axes[0].y.abs() + radii[1] * axes[1].y.abs();
        Footprint {
            mean: splat.mean,
            half_extent: Vec2::new(corner.x, height),
            lean: corner.y,
            shape: Self { axes, radii },
        }
    }

    /// The crossing of the two slabs' x-intervals on the line. An axis
    /// with `x = +0` bounds no x: its slab holds all of the line or none of
    /// it, and the division by `+0` gives the matching infinities.
    #[inline]
    fn chord(&self, dy: f32) -> Option<(f32, f32)> {
        let (mut lo, mut hi) = (f32::NEG_INFINITY, f32::INFINITY);
        for (axis, radius) in self.axes.iter().zip(self.radii) {
            let offset = dy * axis.y;
            lo = lo.max((-radius - offset) / axis.x);
            hi = hi.min((radius - offset) / axis.x);
        }
        (lo <= hi).then_some((lo, hi))
    }
}

/// The exact 3σ ellipse `dᵀ Σ⁻¹ d ≤ 9` of FlashGS, as the conic
/// `a·dx² + 2b·dx·dy + c·dy²` with `b` the mean of its two off-diagonal
/// entries (the quadratic form is the same). Its half extent is read off
/// the covariance diagonal (`3√σxx`, `3√σyy`): no eigendecomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ellipse {
    a: f32,
    b: f32,
    c: f32,
}

impl Shape for Ellipse {
    const METHOD: BoundaryMethod = BoundaryMethod::Ellipse;

    /// Reads the conic from
    /// [`ProjectedGaussian::conic`](splat_core::ProjectedGaussian::conic),
    /// rebuilt from what preprocessing stored, never a fresh `inverse()`.
    #[inline]
    fn footprint(splat: &ProjectedGaussian) -> Footprint<Self> {
        let (cov, conic) = (splat.cov, splat.conic());
        let sxy = 0.5 * (cov.at(0, 1) + cov.at(1, 0));
        let root_sxx = cov.at(0, 0).sqrt();
        Footprint {
            mean: splat.mean,
            half_extent: Vec2::new(SIGMA_EXTENT * root_sxx, SIGMA_EXTENT * cov.at(1, 1).sqrt()),
            lean: SIGMA_EXTENT * sxy / root_sxx,
            shape: Self {
                a: conic.at(0, 0),
                b: 0.5 * (conic.at(0, 1) + conic.at(1, 0)),
                c: conic.at(1, 1),
            },
        }
    }

    /// The roots of `a·dx² + 2b·dy·dx + c·dy² = 9`.
    #[inline]
    fn chord(&self, dy: f32) -> Option<(f32, f32)> {
        let half_b = self.b * dy;
        let disc = half_b * half_b - self.a * (self.c * dy * dy - MAHALANOBIS_CUTOFF);
        (disc >= 0.0).then(|| {
            let root = disc.sqrt();
            ((-half_b - root) / self.a, (-half_b + root) / self.a)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use splat_core::TileRect;
    use splat_types::rng::Rng;
    use splat_types::{Mat2, Rgb};

    /// A projected splat at `mean` with covariance `cov` and the inverse
    /// determinant preprocessing stores beside it.
    pub(crate) fn splat(mean: Vec2, cov: Mat2) -> ProjectedGaussian {
        ProjectedGaussian {
            index: 0,
            depth: 1.0,
            mean,
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color: Rgb::WHITE,
        }
    }

    impl<S: Shape> Footprint<S> {
        /// Does any point of `rect` lie within the footprint, decided by
        /// the band span as identification decides it? The rectangle is
        /// closed: touching counts.
        pub(crate) fn meets(&self, rect: &TileRect) -> bool {
            self.span(&self.edge(rect.y0), &self.edge(rect.y1))
                .is_some_and(|(lo, hi)| lo <= rect.x1 && hi >= rect.x0)
        }
    }

    impl Footprint<Ellipse> {
        /// Squared Mahalanobis distance of a pixel-space point from the
        /// splat center: `(p-μ)ᵀ Σ⁻¹ (p-μ)`.
        fn mahalanobis_sq(&self, p: Vec2) -> f32 {
            let d = p - self.mean;
            d.dot(self.conic().mul_vec(d))
        }

        fn conic(&self) -> Mat2 {
            Mat2::from_symmetric(self.shape.a, self.shape.b, self.shape.c)
        }

        /// The per-tile ellipse test the row spans replaced, kept as an
        /// independent oracle: a centre inside the rectangle hits, else
        /// the convex Mahalanobis form is minimised in closed form on each
        /// of the four edges.
        fn intersects_by_segments(&self, rect: &TileRect) -> bool {
            if rect.contains(self.mean) {
                return true;
            }
            let corners = [
                Vec2::new(rect.x0, rect.y0),
                Vec2::new(rect.x1, rect.y0),
                Vec2::new(rect.x1, rect.y1),
                Vec2::new(rect.x0, rect.y1),
            ];
            (0..4).any(|i| {
                let (a, b) = (corners[i], corners[(i + 1) % 4]);
                self.min_mahalanobis_on_segment(a, b) <= MAHALANOBIS_CUTOFF
            })
        }

        /// Minimum of the squared Mahalanobis distance over the segment
        /// `a + t (b - a)`, `t ∈ [0, 1]` (closed-form for a 1D quadratic).
        fn min_mahalanobis_on_segment(&self, a: Vec2, b: Vec2) -> f32 {
            let d = b - a;
            let ad = self.conic().mul_vec(d);
            let quad = d.dot(ad);
            let lin = (a - self.mean).dot(ad);
            let t = if quad.abs() < 1e-12 {
                0.0
            } else {
                (-lin / quad).clamp(0.0, 1.0)
            };
            self.mahalanobis_sq(a + d * t)
        }
    }

    /// The AABB overlap test the row walk replaced, kept as an oracle: the
    /// square of half-extent `3·√λ_max` against the closed rectangle.
    fn intersects_aabb(splat: &ProjectedGaussian, rect: &TileRect) -> bool {
        let half = SIGMA_EXTENT * splat.cov.symmetric_eigenvalues().0.sqrt();
        let mean = splat.mean;
        mean.x + half >= rect.x0
            && mean.x - half <= rect.x1
            && mean.y + half >= rect.y0
            && mean.y - half <= rect.y1
    }

    /// The OBB test the row walk replaced, kept as an oracle: the
    /// separating-axis test between the oriented 3σ rectangle and the
    /// axis-aligned tile rectangle.
    fn intersects_obb(splat: &ProjectedGaussian, rect: &TileRect) -> bool {
        let (l_max, l_min) = splat.cov.symmetric_eigenvalues();
        let (major, minor) = splat.cov.symmetric_eigenvectors();
        let obb_axes = [major, minor];
        let obb_radii = [SIGMA_EXTENT * l_max.sqrt(), SIGMA_EXTENT * l_min.sqrt()];
        let rect_half = rect.half_extent();
        let delta = splat.mean - rect.center();
        // Tile axes.
        for (axis, tile_half) in [
            (Vec2::new(1.0, 0.0), rect_half.x),
            (Vec2::new(0.0, 1.0), rect_half.y),
        ] {
            let obb_proj = obb_radii[0] * obb_axes[0].dot(axis).abs()
                + obb_radii[1] * obb_axes[1].dot(axis).abs();
            if delta.dot(axis).abs() > tile_half + obb_proj {
                return false;
            }
        }
        // OBB axes.
        (0..2).all(|i| {
            let axis = obb_axes[i];
            let tile_proj = rect_half.x * axis.x.abs() + rect_half.y * axis.y.abs();
            delta.dot(axis).abs() <= obb_radii[i] + tile_proj
        })
    }

    /// Does the closed `rect` meet the splat's footprint under `method`,
    /// decided tile by tile, without the band span?
    pub(crate) fn oracle_meets(
        splat: &ProjectedGaussian,
        rect: &TileRect,
        method: BoundaryMethod,
    ) -> bool {
        match method {
            BoundaryMethod::Aabb => intersects_aabb(splat, rect),
            BoundaryMethod::Obb => intersects_obb(splat, rect),
            BoundaryMethod::Ellipse => {
                Footprint::<Ellipse>::of(splat).is_some_and(|f| f.intersects_by_segments(rect))
            }
        }
    }

    /// The band-span test of `method`.
    fn meets(splat: &ProjectedGaussian, rect: &TileRect, method: BoundaryMethod) -> bool {
        match method {
            BoundaryMethod::Aabb => Footprint::<Square>::of(splat).is_some_and(|f| f.meets(rect)),
            BoundaryMethod::Obb => {
                Footprint::<OrientedBox>::of(splat).is_some_and(|f| f.meets(rect))
            }
            BoundaryMethod::Ellipse => {
                Footprint::<Ellipse>::of(splat).is_some_and(|f| f.meets(rect))
            }
        }
    }

    /// The half extent of `method`'s footprint.
    fn half_extent(splat: &ProjectedGaussian, method: BoundaryMethod) -> Vec2 {
        let extent = match method {
            BoundaryMethod::Aabb => Footprint::<Square>::of(splat).map(|f| f.half_extent()),
            BoundaryMethod::Obb => Footprint::<OrientedBox>::of(splat).map(|f| f.half_extent()),
            BoundaryMethod::Ellipse => Footprint::<Ellipse>::of(splat).map(|f| f.half_extent()),
        };
        extent.expect("positive definite")
    }

    /// Circular splat of radius 3σ·σ = 3·σ pixels.
    fn circular(mean: Vec2, sigma: f32) -> ProjectedGaussian {
        splat(
            mean,
            Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma),
        )
    }

    /// Elongated splat rotated by `angle`.
    pub(crate) fn elongated(
        mean: Vec2,
        sigma_major: f32,
        sigma_minor: f32,
        angle: f32,
    ) -> ProjectedGaussian {
        let (s, c) = angle.sin_cos();
        // R diag(a², b²) Rᵀ
        let a2 = sigma_major * sigma_major;
        let b2 = sigma_minor * sigma_minor;
        let cov = Mat2::from_symmetric(
            c * c * a2 + s * s * b2,
            c * s * (a2 - b2),
            s * s * a2 + c * c * b2,
        );
        splat(mean, cov)
    }

    fn assert_near(v: Vec2, x: f32, y: f32, tolerance: f32) {
        assert!(
            (v.x - x).abs() < tolerance && (v.y - y).abs() < tolerance,
            "{v:?} != ({x}, {y})"
        );
    }

    #[test]
    fn degenerate_covariance_is_rejected() {
        // The zero covariance is rejected by every method, whatever inverse
        // determinant was stored beside it.
        for inv_det in [f32::INFINITY, 0.0, 1.0] {
            let zero = ProjectedGaussian {
                inv_det,
                ..splat(Vec2::ZERO, Mat2::ZERO)
            };
            assert!(Footprint::<Square>::of(&zero).is_none());
            assert!(Footprint::<OrientedBox>::of(&zero).is_none());
            assert!(Footprint::<Ellipse>::of(&zero).is_none());
        }
    }

    #[test]
    fn isotropic_footprint_has_equal_radii() {
        let f = circular(Vec2::ZERO, 2.0);
        for method in BoundaryMethod::ALL {
            assert_near(half_extent(&f, method), 6.0, 6.0, 1e-4);
        }
        let obb = Footprint::<OrientedBox>::of(&f).expect("positive definite");
        assert!(obb.shape.radii.iter().all(|r| (r - 6.0).abs() < 1e-4));
    }

    #[test]
    fn tight_extent_of_axis_aligned_ellipse() {
        let f = elongated(Vec2::ZERO, 4.0, 1.0, 0.0);
        assert_near(half_extent(&f, BoundaryMethod::Ellipse), 12.0, 3.0, 1e-3);
        // Axis-aligned, the oriented box is the ellipse's bounding box.
        assert_near(half_extent(&f, BoundaryMethod::Obb), 12.0, 3.0, 1e-3);
        assert_near(half_extent(&f, BoundaryMethod::Aabb), 12.0, 12.0, 1e-3);
    }

    #[test]
    fn all_methods_agree_for_center_inside_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        for m in BoundaryMethod::ALL {
            assert!(meets(&f, &tile, m), "method {m}");
        }
    }

    #[test]
    fn all_methods_agree_for_far_away_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(200.0, 200.0, 216.0, 216.0);
        for m in BoundaryMethod::ALL {
            assert!(!meets(&f, &tile, m), "method {m}");
        }
    }

    #[test]
    fn aabb_is_more_conservative_than_obb_for_diagonal_splats() {
        // A long thin splat at 45° near a tile corner: the square AABB
        // reaches the tile, the oriented box does not.
        let f = elongated(Vec2::new(40.0, 0.0), 10.0, 1.0, std::f32::consts::FRAC_PI_4);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        // AABB half-extent is 30 px in both axes → reaches x≤16.
        assert!(meets(&f, &tile, BoundaryMethod::Aabb));
        // The oriented box points away from the tile corner.
        assert!(!meets(&f, &tile, BoundaryMethod::Obb));
        assert!(!meets(&f, &tile, BoundaryMethod::Ellipse));

        // The same 45° splat, 3σ radii 30 × 3 px: the box's corner reaches
        // 23.3 px right of the centre, past the ellipse's 21.3 px, so the
        // box meets a tile 22 px out that the ellipse misses. A candidate
        // range taken from the ellipse's extent would never reach it.
        let f = elongated(Vec2::ZERO, 10.0, 1.0, std::f32::consts::FRAC_PI_4);
        let tile = TileRect::new(22.0, 16.0, 38.0, 32.0);
        assert!(half_extent(&f, BoundaryMethod::Obb).x > 23.0);
        for (method, hit) in [
            (BoundaryMethod::Aabb, true),
            (BoundaryMethod::Obb, true),
            (BoundaryMethod::Ellipse, false),
        ] {
            assert_eq!(meets(&f, &tile, method), hit, "{method}");
            assert_eq!(oracle_meets(&f, &tile, method), hit, "{method} oracle");
        }
    }

    #[test]
    fn obb_is_at_least_as_tight_as_aabb_never_misses_ellipse_hits() {
        // Sanity on a grid of tiles around an anisotropic splat.
        let f = elongated(Vec2::new(50.0, 50.0), 6.0, 1.5, 0.7);
        for ty in 0..7 {
            for tx in 0..7 {
                let tile = TileRect::new(
                    tx as f32 * 16.0,
                    ty as f32 * 16.0,
                    (tx + 1) as f32 * 16.0,
                    (ty + 1) as f32 * 16.0,
                );
                let aabb = meets(&f, &tile, BoundaryMethod::Aabb);
                let obb = meets(&f, &tile, BoundaryMethod::Obb);
                let ellipse = meets(&f, &tile, BoundaryMethod::Ellipse);
                // Hierarchy: ellipse ⊆ obb ⊆ aabb.
                assert!(
                    !ellipse || obb,
                    "ellipse hit must be an OBB hit ({tx},{ty})"
                );
                assert!(!obb || aabb, "OBB hit must be an AABB hit ({tx},{ty})");
            }
        }
    }

    #[test]
    fn ellipse_test_counts_fewer_tiles_for_elongated_splats() {
        // Mirrors Fig. 2: the same splat intersects fewer tiles under
        // tighter boundary methods.
        let f = elongated(Vec2::new(64.0, 64.0), 8.0, 2.0, 0.5);
        let count = |m: BoundaryMethod| {
            let mut n = 0;
            for ty in 0..8 {
                for tx in 0..8 {
                    let tile = TileRect::new(
                        tx as f32 * 16.0,
                        ty as f32 * 16.0,
                        (tx + 1) as f32 * 16.0,
                        (ty + 1) as f32 * 16.0,
                    );
                    if meets(&f, &tile, m) {
                        n += 1;
                    }
                }
            }
            n
        };
        let aabb = count(BoundaryMethod::Aabb);
        let obb = count(BoundaryMethod::Obb);
        let ellipse = count(BoundaryMethod::Ellipse);
        assert!(aabb >= obb, "aabb {aabb} >= obb {obb}");
        assert!(obb >= ellipse, "obb {obb} >= ellipse {ellipse}");
        assert!(
            aabb > ellipse,
            "expected strict reduction, aabb {aabb} ellipse {ellipse}"
        );
    }

    fn ellipse(splat: &ProjectedGaussian) -> Footprint<Ellipse> {
        Footprint::of(splat).expect("positive definite")
    }

    #[test]
    fn mahalanobis_is_zero_at_center() {
        let f = ellipse(&elongated(Vec2::new(3.0, 4.0), 2.0, 1.0, 0.3));
        assert!(f.mahalanobis_sq(Vec2::new(3.0, 4.0)) < 1e-6);
    }

    #[test]
    fn mahalanobis_matches_sigma_along_axes() {
        let f = ellipse(&elongated(Vec2::ZERO, 2.0, 1.0, 0.0));
        // One sigma along the major axis (x): distance² = 1.
        assert!((f.mahalanobis_sq(Vec2::new(2.0, 0.0)) - 1.0).abs() < 1e-3);
        // Three sigma along the minor axis (y): distance² = 9.
        assert!((f.mahalanobis_sq(Vec2::new(0.0, 3.0)) - 9.0).abs() < 1e-3);
    }

    #[test]
    fn ellipse_boundary_is_respected() {
        let f = circular(Vec2::new(100.0, 100.0), 2.0); // 3σ radius = 6 px
                                                        // Tile whose nearest corner is 5 px away → intersects.
        let near = TileRect::new(103.5, 103.5, 119.5, 119.5);
        assert!(meets(&f, &near, BoundaryMethod::Ellipse));
        // Tile whose nearest corner is ~8.5 px away → no intersection.
        let far = TileRect::new(106.0, 106.0, 122.0, 122.0);
        assert!(!meets(&f, &far, BoundaryMethod::Ellipse));
    }

    /// The tightness hierarchy ellipse ⊆ OBB ⊆ AABB must hold for any
    /// splat and tile: a tighter method never reports an intersection that
    /// a looser method misses. Swept over a deterministic random sample of
    /// splats and tiles.
    #[test]
    fn boundary_method_hierarchy_holds_for_sampled_splats() {
        let mut rng = Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for case in 0..500 {
            let mx = rng.range_f32(0.0, 256.0);
            let my = rng.range_f32(0.0, 256.0);
            let s_major = rng.range_f32(0.5, 20.0);
            let ratio = rng.range_f32(0.05, 1.0);
            let angle = rng.range_f32(0.0, std::f32::consts::PI);
            let tx = rng.range_f32(0.0, 16.0).floor();
            let ty = rng.range_f32(0.0, 16.0).floor();
            let f = elongated(
                Vec2::new(mx, my),
                s_major,
                (s_major * ratio).max(0.1),
                angle,
            );
            let tile = TileRect::new(tx * 16.0, ty * 16.0, (tx + 1.0) * 16.0, (ty + 1.0) * 16.0);
            let aabb = meets(&f, &tile, BoundaryMethod::Aabb);
            let obb = meets(&f, &tile, BoundaryMethod::Obb);
            let ellipse = meets(&f, &tile, BoundaryMethod::Ellipse);
            // The 3σ ellipse is inscribed in both the oriented box and the
            // square AABB, so an ellipse hit implies a hit for the other
            // two methods. (OBB and AABB are not ordered against each
            // other: a rotated OBB corner can poke outside the square.)
            assert!(!ellipse || obb, "case {case}: ellipse hit missed by OBB");
            assert!(!ellipse || aabb, "case {case}: ellipse hit missed by AABB");
        }
    }

    /// Any pixel inside the tile that is within the 3σ Mahalanobis
    /// boundary implies the ellipse test reports an intersection. Swept
    /// over a deterministic random sample.
    #[test]
    fn ellipse_test_is_complete_for_sampled_pixels() {
        let mut rng = Rng::seed_from_u64(0x1234_5678_9ABC_DEF1);
        let tile = TileRect::new(48.0, 48.0, 64.0, 64.0);
        for case in 0..500 {
            let mx = rng.range_f32(0.0, 128.0);
            let my = rng.range_f32(0.0, 128.0);
            let s_major = rng.range_f32(0.5, 10.0);
            let ratio = rng.range_f32(0.1, 1.0);
            let angle = rng.range_f32(0.0, std::f32::consts::PI);
            let px_frac = rng.range_f32(0.0, 1.0);
            let py_frac = rng.range_f32(0.0, 1.0);
            let f = elongated(
                Vec2::new(mx, my),
                s_major,
                (s_major * ratio).max(0.1),
                angle,
            );
            let p = Vec2::new(
                tile.x0 + px_frac * (tile.x1 - tile.x0),
                tile.y0 + py_frac * (tile.y1 - tile.y0),
            );
            if ellipse(&f).mahalanobis_sq(p) <= MAHALANOBIS_CUTOFF {
                assert!(
                    meets(&f, &tile, BoundaryMethod::Ellipse),
                    "case {case}: in-boundary pixel not reported"
                );
            }
        }
    }

    /// The row-span test decides every sampled (splat, tile) pair as the
    /// four-edge minimisation it replaced does, except within a hair of
    /// tangency, where the two roundings may fall either way.
    #[test]
    fn span_test_matches_the_segment_minimisation() {
        let mut rng = Rng::seed_from_u64(0x5EA7_0FE1);
        let (mut hits, mut tangent) = (0, 0);
        for case in 0..20_000 {
            let s_major = rng.range_f32(0.3, 30.0);
            let f = ellipse(&elongated(
                Vec2::new(rng.range_f32(0.0, 128.0), rng.range_f32(0.0, 128.0)),
                s_major,
                (s_major * rng.range_f32(0.02, 1.0)).max(0.1),
                rng.range_f32(0.0, std::f32::consts::PI),
            ));
            let size = [8.0, 16.0, 64.0][case % 3];
            let (tx, ty) = (
                rng.range_f32(0.0, 8.0).floor(),
                rng.range_f32(0.0, 8.0).floor(),
            );
            let tile = TileRect::new(tx * size, ty * size, (tx + 1.0) * size, (ty + 1.0) * size);
            let by_span = f.meets(&tile);
            if by_span == f.intersects_by_segments(&tile) {
                hits += usize::from(by_span);
                continue;
            }
            let edges = [
                (Vec2::new(tile.x0, tile.y0), Vec2::new(tile.x1, tile.y0)),
                (Vec2::new(tile.x1, tile.y0), Vec2::new(tile.x1, tile.y1)),
                (Vec2::new(tile.x1, tile.y1), Vec2::new(tile.x0, tile.y1)),
                (Vec2::new(tile.x0, tile.y1), Vec2::new(tile.x0, tile.y0)),
            ];
            let min = edges
                .iter()
                .map(|&(a, b)| f.min_mahalanobis_on_segment(a, b))
                .fold(f32::INFINITY, f32::min);
            assert!(
                (min - MAHALANOBIS_CUTOFF).abs() < 1e-3,
                "case {case}: span {by_span} at a minimum of {min}"
            );
            tangent += 1;
        }
        assert!(hits > 2_000, "{hits} hits");
        assert!(tangent <= 2, "{tangent} tangent disagreements");
    }
}
