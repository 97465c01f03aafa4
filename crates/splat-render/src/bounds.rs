//! Screen-space splat footprints and tile intersection tests.
//!
//! Tile identification asks, for every projected splat, which tiles its
//! 3σ extent touches. The paper compares three boundary methods (Fig. 2):
//!
//! * **AABB** — the original 3D-GS conservatively uses a square box whose
//!   half-extent is `3·√λ_max` (the largest eigenvalue of the 2D
//!   covariance). Cheapest test, most false positives.
//! * **OBB** — GSCore uses the oriented rectangle spanned by the ellipse's
//!   principal axes with half-extents `3·√λ_max` × `3·√λ_min`; tested
//!   against a tile with a separating-axis test.
//! * **Ellipse** — FlashGS tests the exact 3σ ellipse against the tile
//!   rectangle. Here the ellipse is an [`EllipseFootprint`]: identification
//!   solves its conic once per tile-row band for the x-interval it covers
//!   there, so a row's hits are one contiguous column range and no tile is
//!   tested on its own.
//!
//! The rectangle type and the 3σ constants live in [`splat_core::rect`]
//! (they are shared with the blending kernel).

use splat_core::{TileRect, MAHALANOBIS_CUTOFF, SIGMA_EXTENT};

use crate::config::BoundaryMethod;
use splat_types::{Mat2, Vec2};

/// The exact 3σ ellipse `dᵀ Σ⁻¹ d ≤ 9` of one projected splat, as the
/// ellipse identification walks it: its axis-aligned half extent, read off
/// the covariance diagonal (`3√σxx`, `3√σyy`, no eigendecomposition), and
/// per horizontal band the x-interval it covers
/// ([`TileGrid::for_each_row_span`](crate::TileGrid::for_each_row_span)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EllipseFootprint {
    /// Projected center in pixels.
    mean: Vec2,
    /// The conic `a·dx² + 2b·dx·dy + c·dy²`, with `b` the mean of its two
    /// off-diagonal entries (the quadratic form is the same).
    a: f32,
    b: f32,
    c: f32,
    /// `3√σxx`, `3√σyy`: the ellipse's tight axis-aligned half extent.
    half_extent: Vec2,
    /// `dy` of the ellipse's rightmost point; its leftmost is at `-lean`.
    lean: f32,
}

/// Where one horizontal line `y = mean.y + dy` crosses an ellipse: the
/// x-offsets of its chord, `None` when the line misses the ellipse.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EllipseEdge {
    dy: f32,
    chord: Option<(f32, f32)>,
}

impl EllipseFootprint {
    /// The ellipse of a splat with projected `mean`, 2D covariance `cov` and
    /// its inverse `conic`
    /// ([`ProjectedGaussian::conic`](splat_core::ProjectedGaussian::conic)).
    /// `None` when the covariance is not positive definite (or is NaN):
    /// such a splat touches no tile.
    #[inline]
    pub fn new(mean: Vec2, cov: Mat2, conic: Mat2) -> Option<Self> {
        let (sxx, syy) = (cov.at(0, 0), cov.at(1, 1));
        if !((sxx > 0.0) & (syy > 0.0) & (cov.determinant() > 0.0)) {
            return None;
        }
        let sxy = 0.5 * (cov.at(0, 1) + cov.at(1, 0));
        let root_sxx = sxx.sqrt();
        Some(Self {
            mean,
            a: conic.at(0, 0),
            b: 0.5 * (conic.at(0, 1) + conic.at(1, 0)),
            c: conic.at(1, 1),
            half_extent: Vec2::new(SIGMA_EXTENT * root_sxx, SIGMA_EXTENT * syy.sqrt()),
            lean: SIGMA_EXTENT * sxy / root_sxx,
        })
    }

    /// Tight axis-aligned half extent of the 3σ ellipse, which bounds its
    /// candidate tile range.
    #[inline]
    pub fn half_extent(&self) -> Vec2 {
        self.half_extent
    }

    /// The chord of the horizontal line at pixel row `y`: the roots of
    /// `a·dx² + 2b·dy·dx + c·dy² = 9`.
    #[inline]
    pub(crate) fn edge(&self, y: f32) -> EllipseEdge {
        let dy = y - self.mean.y;
        let half_b = self.b * dy;
        let disc = half_b * half_b - self.a * (self.c * dy * dy - MAHALANOBIS_CUTOFF);
        let chord = (disc >= 0.0).then(|| {
            let root = disc.sqrt();
            ((-half_b - root) / self.a, (-half_b + root) / self.a)
        });
        EllipseEdge { dy, chord }
    }

    /// The pixel x-interval `[lo, hi]` the ellipse covers inside the band
    /// between the lines `top` and `bottom` (`top.dy ≤ bottom.dy`), or
    /// `None` when it misses the band. Over the band the ellipse's left
    /// boundary is smallest at an edge or at the ellipse's own leftmost
    /// point, if the band holds it; likewise the right boundary.
    #[inline]
    pub(crate) fn span(&self, top: &EllipseEdge, bottom: &EllipseEdge) -> Option<(f32, f32)> {
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

    /// Does any point of `rect` lie within the 3σ boundary? The rectangle
    /// is closed: touching counts.
    pub(crate) fn meets(&self, rect: &TileRect) -> bool {
        self.span(&self.edge(rect.y0), &self.edge(rect.y1))
            .is_some_and(|(lo, hi)| lo <= rect.x1 && hi >= rect.x0)
    }
}

/// The screen-space footprint of one projected splat: everything the
/// boundary tests need, precomputed once per splat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFootprint {
    /// Projected center in pixels.
    pub(crate) mean: Vec2,
    /// The exact 3σ ellipse, which the ellipse test reads.
    pub(crate) ellipse: EllipseFootprint,
    /// Unit vector of the major principal axis.
    pub(crate) axis_major: Vec2,
    /// Unit vector of the minor principal axis.
    pub(crate) axis_minor: Vec2,
    /// 3σ extent along the major axis, in pixels.
    pub(crate) radius_major: f32,
    /// 3σ extent along the minor axis, in pixels.
    pub(crate) radius_minor: f32,
}

impl GaussianFootprint {
    /// Builds a footprint from the projected mean, the 2D covariance and
    /// its inverse (identification passes
    /// [`ProjectedGaussian::conic`](splat_core::ProjectedGaussian::conic),
    /// rebuilt from what preprocessing stored, never a fresh `inverse()`).
    ///
    /// Returns `None` when the covariance is degenerate (not positive
    /// definite), which mirrors the reference implementation culling such
    /// splats.
    ///
    /// `#[inline]` so GS-TG's group identification (another crate) inlines
    /// it as the baseline's tile identification does.
    #[inline]
    pub fn from_covariance(mean: Vec2, cov: Mat2, inv_cov: Mat2) -> Option<Self> {
        let (l_max, l_min) = cov.symmetric_eigenvalues();
        if l_max <= 0.0 || l_min <= 0.0 {
            return None;
        }
        let (axis_major, axis_minor) = cov.symmetric_eigenvectors();
        Some(Self {
            mean,
            ellipse: EllipseFootprint::new(mean, cov, inv_cov)?,
            axis_major,
            axis_minor,
            radius_major: SIGMA_EXTENT * l_max.sqrt(),
            radius_minor: SIGMA_EXTENT * l_min.sqrt(),
        })
    }

    /// Half-extent of the conservative square AABB used by the original
    /// 3D-GS (3σ of the largest eigenvalue in both axes).
    #[inline]
    pub(crate) fn aabb_half_extent(&self) -> f32 {
        self.radius_major
    }

    /// Tight axis-aligned half extents of the oriented 3σ box, used to bound
    /// the candidate tile range of the OBB test.
    pub(crate) fn tight_half_extent(&self) -> Vec2 {
        // Extent of an ellipse along a coordinate axis e is
        // sqrt(Σ r_i² (a_i · e)²) over the principal axes a_i.
        let ex = ((self.radius_major * self.axis_major.x).powi(2)
            + (self.radius_minor * self.axis_minor.x).powi(2))
        .sqrt();
        let ey = ((self.radius_major * self.axis_major.y).powi(2)
            + (self.radius_minor * self.axis_minor.y).powi(2))
        .sqrt();
        Vec2::new(ex, ey)
    }

    /// The half-extent used to collect candidate tiles for a given boundary
    /// method (square for AABB, tight bounds of the oriented box for OBB,
    /// the covariance diagonal for the ellipse).
    pub fn candidate_half_extent(&self, method: BoundaryMethod) -> Vec2 {
        match method {
            BoundaryMethod::Aabb => Vec2::splat(self.aabb_half_extent()),
            BoundaryMethod::Obb => self.tight_half_extent(),
            BoundaryMethod::Ellipse => self.ellipse.half_extent(),
        }
    }

    /// Tests whether the footprint intersects a rectangle under the given
    /// boundary method.
    pub fn intersects(&self, rect: &TileRect, method: BoundaryMethod) -> bool {
        match method {
            BoundaryMethod::Aabb => self.intersects_aabb(rect),
            BoundaryMethod::Obb => self.intersects_obb(rect),
            BoundaryMethod::Ellipse => self.ellipse.meets(rect),
        }
    }

    /// AABB test: overlap between the square box and the tile rectangle.
    fn intersects_aabb(&self, rect: &TileRect) -> bool {
        let half = self.aabb_half_extent();
        self.mean.x + half >= rect.x0
            && self.mean.x - half <= rect.x1
            && self.mean.y + half >= rect.y0
            && self.mean.y - half <= rect.y1
    }

    /// OBB test: separating-axis test between the oriented 3σ rectangle and
    /// the axis-aligned tile rectangle.
    fn intersects_obb(&self, rect: &TileRect) -> bool {
        let rect_center = rect.center();
        let rect_half = rect.half_extent();
        let delta = self.mean - rect_center;

        // Axes to test: tile axes (x, y) and OBB axes (major, minor).
        let obb_axes = [self.axis_major, self.axis_minor];
        let obb_radii = [self.radius_major, self.radius_minor];

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
        for i in 0..2 {
            let axis = obb_axes[i];
            let tile_proj = rect_half.x * axis.x.abs() + rect_half.y * axis.y.abs();
            if delta.dot(axis).abs() > obb_radii[i] + tile_proj {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::rng::Rng;

    impl GaussianFootprint {
        /// Squared Mahalanobis distance of a pixel-space point from the
        /// splat center: `(p-μ)ᵀ Σ⁻¹ (p-μ)`.
        fn mahalanobis_sq(&self, p: Vec2) -> f32 {
            let d = p - self.mean;
            let e = &self.ellipse;
            d.dot(Mat2::from_symmetric(e.a, e.b, e.c).mul_vec(d))
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
            let e = &self.ellipse;
            let conic = Mat2::from_symmetric(e.a, e.b, e.c);
            let d = b - a;
            let ad = conic.mul_vec(d);
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

    /// Footprint of `cov`, with its inverse computed as preprocessing does.
    fn footprint(mean: Vec2, cov: Mat2) -> Option<GaussianFootprint> {
        GaussianFootprint::from_covariance(mean, cov, cov.inverse().ok()?)
    }

    /// Circular footprint of radius 3σ·σ = 3·σ pixels.
    fn circular(mean: Vec2, sigma: f32) -> GaussianFootprint {
        footprint(
            mean,
            Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma),
        )
        .expect("non-degenerate")
    }

    /// Elongated footprint rotated by `angle`.
    fn elongated(mean: Vec2, sigma_major: f32, sigma_minor: f32, angle: f32) -> GaussianFootprint {
        let (s, c) = angle.sin_cos();
        // R diag(a², b²) Rᵀ
        let a2 = sigma_major * sigma_major;
        let b2 = sigma_minor * sigma_minor;
        let cov = Mat2::from_symmetric(
            c * c * a2 + s * s * b2,
            c * s * (a2 - b2),
            s * s * a2 + c * c * b2,
        );
        footprint(mean, cov).expect("non-degenerate")
    }

    #[test]
    fn degenerate_covariance_is_rejected() {
        // The zero covariance has no inverse, and whatever inverse a caller
        // hands in, its zero eigenvalues reject it.
        assert!(footprint(Vec2::ZERO, Mat2::ZERO).is_none());
        for inv_cov in [Mat2::ZERO, Mat2::from_symmetric(1.0, 0.0, 1.0)] {
            assert!(GaussianFootprint::from_covariance(Vec2::ZERO, Mat2::ZERO, inv_cov).is_none());
        }
    }

    #[test]
    fn isotropic_footprint_has_equal_radii() {
        let f = circular(Vec2::ZERO, 2.0);
        assert!((f.radius_major - 6.0).abs() < 1e-4);
        assert!((f.radius_minor - 6.0).abs() < 1e-4);
        assert!((f.aabb_half_extent() - 6.0).abs() < 1e-4);
    }

    #[test]
    fn tight_extent_of_axis_aligned_ellipse() {
        let f = elongated(Vec2::ZERO, 4.0, 1.0, 0.0);
        let ext = f.tight_half_extent();
        assert!((ext.x - 12.0).abs() < 1e-3);
        assert!((ext.y - 3.0).abs() < 1e-3);
    }

    #[test]
    fn all_methods_agree_for_center_inside_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        for m in BoundaryMethod::ALL {
            assert!(f.intersects(&tile, m), "method {m}");
        }
    }

    #[test]
    fn all_methods_agree_for_far_away_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(200.0, 200.0, 216.0, 216.0);
        for m in BoundaryMethod::ALL {
            assert!(!f.intersects(&tile, m), "method {m}");
        }
    }

    #[test]
    fn aabb_is_more_conservative_than_obb_for_diagonal_splats() {
        // A long thin splat at 45° near a tile corner: the square AABB
        // reaches the tile, the oriented box does not.
        let f = elongated(Vec2::new(40.0, 0.0), 10.0, 1.0, std::f32::consts::FRAC_PI_4);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        // AABB half-extent is 30 px in both axes → reaches x≤16.
        assert!(f.intersects(&tile, BoundaryMethod::Aabb));
        // The oriented box points away from the tile corner.
        assert!(!f.intersects(&tile, BoundaryMethod::Ellipse));
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
                let aabb = f.intersects(&tile, BoundaryMethod::Aabb);
                let obb = f.intersects(&tile, BoundaryMethod::Obb);
                let ellipse = f.intersects(&tile, BoundaryMethod::Ellipse);
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
                    if f.intersects(&tile, m) {
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

    #[test]
    fn mahalanobis_is_zero_at_center() {
        let f = elongated(Vec2::new(3.0, 4.0), 2.0, 1.0, 0.3);
        assert!(f.mahalanobis_sq(Vec2::new(3.0, 4.0)) < 1e-6);
    }

    #[test]
    fn mahalanobis_matches_sigma_along_axes() {
        let f = elongated(Vec2::ZERO, 2.0, 1.0, 0.0);
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
        assert!(f.intersects(&near, BoundaryMethod::Ellipse));
        // Tile whose nearest corner is ~8.5 px away → no intersection.
        let far = TileRect::new(106.0, 106.0, 122.0, 122.0);
        assert!(!f.intersects(&far, BoundaryMethod::Ellipse));
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
            let aabb = f.intersects(&tile, BoundaryMethod::Aabb);
            let obb = f.intersects(&tile, BoundaryMethod::Obb);
            let ellipse = f.intersects(&tile, BoundaryMethod::Ellipse);
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
            if f.mahalanobis_sq(p) <= MAHALANOBIS_CUTOFF {
                assert!(
                    f.intersects(&tile, BoundaryMethod::Ellipse),
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
            let f = elongated(
                Vec2::new(rng.range_f32(0.0, 128.0), rng.range_f32(0.0, 128.0)),
                s_major,
                (s_major * rng.range_f32(0.02, 1.0)).max(0.1),
                rng.range_f32(0.0, std::f32::consts::PI),
            );
            let size = [8.0, 16.0, 64.0][case % 3];
            let (tx, ty) = (
                rng.range_f32(0.0, 8.0).floor(),
                rng.range_f32(0.0, 8.0).floor(),
            );
            let tile = TileRect::new(tx * size, ty * size, (tx + 1.0) * size, (ty + 1.0) * size);
            let by_span = f.intersects(&tile, BoundaryMethod::Ellipse);
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
