//! The [`Scene`] container holding a cloud of 3D Gaussian splats.

use splat_types::{Gaussian3d, Mat3, Precision, Quat, Rgb, Vec3};
use std::sync::{Arc, OnceLock};

/// Structure-of-arrays view of a scene's splat parameters.
///
/// Each component lives in its own contiguous array so chunked (SIMD)
/// projection kernels can load lanes straight from memory instead of
/// gathering fields out of [`Gaussian3d`] records. Spherical-harmonic
/// coefficients are flattened basis-major into one array, indexed through
/// a `len + 1` offset table (splats may carry different SH degrees).
///
/// The view is derived data: it is built lazily from the AoS storage via
/// [`Scene::soa`] and holds exactly the same values, so any kernel
/// consuming it is bit-identical to one reading the records directly.
///
/// Besides the raw splat parameters the view caches each splat's
/// view-independent 3D covariance `R·S·Sᵀ·Rᵀ`
/// ([`Gaussian3d::covariance_of`]), so per-frame preprocessing does not
/// recompute the rotation-matrix products for every camera pose. All nine
/// entries are stored — f32 matrix products are not guaranteed to round
/// symmetrically, and [`SceneSoA::covariance`] must reproduce the original
/// matrix bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneSoA {
    pos_x: Vec<f32>,
    pos_y: Vec<f32>,
    pos_z: Vec<f32>,
    scale_x: Vec<f32>,
    scale_y: Vec<f32>,
    scale_z: Vec<f32>,
    rot_w: Vec<f32>,
    rot_x: Vec<f32>,
    rot_y: Vec<f32>,
    rot_z: Vec<f32>,
    opacity: Vec<f32>,
    cov: [Vec<f32>; 9],
    sh_degree: Vec<u8>,
    sh_coeffs: Vec<Rgb>,
    sh_offsets: Vec<u32>,
}

impl SceneSoA {
    /// Transposes AoS splat records into component arrays.
    pub fn from_gaussians(gaussians: &[Gaussian3d]) -> Self {
        let n = gaussians.len();
        let mut soa = Self {
            pos_x: Vec::with_capacity(n),
            pos_y: Vec::with_capacity(n),
            pos_z: Vec::with_capacity(n),
            scale_x: Vec::with_capacity(n),
            scale_y: Vec::with_capacity(n),
            scale_z: Vec::with_capacity(n),
            rot_w: Vec::with_capacity(n),
            rot_x: Vec::with_capacity(n),
            rot_y: Vec::with_capacity(n),
            rot_z: Vec::with_capacity(n),
            opacity: Vec::with_capacity(n),
            cov: std::array::from_fn(|_| Vec::with_capacity(n)),
            sh_degree: Vec::with_capacity(n),
            sh_coeffs: Vec::new(),
            sh_offsets: Vec::with_capacity(n + 1),
        };
        soa.sh_offsets.push(0);
        for g in gaussians {
            let p = g.position();
            soa.pos_x.push(p.x);
            soa.pos_y.push(p.y);
            soa.pos_z.push(p.z);
            let s = g.scale();
            soa.scale_x.push(s.x);
            soa.scale_y.push(s.y);
            soa.scale_z.push(s.z);
            let q = g.rotation();
            soa.rot_w.push(q.w);
            soa.rot_x.push(q.x);
            soa.rot_y.push(q.y);
            soa.rot_z.push(q.z);
            soa.opacity.push(g.opacity());
            let cov = Gaussian3d::covariance_of(s, q);
            for (r, row) in soa.cov.chunks_exact_mut(3).enumerate() {
                for (c, column) in row.iter_mut().enumerate() {
                    column.push(cov.at(r, c));
                }
            }
            soa.sh_degree.push(g.sh().degree() as u8);
            soa.sh_coeffs.extend_from_slice(g.sh().coefficients());
            soa.sh_offsets.push(soa.sh_coeffs.len() as u32);
        }
        soa
    }

    /// Number of splats.
    #[inline]
    pub fn len(&self) -> usize {
        self.opacity.len()
    }

    /// Returns `true` when the view holds no splats.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.opacity.is_empty()
    }

    /// Position X components.
    #[inline]
    pub fn pos_x(&self) -> &[f32] {
        &self.pos_x
    }

    /// Position Y components.
    #[inline]
    pub fn pos_y(&self) -> &[f32] {
        &self.pos_y
    }

    /// Position Z components.
    #[inline]
    pub fn pos_z(&self) -> &[f32] {
        &self.pos_z
    }

    /// Scale X components.
    #[inline]
    pub fn scale_x(&self) -> &[f32] {
        &self.scale_x
    }

    /// Scale Y components.
    #[inline]
    pub fn scale_y(&self) -> &[f32] {
        &self.scale_y
    }

    /// Scale Z components.
    #[inline]
    pub fn scale_z(&self) -> &[f32] {
        &self.scale_z
    }

    /// Reassembled position of splat `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Vec3 {
        Vec3::new(self.pos_x[i], self.pos_y[i], self.pos_z[i])
    }

    /// Reassembled scale of splat `i`.
    #[inline]
    pub fn scale(&self, i: usize) -> Vec3 {
        Vec3::new(self.scale_x[i], self.scale_y[i], self.scale_z[i])
    }

    /// Reassembled rotation of splat `i`.
    #[inline]
    pub fn rotation(&self, i: usize) -> Quat {
        Quat::new(self.rot_w[i], self.rot_x[i], self.rot_y[i], self.rot_z[i])
    }

    /// Opacity values.
    #[inline]
    pub fn opacity(&self) -> &[f32] {
        &self.opacity
    }

    /// Cached view-independent 3D covariance of splat `i`, bit-identical
    /// to recomputing [`Gaussian3d::covariance_of`] from the splat's scale
    /// and rotation.
    #[inline]
    pub fn covariance(&self, i: usize) -> Mat3 {
        Mat3::from_rows(
            self.cov[0][i],
            self.cov[1][i],
            self.cov[2][i],
            self.cov[3][i],
            self.cov[4][i],
            self.cov[5][i],
            self.cov[6][i],
            self.cov[7][i],
            self.cov[8][i],
        )
    }

    /// SH degree of splat `i`.
    #[inline]
    pub fn sh_degree(&self, i: usize) -> usize {
        self.sh_degree[i] as usize
    }

    /// Flattened basis-major SH coefficients of splat `i`.
    #[inline]
    pub fn sh_coefficients(&self, i: usize) -> &[Rgb] {
        &self.sh_coeffs[self.sh_offsets[i] as usize..self.sh_offsets[i + 1] as usize]
    }

    /// Resident-memory estimate of the component arrays in bytes. This is
    /// derived-data overhead on top of [`Scene::footprint_bytes`]; the
    /// serving engine reports it separately so residency budgets keep
    /// their historical meaning.
    pub fn footprint_bytes(&self) -> usize {
        // 3 pos + 3 scale + 4 rot + 1 opacity + 9 cached covariance.
        let f32s = self.pos_x.len() * 20;
        f32s * std::mem::size_of::<f32>()
            + self.sh_degree.len()
            + self.sh_coeffs.len() * std::mem::size_of::<Rgb>()
            + self.sh_offsets.len() * std::mem::size_of::<u32>()
    }
}

/// A named collection of 3D Gaussians plus the output resolution the scene
/// is rendered at.
///
/// A `Scene` is the unit of input to both the software rendering pipelines
/// and the accelerator simulator.
#[derive(Debug, Clone)]
pub struct Scene {
    name: String,
    width: u32,
    height: u32,
    gaussians: Vec<Gaussian3d>,
    soa: OnceLock<Arc<SceneSoA>>,
}

impl PartialEq for Scene {
    fn eq(&self, other: &Self) -> bool {
        // The SoA cache is derived data; equality is over the source splats.
        self.name == other.name
            && self.width == other.width
            && self.height == other.height
            && self.gaussians == other.gaussians
    }
}

impl Scene {
    /// Creates a scene from its parts.
    pub fn new(
        name: impl Into<String>,
        width: u32,
        height: u32,
        gaussians: Vec<Gaussian3d>,
    ) -> Self {
        Self {
            name: name.into(),
            width,
            height,
            gaussians,
            soa: OnceLock::new(),
        }
    }

    /// Structure-of-arrays view of the splats, built on first access and
    /// cached for the lifetime of the scene. The `Arc` lets render
    /// pipelines hold the view without borrowing the scene.
    pub fn soa(&self) -> &Arc<SceneSoA> {
        self.soa
            .get_or_init(|| Arc::new(SceneSoA::from_gaussians(&self.gaussians)))
    }

    /// Scene name (e.g. `"train"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The splats of the scene.
    #[inline]
    pub fn gaussians(&self) -> &[Gaussian3d] {
        &self.gaussians
    }

    /// Number of splats.
    #[inline]
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// Returns `true` when the scene holds no splats.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Iterates over the splats.
    pub fn iter(&self) -> std::slice::Iter<'_, Gaussian3d> {
        self.gaussians.iter()
    }

    /// Returns a copy of the scene with every splat converted to the given
    /// storage precision (the paper converts models to fp16 for the
    /// accelerator).
    pub fn to_precision(&self, precision: Precision) -> Self {
        Self::new(
            self.name.clone(),
            self.width,
            self.height,
            self.gaussians
                .iter()
                .map(|g| g.to_precision(precision))
                .collect(),
        )
    }

    /// Resident-memory estimate of the scene in bytes: every stored
    /// parameter scalar ([`Gaussian3d::parameter_count`]) at 4 bytes, plus
    /// the name. This is the figure the serving engine's residency policy
    /// budgets against, so it is deterministic for a given scene — it does
    /// not try to account for allocator or container overhead.
    pub fn footprint_bytes(&self) -> usize {
        let splat_bytes: usize = self
            .gaussians
            .iter()
            .map(|g| g.parameter_count() * std::mem::size_of::<f32>())
            .sum();
        splat_bytes + self.name.len()
    }

    /// Returns a scene containing only the first `n` splats, preserving
    /// name and resolution. Useful for scaled-down smoke tests.
    pub fn truncated(&self, n: usize) -> Self {
        Self::new(
            self.name.clone(),
            self.width,
            self.height,
            self.gaussians.iter().take(n).cloned().collect(),
        )
    }
}

impl<'a> IntoIterator for &'a Scene {
    type Item = &'a Gaussian3d;
    type IntoIter = std::slice::Iter<'a, Gaussian3d>;

    fn into_iter(self) -> Self::IntoIter {
        self.gaussians.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::Quat;

    fn splat_at(p: Vec3) -> Gaussian3d {
        Gaussian3d::builder()
            .position(p)
            .scale(Vec3::splat(0.1))
            .rotation(Quat::IDENTITY)
            .opacity(0.5)
            .base_color([0.5, 0.5, 0.5])
            .build()
    }

    #[test]
    fn empty_scene_has_no_bounds() {
        let scene = Scene::new("empty", 8, 8, vec![]);
        assert!(scene.is_empty());
    }

    #[test]
    fn truncated_keeps_resolution() {
        let scene = Scene::new(
            "test",
            640,
            480,
            (0..10).map(|i| splat_at(Vec3::splat(i as f32))).collect(),
        );
        let t = scene.truncated(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.width(), 640);
        assert_eq!(t.height(), 480);
    }

    #[test]
    fn precision_conversion_preserves_count() {
        let scene = Scene::new(
            "test",
            64,
            64,
            (0..5)
                .map(|i| splat_at(Vec3::splat(i as f32 * 0.1)))
                .collect(),
        );
        let half = scene.to_precision(Precision::Half);
        assert_eq!(half.len(), scene.len());
        assert_eq!(half.name(), "test");
    }

    #[test]
    fn footprint_scales_with_splats_and_counts_all_parameters() {
        let empty = Scene::new("e", 8, 8, vec![]);
        assert_eq!(empty.footprint_bytes(), 1, "just the name");
        let one = Scene::new("e", 8, 8, vec![splat_at(Vec3::ZERO)]);
        // Degree-0 SH splat: 3+3+4+1+3 = 14 scalars at 4 bytes.
        assert_eq!(one.footprint_bytes(), 1 + 14 * 4);
        let ten = Scene::new("e", 8, 8, (0..10).map(|_| splat_at(Vec3::ZERO)).collect());
        assert_eq!(ten.footprint_bytes(), 1 + 10 * 14 * 4);
    }

    #[test]
    fn soa_view_matches_aos_storage_bit_exactly() {
        let scene = Scene::new(
            "test",
            64,
            64,
            (0..17)
                .map(|i| {
                    Gaussian3d::builder()
                        .position(Vec3::new(i as f32 * 0.3, -(i as f32) * 0.7, 1.0 + i as f32))
                        .scale(Vec3::new(0.1, 0.2 + i as f32 * 0.01, 0.3))
                        .rotation(Quat::from_axis_angle(Vec3::Y, i as f32 * 0.2))
                        .opacity(0.1 + 0.05 * i as f32 % 0.9)
                        .base_color([0.2, 0.4, 0.6])
                        .build()
                })
                .collect(),
        );
        let soa = scene.soa();
        assert_eq!(soa.len(), scene.len());
        for (i, g) in scene.iter().enumerate() {
            assert_eq!(soa.position(i), g.position());
            assert_eq!(soa.scale(i), g.scale());
            assert_eq!(soa.rotation(i), g.rotation());
            assert_eq!(soa.opacity()[i].to_bits(), g.opacity().to_bits());
            assert_eq!(soa.sh_degree(i), g.sh().degree());
            assert_eq!(soa.sh_coefficients(i), g.sh().coefficients());
            let fresh = Gaussian3d::covariance_of(g.scale(), g.rotation());
            let cached = soa.covariance(i);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(
                        cached.at(r, c).to_bits(),
                        fresh.at(r, c).to_bits(),
                        "covariance entry ({r},{c}) of splat {i} must be cached bit-exactly"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_is_cached_and_excluded_from_equality() {
        let scene = Scene::new("test", 8, 8, vec![splat_at(Vec3::ZERO)]);
        let fresh = scene.clone();
        let a = Arc::as_ptr(scene.soa());
        let b = Arc::as_ptr(scene.soa());
        assert_eq!(a, b, "second access must return the cached view");
        // Building the view on one copy must not affect equality.
        assert_eq!(scene, fresh);
    }

    #[test]
    fn soa_footprint_counts_every_component_array() {
        let scene = Scene::new("e", 8, 8, (0..10).map(|_| splat_at(Vec3::ZERO)).collect());
        // Degree-0: 11 parameter f32s + 9 cached covariance f32s + 1
        // degree byte + 1 Rgb coefficient per splat, plus the 11-entry u32
        // offset table (len + 1) and its leading zero.
        let expected = 10 * (20 * 4 + 1 + 12) + 11 * 4;
        assert_eq!(scene.soa().footprint_bytes(), expected);
    }

    #[test]
    fn iteration_visits_every_splat() {
        let scene = Scene::new(
            "test",
            64,
            64,
            (0..7).map(|i| splat_at(Vec3::splat(i as f32))).collect(),
        );
        assert_eq!(scene.iter().count(), 7);
        assert_eq!((&scene).into_iter().count(), 7);
    }
}
