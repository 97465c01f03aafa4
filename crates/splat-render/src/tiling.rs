//! Tile grid and tile identification.
//!
//! The output image is divided into square tiles; tile identification
//! determines, per projected splat, which tiles it influences. The same
//! machinery serves group identification in the GS-TG pipeline (a tile
//! group is simply a grid with a larger tile size).

use crate::bounds::{Ellipse, Footprint, OrientedBox, Shape, Square};
use crate::config::{BoundaryMethod, PrepassMode};
use splat_core::{CsrAssignments, CsrScratch, ProjectedGaussian, StageCounts, TileLists, TileRect};
use splat_types::{RenderError, Vec2};

/// A regular grid of square tiles covering the output image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    tile_size: u32,
    width: u32,
    height: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl TileGrid {
    /// Creates a grid of `tile_size`-pixel tiles covering a
    /// `width`×`height` image. Border tiles may be partially outside the
    /// image, exactly as in the reference implementation.
    ///
    /// # Panics
    ///
    /// Panics when `tile_size` is zero or the image is empty.
    pub fn new(width: u32, height: u32, tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile size must be non-zero");
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self {
            tile_size,
            width,
            height,
            tiles_x: width.div_ceil(tile_size),
            tiles_y: height.div_ceil(tile_size),
        }
    }

    /// Fallible variant of [`TileGrid::new`] for the panic-free serving
    /// path: malformed grid parameters become typed errors instead of
    /// panics.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidTileSize`] when `tile_size` is zero
    /// and [`RenderError::InvalidResolution`] when the image is empty.
    pub(crate) fn try_new(width: u32, height: u32, tile_size: u32) -> Result<Self, RenderError> {
        if tile_size == 0 {
            return Err(RenderError::InvalidTileSize { tile_size });
        }
        if width == 0 || height == 0 {
            return Err(RenderError::InvalidResolution { width, height });
        }
        Ok(Self::new(width, height, tile_size))
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Total number of tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        (self.tiles_x as usize) * (self.tiles_y as usize)
    }

    /// Flattened tile index for tile coordinates `(tx, ty)`.
    #[inline]
    pub fn tile_index(&self, tx: u32, ty: u32) -> usize {
        (ty as usize) * (self.tiles_x as usize) + (tx as usize)
    }

    /// Tile coordinates for a flattened tile index.
    #[inline]
    pub fn tile_coords(&self, index: usize) -> (u32, u32) {
        (
            (index % self.tiles_x as usize) as u32,
            (index / self.tiles_x as usize) as u32,
        )
    }

    /// Pixel-space rectangle of tile `(tx, ty)`, clipped to the image.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> TileRect {
        let x0 = (tx * self.tile_size) as f32;
        let y0 = (ty * self.tile_size) as f32;
        let x1 = (((tx + 1) * self.tile_size).min(self.width)) as f32;
        let y1 = (((ty + 1) * self.tile_size).min(self.height)) as f32;
        TileRect::new(x0, y0, x1, y1)
    }

    /// Unclamped tile coordinates `[x_lo, x_hi, y_lo, y_hi]` of the tiles
    /// holding the corners of an axis-aligned box of `half_extent` around
    /// `center` (both in pixels): `⌊(center ∓ half_extent) / tile_size⌋` per
    /// axis, `-1` for a NaN bound. A tile floor divided (rounding down) by
    /// the tiles per group side is the floor of the group holding that
    /// tile, which is how GS-TG derives a splat's group range from its tile
    /// range.
    pub fn tile_floors(&self, center: Vec2, half_extent: Vec2) -> [i64; 4] {
        let size = self.tile_size as f32;
        [
            floor((center.x - half_extent.x) / size),
            floor((center.x + half_extent.x) / size),
            floor((center.y - half_extent.y) / size),
            floor((center.y + half_extent.y) / size),
        ]
    }

    /// Clamps [`TileGrid::tile_floors`] coordinates to the half-open tile
    /// range `(tx0..tx1, ty0..ty1)` inside the grid.
    pub fn clamp_floors(&self, [x_lo, x_hi, y_lo, y_hi]: [i64; 4]) -> (u32, u32, u32, u32) {
        let clamp = |v: i64, tiles: u32| v.clamp(0, i64::from(tiles)) as u32;
        (
            clamp(x_lo, self.tiles_x),
            clamp(x_hi + 1, self.tiles_x),
            clamp(y_lo, self.tiles_y),
            clamp(y_hi + 1, self.tiles_y),
        )
    }

    /// Range of tile coordinates `(tx0..tx1, ty0..ty1)` whose tiles overlap
    /// an axis-aligned box of `half_extent` around `center` (both in
    /// pixels). The range is clamped to the grid; a NaN bound gives an
    /// empty range on its axis.
    pub fn tile_range(&self, center: Vec2, half_extent: Vec2) -> (u32, u32, u32, u32) {
        self.clamp_floors(self.tile_floors(center, half_extent))
    }

    /// Walks the tile rows `ty0..ty1` of a candidate range and calls
    /// `row(ty, tx_lo, tx_hi)` for each row the footprint meets, with the
    /// contiguous columns `tx_lo..tx_hi` (inside `tx0..tx1`) that its
    /// x-interval over the row's band `[ty·size, (ty+1)·size]` covers. A
    /// tile is hit iff its unclipped, closed rectangle holds a point of the
    /// footprint, except a tile the interval touches only at its right
    /// edge, which [`TileGrid::tile_range`] leaves out too. Neighbouring
    /// rows share their edge's chord: one chord per band edge.
    pub fn for_each_row_span<S: Shape>(
        &self,
        footprint: &Footprint<S>,
        (tx0, tx1, ty0, ty1): (u32, u32, u32, u32),
        mut row: impl FnMut(u32, u32, u32),
    ) {
        let size = self.tile_size as f32;
        let clamp = |tile: i64| tile.clamp(i64::from(tx0), i64::from(tx1)) as u32;
        let mut top = footprint.edge((ty0 * self.tile_size) as f32);
        for ty in ty0..ty1 {
            let bottom = footprint.edge(((ty + 1) * self.tile_size) as f32);
            if let Some((x_lo, x_hi)) = footprint.span(&top, &bottom) {
                let (tx_lo, tx_hi) = (clamp(floor(x_lo / size)), clamp(floor(x_hi / size) + 1));
                if tx_lo < tx_hi {
                    row(ty, tx_lo, tx_hi);
                }
            }
            top = bottom;
        }
    }
}

/// `⌊v⌋` without libm: the default x86-64 target has no `roundss`, so
/// `f32::floor` is a library call. `as i32` truncates, saturates and maps
/// NaN to 0; negative fractions then step down one, and so does NaN, to
/// the -1 that clamps to an empty range.
#[inline]
fn floor(v: f32) -> i64 {
    let truncated = v as i32;
    i64::from(truncated) - i64::from(v.is_nan() || truncated as f32 > v)
}

/// The result of tile identification: for every tile, the list of projected
/// splat positions (indices into the `ProjectedGaussian` slice) that
/// influence it, in scene order. Stored as a flat CSR layout
/// ([`CsrAssignments`]) so a session can rebuild it in place every frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAssignments {
    grid: TileGrid,
    per_tile: CsrAssignments<u32>,
    /// Number of tiles intersected by each projected splat (same indexing
    /// as the `ProjectedGaussian` slice).
    tiles_per_gaussian: Vec<u32>,
}

impl TileAssignments {
    /// An empty assignment set (one empty bin over a 1×1 placeholder grid),
    /// ready to be rebuilt in place by [`identify_tiles_into`].
    pub fn empty() -> Self {
        let grid = TileGrid::new(1, 1, 1);
        Self {
            grid,
            per_tile: CsrAssignments::with_bins(grid.tile_count()),
            tiles_per_gaussian: Vec::new(),
        }
    }

    /// Splat list of the tile with flattened index `tile`.
    #[inline]
    pub fn tile(&self, tile: usize) -> &[u32] {
        self.per_tile.bin(tile)
    }

    /// Mutable access to the CSR bins, used by the sorting stage.
    #[inline]
    pub(crate) fn bins_mut(&mut self) -> &mut CsrAssignments<u32> {
        &mut self.per_tile
    }

    /// Iterates over `(tile_index, splat_list)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.per_tile.iter()
    }

    /// Total number of (tile, splat) pairs — the number of sort keys the
    /// tile-wise sorting stage has to handle.
    pub fn total_entries(&self) -> u64 {
        self.per_tile.total_entries()
    }

    /// Bytes currently reserved by the assignment buffers.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.per_tile.footprint_bytes()
            + self.tiles_per_gaussian.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of tiles each projected splat intersects.
    pub fn tiles_per_gaussian(&self) -> &[u32] {
        &self.tiles_per_gaussian
    }

    /// Fraction of projected splats that are shared between two or more
    /// tiles (Table I of the paper). Splats intersecting zero tiles are
    /// excluded from the denominator.
    pub fn shared_fraction(&self) -> f64 {
        let intersecting = self.tiles_per_gaussian.iter().filter(|&&n| n >= 1).count();
        if intersecting == 0 {
            return 0.0;
        }
        let shared = self.tiles_per_gaussian.iter().filter(|&&n| n >= 2).count();
        shared as f64 / intersecting as f64
    }

    /// Mean number of intersected tiles per splat (Fig. 5), over splats
    /// that intersect at least one tile.
    pub fn mean_tiles_per_gaussian(&self) -> f64 {
        mean_of_nonzero(&self.tiles_per_gaussian)
    }
}

/// Mean of the non-zero entries of a per-splat bin count (tiles or groups
/// per splat), `0.0` when every entry is zero.
fn mean_of_nonzero(per_gaussian: &[u32]) -> f64 {
    let (sum, touched) = per_gaussian
        .iter()
        .filter(|&&n| n >= 1)
        .fold((0.0f64, 0usize), |(sum, touched), &n| {
            (sum + f64::from(n), touched + 1)
        });
    if touched == 0 {
        0.0
    } else {
        sum / touched as f64
    }
}

/// The baseline's per-tile list provider: every tile is its own unit and
/// its sorted list is read straight out of the CSR bin.
impl TileLists for TileAssignments {
    fn unit_count(&self) -> usize {
        self.grid.tile_count()
    }

    fn for_each_tile<F>(
        &self,
        unit: usize,
        counts: &mut StageCounts,
        _tile_list: &mut Vec<u32>,
        mut shade: F,
    ) where
        F: FnMut(&TileRect, &[u32], &mut StageCounts),
    {
        let (tx, ty) = self.grid.tile_coords(unit);
        shade(&self.grid.tile_rect(tx, ty), self.tile(unit), counts);
    }
}

/// Runs tile identification for all projected splats against a grid using
/// the given boundary method. `out` is rebuilt through `scratch`, retaining
/// both allocations across frames: the staged `(tile, slot)` pairs are
/// counting-sorted into the CSR layout (counting prepass → prefix-sum
/// offsets → stable scatter), preserving scene order within each tile.
///
/// Every method takes the same walk. A splat's candidate tiles are the
/// rectangle its footprint's half extent covers, and its hits come a tile
/// row at a time ([`TileGrid::for_each_row_span`]): no tile is tested on
/// its own. The method picks the footprint's [`Shape`] once per call.
///
/// Accounting: `tile_tests` and `tiles_tested` are modeled: the area of
/// each splat's candidate rectangle, the tests a per-tile boundary unit
/// performs, whatever the CPU does. `tiles_hit` counts accepted tiles and
/// always equals `tile_intersections` (the flat intersection-list length).
///
/// `_prepass` is ignored: it is still a parameter only because
/// `benchmark/src/layers.rs` passes one, and goes with ROADMAP item 2a.
#[allow(clippy::too_many_arguments)]
pub fn identify_tiles_into(
    projected: &[ProjectedGaussian],
    grid: TileGrid,
    boundary: BoundaryMethod,
    _prepass: PrepassMode,
    counts: &mut StageCounts,
    scratch: &mut CsrScratch<u32>,
    out: &mut TileAssignments,
) {
    out.grid = grid;
    out.tiles_per_gaussian.clear();
    out.tiles_per_gaussian.resize(projected.len(), 0);
    scratch.clear();
    let identify = match boundary {
        BoundaryMethod::Aabb => identify_tiles_with::<Square>,
        BoundaryMethod::Obb => identify_tiles_with::<OrientedBox>,
        BoundaryMethod::Ellipse => identify_tiles_with::<Ellipse>,
    };
    identify(
        projected,
        grid,
        counts,
        scratch,
        &mut out.tiles_per_gaussian,
    );
    scratch.build_into(grid.tile_count(), &mut out.per_tile);
}

/// The per-splat loop of [`identify_tiles_into`] under one shape: stages
/// each splat's row spans and counts its hits into `tiles_per_gaussian`.
fn identify_tiles_with<S: Shape>(
    projected: &[ProjectedGaussian],
    grid: TileGrid,
    counts: &mut StageCounts,
    scratch: &mut CsrScratch<u32>,
    tiles_per_gaussian: &mut [u32],
) {
    for ((slot, splat), tiles_of_splat) in (0u32..).zip(projected).zip(tiles_per_gaussian) {
        let Some(footprint) = Footprint::<S>::of(splat) else {
            continue;
        };
        let candidates = grid.tile_range(splat.mean, footprint.half_extent());
        let mut hits = 0u32;
        grid.for_each_row_span(&footprint, candidates, |ty, tx_lo, tx_hi| {
            for tx in tx_lo..tx_hi {
                scratch.stage(grid.tile_index(tx, ty) as u32, slot);
            }
            hits += tx_hi - tx_lo;
        });
        let (tx0, tx1, ty0, ty1) = candidates;
        let area = u64::from(tx1 - tx0) * u64::from(ty1 - ty0);
        counts.tile_tests += area;
        counts.tiles_tested += area;
        counts.tile_intersections += u64::from(hits);
        counts.tiles_hit += u64::from(hits);
        *tiles_of_splat = hits;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use splat_types::{Mat2, Rgb};

    impl TileGrid {
        /// Pixel-space rectangle of tile `(tx, ty)` *without* clipping to the
        /// image border: the rectangle on which the row walk decides a hit,
        /// so a splat overlapping the padding of a border tile is assigned
        /// to it (the reference implementation's grid math).
        pub(crate) fn tile_rect_unclipped(&self, tx: u32, ty: u32) -> TileRect {
            let x0 = (tx * self.tile_size) as f32;
            let y0 = (ty * self.tile_size) as f32;
            TileRect::new(
                x0,
                y0,
                x0 + self.tile_size as f32,
                y0 + self.tile_size as f32,
            )
        }
    }

    /// Allocating form of [`identify_tiles_into`].
    pub(crate) fn identify_tiles(
        projected: &[ProjectedGaussian],
        grid: TileGrid,
        boundary: BoundaryMethod,
        counts: &mut StageCounts,
    ) -> TileAssignments {
        let mut out = TileAssignments::empty();
        identify_tiles_into(
            projected,
            grid,
            boundary,
            PrepassMode::Conservative,
            counts,
            &mut CsrScratch::new(),
            &mut out,
        );
        out
    }

    fn projected(mean: Vec2, sigma: f32) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
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

    #[test]
    fn grid_dimensions_round_up() {
        let grid = TileGrid::new(100, 50, 16);
        assert_eq!(grid.tiles_x(), 7);
        assert_eq!(grid.tiles_y(), 4);
        assert_eq!(grid.tile_count(), 28);
    }

    #[test]
    fn tile_rect_is_clipped_at_border() {
        let grid = TileGrid::new(100, 50, 16);
        let rect = grid.tile_rect(6, 3);
        assert_eq!(rect.x1, 100.0);
        assert_eq!(rect.y1, 50.0);
        let unclipped = grid.tile_rect_unclipped(6, 3);
        assert_eq!(unclipped.x1, 112.0);
        assert_eq!(unclipped.y1, 64.0);
    }

    #[test]
    fn tile_index_round_trips() {
        let grid = TileGrid::new(256, 128, 16);
        for ty in 0..grid.tiles_y() {
            for tx in 0..grid.tiles_x() {
                let idx = grid.tile_index(tx, ty);
                assert_eq!(grid.tile_coords(idx), (tx, ty));
            }
        }
    }

    #[test]
    fn tile_range_clamps_to_grid() {
        let grid = TileGrid::new(128, 128, 16);
        let (tx0, tx1, ty0, ty1) = grid.tile_range(Vec2::new(-50.0, 300.0), Vec2::splat(10.0));
        assert!(tx0 <= tx1 && tx1 <= grid.tiles_x());
        assert!(ty0 <= ty1 && ty1 <= grid.tiles_y());
    }

    /// The formula [`TileGrid::tile_range`] replaced: `f32::floor`, clamp
    /// in floats, convert.
    fn floor_then_clamp(grid: &TileGrid, center: Vec2, half_extent: Vec2) -> (u32, u32, u32, u32) {
        let clamp_x = |v: f32| v.clamp(0.0, grid.tiles_x() as f32) as u32;
        let clamp_y = |v: f32| v.clamp(0.0, grid.tiles_y() as f32) as u32;
        let size = grid.tile_size as f32;
        (
            clamp_x(((center.x - half_extent.x) / size).floor()),
            clamp_x(((center.x + half_extent.x) / size).floor() + 1.0),
            clamp_y(((center.y - half_extent.y) / size).floor()),
            clamp_y(((center.y + half_extent.y) / size).floor() + 1.0),
        )
    }

    #[test]
    fn floor_free_tile_range_matches_floor_then_clamp() {
        let mut rng = splat_types::rng::Rng::seed_from_u64(0xF100_12A9);
        let special = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            0.5,
            -0.5,
            1e9,
            -1e9,
            3e9,
            -3e9,
            16_777_216.0,
            -16_777_217.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut checked = 0u32;
        for (width, height, tile_size) in [(128, 96, 16), (100, 50, 8), (1920, 1080, 64), (7, 5, 3)]
        {
            let grid = TileGrid::new(width, height, tile_size);
            let size = tile_size as f32;
            let mut check = |center: Vec2, half_extent: Vec2| {
                assert_eq!(
                    grid.tile_range(center, half_extent),
                    floor_then_clamp(&grid, center, half_extent),
                    "{width}x{height}/{tile_size}: center {center:?} half extent {half_extent:?}"
                );
                checked += 1;
            };
            // Every pairing of the special values, as centres and as extents.
            for &cx in &special {
                for &cy in &special {
                    for &extent in &special {
                        check(Vec2::new(cx, cy), Vec2::splat(extent));
                        check(Vec2::new(extent, cx), Vec2::new(cy, 1.5));
                    }
                }
            }
            // Bounds exactly on tile edges, one ulp either side of them, and
            // extents reaching past the grid on both sides.
            for edge in -3i32..=(width / tile_size) as i32 + 3 {
                let x = edge as f32 * size;
                // Stepping the bit pattern moves a float one ulp away from
                // zero (or back towards it), on either side of zero.
                let away = f32::from_bits(x.to_bits() + 1);
                let towards = if x == 0.0 {
                    -away
                } else {
                    f32::from_bits(x.to_bits() - 1)
                };
                for nudged in [x, away, towards] {
                    check(Vec2::new(nudged, nudged * 0.5), Vec2::ZERO);
                    check(Vec2::new(nudged, -nudged), Vec2::splat(size));
                    check(Vec2::new(nudged, 3.0), Vec2::splat(4.0 * width as f32));
                }
            }
            // Seeded sweep: centres from well left of the image to well
            // right of it, extents from sub-pixel to several images wide.
            for _ in 0..4000 {
                let span = 3.0 * width.max(height) as f32;
                let center = Vec2::new(rng.range_f32(-span, span), rng.range_f32(-span, span));
                let half_extent = Vec2::new(
                    rng.range_f32(0.0, 1.0) * rng.range_f32(0.0, span),
                    rng.range_f32(0.0, 1.0) * rng.range_f32(0.0, span),
                );
                check(center, half_extent);
            }
        }
        assert!(checked > 20_000);
    }

    #[test]
    fn small_central_splat_lands_in_one_tile() {
        let grid = TileGrid::new(128, 128, 16);
        let mut counts = StageCounts::new();
        let splats = vec![projected(Vec2::new(24.0, 24.0), 1.0)];
        let assignments = identify_tiles(&splats, grid, BoundaryMethod::Ellipse, &mut counts);
        assert_eq!(assignments.tiles_per_gaussian()[0], 1);
        assert_eq!(assignments.tile(grid.tile_index(1, 1)), &[0]);
        assert_eq!(counts.tile_intersections, 1);
    }

    #[test]
    fn large_splat_covers_multiple_tiles() {
        let grid = TileGrid::new(128, 128, 16);
        let mut counts = StageCounts::new();
        let splats = vec![projected(Vec2::new(64.0, 64.0), 10.0)]; // 3σ = 30 px
        let assignments = identify_tiles(&splats, grid, BoundaryMethod::Aabb, &mut counts);
        assert!(assignments.tiles_per_gaussian()[0] >= 9);
        assert!(counts.tile_tests >= counts.tile_intersections);
    }

    #[test]
    fn smaller_tiles_mean_more_intersections_per_gaussian() {
        // The Fig. 5 effect: the same splats intersect more tiles when the
        // tile size shrinks.
        let splats: Vec<ProjectedGaussian> = (0..20)
            .map(|i| projected(Vec2::new(20.0 + 8.0 * i as f32, 100.0), 6.0))
            .collect();
        let mut tiles_small = StageCounts::new();
        let mut tiles_large = StageCounts::new();
        let small = identify_tiles(
            &splats,
            TileGrid::new(256, 256, 8),
            BoundaryMethod::Aabb,
            &mut tiles_small,
        );
        let large = identify_tiles(
            &splats,
            TileGrid::new(256, 256, 64),
            BoundaryMethod::Aabb,
            &mut tiles_large,
        );
        assert!(small.mean_tiles_per_gaussian() > large.mean_tiles_per_gaussian());
    }

    #[test]
    fn shared_fraction_counts_multi_tile_splats() {
        let grid = TileGrid::new(64, 64, 16);
        let mut counts = StageCounts::new();
        // One splat inside a single tile, one spanning several.
        let splats = vec![
            projected(Vec2::new(8.0, 8.0), 0.5),
            projected(Vec2::new(32.0, 32.0), 8.0),
        ];
        let assignments = identify_tiles(&splats, grid, BoundaryMethod::Ellipse, &mut counts);
        assert!((assignments.shared_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn total_entries_counts_tile_gaussian_pairs() {
        let grid = TileGrid::new(64, 64, 16);
        let mut counts = StageCounts::new();
        let splats = vec![projected(Vec2::new(32.0, 32.0), 8.0)];
        let assignments = identify_tiles(&splats, grid, BoundaryMethod::Aabb, &mut counts);
        assert_eq!(assignments.total_entries(), counts.tile_intersections);
        assert_eq!(
            assignments.total_entries(),
            u64::from(assignments.tiles_per_gaussian()[0])
        );
    }

    /// Tile coordinates `(tx, ty)` in row-major order.
    type Tiles = Vec<(u32, u32)>;

    /// The tiles the row walk of `S` hits, and the candidate tiles whose
    /// rectangle the footprint meets, tested one band at a time.
    fn walked_and_met<S: Shape>(grid: &TileGrid, splat: &ProjectedGaussian) -> (Tiles, Tiles) {
        let footprint = Footprint::<S>::of(splat).expect("positive definite");
        let range = grid.tile_range(splat.mean, footprint.half_extent());
        let mut walked = Vec::new();
        grid.for_each_row_span(&footprint, range, |ty, tx_lo, tx_hi| {
            walked.extend((tx_lo..tx_hi).map(|tx| (tx, ty)));
        });
        let (tx0, tx1, ty0, ty1) = range;
        let met = (ty0..ty1)
            .flat_map(|ty| (tx0..tx1).map(move |tx| (tx, ty)))
            .filter(|&(tx, ty)| footprint.meets(&grid.tile_rect_unclipped(tx, ty)))
            .collect();
        (walked, met)
    }

    /// Under every method the row walk hits exactly the candidate tiles
    /// whose rectangle the footprint meets, tested one band at a time:
    /// sharing a chord between neighbouring rows and turning an interval
    /// into columns lose and add nothing. Over the whole grid it also
    /// matches the per-tile tests it replaced (the AABB overlap, the
    /// separating-axis test, the segment minimisation), so every candidate
    /// range holds every hit; only tangency may split the two. Every fourth
    /// splat is axis-aligned and every fourth turned by 45°.
    #[test]
    fn row_spans_hit_the_tiles_the_ellipse_meets() {
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x5BA4_0011);
        let (mut hits, mut tangent) = ([0usize; 3], 0);
        for case in 0..2_000 {
            let grid = TileGrid::new(96, 64, [8, 16, 32][case % 3]);
            let sx = rng.range_f32(0.3, 400.0);
            let sy = if case % 4 == 1 {
                sx
            } else {
                rng.range_f32(0.3, 400.0)
            };
            let correlation = if case % 4 == 0 {
                0.0
            } else {
                rng.range_f32(-0.95, 0.95)
            };
            let cov = Mat2::from_symmetric(sx, correlation * (sx * sy).sqrt(), sy);
            let mean = Vec2::new(rng.range_f32(-40.0, 136.0), rng.range_f32(-40.0, 104.0));
            let splat = crate::bounds::tests::splat(mean, cov);
            for (method, hits) in BoundaryMethod::ALL.into_iter().zip(&mut hits) {
                let (walked, met) = match method {
                    BoundaryMethod::Aabb => walked_and_met::<Square>(&grid, &splat),
                    BoundaryMethod::Obb => walked_and_met::<OrientedBox>(&grid, &splat),
                    BoundaryMethod::Ellipse => walked_and_met::<Ellipse>(&grid, &splat),
                };
                assert_eq!(walked, met, "case {case} {method}: {mean:?} {cov:?}");
                let all =
                    (0..grid.tiles_y()).flat_map(|ty| (0..grid.tiles_x()).map(move |tx| (tx, ty)));
                for (tx, ty) in all {
                    let rect = grid.tile_rect_unclipped(tx, ty);
                    let oracle = crate::bounds::tests::oracle_meets(&splat, &rect, method);
                    if oracle != walked.contains(&(tx, ty)) {
                        eprintln!("case {case} {method}: tile ({tx}, {ty}) oracle {oracle}");
                        tangent += 1;
                    }
                }
                *hits += walked.len();
            }
        }
        assert!(hits.iter().all(|&n| n > 5_000), "{hits:?} hits");
        assert!(tangent <= 2, "{tangent} tangent disagreements");
    }

    #[test]
    fn tighter_boundary_methods_assign_fewer_tiles() {
        let grid = TileGrid::new(256, 256, 16);
        // Anisotropic splat: build covariance rotated 45°.
        let a2 = 100.0f32;
        let b2 = 4.0f32;
        let cov = Mat2::from_symmetric(0.5 * (a2 + b2), 0.5 * (a2 - b2), 0.5 * (a2 + b2));
        let splat = ProjectedGaussian {
            index: 0,
            depth: 1.0,
            mean: Vec2::new(128.0, 128.0),
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color: Rgb::WHITE,
        };
        let count_for = |method| {
            let mut counts = StageCounts::new();
            identify_tiles(std::slice::from_ref(&splat), grid, method, &mut counts)
                .tiles_per_gaussian()[0]
        };
        let aabb = count_for(BoundaryMethod::Aabb);
        let obb = count_for(BoundaryMethod::Obb);
        let ellipse = count_for(BoundaryMethod::Ellipse);
        assert!(aabb >= obb && obb >= ellipse);
        assert!(aabb > ellipse, "aabb {aabb} vs ellipse {ellipse}");
    }

    #[test]
    #[should_panic(expected = "tile size must be non-zero")]
    fn zero_tile_size_panics() {
        let _ = TileGrid::new(64, 64, 0);
    }

    #[test]
    fn try_new_returns_typed_errors_instead_of_panicking() {
        assert_eq!(
            TileGrid::try_new(64, 64, 0),
            Err(RenderError::InvalidTileSize { tile_size: 0 })
        );
        assert_eq!(
            TileGrid::try_new(0, 64, 16),
            Err(RenderError::InvalidResolution {
                width: 0,
                height: 64
            })
        );
        assert_eq!(
            TileGrid::try_new(64, 0, 16),
            Err(RenderError::InvalidResolution {
                width: 64,
                height: 0
            })
        );
        assert_eq!(TileGrid::try_new(64, 64, 16), Ok(TileGrid::new(64, 64, 16)));
    }

    #[test]
    fn in_place_identification_matches_fresh_and_reuses_capacity() {
        let grid = TileGrid::new(128, 128, 16);
        let splats: Vec<ProjectedGaussian> = (0..10)
            .map(|i| projected(Vec2::new(10.0 + 11.0 * i as f32, 64.0), 5.0))
            .collect();
        let mut fresh_counts = StageCounts::new();
        let fresh = identify_tiles(&splats, grid, BoundaryMethod::Aabb, &mut fresh_counts);

        let mut scratch = CsrScratch::new();
        let mut reused = TileAssignments::empty();
        for _ in 0..3 {
            let mut counts = StageCounts::new();
            identify_tiles_into(
                &splats,
                grid,
                BoundaryMethod::Aabb,
                PrepassMode::Conservative,
                &mut counts,
                &mut scratch,
                &mut reused,
            );
            assert_eq!(reused, fresh);
            assert_eq!(counts, fresh_counts);
        }
        let footprint = reused.footprint_bytes() + scratch.footprint_bytes();
        let mut counts = StageCounts::new();
        identify_tiles_into(
            &splats,
            grid,
            BoundaryMethod::Aabb,
            PrepassMode::Conservative,
            &mut counts,
            &mut scratch,
            &mut reused,
        );
        assert_eq!(
            reused.footprint_bytes() + scratch.footprint_bytes(),
            footprint,
            "steady-state rebuild must not grow the buffers"
        );
    }
}
