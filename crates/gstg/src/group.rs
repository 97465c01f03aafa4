//! Group identification and bitmask generation.
//!
//! Tiles are grouped into aligned squares; for every splat the groups it
//! influences are identified, and for every (group, splat) pair a bitmask
//! of the small tiles the splat touches inside that group is generated.
//! Because the small tiles are fully contained in their group, a splat
//! touching a small tile always touches the group, so the bitmasks
//! losslessly encode the baseline's per-tile assignment.
//!
//! The bitmasks come first, under every boundary method: the splat's row
//! spans over its candidate tiles are ORed into the masks of the groups
//! holding them, and a group whose in-image mask under the group boundary
//! is empty is not staged. Every bit set is also tallied per tile
//! (`GroupAssignments::tile_hits`), which is what lets rasterization
//! scatter a sorted group list into its tiles' lists in one walk
//! ([`crate::raster`]).

use crate::bitmask::{GroupLayout, TileBitmask};
use crate::config::GstgConfig;
use splat_core::{CsrAssignments, CsrScratch, ProjectedGaussian, SortEntry, StageCounts};
use splat_render::{BoundaryMethod, Ellipse, Footprint, OrientedBox, Shape, Square, TileGrid};

/// One splat's membership in one group: which projected splat it is and
/// which small tiles of the group it touches. Packed to 4-byte alignment:
/// the `u64` mask would otherwise pad every entry (and every staged
/// `(group, entry)` pair) by a third.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, packed(4))]
pub struct GroupEntry {
    /// Small-tile membership bitmask within the group.
    pub(crate) bitmask: TileBitmask,
    /// Index into the `ProjectedGaussian` slice.
    pub(crate) slot: u32,
}

const _: () = assert!(std::mem::size_of::<GroupEntry>() == 12);

/// The depth sort parks the slot in the first word and the mask in the
/// second.
impl SortEntry for GroupEntry {
    #[inline]
    fn slot(&self) -> u32 {
        self.slot
    }

    #[inline]
    fn park(self, first: &mut u64, second: &mut u64) {
        *first = u64::from(self.slot);
        *second = self.bitmask.to_bits();
    }

    #[inline]
    fn unpark(first: u64, second: u64) -> Self {
        Self {
            bitmask: TileBitmask::from_bits(second),
            slot: first as u32,
        }
    }
}

/// The result of group identification: per-group splat lists with their
/// tile bitmasks, stored in the flat CSR layout ([`CsrAssignments`]) shared
/// with the baseline's tile assignments so a session can rebuild them in
/// place every frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAssignments {
    group_grid: TileGrid,
    tile_grid: TileGrid,
    layout: GroupLayout,
    per_group: CsrAssignments<GroupEntry>,
    /// Bits set per small tile, group-major: `tiles_per_group` counters per
    /// group in bit order (out-of-image positions of border groups stay 0).
    tile_hits: Vec<u32>,
}

impl GroupAssignments {
    /// An empty assignment set over a 1×1 placeholder image, ready to be
    /// rebuilt in place by [`identify_groups_into`].
    pub fn empty() -> Self {
        let grid = TileGrid::new(1, 1, 1);
        Self {
            group_grid: grid,
            tile_grid: grid,
            layout: GroupLayout::new(1, 1),
            per_group: CsrAssignments::with_bins(grid.tile_count()),
            tile_hits: vec![0; grid.tile_count()],
        }
    }

    /// Grid of groups (one cell per group).
    #[inline]
    pub(crate) fn group_grid(&self) -> &TileGrid {
        &self.group_grid
    }

    /// Grid of small tiles.
    #[inline]
    pub(crate) fn tile_grid(&self) -> &TileGrid {
        &self.tile_grid
    }

    /// Entries of the group with flattened index `group`.
    #[inline]
    pub(crate) fn group(&self, group: usize) -> &[GroupEntry] {
        self.per_group.bin(group)
    }

    /// Length of every small tile's splat list in the group with flattened
    /// index `group`, in bit order: how many of the group's entries have
    /// that tile's bit set (`tiles_hit` per tile). Sorting permutes entries
    /// within a group, so the tallies identification took stay valid.
    #[inline]
    pub(crate) fn tile_hits(&self, group: usize) -> &[u32] {
        let tiles = self.layout.tiles_per_group() as usize;
        self.tile_hits
            .get(group * tiles..(group + 1) * tiles)
            .unwrap_or_default()
    }

    /// Mutable access to the CSR bins, used by the group-wise sorting
    /// stage.
    #[inline]
    pub(crate) fn bins_mut(&mut self) -> &mut CsrAssignments<GroupEntry> {
        &mut self.per_group
    }

    /// Number of groups.
    #[inline]
    pub(crate) fn group_count(&self) -> usize {
        self.per_group.bin_count()
    }

    /// Iterates over `(group_index, entries)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[GroupEntry])> {
        self.per_group.iter()
    }

    /// Total number of (group, splat) pairs — the number of sort keys the
    /// group-wise sorting stage handles. Compare with the baseline's
    /// per-tile total to quantify the sorting reduction.
    #[cfg(test)]
    pub(crate) fn total_entries(&self) -> u64 {
        self.per_group.total_entries()
    }

    /// Bytes currently reserved by the assignment buffers.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.per_group.footprint_bytes() + self.tile_hits.capacity() * std::mem::size_of::<u32>()
    }

    /// Global small-tile coordinates of bit `bit` in group `(gx, gy)`, or
    /// `None` when the tile would fall outside the image (border groups are
    /// partially empty).
    pub(crate) fn global_tile_of_bit(&self, gx: u32, gy: u32, bit: u32) -> Option<(u32, u32)> {
        let (tx_in, ty_in) = self.layout.tile_of_bit(bit);
        let tx = gx * self.layout.tiles_per_side() + tx_in;
        let ty = gy * self.layout.tiles_per_side() + ty_in;
        if tx < self.tile_grid.tiles_x() && ty < self.tile_grid.tiles_y() {
            Some((tx, ty))
        } else {
            None
        }
    }
}

/// Runs group identification and bitmask generation.
///
/// `out` is rebuilt through `scratch`, retaining both allocations across
/// frames; the staged `(group, entry)` pairs are counting-sorted into the
/// CSR layout, preserving scene order within each group.
///
/// Every pair of boundary methods takes the same walk, the baseline's
/// ([`TileGrid::for_each_row_span`]); the pair picks the two footprint
/// shapes once per call. A splat's candidate tiles under a method are the
/// rectangle its footprint's half extent covers. Its candidate groups are
/// the groups holding its candidate tiles under the group boundary (the
/// tile floors divided, rounding down, by the tiles per group side). In
/// each candidate group the contiguous column ranges a footprint covers in
/// the group's tile rows, ORed together, are that method's in-image mask.
/// A group is staged iff its mask under the group boundary is non-empty,
/// and its entry stores the mask under the bitmask boundary, which may be
/// empty when the two methods differ. When they agree (the paper's
/// Ellipse/Ellipse) one walk gives both masks, and no entry that
/// contributes no pixel costs a sort key.
///
/// Accounting, modeled on the paper's boundary units, not on the CPU's
/// work: `tile_tests` counts the candidate groups, and
/// `tile_intersections` the staged ones (one sort key each).
/// `bitmask_tests` counts the staged groups' in-image candidate tiles under
/// the bitmask boundary, `tiles_tested` equals it, and `tiles_hit` counts
/// the bits set.
pub fn identify_groups_into(
    projected: &[ProjectedGaussian],
    image_width: u32,
    image_height: u32,
    config: &GstgConfig,
    counts: &mut StageCounts,
    scratch: &mut CsrScratch<GroupEntry>,
    out: &mut GroupAssignments,
) {
    out.group_grid = TileGrid::new(image_width, image_height, config.group_size);
    out.tile_grid = TileGrid::new(image_width, image_height, config.tile_size);
    out.layout = GroupLayout::new(config.tile_size, config.tiles_per_group_side());
    out.tile_hits.clear();
    out.tile_hits.resize(
        out.group_grid.tile_count() * out.layout.tiles_per_group() as usize,
        0,
    );
    scratch.clear();

    use BoundaryMethod::{Aabb as A, Ellipse as E, Obb as O};
    let identify = match (config.group_boundary, config.bitmask_boundary) {
        (A, A) => identify_groups_with::<Square, Square>,
        (A, O) => identify_groups_with::<Square, OrientedBox>,
        (A, E) => identify_groups_with::<Square, Ellipse>,
        (O, A) => identify_groups_with::<OrientedBox, Square>,
        (O, O) => identify_groups_with::<OrientedBox, OrientedBox>,
        (O, E) => identify_groups_with::<OrientedBox, Ellipse>,
        (E, A) => identify_groups_with::<Ellipse, Square>,
        (E, O) => identify_groups_with::<Ellipse, OrientedBox>,
        (E, E) => identify_groups_with::<Ellipse, Ellipse>,
    };
    identify(projected, counts, scratch, out);

    scratch.build_into(out.group_grid.tile_count(), &mut out.per_group);
}

/// The per-splat loop of [`identify_groups_into`] under the group shape
/// `G` and the bitmask shape `B`.
fn identify_groups_with<G: Shape, B: Shape>(
    projected: &[ProjectedGaussian],
    counts: &mut StageCounts,
    scratch: &mut CsrScratch<GroupEntry>,
    out: &mut GroupAssignments,
) {
    let (tile_grid, side) = (out.tile_grid, out.layout.tiles_per_side());
    let same = G::METHOD == B::METHOD;
    for (slot, splat) in (0u32..).zip(projected) {
        let Some(group_footprint) = Footprint::<G>::of(splat) else {
            continue;
        };
        // One positive-definiteness rule serves every shape, so the mask
        // footprint exists too; when the methods agree it is the group's.
        let mask_footprint = (!same).then(|| B::footprint(splat));
        let tile_floors = tile_grid.tile_floors(splat.mean, group_footprint.half_extent());
        let group_tiles = tile_grid.clamp_floors(tile_floors);
        let mask_tiles = mask_footprint.as_ref().map_or(group_tiles, |footprint| {
            tile_grid.tile_range(splat.mean, footprint.half_extent())
        });
        let groups = out
            .group_grid
            .clamp_floors(tile_floors.map(|tile| out.layout.group_of_tile(tile)));
        let (gx0, gx1, gy0, gy1) = groups;
        for gy in gy0..gy1 {
            let group_rows = GroupRows::walk(&tile_grid, &group_footprint, group_tiles, gy, side);
            let mask_rows = mask_footprint
                .as_ref()
                .map(|footprint| GroupRows::walk(&tile_grid, footprint, mask_tiles, gy, side));
            for gx in gx0..gx1 {
                let first = gx * side;
                let group_mask = group_rows.mask(first, gy * side, side);
                if group_mask.is_empty() {
                    continue;
                }
                let (bitmask, mask_rows) = match &mask_rows {
                    Some(rows) => (rows.mask(first, gy * side, side), rows),
                    None => (group_mask, &group_rows),
                };
                let group = out.group_grid.tile_index(gx, gy);
                let (ctx0, ctx1, ..) = mask_tiles;
                let candidates = (
                    first.max(ctx0),
                    (first + side).min(ctx1),
                    mask_rows.ty_lo,
                    mask_rows.ty_hi,
                );
                stage_entry(out, group, candidates, slot, bitmask, counts, scratch);
            }
        }
        counts.tile_tests += u64::from(gx1 - gx0) * u64::from(gy1 - gy0);
    }
}

/// One footprint's candidate tile rows `ty_lo..ty_hi` inside one group row
/// (at most eight: a group holds at most 64 tiles) and the columns its span
/// covers in each; a row the footprint misses stays empty.
struct GroupRows {
    ty_lo: u32,
    ty_hi: u32,
    spans: [(u32, u32); 8],
}

impl GroupRows {
    /// Walks `footprint` over the rows of group row `gy` inside its
    /// candidate tiles `(ctx0, ctx1, cty0, cty1)`.
    #[inline]
    fn walk<S: Shape>(
        tile_grid: &TileGrid,
        footprint: &Footprint<S>,
        (ctx0, ctx1, cty0, cty1): (u32, u32, u32, u32),
        gy: u32,
        side: u32,
    ) -> Self {
        let (ty_lo, ty_hi) = ((gy * side).max(cty0), ((gy + 1) * side).min(cty1));
        let mut spans = [(0u32, 0u32); 8];
        tile_grid.for_each_row_span(footprint, (ctx0, ctx1, ty_lo, ty_hi), |ty, tx_lo, tx_hi| {
            if let Some(row) = spans.get_mut((ty - ty_lo) as usize) {
                *row = (tx_lo, tx_hi);
            }
        });
        Self {
            ty_lo,
            ty_hi,
            spans,
        }
    }

    /// The in-image mask of the group whose first tile column is `first`
    /// and first tile row `top`: the OR of the rows' column ranges.
    #[inline]
    fn mask(&self, first: u32, top: u32, side: u32) -> TileBitmask {
        let mut bitmask = TileBitmask::EMPTY;
        let rows = self
            .spans
            .iter()
            .take(self.ty_hi.saturating_sub(self.ty_lo) as usize);
        for (ty_in, &(tx_lo, tx_hi)) in (self.ty_lo - top..).zip(rows) {
            let (lo, hi) = (tx_lo.max(first), tx_hi.min(first + side));
            if lo < hi {
                bitmask.set_run(ty_in * side + lo - first, hi - lo);
            }
        }
        bitmask
    }
}

/// Stages one (group, splat) entry, tallies its bits into the group's
/// per-tile hits and charges its counters: one intersection, the area of
/// the `candidates` tile range in bitmask tests, one hit per bit.
fn stage_entry(
    out: &mut GroupAssignments,
    group: usize,
    (tx_lo, tx_hi, ty_lo, ty_hi): (u32, u32, u32, u32),
    slot: u32,
    bitmask: TileBitmask,
    counts: &mut StageCounts,
    scratch: &mut CsrScratch<GroupEntry>,
) {
    let tiles_per_group = out.layout.tiles_per_group() as usize;
    let hits_range = group * tiles_per_group..(group + 1) * tiles_per_group;
    if let Some(group_hits) = out.tile_hits.get_mut(hits_range) {
        for bit in bitmask.iter_set() {
            if let Some(hits) = group_hits.get_mut(bit as usize) {
                *hits += 1;
            }
        }
    }
    let tested = u64::from(tx_hi.saturating_sub(tx_lo)) * u64::from(ty_hi.saturating_sub(ty_lo));
    counts.bitmask_tests += tested;
    counts.tiles_tested += tested;
    counts.tiles_hit += u64::from(bitmask.count());
    counts.tile_intersections += 1;
    scratch.stage(group as u32, GroupEntry { slot, bitmask });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use splat_render::BoundaryMethod;
    use splat_types::{Mat2, Rgb, Vec2};

    fn projected(mean: Vec2, sigma: f32, index: u32, depth: f32) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
        ProjectedGaussian {
            index,
            depth,
            mean,
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color: Rgb::WHITE,
        }
    }

    fn config(tile: u32, group: u32) -> GstgConfig {
        GstgConfig::new(
            tile,
            group,
            BoundaryMethod::Ellipse,
            BoundaryMethod::Ellipse,
        )
        .unwrap()
    }

    /// Allocating form of [`identify_groups_into`].
    pub(crate) fn identify_groups(
        projected: &[ProjectedGaussian],
        image_width: u32,
        image_height: u32,
        config: &GstgConfig,
        counts: &mut StageCounts,
    ) -> GroupAssignments {
        let mut out = GroupAssignments::empty();
        identify_groups_into(
            projected,
            image_width,
            image_height,
            config,
            counts,
            &mut CsrScratch::new(),
            &mut out,
        );
        out
    }

    /// Group assignments over hand-made per-group lists (one list per group
    /// of the grid, row-major), with the per-tile hits tallied from the
    /// masks the way identification tallies them.
    pub(crate) fn assignments_from_lists(
        image_width: u32,
        image_height: u32,
        config: &GstgConfig,
        lists: &[Vec<GroupEntry>],
    ) -> GroupAssignments {
        let layout = GroupLayout::new(config.tile_size, config.tiles_per_group_side());
        let group_grid = TileGrid::new(image_width, image_height, config.group_size);
        assert_eq!(lists.len(), group_grid.tile_count());
        let mut scratch = CsrScratch::new();
        let mut tile_hits = vec![0; lists.len() * layout.tiles_per_group() as usize];
        for (group, list) in lists.iter().enumerate() {
            for &entry in list {
                scratch.stage(group as u32, entry);
                for bit in entry.bitmask.iter_set() {
                    tile_hits[group * layout.tiles_per_group() as usize + bit as usize] += 1;
                }
            }
        }
        let mut per_group = CsrAssignments::new();
        scratch.build_into(lists.len(), &mut per_group);
        GroupAssignments {
            group_grid,
            tile_grid: TileGrid::new(image_width, image_height, config.tile_size),
            layout,
            per_group,
            tile_hits,
        }
    }

    /// The baseline's tile identification, for comparison.
    fn identify_tiles(
        projected: &[ProjectedGaussian],
        grid: TileGrid,
        boundary: BoundaryMethod,
        counts: &mut StageCounts,
    ) -> splat_render::TileAssignments {
        let mut out = splat_render::TileAssignments::empty();
        splat_render::identify_tiles_into(
            projected,
            grid,
            boundary,
            Default::default(), // the ignored prepass argument
            counts,
            &mut CsrScratch::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn small_splat_lands_in_one_group_with_one_tile_bit() {
        let cfg = config(16, 64);
        let splats = vec![projected(Vec2::new(24.0, 24.0), 1.0, 0, 1.0)];
        let mut counts = StageCounts::new();
        let groups = identify_groups(&splats, 128, 128, &cfg, &mut counts);
        assert_eq!(counts.tile_intersections, 1);
        let entries = groups.group(0);
        assert_eq!(entries.len(), 1);
        // Tile (1,1) of the group → bit index 1*4+1 = 5.
        assert_eq!(entries[0].bitmask.count(), 1);
        assert!(entries[0].bitmask.contains(5));
    }

    #[test]
    fn group_count_is_fewer_than_tile_count() {
        let cfg = config(16, 64);
        let splats = vec![projected(Vec2::new(64.0, 64.0), 12.0, 0, 1.0)];
        let mut group_counts = StageCounts::new();
        let groups = identify_groups(&splats, 256, 256, &cfg, &mut group_counts);

        let mut tile_counts = StageCounts::new();
        let tile_grid = TileGrid::new(256, 256, 16);
        let tiles = identify_tiles(
            &splats,
            tile_grid,
            BoundaryMethod::Ellipse,
            &mut tile_counts,
        );
        // The same splat produces fewer group entries (sort keys) than tile
        // entries — the paper's sorting reduction.
        assert!(groups.total_entries() < tiles.total_entries());
        assert!(groups.total_entries() >= 1);
    }

    #[test]
    fn bitmask_union_matches_baseline_tile_assignment() {
        // The set of (global tile, splat) pairs recovered from the bitmasks
        // must equal the baseline identification at the same tile size and
        // boundary method, for each method on both sides (A+A, O+O, E+E),
        // with four tiles a group side (16+64) and three (16+48).
        // Turned by 45°: 3σ radii 30 × 3 px.
        let diagonal = Mat2::from_symmetric(50.5, 49.5, 50.5);
        let splats = vec![
            projected(Vec2::new(60.0, 60.0), 9.0, 0, 1.0),
            projected(Vec2::new(130.0, 70.0), 4.0, 1, 2.0),
            projected(Vec2::new(10.0, 200.0), 15.0, 2, 3.0),
            ProjectedGaussian {
                cov: diagonal,
                inv_det: 1.0 / diagonal.determinant(),
                ..projected(Vec2::new(170.0, 150.0), 1.0, 3, 4.0)
            },
        ];
        let tile_grid = TileGrid::new(256, 256, 16);
        for method in BoundaryMethod::ALL {
            let mut baseline_counts = StageCounts::new();
            let baseline = identify_tiles(&splats, tile_grid, method, &mut baseline_counts);
            let mut from_baseline: Vec<(usize, u32)> = Vec::new();
            for (tile_idx, list) in baseline.iter() {
                for &slot in list {
                    from_baseline.push((tile_idx, slot));
                }
            }
            from_baseline.sort_unstable();

            for group_size in [64, 48] {
                let cfg = GstgConfig::new(16, group_size, method, method).unwrap();
                let mut counts = StageCounts::new();
                let groups = identify_groups(&splats, 256, 256, &cfg, &mut counts);

                // Collect (tile, slot) pairs from the bitmasks.
                let mut from_groups: Vec<(usize, u32)> = Vec::new();
                for (group_idx, entries) in groups.iter() {
                    let (gx, gy) = groups.group_grid().tile_coords(group_idx);
                    for entry in entries {
                        for bit in entry.bitmask.iter_set() {
                            if let Some((tx, ty)) = groups.global_tile_of_bit(gx, gy, bit) {
                                from_groups.push((tile_grid.tile_index(tx, ty), entry.slot));
                            }
                        }
                    }
                }
                from_groups.sort_unstable();
                assert_eq!(from_groups, from_baseline, "{method} 16+{group_size}");
                assert_eq!(counts.tiles_hit, baseline_counts.tiles_hit);
            }
        }
    }

    /// A group is staged iff its in-image mask under the group boundary is
    /// non-empty; the entry keeps the mask under the bitmask boundary.
    #[test]
    fn groups_are_staged_by_their_group_boundary_mask() {
        let aabb = |bitmask| GstgConfig::new(16, 64, BoundaryMethod::Aabb, bitmask).unwrap();
        let staged = |splat: ProjectedGaussian, width, cfg: &GstgConfig| {
            let mut counts = StageCounts::new();
            let groups = identify_groups(&[splat], width, width, cfg, &mut counts);
            assert_eq!(counts.tile_intersections, groups.total_entries());
            groups
                .iter()
                .flat_map(|(group, entries)| entries.iter().map(move |e| (group, e.bitmask)))
                .collect::<Vec<_>>()
        };

        // 100x100 px: the 16-px tiles end at x = 112, the second 64-px
        // group column at x = 128. The AABB of a splat right of the image
        // (x 115..165) meets that group's rectangle only past the last
        // tile, so A+A stages nothing there.
        let outside = projected(Vec2::new(140.0, 30.0), 25.0 / 3.0, 0, 1.0);
        assert_eq!(staged(outside, 100, &aabb(BoundaryMethod::Aabb)), vec![]);

        // A splat turned by -45° near the corner of four groups, 3σ radii
        // 30 × 3 px: its square (x, y in 28..88) reaches the lower-right
        // group, the ellipse does not. A+E stages that group with an empty
        // mask; E+E does not stage it.
        let cov = Mat2::from_symmetric(50.5, -49.5, 50.5);
        let diagonal = ProjectedGaussian {
            cov,
            inv_det: 1.0 / cov.determinant(),
            ..projected(Vec2::new(58.0, 58.0), 1.0, 0, 1.0)
        };
        let lower_right = TileGrid::new(256, 256, 64).tile_index(1, 1);
        let with_mask = |entries: &[(usize, TileBitmask)]| {
            entries
                .iter()
                .find(|&&(group, _)| group == lower_right)
                .map(|&(_, mask)| mask)
        };
        let a_e = staged(diagonal, 256, &aabb(BoundaryMethod::Ellipse));
        assert_eq!(with_mask(&a_e), Some(TileBitmask::EMPTY));
        let e_e = staged(diagonal, 256, &config(16, 64));
        assert_eq!(with_mask(&e_e), None);
        // Both stage the same ellipse hits everywhere else.
        let hit = |entries: &[(usize, TileBitmask)]| {
            entries
                .iter()
                .filter(|(_, mask)| !mask.is_empty())
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(hit(&a_e), hit(&e_e));
        assert!(!hit(&e_e).is_empty());
    }

    #[test]
    fn tile_hits_count_the_set_bits_of_every_tile() {
        let splats: Vec<ProjectedGaussian> = (0..24)
            .map(|i| {
                projected(
                    Vec2::new(7.0 + 9.5 * i as f32, 11.0 + 6.5 * i as f32),
                    2.0 + (i % 5) as f32 * 3.0,
                    i,
                    1.0 + i as f32,
                )
            })
            .collect();
        let aabb = GstgConfig::new(16, 64, BoundaryMethod::Aabb, BoundaryMethod::Aabb).unwrap();
        for cfg in [config(16, 64), config(16, 48), aabb] {
            let mut counts = StageCounts::new();
            // 200x150: the last group column and row are partly outside.
            let groups = identify_groups(&splats, 200, 150, &cfg, &mut counts);
            let mut total = 0u64;
            for (group, entries) in groups.iter() {
                let hits = groups.tile_hits(group);
                assert_eq!(hits.len(), cfg.tiles_per_group() as usize);
                for (bit, &hit) in (0u32..).zip(hits) {
                    let set = entries.iter().filter(|e| e.bitmask.contains(bit)).count();
                    assert_eq!(hit as usize, set, "group {group} bit {bit}");
                    total += u64::from(hit);
                }
            }
            assert_eq!(total, counts.tiles_hit);
            assert!(total > 0);
        }
    }

    #[test]
    fn border_groups_skip_out_of_image_tiles() {
        // 100x100 image with 64-pixel groups: the second group column/row is
        // mostly outside; bitmask tests must only cover in-image tiles.
        let cfg = config(16, 64);
        let splats = vec![projected(Vec2::new(90.0, 90.0), 10.0, 0, 1.0)];
        let mut counts = StageCounts::new();
        let groups = identify_groups(&splats, 100, 100, &cfg, &mut counts);
        assert!(groups.total_entries() >= 1);
        // global_tile_of_bit returns None for out-of-image tiles.
        let last_group = groups.group_count() - 1;
        let (gx, gy) = groups.group_grid().tile_coords(last_group);
        let mut any_none = false;
        for bit in 0..16 {
            if groups.global_tile_of_bit(gx, gy, bit).is_none() {
                any_none = true;
            }
        }
        assert!(any_none, "border group should have out-of-image tiles");
    }

    #[test]
    fn bitmask_tests_are_limited_to_the_candidate_range() {
        let cfg = config(16, 64);
        let splats = vec![projected(Vec2::new(32.0, 32.0), 2.0, 0, 1.0)];
        let mut counts = StageCounts::new();
        let _ = identify_groups(&splats, 256, 256, &cfg, &mut counts);
        // One group hit; the small splat's candidate range covers at most a
        // 2x2 block of the group's 16 tiles, so far fewer than 16 tests run.
        assert_eq!(counts.tile_intersections, 1);
        assert!(
            counts.bitmask_tests >= 1 && counts.bitmask_tests <= 4,
            "expected a pre-filtered test count, got {}",
            counts.bitmask_tests
        );
    }

    #[test]
    fn in_place_identification_matches_fresh_and_reuses_capacity() {
        let cfg = config(16, 64);
        let splats: Vec<ProjectedGaussian> = (0..8)
            .map(|i| {
                projected(
                    Vec2::new(30.0 + 25.0 * i as f32, 90.0),
                    7.0,
                    i,
                    1.0 + i as f32,
                )
            })
            .collect();
        let mut fresh_counts = StageCounts::new();
        let fresh = identify_groups(&splats, 256, 256, &cfg, &mut fresh_counts);

        let mut scratch = splat_core::CsrScratch::new();
        let mut reused = GroupAssignments::empty();
        for _ in 0..3 {
            let mut counts = StageCounts::new();
            identify_groups_into(
                &splats,
                256,
                256,
                &cfg,
                &mut counts,
                &mut scratch,
                &mut reused,
            );
            assert_eq!(reused, fresh);
            assert_eq!(counts, fresh_counts);
        }
        let footprint = reused.footprint_bytes() + scratch.footprint_bytes();
        let mut counts = StageCounts::new();
        identify_groups_into(
            &splats,
            256,
            256,
            &cfg,
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

    #[test]
    fn groups_per_gaussian_tracks_multi_group_splats() {
        let cfg = config(16, 64);
        // Large splat at a group corner touches four groups.
        let splats = vec![projected(Vec2::new(64.0, 64.0), 10.0, 0, 1.0)];
        let mut counts = StageCounts::new();
        let groups = identify_groups(&splats, 256, 256, &cfg, &mut counts);
        let groups_holding_it = groups
            .iter()
            .filter(|(_, list)| list.iter().any(|entry| entry.slot == 0))
            .count();
        assert_eq!(groups_holding_it, 4);
    }
}
