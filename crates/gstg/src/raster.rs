//! Bitmask-filtered tile-wise rasterization.
//!
//! Rasterization runs at the small tile size: every tile of a group shades
//! the splats of the group-sorted list whose bitmask has the tile's bit set
//! — already in depth order — through the same shared driver and kernel the
//! baseline uses ([`splat_core::shade_tiles`]). As in the hardware
//! rasterization module, a tile's list is not built anywhere: each tile
//! reads the whole group list and the kernel keeps an entry only when the
//! AND/OR filter of its mask with the tile's bit passes
//! ([`SortEntry::in_tile`](splat_core::SortEntry::in_tile)), once per
//! entry per pixel block until the block saturates. Groups are the
//! scheduling units, so the parallel fan-out merges in group order and is
//! bit-exact with the sequential walk.

use crate::group::{GroupAssignments, GroupEntry};
use splat_core::{
    shade_tiles, ExecutionConfig, Framebuffer, ProjectedGaussian, SimdMode, SpanMode, SpanScratch,
    StageCounts, TileLists, TileRect,
};
use splat_types::Rgb;

/// GS-TG's per-tile list provider: every group is one unit, and each of
/// its in-image tiles reads the group's sorted list with its own bit.
///
/// `bitmask_filter_ops` is the hardware model's filter count — every
/// in-image tile filters the whole group list, which is what the RM does
/// and what `splat-accel` turns into cycles. The kernel runs the same test
/// per entry, and stops early once a pixel block has saturated.
impl TileLists for GroupAssignments {
    type Entry = GroupEntry;

    fn unit_count(&self) -> usize {
        self.group_count()
    }

    fn for_each_tile<F>(&self, unit: usize, counts: &mut StageCounts, mut shade: F)
    where
        F: FnMut(&TileRect, &[GroupEntry], u32, &mut StageCounts),
    {
        let entries = self.group(unit);
        let (gx, gy) = self.group_grid().tile_coords(unit);
        for bit in 0..self.tiles_per_group() {
            let Some((tx, ty)) = self.global_tile_of_bit(gx, gy, bit) else {
                continue;
            };
            counts.bitmask_filter_ops += entries.len() as u64;
            shade(&self.tile_grid().tile_rect(tx, ty), entries, bit, counts);
        }
    }
}

/// Rasterizes every tile of every group into a recycled framebuffer, which
/// is reset to the image dimensions first — the raster stage of the frame
/// loop as a standalone call ([`shade_tiles`] over the group lists). Every
/// thread count produces bit-identical pixels.
///
/// `_simd`, `_span`, `_tile_list` and `_scratch` are ignored: there is one
/// tile kernel, and it reads the group lists in place. They are still
/// parameters only because `benchmark/src/layers.rs` passes them, and go
/// with the [`SimdMode`] and [`SpanMode`] shells in ROADMAP item 2a.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_groups_into_with(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
    _simd: SimdMode,
    _span: SpanMode,
    image: &mut Framebuffer,
    _tile_list: &mut Vec<u32>,
    _scratch: &mut SpanScratch,
) -> StageCounts {
    image.reset(image_width, image_height, background);
    let exec = ExecutionConfig::parallel(threads);
    shade_tiles(assignments, projected, background, &exec, image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmask::TileBitmask;
    use crate::config::GstgConfig;
    use crate::group::tests::{assignments_from_lists, identify_groups};
    use crate::group::GroupEntry;
    use crate::sort::tests::sort_groups;
    use splat_render::BoundaryMethod;
    use splat_types::{Mat2, Vec2};

    /// The hardware filter, kept as the oracle the masked walk is tested
    /// against: the slots of a group-sorted entry list whose bitmask passes
    /// the AND/OR filter for the tile at position `bit`, order preserved.
    /// Each entry costs one bitmask filter operation.
    fn filter_tile_list(entries: &[GroupEntry], bit: u32, counts: &mut StageCounts) -> Vec<u32> {
        let location = TileBitmask::one_hot(bit);
        counts.bitmask_filter_ops += entries.len() as u64;
        entries
            .iter()
            .filter(|e| e.bitmask.filter(location))
            .map(|e| e.slot)
            .collect()
    }

    /// Allocating, full-walk form of [`rasterize_groups_into_with`].
    fn rasterize_groups(
        projected: &[ProjectedGaussian],
        assignments: &GroupAssignments,
        image_width: u32,
        image_height: u32,
        background: Rgb,
        threads: usize,
    ) -> (Framebuffer, StageCounts) {
        let mut image = Framebuffer::new(0, 0, background);
        let counts = rasterize_groups_into_with(
            projected,
            assignments,
            image_width,
            image_height,
            background,
            threads,
            SimdMode::Wide8,
            SpanMode::Full,
            &mut image,
            &mut Vec::new(),
            &mut SpanScratch::new(),
        );
        (image, counts)
    }

    fn projected(mean: Vec2, sigma: f32, index: u32, depth: f32, color: Rgb) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
        ProjectedGaussian {
            index,
            depth,
            mean,
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color,
        }
    }

    fn entry(slot: u32, bits: u64) -> GroupEntry {
        GroupEntry {
            slot,
            bitmask: TileBitmask::from_bits(bits),
        }
    }

    #[test]
    fn filter_preserves_order_and_counts_ops() {
        let entries = vec![entry(3, 0b0010), entry(1, 0b0001), entry(7, 0b0011)];
        let mut counts = StageCounts::new();
        let bit0 = filter_tile_list(&entries, 0, &mut counts);
        let bit1 = filter_tile_list(&entries, 1, &mut counts);
        assert_eq!(bit0, vec![1, 7]);
        assert_eq!(bit1, vec![3, 7]);
        assert_eq!(counts.bitmask_filter_ops, 6);
    }

    /// The oracle's lists as a provider: every tile is its own unit and
    /// shades its filtered slot list as it stands.
    struct FilteredLists(Vec<(TileRect, Vec<u32>)>);

    impl TileLists for FilteredLists {
        type Entry = u32;

        fn unit_count(&self) -> usize {
            self.0.len()
        }

        fn for_each_tile<F>(&self, unit: usize, counts: &mut StageCounts, mut shade: F)
        where
            F: FnMut(&TileRect, &[u32], u32, &mut StageCounts),
        {
            if let Some((rect, list)) = self.0.get(unit) {
                shade(rect, list, 0, counts);
            }
        }
    }

    #[test]
    fn masked_walk_equals_shading_the_per_bit_filter() {
        // Random sorted group lists over 2×2, 4×4 and 8×8 groups, on images
        // whose last group column and row hang over the border, over splats
        // opaque enough to saturate pixels: shading every group list in
        // place with each tile's bit must give the pixels and every counter
        // of shading the hardware filter's list for that bit, tiles must
        // come in bit order, and the filter ops charged must be what
        // filtering every in-image tile costs.
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x5CA7_7E12);
        let background = Rgb::new(0.1, 0.2, 0.3);
        for (tile, group) in [(16u32, 32u32), (16, 64), (8, 64)] {
            let cfg =
                GstgConfig::new(tile, group, BoundaryMethod::Aabb, BoundaryMethod::Aabb).unwrap();
            let tiles_per_group = cfg.tiles_per_group();
            let full = u64::MAX >> (64 - tiles_per_group);
            for (width, height) in [(2 * group, group), (2 * group - tile - 3, group + 5)] {
                // The first eight splats are wide and nearly opaque, so
                // pixels that several of them reach exit early.
                let splats: Vec<ProjectedGaussian> = (0..40)
                    .map(|i| {
                        let mean = Vec2::new(
                            rng.range_f32(0.0, width as f32),
                            rng.range_f32(0.0, height as f32),
                        );
                        let color = Rgb::new(rng.gen_f32(), rng.gen_f32(), rng.gen_f32());
                        let (sigma, opacity) = if i < 8 {
                            (40.0, 0.99)
                        } else {
                            (rng.range_f32(1.0, 12.0), rng.range_f32(0.3, 1.0))
                        };
                        let mut splat = projected(mean, sigma, i, i as f32, color);
                        splat.opacity = opacity;
                        splat
                    })
                    .collect();
                let group_count = (width.div_ceil(group) * height.div_ceil(group)) as usize;
                let lists: Vec<Vec<GroupEntry>> = (0..group_count)
                    .map(|_| {
                        (0..rng.gen_index(40) as u32)
                            .map(|slot| {
                                let bits = match rng.gen_index(8) {
                                    0 => 0,
                                    1 => full,
                                    // Sparse and dense masks.
                                    2..=4 => rng.next_u64() & rng.next_u64() & full,
                                    _ => rng.next_u64() & full,
                                };
                                entry(slot, bits)
                            })
                            .collect()
                    })
                    .collect();
                let groups = assignments_from_lists(width, height, &cfg, &lists);

                let mut expected_counts = StageCounts::new();
                let mut filtered = Vec::new();
                for (unit, entries) in lists.iter().enumerate() {
                    let (gx, gy) = groups.group_grid().tile_coords(unit);
                    for bit in 0..tiles_per_group {
                        if let Some((tx, ty)) = groups.global_tile_of_bit(gx, gy, bit) {
                            let list = filter_tile_list(entries, bit, &mut expected_counts);
                            filtered.push((groups.tile_grid().tile_rect(tx, ty), list));
                        }
                    }
                }
                assert_eq!(filtered.len(), groups.tile_grid().tile_count());
                let mut rects = Vec::new();
                for unit in 0..groups.unit_count() {
                    groups.for_each_tile(unit, &mut StageCounts::new(), |rect, _, _, _| {
                        rects.push(*rect);
                    });
                }
                let expected_rects: Vec<TileRect> = filtered.iter().map(|(r, _)| *r).collect();
                assert_eq!(rects, expected_rects, "{tile}+{group} {width}x{height}");

                let mut expected = Framebuffer::new(width, height, background);
                let exec = ExecutionConfig::parallel(1);
                expected_counts += shade_tiles(
                    &FilteredLists(filtered),
                    &splats,
                    background,
                    &exec,
                    &mut expected,
                );
                assert!(expected_counts.early_exits > 0);
                for threads in [1, 4] {
                    let mut image = Framebuffer::new(width, height, background);
                    let exec = ExecutionConfig::parallel(threads);
                    let counts = shade_tiles(&groups, &splats, background, &exec, &mut image);
                    let label = format!("{tile}+{group} {width}x{height} x{threads}");
                    assert_eq!(image, expected, "{label}");
                    assert_eq!(counts, expected_counts, "{label}");
                }
            }
        }
    }

    #[test]
    fn rasterized_groups_match_dimensions() {
        let splats = vec![projected(Vec2::new(40.0, 40.0), 5.0, 0, 1.0, Rgb::WHITE)];
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 100, 80, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (image, raster_counts) = rasterize_groups(&splats, &groups, 100, 80, Rgb::BLACK, 1);
        assert_eq!((image.width(), image.height()), (100, 80));
        assert_eq!(raster_counts.pixels, 100 * 80);
        assert!(image.mean_luminance() > 0.0);
    }

    #[test]
    fn parallel_and_sequential_group_rasterization_agree() {
        let splats: Vec<ProjectedGaussian> = (0..12)
            .map(|i| {
                projected(
                    Vec2::new(20.0 + 18.0 * (i % 4) as f32, 20.0 + 18.0 * (i / 4) as f32),
                    6.0,
                    i,
                    1.0 + i as f32,
                    Rgb::new(0.1 * i as f32, 0.5, 1.0 - 0.05 * i as f32),
                )
            })
            .collect();
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 128, 128, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (seq, seq_counts) = rasterize_groups(&splats, &groups, 128, 128, Rgb::BLACK, 1);
        let (par, par_counts) = rasterize_groups(&splats, &groups, 128, 128, Rgb::BLACK, 4);
        assert_eq!(seq.max_abs_diff(&par), 0.0);
        assert_eq!(seq_counts, par_counts);
    }

    #[test]
    fn bitmask_filtering_skips_unrelated_tiles() {
        // A splat confined to one tile must not cost α-computations in the
        // other 15 tiles of its group.
        let splats = vec![projected(Vec2::new(8.0, 8.0), 1.5, 0, 1.0, Rgb::WHITE)];
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 64, 64, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (_, raster_counts) = rasterize_groups(&splats, &groups, 64, 64, Rgb::BLACK, 1);
        // α-computations only in the single 16×16 tile the splat touches.
        assert_eq!(raster_counts.alpha_computations, 256);
    }
}
