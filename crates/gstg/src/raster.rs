//! Bitmask-filtered tile-wise rasterization.
//!
//! Rasterization runs at the small tile size: for every tile of a group the
//! group-sorted splat list is filtered with the tile's bit of each entry's
//! bitmask (the AND/OR "valid" computation of the hardware rasterization
//! module) and the surviving splats — already in depth order — are blended
//! by the same shared driver the baseline uses ([`splat_core::shade_tiles`]).
//! The filter is GS-TG's [`TileLists`] implementation: groups are the
//! scheduling units, so the parallel fan-out merges in group order and is
//! bit-exact with the sequential walk.

use crate::bitmask::TileBitmask;
use crate::group::{GroupAssignments, GroupEntry};
use splat_core::{
    shade_tiles, ExecutionConfig, Framebuffer, ProjectedGaussian, SimdMode, SpanMode, SpanScratch,
    StageCounts, TileLists, TileRect,
};
use splat_types::Rgb;

/// Filters a group-sorted entry list down to the splats that touch the tile
/// at bitmask position `bit`, preserving order. Each entry costs one
/// bitmask filter operation (the hardware performs them 8 per cycle). `out`
/// is cleared and refilled, retaining its allocation across tiles.
pub fn filter_tile_list_into(
    entries: &[GroupEntry],
    bit: u32,
    counts: &mut StageCounts,
    out: &mut Vec<u32>,
) {
    let location = TileBitmask::one_hot(bit);
    counts.bitmask_filter_ops += entries.len() as u64;
    out.clear();
    out.extend(
        entries
            .iter()
            .filter(|e| e.bitmask.filter(location))
            .map(|e| e.slot),
    );
}

/// GS-TG's per-tile list provider: every group is one unit, and each of its
/// in-image tiles gets the group's sorted list filtered by the tile's bit.
impl TileLists for GroupAssignments {
    fn unit_count(&self) -> usize {
        self.group_count()
    }

    fn for_each_tile<F>(
        &self,
        unit: usize,
        counts: &mut StageCounts,
        tile_list: &mut Vec<u32>,
        mut shade: F,
    ) where
        F: FnMut(&TileRect, &[u32], &mut StageCounts),
    {
        let entries = self.group(unit);
        let (gx, gy) = self.group_grid().tile_coords(unit);
        for bit in 0..self.layout().tiles_per_group() {
            let Some((tx, ty)) = self.global_tile_of_bit(gx, gy, bit) else {
                continue;
            };
            filter_tile_list_into(entries, bit, counts, tile_list);
            shade(&self.tile_grid().tile_rect(tx, ty), tile_list, counts);
        }
    }
}

/// Rasterizes every tile of every group into a recycled framebuffer, which
/// is reset to the image dimensions first — the raster stage of the frame
/// loop as a standalone call ([`shade_tiles`] over the bitmask-filtered
/// lists). `tile_list` is the reused per-tile filter output; `scratch`
/// carries the span walker's recycled buffers and accumulates its
/// interval-build time (drain it with [`SpanScratch::take_build_time`]).
/// Every thread count, [`SimdMode`] and [`SpanMode`] produces bit-identical
/// pixels.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_groups_into_with(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
    simd: SimdMode,
    span: SpanMode,
    image: &mut Framebuffer,
    tile_list: &mut Vec<u32>,
    scratch: &mut SpanScratch,
) -> StageCounts {
    image.reset(image_width, image_height, background);
    let exec = ExecutionConfig::builder()
        .threads(threads)
        .simd(simd)
        .span(span)
        .build();
    shade_tiles(
        assignments,
        projected,
        background,
        &exec,
        image,
        tile_list,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GstgConfig;
    use crate::group::tests::identify_groups;
    use crate::sort::tests::sort_groups;
    use splat_render::BoundaryMethod;
    use splat_types::{Mat2, Vec2};

    /// Allocating form of [`filter_tile_list_into`].
    fn filter_tile_list(entries: &[GroupEntry], bit: u32, counts: &mut StageCounts) -> Vec<u32> {
        let mut out = Vec::new();
        filter_tile_list_into(entries, bit, counts, &mut out);
        out
    }

    /// Allocating, scalar full-walk form of [`rasterize_groups_into_with`].
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
            SimdMode::Scalar,
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
            inv_cov: cov.inverse().unwrap(),
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
