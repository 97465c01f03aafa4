//! The shared tile-shading driver.
//!
//! Both pipelines rasterize the same way: walk independent units of work
//! (tiles for the baseline, tile groups for GS-TG) and blend every tile's
//! depth-sorted slot list into the framebuffer through the shared kernels.
//! They differ only in how a tile's sorted list is *obtained* — read
//! straight out of the per-tile CSR bin, or filtered out of the group's
//! sorted list with the tile's bitmask bit — which is all [`TileLists`]
//! abstracts. The sequential/parallel dispatch lives here once;
//! [`shade_tiles`] is generic, so each pipeline still compiles down to its
//! own straight-line loop.

use crate::blend::rasterize_tile_into_with;
use crate::exec::ExecutionConfig;
use crate::image::Framebuffer;
use crate::rect::TileRect;
use crate::schedule::TileScheduler;
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::Rgb;

/// A provider of per-tile sorted splat lists, partitioned into
/// independently schedulable units whose tiles cover disjoint framebuffer
/// regions.
pub trait TileLists: Sync {
    /// Number of units (tiles for the baseline, groups for GS-TG).
    fn unit_count(&self) -> usize;

    /// Calls `shade(rect, sorted, counts)` once for every tile of `unit`
    /// that lies inside the image, with the tile's clipped pixel rectangle
    /// and its front-to-back sorted slot list. `tile_list` is scratch the
    /// provider may build the list in; work spent producing a list (GS-TG's
    /// bitmask filter operations) is charged to `counts`.
    fn for_each_tile<F>(
        &self,
        unit: usize,
        counts: &mut StageCounts,
        tile_list: &mut Vec<u32>,
        shade: F,
    ) where
        F: FnMut(&TileRect, &[u32], &mut StageCounts);
}

/// Shades every tile `lists` provides into `image` (already reset to the
/// frame's dimensions and background) and returns the work performed.
///
/// Every tile goes through the one in-place kernel,
/// `rasterize_tile_into_with`. With one worker thread every tile is
/// shaded directly into `image` through `tile_list` — no per-tile buffers,
/// the allocation-free session path. With more threads the units fan out
/// through the shared `TileScheduler`; each tile is shaded into a
/// tile-sized [`Framebuffer`] at its origin and the tiles are placed in
/// unit order. Both paths perform identical per-pixel operations, so pixels
/// and [`StageCounts`] are bit-identical for any thread count.
pub fn shade_tiles<L: TileLists>(
    lists: &L,
    projected: &[ProjectedGaussian],
    background: Rgb,
    exec: &ExecutionConfig,
    image: &mut Framebuffer,
    tile_list: &mut Vec<u32>,
) -> StageCounts {
    // Shades one tile into `target`, whose pixel (0, 0) sits at `origin`.
    let shade = |rect: &TileRect,
                 sorted: &[u32],
                 target: &mut Framebuffer,
                 origin: (u32, u32),
                 counts: &mut StageCounts| {
        rasterize_tile_into_with(sorted, projected, rect, background, target, origin, counts)
    };
    let mut counts = StageCounts::new();

    if exec.threads <= 1 {
        for unit in 0..lists.unit_count() {
            lists.for_each_tile(unit, &mut counts, tile_list, |rect, sorted, counts| {
                shade(rect, sorted, image, (0, 0), counts)
            });
        }
        return counts;
    }

    let units = TileScheduler::from_exec(exec).run(lists.unit_count(), |unit| {
        let mut unit_counts = StageCounts::new();
        let mut unit_list = Vec::new();
        let mut tiles = Vec::new();
        lists.for_each_tile(
            unit,
            &mut unit_counts,
            &mut unit_list,
            |rect, sorted, counts| {
                let origin = (rect.x0 as u32, rect.y0 as u32);
                let mut tile = Framebuffer::black(
                    (rect.x1 as u32).saturating_sub(origin.0),
                    (rect.y1 as u32).saturating_sub(origin.1),
                );
                shade(rect, sorted, &mut tile, origin, counts);
                tiles.push((origin, tile));
            },
        );
        (tiles, unit_counts)
    });

    for (tiles, unit_counts) in units {
        counts += unit_counts;
        for ((x0, y0), tile) in tiles {
            image.write_region(x0, y0, tile.width(), tile.pixels());
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::render_reference;
    use splat_types::{Mat2, Vec2};

    /// Two side-by-side 8×8 tiles, one unit each, both shading every splat
    /// and charging one filter op per splat for producing the list.
    struct TwoTiles(Vec<u32>);

    impl TileLists for TwoTiles {
        fn unit_count(&self) -> usize {
            2
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
            let x0 = 8.0 * unit as f32;
            counts.bitmask_filter_ops += self.0.len() as u64;
            tile_list.clear();
            tile_list.extend_from_slice(&self.0);
            shade(&TileRect::new(x0, 0.0, x0 + 8.0, 8.0), tile_list, counts);
        }
    }

    fn splat(index: u32, x: f32, color: Rgb) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(9.0, 0.0, 9.0);
        ProjectedGaussian {
            index,
            depth: 1.0 + index as f32,
            mean: Vec2::new(x, 4.0),
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.8,
            color,
        }
    }

    fn projected() -> Vec<ProjectedGaussian> {
        vec![
            splat(0, 5.0, Rgb::new(1.0, 0.2, 0.1)),
            splat(1, 10.0, Rgb::new(0.1, 0.3, 1.0)),
        ]
    }

    fn shade(threads: usize) -> (Framebuffer, StageCounts) {
        let exec = ExecutionConfig::parallel(threads);
        let mut image = Framebuffer::new(16, 8, Rgb::BLACK);
        let counts = shade_tiles(
            &TwoTiles(vec![0, 1]),
            &projected(),
            Rgb::BLACK,
            &exec,
            &mut image,
            &mut Vec::new(),
        );
        (image, counts)
    }

    #[test]
    fn every_dispatch_arm_shades_the_same_pixels() {
        let (reference, reference_counts) = shade(1);
        assert!(reference.mean_luminance() > 0.0);
        assert_eq!(reference_counts.pixels, 16 * 8);
        // Every tile lists every splat, so the tiles blend what the
        // untiled reference blends.
        let (untiled, untiled_counts) = render_reference(&projected(), 16, 8, Rgb::BLACK);
        assert_eq!(reference, untiled);
        assert_eq!(
            reference_counts.blend_operations,
            untiled_counts.blend_operations
        );
        // Work the provider charged for building lists reaches the total.
        assert_eq!(reference_counts.bitmask_filter_ops, 4);
        for threads in [1, 4] {
            let (full, full_counts) = shade(threads);
            assert_eq!(full.max_abs_diff(&reference), 0.0, "x{threads}");
            assert_eq!(full_counts, reference_counts, "x{threads}");
        }
    }
}
