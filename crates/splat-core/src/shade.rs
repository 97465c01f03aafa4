//! The shared tile-shading driver.
//!
//! Both pipelines rasterize the same way: walk independent units of work
//! (tiles for the baseline, tile groups for GS-TG) and blend every tile's
//! depth-sorted entries into the framebuffer through the one kernel. They
//! differ only in which entries a tile reads: the baseline hands a tile
//! its own CSR bin, GS-TG hands every tile of a group the group's sorted
//! list with the tile's bitmask position, and the kernel skips the entries
//! whose bit is clear ([`SortEntry::in_tile`]). [`TileLists`] abstracts
//! that. The sequential/parallel dispatch lives here once; [`shade_tiles`]
//! is generic, so each pipeline still compiles down to its own
//! straight-line loop.

use crate::blend::rasterize_tile_into_with;
use crate::exec::ExecutionConfig;
use crate::image::Framebuffer;
use crate::keysort::SortEntry;
use crate::rect::TileRect;
use crate::schedule::TileScheduler;
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::Rgb;

/// A provider of per-tile sorted entry lists, partitioned into
/// independently schedulable units whose tiles cover disjoint framebuffer
/// regions.
pub trait TileLists: Sync {
    /// One list entry: a projected-splat slot, or a slot with the tile
    /// bitmask that says which of a bin's tiles list it.
    type Entry: SortEntry;

    /// Number of units (tiles for the baseline, groups for GS-TG).
    fn unit_count(&self) -> usize;

    /// Calls `shade(rect, entries, bit, counts)` once for every tile of
    /// `unit` that lies inside the image, with the tile's clipped pixel
    /// rectangle, the front-to-back sorted entries of its bin and its
    /// position `bit` in the bin: the tile shades the entries whose
    /// [`SortEntry::in_tile`] holds for `bit`. Work charged to the list
    /// (GS-TG's bitmask filter operations) goes to `counts`.
    fn for_each_tile<F>(&self, unit: usize, counts: &mut StageCounts, shade: F)
    where
        F: FnMut(&TileRect, &[Self::Entry], u32, &mut StageCounts);
}

/// Shades every tile `lists` provides into `image` (already reset to the
/// frame's dimensions and background) and returns the work performed.
///
/// Every tile goes through the one in-place kernel,
/// `rasterize_tile_into_with`. With one worker thread every tile is
/// shaded directly into `image` — no per-tile buffers, the
/// allocation-free session path. With more threads the units fan out
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
) -> StageCounts {
    // Shades one tile into `target`, whose pixel (0, 0) sits at `origin`.
    let shade = |rect: &TileRect,
                 entries: &[L::Entry],
                 bit: u32,
                 target: &mut Framebuffer,
                 origin: (u32, u32),
                 counts: &mut StageCounts| {
        rasterize_tile_into_with(
            entries, bit, projected, rect, background, target, origin, counts,
        )
    };
    let mut counts = StageCounts::new();

    if exec.threads <= 1 {
        for unit in 0..lists.unit_count() {
            lists.for_each_tile(unit, &mut counts, |rect, entries, bit, counts| {
                shade(rect, entries, bit, image, (0, 0), counts)
            });
        }
        return counts;
    }

    let units = TileScheduler::from_exec(exec).run(lists.unit_count(), |unit| {
        let mut unit_counts = StageCounts::new();
        let mut tiles = Vec::new();
        lists.for_each_tile(unit, &mut unit_counts, |rect, entries, bit, counts| {
            let origin = (rect.x0 as u32, rect.y0 as u32);
            let mut tile = Framebuffer::black(
                (rect.x1 as u32).saturating_sub(origin.0),
                (rect.y1 as u32).saturating_sub(origin.1),
            );
            shade(rect, entries, bit, &mut tile, origin, counts);
            tiles.push((origin, tile));
        });
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
    /// and charging one filter op per splat for reading the list.
    struct TwoTiles(Vec<u32>);

    impl TileLists for TwoTiles {
        type Entry = u32;

        fn unit_count(&self) -> usize {
            2
        }

        fn for_each_tile<F>(&self, unit: usize, counts: &mut StageCounts, mut shade: F)
        where
            F: FnMut(&TileRect, &[u32], u32, &mut StageCounts),
        {
            let x0 = 8.0 * unit as f32;
            counts.bitmask_filter_ops += self.0.len() as u64;
            shade(&TileRect::new(x0, 0.0, x0 + 8.0, 8.0), &self.0, 0, counts);
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
        // Work the provider charged for reading lists reaches the total.
        assert_eq!(reference_counts.bitmask_filter_ops, 4);
        for threads in [1, 4] {
            let (full, full_counts) = shade(threads);
            assert_eq!(full.max_abs_diff(&reference), 0.0, "x{threads}");
            assert_eq!(full_counts, reference_counts, "x{threads}");
        }
    }
}
