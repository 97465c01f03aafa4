//! Tile-wise depth sorting.
//!
//! Every tile's splat list is sorted front-to-back by depth. The paper's
//! central observation is that this work is *duplicated* across tiles:
//! a splat covering `k` tiles is sorted `k` times. Sorting itself is the
//! shared stable radix sort on the 32-bit depth key
//! ([`splat_core::sort_bins_by_depth`], the same call GS-TG makes over its
//! per-group bins). Tile identification stages every tile's list in
//! ascending scene index (the sort's precondition), so the order is depth
//! ascending, ties by scene index, and the lossless-equivalence guarantees
//! hold. `StageCounts` records both the measured key-sort work
//! (`sort_keys`, `radix_passes`) and the modeled comparison count the
//! paper's redundancy figures are expressed in.

use crate::tiling::TileAssignments;
use splat_core::{sort_bins_by_depth, KeySortScratch, ProjectedGaussian, StageCounts};

/// Sorts every tile's splat list in place through a reusable key-sort
/// scratch, accumulating the modeled comparison count and the measured
/// key-sort counters into `counts`.
pub fn sort_tiles_with(
    assignments: &mut TileAssignments,
    projected: &[ProjectedGaussian],
    counts: &mut StageCounts,
    scratch: &mut KeySortScratch<u32>,
) {
    sort_bins_by_depth(assignments.bins_mut(), projected, counts, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundaryMethod;
    use crate::tiling::tests::identify_tiles;
    use crate::tiling::TileGrid;
    use splat_core::{CsrAssignments, CsrScratch};
    use splat_types::{Mat2, Rgb, Vec2};

    /// Sorts one list as a single-bin assignment, returning the modeled
    /// comparison count.
    fn sort_by_depth(list: &mut [u32], projected: &[ProjectedGaussian]) -> u64 {
        let mut staging = CsrScratch::new();
        for &slot in list.iter() {
            staging.stage(0, slot);
        }
        let mut bins = CsrAssignments::new();
        staging.build_into(1, &mut bins);
        let mut counts = StageCounts::new();
        sort_bins_by_depth(
            &mut bins,
            projected,
            &mut counts,
            &mut KeySortScratch::new(),
        );
        list.copy_from_slice(bins.bin(0));
        counts.sort_comparisons
    }

    fn sort_tiles(
        assignments: &mut TileAssignments,
        projected: &[ProjectedGaussian],
        counts: &mut StageCounts,
    ) {
        sort_tiles_with(assignments, projected, counts, &mut KeySortScratch::new());
    }

    fn is_sorted_by_depth(list: &[u32], projected: &[ProjectedGaussian]) -> bool {
        splat_core::is_sorted_by_depth(list, projected)
    }

    fn projected_at(index: u32, depth: f32) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(4.0, 0.0, 4.0);
        ProjectedGaussian {
            index,
            depth,
            mean: Vec2::new(32.0, 32.0),
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color: Rgb::WHITE,
        }
    }

    #[test]
    fn sorts_front_to_back() {
        let projected = vec![
            projected_at(0, 5.0),
            projected_at(1, 1.0),
            projected_at(2, 3.0),
        ];
        let mut list = vec![0u32, 1, 2];
        let comparisons = sort_by_depth(&mut list, &projected);
        assert_eq!(list, vec![1, 2, 0]);
        assert!(comparisons >= 2);
        assert!(is_sorted_by_depth(&list, &projected));
    }

    #[test]
    fn equal_depths_break_ties_by_index() {
        // Slots in scene order, as preprocessing emits them, staged in
        // slot order, as tile identification stages them. The deeper
        // splat in slot 0 moves behind the three equal depths.
        let projected = vec![
            projected_at(1, 4.0),
            projected_at(3, 2.0),
            projected_at(5, 2.0),
            projected_at(7, 2.0),
        ];
        let mut list = vec![0u32, 1, 2, 3];
        sort_by_depth(&mut list, &projected);
        // The equal depths keep ascending indices: 3 (slot 1), 5 (slot 2),
        // 7 (slot 3), then the deeper index 1 (slot 0).
        assert_eq!(list, vec![1, 2, 3, 0]);
    }

    #[test]
    fn empty_and_single_lists_cost_nothing() {
        let projected = vec![projected_at(0, 1.0)];
        let mut empty: Vec<u32> = vec![];
        assert_eq!(sort_by_depth(&mut empty, &projected), 0);
        let mut single = vec![0u32];
        assert_eq!(sort_by_depth(&mut single, &projected), 0);
    }

    #[test]
    fn sort_tiles_accumulates_comparisons() {
        let projected: Vec<ProjectedGaussian> =
            (0..8).map(|i| projected_at(i, (8 - i) as f32)).collect();
        let grid = TileGrid::new(64, 64, 16);
        let mut counts = StageCounts::new();
        let mut assignments = identify_tiles(&projected, grid, BoundaryMethod::Aabb, &mut counts);
        sort_tiles(&mut assignments, &projected, &mut counts);
        assert!(counts.sort_comparisons > 0);
        for (_, list) in assignments.iter() {
            assert!(is_sorted_by_depth(list, &projected));
        }
    }

    #[test]
    fn key_sort_matches_the_comparator_sort_bit_exactly() {
        // The radix key sort must reproduce the order of the stable
        // comparison sort it replaced: depth ascending, ties by scene
        // index. Sweep deterministic pseudo-random depth sets, including
        // duplicated depths.
        let mut rng = splat_types::rng::Rng::seed_from_u64(42);
        for case in 0..50u32 {
            let len = 2 + (case % 23) as usize;
            let projected: Vec<ProjectedGaussian> = (0..len)
                .map(|i| projected_at(i as u32 * 3 + 1, rng.range_f64(0.1, 8.0) as f32))
                .collect();
            // Staged in slot order, so scene indices ascend along the bin.
            let mut by_key: Vec<u32> = (0..len as u32).collect();
            let mut by_comparator = by_key.clone();
            sort_by_depth(&mut by_key, &projected);
            by_comparator.sort_by(|&a, &b| {
                let ga = &projected[a as usize];
                let gb = &projected[b as usize];
                ga.depth
                    .partial_cmp(&gb.depth)
                    .unwrap()
                    .then(ga.index.cmp(&gb.index))
            });
            assert_eq!(by_key, by_comparator, "case {case}");
        }
    }

    #[test]
    fn sort_tiles_records_key_sort_counters() {
        let projected: Vec<ProjectedGaussian> =
            (0..8).map(|i| projected_at(i, (8 - i) as f32)).collect();
        let grid = TileGrid::new(64, 64, 16);
        let mut counts = StageCounts::new();
        let mut assignments = identify_tiles(&projected, grid, BoundaryMethod::Aabb, &mut counts);
        sort_tiles(&mut assignments, &projected, &mut counts);
        assert!(counts.sort_keys > 0);
        assert!(counts.radix_passes > 0);
        // Every sorted key belongs to a multi-entry list, so the key count
        // never exceeds the total number of (tile, splat) pairs.
        assert!(counts.sort_keys <= assignments.total_entries());
    }

    #[test]
    fn redundant_sorting_grows_with_tile_coverage() {
        // The same splats identified on a finer grid generate strictly more
        // sorting work (the paper's core observation).
        let projected: Vec<ProjectedGaussian> =
            (0..16).map(|i| projected_at(i, 1.0 + i as f32)).collect();
        let mut small_counts = StageCounts::new();
        let mut large_counts = StageCounts::new();
        let mut small = identify_tiles(
            &projected,
            TileGrid::new(128, 128, 8),
            BoundaryMethod::Aabb,
            &mut small_counts,
        );
        let mut large = identify_tiles(
            &projected,
            TileGrid::new(128, 128, 64),
            BoundaryMethod::Aabb,
            &mut large_counts,
        );
        sort_tiles(&mut small, &projected, &mut small_counts);
        sort_tiles(&mut large, &projected, &mut large_counts);
        assert!(small_counts.sort_comparisons > large_counts.sort_comparisons);
    }
}
