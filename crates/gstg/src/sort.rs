//! Group-wise depth sorting.
//!
//! Each group's splat list is sorted exactly once, front-to-back, using the
//! same ordering as the baseline's tile-wise sort — the shared stable radix
//! sort on the 32-bit depth key ([`splat_core::sort_bins_by_depth`], the
//! same call the baseline makes over its per-tile bins). Group
//! identification stages every group's entries in ascending scene index
//! (the sort's precondition), so depth ties break by scene index. Because
//! the ordering is identical, filtering a group-sorted list down to one
//! tile yields the same order the baseline would have produced for that
//! tile — the key to GS-TG's losslessness.
//! `StageCounts` records the measured key-sort work (`sort_keys`,
//! `radix_passes`) alongside the modeled comparison count the paper's
//! redundancy figures are expressed in.

use crate::group::{GroupAssignments, GroupEntry};
use splat_core::{sort_bins_by_depth, KeySortScratch, ProjectedGaussian, StageCounts};

/// Sorts every group's list in place through a reusable key-sort scratch,
/// accumulating the modeled comparison count and the measured key-sort
/// counters into `counts`.
pub fn sort_groups_with(
    assignments: &mut GroupAssignments,
    projected: &[ProjectedGaussian],
    counts: &mut StageCounts,
    scratch: &mut KeySortScratch<GroupEntry>,
) {
    sort_bins_by_depth(assignments.bins_mut(), projected, counts, scratch);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bitmask::TileBitmask;
    use crate::config::GstgConfig;
    use crate::group::tests::identify_groups;
    use splat_core::{CsrAssignments, CsrScratch};
    use splat_render::{BoundaryMethod, PrepassMode, TileAssignments};
    use splat_types::{Mat2, Rgb, Vec2};

    /// Sorts one group's entries as a single-bin assignment.
    fn sort_group(entries: &mut [GroupEntry], projected: &[ProjectedGaussian]) {
        let mut staging = CsrScratch::new();
        for &entry in entries.iter() {
            staging.stage(0, entry);
        }
        let mut bins = CsrAssignments::new();
        staging.build_into(1, &mut bins);
        sort_bins_by_depth(
            &mut bins,
            projected,
            &mut StageCounts::new(),
            &mut KeySortScratch::new(),
        );
        entries.copy_from_slice(bins.bin(0));
    }

    pub(crate) fn sort_groups(
        assignments: &mut GroupAssignments,
        projected: &[ProjectedGaussian],
        counts: &mut StageCounts,
    ) {
        sort_groups_with(assignments, projected, counts, &mut KeySortScratch::new());
    }

    fn is_group_sorted(entries: &[GroupEntry], projected: &[ProjectedGaussian]) -> bool {
        splat_core::is_sorted_by_depth(entries, projected)
    }

    fn projected(index: u32, depth: f32) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(9.0, 0.0, 9.0);
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

    fn entry(slot: u32) -> GroupEntry {
        GroupEntry {
            slot,
            bitmask: TileBitmask::EMPTY,
        }
    }

    #[test]
    fn sorts_by_depth_then_index() {
        // Slots in scene order, as preprocessing emits them, staged in
        // slot order, as group identification stages them.
        let projected = vec![projected(1, 3.0), projected(4, 1.0), projected(9, 1.0)];
        let mut entries = vec![entry(0), entry(1), entry(2)];
        sort_group(&mut entries, &projected);
        // depth 1.0 (index 4), depth 1.0 (index 9), depth 3.0 (index 1)
        assert_eq!(
            entries.iter().map(|e| e.slot).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        assert!(is_group_sorted(&entries, &projected));
    }

    #[test]
    fn every_mask_travels_with_its_slot() {
        // Three bins through one scratch: depth ties interleaved with
        // distinct depths, depths falling against ascending indices, and
        // equal depths, which take no radix pass.
        let depths: [&[f32]; 3] = [
            &[2.0, 1.0, 2.0, 1.0, 3.0, 1.0],
            &[6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
            &[4.0; 5],
        ];
        let mut projected_splats = Vec::new();
        let mut staging = CsrScratch::new();
        let mut input = Vec::new();
        for (bin, bin_depths) in depths.iter().enumerate() {
            for &depth in bin_depths.iter() {
                let slot = projected_splats.len() as u32;
                projected_splats.push(projected(slot, depth));
                // Distinct in both halves, so a dropped or swapped word,
                // or a truncated mask, changes the entry.
                let entry = GroupEntry {
                    slot,
                    bitmask: TileBitmask::from_bits(
                        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(slot) + 1),
                    ),
                };
                staging.stage(bin as u32, entry);
                input.push(entry);
            }
        }
        let mut bins = CsrAssignments::new();
        staging.build_into(depths.len(), &mut bins);
        let mut counts = StageCounts::new();
        sort_bins_by_depth(
            &mut bins,
            &projected_splats,
            &mut counts,
            &mut KeySortScratch::new(),
        );

        for (bin, list) in bins.iter() {
            assert_eq!(list.len(), depths[bin].len(), "bin {bin}");
            assert!(is_group_sorted(list, &projected_splats), "bin {bin}");
            for entry in list {
                assert_eq!(*entry, input[entry.slot as usize], "bin {bin}");
            }
        }
        let order = |bin: usize| bins.bin(bin).iter().map(|e| e.slot).collect::<Vec<_>>();
        assert_eq!(order(0), vec![1, 3, 5, 0, 2, 4]);
        assert_eq!(order(1), vec![11, 10, 9, 8, 7, 6]);
        assert_eq!(bins.bin(2), &input[12..]);
        assert_eq!(counts.sort_keys, 17);
    }

    #[test]
    fn sorting_counts_comparisons_only_for_multi_entry_groups() {
        let splats = vec![projected(0, 2.0), projected(1, 1.0)];
        let cfg = GstgConfig::new(16, 64, BoundaryMethod::Aabb, BoundaryMethod::Aabb).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 64, 64, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        assert!(counts.sort_comparisons >= 1);
        for (_, entries) in groups.iter() {
            assert!(is_group_sorted(entries, &splats));
        }
    }

    #[test]
    fn group_sorting_uses_fewer_comparisons_than_tile_sorting() {
        // A cloud of overlapping splats: sorting once per group must cost
        // less than sorting once per 16×16 tile.
        let splats: Vec<ProjectedGaussian> = (0..40)
            .map(|i| {
                let cov = Mat2::from_symmetric(64.0, 0.0, 64.0);
                ProjectedGaussian {
                    index: i,
                    depth: (40 - i) as f32,
                    mean: Vec2::new(96.0 + (i % 5) as f32 * 8.0, 96.0 + (i / 5) as f32 * 4.0),
                    cov,
                    inv_det: 1.0 / cov.determinant(),
                    opacity: 0.9,
                    color: Rgb::WHITE,
                }
            })
            .collect();
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut group_counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 256, 256, &cfg, &mut group_counts);
        sort_groups(&mut groups, &splats, &mut group_counts);

        let mut tile_counts = StageCounts::new();
        let mut tiles = TileAssignments::empty();
        splat_render::identify_tiles_into(
            &splats,
            splat_render::TileGrid::new(256, 256, 16),
            BoundaryMethod::Ellipse,
            PrepassMode::Conservative,
            &mut tile_counts,
            &mut CsrScratch::new(),
            &mut tiles,
        );
        splat_render::sort::sort_tiles_with(
            &mut tiles,
            &splats,
            &mut tile_counts,
            &mut KeySortScratch::new(),
        );

        assert!(
            group_counts.sort_comparisons < tile_counts.sort_comparisons,
            "group sort {} should be cheaper than tile sort {}",
            group_counts.sort_comparisons,
            tile_counts.sort_comparisons
        );
    }
}
