//! Property-sweep edge-case tests for the two allocation-free building
//! blocks both pipelines stand on: the CSR assignment layout
//! (`splat_core::csr`) and the radix key sort (`splat_core::keysort`).
//!
//! Each property is checked against the naive reference implementation the
//! optimized code replaced — `Vec<Vec<_>>` grouping for CSR, the
//! `(depth, index)` comparison sort for the key sort — across deterministic
//! random sweeps *and* the adversarial edges: empty input, single element,
//! all-equal depth keys, maximum `scene_index`, and already-/reverse-sorted
//! inputs. The key sort is driven as the pipelines drive it: a CSR bin of
//! splats staged in ascending scene index, sorted by `sort_bins_by_depth`.

use splat_core::{
    sort_bins_by_depth, CsrAssignments, CsrScratch, KeySortScratch, ProjectedGaussian, StageCounts,
};
use splat_types::rng::Rng;
use splat_types::{Mat2, Rgb, Vec2};

// ---------------------------------------------------------------------------
// CSR assignments
// ---------------------------------------------------------------------------

/// The reference the CSR layout must reproduce: per-bin `Vec`s filled in
/// staging order.
fn naive_bins(bins: usize, pairs: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); bins];
    for &(bin, entry) in pairs {
        out[bin as usize].push(entry);
    }
    out
}

fn csr_of(bins: usize, pairs: &[(u32, u32)]) -> CsrAssignments<u32> {
    let mut scratch = CsrScratch::new();
    for &(bin, entry) in pairs {
        scratch.stage(bin, entry);
    }
    let mut out = CsrAssignments::new();
    scratch.build_into(bins, &mut out);
    out
}

fn assert_csr_matches_naive(bins: usize, pairs: &[(u32, u32)]) {
    let csr = csr_of(bins, pairs);
    let naive = naive_bins(bins, pairs);
    assert_eq!(csr.bin_count(), bins);
    assert_eq!(csr.total_entries(), pairs.len() as u64);
    for (bin, expected) in naive.iter().enumerate() {
        assert_eq!(
            csr.bin(bin),
            expected.as_slice(),
            "bin {bin} of {bins} diverged for {} staged pairs",
            pairs.len()
        );
    }
}

#[test]
fn csr_empty_input_yields_only_empty_bins() {
    assert_csr_matches_naive(0, &[]);
    assert_csr_matches_naive(1, &[]);
    assert_csr_matches_naive(17, &[]);
}

#[test]
fn csr_single_element_lands_in_its_bin() {
    assert_csr_matches_naive(1, &[(0, 42)]);
    assert_csr_matches_naive(5, &[(0, 42)]);
    assert_csr_matches_naive(5, &[(4, 42)]);
}

#[test]
fn csr_max_bin_index_is_addressable() {
    // Every entry in the last bin: the prefix sum must not run off the end.
    let bins = 257;
    let pairs: Vec<(u32, u32)> = (0..9).map(|i| ((bins - 1) as u32, i)).collect();
    assert_csr_matches_naive(bins, &pairs);
    let csr = csr_of(bins, &pairs);
    assert_eq!(csr.bin(bins - 1).len(), 9);
    for bin in 0..bins - 1 {
        assert!(csr.bin(bin).is_empty());
    }
}

#[test]
fn csr_all_entries_in_one_bin_preserve_staging_order() {
    let pairs: Vec<(u32, u32)> = (0..64).map(|i| (3, 1000 - i)).collect();
    assert_csr_matches_naive(7, &pairs);
}

#[test]
fn csr_random_sweeps_match_the_naive_grouping() {
    let mut rng = Rng::seed_from_u64(0xC5_12_34);
    for case in 0..100 {
        let bins = 1 + rng.gen_index(33);
        let count = rng.gen_index(257);
        let pairs: Vec<(u32, u32)> = (0..count)
            .map(|i| (rng.gen_index(bins) as u32, i as u32))
            .collect();
        assert_csr_matches_naive(bins, &pairs);
        // Duplicated entry values must also survive (entries need not be
        // unique — only bins are meaningful to the layout).
        if case % 3 == 0 {
            let duplicated: Vec<(u32, u32)> = pairs.iter().map(|&(bin, _)| (bin, 7)).collect();
            assert_csr_matches_naive(bins, &duplicated);
        }
    }
}

// ---------------------------------------------------------------------------
// Radix key sort
// ---------------------------------------------------------------------------

/// The comparator the key sort replaced: depth ascending,
/// `partial_cmp`-style, tie-broken by scene index.
fn naive_sort(items: &mut [(f32, u32)]) {
    items.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite depths")
            .then(a.1.cmp(&b.1))
    });
}

/// Splats in preprocessing's order (ascending scene index, one slot
/// each), staged in slot order into one CSR bin and sorted by
/// `sort_bins_by_depth`; returns the sorted `(depth, index)` list and the
/// counters the sort charged.
fn sort_as_one_bin(
    items: &[(f32, u32)],
    scratch: &mut KeySortScratch<u32>,
) -> (Vec<(f32, u32)>, StageCounts) {
    let mut in_scene_order = items.to_vec();
    in_scene_order.sort_by_key(|&(_, index)| index);
    let cov = Mat2::from_symmetric(4.0, 0.0, 4.0);
    let projected: Vec<ProjectedGaussian> = in_scene_order
        .iter()
        .map(|&(depth, index)| ProjectedGaussian {
            index,
            depth,
            mean: Vec2::new(0.0, 0.0),
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color: Rgb::WHITE,
        })
        .collect();
    let mut staging = CsrScratch::new();
    for slot in 0..projected.len() as u32 {
        staging.stage(0, slot);
    }
    let mut bins = CsrAssignments::new();
    staging.build_into(1, &mut bins);
    let mut counts = StageCounts::new();
    sort_bins_by_depth(&mut bins, &projected, &mut counts, scratch);
    let sorted = bins
        .bin(0)
        .iter()
        .map(|&slot| {
            let splat = &projected[slot as usize];
            (splat.depth, splat.index)
        })
        .collect();
    (sorted, counts)
}

fn assert_keysort_matches_comparator(items: &[(f32, u32)]) {
    let mut expected = items.to_vec();
    naive_sort(&mut expected);
    let (actual, counts) = sort_as_one_bin(items, &mut KeySortScratch::new());
    assert_eq!(
        actual,
        expected,
        "key sort diverged from the comparator on {} items",
        items.len()
    );
    let keys = if items.len() > 1 {
        items.len() as u64
    } else {
        0
    };
    assert_eq!(counts.sort_keys, keys);
    assert!(counts.radix_passes <= 4);
}

#[test]
fn keysort_empty_and_single_inputs() {
    assert_keysort_matches_comparator(&[]);
    assert_keysort_matches_comparator(&[(3.5, 0)]);
    assert_keysort_matches_comparator(&[(f32::MAX, u32::MAX)]);
}

#[test]
fn keysort_all_equal_depths_fall_back_to_scene_order() {
    // Every depth identical: the result must be exactly scene-index order
    // (the stability property the rasterizers' tie-breaking relies on).
    let items: Vec<(f32, u32)> = (0..97).rev().map(|i| (2.5, i)).collect();
    assert_keysort_matches_comparator(&items);
    // Ties that the sort has to move past nearer splats keep scene order.
    let mixed: Vec<(f32, u32)> = (0..97)
        .map(|i| (if i % 3 == 0 { 2.5 } else { 1.5 }, i))
        .collect();
    assert_keysort_matches_comparator(&mixed);
    // Signed zeros count as equal depths too: a `-0.0` keyed below `+0.0`
    // would move indices 1 and 3 to the front.
    let zeros = [(0.0_f32, 0), (-0.0, 1), (0.0, 2), (-0.0, 3)];
    assert_keysort_matches_comparator(&zeros);
}

#[test]
fn keysort_max_scene_index_does_not_collide_with_depth_bits() {
    // Scene indices up to u32::MAX must not perturb the depth ordering;
    // equal depths still tie-break by index (indices stay unique, as
    // preprocessing guarantees).
    let items = [
        (2.0_f32, u32::MAX),
        (1.0, u32::MAX - 1),
        (2.0, 0),
        (1.0, u32::MAX - 2),
        (3.0, u32::MAX - 3),
    ];
    assert_keysort_matches_comparator(&items);
}

#[test]
fn keysort_already_sorted_and_reverse_sorted_inputs() {
    let sorted: Vec<(f32, u32)> = (0..64).map(|i| (i as f32 * 0.5 - 10.0, i)).collect();
    assert_keysort_matches_comparator(&sorted);
    // Depths descending while scene indices ascend.
    let reversed: Vec<(f32, u32)> = (0..64).map(|i| ((63 - i) as f32 * 0.5 - 10.0, i)).collect();
    assert_keysort_matches_comparator(&reversed);
}

#[test]
fn keysort_random_sweeps_match_the_comparator() {
    let mut rng = Rng::seed_from_u64(0x5EED_50F7);
    let mut scratch = KeySortScratch::new();
    for case in 0..100 {
        let len = rng.gen_index(129);
        // Mix of magnitudes and signs, including exact duplicates (indices
        // stay unique, as preprocessing guarantees).
        let items: Vec<(f32, u32)> = (0..len)
            .map(|i| {
                let depth = match case % 4 {
                    0 => rng.range_f32(-1000.0, 1000.0),
                    1 => rng.range_f32(0.0, 1.0),
                    2 => (rng.gen_index(5) as f32) - 2.0,
                    _ => rng.range_f32(-1e30, 1e30),
                };
                (depth, i as u32)
            })
            .collect();
        let mut expected = items.clone();
        naive_sort(&mut expected);
        let (actual, _) = sort_as_one_bin(&items, &mut scratch);
        assert_eq!(actual, expected, "case {case} diverged");
    }
}

#[test]
fn keysort_scratch_footprint_is_stable_across_the_sweep() {
    // One scratch across wildly different lengths: the footprint grows to
    // the largest list, then stays put — the allocation-free guarantee the
    // sessions rely on.
    let mut rng = Rng::seed_from_u64(0xF007);
    let mut scratch = KeySortScratch::new();
    let big: Vec<(f32, u32)> = (0..256).map(|i| (rng.range_f32(-10.0, 10.0), i)).collect();
    sort_as_one_bin(&big, &mut scratch);
    let warmed = scratch.footprint_bytes();
    for len in [0usize, 1, 17, 255, 256] {
        let items: Vec<(f32, u32)> = (0..len as u32)
            .map(|i| (rng.range_f32(-10.0, 10.0), i))
            .collect();
        sort_as_one_bin(&items, &mut scratch);
        assert_eq!(scratch.footprint_bytes(), warmed, "len {len} reallocated");
    }
}
