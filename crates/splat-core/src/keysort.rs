//! Stable radix sort of splat lists by depth.
//!
//! Both pipelines order splat lists front-to-back by `(depth, scene index)`.
//! Every bin arrives in ascending scene index: preprocessing emits slots in
//! scene order, both identify loops stage entries in slot order and the CSR
//! build scatters stably. A *stable* sort on the depth alone therefore
//! reproduces `(depth, scene index)` order exactly, so the bins are sorted
//! on the 32-bit `depth_key` (the depth's bits mapped monotonically to
//! `u32`, the sign-flip trick) with an LSD radix argsort:
//!
//! * each entry becomes one `u64`, `depth_key << 32 | position in bin`;
//! * one read pass builds all four digit histograms, and a digit every key
//!   shares is skipped;
//! * the passes scatter only those 8-byte keys;
//! * one walk over the sorted keys parks the entry each key names in that
//!   key's two words (its own and the scatter buffer's at the same
//!   position, [`SortEntry`]), and one sequential pass writes the bin back
//!   from them. A bin no pass touched is already in order and is left as
//!   it is.
//!
//! The scratch is the two key buffers and nothing else: 16 bytes per
//! entry of the largest bin, with no copy of the bin beside them.
//!
//! The ascending-index precondition is a `debug_assert!`. [`splat_key`],
//! the 64-bit `(depth, index)` key, is what the brute-force reference
//! (`crate::reference`) sorts by, so it stays the independent check.
//!
//! The radix sort performs no comparisons, so the paper's redundancy
//! accounting is kept two ways: [`KeySortRun`] reports the *actual* key
//! counts and radix passes, and `modeled_merge_comparisons` charges the
//! `n·⌈log₂ n⌉` comparison bound the figures' cost model continues to use
//! for `StageCounts::sort_comparisons`.

use crate::csr::CsrAssignments;
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use std::marker::PhantomData;

/// Maps a depth to a `u32` whose unsigned order matches the `f32` order.
///
/// Negative floats have their bits inverted, non-negative floats get the
/// sign bit set — the classic sign-flip mapping. It is strictly monotone
/// over all finite floats; callers must cull non-finite depths beforehand
/// (preprocessing does), so no NaN branch is needed here. `-0.0` is
/// normalized to `+0.0` first so the two zeros compare equal, exactly as
/// the `partial_cmp` comparator this key replaced treated them.
#[inline]
pub(crate) fn depth_key(depth: f32) -> u32 {
    // IEEE 754: -0.0 + 0.0 == +0.0, so both zeros share one key.
    let bits = (depth + 0.0).to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// The 64-bit sort key of a splat: depth bits in the high half, the unique
/// scene index in the low half, so equal depths tie-break by scene order.
#[inline]
pub(crate) fn splat_key(depth: f32, index: u32) -> u64 {
    (u64::from(depth_key(depth)) << 32) | u64::from(index)
}

/// The `n·⌈log₂ n⌉` comparison bound a merge sort would have spent on a
/// list of `len` keys. This is the modeled comparison count charged to
/// [`StageCounts::sort_comparisons`] now that the key sort performs none.
#[inline]
pub(crate) fn modeled_merge_comparisons(len: usize) -> u64 {
    if len <= 1 {
        return 0;
    }
    let ceil_log2 = u64::from(usize::BITS - (len - 1).leading_zeros());
    len as u64 * ceil_log2
}

/// Counters of one key-sort invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct KeySortRun {
    /// Keys submitted to the sorter.
    pub(crate) keys: u64,
    /// Radix digit passes actually executed (digits every key shares are
    /// skipped).
    pub(crate) passes: u64,
    /// Modeled merge-sort comparisons for the same list (`n·⌈log₂ n⌉`).
    pub(crate) modeled_comparisons: u64,
}

impl KeySortRun {
    /// Accumulates this run into a stage counter set.
    pub(crate) fn accumulate(&self, counts: &mut StageCounts) {
        counts.sort_keys += self.keys;
        counts.radix_passes += self.passes;
        counts.sort_comparisons += self.modeled_comparisons;
    }
}

/// An assignment entry the depth sort orders by its splat's depth and can
/// park in two `u64` words while it writes a bin back in sorted order. The
/// tile kernel reads a sorted bin through it too: an entry is shaded in the
/// tile at bit `bit` of its bin only when [`SortEntry::in_tile`] holds.
pub trait SortEntry: Copy {
    /// The entry's position in the projected-splat list.
    fn slot(&self) -> u32;

    /// Whether the entry belongs to the list of the tile at position `bit`
    /// of its bin: always for a per-tile bin, the tile's bitmask bit for a
    /// per-group one.
    fn in_tile(&self, bit: u32) -> bool;

    /// Writes the entry into `first` and, when one word cannot hold it,
    /// `second`.
    fn park(self, first: &mut u64, second: &mut u64);

    /// Rebuilds the entry from the words [`SortEntry::park`] wrote.
    fn unpark(first: u64, second: u64) -> Self;
}

/// A baseline tile-list entry, a projected-splat slot: one word. Its bin
/// is one tile, so every entry is in it.
impl SortEntry for u32 {
    #[inline]
    fn slot(&self) -> u32 {
        *self
    }

    #[inline]
    fn in_tile(&self, _bit: u32) -> bool {
        true
    }

    #[inline]
    fn park(self, first: &mut u64, _second: &mut u64) {
        *first = u64::from(self);
    }

    #[inline]
    fn unpark(first: u64, _second: u64) -> Self {
        first as u32
    }
}

/// Reusable buffers for the radix sort: the keys and the scatter target of
/// each pass, 16 bytes per entry of the largest bin. The gather parks the
/// entries in these same two buffers, so the bin is never copied. Owning
/// one per session makes repeated sorting allocation-free once the buffers
/// have grown to the largest bin encountered.
#[derive(Debug, Clone)]
pub struct KeySortScratch<T> {
    /// `depth_key << 32 | position in bin`, one per entry of the bin.
    keys: Vec<u64>,
    /// The scatter target of each radix pass.
    swap: Vec<u64>,
    /// The entry type the buffers park; it owns no storage.
    entry: PhantomData<T>,
}

impl<T> KeySortScratch<T> {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            swap: Vec::new(),
            entry: PhantomData,
        }
    }

    /// Bytes currently reserved by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        (self.keys.capacity() + self.swap.capacity()) * std::mem::size_of::<u64>()
    }
}

impl<T: SortEntry> KeySortScratch<T> {
    /// Sorts `list` stably by `depth_key_of` and returns the radix passes
    /// it took.
    fn sort_bin(&mut self, list: &mut [T], depth_key_of: impl Fn(&T) -> u32) -> u64 {
        self.keys.clear();
        self.keys.extend(
            (0u32..).zip(list.iter()).map(|(position, entry)| {
                (u64::from(depth_key_of(entry)) << 32) | u64::from(position)
            }),
        );
        let mut histograms = [[0u32; 256]; 4];
        for &key in &self.keys {
            let digits = ((key >> 32) as u32).to_le_bytes();
            for (histogram, digit) in histograms.iter_mut().zip(digits) {
                if let Some(count) = histogram.get_mut(usize::from(digit)) {
                    *count += 1;
                }
            }
        }
        let first = self.keys.first().map_or(0, |&key| (key >> 32) as u32);
        // Every pass overwrites all of it, and the gather parks entries in
        // it, so stale contents may stay.
        self.swap.resize(self.keys.len(), 0);

        let mut passes = 0;
        for (shift, (histogram, first_digit)) in (32..)
            .step_by(8)
            .zip(histograms.iter_mut().zip(first.to_le_bytes()))
        {
            // A digit every key shares would leave the order as it is.
            if histogram.get(usize::from(first_digit)).copied() == Some(self.keys.len() as u32) {
                continue;
            }
            passes += 1;
            let mut running = 0;
            for cursor in histogram.iter_mut() {
                let count = *cursor;
                *cursor = running;
                running += count;
            }
            for &key in &self.keys {
                if let Some(cursor) = histogram.get_mut(usize::from((key >> shift) as u8)) {
                    if let Some(slot) = self.swap.get_mut(*cursor as usize) {
                        *slot = key;
                    }
                    *cursor += 1;
                }
            }
            std::mem::swap(&mut self.keys, &mut self.swap);
        }
        if passes == 0 {
            // The keys are still in position order: so is the bin.
            return 0;
        }

        // Park each key's entry in the key's own two words, then write the
        // bin back from them in order. Each key is read before its words
        // are overwritten, and the bin is read in full before it is written.
        for (key, spare) in self.keys.iter_mut().zip(self.swap.iter_mut()) {
            if let Some(&entry) = list.get(*key as u32 as usize) {
                entry.park(key, spare);
            }
        }
        for (entry, (&first, &second)) in list.iter_mut().zip(self.keys.iter().zip(&self.swap)) {
            *entry = T::unpark(first, second);
        }
        passes
    }
}

impl<T> Default for KeySortScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Sorts every bin of a CSR assignment front-to-back by `(depth, scene
/// index)`, accumulating the measured key-sort counters and the modeled
/// comparison count into `counts`. [`SortEntry::slot`] maps an entry to its
/// position in `projected` — the identity for the baseline's `u32` tile
/// lists, the `slot` field for GS-TG's group entries — so both pipelines
/// order by the same key and a filtered group list equals the baseline's
/// tile list.
///
/// Every bin must list its splats in strictly ascending scene index, as
/// preprocessing and the identify stages stage them (checked by a
/// `debug_assert!`): the sort is stable on the depth alone, so that order
/// breaks the ties. Depths are finite by the preprocessing contract, so
/// the sign-flip key mapping reproduces the comparator order exactly.
pub fn sort_bins_by_depth<T: SortEntry>(
    bins: &mut CsrAssignments<T>,
    projected: &[ProjectedGaussian],
    counts: &mut StageCounts,
    scratch: &mut KeySortScratch<T>,
) {
    let splat_of = |entry: &T| &projected[entry.slot() as usize];
    for bin in 0..bins.bin_count() {
        let list = bins.bin_mut(bin);
        if list.len() <= 1 {
            continue;
        }
        debug_assert!(
            list.windows(2).all(|pair| match pair {
                [a, b] => splat_of(a).index < splat_of(b).index,
                _ => true,
            }),
            "bin {bin} is not in ascending scene index, so a stable depth sort \
             cannot break its ties"
        );
        let passes = scratch.sort_bin(list, |entry| depth_key(splat_of(entry).depth));
        KeySortRun {
            keys: list.len() as u64,
            passes,
            modeled_comparisons: modeled_merge_comparisons(list.len()),
        }
        .accumulate(counts);
    }
}

/// Returns `true` when a list of splat references is sorted front-to-back
/// (by depth, ties by scene index). Used by tests and equivalence checks.
pub fn is_sorted_by_depth<T: SortEntry>(list: &[T], projected: &[ProjectedGaussian]) -> bool {
    let key_of = |entry: &T| {
        projected
            .get(entry.slot() as usize)
            .map(|splat| splat_key(splat.depth, splat.index))
    };
    list.windows(2).all(|pair| match pair {
        [a, b] => matches!((key_of(a), key_of(b)), (Some(a), Some(b)) if a <= b),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrScratch;
    use splat_types::{Mat2, Rgb, Vec2};

    /// Splats in preprocessing's order: slot `i` has scene index `i`.
    fn splats(depths: &[f32]) -> Vec<ProjectedGaussian> {
        let cov = Mat2::from_symmetric(4.0, 0.0, 4.0);
        (0u32..)
            .zip(depths)
            .map(|(index, &depth)| ProjectedGaussian {
                index,
                depth,
                mean: Vec2::new(0.0, 0.0),
                cov,
                inv_det: 1.0 / cov.determinant(),
                opacity: 0.9,
                color: Rgb::WHITE,
            })
            .collect()
    }

    /// Sorts every slot of `projected`, staged in slot order, as one bin;
    /// returns the sorted slots and the counters the sort charged.
    fn sort_one_bin(
        projected: &[ProjectedGaussian],
        scratch: &mut KeySortScratch<u32>,
    ) -> (Vec<u32>, StageCounts) {
        let mut staging = CsrScratch::new();
        for slot in 0..projected.len() as u32 {
            staging.stage(0, slot);
        }
        let mut bins = CsrAssignments::new();
        staging.build_into(1, &mut bins);
        let mut counts = StageCounts::new();
        sort_bins_by_depth(&mut bins, projected, &mut counts, scratch);
        (bins.bin(0).to_vec(), counts)
    }

    #[test]
    fn depth_key_is_monotone_over_finite_floats() {
        let samples = [
            f32::MIN,
            -1e20,
            -3.5,
            -1.0,
            -1e-20,
            -0.0,
            0.0,
            1e-20,
            0.5,
            1.0,
            3.5,
            1e20,
            f32::MAX,
        ];
        for pair in samples.windows(2) {
            if pair[0] < pair[1] {
                assert!(
                    depth_key(pair[0]) < depth_key(pair[1]),
                    "{} !< {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn splat_key_breaks_ties_by_index() {
        assert!(splat_key(2.0, 3) < splat_key(2.0, 7));
        assert!(splat_key(1.0, 900) < splat_key(2.0, 0));
    }

    #[test]
    fn signed_zeros_share_one_key() {
        // The replaced comparator deemed -0.0 == +0.0 and fell through to
        // the index tie-break; the key mapping must agree.
        assert_eq!(depth_key(-0.0), depth_key(0.0));
        assert!(splat_key(-0.0, 0) < splat_key(0.0, 1));
    }

    #[test]
    fn modeled_comparisons_match_the_bound() {
        assert_eq!(modeled_merge_comparisons(0), 0);
        assert_eq!(modeled_merge_comparisons(1), 0);
        assert_eq!(modeled_merge_comparisons(2), 2);
        assert_eq!(modeled_merge_comparisons(3), 6);
        assert_eq!(modeled_merge_comparisons(8), 24);
        assert_eq!(modeled_merge_comparisons(9), 36);
    }

    #[test]
    fn sorts_match_the_comparison_sort() {
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x00DE_C0DE);
        let mut scratch = KeySortScratch::new();
        for case in 0..50 {
            let len = (case % 17) + 2;
            // Coarse depths, so some tie and fall back to the scene index.
            let depths: Vec<f32> = (0..len)
                .map(|_| (rng.range_f64(0.0, 1000.0) as f32 * 0.25).round())
                .collect();
            let projected = splats(&depths);
            let mut expected: Vec<u32> = (0..len as u32).collect();
            expected.sort_by_key(|&slot| {
                let splat = &projected[slot as usize];
                splat_key(splat.depth, splat.index)
            });
            let (order, counts) = sort_one_bin(&projected, &mut scratch);
            assert_eq!(order, expected, "case {case}");
            assert_eq!(counts.sort_keys, len as u64);
            assert!(counts.radix_passes <= 4);
        }
    }

    #[test]
    fn constant_digit_bytes_are_skipped() {
        // Depth keys differ only in their lowest byte: exactly one pass.
        let depths: Vec<f32> = [5, 3, 9, 1]
            .iter()
            .map(|&ulps| f32::from_bits(1.0f32.to_bits() + ulps))
            .collect();
        let (order, counts) = sort_one_bin(&splats(&depths), &mut KeySortScratch::new());
        assert_eq!(order, vec![3, 1, 0, 2]);
        assert_eq!(counts.radix_passes, 1);
    }

    #[test]
    fn single_and_empty_lists_cost_nothing() {
        let mut scratch = KeySortScratch::new();
        for depths in [&[][..], &[7.0][..]] {
            let (order, counts) = sort_one_bin(&splats(depths), &mut scratch);
            assert_eq!(order.len(), depths.len());
            assert_eq!(counts, StageCounts::new());
        }
        // Equal depths in scene order need no pass at all.
        let (order, counts) = sort_one_bin(&splats(&[2.0; 5]), &mut scratch);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(counts.radix_passes, 0);
        assert_eq!(counts.sort_keys, 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not in ascending scene index")]
    fn a_bin_out_of_scene_order_trips_the_precondition() {
        // Slot 1 precedes slot 0 in the bin, but has the larger index:
        // preprocessing and the identify stages never stage that.
        let projected = splats(&[1.0, 2.0]);
        let mut staging = CsrScratch::new();
        staging.stage(0, 1u32);
        staging.stage(0, 0u32);
        let mut bins = CsrAssignments::new();
        staging.build_into(1, &mut bins);
        sort_bins_by_depth(
            &mut bins,
            &projected,
            &mut StageCounts::new(),
            &mut KeySortScratch::new(),
        );
    }

    #[test]
    fn accumulate_charges_all_three_counters() {
        let run = KeySortRun {
            keys: 4,
            passes: 2,
            modeled_comparisons: 8,
        };
        let mut counts = StageCounts::new();
        run.accumulate(&mut counts);
        run.accumulate(&mut counts);
        assert_eq!(counts.sort_keys, 8);
        assert_eq!(counts.radix_passes, 4);
        assert_eq!(counts.sort_comparisons, 16);
    }

    #[test]
    fn scratch_footprint_is_stable_after_warmup() {
        let mut scratch = KeySortScratch::new();
        let depths: Vec<f32> = (0..64).rev().map(|d| d as f32).collect();
        sort_one_bin(&splats(&depths), &mut scratch);
        let warmed = scratch.footprint_bytes();
        assert!(warmed > 0);
        sort_one_bin(&splats(&depths), &mut scratch);
        assert_eq!(scratch.footprint_bytes(), warmed);
    }
}
