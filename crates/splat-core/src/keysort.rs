//! Order-preserving radix key sort for depth ordering.
//!
//! Both pipelines order splat lists front-to-back by `(depth, scene index)`.
//! Instead of a comparison merge sort, the lists are sorted by a single
//! 64-bit key: the depth's bits mapped monotonically to `u32` (sign-flip
//! trick) in the high half, the unique scene index in the low half. Sorting
//! the keys with an LSD radix sort therefore produces *bit-exactly* the
//! ordering the old comparator (`depth.partial_cmp(..).then(index.cmp(..))`)
//! produced for the finite depths preprocessing guarantees — the
//! lossless-equivalence and determinism tests pin that down.
//!
//! The radix sort performs no comparisons, so the paper's redundancy
//! accounting is kept two ways: [`KeySortRun`] reports the *actual* key
//! counts and radix passes, and `modeled_merge_comparisons` charges the
//! `n·⌈log₂ n⌉` comparison bound the figures' cost model continues to use
//! for `StageCounts::sort_comparisons`.

use crate::csr::CsrAssignments;
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;

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
pub fn splat_key(depth: f32, index: u32) -> u64 {
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
pub struct KeySortRun {
    /// Keys submitted to the sorter.
    pub keys: u64,
    /// Radix digit passes actually executed (constant digit bytes are
    /// skipped).
    pub passes: u64,
    /// Modeled merge-sort comparisons for the same list (`n·⌈log₂ n⌉`).
    pub modeled_comparisons: u64,
}

impl KeySortRun {
    /// Accumulates this run into a stage counter set.
    pub fn accumulate(&self, counts: &mut StageCounts) {
        counts.sort_keys += self.keys;
        counts.radix_passes += self.passes;
        counts.sort_comparisons += self.modeled_comparisons;
    }
}

/// Reusable buffers for the radix sort. Owning one per session makes
/// repeated sorting allocation-free once the buffers have grown to the
/// largest list encountered.
#[derive(Debug, Clone)]
pub struct KeySortScratch<T> {
    pairs: Vec<(u64, T)>,
    scatter: Vec<(u64, T)>,
}

impl<T: Copy> KeySortScratch<T> {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            pairs: Vec::new(),
            scatter: Vec::new(),
        }
    }

    /// Sorts `items` ascending by `key_of` with a stable LSD radix sort.
    ///
    /// Keys must be unique for the order to be independent of the input
    /// permutation (splat keys are: the scene index occupies the low bits).
    /// Digit positions on which every key agrees are skipped, so the common
    /// case — small positive depths, small indices — runs far fewer than
    /// eight passes.
    pub fn sort_by_key<F>(&mut self, items: &mut [T], key_of: F) -> KeySortRun
    where
        F: Fn(&T) -> u64,
    {
        let n = items.len();
        let run_of = |passes: u64| KeySortRun {
            keys: n as u64,
            passes,
            modeled_comparisons: modeled_merge_comparisons(n),
        };
        if n <= 1 {
            return run_of(0);
        }

        self.pairs.clear();
        self.pairs
            .extend(items.iter().map(|item| (key_of(item), *item)));
        let first = self.pairs[0].0;
        let mut differing = 0u64;
        for &(key, _) in &self.pairs {
            differing |= key ^ first;
        }
        self.scatter.clear();
        self.scatter.resize(n, self.pairs[0]);

        let mut passes = 0u64;
        for byte in 0..8 {
            let shift = byte * 8;
            if (differing >> shift) & 0xFF == 0 {
                continue;
            }
            passes += 1;
            let mut histogram = [0u32; 256];
            for &(key, _) in &self.pairs {
                histogram[((key >> shift) & 0xFF) as usize] += 1;
            }
            let mut running = 0u32;
            for slot in histogram.iter_mut() {
                let count = *slot;
                *slot = running;
                running += count;
            }
            for &pair in &self.pairs {
                let bucket = ((pair.0 >> shift) & 0xFF) as usize;
                self.scatter[histogram[bucket] as usize] = pair;
                histogram[bucket] += 1;
            }
            std::mem::swap(&mut self.pairs, &mut self.scatter);
        }

        for (dst, &(_, item)) in items.iter_mut().zip(&self.pairs) {
            *dst = item;
        }
        run_of(passes)
    }

    /// Bytes currently reserved by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        (self.pairs.capacity() + self.scatter.capacity()) * std::mem::size_of::<(u64, T)>()
    }
}

impl<T: Copy> Default for KeySortScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Sorts every bin of a CSR assignment front-to-back by [`splat_key`],
/// accumulating the measured key-sort counters and the modeled comparison
/// count into `counts`. `slot_of` maps an entry to its position in
/// `projected` — the identity for the baseline's `u32` tile lists, the
/// `slot` field for GS-TG's group entries — so both pipelines order by the
/// same key and a filtered group list equals the baseline's tile list.
/// Depths are finite by the preprocessing contract, so the sign-flip key
/// mapping reproduces the `(depth, scene index)` comparator order exactly.
pub fn sort_bins_by_depth<T: Copy>(
    bins: &mut CsrAssignments<T>,
    projected: &[ProjectedGaussian],
    slot_of: impl Fn(&T) -> u32,
    counts: &mut StageCounts,
    scratch: &mut KeySortScratch<T>,
) {
    for bin in 0..bins.bin_count() {
        let list = bins.bin_mut(bin);
        if list.len() > 1 {
            scratch
                .sort_by_key(list, |entry| {
                    let splat = &projected[slot_of(entry) as usize];
                    splat_key(splat.depth, splat.index)
                })
                .accumulate(counts);
        }
    }
}

/// Returns `true` when a list of splat references is sorted front-to-back
/// (by depth, ties by scene index). Used by tests and equivalence checks.
pub fn is_sorted_by_depth<T>(
    list: &[T],
    projected: &[ProjectedGaussian],
    slot_of: impl Fn(&T) -> u32,
) -> bool {
    list.windows(2).all(|w| {
        let a = &projected[slot_of(&w[0]) as usize];
        let b = &projected[slot_of(&w[1]) as usize];
        a.depth < b.depth || (a.depth == b.depth && a.index <= b.index)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut items: Vec<u64> = (0..len)
                .map(|i| (rng.range_f64(0.0, 1000.0).to_bits() & 0xFFFF_FF00) | i as u64)
                .collect();
            let mut expected = items.clone();
            expected.sort_unstable();
            let run = scratch.sort_by_key(&mut items, |&k| k);
            assert_eq!(items, expected);
            assert_eq!(run.keys, len as u64);
            assert!(run.passes <= 8);
        }
    }

    #[test]
    fn constant_digit_bytes_are_skipped() {
        let mut scratch = KeySortScratch::new();
        // Keys differ only in the lowest byte: exactly one pass.
        let mut items = vec![5u64, 3, 9, 1];
        let run = scratch.sort_by_key(&mut items, |&k| k);
        assert_eq!(items, vec![1, 3, 5, 9]);
        assert_eq!(run.passes, 1);
    }

    #[test]
    fn single_and_empty_lists_cost_nothing() {
        let mut scratch: KeySortScratch<u32> = KeySortScratch::new();
        let mut empty: Vec<u32> = vec![];
        let run = scratch.sort_by_key(&mut empty, |&k| u64::from(k));
        assert_eq!(run.passes, 0);
        assert_eq!(run.modeled_comparisons, 0);
        let mut single = vec![7u32];
        let run = scratch.sort_by_key(&mut single, |&k| u64::from(k));
        assert_eq!(run.passes, 0);
        assert_eq!(single, vec![7]);
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
        let mut items: Vec<u64> = (0..64).rev().collect();
        scratch.sort_by_key(&mut items, |&k| k);
        let warmed = scratch.footprint_bytes();
        assert!(warmed > 0);
        let mut again: Vec<u64> = (0..64).rev().collect();
        scratch.sort_by_key(&mut again, |&k| k);
        assert_eq!(scratch.footprint_bytes(), warmed);
    }
}
