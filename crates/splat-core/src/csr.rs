//! Flat CSR-style assignment storage shared by both pipelines.
//!
//! Tile identification (baseline) and group identification (GS-TG) both
//! produce "for every bin, the list of entries assigned to it". The seed
//! implementation stored that as `Vec<Vec<_>>`, re-allocating every inner
//! vector every frame. This module stores the same data as one flat entry
//! buffer plus a prefix-sum offset table — the layout GPU splat renderers
//! build with a counting prepass — so a session can rebuild assignments
//! frame after frame without touching the allocator.
//!
//! Building is a two-phase counting sort: identification *stages* every
//! `(bin, entry)` pair in discovery order (paying each intersection test
//! exactly once, so `StageCounts` are unchanged), then [`CsrScratch::
//! build_into`] counts bins, prefix-sums the offsets and stably scatters
//! the staged pairs. Stability preserves the scene-order invariant the
//! depth sort's tie-breaking relies on.

/// Per-bin entry lists in CSR form: `offsets[bin]..offsets[bin + 1]` slices
/// one flat entry buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAssignments<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T> CsrAssignments<T> {
    /// An empty layout with zero bins.
    pub fn new() -> Self {
        Self::with_bins(0)
    }

    /// An empty layout with `bins` empty bins.
    pub fn with_bins(bins: usize) -> Self {
        Self {
            offsets: vec![0; bins + 1],
            entries: Vec::new(),
        }
    }

    /// Number of bins.
    #[inline]
    pub fn bin_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The entries of one bin.
    ///
    /// # Panics
    ///
    /// Panics when `bin` is out of bounds.
    #[inline]
    pub fn bin(&self, bin: usize) -> &[T] {
        &self.entries[self.offsets[bin] as usize..self.offsets[bin + 1] as usize]
    }

    /// Mutable access to one bin (used by the in-place depth sort).
    ///
    /// # Panics
    ///
    /// Panics when `bin` is out of bounds.
    #[inline]
    pub(crate) fn bin_mut(&mut self, bin: usize) -> &mut [T] {
        let start = self.offsets[bin] as usize;
        let end = self.offsets[bin + 1] as usize;
        &mut self.entries[start..end]
    }

    /// Total number of entries across all bins.
    #[inline]
    pub fn total_entries(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Iterates over `(bin_index, entries)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[T])> {
        (0..self.bin_count()).map(move |bin| (bin, self.bin(bin)))
    }

    /// Bytes currently reserved by the offset and entry buffers.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> Default for CsrAssignments<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable staging buffers for building a [`CsrAssignments`].
#[derive(Debug, Clone)]
pub struct CsrScratch<T> {
    staged: Vec<(u32, T)>,
    cursors: Vec<u32>,
}

impl<T: Copy> CsrScratch<T> {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            staged: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Drops all staged pairs, keeping the buffer capacity.
    pub fn clear(&mut self) {
        self.staged.clear();
    }

    /// Stages one `(bin, entry)` pair in discovery order.
    #[inline]
    pub fn stage(&mut self, bin: u32, entry: T) {
        self.staged.push((bin, entry));
    }

    /// Counting prepass → prefix-sum offsets → stable scatter: rebuilds
    /// `out` from the staged pairs over `bins` bins. Entries keep their
    /// staging order within each bin.
    ///
    /// # Panics
    ///
    /// Panics when a staged bin index is `>= bins`.
    pub fn build_into(&mut self, bins: usize, out: &mut CsrAssignments<T>)
    where
        T: Default,
    {
        self.cursors.clear();
        self.cursors.resize(bins, 0);
        for &(bin, _) in &self.staged {
            self.cursors[bin as usize] += 1;
        }

        out.offsets.clear();
        out.offsets.resize(bins + 1, 0);
        let mut running = 0u32;
        for (bin, cursor) in self.cursors.iter_mut().enumerate() {
            out.offsets[bin] = running;
            let count = *cursor;
            // The cursor becomes the bin's write position for the scatter.
            *cursor = running;
            running += count;
        }
        out.offsets[bins] = running;

        // The scatter writes every position of `[0, running)` exactly once,
        // so only growth past the previous frame's length is filled.
        out.entries.resize(running as usize, T::default());
        for &(bin, entry) in &self.staged {
            let cursor = &mut self.cursors[bin as usize];
            out.entries[*cursor as usize] = entry;
            *cursor += 1;
        }
    }

    /// Bytes currently reserved by the staging buffers.
    pub fn footprint_bytes(&self) -> usize {
        self.staged.capacity() * std::mem::size_of::<(u32, T)>()
            + self.cursors.capacity() * std::mem::size_of::<u32>()
    }
}

impl<T: Copy> Default for CsrScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(bins: usize, pairs: &[(u32, u32)]) -> CsrAssignments<u32> {
        let mut scratch = CsrScratch::new();
        for &(bin, entry) in pairs {
            scratch.stage(bin, entry);
        }
        let mut out = CsrAssignments::new();
        scratch.build_into(bins, &mut out);
        out
    }

    #[test]
    fn empty_build_has_empty_bins() {
        let csr = build(3, &[]);
        assert_eq!(csr.bin_count(), 3);
        assert_eq!(csr.total_entries(), 0);
        for (_, bin) in csr.iter() {
            assert!(bin.is_empty());
        }
    }

    #[test]
    fn scatter_preserves_staging_order_within_bins() {
        let csr = build(2, &[(1, 10), (0, 20), (1, 30), (0, 40), (1, 50)]);
        assert_eq!(csr.bin(0), &[20, 40]);
        assert_eq!(csr.bin(1), &[10, 30, 50]);
        assert_eq!(csr.total_entries(), 5);
    }

    #[test]
    fn bin_mut_sorts_in_place() {
        let mut csr = build(2, &[(0, 9), (0, 3), (0, 7), (1, 1)]);
        csr.bin_mut(0).sort_unstable();
        assert_eq!(csr.bin(0), &[3, 7, 9]);
        assert_eq!(csr.bin(1), &[1]);
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let mut scratch = CsrScratch::new();
        let mut out = CsrAssignments::new();
        for &(bin, entry) in &[(2u32, 1u32), (0, 2), (2, 3)] {
            scratch.stage(bin, entry);
        }
        scratch.build_into(4, &mut out);
        let scratch_bytes = scratch.footprint_bytes();
        let out_bytes = out.footprint_bytes();

        scratch.clear();
        for &(bin, entry) in &[(1u32, 4u32), (1, 5)] {
            scratch.stage(bin, entry);
        }
        scratch.build_into(4, &mut out);
        assert_eq!(out.bin(1), &[4, 5]);
        assert!(out.bin(2).is_empty());
        assert_eq!(scratch.footprint_bytes(), scratch_bytes);
        assert_eq!(out.footprint_bytes(), out_bytes);
    }

    /// A rebuild into a buffer that held a larger, then a smaller frame
    /// overwrites every entry it keeps: each build equals a fresh one.
    #[test]
    fn rebuild_after_a_larger_frame_equals_a_fresh_build() {
        let frame = |pairs: u32, bins: u32, seed: u32| -> Vec<(u32, u32)> {
            (0..pairs)
                .map(|i| ((i * 7 + seed) % bins, i.wrapping_mul(2_654_435_761) ^ seed))
                .collect()
        };
        let frames = [
            (64, frame(5_000, 64, 1)),
            (16, frame(300, 16, 2)),
            (64, frame(4_000, 64, 3)),
            (3, frame(0, 3, 4)),
            (64, frame(5_000, 64, 5)),
        ];
        let mut scratch = CsrScratch::new();
        let mut out = CsrAssignments::new();
        for (bins, pairs) in &frames {
            scratch.clear();
            for &(bin, entry) in pairs {
                scratch.stage(bin, entry);
            }
            scratch.build_into(*bins as usize, &mut out);
            assert_eq!(out, build(*bins as usize, pairs));
        }
    }

    #[test]
    fn iter_walks_every_bin_in_order() {
        let csr = build(3, &[(2, 7)]);
        let bins: Vec<usize> = csr.iter().map(|(i, _)| i).collect();
        assert_eq!(bins, vec![0, 1, 2]);
        assert_eq!(csr.iter().map(|(_, b)| b.len()).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bin_panics() {
        let csr = build(2, &[(0, 1)]);
        let _ = csr.bin(2);
    }
}
