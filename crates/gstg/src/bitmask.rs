//! Per-Gaussian tile bitmasks.
//!
//! Inside a tile group, a splat's influence on the individual small tiles
//! is encoded as a bitmask: bit `i` is set when the splat touches tile `i`
//! of the group (row-major within the group). The accelerator uses 16-bit
//! masks for its 4×4 grouping; the software pipeline stores up to 64 bits
//! so that the paper's full "tile+group" sweep (including 8+64, i.e. 8×8
//! tiles per group) can be explored.

use std::fmt;

/// A per-(group, splat) bitmask over the small tiles of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct TileBitmask(u64);

impl TileBitmask {
    /// The empty mask (splat touches no tile of the group).
    pub(crate) const EMPTY: Self = Self(0);

    /// Creates a mask from its raw bits.
    #[inline]
    pub(crate) const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Raw bit representation.
    #[inline]
    pub(crate) const fn to_bits(self) -> u64 {
        self.0
    }

    /// Sets the bit for tile `index` within the group.
    ///
    /// # Panics
    ///
    /// Panics when `index >= 64`.
    #[cfg(test)]
    pub(crate) fn set(&mut self, index: u32) {
        assert!(index < 64, "tile index {index} exceeds bitmask capacity");
        self.0 |= 1 << index;
    }

    /// Sets the `len` consecutive bits from `first` on: the contiguous
    /// column range of one tile row of the group.
    ///
    /// # Panics
    ///
    /// Panics when `len` is zero or the run reaches past bit 63.
    #[inline]
    pub(crate) fn set_run(&mut self, first: u32, len: u32) {
        assert!(
            len >= 1 && first + len <= 64,
            "tiles {first}..{} exceed bitmask capacity",
            first + len
        );
        self.0 |= (u64::MAX >> (64 - len)) << first;
    }

    /// Returns `true` when the bit for tile `index` is set.
    ///
    /// # Panics
    ///
    /// Panics when `index >= 64`.
    #[cfg(test)]
    #[inline]
    pub(crate) fn contains(self, index: u32) -> bool {
        assert!(index < 64, "tile index {index} exceeds bitmask capacity");
        self.0 & (1 << index) != 0
    }

    /// Number of tiles marked in the mask.
    #[inline]
    pub(crate) fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` when no tile is marked.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The hardware filter operation of the rasterization module: AND the
    /// mask with a one-hot tile-location mask and OR-reduce to a valid
    /// flag. Equivalent to [`TileBitmask::contains`], expressed the way the
    /// RM datapath computes it.
    #[cfg(test)]
    #[inline]
    pub(crate) fn filter(self, tile_location: TileBitmask) -> bool {
        (self.0 & tile_location.0) != 0
    }

    /// A one-hot mask selecting tile `index`, the `Tile_Location` operand of
    /// the RM's AND/OR filter.
    #[cfg(test)]
    #[inline]
    pub(crate) fn one_hot(index: u32) -> Self {
        assert!(index < 64, "tile index {index} exceeds bitmask capacity");
        Self(1 << index)
    }
}

impl fmt::Display for TileBitmask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016b}", self.0 & 0xFFFF)
    }
}

impl fmt::Binary for TileBitmask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// Geometry of a tile group: how many small tiles it spans and how tile
/// coordinates map to bitmask bit indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupLayout {
    tile_size: u32,
    tiles_per_side: u32,
}

impl GroupLayout {
    /// Creates the layout for a group of `tiles_per_side`×`tiles_per_side`
    /// small tiles of `tile_size` pixels each.
    ///
    /// # Panics
    ///
    /// Panics when the group would exceed the 64-bit mask capacity.
    pub(crate) fn new(tile_size: u32, tiles_per_side: u32) -> Self {
        assert!(
            tiles_per_side >= 1 && tiles_per_side * tiles_per_side <= 64,
            "group of {tiles_per_side}x{tiles_per_side} tiles exceeds bitmask capacity"
        );
        Self {
            tile_size,
            tiles_per_side,
        }
    }

    /// Number of small tiles along one group edge.
    #[inline]
    pub(crate) fn tiles_per_side(&self) -> u32 {
        self.tiles_per_side
    }

    /// Number of small tiles in the group.
    #[inline]
    pub(crate) fn tiles_per_group(&self) -> u32 {
        self.tiles_per_side * self.tiles_per_side
    }

    /// Bitmask bit index of the tile at `(tx_in_group, ty_in_group)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates exceed the group.
    #[cfg(test)]
    pub(crate) fn bit_index(&self, tx_in_group: u32, ty_in_group: u32) -> u32 {
        assert!(
            tx_in_group < self.tiles_per_side && ty_in_group < self.tiles_per_side,
            "tile ({tx_in_group},{ty_in_group}) outside group"
        );
        ty_in_group * self.tiles_per_side + tx_in_group
    }

    /// `⌊tile / tiles_per_side⌋`: the coordinate of the group holding tile
    /// coordinate `tile` (negative or past the grid alike). A shift when the
    /// side is a power of two, the common case, instead of a division.
    #[inline]
    pub(crate) fn group_of_tile(&self, tile: i64) -> i64 {
        if self.tiles_per_side.is_power_of_two() {
            tile >> self.tiles_per_side.trailing_zeros()
        } else {
            tile.div_euclid(i64::from(self.tiles_per_side))
        }
    }

    /// Inverse of [`GroupLayout::bit_index`].
    #[inline]
    pub(crate) fn tile_of_bit(&self, bit: u32) -> (u32, u32) {
        (bit % self.tiles_per_side, bit / self.tiles_per_side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_contains_round_trip() {
        let mut m = TileBitmask::EMPTY;
        m.set(0);
        m.set(15);
        m.set(63);
        assert!(m.contains(0) && m.contains(15) && m.contains(63));
        assert!(!m.contains(1) && !m.contains(32));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn filter_matches_contains() {
        let mut m = TileBitmask::EMPTY;
        m.set(5);
        assert!(m.filter(TileBitmask::one_hot(5)));
        assert!(!m.filter(TileBitmask::one_hot(6)));
    }

    #[test]
    fn empty_mask_properties() {
        assert!(TileBitmask::EMPTY.is_empty());
        assert_eq!(TileBitmask::EMPTY.count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds bitmask capacity")]
    fn out_of_range_bit_panics() {
        let mut m = TileBitmask::EMPTY;
        m.set(64);
    }

    #[test]
    fn display_shows_16_bits() {
        let mut m = TileBitmask::EMPTY;
        m.set(0);
        m.set(15);
        assert_eq!(m.to_string(), "1000000000000001");
    }

    #[test]
    fn layout_bit_indexing_round_trips() {
        let layout = GroupLayout::new(16, 4);
        assert_eq!(layout.tile_size * layout.tiles_per_side, 64);
        assert_eq!(layout.tiles_per_group(), 16);
        for ty in 0..4 {
            for tx in 0..4 {
                let bit = layout.bit_index(tx, ty);
                assert!(bit < 16);
                assert_eq!(layout.tile_of_bit(bit), (tx, ty));
            }
        }
    }

    #[test]
    fn paper_hardware_layout_is_16_bits() {
        // The accelerator groups 16 tiles of 16×16 pixels (Fig. 9).
        let layout = GroupLayout::new(16, 4);
        assert_eq!(layout.tiles_per_group(), 16);
        assert!(
            layout.tiles_per_group() <= 16,
            "fits the 16-bit hardware mask"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds bitmask capacity")]
    fn oversized_layout_panics() {
        let _ = GroupLayout::new(8, 9);
    }

    #[test]
    fn count_matches_number_of_set_operations() {
        // Deterministic sweep over sampled index sets (stands in for the
        // previous proptest generator).
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x0B17_3A5C);
        for case in 0u64..200 {
            let mut indices = std::collections::BTreeSet::new();
            for _ in 0..(case % 20) {
                indices.insert(rng.gen_index(64) as u32);
            }
            let mut m = TileBitmask::EMPTY;
            for &i in &indices {
                m.set(i);
            }
            assert_eq!(m.count() as usize, indices.len());
            for &i in &indices {
                assert!(m.contains(i));
            }
        }
    }

    #[test]
    fn filter_is_equivalent_to_contains() {
        let mut rng = splat_types::rng::Rng::seed_from_u64(0x00F1_17E4);
        for _ in 0..64 {
            let m = TileBitmask::from_bits(rng.next_u64());
            for index in 0..64 {
                assert_eq!(m.filter(TileBitmask::one_hot(index)), m.contains(index));
            }
        }
    }
}
