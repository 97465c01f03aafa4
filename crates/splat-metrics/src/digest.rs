//! Tiny deterministic FNV-1a digests for golden-image regression tests and
//! the wire.
//!
//! A framebuffer digest turns "are these two million floats bit-identical
//! to last release" into one `u64` comparison that can be pinned in a test
//! source file. FNV-1a is the right tool precisely because it is *not*
//! cryptographic: it is a dozen lines, allocation-free, byte-order
//! explicit (little-endian, `f32::to_bits`), and stable forever — the
//! golden values never rot with a dependency bump.
//!
//! Canonical FNV-1a ([`Fnv1a64`]) is one dependent xor-and-multiply per
//! byte, so a large buffer hashes no faster than that chain. The lane digest
//! ([`Fnv1a64Lanes`], [`fnv1a64_lanes`]) splits the input into
//! little-endian `u32` words and deals word `i` to lane `i mod 8`; the eight
//! independent chains run side by side, and canonical FNV-1a over the eight
//! lane states gives the digest. It is a different function with different
//! values: a lane digest is never compared with a canonical one.
//!
//! ```
//! use splat_metrics::{digest_f32s, fnv1a64, fnv1a64_lanes, Fnv1a64, Fnv1a64Lanes};
//!
//! // The classic FNV-1a test vector.
//! assert_eq!(fnv1a64(*b"foobar"), 0x85944171f73967e8);
//!
//! // Streaming and one-shot digests agree.
//! let mut hasher = Fnv1a64::new();
//! hasher.write_f32(1.5);
//! hasher.write_f32(-0.25);
//! assert_eq!(hasher.finish(), digest_f32s([1.5, -0.25]));
//!
//! // The lane digest of nothing is canonical FNV-1a over eight offset bases.
//! assert_eq!(fnv1a64_lanes(&[]), 0xaf34_49a2_699d_5925);
//!
//! // Streaming lane digests agree with one-shot ones however the input is cut.
//! let bytes: Vec<u8> = (0..=99).collect();
//! let mut lanes = Fnv1a64Lanes::new();
//! lanes.write(&bytes[..7]);
//! lanes.write(&bytes[7..]);
//! assert_eq!(lanes.finish(), fnv1a64_lanes(&bytes));
//! ```

/// The FNV-1a 64-bit offset basis.
pub(crate) const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub(crate) const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
///
/// Bytes are absorbed one at a time (`hash = (hash ^ byte) * prime`);
/// floats are absorbed as their IEEE-754 bit patterns in little-endian
/// byte order, so the digest is exactly reproducible across platforms and
/// distinguishes `-0.0` from `+0.0` — bit drift of any kind must trip a
/// golden test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV1A64_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state = (self.state ^ u64::from(byte)).wrapping_mul(FNV1A64_PRIME);
        }
    }

    /// Absorbs one `f32` as its little-endian bit pattern.
    pub fn write_f32(&mut self, value: f32) {
        self.write(&value.to_bits().to_le_bytes());
    }

    /// Absorbs one `u64` as its little-endian bytes (useful for mixing
    /// dimensions into an image digest).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64-bit digest of a byte sequence.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hasher = Fnv1a64::new();
    for byte in bytes {
        hasher.write(&[byte]);
    }
    hasher.finish()
}

/// One-shot digest of a sequence of `f32`s (little-endian bit patterns) —
/// the helper golden-image tests use on framebuffer channel data.
pub fn digest_f32s(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut hasher = Fnv1a64::new();
    for value in values {
        hasher.write_f32(value);
    }
    hasher.finish()
}

/// Lanes of [`Fnv1a64Lanes`]: word `i` of the input goes to lane `i mod 8`.
const LANES: usize = 8;

/// Bytes of one full round: one little-endian `u32` word per lane.
const BLOCK: usize = LANES * 4;

/// Streaming eight-lane FNV-1a 64-bit hasher over little-endian `u32`
/// words.
///
/// Word `i` of the input (bytes `4i..4i + 4`, little-endian) goes to lane
/// `i mod 8`. Each lane starts at the FNV-1a offset basis and absorbs a
/// word as `lane = (lane ^ word) * prime`. The digest is canonical
/// [`Fnv1a64`] over the eight lane states, each written little-endian,
/// lane 0 first. A trailing partial word is zero-padded.
///
/// The eight multiply chains are independent, so the digest costs a small
/// fraction of canonical FNV-1a's one chain per byte. How the input is cut
/// into [`write`](Self::write) calls does not change the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64Lanes {
    lanes: [u64; LANES],
    /// Bytes written since the last full round, waiting for the rest of it.
    pending: [u8; BLOCK],
    pending_len: usize,
}

impl Fnv1a64Lanes {
    /// A fresh hasher with every lane at the FNV offset basis.
    pub fn new() -> Self {
        Self {
            lanes: [FNV1A64_OFFSET; LANES],
            pending: [0; BLOCK],
            pending_len: 0,
        }
    }

    /// Absorbs raw bytes, continuing the word stream where the last call
    /// stopped.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        if self.pending_len > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(BLOCK - self.pending_len));
            for (slot, byte) in self.pending.iter_mut().skip(self.pending_len).zip(head) {
                *slot = *byte;
            }
            self.pending_len += head.len();
            if self.pending_len < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.pending);
            self.pending_len = 0;
            bytes = rest;
        }
        // The lanes live in locals across the loop, not behind `&mut self`:
        // through the reference every round reloads and stores all eight.
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            if let Ok(block) = <&[u8; BLOCK]>::try_from(block) {
                absorb(&mut lanes, block);
            }
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        for (slot, byte) in self.pending.iter_mut().zip(tail) {
            *slot = *byte;
        }
        self.pending_len = tail.len();
    }

    /// Absorbs `words`, each as its four little-endian bytes: the same
    /// digest as [`write`](Self::write) of their bytes. When the stream is
    /// at a round boundary, whole rounds go straight into the lanes without
    /// being laid out as bytes first.
    pub fn write_u32s<const N: usize>(&mut self, words: [u32; N]) {
        if self.pending_len > 0 {
            for word in words {
                self.write(&word.to_le_bytes());
            }
            return;
        }
        let mut lanes = self.lanes;
        let mut rounds = words.chunks_exact(LANES);
        for round in &mut rounds {
            for (lane, word) in lanes.iter_mut().zip(round) {
                *lane = absorb_word(*lane, *word);
            }
        }
        self.lanes = lanes;
        for word in rounds.remainder() {
            self.write(&word.to_le_bytes());
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let pending = self.pending.get(..self.pending_len).unwrap_or_default();
        for (lane, word) in lanes.iter_mut().zip(pending.chunks(4)) {
            let mut padded = [0u8; 4];
            for (slot, byte) in padded.iter_mut().zip(word) {
                *slot = *byte;
            }
            *lane = absorb_word(*lane, u32::from_le_bytes(padded));
        }
        let mut hasher = Fnv1a64::new();
        for lane in lanes {
            hasher.write_u64(lane);
        }
        hasher.finish()
    }
}

impl Default for Fnv1a64Lanes {
    fn default() -> Self {
        Self::new()
    }
}

/// One round: word `k` of `block` into lane `k`.
#[inline]
fn absorb(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
        let word: [u8; 4] = word.try_into().unwrap_or_default();
        *lane = absorb_word(*lane, u32::from_le_bytes(word));
    }
}

#[inline]
fn absorb_word(lane: u64, word: u32) -> u64 {
    (lane ^ u64::from(word)).wrapping_mul(FNV1A64_PRIME)
}

/// One-shot eight-lane FNV-1a 64-bit digest of a byte slice (see
/// [`Fnv1a64Lanes`]).
pub fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64Lanes::new();
    hasher.write(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification draft.
        assert_eq!(fnv1a64([]), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut hasher = Fnv1a64::new();
        hasher.write(b"foo");
        hasher.write(b"bar");
        assert_eq!(hasher.finish(), fnv1a64(*b"foobar"));
    }

    #[test]
    fn float_digest_is_bit_exact() {
        // Same values → same digest; any bit difference → different digest.
        assert_eq!(digest_f32s([0.5, 1.5]), digest_f32s([0.5, 1.5]));
        assert_ne!(digest_f32s([0.5, 1.5]), digest_f32s([1.5, 0.5]));
        assert_ne!(digest_f32s([0.0]), digest_f32s([-0.0]));
        assert_ne!(digest_f32s([]), digest_f32s([0.0]));
    }

    #[test]
    fn write_u64_mixes_dimensions() {
        let mut with_dims = Fnv1a64::new();
        with_dims.write_u64(96);
        with_dims.write_u64(64);
        with_dims.write_f32(0.5);
        assert_ne!(with_dims.finish(), digest_f32s([0.5]));
    }

    #[test]
    fn pinned_digest_of_a_known_sequence_never_drifts() {
        // A golden value for the golden-value helper itself: if this
        // constant changes, every pinned framebuffer digest is invalid.
        let digest = digest_f32s((0..16).map(|i| i as f32 * 0.125));
        assert_eq!(digest, 0x065b_0eb7_ae44_633b);
    }

    fn words(values: impl IntoIterator<Item = u32>) -> Vec<u8> {
        values.into_iter().flat_map(u32::to_le_bytes).collect()
    }

    #[test]
    fn lane_digest_matches_its_published_vectors() {
        // Empty: canonical FNV-1a over eight untouched offset bases.
        let offsets: Vec<u8> = (0..8).flat_map(|_| FNV1A64_OFFSET.to_le_bytes()).collect();
        assert_eq!(fnv1a64_lanes(&[]), fnv1a64(offsets));
        assert_eq!(fnv1a64_lanes(&[]), 0xaf34_49a2_699d_5925);
        // One word, 0x04030201: lane 0 takes it, lanes 1..8 stay at the basis.
        assert_eq!(fnv1a64_lanes(&[1, 2, 3, 4]), 0x73a1_9e38_5a3f_7f49);
        // Nine words 1..=9: lane 0 absorbs words 1 and 9.
        assert_eq!(fnv1a64_lanes(&words(1..=9)), 0xcf4e_cc02_05ab_dedf);
        // Trailing partial words are zero-padded.
        assert_eq!(fnv1a64_lanes(b"a"), 0xccbe_2a2b_8f60_76f1);
        assert_eq!(fnv1a64_lanes(b"a"), fnv1a64_lanes(&[b'a', 0, 0, 0]));
        assert_eq!(fnv1a64_lanes(b"foobar"), 0x8851_e27b_b11c_1060);
    }

    #[test]
    fn lane_digest_is_independent_of_how_the_input_is_cut() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = fnv1a64_lanes(&bytes);
        for cut in [0, 1, 3, 4, 8, 31, 32, 33, 100, 299, 300] {
            let (left, right) = bytes.split_at(cut);
            let mut hasher = Fnv1a64Lanes::new();
            hasher.write(left);
            hasher.write(right);
            assert_eq!(hasher.finish(), whole, "cut at {cut}");
        }
        let mut bytewise = Fnv1a64Lanes::new();
        for byte in &bytes {
            bytewise.write(std::slice::from_ref(byte));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn writing_words_equals_writing_their_bytes_at_any_offset() {
        let round: [u32; 24] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
        for offset in 0..12 {
            let prefix: Vec<u8> = (0..offset).map(|i| i as u8 ^ 0x5a).collect();
            let mut expected = prefix.clone();
            expected.extend(words(round).iter().chain(&words([7, 8, 9])));
            let mut hasher = Fnv1a64Lanes::new();
            hasher.write(&prefix);
            hasher.write_u32s(round);
            hasher.write_u32s([7, 8, 9]);
            assert_eq!(hasher.finish(), fnv1a64_lanes(&expected), "offset {offset}");
        }
    }

    #[test]
    fn lane_digest_depends_on_every_word_and_its_position() {
        let base = words(0..17);
        let digest = fnv1a64_lanes(&base);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            if let Some(byte) = flipped.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
            assert_ne!(fnv1a64_lanes(&flipped), digest, "bit {bit}");
        }
        // Swapping two words of the same lane (0 and 8) reorders one chain.
        let swapped = words((0..17).map(|i| match i {
            0 => 8,
            8 => 0,
            other => other,
        }));
        assert_ne!(fnv1a64_lanes(&swapped), digest);
        // A zero word is not the absence of a word.
        assert_ne!(fnv1a64_lanes(&words(0..1)), fnv1a64_lanes(&[]));
    }
}
