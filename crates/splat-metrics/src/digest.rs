//! Tiny deterministic FNV-1a digests for golden-image regression tests.
//!
//! A framebuffer digest turns "are these two million floats bit-identical
//! to last release" into one `u64` comparison that can be pinned in a test
//! source file. FNV-1a is the right tool precisely because it is *not*
//! cryptographic: it is a dozen lines, allocation-free, byte-order
//! explicit (little-endian, `f32::to_bits`), and stable forever — the
//! golden values never rot with a dependency bump.
//!
//! ```
//! use splat_metrics::{digest_f32s, fnv1a64, Fnv1a64};
//!
//! // The classic FNV-1a test vector.
//! assert_eq!(fnv1a64(*b"foobar"), 0x85944171f73967e8);
//!
//! // Streaming and one-shot digests agree.
//! let mut hasher = Fnv1a64::new();
//! hasher.write_f32(1.5);
//! hasher.write_f32(-0.25);
//! assert_eq!(hasher.finish(), digest_f32s([1.5, -0.25]));
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
}
