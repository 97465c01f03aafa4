//! Property-style coverage of the binary `.splat` codec: round-trips
//! across seeds, profiles and SH degrees; exhaustive truncation and
//! single-byte corruption sweeps that must always land in a typed
//! [`DecodeError`] — never a panic, and never an invalid scene.
//!
//! The upload endpoint of `splat-serve` feeds untrusted bytes straight
//! into [`decode_scene`], so this file is the fuzz-shaped contract the
//! network front door relies on.

use splat_scene::io::{decode_scene, encode_scene, DecodeError};
use splat_scene::{Scene, SceneGenerator, SynthProfile};

fn synth(seed: u64, count: usize, sh_degree: usize) -> Scene {
    let mut profile = SynthProfile::default().with_count(count);
    profile.sh_degree = sh_degree;
    SceneGenerator::new(profile, seed).generate(format!("prop-{seed}-{count}"), 128, 96)
}

/// The loader boundary's validity invariant: everything a successful
/// decode returns is renderable (finite, in-domain, normalizable).
fn assert_valid(scene: &Scene) {
    for gaussian in scene.iter() {
        assert!(gaussian.position().is_finite());
        assert!(gaussian.scale().is_finite());
        assert!(gaussian.scale().x > 0.0 && gaussian.scale().y > 0.0 && gaussian.scale().z > 0.0);
        assert!((0.0..=1.0).contains(&gaussian.opacity()));
        assert!(gaussian.rotation().norm() > f32::EPSILON);
        for coeff in gaussian.sh().coefficients() {
            assert!(coeff.r.is_finite() && coeff.g.is_finite() && coeff.b.is_finite());
        }
    }
}

fn assert_round_trip(scene: &Scene) {
    let encoded = encode_scene(scene);
    let decoded = decode_scene(&encoded).expect("synth scenes always decode");
    assert_eq!(decoded.name(), scene.name());
    assert_eq!(decoded.len(), scene.len());
    assert_eq!(
        (decoded.width(), decoded.height()),
        (scene.width(), scene.height())
    );
    // Decoding is the exact inverse of encoding: every field, rotation
    // bits included, comes back bit-identical.
    for (a, b) in decoded.iter().zip(scene.iter()) {
        assert_eq!(a, b);
    }
    assert_valid(&decoded);

    // And re-encoding reproduces the bytes, so repeated round-trips (an
    // upload of a downloaded scene) can never drift.
    assert_eq!(encode_scene(&decoded), encoded);
}

#[test]
fn round_trip_holds_across_seeds_and_profiles() {
    for seed in [0, 1, 7, 99] {
        assert_round_trip(&synth(seed, 33, 1));
    }
    assert_round_trip(&synth(3, 1, 0));
    assert_round_trip(&synth(4, 257, 2));
}

#[test]
fn round_trip_holds_across_sh_degrees() {
    for sh_degree in 0..=2 {
        let scene = synth(11, 17, sh_degree);
        assert_round_trip(&scene);
        let decoded = decode_scene(&encode_scene(&scene)).expect("decodes");
        let expected = (sh_degree + 1) * (sh_degree + 1);
        for gaussian in decoded.iter() {
            assert_eq!(gaussian.sh().coefficients().len(), expected);
        }
    }
}

#[test]
fn every_strict_prefix_is_a_typed_eof() {
    let bytes = encode_scene(&synth(5, 4, 1));
    for len in 0..bytes.len() {
        assert_eq!(
            decode_scene(&bytes[..len]),
            Err(DecodeError::UnexpectedEof),
            "prefix of {len}/{} bytes must report EOF",
            bytes.len()
        );
    }
}

#[test]
fn single_byte_corruption_is_always_typed_and_never_invalid() {
    let scene = synth(6, 3, 1);
    let bytes = encode_scene(&scene);
    let mut bad_magic = 0usize;
    let mut bad_version = 0usize;
    let mut eof = 0usize;
    let mut domain = 0usize;
    for position in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        if let Some(byte) = corrupted.get_mut(position) {
            *byte ^= 0xFF;
        }
        match decode_scene(&corrupted) {
            // A flip can land in a don't-care spot (e.g. a name byte or
            // a still-in-domain float) — then the decode must still
            // produce a fully valid scene.
            Ok(decoded) => assert_valid(&decoded),
            Err(DecodeError::BadMagic) => bad_magic += 1,
            Err(DecodeError::UnsupportedVersion(_)) => bad_version += 1,
            Err(DecodeError::UnexpectedEof) => eof += 1,
            Err(DecodeError::InvalidField(_)) | Err(DecodeError::NonFinite(_)) => domain += 1,
        }
    }
    // The sweep must have exercised every refusal class: the magic, the
    // version, the length-bearing header fields, and the parameter
    // domain checks.
    assert_eq!(bad_magic, 4, "each magic byte flip must be refused");
    assert!(bad_version >= 1, "version flips must be refused");
    assert!(eof >= 1, "length-field flips must be refused as EOF");
    assert!(domain >= 1, "parameter flips must hit the domain checks");
}

#[test]
fn corrupted_length_fields_cannot_allocate_unbounded() {
    // Declare u32::MAX splats on a tiny buffer: the decoder must refuse
    // with EOF once the buffer runs dry, not trust the count.
    let scene = synth(8, 2, 0);
    let mut bytes = encode_scene(&scene);
    let count_offset = 4 + 2 + 2 + scene.name().len() + 4 + 4;
    bytes
        .iter_mut()
        .skip(count_offset)
        .take(4)
        .for_each(|byte| *byte = 0xFF);
    assert_eq!(decode_scene(&bytes), Err(DecodeError::UnexpectedEof));
}
