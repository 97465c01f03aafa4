//! Compact binary serialization of scenes.
//!
//! Scenes are large (hundreds of thousands of splats at the bigger scales),
//! so a simple length-prefixed binary layout is used. The format stores
//! every splat as fixed-width little-endian floats, mirroring the flat
//! parameter buffers the accelerator's DRAM model reasons about.

use crate::scene::Scene;
use splat_types::{Gaussian3d, Quat, Rgb, ShCoefficients, Vec3};
use std::fmt;

/// Magic bytes identifying the scene format.
const MAGIC: &[u8; 4] = b"GSTG";
/// Current format version.
const VERSION: u16 = 1;
/// A stored quaternion whose norm is this close to 1 is treated as already
/// normalized: the rounding noise a normalization leaves behind is a few
/// ULPs, well inside this bound.
const UNIT_NORM_TOLERANCE: f32 = 16.0 * f32::EPSILON;

/// Errors raised when decoding a binary scene.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared content was read.
    UnexpectedEof,
    /// A decoded field failed validation (e.g. opacity out of range).
    InvalidField(&'static str),
    /// A decoded splat parameter is NaN or infinite. Rejected at the
    /// loader boundary so non-finite geometry can never reach the
    /// renderers, where a NaN position or scale would poison depth sorting
    /// and blending.
    NonFinite(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "buffer is not a GSTG scene"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported scene format version {v}"),
            DecodeError::UnexpectedEof => write!(f, "scene buffer ended unexpectedly"),
            DecodeError::InvalidField(name) => write!(f, "invalid field `{name}` in scene buffer"),
            DecodeError::NonFinite(name) => {
                write!(f, "non-finite `{name}` in scene buffer (NaN or infinity)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a scene into the compact binary format.
pub fn encode_scene(scene: &Scene) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::with_capacity(64 + scene.len() * 64);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let name = scene.name().as_bytes();
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&scene.width().to_le_bytes());
    buf.extend_from_slice(&scene.height().to_le_bytes());
    buf.extend_from_slice(&(scene.len() as u32).to_le_bytes());
    for g in scene.iter() {
        put_vec3(&mut buf, g.position());
        put_vec3(&mut buf, g.scale());
        put_f32(&mut buf, g.rotation().w);
        put_f32(&mut buf, g.rotation().x);
        put_f32(&mut buf, g.rotation().y);
        put_f32(&mut buf, g.rotation().z);
        put_f32(&mut buf, g.opacity());
        let coeffs = g.sh().coefficients();
        buf.push(coeffs.len() as u8);
        for c in coeffs {
            put_f32(&mut buf, c.r);
            put_f32(&mut buf, c.g);
            put_f32(&mut buf, c.b);
        }
    }
    buf
}

/// Decodes a scene previously produced by [`encode_scene`].
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer is truncated, has the wrong
/// magic/version, or contains out-of-domain parameter values.
pub fn decode_scene(buf: &[u8]) -> Result<Scene, DecodeError> {
    let mut reader = Reader { buf };
    let magic = reader.take(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = reader.get_u16_le()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let name_len = reader.get_u16_le()? as usize;
    let name = String::from_utf8(reader.take(name_len)?.to_vec())
        .map_err(|_| DecodeError::InvalidField("name"))?;
    let width = reader.get_u32_le()?;
    let height = reader.get_u32_le()?;
    let count = reader.get_u32_le()? as usize;

    let mut gaussians = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let position = get_vec3(&mut reader)?;
        if !position.is_finite() {
            return Err(DecodeError::NonFinite("position"));
        }
        let scale = get_vec3(&mut reader)?;
        if !scale.is_finite() {
            return Err(DecodeError::NonFinite("scale"));
        }
        if !(scale.x > 0.0 && scale.y > 0.0 && scale.z > 0.0) {
            return Err(DecodeError::InvalidField("scale"));
        }
        let rotation = Quat::new(
            reader.get_f32_le()?,
            reader.get_f32_le()?,
            reader.get_f32_le()?,
            reader.get_f32_le()?,
        );
        if !(rotation.w.is_finite()
            && rotation.x.is_finite()
            && rotation.y.is_finite()
            && rotation.z.is_finite())
        {
            return Err(DecodeError::NonFinite("rotation"));
        }
        // A near-zero quaternion cannot be normalized into a rotation:
        // downstream it would either divide to NaN or be silently rewritten
        // to the identity — a different splat than the buffer declared.
        // Reject it here instead.
        if rotation.norm() <= f32::EPSILON {
            return Err(DecodeError::InvalidField("rotation"));
        }
        let opacity = reader.get_f32_le()?;
        if !opacity.is_finite() {
            return Err(DecodeError::NonFinite("opacity"));
        }
        if !(0.0..=1.0).contains(&opacity) {
            return Err(DecodeError::InvalidField("opacity"));
        }
        let coeff_count = reader.get_u8()? as usize;
        let mut coeffs = Vec::with_capacity(coeff_count);
        for _ in 0..coeff_count {
            let coeff = Rgb::new(
                reader.get_f32_le()?,
                reader.get_f32_le()?,
                reader.get_f32_le()?,
            );
            if !(coeff.r.is_finite() && coeff.g.is_finite() && coeff.b.is_finite()) {
                return Err(DecodeError::NonFinite("sh"));
            }
            coeffs.push(coeff);
        }
        let sh = ShCoefficients::from_coefficients(coeffs)
            .map_err(|_| DecodeError::InvalidField("sh"))?;
        let gaussian = Gaussian3d::builder()
            .position(position)
            .scale(scale)
            .rotation(rotation)
            .opacity(opacity)
            .sh(sh)
            .try_build()
            .map_err(|_| DecodeError::InvalidField("gaussian"))?;
        // The builder normalizes the rotation. Re-normalizing a quaternion
        // that is already unit-norm (every rotation `encode_scene` writes
        // is) can flip its last mantissa bit, so keep the stored bits then:
        // `encode(decode(bytes)) == bytes`, and an uploaded scene renders
        // the same digest as the sender's copy. Anything else from the wire
        // stays normalized.
        let gaussian = if (rotation.norm() - 1.0).abs() <= UNIT_NORM_TOLERANCE {
            gaussian.with_unit_rotation(rotation)
        } else {
            gaussian
        };
        gaussians.push(gaussian);
    }
    Ok(Scene::new(name, width, height, gaussians))
}

/// Bounds-checked little-endian reader over the input buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .buf
            .split_first_chunk()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.buf = tail;
        Ok(*head)
    }

    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    fn get_u16_le(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn get_f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.get_u32_le()?))
    }
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_vec3(buf: &mut Vec<u8>, v: Vec3) {
    put_f32(buf, v.x);
    put_f32(buf, v.y);
    put_f32(buf, v.z);
}

fn get_vec3(reader: &mut Reader<'_>) -> Result<Vec3, DecodeError> {
    Ok(Vec3::new(
        reader.get_f32_le()?,
        reader.get_f32_le()?,
        reader.get_f32_le()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SceneGenerator, SynthProfile};

    fn sample_scene() -> Scene {
        SceneGenerator::new(SynthProfile::default().with_count(64), 5).generate("sample", 320, 240)
    }

    #[test]
    fn round_trip_preserves_scene() {
        let scene = sample_scene();
        let encoded = encode_scene(&scene);
        let decoded = decode_scene(&encoded).expect("decodes");
        assert_eq!(decoded.name(), scene.name());
        assert_eq!(decoded.len(), scene.len());
        assert_eq!(
            (decoded.width(), decoded.height()),
            (scene.width(), scene.height())
        );
        // Bit-exact: decoding is the inverse of encoding, rotation bits
        // included.
        for (a, b) in decoded.iter().zip(scene.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(encode_scene(&decoded), encoded);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_scene(&sample_scene()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode_scene(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = encode_scene(&sample_scene()).to_vec();
        bytes[4] = 0xFF;
        assert!(matches!(
            decode_scene(&bytes),
            Err(DecodeError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode_scene(&sample_scene());
        let truncated = &bytes[..bytes.len() / 2];
        assert_eq!(decode_scene(truncated), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn empty_buffer_is_rejected() {
        assert_eq!(decode_scene(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn empty_scene_round_trips() {
        let scene = Scene::new("empty", 16, 16, vec![]);
        let decoded = decode_scene(&encode_scene(&scene)).unwrap();
        assert_eq!(decoded, scene);
    }

    #[test]
    fn decode_error_display_is_informative() {
        assert!(DecodeError::BadMagic.to_string().contains("GSTG"));
        assert!(DecodeError::InvalidField("sh").to_string().contains("sh"));
        assert!(DecodeError::NonFinite("scale")
            .to_string()
            .contains("non-finite `scale`"));
    }

    /// Byte offset of the first splat's parameters in an encoded buffer:
    /// magic (4) + version (2) + name length (2) + name + width (4) +
    /// height (4) + count (4).
    fn first_splat_offset(scene: &Scene) -> usize {
        4 + 2 + 2 + scene.name().len() + 4 + 4 + 4
    }

    fn patch_f32(bytes: &mut [u8], offset: usize, value: f32) {
        bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn out_of_domain_parameters_are_rejected_at_the_loader_boundary() {
        let scene = sample_scene();
        let base = first_splat_offset(&scene);
        // Finite but out-of-domain values must be refused with the
        // offending field, not the catch-all `gaussian` error (and never
        // silently rewritten): opacity outside [0, 1], non-positive scale.
        let cases = [
            ("opacity", 40, 1.5),
            ("opacity", 40, -0.25),
            ("scale", 12, 0.0),
            ("scale", 16, -1.0),
        ];
        for (field, offset, value) in cases {
            let mut bytes = encode_scene(&scene);
            patch_f32(&mut bytes, base + offset, value);
            assert_eq!(
                decode_scene(&bytes),
                Err(DecodeError::InvalidField(field)),
                "out-of-domain {field} = {value} must be rejected"
            );
        }
    }

    #[test]
    fn zero_quaternion_is_rejected_not_rewritten() {
        // A zero rotation quaternion cannot be normalized; earlier versions
        // let it through and the builder silently rewrote it to the
        // identity — a different splat than the buffer declared.
        let scene = sample_scene();
        let base = first_splat_offset(&scene);
        let mut bytes = encode_scene(&scene);
        for component in 0..4 {
            patch_f32(&mut bytes, base + 24 + component * 4, 0.0);
        }
        assert_eq!(
            decode_scene(&bytes),
            Err(DecodeError::InvalidField("rotation"))
        );
    }

    #[test]
    fn non_unit_quaternion_is_still_normalized() {
        // Only already-unit rotations keep their stored bits; a scaled
        // quaternion from the wire decodes to the unit rotation it points
        // at, exactly as before.
        let scene = sample_scene();
        let base = first_splat_offset(&scene);
        let stored = scene.gaussians()[0].rotation();
        let mut bytes = encode_scene(&scene);
        for (component, value) in [stored.w, stored.x, stored.y, stored.z]
            .into_iter()
            .enumerate()
        {
            patch_f32(&mut bytes, base + 24 + component * 4, value * 3.0);
        }
        let decoded = decode_scene(&bytes).expect("scaled rotation still decodes");
        let rotation = decoded.gaussians()[0].rotation();
        assert!((rotation.norm() - 1.0).abs() < 1e-6);
        assert!((rotation.w - stored.w).abs() < 1e-6);
    }

    #[test]
    fn non_finite_parameters_are_rejected_with_the_offending_field() {
        let scene = sample_scene();
        let base = first_splat_offset(&scene);
        // (field name, byte offset within the splat record, poison value):
        // position (12 B), scale (12 B), rotation (16 B), opacity (4 B),
        // SH count (1 B), then the SH coefficients.
        let cases = [
            ("position", 0, f32::NAN),
            ("scale", 12, f32::INFINITY),
            ("rotation", 24, f32::NEG_INFINITY),
            ("opacity", 40, f32::NAN),
            ("sh", 45, f32::NAN),
        ];
        for (field, offset, poison) in cases {
            let mut bytes = encode_scene(&scene);
            patch_f32(&mut bytes, base + offset, poison);
            assert_eq!(
                decode_scene(&bytes),
                Err(DecodeError::NonFinite(field)),
                "poisoned {field} must be rejected as non-finite"
            );
        }
    }
}
