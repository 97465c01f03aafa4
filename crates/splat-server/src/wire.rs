//! The binary frame wire format and typed request decoding.
//!
//! ## Frame body (`POST /render`)
//!
//! Little-endian, length-implicit:
//!
//! ```text
//! u32 width · u32 height · width*height × (f32 r · f32 g · f32 b)
//! ```
//!
//! The pixel order is row-major, identical to
//! [`Framebuffer::pixels`], so a decoded frame is bit-identical to the
//! in-process render and so is its digest — the property the loopback e2e
//! test and the benchmark's correctness gate pin.
//!
//! ## Frame digest (`X-Splat-Digest`)
//!
//! [`splat_metrics::fnv1a64_lanes`] of the frame body: the body is read
//! as little-endian `u32` words, word `i` goes to FNV-1a lane `i mod 8`
//! (`lane = (lane ^ word) * prime`, each lane starting at the offset
//! basis), and the digest is canonical byte-wise FNV-1a over the eight
//! lane states, little-endian, lane 0 first. [`frame_digest`] computes the
//! same value from a [`Framebuffer`]. It is the wire's digest, not the
//! canonical `Fnv1a64` frame digest the golden-image tests pin.
//!
//! ## Trajectory chunks (`POST /trajectories`)
//!
//! Each HTTP chunk carries exactly one frame, tagged:
//!
//! ```text
//! 0x01 · u8 tier · <frame body>          served frame
//! 0x00 · u32 len · len × u8 utf-8        per-frame refusal (Display text)
//! ```
//!
//! Frames arrive in submission order; a refused frame keeps its slot as
//! a tagged error chunk instead of silently vanishing.

use splat_core::Framebuffer;
use splat_engine::{QualityTier, SubmitRequest};
use splat_metrics::Fnv1a64Lanes;
use splat_scene::CameraTrajectory;
use splat_types::{Camera, CameraIntrinsics, Priority, RenderError, Rgb, SceneId, Vec3};

use crate::json::JsonValue;

/// Most pixels one requested frame may have (`width × height`, on
/// `POST /render` and per frame of `POST /trajectories`): 2²⁵, which still
/// admits the paper's largest view (Residence, 5472 × 3648). A larger frame
/// is refused as an invalid `height` before anything is allocated.
pub const MAX_FRAME_PIXELS: u64 = 1 << 25;

/// Most frames one `POST /trajectories` request may ask for.
pub(crate) const MAX_TRAJECTORY_FRAMES: usize = 4096;

/// Bytes of a frame body's `u32 width · u32 height` header.
const HEADER: usize = 8;

/// Bytes of one pixel's `f32 r · f32 g · f32 b` record.
const RECORD: usize = 12;

fn header(image: &Framebuffer) -> [u8; HEADER] {
    let [w0, w1, w2, w3] = image.width().to_le_bytes();
    let [h0, h1, h2, h3] = image.height().to_le_bytes();
    [w0, w1, w2, w3, h0, h1, h2, h3]
}

fn record(pixel: &Rgb) -> [u8; RECORD] {
    let [r0, r1, r2, r3] = pixel.r.to_le_bytes();
    let [g0, g1, g2, g3] = pixel.g.to_le_bytes();
    let [b0, b1, b2, b3] = pixel.b.to_le_bytes();
    [r0, r1, r2, r3, g0, g1, g2, g3, b0, b1, b2, b3]
}

fn read_record(bytes: &[u8]) -> Rgb {
    let [r0, r1, r2, r3, g0, g1, g2, g3, b0, b1, b2, b3]: [u8; RECORD] =
        bytes.try_into().unwrap_or_default();
    Rgb::new(
        f32::from_le_bytes([r0, r1, r2, r3]),
        f32::from_le_bytes([g0, g1, g2, g3]),
        f32::from_le_bytes([b0, b1, b2, b3]),
    )
}

/// The wire digest of a frame: [`splat_metrics::fnv1a64_lanes`] of its
/// [`encode_frame`] body, computed from the pixels without allocating.
///
/// This is the value `X-Splat-Digest` carries. It is not the canonical
/// byte-wise FNV-1a digest the golden-image tests pin: the two are
/// different functions and are never compared with each other.
pub fn frame_digest(image: &Framebuffer) -> u64 {
    let words = |pixel: &Rgb| [pixel.r.to_bits(), pixel.g.to_bits(), pixel.b.to_bits()];
    let mut hasher = Fnv1a64Lanes::new();
    hasher.write(&header(image));
    // The header is two words, so after two pixels the stream sits on a
    // round boundary, and eight pixels (24 words) are three whole rounds.
    let (head, rest) = image.pixels().split_at(image.pixel_count().min(2));
    for pixel in head {
        hasher.write_u32s(words(pixel));
    }
    let mut octets = rest.chunks_exact(8);
    for octet in &mut octets {
        if let Ok([p0, p1, p2, p3, p4, p5, p6, p7]) = <&[Rgb; 8]>::try_from(octet) {
            hasher.write_u32s(
                [
                    p0.r, p0.g, p0.b, p1.r, p1.g, p1.b, p2.r, p2.g, p2.b, p3.r, p3.g, p3.b, //
                    p4.r, p4.g, p4.b, p5.r, p5.g, p5.b, p6.r, p6.g, p6.b, p7.r, p7.g, p7.b,
                ]
                .map(f32::to_bits),
            );
        }
    }
    for pixel in octets.remainder() {
        hasher.write_u32s(words(pixel));
    }
    hasher.finish()
}

/// `prefix` followed by the frame body, in one buffer allocated at its
/// full size.
fn encode_after(prefix: &[u8], image: &Framebuffer) -> Vec<u8> {
    let head = prefix.len() + HEADER;
    let mut out = vec![0u8; head + RECORD * image.pixel_count()];
    let (head, records) = out.split_at_mut(head);
    for (slot, byte) in head.iter_mut().zip(prefix.iter().chain(&header(image))) {
        *slot = *byte;
    }
    for (slot, pixel) in records.chunks_exact_mut(RECORD).zip(image.pixels()) {
        if let Ok(slot) = <&mut [u8; RECORD]>::try_from(slot) {
            *slot = record(pixel);
        }
    }
    out
}

/// Encodes a frame body (see the module docs for the layout).
pub fn encode_frame(image: &Framebuffer) -> Vec<u8> {
    encode_after(&[], image)
}

/// A malformed frame or trajectory chunk (client-side decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// `width * height` disagrees with the pixel payload length.
    DimensionMismatch,
    /// An unknown chunk tag or tier byte.
    BadTag,
    /// A refusal chunk whose message is not UTF-8.
    BadRefusal,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame ended unexpectedly"),
            WireError::DimensionMismatch => {
                write!(f, "wire frame dimensions disagree with the pixel payload")
            }
            WireError::BadTag => write!(f, "unknown wire chunk tag"),
            WireError::BadRefusal => write!(f, "refusal chunk is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn le_u32(buf: &[u8], at: usize) -> Result<u32, WireError> {
    let bytes: [u8; 4] = buf
        .get(at..at + 4)
        .and_then(|chunk| chunk.try_into().ok())
        .ok_or(WireError::Truncated)?;
    Ok(u32::from_le_bytes(bytes))
}

/// Decodes a frame body produced by [`encode_frame`].
pub fn decode_frame(buf: &[u8]) -> Result<Framebuffer, WireError> {
    let width = le_u32(buf, 0)?;
    let height = le_u32(buf, 4)?;
    let payload = buf.get(HEADER..).ok_or(WireError::Truncated)?;
    let row_bytes = (width as usize)
        .checked_mul(RECORD)
        .ok_or(WireError::DimensionMismatch)?;
    let expected = row_bytes
        .checked_mul(height as usize)
        .ok_or(WireError::DimensionMismatch)?;
    if payload.len() != expected {
        return Err(WireError::DimensionMismatch);
    }
    let mut image = Framebuffer::black(width, height);
    // An empty frame has no rows to fill, and `chunks_exact(0)` panics.
    if expected > 0 {
        for (y, row) in (0..height).zip(payload.chunks_exact(row_bytes)) {
            for (pixel, bytes) in image
                .row_mut(y, 0..width)
                .iter_mut()
                .zip(row.chunks_exact(RECORD))
            {
                *pixel = read_record(bytes);
            }
        }
    }
    Ok(image)
}

fn tier_byte(tier: QualityTier) -> u8 {
    match tier {
        QualityTier::Full => 0,
        QualityTier::Tier1 => 1,
        QualityTier::Tier2 => 2,
        QualityTier::Tier3 => 3,
    }
}

fn tier_from_byte(byte: u8) -> Result<QualityTier, WireError> {
    match byte {
        0 => Ok(QualityTier::Full),
        1 => Ok(QualityTier::Tier1),
        2 => Ok(QualityTier::Tier2),
        3 => Ok(QualityTier::Tier3),
        _ => Err(WireError::BadTag),
    }
}

/// One decoded trajectory chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameChunk {
    /// A served frame and the quality tier it was admitted at.
    Frame {
        /// Admission tier recorded when the frame entered the queue.
        tier: QualityTier,
        /// The decoded framebuffer.
        image: Framebuffer,
    },
    /// A per-frame refusal carrying the engine error's `Display` text.
    Refusal(String),
}

/// Encodes a served frame as a trajectory chunk payload.
pub(crate) fn encode_frame_chunk(tier: QualityTier, image: &Framebuffer) -> Vec<u8> {
    encode_after(&[1u8, tier_byte(tier)], image)
}

/// Encodes a per-frame refusal as a trajectory chunk payload.
pub(crate) fn encode_refusal_chunk(message: &str) -> Vec<u8> {
    let bytes = message.as_bytes();
    let mut out = Vec::with_capacity(5 + bytes.len());
    out.push(0u8);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decodes one trajectory chunk payload.
pub fn decode_frame_chunk(buf: &[u8]) -> Result<FrameChunk, WireError> {
    let (tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    match tag {
        1 => {
            let (tier, body) = rest.split_first().ok_or(WireError::Truncated)?;
            Ok(FrameChunk::Frame {
                tier: tier_from_byte(*tier)?,
                image: decode_frame(body)?,
            })
        }
        0 => {
            let length = le_u32(rest, 0)? as usize;
            let message = rest.get(4..4 + length).ok_or(WireError::Truncated)?;
            let text = std::str::from_utf8(message).map_err(|_| WireError::BadRefusal)?;
            Ok(FrameChunk::Refusal(text.to_string()))
        }
        _ => Err(WireError::BadTag),
    }
}

/// A malformed request body: the field at fault plus what was expected.
/// `Display` is wire-facing (the 400 body).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but has the wrong type or domain.
    Invalid(&'static str),
    /// Field values parsed but fail render validation (degenerate
    /// camera, zero resolution, ...).
    Render(RenderError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Missing(field) => write!(f, "missing required field `{field}`"),
            RequestError::Invalid(field) => write!(f, "invalid value for field `{field}`"),
            RequestError::Render(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A decoded `POST /render` body, ready to submit.
#[derive(Debug, Clone)]
pub struct RenderWireRequest {
    /// The registered scene to render.
    pub scene_id: SceneId,
    /// The validated camera.
    pub camera: Camera,
    /// Admission priority (defaults to [`Priority::Normal`]).
    pub priority: Priority,
}

impl RenderWireRequest {
    /// Converts into an engine submission.
    pub(crate) fn into_submit(self) -> SubmitRequest {
        SubmitRequest::new(self.scene_id, self.camera).with_priority(self.priority)
    }
}

/// A decoded `POST /trajectories` body.
#[derive(Debug, Clone)]
pub(crate) struct TrajectoryWireRequest {
    /// The registered scene to render.
    pub scene_id: SceneId,
    /// The orbit trajectory described by the body.
    pub trajectory: CameraTrajectory,
    /// Admission priority (defaults to [`Priority::Normal`]).
    pub priority: Priority,
}

fn parse_vec3(value: Option<&JsonValue>, field: &'static str) -> Result<Vec3, RequestError> {
    let items = value
        .ok_or(RequestError::Missing(field))?
        .as_array()
        .ok_or(RequestError::Invalid(field))?;
    match items {
        [x, y, z] => {
            let x = x.as_f64().ok_or(RequestError::Invalid(field))?;
            let y = y.as_f64().ok_or(RequestError::Invalid(field))?;
            let z = z.as_f64().ok_or(RequestError::Invalid(field))?;
            Ok(Vec3::new(x as f32, y as f32, z as f32))
        }
        _ => Err(RequestError::Invalid(field)),
    }
}

fn parse_f32(value: Option<&JsonValue>, field: &'static str) -> Result<f32, RequestError> {
    value
        .ok_or(RequestError::Missing(field))?
        .as_f64()
        .map(|v| v as f32)
        .ok_or(RequestError::Invalid(field))
}

fn parse_u32(value: Option<&JsonValue>, field: &'static str) -> Result<u32, RequestError> {
    let raw = value
        .ok_or(RequestError::Missing(field))?
        .as_u64()
        .ok_or(RequestError::Invalid(field))?;
    u32::try_from(raw).map_err(|_| RequestError::Invalid(field))
}

/// Parses a frame's `width` and `height` (fields `<scope>.width` /
/// `<scope>.height`), refusing frames beyond [`MAX_FRAME_PIXELS`].
fn parse_resolution(
    spec: &JsonValue,
    width_field: &'static str,
    height_field: &'static str,
) -> Result<(u32, u32), RequestError> {
    let width = parse_u32(spec.get("width"), width_field)?;
    let height = parse_u32(spec.get("height"), height_field)?;
    if u64::from(width) * u64::from(height) > MAX_FRAME_PIXELS {
        return Err(RequestError::Invalid(height_field));
    }
    Ok((width, height))
}

fn parse_scene_id(body: &JsonValue) -> Result<SceneId, RequestError> {
    body.get("scene_id")
        .ok_or(RequestError::Missing("scene_id"))?
        .as_u64()
        .map(SceneId::from_raw)
        .ok_or(RequestError::Invalid("scene_id"))
}

fn parse_priority(body: &JsonValue) -> Result<Priority, RequestError> {
    match body.get("priority") {
        None => Ok(Priority::Normal),
        Some(value) => {
            let label = value.as_str().ok_or(RequestError::Invalid("priority"))?;
            Priority::ALL
                .iter()
                .copied()
                .find(|priority| priority.label() == label)
                .ok_or(RequestError::Invalid("priority"))
        }
    }
}

fn parse_camera(body: &JsonValue) -> Result<Camera, RequestError> {
    let camera = body.get("camera").ok_or(RequestError::Missing("camera"))?;
    let eye = parse_vec3(camera.get("eye"), "camera.eye")?;
    let target = parse_vec3(camera.get("target"), "camera.target")?;
    let up = match camera.get("up") {
        None => Vec3::Y,
        Some(_) => parse_vec3(camera.get("up"), "camera.up")?,
    };
    let fov_y = parse_f32(camera.get("fov_y"), "camera.fov_y")?;
    let (width, height) = parse_resolution(camera, "camera.width", "camera.height")?;
    let intrinsics =
        CameraIntrinsics::try_from_fov_y(fov_y, width, height).map_err(RequestError::Render)?;
    Camera::try_look_at(eye, target, up, intrinsics).map_err(RequestError::Render)
}

/// Decodes a `POST /render` body:
///
/// ```json
/// {"scene_id": 1, "priority": "high",
///  "camera": {"eye": [x,y,z], "target": [x,y,z], "up": [x,y,z],
///             "fov_y": 0.8, "width": 640, "height": 480}}
/// ```
///
/// `priority` and `camera.up` are optional (`"normal"` / `+Y`); a camera
/// beyond [`MAX_FRAME_PIXELS`] is refused.
pub fn parse_render_request(body: &JsonValue) -> Result<RenderWireRequest, RequestError> {
    Ok(RenderWireRequest {
        scene_id: parse_scene_id(body)?,
        camera: parse_camera(body)?,
        priority: parse_priority(body)?,
    })
}

/// Decodes a `POST /trajectories` body:
///
/// ```json
/// {"scene_id": 1, "priority": "low",
///  "trajectory": {"kind": "orbit", "center": [x,y,z], "radius": 4.0,
///                 "elevation": 1.5, "frames": 24,
///                 "fov_y": 0.8, "width": 640, "height": 480}}
/// ```
///
/// Only the `"orbit"` kind exists today; `frames` must lie in
/// `1..=`[`MAX_TRAJECTORY_FRAMES`] and each frame within
/// [`MAX_FRAME_PIXELS`].
pub(crate) fn parse_trajectory_request(
    body: &JsonValue,
) -> Result<TrajectoryWireRequest, RequestError> {
    let scene_id = parse_scene_id(body)?;
    let priority = parse_priority(body)?;
    let spec = body
        .get("trajectory")
        .ok_or(RequestError::Missing("trajectory"))?;
    let kind = spec
        .get("kind")
        .and_then(JsonValue::as_str)
        .unwrap_or("orbit");
    if kind != "orbit" {
        return Err(RequestError::Invalid("trajectory.kind"));
    }
    let center = parse_vec3(spec.get("center"), "trajectory.center")?;
    let radius = parse_f32(spec.get("radius"), "trajectory.radius")?;
    let elevation = parse_f32(spec.get("elevation"), "trajectory.elevation")?;
    let frames = spec
        .get("frames")
        .ok_or(RequestError::Missing("trajectory.frames"))?
        .as_u64()
        .and_then(|raw| usize::try_from(raw).ok())
        .filter(|frames| (1..=MAX_TRAJECTORY_FRAMES).contains(frames))
        .ok_or(RequestError::Invalid("trajectory.frames"))?;
    let fov_y = parse_f32(spec.get("fov_y"), "trajectory.fov_y")?;
    let (width, height) = parse_resolution(spec, "trajectory.width", "trajectory.height")?;
    let intrinsics =
        CameraIntrinsics::try_from_fov_y(fov_y, width, height).map_err(RequestError::Render)?;
    Ok(TrajectoryWireRequest {
        scene_id,
        trajectory: CameraTrajectory::orbit(intrinsics, center, radius, elevation, frames),
        priority,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn checker_frame() -> Framebuffer {
        let mut image = Framebuffer::black(3, 2);
        image.set_pixel(0, 0, Rgb::new(1.0, 0.25, -0.5));
        image.set_pixel(2, 1, Rgb::new(0.125, 2.0, 3.5));
        image
    }

    #[test]
    fn frame_round_trips_bit_exactly() {
        let image = checker_frame();
        let decoded = decode_frame(&encode_frame(&image)).expect("round trip");
        assert_eq!(decoded, image);
        assert_eq!(frame_digest(&decoded), frame_digest(&image));

        // Non-square, odd on both axes, every pixel distinct.
        let mut odd = Framebuffer::black(7, 5);
        for y in 0..5 {
            for x in 0..7 {
                let i = (y * 7 + x) as f32;
                odd.set_pixel(x, y, Rgb::new(i, -i * 0.5, 1.0 / (i + 1.0)));
            }
        }
        let wire = encode_frame(&odd);
        assert_eq!(wire.len(), 8 + 12 * 35);
        assert_eq!(decode_frame(&wire).expect("odd frame"), odd);
        assert_eq!(
            decode_frame(&wire[..wire.len() - 12]),
            Err(WireError::DimensionMismatch)
        );

        for (width, height) in [(0, 0), (0, 3), (4, 0)] {
            let empty = Framebuffer::black(width, height);
            assert_eq!(decode_frame(&encode_frame(&empty)), Ok(empty));
        }
    }

    #[test]
    fn frame_decode_rejects_truncation_and_dimension_lies() {
        let image = checker_frame();
        let wire = encode_frame(&image);
        assert_eq!(decode_frame(&wire[..6]), Err(WireError::Truncated));
        assert_eq!(
            decode_frame(&wire[..wire.len() - 4]),
            Err(WireError::DimensionMismatch)
        );
        let mut lying = Vec::from(&4u32.to_le_bytes()[..]);
        lying.extend_from_slice(&wire[4..]);
        assert_eq!(decode_frame(&lying), Err(WireError::DimensionMismatch));
    }

    #[test]
    fn trajectory_chunks_round_trip_frames_and_refusals() {
        let image = checker_frame();
        let chunk = encode_frame_chunk(QualityTier::Tier2, &image);
        assert_eq!(chunk[..2], [1, 2]);
        assert_eq!(chunk[2..], encode_frame(&image)[..]);
        assert_eq!(
            decode_frame_chunk(&chunk).expect("frame chunk"),
            FrameChunk::Frame {
                tier: QualityTier::Tier2,
                image,
            }
        );
        let refusal = encode_refusal_chunk("engine overloaded");
        assert_eq!(
            decode_frame_chunk(&refusal).expect("refusal chunk"),
            FrameChunk::Refusal("engine overloaded".to_string())
        );
        assert_eq!(decode_frame_chunk(&[7u8]), Err(WireError::BadTag));
        assert_eq!(decode_frame_chunk(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn render_request_parses_with_defaults_and_validates_cameras() {
        let body = parse_json(
            r#"{"scene_id": 5,
                "camera": {"eye": [0.0, 1.0, -4.0], "target": [0.0, 0.0, 0.0],
                           "fov_y": 0.8, "width": 64, "height": 48}}"#,
        )
        .expect("valid json");
        let request = parse_render_request(&body).expect("valid request");
        assert_eq!(request.scene_id, SceneId::from_raw(5));
        assert_eq!(request.priority, Priority::Normal);
        assert_eq!(request.camera.width(), 64);

        let degenerate = parse_json(
            r#"{"scene_id": 5,
                "camera": {"eye": [0.0, 0.0, 0.0], "target": [0.0, 0.0, 0.0],
                           "fov_y": 0.8, "width": 64, "height": 48}}"#,
        )
        .expect("valid json");
        assert!(matches!(
            parse_render_request(&degenerate),
            Err(RequestError::Render(RenderError::DegenerateCamera { .. }))
        ));

        let missing = parse_json(r#"{"camera": {}}"#).expect("valid json");
        assert!(matches!(
            parse_render_request(&missing),
            Err(RequestError::Missing("scene_id"))
        ));
    }

    #[test]
    fn trajectory_request_builds_the_documented_orbit() {
        let body = parse_json(
            r#"{"scene_id": 2, "priority": "low",
                "trajectory": {"center": [0.0, 0.0, 0.0], "radius": 4.0,
                               "elevation": 1.5, "frames": 6,
                               "fov_y": 0.8, "width": 32, "height": 24}}"#,
        )
        .expect("valid json");
        let request = parse_trajectory_request(&body).expect("valid request");
        assert_eq!(request.trajectory.len(), 6);
        assert_eq!(request.priority, Priority::Low);
        let intrinsics = CameraIntrinsics::try_from_fov_y(0.8, 32, 24).expect("intrinsics");
        let direct = CameraTrajectory::orbit(intrinsics, Vec3::ZERO, 4.0, 1.5, 6);
        assert_eq!(
            request.trajectory.cameras().count(),
            direct.cameras().count()
        );

        let zero_frames = parse_json(
            r#"{"scene_id": 2,
                "trajectory": {"center": [0.0, 0.0, 0.0], "radius": 4.0,
                               "elevation": 1.5, "frames": 0,
                               "fov_y": 0.8, "width": 32, "height": 24}}"#,
        )
        .expect("valid json");
        assert!(matches!(
            parse_trajectory_request(&zero_frames),
            Err(RequestError::Invalid("trajectory.frames"))
        ));
    }

    fn render_body(width: u32, height: u32) -> JsonValue {
        parse_json(&format!(
            r#"{{"scene_id": 5,
                "camera": {{"eye": [0.0, 1.0, -4.0], "target": [0.0, 0.0, 0.0],
                            "fov_y": 0.8, "width": {width}, "height": {height}}}}}"#
        ))
        .expect("valid json")
    }

    fn trajectory_body(frames: u64, width: u32, height: u32) -> JsonValue {
        parse_json(&format!(
            r#"{{"scene_id": 2,
                "trajectory": {{"center": [0.0, 0.0, 0.0], "radius": 4.0,
                                "elevation": 1.5, "frames": {frames},
                                "fov_y": 0.8, "width": {width}, "height": {height}}}}}"#
        ))
        .expect("valid json")
    }

    #[test]
    fn oversized_render_cameras_are_refused_before_allocation() {
        assert!(matches!(
            parse_render_request(&render_body(65_535, 65_535)),
            Err(RequestError::Invalid("camera.height"))
        ));
        // One pixel past the bound is refused; the bound itself is admitted.
        assert!(matches!(
            parse_render_request(&render_body(1 << 13, (1 << 12) + 1)),
            Err(RequestError::Invalid("camera.height"))
        ));
        assert!(parse_render_request(&render_body(1 << 13, 1 << 12)).is_ok());
    }

    #[test]
    fn a_residence_sized_camera_is_admitted() {
        let request = parse_render_request(&render_body(5472, 3648)).expect("paper view");
        assert_eq!(
            (request.camera.width(), request.camera.height()),
            (5472, 3648)
        );
    }

    #[test]
    fn oversized_trajectories_are_refused_before_allocation() {
        assert!(matches!(
            parse_trajectory_request(&trajectory_body(4, 65_535, 65_535)),
            Err(RequestError::Invalid("trajectory.height"))
        ));
        assert!(matches!(
            parse_trajectory_request(&trajectory_body(1 << 32, 32, 24)),
            Err(RequestError::Invalid("trajectory.frames"))
        ));
        let too_many = MAX_TRAJECTORY_FRAMES as u64 + 1;
        assert!(matches!(
            parse_trajectory_request(&trajectory_body(too_many, 32, 24)),
            Err(RequestError::Invalid("trajectory.frames"))
        ));
        let request =
            parse_trajectory_request(&trajectory_body(MAX_TRAJECTORY_FRAMES as u64, 5472, 3648))
                .expect("the bounds themselves are admitted");
        assert_eq!(request.trajectory.len(), MAX_TRAJECTORY_FRAMES);
    }
}
