//! Span-walk rasterization: conservative per-row ellipse intervals and the
//! tile-saturation early-out.
//!
//! The full-walk kernel in [`crate::blend`] charges one α-computation for
//! every (pixel, splat) pair of a tile's sorted list even though most
//! pixels lie far outside a splat's ellipse and are guaranteed to fail the
//! 1/255 α-cull. The span walk removes exactly that guaranteed-wasted work:
//! for every splat it solves, per tile row, the conservative x-interval
//! where `α ≥ 1/255` is *possible* (from the conic `inv_cov`, the mean and
//! the opacity), walks only those pixels, and stops consuming the sorted
//! list once every pixel of the tile has fired its 10⁻⁴ transmittance exit.
//!
//! Because skipped pixels are ones the α-cull would have discarded anyway,
//! `SpanMode::RowSpans` produces pixels bit-identical to `SpanMode::Full`
//! in every SIMD mode; only the work accounting differs, and it reconciles
//! exactly:
//!
//! ```text
//! full.alpha_computations == span.alpha_computations + span.span_skipped_alpha
//! ```
//!
//! # Interval math
//!
//! With the symmetric conic `Σ⁻¹ = [[a, b], [b, c]]` the Mahalanobis form
//! along a row at offset `dy` from the mean is the quadratic
//! `q(dx) = a·dx² + 2b·dy·dx + c·dy²`. The α-cull admits a pixel only when
//! `q ≤ m_max` with `m_max = min(9, 2·ln(opacity/τ))` (`τ = 1/255`; the 9
//! is the 3σ cutoff outside which α is defined to be exactly zero). For a
//! positive-definite conic the admissible `dx` form one closed interval per
//! row — the roots of `a·dx² + 2b·dy·dx + (c·dy² − m_max) = 0` — or none
//! when the discriminant is negative. The solve runs in `f64` with a
//! slightly inflated `m_max` (scaled by the magnitude of the quadratic's
//! terms at the root, covering the `f32` kernel's rounding) and the
//! resulting column range is padded by one pixel on each side, so the
//! interval is a strict superset of the pixels whose `f32` α can reach the
//! cull threshold. Non-positive-definite conics (never produced by
//! preprocessing, which low-passes the covariance) conservatively fall
//! back to the full row.

#![expect(
    clippy::disallowed_methods,
    reason = "the span walker times its interval build; the reading feeds no pixel or counter"
)]

use crate::blend::{ALPHA_CULL_THRESHOLD, ALPHA_MAX, TRANSMITTANCE_EPSILON};
use crate::exec::SimdMode;
use crate::rect::{TileRect, MAHALANOBIS_CUTOFF};
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::Rgb;
use std::time::{Duration, Instant};

/// Splats whose row intervals are solved per timed batch. Batching keeps
/// the `Instant` overhead of the build-time attribution negligible while
/// bounding the intervals wasted when the tile saturates mid-batch.
const BUILD_BLOCK: usize = 32;

/// Relative inflation applied to `m_max`, scaled by the magnitude of the
/// quadratic's terms at the root; covers the `f32` kernel's evaluation
/// error of the Mahalanobis form (a few ulps) with a wide safety margin.
const M_SLACK_REL: f64 = 1e-5;

/// Absolute floor of the `m_max` inflation.
const M_SLACK_ABS: f64 = 1e-9;

/// Recyclable scratch for the span-walk kernel: the per-pixel blending
/// state (the walk is splat-outer, so state must persist across splats),
/// per-row live-pixel counts, and the row-interval table of the current
/// splat batch. Lives in [`crate::FrameArena`] so sequential sessions keep
/// their allocation-free steady state.
#[derive(Debug, Clone, Default)]
pub struct SpanScratch {
    trans: Vec<f32>,
    acc_r: Vec<f32>,
    acc_g: Vec<f32>,
    acc_b: Vec<f32>,
    active: Vec<bool>,
    row_live: Vec<u32>,
    intervals: Vec<(u32, u32)>,
    build_time: Duration,
}

impl SpanScratch {
    /// Creates an empty scratch; every buffer grows on first use and is
    /// retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        (self.trans.capacity()
            + self.acc_r.capacity()
            + self.acc_g.capacity()
            + self.acc_b.capacity())
            * std::mem::size_of::<f32>()
            + self.active.capacity() * std::mem::size_of::<bool>()
            + self.row_live.capacity() * std::mem::size_of::<u32>()
            + self.intervals.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Drains the wall-clock time spent solving row intervals since the
    /// last call (summed across tiles; sessions move it into
    /// [`crate::RenderStats::span_build_time`]).
    pub fn take_build_time(&mut self) -> Duration {
        std::mem::take(&mut self.build_time)
    }

    /// Folds build time drained from another scratch into this one (used by
    /// the parallel rasterizers, whose per-tile scratches are thread-local;
    /// the sum is aggregate worker time, not wall-clock).
    pub(crate) fn add_build_time(&mut self, time: Duration) {
        self.build_time += time;
    }

    fn reset(&mut self, width: usize, height: usize) {
        let pixels = width * height;
        self.trans.clear();
        self.trans.resize(pixels, 1.0);
        self.acc_r.clear();
        self.acc_r.resize(pixels, 0.0);
        self.acc_g.clear();
        self.acc_g.resize(pixels, 0.0);
        self.acc_b.clear();
        self.acc_b.resize(pixels, 0.0);
        self.active.clear();
        self.active.resize(pixels, true);
        self.row_live.clear();
        self.row_live.resize(height, width as u32);
    }
}

/// Solves the conservative pixel-column interval of `splat` on the tile
/// row whose pixel centers sit at `y = py + 0.5`, for a tile whose columns
/// `0..width` map to pixel centers `x0 + col + 0.5`.
///
/// Returns a half-open column range `lo..hi` (clamped to `0..width`;
/// `lo >= hi` means the splat cannot reach `α ≥ 1/255` anywhere on the
/// row). The interval is conservative: every column whose `f32`-evaluated
/// α passes the cull threshold is inside it.
pub fn conservative_row_interval(
    splat: &ProjectedGaussian,
    x0: u32,
    width: u32,
    py: u32,
) -> (u32, u32) {
    let opacity = f64::from(splat.opacity);
    let tau = f64::from(ALPHA_CULL_THRESHOLD);
    if opacity < tau {
        // α = opacity · exp(−m/2) ≤ opacity < 1/255 everywhere (rounding is
        // monotone, so the f32 kernel cannot exceed the f64 opacity).
        return (0, 0);
    }
    let a = f64::from(splat.inv_cov.at(0, 0));
    let b2 = f64::from(splat.inv_cov.at(0, 1)) + f64::from(splat.inv_cov.at(1, 0));
    let c = f64::from(splat.inv_cov.at(1, 1));
    let det4 = 4.0 * a * c - b2 * b2;
    if !(a > 0.0 && c > 0.0 && det4 > 0.0) {
        // Non-positive-definite conic: fall back to the full row.
        return (0, width);
    }
    let m_max = (2.0 * (opacity / tau).ln()).min(f64::from(MAHALANOBIS_CUTOFF));
    let dy = f64::from(py) + 0.5 - f64::from(splat.mean.y);
    let linear = b2 * dy;
    let constant = c * dy * dy;

    // First solve with the exact threshold to locate the boundary, then
    // re-solve with the threshold inflated proportionally to the magnitude
    // of the quadratic's terms there — the scale of the f32 kernel's
    // rounding error in the Mahalanobis form.
    let solve = |threshold: f64| -> Option<(f64, f64)> {
        let disc = linear * linear - 4.0 * a * (constant - threshold);
        if disc < 0.0 {
            return None;
        }
        let sqrt_disc = disc.sqrt();
        Some((
            (-linear - sqrt_disc) / (2.0 * a),
            (-linear + sqrt_disc) / (2.0 * a),
        ))
    };
    let reach = match solve(m_max) {
        Some((lo, hi)) => lo.abs().max(hi.abs()),
        // No real root: gauge the term magnitude at the quadratic's vertex.
        None => (linear / (2.0 * a)).abs(),
    };
    let magnitude = a * reach * reach + linear.abs() * reach + constant;
    let slack = M_SLACK_REL * magnitude + M_SLACK_ABS;
    let Some((dx_lo, dx_hi)) = solve(m_max + slack) else {
        return (0, 0);
    };

    // Columns whose pixel center x0 + col + 0.5 falls inside [dx_lo, dx_hi]
    // around the mean, padded by one pixel on each side.
    let center = f64::from(splat.mean.x) - f64::from(x0) - 0.5;
    let col_lo = (dx_lo + center).ceil() - 1.0;
    let col_hi = (dx_hi + center).floor() + 2.0;
    if !(col_lo.is_finite() && col_hi.is_finite()) {
        return (0, width);
    }
    let lo = col_lo.clamp(0.0, f64::from(width)) as u32;
    let hi = col_hi.clamp(0.0, f64::from(width)) as u32;
    if lo >= hi {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// Span-walk variant of [`crate::rasterize_tile_into_with`]: rasterizes
/// one tile into `image` (whose pixel (0, 0) sits at image-space `origin`),
/// charging all work to `counts`. Pixels are bit-identical to the full walk
/// in every SIMD mode; `alpha_computations` only counts pixels inside their
/// splat's row interval, the remainder is charged to `span_skipped_alpha`.
///
/// # Panics
///
/// Panics when `rect`, shifted by `origin`, exceeds the framebuffer bounds.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_tile_spans_into_with(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
    simd: SimdMode,
    image: &mut crate::Framebuffer,
    origin: (u32, u32),
    counts: &mut StageCounts,
    scratch: &mut SpanScratch,
) {
    debug_assert!(
        rect.x1 >= rect.x0 && rect.y1 >= rect.y0,
        "inverted tile rect {rect:?}"
    );
    let x0 = rect.x0 as u32;
    let y0 = rect.y0 as u32;
    let width = (rect.x1 as u32).saturating_sub(x0);
    let height = (rect.y1 as u32).saturating_sub(y0);
    if width == 0 || height == 0 {
        return;
    }
    span_walk(
        sorted, projected, x0, y0, width, height, simd, counts, scratch,
    );
    let columns = x0 - origin.0..x0 + width - origin.0;
    for row in 0..height {
        let row_off = (row * width) as usize;
        let out = image.row_mut(y0 + row - origin.1, columns.clone());
        for (col, pixel) in out.iter_mut().enumerate() {
            let p = row_off + col;
            *pixel = Rgb::new(scratch.acc_r[p], scratch.acc_g[p], scratch.acc_b[p])
                + background * scratch.trans[p];
        }
    }
}

/// The splat-outer span walk over one tile: interval-build batches
/// (timed), per-row interval skips, per-pixel blending with exactly the
/// full walk's operations and operand order, and the tile-saturation
/// early-out.
#[allow(clippy::too_many_arguments)]
fn span_walk(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    x0: u32,
    y0: u32,
    width: u32,
    height: u32,
    simd: SimdMode,
    counts: &mut StageCounts,
    scratch: &mut SpanScratch,
) {
    scratch.reset(width as usize, height as usize);
    counts.pixels += u64::from(width) * u64::from(height);
    let mut live = width * height;
    let height = height as usize;

    let mut batch_start = 0usize;
    'list: while batch_start < sorted.len() {
        let batch = &sorted[batch_start..(batch_start + BUILD_BLOCK).min(sorted.len())];

        // Solve the row-interval table for this batch (rows that are
        // already saturated stay dead forever, so they are never solved).
        let build_start = Instant::now();
        scratch.intervals.clear();
        for &slot in batch {
            let splat = &projected[slot as usize];
            for row in 0..height {
                if scratch.row_live[row] == 0 {
                    scratch.intervals.push((0, 0));
                    continue;
                }
                counts.span_rows_built += 1;
                scratch.intervals.push(conservative_row_interval(
                    splat,
                    x0,
                    width,
                    y0 + row as u32,
                ));
            }
        }
        scratch.build_time += build_start.elapsed();

        for (bi, &slot) in batch.iter().enumerate() {
            let splat = &projected[slot as usize];
            for row in 0..height {
                let live_in_row = scratch.row_live[row];
                if live_in_row == 0 {
                    continue;
                }
                let (lo, hi) = scratch.intervals[bi * height + row];
                if lo >= hi {
                    counts.span_skipped_alpha += u64::from(live_in_row);
                    continue;
                }
                let walked_active = match simd {
                    SimdMode::Scalar => {
                        walk_interval::<1>(splat, x0, y0, width, row, lo, hi, counts, scratch)
                    }
                    SimdMode::Wide8 => {
                        walk_interval::<8>(splat, x0, y0, width, row, lo, hi, counts, scratch)
                    }
                };
                live -= live_in_row - scratch.row_live[row];
                counts.alpha_computations += walked_active;
                counts.span_skipped_alpha += u64::from(live_in_row) - walked_active;
            }
            if live == 0 {
                // Every pixel fired its transmittance exit: abandon the
                // remainder of the sorted list.
                if batch_start + bi + 1 < sorted.len() {
                    counts.tile_saturation_exits += 1;
                }
                break 'list;
            }
        }
        batch_start += batch.len();
    }
}

/// Walks the pixels of one row interval in `W`-wide chunks, blending the
/// still-active ones with exactly the scalar full walk's operations and
/// operand order. Returns the number of active pixels walked (each is one
/// α-computation; the caller charges the skipped remainder of the row).
#[allow(clippy::too_many_arguments)]
fn walk_interval<const W: usize>(
    splat: &ProjectedGaussian,
    x0: u32,
    y0: u32,
    width: u32,
    row: usize,
    lo: u32,
    hi: u32,
    counts: &mut StageCounts,
    scratch: &mut SpanScratch,
) -> u64 {
    let m00 = splat.inv_cov.at(0, 0);
    let m01 = splat.inv_cov.at(0, 1);
    let m10 = splat.inv_cov.at(1, 0);
    let m11 = splat.inv_cov.at(1, 1);
    let mean_x = splat.mean.x;
    let dy = (y0 + row as u32) as f32 + 0.5 - splat.mean.y;
    let row_off = row * width as usize;
    let mut walked_active = 0u64;
    let mut m = [0.0f32; W];

    let mut col = lo as usize;
    while col < hi as usize {
        let lanes = W.min(hi as usize - col);
        // The Mahalanobis form is evaluated branch-free across the chunk
        // (the loop the auto-vectorizer targets), exactly as in the full
        // walk's wide kernels.
        for (lane, m_out) in m.iter_mut().enumerate().take(lanes) {
            let dx = (x0 + (col + lane) as u32) as f32 + 0.5 - mean_x;
            let vx = m00 * dx + m01 * dy;
            let vy = m10 * dx + m11 * dy;
            *m_out = dx * vx + dy * vy;
        }
        for (lane, &m_lane) in m.iter().enumerate().take(lanes) {
            let p = row_off + col + lane;
            if !scratch.active[p] {
                continue;
            }
            walked_active += 1;
            let alpha = if (0.0..=MAHALANOBIS_CUTOFF).contains(&m_lane) {
                (splat.opacity * (-0.5 * m_lane).exp()).min(ALPHA_MAX)
            } else {
                0.0
            };
            if alpha < ALPHA_CULL_THRESHOLD {
                continue;
            }
            let weight = alpha * scratch.trans[p];
            scratch.acc_r[p] += splat.color.r * weight;
            scratch.acc_g[p] += splat.color.g * weight;
            scratch.acc_b[p] += splat.color.b * weight;
            scratch.trans[p] *= 1.0 - alpha;
            counts.blend_operations += 1;
            if scratch.trans[p] < TRANSMITTANCE_EPSILON {
                counts.early_exits += 1;
                scratch.active[p] = false;
                scratch.row_live[row] -= 1;
            }
        }
        col += lanes;
    }
    walked_active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blend::alpha_at;
    use crate::exec::SpanMode;
    use crate::image::Framebuffer;
    use crate::shade::shade_rect;
    use splat_types::{Mat2, Vec2};

    /// The span walk of one tile into a tile-sized framebuffer.
    fn spans(
        sorted: &[u32],
        projected: &[ProjectedGaussian],
        rect: &TileRect,
        background: Rgb,
        simd: SimdMode,
        scratch: &mut SpanScratch,
    ) -> (Framebuffer, StageCounts) {
        shade_rect(
            sorted,
            projected,
            rect,
            background,
            simd,
            SpanMode::RowSpans,
            scratch,
        )
    }

    fn splat(
        mean: Vec2,
        sigma: f32,
        opacity: f32,
        color: Rgb,
        depth: f32,
        index: u32,
    ) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
        ProjectedGaussian {
            index,
            depth,
            mean,
            cov,
            inv_cov: cov.inverse().unwrap(),
            opacity,
            color,
        }
    }

    fn mixed_splats() -> (Vec<ProjectedGaussian>, Vec<u32>) {
        let mut projected = Vec::new();
        for i in 0..4u32 {
            projected.push(splat(
                Vec2::new(4.0 + i as f32, 6.0),
                5.0,
                0.97,
                Rgb::new(0.9, 0.1 * i as f32, 0.3),
                1.0 + i as f32,
                i,
            ));
        }
        projected.push(splat(Vec2::new(10.0, 3.0), 4.0, 0.002, Rgb::WHITE, 5.0, 4));
        projected.push(splat(Vec2::new(60.0, 60.0), 1.0, 0.9, Rgb::WHITE, 6.0, 5));
        for i in 6..11u32 {
            projected.push(splat(
                Vec2::new(1.3 * i as f32, 12.0 - i as f32),
                2.5,
                0.4,
                Rgb::new(0.1, 0.8, 0.2 + 0.05 * i as f32),
                i as f32,
                i,
            ));
        }
        let order: Vec<u32> = (0..projected.len() as u32).collect();
        (projected, order)
    }

    #[test]
    fn faint_splats_have_empty_intervals() {
        let s = splat(Vec2::new(8.0, 8.0), 4.0, 0.002, Rgb::WHITE, 1.0, 0);
        for py in 0..16 {
            assert_eq!(conservative_row_interval(&s, 0, 16, py), (0, 0));
        }
    }

    #[test]
    fn intervals_contain_every_pixel_above_the_cull_threshold() {
        let (projected, _) = mixed_splats();
        for s in &projected {
            for py in 0..16u32 {
                let (lo, hi) = conservative_row_interval(s, 0, 16, py);
                for col in 0..16u32 {
                    let alpha = alpha_at(s, Vec2::new(col as f32 + 0.5, py as f32 + 0.5));
                    if alpha >= ALPHA_CULL_THRESHOLD {
                        assert!(
                            col >= lo && col < hi,
                            "pixel ({col},{py}) with alpha {alpha} outside [{lo},{hi})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn span_walk_matches_full_walk_bit_exactly_with_reconciled_counters() {
        let (projected, order) = mixed_splats();
        let background = Rgb::new(0.2, 0.3, 0.4);
        let mut scratch = SpanScratch::new();
        for (w, h) in [(16.0, 16.0), (10.0, 7.0), (3.0, 5.0), (17.0, 9.0)] {
            let rect = TileRect::new(0.0, 0.0, w, h);
            for simd in SimdMode::ALL {
                let (full, full_counts) = shade_rect(
                    &order,
                    &projected,
                    &rect,
                    background,
                    simd,
                    SpanMode::Full,
                    &mut scratch,
                );
                let (span, span_counts) = shade_rect(
                    &order,
                    &projected,
                    &rect,
                    background,
                    simd,
                    SpanMode::RowSpans,
                    &mut scratch,
                );
                for (i, (a, b)) in full.pixels().iter().zip(span.pixels()).enumerate() {
                    assert_eq!(
                        [a.r.to_bits(), a.g.to_bits(), a.b.to_bits()],
                        [b.r.to_bits(), b.g.to_bits(), b.b.to_bits()],
                        "{simd:?} pixel {i} at {w}x{h}"
                    );
                }
                assert_eq!(
                    full_counts.alpha_computations,
                    span_counts.alpha_computations + span_counts.span_skipped_alpha,
                    "{simd:?} reconciliation at {w}x{h}"
                );
                assert_eq!(full_counts.blend_operations, span_counts.blend_operations);
                assert_eq!(full_counts.early_exits, span_counts.early_exits);
                assert_eq!(full_counts.pixels, span_counts.pixels);
                assert!(span_counts.span_rows_built > 0);
                assert!(
                    span_counts.alpha_computations < full_counts.alpha_computations,
                    "{simd:?} span walk saves work at {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn span_counters_are_identical_across_simd_modes() {
        let (projected, order) = mixed_splats();
        let background = Rgb::splat(0.15);
        let rect = TileRect::new(2.0, 1.0, 15.0, 12.0);
        let mut scratch = SpanScratch::new();
        let scalar = spans(
            &order,
            &projected,
            &rect,
            background,
            SimdMode::Scalar,
            &mut scratch,
        );
        let wide = spans(
            &order,
            &projected,
            &rect,
            background,
            SimdMode::Wide8,
            &mut scratch,
        );
        assert_eq!(wide.1, scalar.1);
        assert_eq!(wide.0, scalar.0);
    }

    #[test]
    fn saturated_tiles_abandon_the_sorted_list() {
        let projected: Vec<ProjectedGaussian> = (0..50)
            .map(|i| splat(Vec2::new(8.0, 8.0), 20.0, 0.99, Rgb::WHITE, i as f32, i))
            .collect();
        let order: Vec<u32> = (0..50).collect();
        let rect = TileRect::new(0.0, 0.0, 16.0, 16.0);
        let mut scratch = SpanScratch::new();
        let (full, full_counts) = shade_rect(
            &order,
            &projected,
            &rect,
            Rgb::BLACK,
            SimdMode::Scalar,
            SpanMode::Full,
            &mut scratch,
        );
        let (span, span_counts) = spans(
            &order,
            &projected,
            &rect,
            Rgb::BLACK,
            SimdMode::Scalar,
            &mut scratch,
        );
        assert_eq!(span_counts.tile_saturation_exits, 1);
        assert_eq!(span, full);
        assert_eq!(
            full_counts.alpha_computations,
            span_counts.alpha_computations + span_counts.span_skipped_alpha
        );
        // The saturated walk solved intervals for only a prefix of the list.
        assert!(span_counts.span_rows_built < 50 * 16);
    }

    /// The span kernel shading straight into the frame (origin `(0, 0)`)
    /// matches it shading into a tile-sized buffer at the tile's origin —
    /// the parallel fan-out's form.
    #[test]
    fn into_variant_matches_the_buffered_kernel() {
        let (projected, order) = mixed_splats();
        let background = Rgb::splat(0.1);
        let rect = TileRect::new(2.0, 1.0, 15.0, 12.0);
        let mut scratch = SpanScratch::new();
        for simd in SimdMode::ALL {
            let (buffered, buffered_counts) =
                spans(&order, &projected, &rect, background, simd, &mut scratch);
            let mut image = Framebuffer::new(16, 16, Rgb::BLACK);
            let mut counts = StageCounts::new();
            rasterize_tile_spans_into_with(
                &order,
                &projected,
                &rect,
                background,
                simd,
                &mut image,
                (0, 0),
                &mut counts,
                &mut scratch,
            );
            assert_eq!(counts, buffered_counts, "{simd:?}");
            for y in 1..12u32 {
                for x in 2..15u32 {
                    assert_eq!(
                        image.pixel(x, y),
                        buffered.pixel(x - 2, y - 1),
                        "{simd:?} pixel ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_rects_return_no_pixels_and_charge_nothing() {
        let (projected, order) = mixed_splats();
        let mut scratch = SpanScratch::new();
        let rect = TileRect::new(4.0, 4.0, 4.0, 12.0);
        let (out, counts) = spans(
            &order,
            &projected,
            &rect,
            Rgb::BLACK,
            SimdMode::Scalar,
            &mut scratch,
        );
        assert_eq!(out.width(), 0);
        assert!(out.pixels().is_empty());
        assert_eq!(counts, StageCounts::new());
    }

    #[test]
    fn build_time_accumulates_and_drains() {
        let (projected, order) = mixed_splats();
        let mut scratch = SpanScratch::new();
        let rect = TileRect::new(0.0, 0.0, 16.0, 16.0);
        let _ = spans(
            &order,
            &projected,
            &rect,
            Rgb::BLACK,
            SimdMode::Scalar,
            &mut scratch,
        );
        let drained = scratch.take_build_time();
        let _ = drained;
        assert_eq!(scratch.take_build_time(), Duration::ZERO);
        assert!(scratch.footprint_bytes() > 0);
    }
}
