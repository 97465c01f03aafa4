//! The shared front-to-back blending kernel.
//!
//! For every pixel of a tile the sorted splat list is walked front-to-back.
//! Each splat costs one α-computation (Eq. 1 of the paper); splats whose α
//! falls below 1/255 are skipped, the rest are blended (Eq. 2) until the
//! accumulated transmittance drops below 10⁻⁴. The kernel walks the list
//! once per block of up to 16×16 pixels, all of the block's live pixels
//! stepping through it together (the reference 3D-GS rasterizer's
//! one-block-per-tile shape). Both pipelines rasterize through it (driven
//! by [`crate::shade_tiles`]) — GS-TG merely filters the splat list with
//! its bitmasks first. The per-pixel definition it is checked against is
//! [`crate::reference`].

use std::ops::Range;

use crate::exp::exp_neg;
use crate::rect::{TileRect, MAHALANOBIS_CUTOFF};
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::{Rgb, Vec2};

/// α values below this threshold (1/255) are treated as having no influence
/// on the pixel and are skipped before blending, as in the reference 3D-GS
/// rasterizer.
pub const ALPHA_CULL_THRESHOLD: f32 = 1.0 / 255.0;

/// The front-to-back blending loop terminates once the accumulated
/// transmittance drops below this threshold (10⁻⁴ in the reference
/// implementation).
pub const TRANSMITTANCE_EPSILON: f32 = 1e-4;

/// Upper bound on α (the reference implementation clamps at 0.99 to keep
/// the transmittance strictly positive).
pub(crate) const ALPHA_MAX: f32 = 0.99;

/// Side of the square pixel block the wide kernel shades per walk of a
/// tile's sorted list: one block covers one paper-default 16-px tile.
const BLOCK: usize = 16;

/// Rasterizes one tile into `image`, charging all work to `counts`.
///
/// * `sorted` — splat slots (indices into `projected`) already sorted
///   front-to-back.
/// * `rect` — the clipped pixel rectangle of the tile (integer bounds, in
///   image space).
/// * `background` — color of pixels with full remaining transmittance.
/// * `origin` — the image-space position of `image`'s pixel (0, 0):
///   `(0, 0)` when `image` is the frame, `(rect.x0, rect.y0)` when it is a
///   tile-sized buffer (the parallel fan-out's form).
///
/// The rect is split into blocks of at most 16×16 pixels and `sorted` is
/// walked once per block: every row with a live pixel evaluates the
/// 16-lane Mahalanobis form, a row with a live lane inside the 3σ cutoff
/// evaluates the 16-lane α, and only those lanes go on to the α-cull and
/// blending, with [`crate::reference::shade_pixel`]'s operations in its
/// order. Pixels and counters are therefore bit-identical to that
/// per-pixel walk. Each row of the rect is written once through
/// [`Framebuffer::row_mut`].
///
/// [`Framebuffer::row_mut`]: crate::Framebuffer::row_mut
///
/// # Panics
///
/// Panics when `rect`, shifted by `origin`, exceeds the framebuffer bounds.
pub(crate) fn rasterize_tile_into_with(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
    image: &mut crate::Framebuffer,
    origin: (u32, u32),
    counts: &mut StageCounts,
) {
    debug_assert!(
        rect.x1 >= rect.x0 && rect.y1 >= rect.y0,
        "inverted tile rect {rect:?}"
    );
    let x0 = rect.x0 as u32;
    let y0 = rect.y0 as u32;
    let x1 = rect.x1 as u32;
    let y1 = rect.y1 as u32;
    if x1 <= x0 || y1 <= y0 {
        return;
    }
    let step = BLOCK as u32;
    for by in (y0..y1).step_by(BLOCK) {
        for bx in (x0..x1).step_by(BLOCK) {
            shade_block(
                sorted,
                projected,
                bx..(bx + step).min(x1),
                by..(by + step).min(y1),
                background,
                image,
                origin,
                counts,
            );
        }
    }
}

/// One row of a block, one lane per pixel column: the remaining
/// transmittance, the color accumulated so far, and the mask of lanes
/// still blending (bit `i` is lane `i`).
#[derive(Clone, Copy)]
struct BlockRow {
    transmittance: [f32; BLOCK],
    r: [f32; BLOCK],
    g: [f32; BLOCK],
    b: [f32; BLOCK],
    live: u32,
}

/// Walks the sorted splat list front-to-back once for every pixel of the
/// block of image-space `columns` × `rows` (each at most [`BLOCK`] long)
/// together — the splat-outer dual of [`crate::reference::shade_pixel`]'s
/// pixel-outer loop.
///
/// For each splat, every row that still has a live pixel evaluates the
/// Mahalanobis form branch-free across all [`BLOCK`] lanes and keeps, as a
/// bit mask, the live lanes with `0 ≤ m ≤ 9`. A row with any such lane
/// then evaluates α for all [`BLOCK`] lanes in one more branch-free loop,
/// through the inlined [`exp_neg`] (both loops are the ones the
/// auto-vectorizer targets), with `m` clamped into `[0, 9]`: the identity
/// on every kept lane, so each kept lane's α is [`alpha_at`]'s bit for
/// bit. The α-cull and blending then run for the kept bits in ascending
/// lane order with exactly the per-pixel walk's operations and operand
/// order (no fused multiply-add), so pixels are bit-identical. Each splat
/// charges one α-computation per live pixel of the block, and a lane stops
/// being charged once its transmittance early-exit fires, just as the
/// per-pixel walk breaks; the walk ends when no pixel is live.
#[allow(clippy::too_many_arguments)]
fn shade_block(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    columns: Range<u32>,
    rows: Range<u32>,
    background: Rgb,
    image: &mut crate::Framebuffer,
    origin: (u32, u32),
    counts: &mut StageCounts,
) {
    let width = columns.len();
    let height = rows.len();
    let mut xs = [0.0f32; BLOCK];
    for (x, px) in xs.iter_mut().zip(columns.start..) {
        *x = px as f32 + 0.5;
    }
    let fresh = BlockRow {
        transmittance: [1.0; BLOCK],
        r: [0.0; BLOCK],
        g: [0.0; BLOCK],
        b: [0.0; BLOCK],
        live: u32::MAX >> (32 - width),
    };
    let mut state = [fresh; BLOCK];
    let state = &mut state[..height];
    let mut live_pixels = (width * height) as u64;
    counts.pixels += live_pixels;
    let mut blends = 0u64;
    let mut exits = 0u64;

    for &slot in sorted {
        if live_pixels == 0 {
            break;
        }
        counts.alpha_computations += live_pixels;
        let splat = &projected[slot as usize];
        let conic = splat.conic();
        let m00 = conic.at(0, 0);
        let m01 = conic.at(0, 1);
        let m10 = conic.at(1, 0);
        let m11 = conic.at(1, 1);
        let Vec2 {
            x: mean_x,
            y: mean_y,
        } = splat.mean;
        let Rgb { r, g, b } = splat.color;
        let opacity = splat.opacity;
        for (row, py) in state.iter_mut().zip(rows.clone()) {
            if row.live == 0 {
                continue;
            }
            let dy = (py as f32 + 0.5) - mean_y;
            let mut m = [0.0f32; BLOCK];
            for (m, &x) in m.iter_mut().zip(&xs) {
                let dx = x - mean_x;
                let vx = m00 * dx + m01 * dy;
                let vy = m10 * dx + m11 * dy;
                *m = dx * vx + dy * vy;
            }
            let mut hits = 0u32;
            for (bit, &m) in m.iter().enumerate() {
                hits |= u32::from((0.0..=MAHALANOBIS_CUTOFF).contains(&m)) << bit;
            }
            hits &= row.live;
            if hits == 0 {
                continue;
            }
            // α for all lanes at once. The clamp is the identity on every
            // hit lane and keeps the others inside `exp_neg`'s domain (a
            // NaN lane stays NaN, and is never read).
            let mut alpha = [0.0f32; BLOCK];
            for (alpha, &m) in alpha.iter_mut().zip(&m) {
                let m = m.clamp(0.0, MAHALANOBIS_CUTOFF);
                *alpha = (opacity * exp_neg(-0.5 * m)).min(ALPHA_MAX);
            }
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let alpha = alpha[lane];
                if alpha < ALPHA_CULL_THRESHOLD {
                    continue;
                }
                let transmittance = row.transmittance[lane];
                let weight = alpha * transmittance;
                row.r[lane] += r * weight;
                row.g[lane] += g * weight;
                row.b[lane] += b * weight;
                let transmittance = transmittance * (1.0 - alpha);
                row.transmittance[lane] = transmittance;
                blends += 1;
                if transmittance < TRANSMITTANCE_EPSILON {
                    exits += 1;
                    row.live &= !(1 << lane);
                    live_pixels -= 1;
                }
            }
        }
    }
    counts.blend_operations += blends;
    counts.early_exits += exits;

    let columns = columns.start - origin.0..columns.end - origin.0;
    for (row, py) in state.iter().zip(rows) {
        let out = image.row_mut(py - origin.1, columns.clone());
        let lanes = row.r.iter().zip(&row.g).zip(&row.b).zip(&row.transmittance);
        for (pixel, (((&r, &g), &b), &transmittance)) in out.iter_mut().zip(lanes) {
            *pixel = Rgb::new(r, g, b) + background * transmittance;
        }
    }
}

/// Evaluates Eq. 1: the contribution of a splat at a pixel center,
/// `α = min(α_max, σ · exp(-½ (p-μ)ᵀ Σ⁻¹ (p-μ)))`, with the exponential
/// computed by [`exp_neg`] — the function the tile kernel's α pass
/// inlines, so [`crate::reference::shade_pixel`] and the kernel agree bit
/// for bit.
///
/// Contributions outside the 3σ footprint are defined to be exactly zero.
/// The paper (and the original 3D-GS) use the 3-sigma rule to bound a
/// splat's influence during tile identification; clamping the α evaluation
/// to the same boundary makes tile identification *exact* instead of merely
/// conservative, so the rendered image is bit-identical across tile sizes,
/// boundary methods and the GS-TG grouping pipeline — which is the
/// losslessness property the experiments verify.
#[inline]
pub(crate) fn alpha_at(splat: &ProjectedGaussian, pixel: Vec2) -> f32 {
    let d = pixel - splat.mean;
    let mahalanobis_sq = d.dot(splat.conic().mul_vec(d));
    if !(0.0..=MAHALANOBIS_CUTOFF).contains(&mahalanobis_sq) {
        return 0.0;
    }
    (splat.opacity * exp_neg(-0.5 * mahalanobis_sq)).min(ALPHA_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Framebuffer;
    use crate::reference::shade_pixel;
    use splat_types::Mat2;

    /// The kernel shading one tile into a tile-sized framebuffer at its
    /// origin — the parallel fan-out's form of one tile.
    fn rasterize_tile(
        sorted: &[u32],
        projected: &[ProjectedGaussian],
        rect: &TileRect,
        background: Rgb,
    ) -> (Framebuffer, StageCounts) {
        let origin = (rect.x0 as u32, rect.y0 as u32);
        let mut tile = Framebuffer::black(
            (rect.x1 as u32).saturating_sub(origin.0),
            (rect.y1 as u32).saturating_sub(origin.1),
        );
        let mut counts = StageCounts::new();
        rasterize_tile_into_with(
            sorted,
            projected,
            rect,
            background,
            &mut tile,
            origin,
            &mut counts,
        );
        (tile, counts)
    }

    /// [`shade_pixel`] at every pixel of `rect` over the same list, into a
    /// tile-sized framebuffer: the definition the kernel is pinned to.
    fn reference_tile(
        sorted: &[u32],
        projected: &[ProjectedGaussian],
        rect: &TileRect,
        background: Rgb,
    ) -> (Framebuffer, StageCounts) {
        let (x0, y0) = (rect.x0 as u32, rect.y0 as u32);
        let mut tile = Framebuffer::black(rect.x1 as u32 - x0, rect.y1 as u32 - y0);
        let mut counts = StageCounts::new();
        for y in 0..tile.height() {
            for x in 0..tile.width() {
                counts.pixels += 1;
                let center = Vec2::new((x0 + x) as f32 + 0.5, (y0 + y) as f32 + 0.5);
                let color = shade_pixel(sorted, projected, center, background, &mut counts);
                tile.set_pixel(x, y, color);
            }
        }
        (tile, counts)
    }

    /// Asserts that `frame` holds `tile` at `rect`'s origin, bit for bit.
    fn assert_frame_holds_tile(frame: &Framebuffer, tile: &Framebuffer, rect: &TileRect) {
        let (x0, y0) = (rect.x0 as u32, rect.y0 as u32);
        for y in 0..tile.height() {
            for x in 0..tile.width() {
                assert_eq!(
                    frame.pixel(x0 + x, y0 + y),
                    tile.pixel(x, y),
                    "pixel ({},{})",
                    x0 + x,
                    y0 + y
                );
            }
        }
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
            inv_det: 1.0 / cov.determinant(),
            opacity,
            color,
        }
    }

    fn tile() -> TileRect {
        TileRect::new(0.0, 0.0, 16.0, 16.0)
    }

    #[test]
    fn empty_tile_renders_background() {
        let (image, counts) = rasterize_tile(&[], &[], &tile(), Rgb::splat(0.25));
        assert_eq!(image.pixel_count(), 256);
        assert!(image
            .pixels()
            .iter()
            .all(|p| p.max_abs_diff(Rgb::splat(0.25)) < 1e-6));
        assert_eq!(counts.alpha_computations, 0);
        assert_eq!(counts.pixels, 256);
    }

    #[test]
    fn alpha_peaks_at_center_and_decays() {
        let s = splat(Vec2::new(8.0, 8.0), 2.0, 0.8, Rgb::WHITE, 1.0, 0);
        let center = alpha_at(&s, Vec2::new(8.0, 8.0));
        let off = alpha_at(&s, Vec2::new(12.0, 8.0));
        assert!((center - 0.8).abs() < 1e-5);
        assert!(off < center && off > 0.0);
    }

    #[test]
    fn alpha_is_clamped_to_max() {
        let s = splat(Vec2::new(8.0, 8.0), 2.0, 1.0, Rgb::WHITE, 1.0, 0);
        assert!(alpha_at(&s, Vec2::new(8.0, 8.0)) <= ALPHA_MAX);
    }

    #[test]
    fn opaque_near_splat_occludes_far_splat() {
        let near = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.99,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let far = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.99,
            Rgb::new(0.0, 1.0, 0.0),
            2.0,
            1,
        );
        let projected = vec![near, far];
        let (image, _) = rasterize_tile(&[0, 1], &projected, &tile(), Rgb::BLACK);
        // Center pixel is dominated by the near (red) splat.
        let center = image.pixel(8, 8);
        assert!(center.r > 0.9);
        assert!(center.g < 0.1);
    }

    #[test]
    fn blend_order_matters() {
        let red = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.6,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let green = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.6,
            Rgb::new(0.0, 1.0, 0.0),
            2.0,
            1,
        );
        let projected = vec![red, green];
        let (front_red, _) = rasterize_tile(&[0, 1], &projected, &tile(), Rgb::BLACK);
        let (front_green, _) = rasterize_tile(&[1, 0], &projected, &tile(), Rgb::BLACK);
        let a = front_red.pixel(8, 8);
        let b = front_green.pixel(8, 8);
        assert!(a.r > a.g);
        assert!(b.g > b.r);
    }

    #[test]
    fn low_alpha_splats_cost_computation_but_not_blending() {
        // A splat whose contribution is everywhere below 1/255.
        let faint = splat(Vec2::new(8.0, 8.0), 4.0, 0.002, Rgb::WHITE, 1.0, 0);
        let (_, counts) = rasterize_tile(&[0], &[faint], &tile(), Rgb::BLACK);
        assert_eq!(counts.alpha_computations, 256);
        assert_eq!(counts.blend_operations, 0);
    }

    #[test]
    fn early_exit_triggers_behind_opaque_stack() {
        // Many fully opaque splats stacked: after a few, transmittance hits
        // the epsilon and the remaining splats are skipped.
        let projected: Vec<ProjectedGaussian> = (0..50)
            .map(|i| splat(Vec2::new(8.0, 8.0), 20.0, 0.99, Rgb::WHITE, i as f32, i))
            .collect();
        let order: Vec<u32> = (0..50).collect();
        let (_, counts) = rasterize_tile(&order, &projected, &tile(), Rgb::BLACK);
        assert!(counts.early_exits > 0);
        // Far fewer than 50 α-computations per pixel on average.
        assert!(counts.alpha_computations < 50 * 256 / 2);
    }

    #[test]
    fn distant_splat_contributes_nothing_outside_footprint() {
        let far_away = splat(Vec2::new(200.0, 200.0), 1.0, 0.9, Rgb::WHITE, 1.0, 0);
        let (image, counts) = rasterize_tile(&[0], &[far_away], &tile(), Rgb::BLACK);
        assert_eq!(counts.blend_operations, 0);
        assert!(image
            .pixels()
            .iter()
            .all(|p| p.max_abs_diff(Rgb::BLACK) < 1e-6));
    }

    #[test]
    fn clipped_tile_dimensions_are_respected() {
        let rect = TileRect::new(0.0, 0.0, 10.0, 7.0);
        let (image, counts) = rasterize_tile(&[], &[], &rect, Rgb::BLACK);
        assert_eq!(image.width(), 10);
        assert_eq!(image.height(), 7);
        assert_eq!(image.pixel_count(), 70);
        assert_eq!(counts.pixels, 70);
    }

    #[test]
    fn transmittance_conservation() {
        // With a semi-transparent splat over a white background, the pixel
        // is a convex combination of splat color and background.
        let s = splat(
            Vec2::new(8.0, 8.0),
            10.0,
            0.5,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let (image, _) = rasterize_tile(&[0], &[s], &tile(), Rgb::WHITE);
        let c = image.pixel(8, 8);
        assert!((c.r - 1.0).abs() < 1e-3); // red from both
        assert!((c.g - 0.5).abs() < 0.02); // half the white background
        assert!(c.g > 0.0 && c.g < 1.0);
    }

    /// The kernel shading straight into the frame (origin `(0, 0)`) matches
    /// the same kernel shading into a tile-sized buffer at the tile's
    /// origin — the parallel fan-out's form.
    #[test]
    fn in_place_rasterization_matches_the_buffered_kernel() {
        let projected: Vec<ProjectedGaussian> = (0..6)
            .map(|i| {
                splat(
                    Vec2::new(3.0 + 2.0 * i as f32, 8.0),
                    4.0,
                    0.5,
                    Rgb::new(0.2 * i as f32, 0.5, 1.0 - 0.1 * i as f32),
                    1.0 + i as f32,
                    i,
                )
            })
            .collect();
        let order: Vec<u32> = (0..6).collect();
        let background = Rgb::splat(0.1);

        for rect in [tile(), TileRect::new(5.0, 3.0, 16.0, 14.0)] {
            let (buffered, buffered_counts) = rasterize_tile(&order, &projected, &rect, background);

            let mut image = Framebuffer::new(16, 16, Rgb::BLACK);
            let mut counts = StageCounts::new();
            rasterize_tile_into_with(
                &order,
                &projected,
                &rect,
                background,
                &mut image,
                (0, 0),
                &mut counts,
            );

            assert_eq!(counts, buffered_counts);
            assert_frame_holds_tile(&image, &buffered, &rect);
        }
    }

    /// A varied splat population: an opaque stack (drives the early-exit),
    /// faint splats (α-cull), an off-tile splat (cutoff), ordinary
    /// semi-transparent ones, and a unit-conic splat centred on pixel
    /// (12, 12), so that lane's `m` is exactly 0 and the lanes 3 px away
    /// in each axis sit exactly on the cutoff, `m = 9`: the two edges of
    /// the α pass's clamp.
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
        projected.push(splat(Vec2::new(12.5, 12.5), 1.0, 0.9, Rgb::WHITE, 11.0, 11));
        let order: Vec<u32> = (0..projected.len() as u32).collect();
        (projected, order)
    }

    /// Asserts that the block walk and the per-pixel reference shade
    /// `rect` to the same pixel bits and the same counters, and returns the
    /// reference counters.
    fn assert_block_walk_matches_reference(
        order: &[u32],
        projected: &[ProjectedGaussian],
        rect: &TileRect,
        background: Rgb,
    ) -> StageCounts {
        let (reference, reference_counts) = reference_tile(order, projected, rect, background);
        let (wide, wide_counts) = rasterize_tile(order, projected, rect, background);
        assert_eq!(wide_counts, reference_counts, "counters at {rect:?}");
        assert_eq!(reference.pixel_count(), wide.pixel_count(), "{rect:?}");
        for (i, (a, b)) in reference.pixels().iter().zip(wide.pixels()).enumerate() {
            assert_eq!(
                [a.r.to_bits(), a.g.to_bits(), a.b.to_bits()],
                [b.r.to_bits(), b.g.to_bits(), b.b.to_bits()],
                "pixel {i} at {rect:?}"
            );
        }
        reference_counts
    }

    /// The block walk on clipped rects of every shape a 16-px tile grid
    /// produces, over a list where pixels die at different splats, the
    /// bottom-right corner never dies, and two splats have conics that are
    /// not positive definite (m < 0 and m = NaN).
    #[test]
    fn block_walk_matches_scalar_on_clipped_rects() {
        // An opaque stack centred on the top-left corner, widening with
        // depth: the centre dies after a few splats, the rim after many,
        // and nothing reaches (15, 15).
        let mut projected: Vec<ProjectedGaussian> = (0..14u32)
            .map(|i| {
                splat(
                    Vec2::new(2.0, 3.0),
                    1.0 + 0.35 * i as f32,
                    0.9,
                    Rgb::new(0.05 * i as f32, 0.4, 0.9),
                    i as f32,
                    i,
                )
            })
            .collect();
        // Indefinite conic: m = (dx² − dy²) / 8 is negative above and below
        // the mean and in range beside it.
        let mut saddle = splat(Vec2::new(9.0, 8.0), 2.0, 0.7, Rgb::WHITE, 14.0, 14);
        saddle.cov = Mat2::from_symmetric(8.0, 0.0, -8.0);
        saddle.inv_det = 1.0 / saddle.cov.determinant();
        assert_eq!(saddle.conic(), Mat2::from_symmetric(0.125, 0.0, -0.125));
        // NaN conic: m is NaN everywhere, so it never blends.
        let mut broken = splat(Vec2::new(8.0, 8.0), 2.0, 0.9, Rgb::WHITE, 15.0, 15);
        broken.cov = Mat2::from_symmetric(1.0, 0.0, f32::NAN);
        broken.inv_det = 1.0;
        assert!(broken.conic().at(0, 0).is_nan());
        assert_eq!(alpha_at(&saddle, Vec2::new(9.5, 12.5)), 0.0);
        assert!(alpha_at(&saddle, Vec2::new(12.5, 8.5)) > ALPHA_CULL_THRESHOLD);
        projected.extend([saddle, broken]);
        let order: Vec<u32> = (0..projected.len() as u32).collect();
        let background = Rgb::new(0.3, 0.2, 0.1);

        for rect in [
            TileRect::new(15.0, 15.0, 16.0, 16.0),
            TileRect::new(7.0, 2.0, 12.0, 5.0),
            TileRect::new(3.0, 0.0, 16.0, 16.0),
            TileRect::new(0.0, 9.0, 16.0, 16.0),
            TileRect::new(0.0, 0.0, 16.0, 16.0),
        ] {
            assert_block_walk_matches_reference(&order, &projected, &rect, background);
            let empty = assert_block_walk_matches_reference(&[], &projected, &rect, background);
            assert_eq!(empty.alpha_computations, 0, "{rect:?}");
        }

        // The full tile really has pixels that die and pixels that never do.
        let full = assert_block_walk_matches_reference(&order, &projected, &tile(), background);
        assert!(full.early_exits > 0 && full.early_exits < full.pixels);
    }

    #[test]
    fn wide_modes_are_bit_identical_to_scalar_with_identical_counters() {
        let (projected, order) = mixed_splats();
        let background = Rgb::new(0.2, 0.3, 0.4);
        // The unit-conic splat's rim lane is exactly on the cutoff, and
        // blends.
        let edge = projected.last().unwrap();
        let rim = alpha_at(edge, Vec2::new(15.5, 12.5));
        assert_eq!(rim, 0.9 * exp_neg(-4.5));
        assert!(rim > ALPHA_CULL_THRESHOLD);
        assert_eq!(alpha_at(edge, Vec2::new(12.5, 12.5)), 0.9);
        // Widths exercise one whole block, partial blocks and a rect that
        // spans two blocks.
        for (w, h) in [(16.0, 16.0), (10.0, 7.0), (3.0, 5.0), (17.0, 9.0)] {
            let rect = TileRect::new(0.0, 0.0, w, h);
            assert_block_walk_matches_reference(&order, &projected, &rect, background);
        }
    }

    /// The wide kernel shading straight into the frame matches it shading
    /// into a tile-sized buffer at a non-zero origin, pixel for pixel and
    /// counter for counter.
    #[test]
    fn wide_in_place_rasterization_matches_buffered_and_charges_identically() {
        let (projected, order) = mixed_splats();
        let background = Rgb::splat(0.15);
        let rect = TileRect::new(2.0, 1.0, 15.0, 12.0);
        let (buffered, buffered_counts) = rasterize_tile(&order, &projected, &rect, background);
        let mut image = Framebuffer::new(16, 16, Rgb::BLACK);
        let mut counts = StageCounts::new();
        rasterize_tile_into_with(
            &order,
            &projected,
            &rect,
            background,
            &mut image,
            (0, 0),
            &mut counts,
        );
        assert_eq!(counts, buffered_counts);
        assert_eq!((buffered.width(), buffered.height()), (13, 11));
        assert_frame_holds_tile(&image, &buffered, &rect);
    }

    #[test]
    fn early_exit_stack_charges_identically_across_lane_widths() {
        let projected: Vec<ProjectedGaussian> = (0..50)
            .map(|i| splat(Vec2::new(8.0, 8.0), 20.0, 0.99, Rgb::WHITE, i as f32, i))
            .collect();
        let order: Vec<u32> = (0..50).collect();
        let counts = assert_block_walk_matches_reference(&order, &projected, &tile(), Rgb::BLACK);
        assert_eq!(counts.early_exits, counts.pixels);
    }

    #[test]
    fn degenerate_rects_rasterize_nothing() {
        let (projected, order) = mixed_splats();
        // Zero-width, zero-height and fully empty rects return an empty
        // raster without charging any work.
        for rect in [
            TileRect::new(4.0, 2.0, 4.0, 9.0),
            TileRect::new(3.0, 5.0, 11.0, 5.0),
            TileRect::new(7.0, 7.0, 7.0, 7.0),
        ] {
            let (out, out_counts) = rasterize_tile(&order, &projected, &rect, Rgb::WHITE);
            assert_eq!(out.width() * out.height(), 0, "{rect:?}");
            assert!(out.pixels().is_empty(), "{rect:?}");
            assert_eq!(out_counts, StageCounts::new(), "{rect:?}");

            let mut image = Framebuffer::new(16, 16, Rgb::BLACK);
            let mut counts = StageCounts::new();
            rasterize_tile_into_with(
                &order,
                &projected,
                &rect,
                Rgb::WHITE,
                &mut image,
                (0, 0),
                &mut counts,
            );
            assert_eq!(counts, StageCounts::new(), "{rect:?}");
            assert!(image.pixel(7, 7).max_abs_diff(Rgb::BLACK) < 1e-9);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inverted tile rect")]
    fn inverted_rects_are_rejected_in_debug_builds() {
        let rect = TileRect::new(10.0, 0.0, 2.0, 16.0);
        let _ = rasterize_tile(&[], &[], &rect, Rgb::BLACK);
    }

    #[test]
    fn thresholds_match_reference_implementation() {
        assert!((ALPHA_CULL_THRESHOLD - 1.0 / 255.0).abs() < 1e-9);
        assert!((TRANSMITTANCE_EPSILON - 1e-4).abs() < 1e-9);
    }
}
