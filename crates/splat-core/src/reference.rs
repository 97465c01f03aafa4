//! The brute-force image every pipeline is checked against.
//!
//! Both pipelines render by tiles: they test which splats may touch a tile
//! (or a group), sort each list with the stable radix sort and blend every
//! tile with the block kernel of `crate::blend`. Losslessness means that
//! all of that machinery changes how much work is done, never the image.
//! This module states the image without any of it: [`render_reference`]
//! sorts every projected splat once, in the global `(depth, index)` order
//! of `splat_key`, and shades each pixel by walking that whole list with
//! `shade_pixel`. It shares only `alpha_at`, the thresholds and the
//! depth-to-`u32` mapping with the pipelines: no tile grid, boundary test,
//! radix sort or tile kernel, and it breaks depth ties by the index in the
//! key rather than by the order a bin was staged in. No render path calls
//! it.
//!
//! A pipeline matches it bit for bit for two reasons: α is exactly zero
//! outside a splat's 3σ ellipse (`alpha_at`), and every tile list is a
//! subsequence of the global order that holds every splat with non-zero α
//! on that tile. So pixels, `blend_operations` and `early_exits` are equal,
//! and a pipeline's `alpha_computations` is at most the reference's.

use crate::blend::{alpha_at, ALPHA_CULL_THRESHOLD, TRANSMITTANCE_EPSILON};
use crate::image::Framebuffer;
use crate::keysort::splat_key;
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::{Rgb, Vec2};

/// Renders `projected` at `width` × `height` without tiles: one sort of
/// every splat by `splat_key`, then `shade_pixel` over the whole list
/// at every pixel centre. Returns the image and the raster counters
/// (`pixels`, `alpha_computations`, `blend_operations`, `early_exits`).
pub fn render_reference(
    projected: &[ProjectedGaussian],
    width: u32,
    height: u32,
    background: Rgb,
) -> (Framebuffer, StageCounts) {
    let mut keyed: Vec<(u64, u32)> = projected
        .iter()
        .zip(0u32..)
        .map(|(splat, slot)| (splat_key(splat.depth, splat.index), slot))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    let order: Vec<u32> = keyed.into_iter().map(|(_, slot)| slot).collect();

    let mut image = Framebuffer::new(width, height, background);
    let mut counts = StageCounts::new();
    for py in 0..height {
        let row = image.row_mut(py, 0..width);
        for (px, out) in (0u32..).zip(row.iter_mut()) {
            counts.pixels += 1;
            let pixel_center = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
            *out = shade_pixel(&order, projected, pixel_center, background, &mut counts);
        }
    }
    (image, counts)
}

/// Walks a sorted splat list front-to-back for one pixel (Eqs. 1–2 with
/// the 1/255 α-cull and 10⁻⁴ transmittance early-exit), charging
/// α-computations, blends and early exits to `counts`. The caller charges
/// `counts.pixels`.
///
/// # Panics
///
/// Panics when a slot of `sorted` is out of bounds of `projected`.
pub(crate) fn shade_pixel(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    pixel_center: Vec2,
    background: Rgb,
    counts: &mut StageCounts,
) -> Rgb {
    let mut transmittance = 1.0f32;
    let mut color = Rgb::BLACK;
    for &slot in sorted {
        let splat = &projected[slot as usize];
        counts.alpha_computations += 1;
        let alpha = alpha_at(splat, pixel_center);
        if alpha < ALPHA_CULL_THRESHOLD {
            continue;
        }
        color += splat.color * (alpha * transmittance);
        transmittance *= 1.0 - alpha;
        counts.blend_operations += 1;
        if transmittance < TRANSMITTANCE_EPSILON {
            counts.early_exits += 1;
            break;
        }
    }
    color + background * transmittance
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::Mat2;

    fn splat(index: u32, depth: f32, x: f32, color: Rgb) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(4.0, 0.0, 4.0);
        ProjectedGaussian {
            index,
            depth,
            mean: Vec2::new(x, 2.0),
            cov,
            inv_det: 1.0 / cov.determinant(),
            opacity: 0.9,
            color,
        }
    }

    #[test]
    fn reference_blends_in_depth_order_whatever_the_slot_order() {
        let red = Rgb::new(1.0, 0.0, 0.0);
        let green = Rgb::new(0.0, 1.0, 0.0);
        // Slot 0 is behind slot 1; equal depths fall back to the index.
        let projected = [
            splat(0, 3.0, 4.0, red),
            splat(1, 1.0, 4.0, green),
            splat(2, 3.0, 4.5, red),
        ];
        let (image, counts) = render_reference(&projected, 9, 5, Rgb::BLACK);
        assert_eq!(counts.pixels, 45);
        let mut expected_counts = StageCounts::new();
        let expected = shade_pixel(
            &[1, 0, 2],
            &projected,
            Vec2::new(4.5, 2.5),
            Rgb::BLACK,
            &mut expected_counts,
        );
        assert_eq!(image.pixel(4, 2), expected);
        assert!(expected.g > expected.r);
        assert!(counts.alpha_computations >= 45);
        assert!(counts.blend_operations > 0);
    }

    #[test]
    fn empty_frames_and_empty_scenes_are_background() {
        let (empty, counts) = render_reference(&[], 0, 3, Rgb::WHITE);
        assert_eq!(empty.pixel_count(), 0);
        assert_eq!(counts, StageCounts::new());
        let (image, counts) = render_reference(&[], 2, 2, Rgb::splat(0.5));
        assert!(image.pixels().iter().all(|&p| p == Rgb::splat(0.5)));
        assert_eq!(counts.alpha_computations, 0);
        assert_eq!(counts.pixels, 4);
    }
}
