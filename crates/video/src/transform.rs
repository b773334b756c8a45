//! The five video transformations of the paper's evaluation (Fig. 4):
//! resize, vertical shift, gamma, contrast and Gaussian noise addition.
//!
//! Geometric transforms (`Resize`, `Shift`) keep the canvas size — a resized
//! copy is re-broadcast at the original resolution, shifting fills with black
//! — matching the TV post-production operations the paper models. Each
//! transform also exposes the induced mapping of image positions, which the
//! "perfect interest point detector" of §IV-C uses to measure distortion
//! vectors at matched positions.

use crate::frame::Frame;
use crate::synth::VideoSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One video transformation with its paper parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transform {
    /// Resize of factor `wscale` about the frame centre.
    Resize {
        /// Scale factor (`< 1` shrinks, `> 1` zooms).
        wscale: f32,
    },
    /// Vertical shift by `wshift` percent of the image height.
    Shift {
        /// Shift amplitude in percent of height.
        wshift: f32,
    },
    /// Gamma modification `I' = 255 (I/255)^wgamma`.
    Gamma {
        /// Gamma exponent.
        wgamma: f32,
    },
    /// Contrast modification `I' = wcontrast · I`, clipped to `[0, 255]`.
    Contrast {
        /// Contrast gain.
        wcontrast: f32,
    },
    /// Additive Gaussian noise of standard deviation `wnoise`.
    Noise {
        /// Noise standard deviation (graylevels).
        wnoise: f32,
    },
    /// Opaque rectangular insertion (logo, banner, subtitle box) covering
    /// `winsert` percent of the frame area, anchored at the bottom-right —
    /// the "inserting" operation of the paper's TV context (§I). Local
    /// fingerprints away from the insertion survive; global descriptors
    /// would not.
    Insert {
        /// Inserted area in percent of the frame.
        winsert: f32,
    },
    /// Letterboxing: black horizontal bars covering `wletterbox` percent of
    /// the height (half top, half bottom), as produced by aspect-ratio
    /// conversion in TV post-production.
    Letterbox {
        /// Total bar height in percent of the frame height.
        wletterbox: f32,
    },
}

impl Transform {
    /// Applies the transform to one frame. `rng` drives the noise transform
    /// (pass a per-frame-seeded RNG for reproducibility).
    pub fn apply(&self, frame: &Frame, rng: &mut StdRng) -> Frame {
        match *self {
            Transform::Resize { wscale } => {
                assert!(wscale > 0.0, "wscale must be positive");
                let (w, h) = (frame.width(), frame.height());
                let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
                // Destination (x, y) pulls from source position
                // centre + (dst - centre)/scale, bilinearly. The source cell
                // and weights of a column (row) serve every row (column);
                // the sum is `Frame::sample_bilinear`'s, term for term.
                let cols = resize_taps(w, cx, wscale);
                let rows = resize_taps(h, cy, wscale);
                let src = frame.data();
                let mut out = Frame::new(w, h);
                for (row, ty) in out.data_mut().chunks_exact_mut(w).zip(&rows) {
                    let Some(ty) = ty else { continue };
                    let (r0, r1) = (&src[ty.i0 * w..][..w], &src[ty.i1 * w..][..w]);
                    for (px, tx) in row.iter_mut().zip(&cols) {
                        let Some(tx) = tx else { continue };
                        let (a, b) = (r0[tx.i0], r0[tx.i1]);
                        let (c, d) = (r1[tx.i0], r1[tx.i1]);
                        *px = a * tx.w0 * ty.w0
                            + b * tx.w1 * ty.w0
                            + c * tx.w0 * ty.w1
                            + d * tx.w1 * ty.w1;
                    }
                }
                out
            }
            Transform::Shift { wshift } => {
                let (w, h) = (frame.width(), frame.height());
                let dy = (wshift / 100.0 * h as f32).round() as isize;
                let mut out = Frame::new(w, h);
                for y in 0..h {
                    let sy = y as isize - dy;
                    for x in 0..w {
                        let v = if sy < 0 || sy >= h as isize {
                            0.0
                        } else {
                            frame.get(x, sy as usize)
                        };
                        out.set(x, y, v);
                    }
                }
                out
            }
            Transform::Gamma { wgamma } => {
                assert!(wgamma > 0.0, "wgamma must be positive");
                let mut out = frame.clone();
                for v in out.data_mut() {
                    *v = 255.0 * (*v / 255.0).max(0.0).powf(wgamma);
                }
                out
            }
            Transform::Contrast { wcontrast } => {
                assert!(wcontrast >= 0.0, "wcontrast must be non-negative");
                let mut out = frame.clone();
                for v in out.data_mut() {
                    *v = (*v * wcontrast).clamp(0.0, 255.0);
                }
                out
            }
            Transform::Noise { wnoise } => {
                assert!(wnoise >= 0.0, "wnoise must be non-negative");
                let mut out = frame.clone();
                for v in out.data_mut() {
                    // Box-Muller from two uniforms.
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    let n = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                    *v = (*v + wnoise * n).clamp(0.0, 255.0);
                }
                out
            }
            Transform::Insert { winsert } => {
                assert!((0.0..=100.0).contains(&winsert), "winsert is a percentage");
                let (w, h) = (frame.width(), frame.height());
                let mut out = frame.clone();
                // A square-ish patch of the requested area, bottom-right:
                // flat and bright with a thin dark border, like a typical
                // broadcast logo or banner (flat interiors keep the Harris
                // detector from being hijacked by the insertion, as a
                // high-frequency pattern would be).
                let area = winsert / 100.0 * (w * h) as f32;
                let side = area.sqrt();
                let pw = (side * (w as f32 / h as f32).sqrt()).round() as usize;
                let ph = (side * (h as f32 / w as f32).sqrt()).round() as usize;
                let pw = pw.min(w);
                let ph = ph.min(h);
                for dy in 0..ph {
                    for dx in 0..pw {
                        let border = dx == 0 || dy == 0 || dx == pw - 1 || dy == ph - 1;
                        let v = if border { 30.0 } else { 215.0 };
                        out.set(w - pw + dx, h - ph + dy, v);
                    }
                }
                out
            }
            Transform::Letterbox { wletterbox } => {
                assert!(
                    (0.0..=100.0).contains(&wletterbox),
                    "wletterbox is a percentage"
                );
                let (w, h) = (frame.width(), frame.height());
                let bar = (wletterbox / 200.0 * h as f32).round() as usize;
                let mut out = frame.clone();
                for y in 0..bar.min(h) {
                    for x in 0..w {
                        out.set(x, y, 0.0);
                        out.set(x, h - 1 - y, 0.0);
                    }
                }
                out
            }
        }
    }

    /// Maps a source-frame position to its location in the transformed frame
    /// (identity for photometric transforms). This is the "perfect interest
    /// point detector" of §IV-C: positions in the transformed sequence are
    /// *computed* from the original ones instead of re-detected.
    pub fn map_position(&self, x: f32, y: f32, width: usize, height: usize) -> (f32, f32) {
        match *self {
            Transform::Resize { wscale } => {
                let cx = (width as f32 - 1.0) / 2.0;
                let cy = (height as f32 - 1.0) / 2.0;
                (cx + (x - cx) * wscale, cy + (y - cy) * wscale)
            }
            Transform::Shift { wshift } => {
                let dy = (wshift / 100.0 * height as f32).round();
                (x, y + dy)
            }
            _ => (x, y),
        }
    }

    /// Human-readable label matching the paper's notation.
    pub fn label(&self) -> String {
        match *self {
            Transform::Resize { wscale } => format!("wscale={wscale}"),
            Transform::Shift { wshift } => format!("wshift={wshift}%"),
            Transform::Gamma { wgamma } => format!("wgamma={wgamma}"),
            Transform::Contrast { wcontrast } => format!("wcontrast={wcontrast}"),
            Transform::Noise { wnoise } => format!("wnoise={wnoise}"),
            Transform::Insert { winsert } => format!("winsert={winsert}%"),
            Transform::Letterbox { wletterbox } => format!("wletterbox={wletterbox}%"),
        }
    }
}

/// One axis of a bilinear resize tap: the two source samples a destination
/// coordinate reads and their weights `1 − f` and `f`.
struct Tap {
    i0: usize,
    i1: usize,
    w0: f32,
    w1: f32,
}

/// The taps of the `n` destination coordinates of one axis under a resize
/// of `wscale` about `c`; `None` where the source falls outside the frame
/// (black).
fn resize_taps(n: usize, c: f32, wscale: f32) -> Vec<Option<Tap>> {
    let last = (n - 1) as f32;
    (0..n)
        .map(|d| {
            let s = c + (d as f32 - c) / wscale;
            if s < 0.0 || s > last {
                return None;
            }
            let i0 = s.floor() as usize;
            let f = s - i0 as f32;
            Some(Tap {
                i0,
                i1: (i0 + 1).min(n - 1),
                w0: 1.0 - f,
                w1: f,
            })
        })
        .collect()
}

/// A composition of transforms (applied in order) — the paper's combined
/// attacks, e.g. "resizing, gamma modification, noise addition" (§IV-C).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransformChain {
    transforms: Vec<Transform>,
}

impl TransformChain {
    /// Builds a chain from a list of transforms.
    pub fn new(transforms: Vec<Transform>) -> Self {
        TransformChain { transforms }
    }

    /// The identity chain.
    pub fn identity() -> Self {
        TransformChain::default()
    }

    /// The transforms in application order.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Applies all transforms in order.
    pub fn apply(&self, frame: &Frame, rng: &mut StdRng) -> Frame {
        let Some((first, rest)) = self.transforms.split_first() else {
            return frame.clone();
        };
        let mut f = first.apply(frame, rng);
        for t in rest {
            f = t.apply(&f, rng);
        }
        f
    }

    /// Composes the position mappings of all transforms.
    pub fn map_position(&self, x: f32, y: f32, width: usize, height: usize) -> (f32, f32) {
        let mut p = (x, y);
        for t in &self.transforms {
            p = t.map_position(p.0, p.1, width, height);
        }
        p
    }

    /// Label combining all component labels.
    pub fn label(&self) -> String {
        if self.transforms.is_empty() {
            "identity".to_string()
        } else {
            self.transforms
                .iter()
                .map(Transform::label)
                .collect::<Vec<_>>()
                .join(", ")
        }
    }
}

/// A transformed view of a video source: frame `t` is `chain(source[t])`,
/// with per-frame deterministic noise seeding.
pub struct TransformedVideo<'a, V: VideoSource> {
    source: &'a V,
    chain: TransformChain,
    noise_seed: u64,
}

impl<'a, V: VideoSource> TransformedVideo<'a, V> {
    /// Wraps `source` with `chain`; `noise_seed` makes noise reproducible.
    pub fn new(source: &'a V, chain: TransformChain, noise_seed: u64) -> Self {
        TransformedVideo {
            source,
            chain,
            noise_seed,
        }
    }

    /// The chain applied by this view.
    pub fn chain(&self) -> &TransformChain {
        &self.chain
    }
}

impl<V: VideoSource> VideoSource for TransformedVideo<'_, V> {
    fn width(&self) -> usize {
        self.source.width()
    }

    fn height(&self) -> usize {
        self.source.height()
    }

    fn len(&self) -> usize {
        self.source.len()
    }

    fn frame(&self, t: usize) -> Frame {
        let mut rng = StdRng::seed_from_u64(self.noise_seed ^ (t as u64).wrapping_mul(0x9E37));
        self.chain.apply(&self.source.frame(t), &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ProceduralVideo;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn test_frame() -> Frame {
        let mut f = Frame::new(32, 24);
        for y in 0..24 {
            for x in 0..32 {
                f.set(x, y, ((x * 7 + y * 5) % 256) as f32);
            }
        }
        f
    }

    #[test]
    fn gamma_one_is_identity() {
        let f = test_frame();
        let g = Transform::Gamma { wgamma: 1.0 }.apply(&f, &mut rng());
        for (a, b) in f.data().iter().zip(g.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_darkens_or_brightens() {
        let f = test_frame();
        let dark = Transform::Gamma { wgamma: 2.0 }.apply(&f, &mut rng());
        let bright = Transform::Gamma { wgamma: 0.5 }.apply(&f, &mut rng());
        assert!(dark.mean() < f.mean());
        assert!(bright.mean() > f.mean());
    }

    #[test]
    fn contrast_scales_and_clips() {
        let f = test_frame();
        let c = Transform::Contrast { wcontrast: 2.5 }.apply(&f, &mut rng());
        for (&a, &b) in f.data().iter().zip(c.data()) {
            assert!((b - (a * 2.5).min(255.0)).abs() < 1e-4);
        }
    }

    #[test]
    fn shift_moves_content_down() {
        let f = test_frame();
        let s = Transform::Shift { wshift: 25.0 }.apply(&f, &mut rng());
        // 25% of 24 = 6 rows; row 6 of output = row 0 of input.
        for x in 0..32 {
            assert_eq!(s.get(x, 6), f.get(x, 0));
            assert_eq!(s.get(x, 0), 0.0, "vacated rows are black");
        }
    }

    #[test]
    fn resize_identity_factor() {
        let f = test_frame();
        let r = Transform::Resize { wscale: 1.0 }.apply(&f, &mut rng());
        for (a, b) in f.data().iter().zip(r.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn resize_down_keeps_center_adds_black_border() {
        let mut f = Frame::new(33, 33);
        for v in f.data_mut() {
            *v = 200.0;
        }
        let r = Transform::Resize { wscale: 0.5 }.apply(&f, &mut rng());
        // Centre survives.
        assert!((r.get(16, 16) - 200.0).abs() < 1.0);
        // Corners become black (outside the shrunk image).
        assert_eq!(r.get(0, 0), 0.0);
        assert_eq!(r.get(32, 32), 0.0);
    }

    #[test]
    fn noise_changes_values_in_range() {
        let f = test_frame();
        let n = Transform::Noise { wnoise: 10.0 }.apply(&f, &mut rng());
        assert_ne!(f, n);
        for &v in n.data() {
            assert!((0.0..=255.0).contains(&v));
        }
        // Empirical noise level near wnoise (clipping aside).
        let diff: f32 = f
            .data()
            .iter()
            .zip(n.data())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            / f.data().len() as f32;
        let sd = diff.sqrt();
        assert!(sd > 5.0 && sd < 15.0, "noise sd {sd}");
    }

    #[test]
    fn zero_noise_is_identity() {
        let f = test_frame();
        let n = Transform::Noise { wnoise: 0.0 }.apply(&f, &mut rng());
        assert_eq!(f, n);
    }

    #[test]
    fn position_mapping_matches_resize_geometry() {
        let t = Transform::Resize { wscale: 0.8 };
        let (w, h) = (352usize, 288usize);
        // The centre is fixed.
        let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
        let (mx, my) = t.map_position(cx, cy, w, h);
        assert!((mx - cx).abs() < 1e-4 && (my - cy).abs() < 1e-4);
        // A point at the centre +10 maps to centre +8.
        let (mx, my) = t.map_position(cx + 10.0, cy, w, h);
        assert!((mx - (cx + 8.0)).abs() < 1e-3);
        assert!((my - cy).abs() < 1e-4);
    }

    #[test]
    fn position_mapping_roundtrips_through_pixels() {
        // Rendering a transformed frame then reading the mapped position must
        // land on the same content (away from borders).
        let f = test_frame();
        let t = Transform::Shift { wshift: 10.0 };
        let out = t.apply(&f, &mut rng());
        let (mx, my) = t.map_position(10.0, 10.0, 32, 24);
        assert_eq!(out.get(mx as usize, my as usize), f.get(10, 10));
    }

    #[test]
    fn chain_composes_in_order() {
        let f = test_frame();
        let chain = TransformChain::new(vec![
            Transform::Contrast { wcontrast: 2.0 },
            Transform::Gamma { wgamma: 1.0 },
        ]);
        let out = chain.apply(&f, &mut rng());
        let direct = Transform::Contrast { wcontrast: 2.0 }.apply(&f, &mut rng());
        for (a, b) in out.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        assert_eq!(chain.label(), "wcontrast=2, wgamma=1");
        assert_eq!(TransformChain::identity().label(), "identity");
    }

    #[test]
    fn insert_covers_requested_area_bottom_right() {
        let f = test_frame();
        let t = Transform::Insert { winsert: 25.0 };
        let out = t.apply(&f, &mut rng());
        // Bottom-right pixel belongs to the logo (border or fill value).
        let v = out.get(31, 23);
        assert!(v == 215.0 || v == 30.0, "{v}");
        // Top-left untouched.
        assert_eq!(out.get(0, 0), f.get(0, 0));
        assert_eq!(out.get(10, 5), f.get(10, 5));
        // Covered fraction roughly 25 %.
        let changed = out
            .data()
            .iter()
            .zip(f.data())
            .filter(|(a, b)| a != b)
            .count();
        let frac = changed as f32 / (32.0 * 24.0);
        assert!((0.15..=0.30).contains(&frac), "covered {frac}");
    }

    #[test]
    fn letterbox_blacks_out_bars_only() {
        let mut f = test_frame();
        for v in f.data_mut() {
            *v = v.max(1.0); // no pre-existing black
        }
        let t = Transform::Letterbox { wletterbox: 25.0 };
        let out = t.apply(&f, &mut rng());
        // 25% of 24 rows = 6 rows of bars, 3 top + 3 bottom.
        for y in 0..3 {
            for x in 0..32 {
                assert_eq!(out.get(x, y), 0.0);
                assert_eq!(out.get(x, 23 - y), 0.0);
            }
        }
        assert_ne!(out.get(5, 12), 0.0, "centre intact");
    }

    #[test]
    fn insert_and_letterbox_have_identity_position_mapping() {
        for t in [
            Transform::Insert { winsert: 10.0 },
            Transform::Letterbox { wletterbox: 20.0 },
        ] {
            assert_eq!(t.map_position(7.0, 9.0, 96, 72), (7.0, 9.0));
        }
    }

    #[test]
    fn transformed_video_is_deterministic() {
        let v = ProceduralVideo::new(32, 24, 10, 5);
        let chain = TransformChain::new(vec![Transform::Noise { wnoise: 10.0 }]);
        let tv = TransformedVideo::new(&v, chain.clone(), 77);
        let tv2 = TransformedVideo::new(&v, chain, 77);
        assert_eq!(tv.frame(3), tv2.frame(3));
        assert_eq!(tv.len(), 10);
    }
}
